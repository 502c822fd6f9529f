//! BER-driven link fault injection with CRC/NACK retransmission.
//!
//! The paper verifies the SRLR link to BER < 1e-9 with an on-chip PRBS
//! checker and argues that residual link errors are rare enough to
//! retransmit. This module closes the loop at the network layer: every
//! inter-router link flips flit bits with a configurable bit-error rate
//! (measured from the `srlr-link` physics, see
//! `srlr_link::error_model::LinkErrorModel`), receivers check the flit
//! CRC-16, and detected errors trigger a link-level NACK/retransmission
//! with a bounded retry count, an ACK timeout, and per-retry backoff.
//!
//! Determinism: each directed link owns its own counter-based RNG stream
//! (`srlr_rng::stream_seed(seed, link_index)`), so a simulation is a pure
//! function of its configuration regardless of traffic interleaving, and
//! sweeps fan out over threads ([`ber_sweep`]) bit-identically to a
//! serial run.
//!
//! Modelling choices, stated explicitly:
//!
//! * A clean traversal costs exactly one RNG draw; with `ber == 0` the
//!   draw is skipped entirely, so the fault path is zero-cost when
//!   disabled and delivery is bit-identical to a fault-free network.
//! * On a corrupted traversal the model flips real bits in the flit's
//!   80-bit codeword (64-bit payload + CRC-16) and runs the real CRC
//!   check, so undetected ("silent") corruption has the true CRC-16
//!   escape behaviour rather than an assumed probability.
//! * Retry `k` is delayed by `ack_timeout + backoff * (k - 1)` cycles on
//!   top of the normal link latency (NACK travels back over the reverse
//!   wire, the sender re-serialises after a growing backoff).
//! * A flit that exhausts its retries is *forced through* poisoned —
//!   dropping a wormhole flit would leave routes dangling — and the
//!   ejection port discards the whole packet, which is what the
//!   delivered/dropped accounting reports.

use crate::packet::{crc16, Flit};
use crate::protocol::{retry_step, AttemptOutcome, RetryState, RetryStep};
use crate::router::NocConfig;
use crate::stats::{Histogram, NetworkStats};
use crate::topology::{Coord, Direction, Mesh};
use crate::traffic::Pattern;
use srlr_rng::Xoshiro256pp;

/// Bits in the protected codeword: 64-bit payload + CRC-16.
const CODEWORD_BITS: usize = 80;

/// Per-link fault-injection and retransmission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Raw per-bit error probability of every inter-router link.
    pub ber: f64,
    /// Seed of the per-link RNG streams (independent of the traffic
    /// seed, so enabling faults never perturbs the traffic pattern).
    pub seed: u64,
    /// Retransmissions allowed per flit per link before the link gives
    /// up and the packet is discarded at ejection.
    pub max_retries: u32,
    /// Cycles the sender waits for the ACK before retransmitting (the
    /// NACK round trip).
    pub ack_timeout: u64,
    /// Extra cycles added per successive retry of the same flit.
    pub backoff: u64,
}

impl FaultConfig {
    /// A fault model at the given BER with the default retransmission
    /// protocol (4 retries, 2-cycle ACK timeout, 1-cycle backoff step).
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1)`.
    pub fn new(ber: f64) -> Self {
        let config = Self {
            ber,
            seed: 0xFA17,
            max_retries: 4,
            ack_timeout: 2,
            backoff: 1,
        };
        config.validate();
        config
    }

    /// Returns a copy with a different per-link RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different retry bound.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Returns a copy with different timing (ACK timeout, backoff step).
    #[must_use]
    pub fn with_timing(mut self, ack_timeout: u64, backoff: u64) -> Self {
        self.ack_timeout = ack_timeout;
        self.backoff = backoff;
        self
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1)` or not finite.
    pub fn validate(&self) {
        assert!(
            self.ber.is_finite() && (0.0..1.0).contains(&self.ber),
            "BER must be in [0, 1), got {}",
            self.ber
        );
    }

    /// Probability that at least one bit of an 80-bit codeword flips in
    /// one traversal.
    pub fn word_error_probability(&self) -> f64 {
        // srlr-lint: allow(lossy-cast, reason = "powi takes i32; CODEWORD_BITS is the constant 80")
        1.0 - (1.0 - self.ber).powi(CODEWORD_BITS as i32)
    }
}

/// The outcome of pushing one flit across one faulty link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTransmission {
    /// Transmissions performed (1 = clean on the first try).
    pub attempts: u32,
    /// NACKs sent back over the reverse wire (detected corruptions).
    pub nacks: u32,
    /// `false` when the retry budget ran out — the flit went through
    /// poisoned and the packet must be discarded at ejection.
    pub delivered: bool,
    /// An undetected corruption slipped past the CRC.
    pub silent: bool,
    /// Cycles of retransmission delay added to the link latency.
    pub extra_delay: u64,
}

impl LinkTransmission {
    /// The clean, single-attempt outcome.
    fn clean(attempts: u32, nacks: u32, extra_delay: u64) -> Self {
        Self {
            attempts,
            nacks,
            delivered: true,
            silent: false,
            extra_delay,
        }
    }
}

/// Cumulative fault-injection event counts (plus the retry-delay
/// histogram), also used for per-window deltas in
/// [`crate::stats::NetworkStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTally {
    /// Link traversals corrupted (detected or silent).
    pub flits_corrupted: u64,
    /// Extra transmissions performed (retries, i.e. attempts beyond the
    /// first).
    pub flits_retransmitted: u64,
    /// Flits whose retry budget ran out (each poisons its packet).
    pub retries_exhausted: u64,
    /// Corruptions that slipped past the CRC undetected.
    pub silent_corruptions: u64,
    /// Packets discarded at ejection because a flit was poisoned.
    pub packets_dropped: u64,
    /// Histogram of per-flit retransmission delay (cycles added on top
    /// of the normal link latency), with explicit overflow.
    pub retry_delay: Histogram,
}

impl Default for FaultTally {
    fn default() -> Self {
        Self {
            flits_corrupted: 0,
            flits_retransmitted: 0,
            retries_exhausted: 0,
            silent_corruptions: 0,
            packets_dropped: 0,
            retry_delay: Histogram::new(Self::RETRY_DELAY_BINS),
        }
    }
}

impl FaultTally {
    /// Bin count of the retry-delay histogram (1-cycle bins).
    pub const RETRY_DELAY_BINS: usize = 64;

    /// The difference `self - earlier` (for measurement windows).
    #[must_use]
    pub fn diff(&self, earlier: &FaultTally) -> FaultTally {
        FaultTally {
            flits_corrupted: self.flits_corrupted - earlier.flits_corrupted,
            flits_retransmitted: self.flits_retransmitted - earlier.flits_retransmitted,
            retries_exhausted: self.retries_exhausted - earlier.retries_exhausted,
            silent_corruptions: self.silent_corruptions - earlier.silent_corruptions,
            packets_dropped: self.packets_dropped - earlier.packets_dropped,
            retry_delay: self.retry_delay.diff(&earlier.retry_delay),
        }
    }
}

/// The per-link fault injector: one deterministic RNG stream per
/// directed inter-router link.
#[derive(Debug, Clone)]
pub struct FaultModel {
    config: FaultConfig,
    mesh: Mesh,
    /// One stream per `(node, mesh direction)` sender, indexed
    /// `node * 4 + direction`.
    streams: Vec<Xoshiro256pp>,
    /// [`bernoulli_threshold`] of the word-error probability.
    word_error: u64,
    /// [`bernoulli_threshold`] of the per-bit error rate.
    bit_error: u64,
    tally: FaultTally,
}

impl FaultModel {
    /// Builds the injector for every directed link of `mesh`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn new(config: FaultConfig, mesh: Mesh) -> Self {
        config.validate();
        let streams = (0..mesh.len() * Direction::MESH.len())
            .map(|i| Xoshiro256pp::for_stream(config.seed, i as u64))
            .collect();
        Self {
            config,
            mesh,
            streams,
            word_error: bernoulli_threshold(config.word_error_probability()),
            bit_error: bernoulli_threshold(config.ber),
            tally: FaultTally::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Cumulative event counts since construction.
    pub fn tally(&self) -> &FaultTally {
        &self.tally
    }

    /// Records a packet discarded at the ejection port (called by the
    /// network when a poisoned tail ejects).
    pub fn note_packet_dropped(&mut self) {
        self.tally.packets_dropped += 1;
    }

    /// The stream index of the link leaving `from` through `dir`, or
    /// `None` for the local port (no link, no faults).
    fn stream_index(&self, from: Coord, dir: Direction) -> Option<usize> {
        dir.is_mesh()
            .then(|| self.mesh.index_of(from) * Direction::MESH.len() + dir.index())
    }

    /// Pushes `flit` across the link leaving `from` through `dir`,
    /// sampling corruption, CRC detection and the retransmission
    /// protocol. Local-port "traversals" are fault-free by construction.
    ///
    /// The protocol semantics live in [`crate::protocol::retry_step`]
    /// (shared verbatim with the `srlr-model` checker); this method only
    /// samples the per-attempt [`AttemptOutcome`]s from the link's RNG
    /// stream and keeps the tallies.
    pub fn transmit(&mut self, from: Coord, dir: Direction, flit: &Flit) -> LinkTransmission {
        let Some(stream) = self.stream_index(from, dir) else {
            return LinkTransmission::clean(1, 0, 0);
        };
        let mut state = RetryState::start();
        loop {
            let corrupted =
                self.word_error > 0 && draw_below(&mut self.streams[stream], self.word_error);
            let outcome = if corrupted {
                self.tally.flits_corrupted += 1;
                let (payload, crc) = corrupt_codeword(
                    &mut self.streams[stream],
                    flit.payload,
                    flit.crc,
                    self.bit_error,
                );
                if crc16(payload) == crc {
                    // The CRC check passes on corrupted bits: silent escape.
                    AttemptOutcome::Silent
                } else {
                    // Detected: NACK back to the sender.
                    AttemptOutcome::Detected
                }
            } else {
                AttemptOutcome::Clean
            };
            match retry_step(&self.config, state, outcome) {
                RetryStep::Continue(next) => {
                    state = next;
                    self.tally.flits_retransmitted += 1;
                }
                RetryStep::Done(tx) => {
                    if tx.silent {
                        self.tally.silent_corruptions += 1;
                    }
                    if !tx.delivered {
                        self.tally.retries_exhausted += 1;
                    }
                    if (tx.silent || !tx.delivered) && tx.extra_delay > 0 {
                        self.tally.retry_delay.record(tx.extra_delay);
                    }
                    return tx;
                }
            }
        }
    }
}

/// The integer form of a Bernoulli(`p`) draw: `rng.next_f64() < p`
/// holds exactly when `rng.next_u64() >> 11` is below this threshold.
/// `next_f64` is `(u >> 11) · 2^-53`, and scaling by a power of two is
/// exact, so `x · 2^-53 < p` ⟺ `x < p · 2^53` ⟺ `x < ceil(p · 2^53)`
/// for every integer `x`. The draw stream and every outcome are those
/// of the float compare.
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`bernoulli_threshold`].
fn draw_below(rng: &mut Xoshiro256pp, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// Flips bits of the 80-bit codeword, conditioned on at least one flip
/// (the caller already decided the word is corrupted): the first flipped
/// position is uniform, every other bit flips independently with the
/// bit-error probability whose [`bernoulli_threshold`] is `bit_error` —
/// the exact conditional distribution up to the (negligible, O(ber))
/// bias of pinning one flip.
///
/// Codeword bits 0..16 are the CRC and bits 16..80 the payload; they
/// are flipped as two words, drawn in bit order.
fn corrupt_codeword(
    rng: &mut Xoshiro256pp,
    mut payload: u64,
    mut crc: u16,
    bit_error: u64,
) -> (u64, u16) {
    const CRC_BITS: usize = 16;
    let first = rng.index(CODEWORD_BITS);
    let mut crc_flips = 0u16;
    for bit in 0..CRC_BITS {
        if bit == first || draw_below(rng, bit_error) {
            crc_flips |= 1 << bit;
        }
    }
    let mut payload_flips = 0u64;
    for bit in 0..CODEWORD_BITS - CRC_BITS {
        if bit + CRC_BITS == first || draw_below(rng, bit_error) {
            payload_flips |= 1 << bit;
        }
    }
    crc ^= crc_flips;
    payload ^= payload_flips;
    (payload, crc)
}

/// One point of a BER sweep: the fault configuration it ran at and the
/// measured window statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepPoint {
    /// The injected bit-error rate.
    pub ber: f64,
    /// The measured window.
    pub stats: NetworkStats,
}

/// Sweeps the injected BER over otherwise-identical networks, fanning
/// the points out over `threads` workers (`None` defers to
/// `SRLR_THREADS` / the machine). Every point is a pure function of
/// `(base, pattern, load, ber)`, so results are bit-identical at every
/// thread count.
///
/// # Panics
///
/// Panics if `bers` is empty, a BER is outside `[0, 1)`, or the load /
/// window parameters are invalid for [`crate::Network`].
#[allow(clippy::too_many_arguments)]
pub fn ber_sweep(
    base: NocConfig,
    template: FaultConfig,
    pattern: Pattern,
    load: f64,
    warmup: u64,
    measure: u64,
    bers: &[f64],
    threads: Option<usize>,
) -> Vec<FaultSweepPoint> {
    let mut obs = srlr_telemetry::Obs::none();
    ber_sweep_observed(
        base, template, pattern, load, warmup, measure, bers, threads, &mut obs,
    )
}

/// [`ber_sweep`] with telemetry: one `point` span per BER point (track =
/// point index), per-point `ber.point.NNN.*` metrics including the
/// latency histogram summary, `ber.points` / `ber.packets_*` counters,
/// and a progress tick per point. An enabled `obs.profiler` gets a
/// `noc.sweep` frame over per-point `noc.point` frames wrapping the
/// network's `noc.warmup` / `noc.measure` phases. Workers profile into
/// [`srlr_telemetry::Profiler::child`] trees; the calling thread merges
/// them and records every span and metric from the point-ordered
/// results, so every sink is identical at any thread count. Disabled
/// hooks cost one branch each.
///
/// # Panics
///
/// Panics under the same conditions as [`ber_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn ber_sweep_observed(
    base: NocConfig,
    template: FaultConfig,
    pattern: Pattern,
    load: f64,
    warmup: u64,
    measure: u64,
    bers: &[f64],
    threads: Option<usize>,
    obs: &mut srlr_telemetry::Obs,
) -> Vec<FaultSweepPoint> {
    use srlr_telemetry::Value;
    assert!(!bers.is_empty(), "need at least one BER point");
    let workers = srlr_parallel::resolve_threads(threads);
    obs.profiler.enter("noc.sweep");
    let (progress, profiler) = (&obs.progress, &obs.profiler);
    let observed = srlr_parallel::par_map_indexed(bers.len(), workers, |i| {
        let ber = bers[i];
        let mut prof = profiler.child();
        prof.enter("noc.point");
        let mut net = crate::Network::new(base.with_faults(FaultConfig { ber, ..template }));
        let stats = net.run_warmup_and_measure_profiled(pattern, load, warmup, measure, &mut prof);
        prof.exit();
        progress.tick();
        (FaultSweepPoint { ber, stats }, prof)
    });
    let mut points = Vec::with_capacity(observed.len());
    for (point, prof) in observed {
        obs.profiler.merge(prof);
        points.push(point);
    }
    obs.profiler.exit();
    let collector = &mut obs.collector;
    if !collector.is_enabled() {
        return points;
    }
    for (i, point) in points.iter().enumerate() {
        let stats = &point.stats;
        collector.span(
            "point",
            "ber-sweep",
            i as f64,
            1.0,
            i as u64,
            &[
                ("point", Value::U64(i as u64)),
                ("ber", Value::F64(point.ber)),
                ("received", Value::U64(stats.packets_received)),
                ("dropped", Value::U64(stats.packets_dropped)),
            ],
        );
        let prefix = format!("ber.point.{i:03}");
        collector.set_metric(&format!("{prefix}.ber"), Value::F64(point.ber));
        collector.set_metric(
            &format!("{prefix}.packets_received"),
            Value::U64(stats.packets_received),
        );
        collector.set_metric(
            &format!("{prefix}.packets_dropped"),
            Value::U64(stats.packets_dropped),
        );
        collector.set_metric(
            &format!("{prefix}.delivered_fraction"),
            Value::F64(stats.delivered_fraction()),
        );
        if let Some((lo, hi)) = stats.delivered_interval_95() {
            collector.set_metric(&format!("{prefix}.delivered_lower_95"), Value::F64(lo));
            collector.set_metric(&format!("{prefix}.delivered_upper_95"), Value::F64(hi));
        }
        collector.set_metric(
            &format!("{prefix}.retries_exhausted"),
            Value::U64(stats.faults.retries_exhausted),
        );
        for (name, value) in stats
            .latency_histogram
            .summary()
            .metric_fields(&format!("{prefix}.latency"))
        {
            collector.set_metric(&name, value);
        }
        collector.add("ber.points", 1);
        collector.add("ber.packets_received", stats.packets_received);
        collector.add("ber.packets_dropped", stats.packets_dropped);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketId};

    fn flit() -> Flit {
        Packet::unicast(PacketId(3), Coord::new(0, 0), Coord::new(3, 3), 1, 0)
            .flits(Coord::new(3, 3))[0]
    }

    fn model(ber: f64) -> FaultModel {
        FaultModel::new(FaultConfig::new(ber), Mesh::new(4, 4))
    }

    #[test]
    fn zero_ber_is_always_clean_and_draws_nothing() {
        let mut fm = model(0.0);
        let before = fm.streams.clone();
        for _ in 0..100 {
            let tx = fm.transmit(Coord::new(1, 1), Direction::East, &flit());
            assert_eq!(tx, LinkTransmission::clean(1, 0, 0));
        }
        assert_eq!(fm.streams, before, "ber=0 must not advance any stream");
        assert_eq!(fm.tally(), &FaultTally::default());
    }

    #[test]
    fn local_port_is_fault_free() {
        let mut fm = model(0.9);
        let tx = fm.transmit(Coord::new(1, 1), Direction::Local, &flit());
        assert_eq!(tx, LinkTransmission::clean(1, 0, 0));
    }

    #[test]
    fn high_ber_corrupts_and_retries() {
        let mut fm = model(0.05);
        let mut retried = 0;
        for _ in 0..400 {
            let tx = fm.transmit(Coord::new(1, 1), Direction::East, &flit());
            assert!(tx.attempts >= 1 && tx.attempts <= fm.config.max_retries + 1);
            if tx.attempts > 1 {
                retried += 1;
                assert!(tx.nacks >= 1, "a retry implies a NACK");
                assert!(tx.extra_delay >= fm.config.ack_timeout);
            }
        }
        assert!(retried > 0, "5 % BER must trigger retransmissions");
        assert!(fm.tally().flits_corrupted > 0);
        assert!(fm.tally().flits_retransmitted > 0);
    }

    #[test]
    fn extreme_ber_exhausts_retries() {
        // Near-certain corruption: every attempt fails, the budget runs
        // out, and the flit is reported undelivered (poisoned).
        let mut fm = model(0.5);
        let mut exhausted = 0;
        for _ in 0..50 {
            let tx = fm.transmit(Coord::new(0, 0), Direction::North, &flit());
            if !tx.delivered {
                exhausted += 1;
                assert_eq!(tx.attempts, fm.config.max_retries + 1);
            }
        }
        assert!(exhausted > 0, "0.5 BER must exhaust some retry budgets");
        assert_eq!(fm.tally().retries_exhausted, exhausted);
    }

    #[test]
    fn builders_compose() {
        let config = FaultConfig::new(1e-6)
            .with_seed(7)
            .with_max_retries(9)
            .with_timing(3, 2);
        assert_eq!(config.seed, 7);
        assert_eq!(config.max_retries, 9);
        assert_eq!(config.ack_timeout, 3);
        assert_eq!(config.backoff, 2);
    }

    #[test]
    fn streams_are_per_link_and_deterministic() {
        let run = |ops: &[(Coord, Direction)]| {
            let mut fm = model(0.02);
            ops.iter()
                .map(|&(c, d)| fm.transmit(c, d, &flit()))
                .collect::<Vec<_>>()
        };
        let a = Coord::new(1, 1);
        let b = Coord::new(2, 2);
        // Interleaving traffic on link B must not perturb link A's draws.
        let solo: Vec<_> = run(&[(a, Direction::East), (a, Direction::East)]);
        let interleaved = run(&[
            (a, Direction::East),
            (b, Direction::North),
            (a, Direction::East),
        ]);
        assert_eq!(solo[0], interleaved[0]);
        assert_eq!(solo[1], interleaved[2]);
    }

    #[test]
    fn corrupt_codeword_always_changes_something() {
        let mut rng = Xoshiro256pp::new(5);
        let f = flit();
        for _ in 0..200 {
            let (p, c) = corrupt_codeword(&mut rng, f.payload, f.crc, bernoulli_threshold(1e-4));
            assert!(p != f.payload || c != f.crc);
        }
    }

    #[test]
    fn integer_bernoulli_matches_the_float_compare() {
        let unit = 1.0 / (1u64 << 53) as f64;
        let mut ps = vec![0.0, unit, 1e-2, 0.5];
        for k in [1u64, 2, 3, 1000, 1 << 40, (1 << 52) + 1] {
            let p = k as f64 * unit;
            ps.extend([p, p.next_down(), p.next_up()]);
        }
        for p in ps {
            let threshold = bernoulli_threshold(p);
            // At the decision boundary, where a rounding slip would show.
            for x in threshold.saturating_sub(2)..threshold.saturating_add(2).min(1 << 53) {
                assert_eq!(x < threshold, (x as f64) * unit < p, "p {p:e} x {x}");
            }
            // And on a fixed stream: same draws, same outcomes.
            let (mut float_rng, mut int_rng) = (Xoshiro256pp::new(11), Xoshiro256pp::new(11));
            for _ in 0..10_000 {
                assert_eq!(
                    float_rng.next_f64() < p,
                    draw_below(&mut int_rng, threshold),
                    "p {p:e}"
                );
            }
            assert_eq!(float_rng, int_rng, "the two compares consume one draw each");
        }
    }

    #[test]
    fn word_error_probability_scales_with_ber() {
        let small = FaultConfig::new(1e-6).word_error_probability();
        let large = FaultConfig::new(1e-3).word_error_probability();
        assert!(small < large);
        assert!((small - 80e-6).abs() / 80e-6 < 0.01, "p ≈ 80·ber: {small}");
        assert_eq!(FaultConfig::new(0.0).word_error_probability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "BER must be in [0, 1)")]
    fn invalid_ber_rejected() {
        let _ = FaultConfig::new(1.5);
    }

    #[test]
    fn observed_ber_sweep_matches_unobserved_and_is_thread_invariant() {
        let bers = [0.0, 1e-3, 5e-3];
        let run = |threads: usize, observe: bool| {
            let mut obs = if observe {
                srlr_telemetry::Obs {
                    collector: srlr_telemetry::Collector::enabled("point-index"),
                    ..srlr_telemetry::Obs::default()
                }
            } else {
                srlr_telemetry::Obs::none()
            };
            let points = ber_sweep_observed(
                NocConfig::paper_default().with_size(4, 4),
                FaultConfig::new(0.0),
                Pattern::UniformRandom,
                0.05,
                100,
                400,
                &bers,
                Some(threads),
                &mut obs,
            );
            let mut jsonl = Vec::new();
            obs.collector
                .write_events_jsonl(&mut jsonl)
                .expect("in-memory write");
            (points, jsonl)
        };
        let (plain, empty) = run(1, false);
        assert!(empty.is_empty(), "inactive obs records nothing");
        let (p1, t1) = run(1, true);
        let (p2, t2) = run(2, true);
        let (p8, t8) = run(8, true);
        assert_eq!(plain, p1, "observation must not perturb results");
        assert_eq!(p1, p2);
        assert_eq!(p1, p8);
        assert_eq!(t1, t2, "telemetry must be bit-identical at 2 threads");
        assert_eq!(t1, t8, "telemetry must be bit-identical at 8 threads");
        let text = String::from_utf8(t1).expect("utf8");
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"type\":\"span\""))
                .count(),
            bers.len(),
            "one span per BER point"
        );
        assert!(text.contains("\"ber.point.001.latency.p50\""));
        assert!(
            text.contains("\"ber.point.001.delivered_lower_95\"")
                && text.contains("\"ber.point.001.delivered_upper_95\""),
            "the Wilson interval must be exposed per sweep point"
        );
        assert!(text.contains("\"name\":\"ber.points\",\"value\":3"));
    }

    #[test]
    fn ber_sweep_profile_is_thread_invariant_and_frames_every_point() {
        use srlr_telemetry::{Clock, Profiler};
        let bers = [0.0, 1e-3, 5e-3];
        let profile_at = |threads: usize| {
            let mut obs = srlr_telemetry::Obs {
                profiler: Profiler::enabled(Clock::tick(1.0)),
                ..srlr_telemetry::Obs::default()
            };
            let _ = ber_sweep_observed(
                NocConfig::paper_default().with_size(4, 4),
                FaultConfig::new(0.0),
                Pattern::UniformRandom,
                0.05,
                100,
                400,
                &bers,
                Some(threads),
                &mut obs,
            );
            obs.profiler.snapshot()
        };
        let p1 = profile_at(1);
        for threads in [2usize, 8] {
            assert_eq!(
                p1,
                profile_at(threads),
                "profile diverged at {threads} threads"
            );
        }
        let count_of = |name: &str| -> u64 {
            p1.nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.count)
                .sum()
        };
        assert_eq!(count_of("noc.sweep"), 1);
        assert_eq!(count_of("noc.point"), bers.len() as u64);
        assert_eq!(count_of("noc.warmup"), bers.len() as u64);
        assert_eq!(count_of("noc.measure"), bers.len() as u64);
    }

    #[test]
    fn sampled_transmissions_replay_through_the_pure_automaton() {
        // Lockstep with `crate::protocol`: every transmission the RNG-driven
        // fault model produces on a seeded run, replayed through the pure
        // automaton the model checker enumerates, must reproduce itself
        // bit-for-bit — attempts, NACKs, delay and delivery flags.
        use crate::protocol::replay_transmission;
        let dirs = [
            Direction::East,
            Direction::North,
            Direction::West,
            Direction::South,
        ];
        for (seed, ber) in [(1u64, 0.05), (2, 0.2), (3, 0.45)] {
            let config = FaultConfig::new(ber).with_seed(seed).with_max_retries(3);
            let mut fm = FaultModel::new(config, Mesh::new(4, 4));
            for k in 0..1500usize {
                let from = Coord::new((k % 3) as u16 + 1, (k % 2) as u16 + 1);
                let tx = fm.transmit(from, dirs[k % dirs.len()], &flit());
                assert_eq!(
                    replay_transmission(fm.config(), &tx),
                    Some(tx),
                    "seed {seed} ber {ber} transmission {k} diverged from the automaton"
                );
            }
        }
    }

    #[test]
    fn tally_diff_subtracts() {
        let mut fm = model(0.1);
        for _ in 0..50 {
            let _ = fm.transmit(Coord::new(0, 0), Direction::East, &flit());
        }
        let before = fm.tally().clone();
        for _ in 0..50 {
            let _ = fm.transmit(Coord::new(0, 0), Direction::East, &flit());
        }
        let d = fm.tally().diff(&before);
        assert_eq!(
            d.flits_corrupted + before.flits_corrupted,
            fm.tally().flits_corrupted
        );
    }
}
