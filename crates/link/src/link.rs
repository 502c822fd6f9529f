//! Bit-exact propagation of data streams through an SRLR link, with
//! per-segment residual-charge (inter-symbol interference) tracking.
//!
//! Topology (paper Fig. 2): the pulse modulator drives segment 0; SRLR
//! stage `i` receives from segment `i` and relaunches into segment `i+1`;
//! the last stage's full-swing output feeds the demodulator directly, so
//! an `n`-stage link spans `n` segments (`n` mm at the paper's 1 mm
//! insertion length).
//!
//! Between pulses each segment is actively drained by its driver's NMOS
//! pull-down, but a weak pull-down (or an over-driven wire) leaves residue
//! that accumulates over runs of `1`s — the paper's `11110` failure mode.
//! [`SrlrLink::transmit`] tracks that baseline per segment: arriving
//! pulses ride on it (which can rescue a marginal `1`), and a baseline
//! that alone crosses a stage's sense threshold fires the self-resetting
//! repeater spuriously (turning a transmitted `0` into a received `1`).

use crate::metrics::LinkMetrics;
use srlr_core::{PulseState, SrlrChain, SrlrDesign, SwingPoint};
use srlr_tech::{DieSampler, GlobalVariation, Technology};
use srlr_units::{DataRate, Energy, TimeInterval, Voltage};

/// Link-level configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Number of SRLR stages (= link length in segments).
    pub stages: usize,
    /// Signaling data rate.
    pub data_rate: DataRate,
    /// Narrowest pulse the demodulator latch captures.
    pub demod_min_width: TimeInterval,
}

impl LinkConfig {
    /// The paper's test chip: 10 stages (10 mm) at 4.1 Gb/s.
    pub fn paper_default() -> Self {
        Self {
            stages: 10,
            data_rate: DataRate::from_gigabits_per_second(4.1),
            demod_min_width: TimeInterval::from_picoseconds(20.0),
        }
    }

    /// Returns a copy at a different data rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive.
    #[must_use]
    pub fn with_data_rate(&self, data_rate: DataRate) -> Self {
        assert!(data_rate.value() > 0.0, "data rate must be positive");
        Self { data_rate, ..*self }
    }
}

/// The result of transmitting a bit sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmitOutcome {
    /// The bits the demodulator recovered.
    pub received: Vec<bool>,
    /// Total dynamic energy spent by the modulator and every stage.
    pub energy: Energy,
    /// Worst residual baseline observed on any segment (ISI headroom
    /// diagnostic).
    pub max_baseline: Voltage,
}

/// Mutable per-transmission state carried across bit slots: the residual
/// ISI baseline on each segment plus the running energy/ISI diagnostics.
struct SlotState {
    /// `baseline[i]`: residue on segment i (input of stage i) at the
    /// start of the current bit slot.
    baseline: Vec<Voltage>,
    energy: Energy,
    max_baseline: Voltage,
}

impl SlotState {
    fn new(stages: usize) -> Self {
        Self {
            baseline: vec![Voltage::zero(); stages],
            energy: Energy::zero(),
            max_baseline: Voltage::zero(),
        }
    }
}

/// A resolved SRLR link on one die.
#[derive(Debug, PartialEq)]
pub struct SrlrLink {
    chain: SrlrChain,
    config: LinkConfig,
}

/// `clone_from` reuses the chain's stage buffer (see [`SrlrChain`]).
impl Clone for SrlrLink {
    fn clone(&self) -> Self {
        Self {
            chain: self.chain.clone(),
            config: self.config,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.chain.clone_from(&source.chain);
        self.config = source.config;
    }
}

impl SrlrLink {
    /// Builds a link for `design` on a die with the given global variation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero stages.
    pub fn on_die(
        tech: &Technology,
        design: &SrlrDesign,
        config: LinkConfig,
        var: &GlobalVariation,
    ) -> Self {
        let chain = design.instantiate(tech, var, config.stages);
        Self::from_chain(chain, config)
    }

    /// Builds a link with per-stage local mismatch drawn from `mc`, the
    /// die's per-trial sampler ([`srlr_tech::MonteCarlo::die`]).
    pub fn on_die_with_mismatch(
        tech: &Technology,
        design: &SrlrDesign,
        config: LinkConfig,
        var: &GlobalVariation,
        mc: &mut DieSampler,
    ) -> Self {
        let chain = design.instantiate_with_mismatch(tech, var, config.stages, mc);
        Self::from_chain(chain, config)
    }

    /// Wraps an already-instantiated chain.
    pub fn from_chain(chain: SrlrChain, config: LinkConfig) -> Self {
        Self { chain, config }
    }

    /// Re-elaborates this link in place as die `var` at `point`, drawing
    /// per-stage mismatch from `mc`: the same link as
    /// [`SrlrLink::from_chain`] of
    /// [`SwingPoint::instantiate_with_mismatch`] with this link's
    /// configuration, but in the link's own stage buffer.
    pub(crate) fn reelaborate(
        &mut self,
        tech: &Technology,
        var: &GlobalVariation,
        point: &SwingPoint,
        mc: &mut DieSampler,
    ) {
        point.instantiate_with_mismatch_into(tech, var, self.config.stages, mc, &mut self.chain);
    }

    /// The paper's test chip: the proposed design on a typical die,
    /// 10 stages at 4.1 Gb/s.
    pub fn paper_test_chip(tech: &Technology) -> Self {
        Self::on_die(
            tech,
            &SrlrDesign::paper_proposed(tech),
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
        )
    }

    /// The resolved chain.
    pub fn chain(&self) -> &SrlrChain {
        &self.chain
    }

    /// Moves this link, built on die `var` for `point`'s design at any
    /// swing, to `point`'s swing in place (see [`SwingPoint::retarget`]).
    pub(crate) fn retarget(
        &mut self,
        tech: &Technology,
        var: &GlobalVariation,
        point: &SwingPoint,
    ) {
        point.retarget(tech, var, &mut self.chain);
    }

    /// The link configuration.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Transmits `bits` with per-stage Gaussian timing jitter of the
    /// given sigma on every repeated pulse width (supply noise, coupling
    /// and clockless-retiming uncertainty lumped). This is the margin the
    /// silicon's rated 4.1 Gb/s holds against the stress-pattern cliff.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn transmit_with_jitter(
        &self,
        bits: &[bool],
        sigma: TimeInterval,
        seed: u64,
    ) -> TransmitOutcome {
        assert!(sigma.seconds() >= 0.0, "jitter sigma must be non-negative");
        let mut noise = srlr_tech::montecarlo::GaussianRng::new(seed);
        self.transmit_inner(bits, |w| {
            let jittered = w.seconds() + noise.sample() * sigma.seconds();
            TimeInterval::from_seconds(jittered.max(0.0))
        })
    }

    /// Transmits `bits` at the configured data rate and returns what the
    /// demodulator recovered, with energy and ISI diagnostics.
    pub fn transmit(&self, bits: &[bool]) -> TransmitOutcome {
        self.transmit_inner(bits, |w| w)
    }

    /// Whether the link reproduces `bits` exactly at the configured rate,
    /// short-circuiting on the first corrupted bit.
    ///
    /// This is the Monte Carlo hot path: a failing die usually corrupts a
    /// bit early in the stress pattern, so bailing out immediately is much
    /// cheaper than materialising and comparing the whole received vector.
    pub fn transmits_cleanly(&self, bits: &[bool]) -> bool {
        let mut state = SlotState::new(self.chain.stages().len());
        let mut jitter = |w| w;
        bits.iter()
            .all(|&bit| self.step_slot(&mut state, bit, &mut jitter) == bit)
    }

    fn transmit_inner(
        &self,
        bits: &[bool],
        mut jitter: impl FnMut(TimeInterval) -> TimeInterval,
    ) -> TransmitOutcome {
        let mut state = SlotState::new(self.chain.stages().len());
        let received = bits
            .iter()
            .map(|&bit| self.step_slot(&mut state, bit, &mut jitter))
            .collect();
        TransmitOutcome {
            received,
            energy: state.energy,
            max_baseline: state.max_baseline,
        }
    }

    /// Advances the link by one bit slot: launches (or not) at the PM,
    /// propagates through every stage updating the per-segment ISI
    /// baselines, and returns the demodulator's decision for this slot.
    fn step_slot(
        &self,
        state: &mut SlotState,
        bit: bool,
        jitter: &mut dyn FnMut(TimeInterval) -> TimeInterval,
    ) -> bool {
        let stages = self.chain.stages();
        let n = stages.len();
        let t_bit = self.config.data_rate.bit_period();

        // The PM's launch into segment 0; PM hardware mirrors stage 0.
        let mut launched: Option<TimeInterval> = if bit {
            state.energy += stages[0].pulse_energy(self.chain.launch_width());
            Some(jitter(self.chain.launch_width()))
        } else {
            None
        };
        // `launcher` owns the segment the pulse is currently on.
        let mut launcher = &stages[0];

        for (i, stage) in stages.iter().enumerate() {
            let b = state.baseline[i];
            // Peak this slot on segment i, and its end-of-slot residue.
            let (peak, residue) = match launched {
                Some(w) => {
                    let headroom =
                        (1.0 - b.volts() / launcher.drive_level.volts().max(1e-9)).clamp(0.0, 1.0);
                    let peak = b + launcher.delivered_swing(w) * headroom;
                    let gap = (t_bit - w).max(TimeInterval::zero());
                    let decay = (-gap.seconds() / launcher.discharge_tau().seconds()).exp();
                    (peak, peak * decay)
                }
                None => {
                    let decay = (-t_bit.seconds() / launcher.discharge_tau().seconds()).exp();
                    (b, b * decay)
                }
            };
            state.baseline[i] = residue;
            state.max_baseline = state.max_baseline.max(residue);

            // Stage i detection: a real pulse rides on the baseline; a
            // baseline alone above threshold self-fires the repeater.
            let outcome = match launched {
                Some(w) => stage.process(PulseState::new(w, peak)),
                None if peak >= stage.sense_threshold => {
                    stage.process(PulseState::new(t_bit, peak))
                }
                None => srlr_core::pulse::StageOutcome {
                    output: PulseState::dead(),
                    launched_drive: Voltage::zero(),
                    energy: Energy::zero(),
                },
            };
            if i + 1 < n {
                state.energy += outcome.energy;
            } else if outcome.output.is_valid() {
                // The last stage drives the DM directly: charge only
                // its internal nodes, not another wire segment.
                state.energy += stage.internal_energy_per_pulse;
            }
            launched = if outcome.output.is_valid() {
                Some(jitter(outcome.output.width))
            } else {
                None
            };
            launcher = stage;
        }

        // DM decision on the last stage's (full-swing) output pulse.
        match launched {
            Some(w) => w >= self.config.demod_min_width,
            None => false,
        }
    }

    /// Conservatively certifies that this die transmits **every** bit
    /// pattern cleanly at the configured rate: the zero-baseline chain
    /// propagates a `1` with margin, and no reachable ISI residue can
    /// fire a repeater spuriously (see [`crate::certify`] for the bounds).
    ///
    /// `true` is a proof (with a 1e-9 relative guard band over exact
    /// f64 evaluation); `false` only means "unproven" — the batched
    /// Monte Carlo engine falls back to exact simulation then.
    pub fn robustly_clean(&self) -> bool {
        crate::certify::robustly_clean(self)
    }

    /// Headline metrics of this link at its configured rate, assuming
    /// PRBS traffic (ones density ½).
    pub fn metrics(&self) -> LinkMetrics {
        LinkMetrics::measure(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::BerTester;
    use crate::prbs::Prbs;
    use srlr_tech::MonteCarlo;

    fn link() -> SrlrLink {
        SrlrLink::paper_test_chip(&Technology::soi45())
    }

    #[test]
    fn all_patterns_survive_nominally() {
        let l = link();
        let patterns: [&[bool]; 5] = [
            &[true; 16],
            &[false; 16],
            &[true, false, true, false, true, false, true, false],
            // The paper's worst case: 11110 repeated.
            &[true, true, true, true, false, true, true, true, true, false],
            &[false, false, true, false, false, false, true, true],
        ];
        for p in patterns {
            let out = l.transmit(p);
            assert_eq!(out.received, p, "pattern corrupted: {p:?}");
        }
    }

    #[test]
    fn prbs_is_error_free_nominally() {
        let report = BerTester::new(Prbs::prbs7_with_seed(8)).run(&link(), 20_000);
        assert_eq!(report.errors, 0, "nominal BER check failed: {report:?}");
    }

    #[test]
    fn zeros_cost_no_wire_energy() {
        let l = link();
        let zeros = l.transmit(&[false; 32]);
        assert_eq!(zeros.energy, Energy::zero());
        let ones = l.transmit(&[true; 32]);
        assert!(ones.energy.femtojoules() > 0.0);
    }

    #[test]
    fn energy_tracks_ones_count() {
        let l = link();
        let few = l.transmit(&[true, false, false, false, false, false, false, false]);
        let many = l.transmit(&[true; 8]);
        assert!(many.energy > few.energy * 6.0);
    }

    #[test]
    fn baseline_stays_below_sense_threshold_nominally() {
        let l = link();
        let out = l.transmit(&[true; 64]);
        let sense = l.chain().stages()[0].sense_threshold;
        assert!(
            out.max_baseline < sense,
            "nominal ISI residue {} reaches the sense threshold {}",
            out.max_baseline,
            sense
        );
    }

    #[test]
    fn higher_rate_raises_baseline() {
        let tech = Technology::soi45();
        let design = srlr_core::SrlrDesign::paper_proposed(&tech);
        let slow = SrlrLink::on_die(
            &tech,
            &design,
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(2.0)),
            &GlobalVariation::nominal(),
        );
        let fast = SrlrLink::on_die(
            &tech,
            &design,
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(4.1)),
            &GlobalVariation::nominal(),
        );
        let pattern = [true; 32];
        assert!(fast.transmit(&pattern).max_baseline > slow.transmit(&pattern).max_baseline);
    }

    #[test]
    fn absurdly_fast_rate_fails() {
        let tech = Technology::soi45();
        let design = srlr_core::SrlrDesign::paper_proposed(&tech);
        let l = SrlrLink::on_die(
            &tech,
            &design,
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(12.0)),
            &GlobalVariation::nominal(),
        );
        let report = BerTester::new(Prbs::prbs7_with_seed(4)).run(&l, 2_000);
        assert!(
            report.errors > 0,
            "12 Gb/s should be beyond the link's limit"
        );
    }

    #[test]
    fn fixed_bias_die_fails_at_slow_corner() {
        let tech = Technology::soi45();
        let ss = srlr_tech::ProcessCorner::SlowSlow.variation(&tech);
        let design = srlr_core::SrlrDesign::paper_proposed(&tech).with_adaptive_swing(false);
        let l = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &ss);
        let out = l.transmit(&[true; 8]);
        assert!(out.received.iter().all(|&b| !b), "slow die should drop 1s");
    }

    #[test]
    fn paper_rate_survives_realistic_jitter() {
        // 6 ps sigma of width jitter per stage leaves the 4.1 Gb/s link
        // clean — the rated point sits inside the jitter margin.
        let l = link();
        let bits: Vec<bool> = [true, true, true, true, false, true, false, false].repeat(64);
        let out = l.transmit_with_jitter(&bits, TimeInterval::from_picoseconds(6.0), 17);
        assert_eq!(out.received, bits);
    }

    #[test]
    fn jitter_erodes_the_rate_cliff() {
        // At a rate near the nominal stress cliff, jitter produces errors
        // that the jitter-free model would miss — the physical reason for
        // rating the link below the cliff.
        let tech = Technology::soi45();
        let design = srlr_core::SrlrDesign::paper_proposed(&tech);
        let config =
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(5.8));
        let l = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        let bits: Vec<bool> = [true, true, true, true, false].repeat(100);
        assert_eq!(l.transmit(&bits).received, bits, "clean model passes");
        let mut failures = 0;
        for seed in 0..8 {
            let out = l.transmit_with_jitter(&bits, TimeInterval::from_picoseconds(10.0), seed);
            if out.received != bits {
                failures += 1;
            }
        }
        assert!(failures > 0, "jitter should break the cliff-edge rate");
    }

    #[test]
    fn zero_jitter_matches_clean_transmit() {
        let l = link();
        let bits = [true, false, true, true, false, false, true, true];
        let clean = l.transmit(&bits);
        let jittered = l.transmit_with_jitter(&bits, TimeInterval::zero(), 5);
        assert_eq!(clean, jittered);
    }

    #[test]
    fn demodulator_reads_the_configured_min_width() {
        // The DM latch captures only pulses at least
        // `demod_min_width` wide: raised past any repeated pulse, it
        // drops every `1`.
        let tech = Technology::soi45();
        let design = srlr_core::SrlrDesign::paper_proposed(&tech);
        let config = LinkConfig {
            demod_min_width: TimeInterval::from_nanoseconds(1.0),
            ..LinkConfig::paper_default()
        };
        let l = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert_eq!(l.transmit(&[true; 8]).received, [false; 8]);
        assert!(!l.transmits_cleanly(&[true]));
    }

    #[test]
    fn mismatch_link_is_deterministic_per_seed() {
        let tech = Technology::soi45();
        let design = srlr_core::SrlrDesign::paper_proposed(&tech);
        let build = |seed| {
            let mut die = MonteCarlo::new(&tech, seed).die(0);
            let var = die.global_variation();
            SrlrLink::on_die_with_mismatch(
                &tech,
                &design,
                LinkConfig::paper_default(),
                &var,
                &mut die,
            )
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }
}
