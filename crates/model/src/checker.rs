//! Exhaustive-state checker for the mesh link fault/retry protocol.
//!
//! # What is modelled
//!
//! One wormhole packet of `packet_len` flits travelling from a source
//! to a destination along the deterministic XY route, crossing `h`
//! links.  Each link crossing runs the *shared* retry automaton from
//! [`srlr_noc::protocol`] — the same `retry_step` the cycle simulator
//! folds its sampled outcomes through — so the checker and the
//! simulator cannot drift apart on protocol semantics.
//!
//! Nondeterminism is confined to the crossing outcome: a crossing
//! either delivers after `k` detected corruptions (`k = 0..=R`, each
//! with its accumulated NACK/backoff delay) or exhausts the retry
//! budget and poisons the packet.  Silent CRC escapes deliver with the
//! same attempt count and delay as a clean pass, so the two branches
//! would reach identical successor states; the model counts every
//! corrupted word as detected ([`ModelConfig::detected_probability`]).
//! The CRC-16 in use has Hamming distance 4 over the 80-bit codeword,
//! so at the BERs swept here the escape fraction is below `1e-9`, which
//! moves the exact delivery probability by far less than a Monte Carlo
//! confidence interval.
//!
//! # State, scheduling and canonicalization
//!
//! A state records, per flit, either `Done` or the next route link and
//! the cycle at which the flit is ready to cross it; per route link,
//! the `busy_until` watermark (latest granted arrival); and a
//! `poisoned` bit (some crossing exhausted its budget).  Flit `i`
//! injects at cycle `i` (one flit per cycle), a router adds one cycle
//! between links, and a crossing with `extra_delay` occupies the link
//! until [`srlr_noc::protocol::link_arrival`].
//!
//! Enabled crossings (flit at the head of its link, wormhole order
//! respected) always target *distinct* links, so they commute: the
//! checker explores the single representative interleaving that picks
//! the lowest `(ready, flit)` crossing first, which preserves both the
//! reachable per-link orderings and the product of crossing
//! probabilities.
//!
//! States are canonicalized before interning: ready times are shifted
//! so the earliest pending flit sits at cycle 1, and watermarks are
//! clamped from below to `base - 1` before the same shift.  The clamp
//! is a bisimulation: an arrival is always at least `base + 1`, so a
//! watermark at or below `base - 1` can neither change
//! `link_arrival` (the `ready + delay` arm wins the max) nor trip the
//! overtake predicate (`arrival <= busy`).  Terminal states discard
//! timing entirely, collapsing to two absorbing classes.
//!
//! # Proof obligations
//!
//! * **Termination / acyclicity** — every transition moves exactly one
//!   flit across exactly one link, so the progress measure
//!   `sum(links crossed)` strictly increases.  The checker asserts
//!   this on every edge; it bounds every run by `packet_len * h`
//!   crossings and makes BFS discovery order a topological order.
//! * **Deadlock-freedom** — every reachable non-terminal state has an
//!   enabled crossing.
//! * **No mid-wormhole overtaking** — no crossing arrives at or before
//!   the link's previously granted arrival.  The deliberately broken
//!   [`Variant::IgnoreBusyWatermark`] scheduler violates this and
//!   yields a replayable counterexample trace.
//!
//! # Exact delivery probability
//!
//! Weighting each branch by its probability turns the state graph into
//! an absorbing DTMC: `x[s]`, the probability of ending in `Delivered`
//! from transient state `s`, solves `(I - Q) x = b`.  Every transition
//! crosses exactly one link (the progress obligation), and the initial
//! state has progress 0, so a state's BFS depth equals its progress and
//! each successor is discovered one level deeper: every edge points to
//! a larger id, and `I - Q` is unit upper-triangular in id order.  One
//! backward pass over the explored edges, from the last id to the
//! first, is then the back-substitution that solves it.  It sums each
//! state's delivered mass in edge order, then adds each distinct
//! transient successor's summed mass times its `x` by ascending id —
//! the order of the sparse elimination it replaced, so every
//! probability bit is kept.  When the progress obligation fails, the
//! order does not hold and the probability is `NaN`.
//!
//! # One exploration per route length
//!
//! The state graph reads a route only through its link count: states
//! hold link indices, `apply` takes the number of links, and `chosen`,
//! `canonicalize` and the crossing outcomes never read a router
//! coordinate.  Every route of the same length therefore yields the
//! same graph and the same verdict, bit for bit, so [`verify`] explores
//! each distinct length once and labels the verdict onto every ordered
//! pair of that length.  Coordinates enter only there: each recorded
//! counterexample's choices are replayed on the pair's own route
//! ([`replay_choices`]) to give its `(from, to)` trace.
//!
//! # Cost
//!
//! A state is a fixed run of `2 * flits + hops + 1` words: per flit its
//! next link (or an ejected marker) and its ready cycle, per link its
//! watermark, then the poisoned flag.  No field is packed narrower than
//! its value range, so equal states have equal words.  One exploration
//! keeps its states in a single arena, and a state's id is its index
//! there.  An open-addressing table of ids interns them; it is probed,
//! never iterated, so ids are discovery order by construction.  The
//! breadth-first search is a cursor over ids, because FIFO pop order is
//! discovery order.  A transition copies the expanded state into one
//! reused scratch buffer, crosses, canonicalizes and probes there, and
//! allocates nothing; only a new state is copied, once, into the arena.
//! The search is linear in the transitions, plus amortized table growth.
//!
//! On the 4x4 mesh with 4-flit packets at budgets 0, 1 and 3 (1.59M
//! explored transitions), `model.bfs` takes ~190 ns of self time per
//! explored transition and `model.dtmc` ~22 ns, on a 2-core Xeon VM.

use std::collections::BTreeMap;

use srlr_noc::protocol::{link_arrival, retry_step, AttemptOutcome, RetryState, RetryStep};
use srlr_noc::{Coord, FaultConfig, Mesh};
use srlr_telemetry::{Collector, Value};

/// Which link-scheduling rule the checker verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The production rule: arrivals floor at `busy_until + 1`
    /// (`srlr_noc::protocol::link_arrival`).
    Correct,
    /// A deliberately broken rule that ignores the watermark and lets a
    /// retried head flit be overtaken by its own tail.  Exists so the
    /// checker's counterexample machinery is itself testable.
    IgnoreBusyWatermark,
}

impl Variant {
    /// Stable lowercase name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Correct => "correct",
            Variant::IgnoreBusyWatermark => "no-watermark",
        }
    }
}

/// Configuration of one model-checking run.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// The mesh whose XY routes are checked.
    pub mesh: Mesh,
    /// Flits per packet (wormhole length).
    pub packet_len: usize,
    /// Fault/retry parameters shared with the simulator.
    pub fault: FaultConfig,
    /// Scheduling rule under test.
    pub variant: Variant,
}

impl ModelConfig {
    /// Creates a configuration for the correct scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero.
    pub fn new(mesh: Mesh, packet_len: usize, fault: FaultConfig) -> Self {
        assert!(packet_len > 0, "a packet needs at least one flit");
        ModelConfig {
            mesh,
            packet_len,
            fault,
            variant: Variant::Correct,
        }
    }

    /// The 2x2 mesh configuration the paper-reproduction CI proves:
    /// four-flit packets with the given BER and retry budget.
    pub fn two_by_two(ber: f64, max_retries: u32) -> Self {
        ModelConfig::new(
            Mesh::new(2, 2),
            4,
            FaultConfig::new(ber).with_max_retries(max_retries),
        )
    }

    /// Replaces the scheduling rule under test.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Replaces the packet length.
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero.
    pub fn with_packet_len(mut self, packet_len: usize) -> Self {
        assert!(packet_len > 0, "a packet needs at least one flit");
        self.packet_len = packet_len;
        self
    }

    /// Probability that one crossing attempt is *detected* as corrupt:
    /// the word-error probability, every corrupted word counted as
    /// detected (see the module docs on silent CRC escapes).
    pub fn detected_probability(&self) -> f64 {
        self.fault.word_error_probability()
    }
}

/// One terminal outcome of a single link crossing, derived by running
/// the shared retry automaton to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossingOutcome {
    /// Transmissions used (first try plus retries).
    pub attempts: u32,
    /// NACKs raised along the way.
    pub nacks: u32,
    /// Whether the flit crossed (clean or as a silent escape).
    pub delivered: bool,
    /// Extra cycles beyond the nominal link delay.
    pub extra_delay: u64,
    /// Probability of this outcome for one crossing.
    pub probability: f64,
}

/// Enumerates every terminal shape of one crossing, with its exact
/// probability: `k` detections then delivery for `k = 0..=R`, plus
/// budget exhaustion after `R + 1` detections.
pub fn crossing_outcomes(config: &ModelConfig) -> Vec<CrossingOutcome> {
    let detected = config.detected_probability();
    let mut outcomes = Vec::with_capacity(config.fault.max_retries as usize + 2);
    let mut state = RetryState::start();
    // Probability that every attempt so far was detected.
    let mut mass = 1.0;
    loop {
        // Delivery branch: clean pass and silent escape reach identical
        // successor states, so they are merged into one branch whose
        // weight is "this attempt was not detected".
        if let RetryStep::Done(tx) = retry_step(&config.fault, state, AttemptOutcome::Clean) {
            outcomes.push(CrossingOutcome {
                attempts: tx.attempts,
                nacks: tx.nacks,
                delivered: true,
                extra_delay: tx.extra_delay,
                probability: mass * (1.0 - detected),
            });
        }
        // Detection branch: either another retry round, or exhaustion.
        match retry_step(&config.fault, state, AttemptOutcome::Detected) {
            RetryStep::Continue(next) => {
                state = next;
                mass *= detected;
            }
            RetryStep::Done(tx) => {
                outcomes.push(CrossingOutcome {
                    attempts: tx.attempts,
                    nacks: tx.nacks,
                    delivered: false,
                    extra_delay: tx.extra_delay,
                    probability: mass * detected,
                });
                return outcomes;
            }
        }
    }
}

/// Link word of an ejected flit. Link indices are `u32`, so no pending
/// flit's link word can equal it.
const DONE: u64 = u64::MAX;

/// Word layout of one packed protocol state of a `flits`-flit packet on
/// a route of `hops` links, `2 * flits + hops + 1` words in all:
///
/// * `[0, flits)` — per flit, the index of the next route link to cross
///   (a `u32` widened to a word) or [`DONE`] once ejected;
/// * `[flits, 2 * flits)` — per flit, the cycle at which it is ready to
///   cross (0 once ejected, so equal states have equal words);
/// * `[2 * flits, 2 * flits + hops)` — per route link, the `busy_until`
///   watermark (latest granted arrival);
/// * the last word — 1 when some crossing exhausted its retry budget.
///
/// Every field keeps its full value range, so two states are equal
/// exactly when their words are.
#[derive(Debug, Clone, Copy)]
struct Layout {
    flits: usize,
    hops: usize,
}

impl Layout {
    /// Words per state.
    fn stride(self) -> usize {
        2 * self.flits + self.hops + 1
    }

    /// Word index of link `link`'s watermark.
    fn busy_at(self, link: usize) -> usize {
        2 * self.flits + link
    }

    /// Word index of the poisoned flag.
    fn poisoned_at(self) -> usize {
        2 * self.flits + self.hops
    }

    /// Flit `i`'s next route link, or `None` once it is ejected.
    fn next_link(self, s: &[u64], i: usize) -> Option<u32> {
        u32::try_from(s[i]).ok()
    }

    /// Writes the initial state into `s`: flit `i` waits at the first
    /// link, ready at cycle `i`; every watermark is 0.
    fn initial(self, s: &mut [u64]) {
        s.fill(0);
        for (i, ready) in (0u64..).zip(&mut s[self.flits..2 * self.flits]) {
            *ready = i;
        }
    }

    fn is_terminal(self, s: &[u64]) -> bool {
        s[..self.flits].iter().all(|&w| w == DONE)
    }

    fn is_poisoned(self, s: &[u64]) -> bool {
        s[self.poisoned_at()] != 0
    }

    /// Total links crossed — the strictly increasing progress measure.
    fn progress(self, s: &[u64]) -> usize {
        (0..self.flits)
            .map(|i| self.next_link(s, i).map_or(self.hops, |link| link as usize))
            .sum()
    }

    /// The deterministic representative crossing: among flits whose
    /// wormhole predecessor is strictly ahead, the lowest
    /// `(ready, flit index)`.  Returns `(flit, link, ready)`.
    fn chosen(self, s: &[u64]) -> Option<(usize, u32, u64)> {
        let mut best: Option<(u64, usize, u32)> = None;
        for i in 0..self.flits {
            let Some(link) = self.next_link(s, i) else {
                continue;
            };
            let ready = s[self.flits + i];
            let predecessor_ahead =
                i == 0 || self.next_link(s, i - 1).is_none_or(|ahead| ahead > link);
            if !predecessor_ahead {
                continue;
            }
            if best.is_none_or(|(r, idx, _)| (ready, i) < (r, idx)) {
                best = Some((ready, i, link));
            }
        }
        best.map(|(ready, i, link)| (i, link, ready))
    }

    /// Time-shift canonical form, in place; see the module docs for why
    /// the watermark clamp is a bisimulation.
    fn canonicalize(self, s: &mut [u64]) {
        let (links, rest) = s.split_at_mut(self.flits);
        let (ready, rest) = rest.split_at_mut(self.flits);
        let busy = &mut rest[..self.hops];
        let base = links
            .iter()
            .zip(ready.iter())
            .filter(|&(&link, _)| link != DONE)
            .map(|(_, &r)| r)
            .min();
        match base {
            // Terminal: only the poisoned flag matters.
            None => busy.fill(0),
            Some(base) => {
                for (&link, r) in links.iter().zip(ready.iter_mut()) {
                    if link != DONE {
                        *r = *r - base + 1;
                    }
                }
                for b in busy {
                    // max(b, base - 1) - (base - 1), computed without
                    // underflow; watermarks below base - 1 are
                    // indistinguishable from base - 1.
                    *b = (*b + 1).saturating_sub(base);
                }
            }
        }
    }

    /// Applies one crossing outcome to `s` in place (absolute or
    /// canonical — the arithmetic is shift-invariant) and returns the
    /// link timing the proof obligations and traces read.
    fn cross(
        self,
        variant: Variant,
        s: &mut [u64],
        (flit, link, ready): (usize, u32, u64),
        outcome: &CrossingOutcome,
    ) -> Crossing {
        let li = link as usize;
        let delay = 1 + outcome.extra_delay;
        let busy_at = self.busy_at(li);
        let busy_before = s[busy_at];
        let arrival = match variant {
            Variant::Correct => link_arrival(ready, delay, busy_before),
            Variant::IgnoreBusyWatermark => ready + delay,
        };
        // Track the max so later overtakes under the broken variant are
        // still judged against the true latest granted arrival.
        s[busy_at] = busy_before.max(arrival);
        (s[flit], s[self.flits + flit]) = if li + 1 == self.hops {
            (DONE, 0)
        } else {
            (u64::from(link) + 1, arrival + 1)
        };
        if !outcome.delivered {
            s[self.poisoned_at()] = 1;
        }
        Crossing {
            arrival,
            busy_before,
            overtake: arrival <= busy_before,
        }
    }
}

/// The link timing of one applied crossing.
struct Crossing {
    arrival: u64,
    /// The link's watermark before this crossing was granted.
    busy_before: u64,
    overtake: bool,
}

/// Free slot marker of the [`Store`] id table.
const EMPTY: usize = usize::MAX;

/// The canonical states of one exploration, interned: state `id` is the
/// run of `stride` words at `id * stride` in one arena, and an
/// open-addressing table (linear probing, at most half full) maps
/// states to ids.  The table is only probed, never iterated, so ids are
/// exactly discovery order.
struct Store {
    layout: Layout,
    stride: usize,
    arena: Vec<u64>,
    /// Ids, or [`EMPTY`]; the length is `2^(64 - shift)`.
    slots: Vec<usize>,
    shift: u32,
}

impl Store {
    fn new(layout: Layout) -> Store {
        const BITS: u32 = 6;
        Store {
            layout,
            stride: layout.stride(),
            arena: Vec::new(),
            slots: vec![EMPTY; 1 << BITS],
            shift: u64::BITS - BITS,
        }
    }

    /// Interned states.
    fn len(&self) -> usize {
        self.arena.len() / self.stride
    }

    /// The words of state `id`.
    fn state(&self, id: usize) -> &[u64] {
        &self.arena[id * self.stride..(id + 1) * self.stride]
    }

    /// The table slot a probe for `words` starts at: the top bits of an
    /// Fx-style multiplicative hash.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the shift leaves at most log2(slots.len()) significant bits, and the table fits usize"
    )]
    fn home(&self, words: &[u64]) -> usize {
        let hash = words.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        (hash >> self.shift) as usize
    }

    /// `Ok(id)` when `words` is interned, else `Err(slot)`: the free
    /// slot it would occupy.
    fn find(&self, words: &[u64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(words);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.state(id) == words => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Interns `words` as a new state in `slot`, the free slot a failed
    /// [`Store::find`] returned, and returns its id.
    fn insert(&mut self, slot: usize, words: &[u64]) -> usize {
        let id = self.len();
        self.arena.extend_from_slice(words);
        self.slots[slot] = id;
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the table and re-places every id, in id order.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for id in 0..self.len() {
            let mut slot = self.home(self.state(id));
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id;
        }
    }

    /// One transition: copies state `id` into `scratch`, applies
    /// `outcome` to its `choice` crossing, canonicalizes, and looks the
    /// successor up.  Allocates nothing; a new successor is left in
    /// `scratch` for [`Store::insert`].
    fn successor(
        &self,
        variant: Variant,
        id: usize,
        choice: (usize, u32, u64),
        outcome: &CrossingOutcome,
        scratch: &mut [u64],
    ) -> (Crossing, Result<usize, usize>) {
        scratch.copy_from_slice(self.state(id));
        let crossing = self.layout.cross(variant, scratch, choice, outcome);
        self.layout.canonicalize(scratch);
        (crossing, self.find(scratch))
    }
}

/// One concrete link crossing in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Flit index within the packet.
    pub flit: usize,
    /// Route link index (0 = first hop).
    pub link: u32,
    /// Upstream router of the link.
    pub from: Coord,
    /// Downstream router of the link.
    pub to: Coord,
    /// Transmissions used by this crossing.
    pub attempts: u32,
    /// NACKs raised by this crossing.
    pub nacks: u32,
    /// Whether the flit crossed.
    pub delivered: bool,
    /// Retry delay beyond the nominal link cycle.
    pub extra_delay: u64,
    /// Cycle the flit was ready to cross.
    pub sent: u64,
    /// Cycle the flit arrived downstream.
    pub arrival: u64,
    /// The link's watermark before this crossing was granted.
    pub busy_before: u64,
}

/// Kind of proof obligation a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A reachable non-terminal state with no enabled crossing.
    Deadlock,
    /// A crossing arrived at or before the link's previous arrival.
    Overtaking,
    /// A transition failed to increase the progress measure.
    Progress,
}

impl ViolationKind {
    /// Stable rule identifier used in SARIF output.
    pub fn rule(self) -> &'static str {
        match self {
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Overtaking => "no-overtaking",
            ViolationKind::Progress => "termination",
        }
    }
}

/// A violated proof obligation with a replayable counterexample.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which obligation failed.
    pub kind: ViolationKind,
    /// Route source.
    pub src: Coord,
    /// Route destination.
    pub dst: Coord,
    /// Outcome index chosen at each step from the initial state; feed
    /// to [`replay_choices`] to reproduce the trace.
    pub choices: Vec<usize>,
    /// The concrete crossings, in absolute cycles.
    pub trace: Vec<TraceStep>,
    /// Human-readable description of the failing step.
    pub message: String,
}

impl Violation {
    /// Renders the counterexample as indented text, one crossing per
    /// line, suitable for CLI output and SARIF messages.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} violated on route {} -> {}: {}\n",
            self.kind.rule(),
            self.src,
            self.dst,
            self.message
        );
        for step in &self.trace {
            out.push_str(&format!(
                "  flit {} link {} ({} -> {}): sent @{} arrived @{} \
                 (watermark {}), {} attempts, {} nacks, {}\n",
                step.flit,
                step.link,
                step.from,
                step.to,
                step.sent,
                step.arrival,
                step.busy_before,
                step.attempts,
                step.nacks,
                if step.delivered {
                    "delivered"
                } else {
                    "dropped"
                },
            ));
        }
        out
    }

    /// Emits the counterexample as telemetry events: one
    /// `model.violation` header followed by one `model.crossing` per
    /// trace step (timestamped by step index).
    fn emit(&self, collector: &mut Collector) {
        collector.event(
            "model.violation",
            0.0,
            &[
                ("rule", Value::Str(self.kind.rule().to_string())),
                ("src", Value::Str(self.src.to_string())),
                ("dst", Value::Str(self.dst.to_string())),
                ("message", Value::Str(self.message.clone())),
                ("steps", Value::U64(self.trace.len() as u64)),
            ],
        );
        for (i, step) in self.trace.iter().enumerate() {
            collector.event(
                "model.crossing",
                i as f64,
                &[
                    ("flit", Value::U64(step.flit as u64)),
                    ("link", Value::U64(u64::from(step.link))),
                    ("from", Value::Str(step.from.to_string())),
                    ("to", Value::Str(step.to.to_string())),
                    ("sent", Value::U64(step.sent)),
                    ("arrival", Value::U64(step.arrival)),
                    ("busy_before", Value::U64(step.busy_before)),
                    ("attempts", Value::U64(u64::from(step.attempts))),
                    ("nacks", Value::U64(u64::from(step.nacks))),
                    ("delivered", Value::Bool(step.delivered)),
                ],
            );
        }
    }
}

/// Result of exhaustively checking one (source, destination) route.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Route source.
    pub src: Coord,
    /// Route destination.
    pub dst: Coord,
    /// Links on the XY route.
    pub hops: usize,
    /// Reachable canonical states (including the absorbing classes).
    pub states: usize,
    /// Explored transitions.
    pub transitions: usize,
    /// Transient (non-terminal) states of the absorbing chain.
    pub transient: usize,
    /// Exact probability the packet is delivered (reaches `Delivered`);
    /// `NaN` when `progress_monotone` fails.
    pub deliver_probability: f64,
    /// The `Delivered` absorbing state is reachable.
    pub delivered_reachable: bool,
    /// The `CountedDrop` absorbing state is reachable.
    pub drop_reachable: bool,
    /// Every reachable non-terminal state has an enabled crossing.
    pub deadlock_free: bool,
    /// No crossing arrived at or before a previously granted arrival.
    pub no_overtaking: bool,
    /// Every transition increased the progress measure by one.
    pub progress_monotone: bool,
    /// Counterexamples (traces kept for the first few per kind).
    pub violations: Vec<Violation>,
}

impl PairResult {
    /// All three qualitative obligations hold for this route.
    pub fn all_proven(&self) -> bool {
        self.deadlock_free && self.no_overtaking && self.progress_monotone
    }
}

/// Full traces kept per violation kind per pair; further violations
/// are still *counted* via the proof flags but not materialized.
const TRACES_PER_KIND: usize = 3;

fn route_links(mesh: Mesh, src: Coord, dst: Coord) -> Vec<(Coord, Coord)> {
    let path = mesh.xy_path(src, dst);
    path.windows(2).map(|w| (w[0], w[1])).collect()
}

/// The result of replaying a choice sequence or an outcome oracle.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The packet reached the destination unpoisoned.
    pub delivered: bool,
    /// Whether the replay reached a terminal state.
    pub terminal: bool,
    /// Concrete crossings in absolute cycles.
    pub steps: Vec<TraceStep>,
    /// Total transmissions across all crossings.
    pub attempts: u64,
    /// Total NACKs across all crossings.
    pub nacks: u64,
}

/// Runs the deterministic schedule on the concrete `src -> dst` route,
/// asking `next_pick(flit, link)` for each crossing's outcome index (out of
/// range indices select the exhaustion branch) and stopping at a
/// terminal state or at the first `None`.  The only place crossings
/// get their `(from, to)` router labels.
fn walk(
    config: &ModelConfig,
    src: Coord,
    dst: Coord,
    mut next_pick: impl FnMut(usize, u32) -> Option<usize>,
) -> Replayed {
    let route = route_links(config.mesh, src, dst);
    let outcomes = crossing_outcomes(config);
    let layout = Layout {
        flits: config.packet_len,
        hops: route.len(),
    };
    let mut state = vec![0; layout.stride()];
    layout.initial(&mut state);
    let mut steps = Vec::new();
    let (mut attempts, mut nacks) = (0u64, 0u64);
    if route.is_empty() {
        // Degenerate src == dst route: immediately delivered.
        state[..layout.flits].fill(DONE);
    }
    while let Some(choice @ (flit, link, ready)) = layout.chosen(&state) {
        let Some(pick) = next_pick(flit, link) else {
            break;
        };
        let outcome = &outcomes[pick.min(outcomes.len() - 1)];
        let crossing = layout.cross(config.variant, &mut state, choice, outcome);
        let (from, to) = route[link as usize];
        attempts += u64::from(outcome.attempts);
        nacks += u64::from(outcome.nacks);
        steps.push(TraceStep {
            flit,
            link,
            from,
            to,
            attempts: outcome.attempts,
            nacks: outcome.nacks,
            delivered: outcome.delivered,
            extra_delay: outcome.extra_delay,
            sent: ready,
            arrival: crossing.arrival,
            busy_before: crossing.busy_before,
        });
    }
    let terminal = layout.is_terminal(&state);
    Replayed {
        delivered: terminal && !layout.is_poisoned(&state),
        terminal,
        steps,
        attempts,
        nacks,
    }
}

/// Replays the deterministic schedule from the initial state, asking
/// `oracle(flit, link)` for the outcome index of each crossing (out of
/// range indices select the exhaustion branch).  Runs until terminal.
pub fn replay<F: FnMut(usize, u32) -> usize>(
    config: &ModelConfig,
    src: Coord,
    dst: Coord,
    mut oracle: F,
) -> Replayed {
    walk(config, src, dst, |flit, link| Some(oracle(flit, link)))
}

/// Replays a recorded counterexample prefix: feeds `choices` in order
/// and stops when they run out (the trace may end mid-flight).
pub fn replay_choices(config: &ModelConfig, src: Coord, dst: Coord, choices: &[usize]) -> Replayed {
    let mut choices = choices.iter().copied();
    walk(config, src, dst, |_, _| choices.next())
}

/// A counterexample found on a route of some length, before it is
/// labelled with a concrete route and replayed into a trace.
struct Witness {
    kind: ViolationKind,
    choices: Vec<usize>,
    message: String,
}

/// Everything exhaustive exploration proves about a route of `hops`
/// links; [`PairResult`] minus the coordinates and traces.
struct RouteVerdict {
    hops: usize,
    states: usize,
    transitions: usize,
    transient: usize,
    deliver_probability: f64,
    delivered_reachable: bool,
    drop_reachable: bool,
    deadlock_free: bool,
    no_overtaking: bool,
    progress_monotone: bool,
    witnesses: Vec<Witness>,
}

impl RouteVerdict {
    /// Labels the verdict with the concrete route `src -> dst` (which
    /// must have `self.hops` links), replaying each witness on it.
    fn label(&self, config: &ModelConfig, src: Coord, dst: Coord) -> PairResult {
        PairResult {
            src,
            dst,
            hops: self.hops,
            states: self.states,
            transitions: self.transitions,
            transient: self.transient,
            deliver_probability: self.deliver_probability,
            delivered_reachable: self.delivered_reachable,
            drop_reachable: self.drop_reachable,
            deadlock_free: self.deadlock_free,
            no_overtaking: self.no_overtaking,
            progress_monotone: self.progress_monotone,
            violations: self
                .witnesses
                .iter()
                .map(|w| Violation {
                    kind: w.kind,
                    src,
                    dst,
                    choices: w.choices.clone(),
                    trace: replay_choices(config, src, dst, &w.choices).steps,
                    message: w.message.clone(),
                })
                .collect(),
        }
    }
}

/// Exhaustively checks one route: BFS over canonical states, proof
/// obligations, and the exact absorbing-DTMC delivery probability.
pub fn check_pair(config: &ModelConfig, src: Coord, dst: Coord) -> PairResult {
    let hops = route_links(config.mesh, src, dst).len();
    explore_route(config, hops, &mut srlr_telemetry::Profiler::disabled()).label(config, src, dst)
}

/// Explores the state graph of a route of `hops` links: the
/// state-space exploration lands as a `model.bfs` frame and the
/// absorbing-chain solve as a `model.dtmc` frame. A disabled
/// profiler costs one branch per frame; this *is* the unprofiled path —
/// same code, same result.
///
/// Nothing here reads a router coordinate, so every route of the same
/// length gets the same verdict, bit for bit.
fn explore_route(
    config: &ModelConfig,
    hops: usize,
    prof: &mut srlr_telemetry::Profiler,
) -> RouteVerdict {
    let outcomes = crossing_outcomes(config);

    if hops == 0 {
        // src == dst: nothing to cross, trivially delivered.
        return RouteVerdict {
            hops,
            states: 1,
            transitions: 0,
            transient: 0,
            deliver_probability: 1.0,
            delivered_reachable: true,
            drop_reachable: false,
            deadlock_free: true,
            no_overtaking: true,
            progress_monotone: true,
            witnesses: Vec::new(),
        };
    }

    let layout = Layout {
        flits: config.packet_len,
        hops,
    };
    let mut store = Store::new(layout);
    let mut parents: Vec<Option<(usize, usize)>> = Vec::new();
    // Successor ids, state after state: state `id`'s edges are
    // `edges[edge_start[id]..edge_start[id + 1]]`, one per outcome pick.
    let mut edges: Vec<usize> = Vec::new();
    let mut edge_start: Vec<usize> = Vec::new();
    // Every successor is built here before it is looked up; only a new
    // one is copied, once, into the store.
    let mut scratch = vec![0; layout.stride()];

    layout.initial(&mut scratch);
    layout.canonicalize(&mut scratch);
    if let Err(slot) = store.find(&scratch) {
        store.insert(slot, &scratch);
    }
    parents.push(None);

    let mut transitions = 0usize;
    let mut delivered_reachable = false;
    let mut drop_reachable = false;
    let mut deadlock_free = true;
    let mut no_overtaking = true;
    let mut progress_monotone = true;
    let mut witnesses: Vec<Witness> = Vec::new();
    let mut kept = BTreeMap::<&'static str, usize>::new();

    // Reconstructs the outcome choices leading to state `id`.
    let path_to = |parents: &[Option<(usize, usize)>], mut id: usize| -> Vec<usize> {
        let mut choices = Vec::new();
        while let Some((parent, pick)) = parents[id] {
            choices.push(pick);
            id = parent;
        }
        choices.reverse();
        choices
    };

    let record = |kind: ViolationKind,
                  choices: Vec<usize>,
                  message: String,
                  kept: &mut BTreeMap<&'static str, usize>,
                  witnesses: &mut Vec<Witness>| {
        let slot = kept.entry(kind.rule()).or_insert(0);
        if *slot < TRACES_PER_KIND {
            *slot += 1;
            witnesses.push(Witness {
                kind,
                choices,
                message,
            });
        }
    };

    prof.enter("model.bfs");
    // Breadth-first search is a cursor over ids: states are expanded in
    // id order, which is discovery order, so no queue is needed.
    let mut cursor = 0;
    while cursor < store.len() {
        let id = cursor;
        cursor += 1;
        edge_start.push(edges.len());
        let state = store.state(id);
        if layout.is_terminal(state) {
            if layout.is_poisoned(state) {
                drop_reachable = true;
            } else {
                delivered_reachable = true;
            }
            continue;
        }
        let Some(choice @ (flit, link, _)) = layout.chosen(state) else {
            deadlock_free = false;
            let in_flight = state[..layout.flits].iter().filter(|&&w| w != DONE).count();
            record(
                ViolationKind::Deadlock,
                path_to(&parents, id),
                format!("no crossing is enabled with {in_flight} flits in flight"),
                &mut kept,
                &mut witnesses,
            );
            continue;
        };
        let progress_here = layout.progress(state);
        for (pick, outcome) in outcomes.iter().enumerate() {
            let (crossing, found) =
                store.successor(config.variant, id, choice, outcome, &mut scratch);
            transitions += 1;
            if crossing.overtake {
                no_overtaking = false;
                let mut choices = path_to(&parents, id);
                choices.push(pick);
                record(
                    ViolationKind::Overtaking,
                    choices,
                    format!(
                        "flit {} arrived at cycle {} on link {} whose watermark \
                         was already {}",
                        flit, crossing.arrival, link, crossing.busy_before
                    ),
                    &mut kept,
                    &mut witnesses,
                );
            }
            if layout.progress(&scratch) != progress_here + 1 {
                progress_monotone = false;
                let mut choices = path_to(&parents, id);
                choices.push(pick);
                record(
                    ViolationKind::Progress,
                    choices,
                    "a transition failed to cross exactly one link".to_string(),
                    &mut kept,
                    &mut witnesses,
                );
            }
            let next_id = match found {
                Ok(existing) => existing,
                Err(slot) => {
                    parents.push(Some((id, pick)));
                    store.insert(slot, &scratch)
                }
            };
            edges.push(next_id);
        }
    }
    edge_start.push(edges.len());
    prof.exit();

    prof.enter("model.dtmc");
    let transient = (0..store.len())
        .filter(|&id| !layout.is_terminal(store.state(id)))
        .count();
    let deliver_probability = if progress_monotone {
        let mut x = vec![0.0; store.len()];
        let mut succ = vec![(0, 0.0); outcomes.len()];
        back_substitute(&store, &edges, &edge_start, &outcomes, &mut x, &mut succ)
    } else {
        f64::NAN
    };
    prof.exit();

    RouteVerdict {
        hops,
        states: store.len(),
        transitions,
        transient,
        deliver_probability,
        delivered_reachable,
        drop_reachable,
        deadlock_free,
        no_overtaking,
        progress_monotone,
        witnesses,
    }
}

/// P(deliver) from the initial state (id 0) by one backward pass over
/// the BFS's successor lists: state `id`'s edges are
/// `edges[edge_start[id]..edge_start[id + 1]]`, one per outcome.
///
/// Every edge must point to a larger id, which holds whenever
/// `progress_monotone` does (see the module docs), so each transient
/// successor's `x` is final before its predecessors read it.  `x` (one
/// slot per state) and `succ` (one per outcome) are the caller's
/// scratch; the pass allocates nothing.
///
/// The arithmetic is the back-substitution of `(I - Q) x = b` in BFS
/// order, term for term: `x[id]` sums the delivered successors' masses
/// in edge order, then adds each distinct transient successor's mass
/// (its masses summed in edge order) times its `x`, by ascending id.
fn back_substitute(
    store: &Store,
    edges: &[usize],
    edge_start: &[usize],
    outcomes: &[CrossingOutcome],
    x: &mut [f64],
    succ: &mut [(usize, f64)],
) -> f64 {
    let layout = store.layout;
    for id in (0..store.len()).rev() {
        if layout.is_terminal(store.state(id)) {
            continue;
        }
        let mut acc = 0.0;
        let mut distinct = 0;
        let span = &edges[edge_start[id]..edge_start[id + 1]];
        for (&next, outcome) in span.iter().zip(outcomes) {
            debug_assert!(next > id, "an edge points to an earlier state");
            let p = outcome.probability;
            let state = store.state(next);
            if !layout.is_terminal(state) {
                match succ[..distinct].iter_mut().find(|(s, _)| *s == next) {
                    Some((_, mass)) => *mass += p,
                    None => {
                        succ[distinct] = (next, p);
                        distinct += 1;
                    }
                }
            } else if !layout.is_poisoned(state) {
                acc += p;
            }
        }
        // Keys are unique after grouping, so the unstable sort (which
        // does not allocate) gives the same order as a stable one.
        succ[..distinct].sort_unstable_by_key(|&(s, _)| s);
        for &(s, mass) in &succ[..distinct] {
            acc += mass * x[s];
        }
        x[id] = acc;
    }
    x[0]
}

/// Aggregate verification verdict over every ordered route of a mesh.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The configuration that was checked.
    pub config: ModelConfig,
    /// One result per ordered (src, dst) pair with `src != dst`.
    pub pairs: Vec<PairResult>,
    /// Reachable canonical states summed over pairs.
    pub total_states: usize,
    /// Transitions summed over pairs.
    pub total_transitions: usize,
    /// Canonical states actually explored: summed over the distinct
    /// route lengths, each explored once (see [`verify_observed`]).
    pub explored_states: usize,
    /// Transitions actually explored, summed like `explored_states`.
    pub explored_transitions: usize,
    /// Mean exact delivery probability over ordered pairs — the
    /// quantity uniform-random traffic estimates by Monte Carlo.
    pub deliver_probability: f64,
    /// Deadlock-freedom holds on every route.
    pub deadlock_free: bool,
    /// No-overtaking holds on every route.
    pub no_overtaking: bool,
    /// The progress measure increased on every transition.
    pub terminates: bool,
}

impl VerifyReport {
    /// All qualitative obligations hold on every route.
    pub fn all_proven(&self) -> bool {
        self.deadlock_free && self.no_overtaking && self.terminates
    }

    /// Every recorded counterexample across all pairs.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.pairs.iter().flat_map(|p| p.violations.iter())
    }
}

/// Checks every ordered (src, dst) route of the configured mesh.
pub fn verify(config: &ModelConfig) -> VerifyReport {
    verify_observed(config, &mut srlr_telemetry::Obs::none())
}

/// [`verify`] with observability: one `model.verify` frame on
/// `obs.profiler` whose `model.bfs` / `model.dtmc` children aggregate
/// the exploration and solve phases over every route length; every
/// counterexample recorded on `obs.collector` as one `model.violation`
/// event followed by one `model.crossing` event per trace step
/// (timestamped by step index); and one `obs.progress` tick. Disabled
/// hooks cost one branch each; this *is* the unobserved path.
///
/// Each distinct route length is explored once, in order of first
/// appearance, and its verdict is labelled onto every ordered pair of
/// that length (see the module docs for why this is exact).
pub fn verify_observed(config: &ModelConfig, obs: &mut srlr_telemetry::Obs) -> VerifyReport {
    let prof = &mut obs.profiler;
    let mesh = config.mesh;
    let mut routes: Vec<RouteVerdict> = Vec::new();
    let mut pairs = Vec::new();
    prof.enter("model.verify");
    for s in 0..mesh.len() {
        for d in 0..mesh.len() {
            if s == d {
                continue;
            }
            let src = mesh.coord_of(s);
            let dst = mesh.coord_of(d);
            let hops = route_links(mesh, src, dst).len();
            let known = routes.iter().position(|r| r.hops == hops);
            let verdict = match known {
                Some(i) => &routes[i],
                None => {
                    routes.push(explore_route(config, hops, prof));
                    &routes[routes.len() - 1]
                }
            };
            pairs.push(verdict.label(config, src, dst));
        }
    }
    prof.exit();
    let total_states = pairs.iter().map(|p| p.states).sum();
    let total_transitions = pairs.iter().map(|p| p.transitions).sum();
    let explored_states = routes.iter().map(|r| r.states).sum();
    let explored_transitions = routes.iter().map(|r| r.transitions).sum();
    let deliver_probability = if pairs.is_empty() {
        1.0
    } else {
        pairs.iter().map(|p| p.deliver_probability).sum::<f64>() / pairs.len() as f64
    };
    let report = VerifyReport {
        config: config.clone(),
        deadlock_free: pairs.iter().all(|p| p.deadlock_free),
        no_overtaking: pairs.iter().all(|p| p.no_overtaking),
        terminates: pairs.iter().all(|p| p.progress_monotone),
        total_states,
        total_transitions,
        explored_states,
        explored_transitions,
        deliver_probability,
        pairs,
    };
    for violation in report.violations() {
        violation.emit(&mut obs.collector);
    }
    obs.progress.tick();
    report
}

/// The closed-form delivery probability the DTMC must reproduce: each
/// of the `packet_len * hops` crossings independently survives with
/// probability `1 - D^(R+1)`, averaged over ordered pairs.
pub fn closed_form_delivery(config: &ModelConfig) -> f64 {
    let detected = config.detected_probability();
    let exhaust = pow_count(detected, u64::from(config.fault.max_retries) + 1);
    let survive = 1.0 - exhaust;
    let mesh = config.mesh;
    let mut total = 0.0;
    let mut count = 0usize;
    for s in 0..mesh.len() {
        for d in 0..mesh.len() {
            if s == d {
                continue;
            }
            let hops = mesh.coord_of(s).hop_distance(mesh.coord_of(d));
            let crossings = (config.packet_len as u64).saturating_mul(u64::from(hops));
            total += pow_count(survive, crossings);
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

/// `base^exp` for a count exponent: `powi` whenever `exp` fits its
/// `i32` (so in-range results keep their bits), `powf` beyond it rather
/// than a wrapped exponent.
fn pow_count(base: f64, exp: u64) -> f64 {
    match i32::try_from(exp) {
        Ok(exp) => base.powi(exp),
        Err(_) => base.powf(exp as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ber: f64, retries: u32) -> ModelConfig {
        ModelConfig::two_by_two(ber, retries)
    }

    #[test]
    fn crossing_outcomes_cover_the_probability_space() {
        let config = cfg(0.002, 3);
        let outs = crossing_outcomes(&config);
        // R + 2 branches: delivered after 0..=3 detections, exhausted.
        assert_eq!(outs.len(), 5);
        let mass: f64 = outs.iter().map(|o| o.probability).sum();
        assert!((mass - 1.0).abs() < 1e-12, "mass {mass}");
        assert!(outs[..4].iter().all(|o| o.delivered));
        assert!(!outs[4].delivered);
        // Delays follow ack_timeout + backoff accumulation: 0, 2, 5, 9.
        let delays: Vec<u64> = outs[..4].iter().map(|o| o.extra_delay).collect();
        assert_eq!(delays, vec![0, 2, 5, 9]);
        // Exhaustion probability is D^(R+1).
        let d = config.detected_probability();
        assert!((outs[4].probability - d.powi(4)).abs() < 1e-15);
    }

    #[test]
    fn profiled_verify_matches_unprofiled_and_frames_the_phases() {
        use srlr_telemetry::{Clock, Obs, Profiler};
        let config = cfg(0.01, 2);
        let plain = verify(&config);
        let mut obs = Obs {
            profiler: Profiler::enabled(Clock::tick(1.0)),
            ..Obs::none()
        };
        let profiled = verify_observed(&config, &mut obs);
        assert_eq!(plain.total_states, profiled.total_states);
        assert_eq!(plain.total_transitions, profiled.total_transitions);
        assert_eq!(
            plain.deliver_probability.to_bits(),
            profiled.deliver_probability.to_bits(),
            "profiling must not perturb the solve"
        );
        let profile = obs.profiler.snapshot();
        let node = |name: &str| {
            profile
                .nodes
                .iter()
                .find(|n| n.name == name)
                .unwrap_or_else(|| panic!("missing frame {name}"))
        };
        // One verify frame; every distinct route length contributes one
        // BFS and one DTMC invocation, aggregated under it: lengths 1
        // and 2 on the 2x2 mesh (12 ordered pairs), 1..=4 on the 3x3
        // mesh (72 ordered pairs).
        assert_eq!(node("model.verify").count, 1);
        assert_eq!(node("model.bfs").count, 2);
        assert_eq!(node("model.dtmc").count, 2);
        assert_eq!(node("model.bfs").parent, node("model.dtmc").parent);

        let three = ModelConfig::new(Mesh::new(3, 3), 2, FaultConfig::new(0.01));
        let mut obs = Obs {
            profiler: Profiler::enabled(Clock::tick(1.0)),
            ..Obs::none()
        };
        let report = verify_observed(&three, &mut obs);
        assert_eq!(report.pairs.len(), 72);
        let profile = obs.profiler.snapshot();
        for name in ["model.bfs", "model.dtmc"] {
            let frame = profile.nodes.iter().find(|n| n.name == name);
            assert_eq!(frame.map(|n| n.count), Some(4), "{name} on the 3x3 mesh");
        }
    }

    #[test]
    fn observed_verify_records_each_counterexample() {
        use srlr_telemetry::{Collector, Obs};
        let observe = |variant: Variant| {
            let mut obs = Obs {
                collector: Collector::enabled("counterexample-step"),
                ..Obs::none()
            };
            let report = verify_observed(&cfg(1e-3, 1).with_variant(variant), &mut obs);
            (report, obs.collector)
        };
        let (report, collector) = observe(Variant::IgnoreBusyWatermark);
        let count = |name: &str| collector.events().iter().filter(|e| e.name == name).count();
        assert!(report.violations().count() > 0, "the broken variant fails");
        assert_eq!(count("model.violation"), report.violations().count());
        let steps: usize = report.violations().map(|v| v.trace.len()).sum();
        assert_eq!(count("model.crossing"), steps);
        let (report, collector) = observe(Variant::Correct);
        assert!(report.all_proven());
        assert!(collector.events().is_empty(), "a proof records nothing");
    }

    #[test]
    fn closed_form_exponents_do_not_wrap() {
        // In range the exponents go through `powi`, bit for bit as
        // before.
        let in_range = closed_form_delivery(&cfg(0.01, 3));
        assert_eq!(in_range.to_bits(), 0x3fe3_4e0f_edcf_23c5, "{in_range}");
        // A budget of u32::MAX once wrapped the exhaustion exponent to
        // zero (delivery 0); every crossing survives, so it is 1.
        let huge_budget = closed_form_delivery(&cfg(0.01, u32::MAX));
        assert_eq!(huge_budget.to_bits(), 1.0f64.to_bits(), "{huge_budget}");
        // 2^32 flits once truncated to zero crossings (delivery 1). At a
        // BER where one crossing fails with probability about 2^-32, a
        // route of h links survives with probability about e^-h.
        let long = cfg(2.9e-12, 0).with_packet_len(1 << 32);
        let d = long.detected_probability();
        let route = |hops: f64| (-(d * hops * (1u64 << 32) as f64)).exp();
        let expect = (8.0 * route(1.0) + 4.0 * route(2.0)) / 12.0;
        let got = closed_form_delivery(&long);
        assert!((got - expect).abs() < 1e-5, "{got} vs {expect}");
        assert!(got > 0.2 && got < 0.4, "{got}");
    }

    #[test]
    fn zero_ber_has_a_single_reachable_terminal() {
        let config = cfg(0.0, 3);
        let report = verify(&config);
        assert!(report.all_proven());
        assert!((report.deliver_probability - 1.0).abs() < 1e-12);
        for pair in &report.pairs {
            assert!(pair.delivered_reachable);
            // With BER 0 the drop branch has probability 0 but is still
            // *enumerated* (nondeterministic semantics), so it remains
            // reachable in the qualitative graph.
            assert!(pair.drop_reachable);
            assert!(pair.progress_monotone);
        }
    }

    #[test]
    fn the_correct_scheduler_is_proven_at_the_issue_retry_budgets() {
        for retries in [0u32, 1, 3] {
            let report = verify(&cfg(0.01, retries));
            assert!(report.all_proven(), "budget {retries} failed");
            assert!(report.deadlock_free);
            assert!(report.no_overtaking);
            assert!(report.terminates);
            assert!(report.violations().next().is_none());
            assert!(report.total_states > 0);
        }
    }

    #[test]
    fn dtmc_matches_the_closed_form_on_every_pair() {
        for (ber, retries) in [(0.001, 0), (0.003, 1), (0.01, 3)] {
            let config = cfg(ber, retries);
            let detected = config.detected_probability();
            let survive = 1.0 - detected.powi(retries as i32 + 1);
            let report = verify(&config);
            for pair in &report.pairs {
                let crossings = i32::try_from(config.packet_len * pair.hops).unwrap();
                let expect = survive.powi(crossings);
                assert!(
                    (pair.deliver_probability - expect).abs() < 1e-12,
                    "pair {} -> {}: dtmc {} closed {}",
                    pair.src,
                    pair.dst,
                    pair.deliver_probability,
                    expect
                );
            }
            let aggregate = closed_form_delivery(&config);
            assert!((report.deliver_probability - aggregate).abs() < 1e-12);
        }
    }

    #[test]
    fn an_absorbing_chain_absorbs_with_probability_one() {
        // Transient states 0, 1, 2 and the two terminal classes 3
        // (delivered) and 4 (dropped), one edge per outcome.  State 0
        // reaches state 2 twice and state 1 once, out of id order.
        let layout = Layout { flits: 1, hops: 2 };
        let mut store = Store::new(layout);
        for words in [
            [0, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 2, 0, 0, 0],
            [DONE, 0, 0, 0, 0],
            [DONE, 0, 0, 0, 1],
        ] {
            let slot = store.find(&words).expect_err("distinct states");
            store.insert(slot, &words);
        }
        let outcomes: Vec<CrossingOutcome> = [0.4, 0.3, 0.2, 0.1]
            .into_iter()
            .map(|probability| CrossingOutcome {
                attempts: 1,
                nacks: 0,
                delivered: true,
                extra_delay: 0,
                probability,
            })
            .collect();
        let edges = [2, 3, 1, 2, 3, 4, 3, 3, 4, 3, 4, 4];
        let edge_start = [0, 4, 8, 12, 12, 12];
        let mut x = [0.0; 5];
        let mut succ = [(0, 0.0); 4];
        let got = back_substitute(&store, &edges, &edge_start, &outcomes, &mut x, &mut succ);
        let x1: f64 = 0.4 + 0.2 + 0.1;
        let x2: f64 = 0.3;
        // Delivered mass first, then the grouped successors by id.
        let want = 0.3 + 0.2 * x1 + (0.4 + 0.1) * x2;
        assert_eq!(x[1].to_bits(), x1.to_bits());
        assert_eq!(x[2].to_bits(), x2.to_bits());
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        assert!((got - 0.59).abs() < 1e-15, "{got}");
    }

    #[test]
    fn the_broken_scheduler_yields_an_overtaking_counterexample() {
        let config = cfg(0.01, 3).with_variant(Variant::IgnoreBusyWatermark);
        let report = verify(&config);
        assert!(!report.no_overtaking);
        // Deadlock-freedom and termination are unaffected by the
        // scheduling bug.
        assert!(report.deadlock_free);
        assert!(report.terminates);
        let violation = report
            .violations()
            .find(|v| v.kind == ViolationKind::Overtaking)
            .expect("counterexample");
        // The recorded choice sequence replays to the same trace and
        // its final step is the overtake.
        let replayed = replay_choices(&config, violation.src, violation.dst, &violation.choices);
        assert_eq!(replayed.steps, violation.trace);
        let last = violation.trace.last().expect("non-empty trace");
        assert!(last.arrival <= last.busy_before);
    }

    #[test]
    fn overtaking_requires_a_nonzero_retry_budget() {
        // With no retries every crossing takes exactly one cycle, so
        // even the broken scheduler cannot reorder flits.
        let config = cfg(0.01, 0).with_variant(Variant::IgnoreBusyWatermark);
        let report = verify(&config);
        assert!(report.no_overtaking);
    }

    #[test]
    fn canonicalization_is_shift_invariant() {
        let layout = Layout { flits: 2, hops: 2 };
        let canonical = |mut words: Vec<u64>| {
            layout.canonicalize(&mut words);
            words
        };
        // Links [1, 0], ready [7, 5], watermarks [6, 2], not poisoned.
        let a = vec![1, 0, 7, 5, 6, 2, 0];
        let mut b = a.clone();
        for w in &mut b[2..6] {
            *w += 13;
        }
        assert_eq!(canonical(a.clone()), canonical(b));
        // The watermark below base - 1 clamps to the same bucket as
        // base - 1 exactly.
        let mut c = a.clone();
        c[5] = 0;
        let mut d = a;
        d[5] = 4; // base 5 -> base - 1 = 4
        assert_eq!(canonical(c), canonical(d));
        // A terminal state keeps only its poisoned flag.
        let done = vec![DONE, DONE, 0, 0, 9, 4, 1];
        assert_eq!(canonical(done), vec![DONE, DONE, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn the_store_interns_each_state_once_in_discovery_order() {
        let layout = Layout { flits: 1, hops: 2 };
        let mut store = Store::new(layout);
        // Enough distinct states to grow the table several times.
        for i in 0..1000u64 {
            let words = [0, i, i % 7, i / 7, 0];
            let slot = store.find(&words).expect_err("not yet interned");
            assert_eq!(store.insert(slot, &words), store.len() - 1);
        }
        for i in 0..1000u64 {
            let id = usize::try_from(i).unwrap();
            assert_eq!(store.find(&[0, i, i % 7, i / 7, 0]), Ok(id));
            assert_eq!(store.state(id), &[0, i, i % 7, i / 7, 0]);
        }
        assert!(store.find(&[0, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn replay_reaches_a_terminal_state_for_any_oracle() {
        let config = cfg(0.01, 2);
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 1);
        // Always-clean oracle.
        let clean = replay(&config, src, dst, |_, _| 0);
        assert!(clean.terminal && clean.delivered);
        assert_eq!(clean.steps.len(), config.packet_len * 2);
        // Always-exhaust oracle: poisoned but still terminates.
        let poisoned = replay(&config, src, dst, |_, _| usize::MAX);
        assert!(poisoned.terminal && !poisoned.delivered);
    }

    #[test]
    fn state_space_is_shared_across_equivalent_timings() {
        // A modest budget keeps the canonical space small; the point is
        // that it is *much* smaller than the 5^8 outcome tree.
        let report = verify(&cfg(0.01, 3));
        for pair in &report.pairs {
            let tree: usize = (5usize).pow(u32::try_from(4 * pair.hops).unwrap());
            assert!(
                pair.states * 20 < tree,
                "canonicalization failed to merge: {} states vs {} paths",
                pair.states,
                tree
            );
        }
    }
}
