//! The Fig. 6 experiment: Monte Carlo error probability of a 10 mm link
//! versus the design's swing voltage.
//!
//! Each trial samples one die (global variation) plus per-stage local
//! mismatch, builds the link, and transmits the stress patterns (worst
//! cases for drift and ISI, plus PRBS). A die that corrupts any bit
//! counts as a failure; the error probability is the failing fraction of
//! dice, exactly as the paper's 1000-run Monte Carlo reports it.
//!
//! Trials are evaluated by the deterministic parallel engine
//! ([`srlr_parallel::par_map_indexed`]): die `i` draws its mismatch from
//! the counter-based stream [`MonteCarlo::die`]`(i)` and its PRBS
//! stimulus from [`Prbs::prbs15_for_stream`]`(seed, i)`, so every trial
//! is a pure function of `(seed, i)` and the result is bit-identical at
//! any thread count.
//!
//! # The batched hot path
//!
//! Trials are evaluated in batches of about [`McExperiment::batch_width`]
//! dice. A sweep is batched trial-major: each die is elaborated once, in
//! place into the batch's reused per-swing links
//! ([`srlr_core::SwingPoint::instantiate_with_mismatch_into`]), and
//! retargeted to every swing ([`srlr_core::SwingPoint::retarget`]).
//! The die's whole sweep is then screened three ways at once
//! ([`crate::certify::sweep_screen`]):
//!
//! * **clean** — the conservative certificate proves the link transmits
//!   every pattern. Its 1-bit half only gets easier as the swing rises
//!   (the swing-dominance lemma in [`crate::certify`]), so the screen
//!   walks the die's swings upward only until the first one it proves,
//!   and runs the cheap 0-bit half from there up. These verdicts equal
//!   [`SrlrLink::robustly_clean`] at every point;
//! * **refuted** — the same walk, with the lockstep kernel's own
//!   comparisons, shows that a solitary `1` on the fresh link is lost.
//!   Every stress set opens with a `1`, so the pair fails, exactly as
//!   the kernel would find in its first bit slot;
//! * **undecided** — neither. Only these pairs are copied into a
//!   structure-of-arrays [`srlr_core::DieBatch`] that advances all of
//!   them through the stage map one bit slot at a time, with a per-lane
//!   alive mask standing in for the scalar early exit.
//!
//! Because the certificate is conservative, the refutation is exact and
//! the batch evaluator shares its arithmetic with the scalar stage map
//! (see [`srlr_core::batch`]), the result is **bit-identical** to running
//! every die through [`SrlrLink::transmits_cleanly`] one at a time — at
//! every batch width and thread count, which the crate's identity tests
//! assert against exactly that per-die oracle.

use crate::certify::{self, Screen};
use crate::link::{LinkConfig, SrlrLink};
use crate::lockstep::Lockstep;
use crate::prbs::Prbs;
use srlr_core::{SrlrDesign, SwingPoint};
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{MonteCarlo, Technology};
use srlr_telemetry::{Obs, Profiler, Value};
use srlr_units::Voltage;
use std::ops::Range;

/// The Sec. III-B deterministic worst-case stress patterns, shared by
/// every trial (hoisted out of the per-die hot loop).
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    // The Sec. III-B worst case.
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

/// The Monte Carlo link-failure experiment.
#[derive(Debug, Clone)]
pub struct McExperiment<'a> {
    tech: &'a Technology,
    config: LinkConfig,
    /// Number of dice per evaluation (the paper uses 1000); set through
    /// [`McExperiment::with_runs`], which rejects zero.
    runs: usize,
    /// RNG seed (same seed = same dice across designs, a paired
    /// comparison).
    pub seed: u64,
    /// PRBS bits per die in addition to the deterministic worst cases.
    pub prbs_bits: usize,
    /// Worker threads: `Some(n)` forces `n`, `None` defers to the
    /// `SRLR_THREADS` environment variable (and ultimately the machine).
    pub threads: Option<usize>,
    /// Dice per [`srlr_core::DieBatch`] work item; set through
    /// [`McExperiment::with_batch_width`], which rejects zero.
    batch_width: usize,
}

impl<'a> McExperiment<'a> {
    /// A paper-sized experiment: 1000 dice.
    pub fn paper_default(tech: &'a Technology) -> Self {
        Self {
            tech,
            config: LinkConfig::paper_default(),
            runs: 1000,
            seed: 2013,
            prbs_bits: 256,
            threads: None,
            batch_width: 32,
        }
    }

    /// Overrides the number of dice (smaller for quick tests).
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "need at least one run");
        self.runs = runs;
        self
    }

    /// Number of dice per evaluation.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Dice per [`srlr_core::DieBatch`] work item; a sweep over `n`
    /// swings puts `batch_width / n` dice (at least one) at every swing
    /// in each item. Any width gives identical results; it only trades
    /// scheduling granularity against batching efficiency.
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Overrides the link configuration (data rate, stage count,
    /// thresholds) the dice are built with.
    #[must_use]
    pub fn with_config(mut self, config: LinkConfig) -> Self {
        self.config = config;
        self
    }

    /// Forces the worker-thread count (`1` = serial). `None` (the
    /// default) defers to `SRLR_THREADS` / the machine; results are
    /// identical either way.
    #[must_use]
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the dice-per-batch width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn with_batch_width(mut self, width: usize) -> Self {
        assert!(width > 0, "batch width must be at least one");
        self.batch_width = width;
        self
    }

    /// Pass/fail of every die in the flattened `points × runs` workload,
    /// in point-major order (index `point * runs + trial`).
    ///
    /// The sweep is evaluated trial-major: a work item takes
    /// `batch_width / points.len()` consecutive trials (at least one) and
    /// evaluates each die at every point, so a die is sampled and
    /// elaborated once per sweep rather than once per swing. Each worker
    /// profiles its item into a [`Profiler::child`] and ticks
    /// `obs.progress` once per verdict; the calling thread merges the
    /// profiles in item order. The verdicts are the same at any thread
    /// count and batch width.
    fn flat_passes(&self, points: &[SwingPoint], obs: &mut Obs) -> Vec<bool> {
        let mc = MonteCarlo::new(self.tech, self.seed);
        let threads = srlr_parallel::resolve_threads(self.threads);
        let per_item = (self.batch_width / points.len().max(1)).max(1);
        let (progress, profiler) = (&obs.progress, &obs.profiler);
        let items = srlr_parallel::par_map_indexed(self.runs.div_ceil(per_item), threads, |b| {
            let first = b * per_item;
            let trials = first..self.runs.min(first + per_item);
            let mut prof = profiler.child();
            let passes = self.eval_batch(points, &mc, trials, &mut prof);
            for _ in &passes {
                progress.tick();
            }
            (passes, prof)
        });
        let mut passes = vec![false; points.len() * self.runs];
        for (b, (item, prof)) in items.into_iter().enumerate() {
            obs.profiler.merge(prof);
            // Item `b` holds trials `b * per_item..` in trial-major order.
            for (j, pass) in item.into_iter().enumerate() {
                let (trial, point) = (b * per_item + j / points.len(), j % points.len());
                passes[point * self.runs + trial] = pass;
            }
        }
        passes
    }

    /// Evaluates `trials` at every sweep point as one batch, returning
    /// the verdicts trial-major (index `(trial - trials.start) *
    /// points.len() + point`): elaborate each die once and retarget it to
    /// every point, screen the die's sweep three ways, then advance the
    /// undecided (die, point) pairs in lockstep through the stress
    /// patterns.
    ///
    /// Profiling lands in `prof` (free when disabled): an `mc.batch`
    /// frame wrapping one `elaborate` frame per die (sampling, the
    /// elaboration and the retargets) and one `certify` frame per die,
    /// with `cert_hit`/`cert_miss` tallies per (die, point) (batch
    /// occupancy = misses per batch), and a `kernel` frame. Its
    /// `bit_slot`/`lane_kill` children record the refuted pairs (one
    /// `lane_kill` each) and come from the lockstep harness for the
    /// undecided ones. The timing sink is exempt from the
    /// telemetry-byte-identity contract: its batch frames depend on the
    /// batch width.
    fn eval_batch(
        &self,
        points: &[SwingPoint],
        mc: &MonteCarlo,
        trials: Range<usize>,
        prof: &mut Profiler,
    ) -> Vec<bool> {
        let first = trials.start;
        let mut pass = vec![false; trials.len() * points.len()];
        let Some((last, others)) = points.split_last() else {
            return pass;
        };
        prof.enter("mc.batch");
        // One link per sweep point, re-elaborated and retargeted in place
        // from die to die; an undecided one is copied into the lockstep
        // set. `order` and `screens` are the screen's scratch.
        let mut at_point: Vec<SrlrLink> = Vec::with_capacity(points.len());
        let mut order = vec![0; points.len()];
        let mut screens = vec![Screen::Undecided; points.len()];
        let mut lanes: Vec<(usize, SrlrLink)> = Vec::new();
        let mut refuted = 0;
        for (t, trial) in trials.enumerate() {
            prof.enter("elaborate");
            let mut die = mc.die(trial as u64);
            let var = die.global_variation();
            match at_point.last_mut() {
                Some(base) => base.reelaborate(self.tech, &var, last, &mut die),
                None => {
                    let chain = last.instantiate_with_mismatch(
                        self.tech,
                        &var,
                        self.config.stages,
                        &mut die,
                    );
                    at_point.resize(points.len(), SrlrLink::from_chain(chain, self.config));
                }
            }
            if let Some((base, retargeted)) = at_point.split_last_mut() {
                for (link, point) in retargeted.iter_mut().zip(others) {
                    link.clone_from(base);
                    link.retarget(self.tech, &var, point);
                }
            }
            prof.exit();
            prof.enter("certify");
            certify::sweep_screen(&at_point, &mut order, &mut screens);
            prof.exit();
            let first_j = t * points.len();
            for (p, (link, &verdict)) in at_point.iter().zip(&screens).enumerate() {
                match verdict {
                    Screen::Clean => {
                        pass[first_j + p] = true;
                        prof.count("cert_hit");
                    }
                    Screen::Refuted => {
                        refuted += 1;
                        prof.count("cert_miss");
                    }
                    Screen::Undecided => {
                        prof.count("cert_miss");
                        lanes.push((first_j + p, link.clone()));
                    }
                }
            }
        }
        if refuted > 0 {
            // A refuted pair loses the solitary `1` that opens the first
            // stress pattern: the lockstep harness would retire it in the
            // first bit slot. The screen has already evaluated that slot,
            // so its verdict (a failure, `pass` stays false) is recorded
            // here in the harness's frames, one `lane_kill` per pair.
            prof.enter("kernel");
            prof.enter("bit_slot");
            prof.exit();
            prof.count_n("lane_kill", refuted);
            prof.exit();
        }
        if lanes.is_empty() {
            prof.exit();
            return pass;
        }

        prof.enter("kernel");
        let mut run = Lockstep::new(&lanes);
        for p in WORST_PATTERNS {
            run.check_shared(p, prof);
        }
        prof.exit();
        if self.prbs_bits > 0 && run.any_contending() {
            // Per-lane PRBS stimulus, generated only for lanes still in
            // contention.
            prof.enter("prbs_gen");
            let prbs: Vec<Option<Vec<bool>>> = lanes
                .iter()
                .enumerate()
                .map(|(lane, (j, _))| {
                    run.is_contending(lane).then(|| {
                        let trial = (first + j / points.len()) as u64;
                        Prbs::prbs15_for_stream(self.seed, trial).take_bits(self.prbs_bits)
                    })
                })
                .collect();
            prof.exit();
            prof.enter("kernel");
            run.check_per_lane(&prbs, self.prbs_bits, prof);
            prof.exit();
        }
        for (lane, (j, _)) in lanes.iter().enumerate() {
            pass[*j] = run.verdicts()[lane];
        }
        prof.exit();
        pass
    }

    /// Runs the experiment for one design, returning the error
    /// probability over the sampled dice.
    pub fn error_probability(&self, design: &SrlrDesign) -> ErrorProbability {
        let point = SwingPoint::new(self.tech, design);
        let passes = self.flat_passes(std::slice::from_ref(&point), &mut Obs::none());
        ErrorProbability {
            failures: passes.iter().filter(|&&ok| !ok).count(),
            trials: self.runs,
        }
    }

    /// The Fig. 6 sweep: error probability of a design across swing
    /// voltages.
    ///
    /// All `swings.len() * runs` dice are flattened into one parallel
    /// workload so small sweeps still saturate the worker pool.
    pub fn swing_sweep(
        &self,
        design: &SrlrDesign,
        swings: &[Voltage],
    ) -> Vec<(Voltage, ErrorProbability)> {
        self.swing_sweep_observed(design, swings, &mut Obs::none())
    }

    /// [`McExperiment::swing_sweep`] with observability: each die becomes
    /// a `trial` span (timestamped by its flattened index, the
    /// experiment's logical clock) on the track of its sweep point,
    /// per-point tallies land as `mc.point.NNN.*` metrics (the prefix
    /// widens past 1000 points so lexicographic order always matches
    /// numeric order), `obs.progress` ticks once per die across the
    /// whole flattened workload, and an enabled `obs.profiler` gets an
    /// `mc.sweep` frame over the per-batch frames. Disabled hooks cost
    /// one branch each; the result is bit-identical either way.
    pub fn swing_sweep_observed(
        &self,
        design: &SrlrDesign,
        swings: &[Voltage],
        obs: &mut Obs,
    ) -> Vec<(Voltage, ErrorProbability)> {
        let points: Vec<SwingPoint> = swings
            .iter()
            .map(|&s| SwingPoint::new(self.tech, &design.with_nominal_swing(s)))
            .collect();
        obs.profiler.enter("mc.sweep");
        let passes = self.flat_passes(&points, obs);
        obs.profiler.exit();
        let sweep: Vec<(Voltage, ErrorProbability)> = swings
            .iter()
            .zip(passes.chunks(self.runs))
            .map(|(&s, chunk)| {
                (
                    s,
                    ErrorProbability {
                        failures: chunk.iter().filter(|&&ok| !ok).count(),
                        trials: self.runs,
                    },
                )
            })
            .collect();
        if obs.collector.is_enabled() {
            // Recorded here, from the index-ordered verdicts, so every
            // sink is identical at any thread count and batch width.
            for (i, &pass) in passes.iter().enumerate() {
                let (point, trial) = (i / self.runs, i % self.runs);
                obs.collector.span(
                    "trial",
                    "mc.sweep",
                    i as f64,
                    1.0,
                    point as u64,
                    &[
                        ("point", Value::U64(point as u64)),
                        ("trial", Value::U64(trial as u64)),
                        ("pass", Value::Bool(pass)),
                    ],
                );
            }
            obs.collector
                .add("mc.trials", (swings.len() * self.runs) as u64);
            for (point, (swing, p)) in sweep.iter().enumerate() {
                let prefix = point_metric_prefix(point, swings.len());
                obs.collector.set_metric(
                    &format!("{prefix}.swing_mv"),
                    Value::F64(swing.millivolts()),
                );
                obs.collector
                    .set_metric(&format!("{prefix}.failures"), Value::U64(p.failures as u64));
                obs.collector
                    .set_metric(&format!("{prefix}.trials"), Value::U64(p.trials as u64));
            }
        }
        sweep
    }

    /// The paper's headline robustness claim: the immunity ratio between
    /// the straightforward and the proposed design at the fabrication
    /// swing (the paper reports ≈3.7x).
    ///
    /// Returns `(proposed, straightforward, ratio)`; the ratio is
    /// `straightforward / proposed` failure probabilities. When either
    /// design recorded zero failures the raw estimate degenerates (0/0
    /// would read as infinite immunity even for two equally clean
    /// designs), so the ratio falls back to the Wilson 95% upper bounds
    /// — finite, conservative, and 1-ish when both designs are clean.
    // srlr-lint: allow(raw-f64-api, reason = "immunity ratio is a dimensionless quotient of probabilities")
    pub fn immunity_ratio(&self) -> (ErrorProbability, ErrorProbability, f64) {
        let proposed = self.error_probability(&SrlrDesign::paper_proposed(self.tech));
        let straightforward = self.error_probability(&SrlrDesign::straightforward(self.tech));
        let ratio = robustness_ratio(&straightforward, &proposed);
        (proposed, straightforward, ratio)
    }
}

/// The `straightforward / proposed` robustness ratio behind
/// [`McExperiment::immunity_ratio`].
///
/// With failures on both sides this is the plain quotient of estimates.
/// When either side observed zero failures, the quotient of Wilson 95%
/// upper bounds ([`ErrorProbability::upper_bound_95`]) stands in: both
/// bounds are strictly positive for any trial count, so the ratio stays
/// finite — in particular, two designs that never failed compare as ≈1,
/// not as infinitely different.
// srlr-lint: allow(raw-f64-api, reason = "robustness ratio is a dimensionless quotient of probabilities")
pub fn robustness_ratio(straightforward: &ErrorProbability, proposed: &ErrorProbability) -> f64 {
    if straightforward.failures == 0 || proposed.failures == 0 {
        straightforward.upper_bound_95() / proposed.upper_bound_95()
    } else {
        straightforward.estimate() / proposed.estimate()
    }
}

/// Metric-key prefix for sweep point `point` of `points`: zero-padded to
/// at least three digits, widening with the sweep so lexicographic order
/// matches numeric order at any point count.
fn point_metric_prefix(point: usize, points: usize) -> String {
    let width = decimal_digits(points.saturating_sub(1)).max(3);
    format!("mc.point.{point:0width$}")
}

/// Number of decimal digits of `n` (1 for 0).
fn decimal_digits(mut n: usize) -> usize {
    let mut digits = 1;
    while n >= 10 {
        n /= 10;
        digits += 1;
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_telemetry::Collector;

    #[test]
    fn proposed_design_fails_rarely() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(200);
        let p = exp.error_probability(&SrlrDesign::paper_proposed(&tech));
        assert!(
            p.estimate() < 0.15,
            "proposed design failure probability too high: {p}"
        );
    }

    #[test]
    fn straightforward_fails_more_often_than_proposed() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(200);
        let (proposed, straightforward, ratio) = exp.immunity_ratio();
        assert!(
            straightforward.failures > proposed.failures,
            "proposed {proposed} vs straightforward {straightforward}"
        );
        assert!(ratio > 1.5, "immunity ratio {ratio} too small");
    }

    #[test]
    fn lower_swing_is_less_robust() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(150);
        let design = SrlrDesign::paper_proposed(&tech);
        let sweep = exp.swing_sweep(
            &design,
            &[
                Voltage::from_millivolts(300.0),
                Voltage::from_millivolts(450.0),
            ],
        );
        assert!(
            sweep[0].1.failures >= sweep[1].1.failures,
            "300 mV should fail at least as often as 450 mV: {:?}",
            sweep
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let tech = Technology::soi45();
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let design = SrlrDesign::paper_proposed(&tech);
        assert_eq!(
            exp.error_probability(&design),
            exp.error_probability(&design)
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        // The tentpole contract: the error probability over 200 dice is
        // identical at 1, 2, and 8 threads because each die is a pure
        // function of (seed, trial index).
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let base = McExperiment::paper_default(&tech).with_runs(200);
        let serial = base
            .clone()
            .with_threads(Some(1))
            .error_probability(&design);
        for threads in [2usize, 8] {
            let parallel = base
                .clone()
                .with_threads(Some(threads))
                .error_probability(&design);
            assert_eq!(
                serial, parallel,
                "threads={threads} diverged from the serial run"
            );
        }
    }

    #[test]
    fn batch_width_does_not_change_the_answer() {
        // The other half of the contract: the batch width only trades
        // scheduling granularity against batching efficiency. The
        // per-die scalar oracle lives in `tests/batch_identity.rs`.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let base = McExperiment::paper_default(&tech).with_runs(120);
        let reference = base.error_probability(&design);
        for width in [1usize, 4, 7] {
            let batched = base
                .clone()
                .with_batch_width(width)
                .error_probability(&design);
            assert_eq!(reference, batched, "batch width {width} diverged");
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let base = McExperiment::paper_default(&tech).with_runs(50);
        let serial = base
            .clone()
            .with_threads(Some(1))
            .swing_sweep(&design, &swings);
        let parallel = base.with_threads(Some(8)).swing_sweep(&design, &swings);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let tech = Technology::soi45();
        let _ = McExperiment::paper_default(&tech).with_runs(0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_batch_width_rejected() {
        let tech = Technology::soi45();
        let _ = McExperiment::paper_default(&tech).with_batch_width(0);
    }

    #[test]
    fn observed_run_matches_unobserved_bit_for_bit() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swing = [design.nominal_swing];
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let plain = exp.swing_sweep(&design, &swing);
        let mut obs = Obs {
            collector: Collector::enabled("trial-index"),
            ..Obs::default()
        };
        let traced = exp.swing_sweep_observed(&design, &swing, &mut obs);
        assert_eq!(plain, traced, "telemetry must not perturb the result");
        assert_eq!(obs.collector.spans().len(), 60, "one span per die");
        assert_eq!(obs.collector.counter("mc.trials"), 60);
        assert_eq!(
            obs.collector.metrics().get("mc.point.000.failures"),
            Some(&Value::U64(plain[0].1.failures as u64))
        );
    }

    #[test]
    fn telemetry_is_bit_identical_across_thread_counts() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let jsonl_at = |threads: usize| {
            let exp = McExperiment::paper_default(&tech)
                .with_runs(40)
                .with_threads(Some(threads));
            let mut obs = Obs {
                collector: Collector::enabled("trial-index"),
                ..Obs::default()
            };
            let sweep = exp.swing_sweep_observed(&design, &swings, &mut obs);
            let mut buf = Vec::new();
            obs.collector
                .write_events_jsonl(&mut buf)
                .expect("vec write");
            (sweep, buf, obs.collector.chrome_trace_json())
        };
        let (sweep1, jsonl1, chrome1) = jsonl_at(1);
        for threads in [2usize, 8] {
            let (sweep_n, jsonl_n, chrome_n) = jsonl_at(threads);
            assert_eq!(sweep1, sweep_n, "results diverged at {threads} threads");
            assert_eq!(jsonl1, jsonl_n, "JSONL diverged at {threads} threads");
            assert_eq!(chrome1, chrome_n, "trace diverged at {threads} threads");
        }
        // Spans arrive in flattened-index order regardless of threads.
        let text = String::from_utf8(jsonl1).expect("utf8");
        assert_eq!(text.lines().filter(|l| l.contains("\"span\"")).count(), 80);
    }

    #[test]
    fn profile_is_identical_across_thread_counts_with_tick_clock() {
        // The profiling determinism contract: with the tick clock, the
        // whole profile — structure, counts, AND timings — is a pure
        // function of the work, not of the worker count.
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let profile_at = |threads: usize| {
            let exp = McExperiment::paper_default(&tech)
                .with_runs(60)
                .with_threads(Some(threads));
            let mut obs = Obs {
                profiler: Profiler::enabled(Clock::tick(1.0)),
                ..Obs::default()
            };
            let _ = exp.swing_sweep_observed(&design, &swings, &mut obs);
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
        assert!(!p1.nodes.is_empty());
    }

    #[test]
    fn profile_counts_cover_every_die_exactly_once() {
        // Deterministic accounting under the tick clock: the frame and
        // tally counts are a pure function of the workload.
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(300.0),
            Voltage::from_millivolts(450.0),
        ];
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let mut obs = Obs {
            profiler: Profiler::enabled(Clock::tick(1.0)),
            ..Obs::default()
        };
        let _ = exp.swing_sweep_observed(&design, &swings, &mut obs);
        let profile = obs.profiler.snapshot();
        let count_of = |name: &str| -> u64 {
            profile
                .nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.count)
                .sum()
        };
        assert_eq!(count_of("cert_hit") + count_of("cert_miss"), 120);
        assert_eq!(count_of("certify"), 60, "one certificate per die per sweep");
        assert_eq!(count_of("elaborate"), 60, "one elaboration per die");
        // Kill-on-first-error retires every failing lane exactly once.
        assert!(count_of("lane_kill") <= count_of("cert_miss"));
        // Batch width 32 over two sweep points: 16 dice per batch, so
        // the 60 dice split into 4 batches.
        assert_eq!(count_of("mc.batch"), 4);
    }

    #[test]
    fn per_die_screen_owns_the_most_self_time() {
        // The hotspot-attribution contract behind `srlr fig6
        // --profile-out`: the per-die screen (elaboration + the
        // three-way certificate) decides nearly every (die, swing) pair
        // itself. It proves the clean ones, and it refutes the ones that
        // lose the solitary `1` opening the first stress pattern; a
        // refuted pair only has its verdict recorded in the `kernel`
        // frame, with no lane loaded or slot simulated. So the lockstep
        // kernel is nearly idle and the screen outweighs it in
        // wall-clock self time by two orders of magnitude here (each die
        // is elaborated and screened once for both swings) — the profile
        // contradicts the naive guess that the bit-slot loop is hot.
        // Wall-clock self time sums over workers, so the sweep runs on
        // one thread: with two, a worker waiting on a busy core inflates
        // whichever frame it is in. 2,000 dice keep the run long enough
        // that one descheduling inside the kernel cannot close the gap,
        // and the test compares the two frames rather than asserting a
        // share of the total.
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let swings = [
            Voltage::from_millivolts(350.0),
            Voltage::from_millivolts(450.0),
        ];
        let exp = McExperiment::paper_default(&tech)
            .with_runs(2000)
            .with_threads(Some(1));
        let mut obs = Obs {
            profiler: Profiler::enabled(Clock::wall()),
            ..Obs::default()
        };
        let _ = exp.swing_sweep_observed(&design, &swings, &mut obs);
        let profile = obs.profiler.snapshot();
        let self_of = |name: &str| -> f64 {
            profile
                .nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.self_s)
                .sum()
        };
        let screen = self_of("elaborate") + self_of("certify");
        let kernel = self_of("kernel") + self_of("bit_slot");
        assert!(
            screen > kernel,
            "expected the per-die screen to outweigh the kernel; got {screen} s vs {kernel} s"
        );
    }

    #[test]
    fn profiling_does_not_perturb_results_or_telemetry_bytes() {
        use srlr_telemetry::{Clock, Profiler};
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let exp = McExperiment::paper_default(&tech).with_runs(60);
        let run = |profiled: bool| {
            let mut obs = Obs {
                collector: Collector::enabled("trial-index"),
                profiler: if profiled {
                    Profiler::enabled(Clock::tick(1.0))
                } else {
                    Profiler::disabled()
                },
                ..Obs::default()
            };
            let p = exp.swing_sweep_observed(&design, &[design.nominal_swing], &mut obs);
            let mut jsonl = Vec::new();
            obs.collector
                .write_events_jsonl(&mut jsonl)
                .expect("vec write");
            (p, jsonl)
        };
        let (p_off, bytes_off) = run(false);
        let (p_on, bytes_on) = run(true);
        assert_eq!(p_off, p_on, "profiling must not change the result");
        assert_eq!(
            bytes_off, bytes_on,
            "timing lives in its own sink; the event sink stays byte-identical"
        );
    }

    #[test]
    fn equally_clean_designs_report_finite_immunity() {
        // Regression: 0 failures / 0 failures used to read as infinite
        // immunity; the Wilson-bound fallback keeps it finite (and ~1
        // for identical evidence).
        let both_zero = ErrorProbability {
            failures: 0,
            trials: 1000,
        };
        let ratio = robustness_ratio(&both_zero, &both_zero);
        assert!(ratio.is_finite(), "0/0 must not read as infinite immunity");
        assert!((ratio - 1.0).abs() < 1e-12, "equal evidence ⇒ ratio 1");
    }

    #[test]
    fn one_sided_zero_failures_still_finite_and_ordered() {
        let clean = ErrorProbability {
            failures: 0,
            trials: 1000,
        };
        let dirty = ErrorProbability {
            failures: 100,
            trials: 1000,
        };
        let ratio = robustness_ratio(&dirty, &clean);
        assert!(ratio.is_finite() && ratio > 1.0, "ratio {ratio}");
        let inverse = robustness_ratio(&clean, &dirty);
        assert!(inverse.is_finite() && inverse < 1.0, "inverse {inverse}");
    }

    #[test]
    fn point_metric_prefixes_sort_lexicographically_at_any_count() {
        // Regression: the fixed {point:03} scheme interleaved past 999
        // points (mc.point.1000 < mc.point.999 lexicographically).
        for points in [1usize, 7, 1000, 1500, 12_000] {
            let keys: Vec<String> = (0..points)
                .map(|p| point_metric_prefix(p, points))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "keys interleave at {points} points");
        }
    }

    #[test]
    fn point_metric_prefix_keeps_the_legacy_shape_for_small_sweeps() {
        // ≤1000 points keep the three-digit keys PR 4's consumers parse.
        assert_eq!(point_metric_prefix(0, 7), "mc.point.000");
        assert_eq!(point_metric_prefix(999, 1000), "mc.point.999");
        assert_eq!(point_metric_prefix(0, 1500), "mc.point.0000");
        assert_eq!(point_metric_prefix(1499, 1500), "mc.point.1499");
    }
}
