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
//! place into a link its worker reuses
//! ([`srlr_core::SwingPoint::instantiate_with_mismatch_into`]), and
//! moved in place to every other swing
//! ([`srlr_core::SwingPoint::retarget`]) only to read the two fields the
//! screen needs there ([`crate::certify::Swing`]). The sweeps of up to
//! eight dice are then screened three ways at once, their scans in
//! lockstep ([`crate::certify::sweep_screens`]):
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

use crate::certify::{self, Screen, Swing};
use crate::link::{LinkConfig, SrlrLink};
use crate::lockstep::Lockstep;
use crate::prbs::Prbs;
use srlr_core::{SrlrDesign, SwingPoint};
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{GlobalVariation, MonteCarlo, Technology};
use srlr_telemetry::{index_key, Obs, Profiler, Value};
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

/// One worker's screen state, reused from group to group and item to
/// item: the group's dice, and each die's swing, scan order and verdict
/// at every sweep point (die-major).
struct ScreenScratch {
    /// Up to [`certify::GROUP`] links, one per die of a group, each
    /// re-elaborated in place for the next group.
    dice: Vec<SrlrLink>,
    swings: Vec<Swing>,
    order: Vec<usize>,
    screens: Vec<Screen>,
}

impl ScreenScratch {
    /// Scratch for a sweep over `points` swing points.
    fn new(points: usize) -> Self {
        let per_group = certify::GROUP * points;
        Self {
            dice: Vec::with_capacity(certify::GROUP),
            swings: vec![Swing::default(); per_group],
            order: vec![0; per_group],
            screens: vec![Screen::Undecided; per_group],
        }
    }
}

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
    /// takes a contiguous run of items with one [`ScreenScratch`], and
    /// profiles each item into a [`Profiler::child`] and ticks
    /// `obs.progress` once per verdict; the calling thread merges the
    /// profiles in item order. The verdicts are the same at any thread
    /// count and batch width.
    fn flat_passes(&self, points: &[SwingPoint], obs: &mut Obs) -> Vec<bool> {
        let mc = MonteCarlo::new(self.tech, self.seed);
        let threads = srlr_parallel::resolve_threads(self.threads);
        let per_item = (self.batch_width / points.len().max(1)).max(1);
        let items = self.runs.div_ceil(per_item);
        // One contiguous run of items per worker, as the pool would split
        // them, so each worker sizes its scratch once.
        let workers = threads.min(items).max(1);
        let per_worker = items.div_ceil(workers);
        let (progress, profiler) = (&obs.progress, &obs.profiler);
        let runs = srlr_parallel::par_map_indexed(workers, threads, |w| {
            let mut scratch = ScreenScratch::new(points.len());
            let first_item = w * per_worker;
            (first_item..items.min(first_item + per_worker))
                .map(|b| {
                    let first = b * per_item;
                    let trials = first..self.runs.min(first + per_item);
                    let mut prof = profiler.child();
                    let passes = self.eval_batch(points, &mc, trials, &mut scratch, &mut prof);
                    for _ in &passes {
                        progress.tick();
                    }
                    (passes, prof)
                })
                .collect::<Vec<_>>()
        });
        let mut passes = vec![false; points.len() * self.runs];
        for (b, (item, prof)) in runs.into_iter().flatten().enumerate() {
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
    /// points.len() + point`). The dice are taken [`certify::GROUP`] at a
    /// time: elaborate each die once, read its swing at every point,
    /// screen the group's sweeps three ways with their scans in lockstep,
    /// and set the undecided (die, point) pairs aside. Those then advance
    /// in lockstep through the stress patterns.
    ///
    /// Profiling lands in `prof` (free when disabled): an `mc.batch`
    /// frame wrapping one `elaborate` frame per die (sampling, the
    /// elaboration and the swing at every point) and one `certify` frame
    /// per group of dice, with `cert_hit`/`cert_miss` tallies per (die,
    /// point) (batch occupancy = misses per batch), and a `kernel` frame.
    /// Its `bit_slot`/`lane_kill` children record the refuted pairs (one
    /// `lane_kill` each) and come from the lockstep harness for the
    /// undecided ones. The timing sink is exempt from the
    /// telemetry-byte-identity contract: its batch frames depend on the
    /// batch width.
    fn eval_batch(
        &self,
        points: &[SwingPoint],
        mc: &MonteCarlo,
        trials: Range<usize>,
        scratch: &mut ScreenScratch,
        prof: &mut Profiler,
    ) -> Vec<bool> {
        let first = trials.start;
        let n = points.len();
        let mut pass = vec![false; trials.len() * n];
        let Some((last, others)) = points.split_last() else {
            return pass;
        };
        prof.enter("mc.batch");
        let mut lanes: Vec<(usize, SrlrLink)> = Vec::new();
        let mut refuted = 0;
        let mut vars = [GlobalVariation::nominal(); certify::GROUP];
        for group_start in trials.clone().step_by(certify::GROUP) {
            let group = group_start..trials.end.min(group_start + certify::GROUP);
            for (d, trial) in group.clone().enumerate() {
                prof.enter("elaborate");
                let mut die = mc.die(trial as u64);
                let var = die.global_variation();
                vars[d] = var;
                // Each die is elaborated at the last point, into a link
                // reused from group to group, and moved in place to every
                // other point to read its swing there.
                let base = match scratch.dice.get_mut(d) {
                    Some(base) => {
                        base.reelaborate(self.tech, &var, last, &mut die);
                        base
                    }
                    None => {
                        let chain = last.instantiate_with_mismatch(
                            self.tech,
                            &var,
                            self.config.stages,
                            &mut die,
                        );
                        // srlr-lint: allow(alloc-in-hot-path, reason = "fills the worker's reused dice; it grows only on a worker's first group")
                        scratch.dice.push(SrlrLink::from_chain(chain, self.config));
                        &mut scratch.dice[d]
                    }
                };
                let swings = &mut scratch.swings[d * n..(d + 1) * n];
                swings[n - 1] = Swing::of(base);
                for (swing, point) in swings.iter_mut().zip(others) {
                    base.retarget(self.tech, &var, point);
                    *swing = Swing::of(base);
                }
                prof.exit();
            }
            let dice = group.len();
            let mut move_to = |d: usize, p: usize, link: &mut SrlrLink| {
                link.retarget(self.tech, &vars[d], &points[p]);
            };
            prof.enter("certify");
            certify::sweep_screens(
                &mut scratch.dice[..dice],
                &scratch.swings[..dice * n],
                &mut scratch.order,
                &mut scratch.screens,
                &mut move_to,
            );
            prof.exit();
            let first_j = (group.start - first) * n;
            for (j, &verdict) in scratch.screens[..dice * n].iter().enumerate() {
                match verdict {
                    Screen::Clean => {
                        pass[first_j + j] = true;
                        prof.count("cert_hit");
                    }
                    Screen::Refuted => {
                        refuted += 1;
                        prof.count("cert_miss");
                    }
                    Screen::Undecided => {
                        prof.count("cert_miss");
                        let link = &mut scratch.dice[j / n];
                        move_to(j / n, j % n, link);
                        lanes.push((first_j + j, link.clone()));
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
    /// a `trial` event (timestamped by its flattened index, the
    /// experiment's logical clock) carrying its `point`, `trial` and
    /// `pass`, per-point tallies land as `mc.point.NNN.*` metrics (keyed
    /// by [`srlr_telemetry::index_key`]), `obs.progress` ticks once per
    /// die across the whole flattened workload, and an enabled
    /// `obs.profiler` gets an `mc.sweep` frame over the per-batch
    /// frames. Disabled hooks cost one branch each; the result is
    /// bit-identical either way.
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
                obs.collector.event(
                    "trial",
                    i as f64,
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
                let prefix = index_key("mc.point", point, swings.len());
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
        let trials = obs.collector.events();
        assert_eq!(trials.len(), 60, "one trial event per die");
        for (i, e) in trials.iter().enumerate() {
            assert_eq!((e.name.as_str(), e.ts), ("trial", i as f64));
            assert_eq!(e.fields.get("trial"), Some(&Value::U64(i as u64)));
            assert_eq!(e.fields.get("point"), Some(&Value::U64(0)));
            assert!(matches!(e.fields.get("pass"), Some(Value::Bool(_))));
        }
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
        // Trial events arrive in flattened-index order regardless of
        // threads: die 40 is the first of the second sweep point.
        let text = String::from_utf8(jsonl1).expect("utf8");
        let trials: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"event\",\"name\":\"trial\""))
            .collect();
        assert_eq!(trials.len(), 80);
        assert!(trials[40].contains("\"ts\":40,") && trials[40].contains("\"point\":1,"));
        assert!(!text.contains("\"type\":\"span\"") && !chrome1.contains("\"ph\":\"X\""));
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
        // Batch width 32 over two sweep points: 16 dice per batch, so the
        // 60 dice split into 4 batches, screened in lockstep groups of 8
        // (the last batch's 12 dice in a group of 8 and one of 4).
        assert_eq!(count_of("certify"), 8, "one certificate frame per group");
        assert_eq!(count_of("elaborate"), 60, "one elaboration per die");
        // Kill-on-first-error retires every failing lane exactly once.
        assert!(count_of("lane_kill") <= count_of("cert_miss"));
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
}
