//! The measurement protocol every workload shares.
//!
//! One run of a workload, in order:
//!
//! 1. **Warm-up.** The inputs are built and one untimed repetition runs
//!    through the library's public entry points. Its result is the
//!    run's reference, and the memory it took is `peak_anon_mb`.
//! 2. **Set-up.** The inputs are built again [`SETUP_SAMPLES`] times in
//!    calibrated batches; `setup_s` is the median per-set-up time. This
//!    follows the warm-up so that it runs on warm caches, as the timed
//!    repetitions do.
//! 3. **Timed phase.** Repetitions with tracing off until `--seconds`
//!    have passed and at least [`MIN_REPS`] ran, so p90 has ten samples
//!    beyond it. Each result is compared with the reference; a
//!    mismatch or a panic counts as a failed repetition. Before each
//!    repetition a fixed calibration loop is timed; see
//!    [`host_speed`] for how the reported times use it.
//! 4. **Audit.** The benchmark replays the same work through the
//!    layers' public calls with the scalar oracles on, and checks the
//!    reference against the replay, the workload's invariants and, at
//!    the default seed, the golden results.
//! 5. **Traced replays.** The replay again, with every layer call
//!    wrapped in a wall-clock [`Profiler`] frame; these give the
//!    per-layer metrics and must reproduce the reference too.

use crate::layers::{self, Metric};
use srlr_telemetry::{Clock, Profiler};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Timed repetitions a full run makes at least, so that p90 has ten
/// samples beyond it.
const MIN_REPS: usize = 100;
/// Timed repetitions and traced replays in `--smoke` mode.
const SMOKE_REPS: usize = 3;
/// Traced replays in a full run.
const TRACED_REPS: usize = 3;
/// The timed phase stops here whatever the repetition count, well
/// inside the 180 s one run may take.
const MAX_TIMED_S: f64 = 120.0;
/// Set-up samples per run.
const SETUP_SAMPLES: usize = 21;
/// Each set-up sample times a batch of set-ups at least this long, so
/// the clock's resolution does not dominate microsecond set-ups.
const SETUP_BATCH_S: f64 = 2e-3;
/// Consecutive repetitions per window of `wall_s.p90`: about a second
/// of work on every workload.
const WINDOW_REPS: usize = 10;
/// Xorshift steps in one calibration loop, about 2 ms.
const CAL_STEPS: u64 = 1_000_000;
/// The calibration loop's median time on the host the README baseline
/// was recorded on; reported times are seconds at that host's speed.
const CAL_REF_S: f64 = 2.3e-3;

/// One benchmark workload: a fixed amount of simulation work, called
/// through the public API of the layers it exercises.
pub trait Workload {
    /// Everything one repetition needs, built from the seed.
    type Inputs;
    /// The simulated result of one repetition, compared exactly.
    type Output: PartialEq + Debug;
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// The seed the golden results were recorded at.
    const DEFAULT_SEED: u64;
    /// What one unit of `work_per_s` is.
    const WORK_UNIT: &'static str;

    /// Worker threads the workload runs on.
    fn threads() -> usize {
        1
    }
    /// Builds the inputs; this is what `setup_s` times.
    fn setup(seed: u64) -> Self::Inputs;
    /// Work units in one repetition that produced `out`.
    fn work_units(inputs: &Self::Inputs, out: &Self::Output) -> u64;
    /// One repetition through the library's public entry points.
    fn run(inputs: &Self::Inputs) -> Self::Output;
    /// The same work replayed through the layers' public calls, each
    /// wrapped in a `trace` frame. With `oracle`, scalar reference
    /// checks run too, and a disagreement is an error.
    fn replay(
        inputs: &Self::Inputs,
        trace: &mut Trace,
        oracle: bool,
    ) -> Result<Self::Output, String>;
    /// Invariants of a result, plus the golden values when `golden`.
    fn check(inputs: &Self::Inputs, out: &Self::Output, golden: bool) -> Result<(), String>;
}

/// The profiler a replay records into, plus the values a frame tree
/// cannot hold (maxima over calls or workers).
pub struct Trace {
    /// Layer frames and exact event tallies.
    pub prof: Profiler,
    /// Largest value seen per name.
    pub peaks: BTreeMap<&'static str, f64>,
}

impl Trace {
    fn new(prof: Profiler) -> Self {
        Self {
            prof,
            peaks: BTreeMap::new(),
        }
    }

    /// Records `value` under `name` if it is the largest so far.
    pub fn peak(&mut self, name: &'static str, value: f64) {
        let slot = self.peaks.entry(name).or_insert(value);
        *slot = slot.max(value);
    }
}

/// How a run measures.
pub struct RunOpts {
    /// Input seed; `None` means the workload's default.
    pub seed: Option<u64>,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Three timed repetitions and one traced replay, for a quick check.
    pub smoke: bool,
}

/// Everything one run of one workload measured and checked.
pub struct Outcome {
    pub name: &'static str,
    pub seed: u64,
    pub threads: usize,
    pub work_unit: &'static str,
    pub work_units: u64,
    pub attempted: usize,
    pub failed: usize,
    pub traced_reps: usize,
    /// The factor the run's measured times were scaled by.
    pub host_speed: f64,
    /// Every check that did not hold; empty when the run is correct.
    pub problems: Vec<String>,
    pub end_to_end: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, Metric>,
}

impl Outcome {
    /// Whether every repetition and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs `f`, turning a panic into `None` (the panic message still
/// reaches stderr through the default hook).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Measures one workload by the protocol in the module docs.
pub fn measure<W: Workload>(opts: &RunOpts) -> Outcome {
    let seed = opts.seed.unwrap_or(W::DEFAULT_SEED);
    let inputs = W::setup(seed);
    let mut problems = Vec::new();

    let reference = guarded(|| W::run(&inputs));
    let peak_anon_mb = peak_anon_mb();
    let setup = setup_samples::<W>(seed);
    if reference.is_none() {
        problems.push("the warm-up repetition panicked".to_owned());
    }

    let mut walls = Vec::new();
    let mut cals = Vec::new();
    let mut deviating = 0usize;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let done = if opts.smoke {
            walls.len() >= SMOKE_REPS
        } else {
            (walls.len() >= MIN_REPS && elapsed >= opts.seconds) || elapsed >= MAX_TIMED_S
        };
        if done {
            break;
        }
        cals.push(calibration_s());
        let t0 = Instant::now();
        let out = guarded(|| black_box(W::run(black_box(&inputs))));
        walls.push(t0.elapsed().as_secs_f64());
        if out.is_none() || out != reference {
            deviating += 1;
        }
    }

    let mut reference_ok = false;
    if let Some(reference) = &reference {
        let audit = guarded(|| W::replay(&inputs, &mut Trace::new(Profiler::disabled()), true));
        match audit {
            None => problems.push("the audit replay panicked".to_owned()),
            Some(Err(e)) => problems.push(e),
            Some(Ok(replayed)) if replayed != *reference => problems.push(format!(
                "the layer replay disagrees with the library\n  library: {reference:?}\n  replay:  {replayed:?}"
            )),
            Some(Ok(_)) => reference_ok = true,
        }
        if let Err(e) = W::check(&inputs, reference, seed == W::DEFAULT_SEED) {
            problems.push(e);
            reference_ok = false;
        }
    }

    let traced_reps = if opts.smoke { 1 } else { TRACED_REPS };
    let mut samples = Vec::new();
    for _ in 0..traced_reps {
        let mut trace = Trace::new(Profiler::enabled(Clock::wall()));
        let t0 = Instant::now();
        let out = guarded(|| {
            trace.prof.enter("replay");
            let out = W::replay(&inputs, &mut trace, false);
            trace.prof.exit();
            out
        });
        let wall = t0.elapsed().as_secs_f64();
        match out {
            Some(Ok(out)) if Some(&out) == reference.as_ref() => {
                samples.push(layers::from_trace(&trace, wall));
            }
            _ => problems.push("a traced replay did not reproduce the reference".to_owned()),
        }
    }

    let attempted = walls.len();
    let failed = if reference_ok { deviating } else { attempted };
    let work_units = reference.as_ref().map_or(0, |r| W::work_units(&inputs, r));
    let p50 = quantile(&walls, 0.5);
    let wall_spread = rel_iqr(&walls);
    let speed = host_speed(&cals);
    let mut end_to_end = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str, spread: f64| {
        end_to_end.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                spread: Some(spread),
            },
        );
    };
    put(
        "work_per_s",
        work_units as f64 / (p50 * speed),
        "work/s",
        wall_spread,
    );
    put("wall_s.p50", p50 * speed, "s", wall_spread);
    put("wall_s.p90", windowed_p90(&walls) * speed, "s", wall_spread);
    put(
        "setup_s",
        quantile(&setup, 0.5) * speed,
        "s",
        rel_iqr(&setup),
    );
    if let Some(mb) = peak_anon_mb {
        put("peak_anon_mb", mb, "MB", 0.0);
    }
    put(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac",
        0.0,
    );
    let per_layer = layers::summarize(&samples, W::threads(), p50, &mut problems);

    Outcome {
        name: W::NAME,
        seed,
        threads: W::threads(),
        work_unit: W::WORK_UNIT,
        work_units,
        attempted,
        failed,
        traced_reps,
        host_speed: speed,
        problems,
        end_to_end,
        per_layer,
    }
}

/// Per-set-up seconds, [`SETUP_SAMPLES`] samples of a batch size
/// calibrated to last at least [`SETUP_BATCH_S`].
fn setup_samples<W: Workload>(seed: u64) -> Vec<f64> {
    let time_batch = |n: usize| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(W::setup(black_box(seed)));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut batch = 1usize;
    while batch < 1 << 20 && time_batch(batch) < SETUP_BATCH_S {
        batch *= 2;
    }
    (0..SETUP_SAMPLES)
        .map(|_| time_batch(batch) / batch as f64)
        .collect()
}

/// Seconds one run of a fixed xorshift loop takes: register arithmetic
/// only, and no library code, so no change to the program moves it.
fn calibration_s() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..black_box(CAL_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// How fast the host ran during the run, relative to the reference
/// host: [`CAL_REF_S`] over the median calibration time. Every reported
/// time is the measured time times this factor.
///
/// Other tenants share the host, and its speed drifts by 10% and more
/// over minutes. The calibration loop drifts with it: across ten runs
/// the medians' quartile spread fell from 3–13% to 1–7% once scaled.
/// One run's median calibration, not each repetition's own, scales the
/// run: the loop does not see the memory-bound slow-downs of a second
/// or two that hit some workloads and not others, which `wall_s.p90`
/// handles on its own.
fn host_speed(cals: &[f64]) -> f64 {
    if cals.is_empty() {
        return 1.0;
    }
    CAL_REF_S / quantile(cals, 0.5)
}

/// The p90 of each window of [`WINDOW_REPS`] consecutive repetitions,
/// median over the windows.
///
/// Bursts of other tenants' memory traffic slow the memory-bound
/// workloads by up to 1.9× for a second or two. The p90 of the whole
/// run measures how many bursts fell into it, not the program: its
/// quartile spread over ten runs reached 25–38%. Per window, the p90 is
/// the program's own tail whenever the burst missed the window, and the
/// median over windows holds as long as bursts hit fewer than half.
fn windowed_p90(walls: &[f64]) -> f64 {
    let per_window: Vec<f64> = walls
        .chunks(WINDOW_REPS)
        .map(|w| quantile(w, 0.9))
        .collect();
    quantile(&per_window, 0.5)
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics (NaN for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Interquartile range as a share of the median.
fn rel_iqr(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / quantile(values, 0.5)
}

/// This process's peak anonymous resident memory (heap and stacks) so
/// far, in MB: the peak resident set `VmHWM` less the file-backed and
/// shared pages resident now. `None` off Linux.
///
/// It is read once, after the warm-up repetition, so it is the memory
/// one repetition needs from a fresh process. The whole `VmHWM` moved by
/// ±4% between identical runs, all of it in file-backed pages (the
/// binary's and libc's, under address-space randomisation); and after
/// the timed phase the two-thread workload's anonymous pages moved by
/// ±20% with glibc's per-thread arenas. After one repetition the
/// anonymous peak repeated to within ±2.5%. File-backed pages only grow
/// without memory pressure, so subtracting the current count leaves the
/// anonymous peak.
fn peak_anon_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    let anon_kib = kib("VmHWM:")? - kib("RssFile:")? - kib("RssShmem:")?;
    Some(anon_kib * 1024.0 / 1e6)
}
