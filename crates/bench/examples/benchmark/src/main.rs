//! The repository benchmark: four workloads through the SRLR library,
//! timed end to end with tracing off, then replayed layer by layer
//! under a wall-clock profiler. See `README.md` beside this package for
//! the workloads, the metrics and what each per-layer metric predicts.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/examples/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--out FILE] [--smoke]
//! ... -- --compare OLD.json NEW.json
//! ```
//!
//! Run it from the repository root: it reads its metric list and
//! bounds from `BENCHMARK.json` there. Without `--workload` it runs
//! every workload, each in a fresh process of its own, and merges their
//! results into `--out`. The last line of a single-workload run is one
//! JSON object: `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`, the default) or the per-layer ones
//! (`--trace 1`).
//!
//! Exit status: 0 when every check holds and `--compare` finds no
//! regression; 1 on a failed check, a regression or a changed count;
//! 2 on a usage error.

mod bathtub;
mod compare;
mod fig6;
mod harness;
mod layers;
mod noc;
mod spec;
mod verify;

use harness::{measure, Outcome, RunOpts, Workload};
use layers::Metric;
use spec::{Spec, SpecMetric};
use srlr_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = [
    fig6::Fig6::NAME,
    bathtub::Bathtub::NAME,
    noc::Noc::NAME,
    verify::Verify::NAME,
];
const DEFAULT_OUT: &str = "target/srlr-reports/benchmark.json";

const USAGE: &str =
    "usage: srlr-benchmark [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] \
[--out FILE] [--smoke]\n       srlr-benchmark --compare OLD.json NEW.json\n\
workloads: fig6_mc, bathtub_jitter, noc_faults, verify_noc";

/// Parsed command line.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let raw = value()?;
                args.seed = Some(raw.parse().map_err(|_| format!("bad --seed `{raw}`"))?);
            }
            "--seconds" => {
                let raw = value()?;
                let seconds: f64 = raw.parse().map_err(|_| format!("bad --seconds `{raw}`"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got `{raw}`"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--out" => args.out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let old = value()?;
                let new = it.next().cloned().ok_or("--compare needs OLD and NEW")?;
                args.compare = Some((old, new));
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => return usage_error(&e),
    };
    let spec = match spec::load() {
        Ok(spec) => spec,
        Err(e) => return usage_error(&e),
    };
    if spec.workloads != WORKLOADS {
        return usage_error(&format!(
            "{} lists workloads {:?}, the program runs {WORKLOADS:?}",
            spec::PATH,
            spec.workloads
        ));
    }
    let result = match (&args.compare, &args.workload) {
        (Some((old, new)), _) => compare::compare(&spec, old, new),
        (None, Some(name)) => run_one(&spec, &args, name),
        (None, None) => run_all(&spec, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Runs one workload in this process; `Ok(true)` when it is correct.
fn run_one(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        smoke: args.smoke,
    };
    let mut outcome = match name {
        fig6::Fig6::NAME => measure::<fig6::Fig6>(&opts),
        bathtub::Bathtub::NAME => measure::<bathtub::Bathtub>(&opts),
        noc::Noc::NAME => measure::<noc::Noc>(&opts),
        _ => measure::<verify::Verify>(&opts),
    };
    let (declared, measured) = if args.trace {
        (&spec.per_layer, &outcome.per_layer)
    } else {
        (&spec.end_to_end, &outcome.end_to_end)
    };
    let (line, missing) = result_line(declared, measured);
    outcome.problems.extend(missing);

    print_outcome(&outcome);
    let out = args.out.as_deref().unwrap_or(DEFAULT_OUT);
    let mut workloads = BTreeMap::new();
    workloads.insert(name.to_owned(), outcome_json(&outcome));
    write_results(out, workloads)?;
    println!("results: {out}");
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(outcome.correct())),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", line),
        ])
        .to_json()
    );
    Ok(outcome.correct())
}

/// The `metrics` object of the last output line: every declared metric
/// with its value, plus a problem for each one the run could not
/// report in the declared unit.
fn result_line(
    declared: &[SpecMetric],
    measured: &BTreeMap<String, Metric>,
) -> (Json, Vec<String>) {
    let mut line = BTreeMap::new();
    let mut problems = Vec::new();
    for m in declared {
        match measured.get(&m.name) {
            Some(v) if v.unit == m.unit => {
                line.insert(
                    m.name.clone(),
                    obj([
                        ("value", Json::Num(v.value)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                );
            }
            Some(v) => problems.push(format!(
                "{} is measured in {} but declared in {}",
                m.name, v.unit, m.unit
            )),
            None => problems.push(format!("{} was not measured", m.name)),
        }
    }
    (Json::Obj(line), problems)
}

/// Runs every workload in its own process, so each gets a fresh
/// allocator and its own memory peak, then merges their results.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = args.out.as_deref().unwrap_or(DEFAULT_OUT);
    let seconds = args.seconds.unwrap_or(spec.run_seconds).to_string();
    let mut all_ok = true;
    let mut workloads = BTreeMap::new();
    for name in WORKLOADS {
        let part = format!("{out}.{name}");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seconds", &seconds, "--out", &part]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run workload {name}: {e}"))?;
        all_ok &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{part}: {e}"))?;
        let result = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{part} holds no result for {name}"))?;
        workloads.insert(name.to_owned(), result.clone());
        std::fs::remove_file(&part).map_err(|e| format!("{part}: {e}"))?;
    }

    println!(
        "\n{:<15} {:>8} {:>9} {:>7} {:>14} {:>11}",
        "workload", "correct", "attempted", "failed", "work_per_s", "wall_s.p50"
    );
    for (name, w) in &workloads {
        let num = |key: &str| w.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
        let e2e = |key: &str| {
            w.get("end_to_end")
                .and_then(|m| m.get(key))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{name:<15} {:>8} {:>9} {:>7} {:>14.1} {:>11.5}",
            w.get("correct") == Some(&Json::Bool(true)),
            num("attempted"),
            num("failed"),
            e2e("work_per_s"),
            e2e("wall_s.p50"),
        );
    }
    write_results(out, workloads)?;
    println!("results: {out}");
    Ok(all_ok)
}

fn print_outcome(o: &Outcome) {
    println!(
        "== {} · seed {} · {} of {} threads · {} {} per repetition",
        o.name,
        o.seed,
        o.threads,
        srlr_parallel::available_threads(),
        o.work_units,
        o.work_unit
    );
    println!(
        "{} timed repetitions, {} failed; {} traced replays; host speed {:.3} of the reference",
        o.attempted, o.failed, o.traced_reps, o.host_speed
    );
    for (title, metrics) in [
        ("end-to-end (tracing off)", &o.end_to_end),
        ("per-layer (traced replay)", &o.per_layer),
    ] {
        println!("{title}:");
        for (name, m) in metrics {
            let spread = m
                .spread
                .map_or(String::new(), |s| format!("  spread {:.2}%", s * 100.0));
            println!("  {name:<32} {:>16.6e} {}{spread}", m.value, m.unit);
        }
    }
    for problem in &o.problems {
        println!("PROBLEM: {problem}");
    }
}

fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn metrics_json(metrics: &BTreeMap<String, Metric>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let mut entry = BTreeMap::from([
                    ("value".to_owned(), Json::Num(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ]);
                if let Some(spread) = m.spread {
                    entry.insert("spread".to_owned(), Json::Num(spread));
                }
                (name.clone(), Json::Obj(entry))
            })
            .collect(),
    )
}

fn outcome_json(o: &Outcome) -> Json {
    obj([
        ("seed", Json::Num(o.seed as f64)),
        ("threads", Json::Num(o.threads as f64)),
        ("work_unit", Json::Str(o.work_unit.to_owned())),
        ("work_units", Json::Num(o.work_units as f64)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("traced_reps", Json::Num(o.traced_reps as f64)),
        ("host_speed", Json::Num(o.host_speed)),
        ("correct", Json::Bool(o.correct())),
        (
            "problems",
            Json::Arr(o.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("end_to_end", metrics_json(&o.end_to_end)),
        ("per_layer", metrics_json(&o.per_layer)),
    ])
}

/// Writes the results document: the machine's thread count and one
/// entry per workload.
fn write_results(path: &str, workloads: BTreeMap<String, Json>) -> Result<(), String> {
    let doc = obj([
        (
            "available_threads",
            Json::Num(srlr_parallel::available_threads() as f64),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{path}: {e}"))
}
