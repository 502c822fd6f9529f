//! Monte Carlo throughput: dice evaluated per second through the full
//! Fig. 6 stress-test pipeline — the certificate-screened batched
//! engine, serial and threaded.
//!
//! This is the harness behind the perf numbers quoted in
//! `EXPERIMENTS.md`. Besides the ASCII table and the usual
//! `target/srlr-reports/mc_throughput.json` run report, it writes the
//! committed snapshot `BENCH_mc_throughput.json` at the repo root
//! (schema-versioned by `srlr-telemetry`'s run-report version); CI's
//! bench-smoke job regenerates and validates it with a reduced
//! `SRLR_MC_RUNS`.

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::{report, thread_ladder};
use srlr_core::SrlrDesign;
use srlr_link::montecarlo::McExperiment;
use srlr_tech::Technology;
use std::time::Instant;

/// Dice per throughput measurement. Override with SRLR_MC_RUNS.
fn runs() -> usize {
    std::env::var("SRLR_MC_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

/// One timed error-probability evaluation; returns dice per second.
fn dice_per_second(exp: &McExperiment<'_>, design: &SrlrDesign) -> f64 {
    let start = Instant::now();
    let p = exp.error_probability(design);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(p.trials, exp.runs());
    exp.runs() as f64 / elapsed
}

fn print_throughput() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let n = runs();
    let available = srlr_parallel::available_threads();

    report::section(&format!(
        "Monte Carlo throughput — {n} dice through the Fig. 6 stress test"
    ));
    println!(
        "machine: {available} available thread(s); SRLR_THREADS={}",
        std::env::var(srlr_parallel::THREADS_ENV).unwrap_or_else(|_| "unset".into()),
    );

    let mut run = srlr_telemetry::RunReport::new("mc_throughput");
    run.param("runs", srlr_telemetry::Value::U64(n as u64));
    run.param(
        "available_threads",
        srlr_telemetry::Value::U64(available as u64),
    );
    let base = McExperiment::paper_default(&tech).with_runs(n);
    run.param(
        "batch_width",
        srlr_telemetry::Value::U64(base.batch_width() as u64),
    );

    // The thread ladder, deduplicated — repeated rungs on small
    // machines used to overwrite each other's report metrics.
    for threads in thread_ladder(available) {
        let rate = dice_per_second(&base.clone().with_threads(Some(threads)), &design);
        println!("batched, {threads:>3} thread(s): {rate:>10.0} dice/s");
        run.section_metric(
            &format!("batched.threads.{threads:03}"),
            "dice_per_second",
            srlr_telemetry::Value::F64(rate),
        );
    }

    report::emit_run_report(&run);
    report::emit_bench_snapshot(&run);
}

fn bench(c: &mut Criterion) {
    print_throughput();
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let serial = McExperiment::paper_default(&tech)
        .with_runs(100)
        .with_threads(Some(1));
    let parallel = McExperiment::paper_default(&tech)
        .with_runs(100)
        .with_threads(None);
    c.bench_function("mc_100_dice_serial", |b| {
        b.iter(|| serial.error_probability(&design))
    });
    c.bench_function("mc_100_dice_auto_threads", |b| {
        b.iter(|| parallel.error_probability(&design))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
