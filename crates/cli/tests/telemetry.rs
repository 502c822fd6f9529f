//! End-to-end telemetry contract: the file sinks are bit-identical at
//! every `--threads` count, the trace is valid Chrome `trace_event`
//! JSON, and enabling telemetry never changes a command's stdout.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use srlr_telemetry::json::{parse, Json};
use std::fs;
use std::path::PathBuf;

/// A scratch file that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("srlr-cli-test-{}-{name}", std::process::id()));
        Self(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is utf-8")
    }

    fn read(&self) -> Vec<u8> {
        fs::read(&self.0).expect("telemetry file written")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    srlr_cli::run(&argv).expect("command succeeds")
}

/// Runs `noc-faults` with every sink at the given thread count and
/// returns (stdout, trace bytes, events bytes, metrics bytes).
fn faults_with_sinks(threads: &str, tag: &str) -> (String, Vec<u8>, Vec<u8>, Vec<u8>) {
    let trace = Scratch::new(&format!("{tag}-t{threads}.trace.json"));
    let events = Scratch::new(&format!("{tag}-t{threads}.events.jsonl"));
    let metrics = Scratch::new(&format!("{tag}-t{threads}.report.json"));
    let out = run(&[
        "noc-faults",
        "--cols",
        "4",
        "--rows",
        "4",
        "--cycles",
        "400",
        "--bers",
        "0,5e-4,2e-3",
        "--threads",
        threads,
        "--trace-out",
        trace.path(),
        "--events-out",
        events.path(),
        "--metrics-out",
        metrics.path(),
    ]);
    (out, trace.read(), events.read(), metrics.read())
}

#[test]
fn telemetry_files_are_bit_identical_across_thread_counts() {
    let (out1, trace1, events1, metrics1) = faults_with_sinks("1", "id");
    let (out2, trace2, events2, metrics2) = faults_with_sinks("2", "id");
    let (out8, trace8, events8, metrics8) = faults_with_sinks("8", "id");
    assert_eq!(out1, out2);
    assert_eq!(out1, out8);
    assert_eq!(trace1, trace2, "trace must not depend on --threads");
    assert_eq!(trace1, trace8, "trace must not depend on --threads");
    assert_eq!(events1, events2, "events must not depend on --threads");
    assert_eq!(events1, events8, "events must not depend on --threads");
    assert_eq!(metrics1, metrics2, "report must not depend on --threads");
    assert_eq!(metrics1, metrics8, "report must not depend on --threads");
}

#[test]
fn telemetry_does_not_change_stdout() {
    let plain = run(&[
        "noc-faults",
        "--cols",
        "4",
        "--rows",
        "4",
        "--cycles",
        "400",
        "--bers",
        "0,2e-3",
    ]);
    let trace = Scratch::new("stdout.trace.json");
    let traced = run(&[
        "noc-faults",
        "--cols",
        "4",
        "--rows",
        "4",
        "--cycles",
        "400",
        "--bers",
        "0,2e-3",
        "--trace-out",
        trace.path(),
    ]);
    assert_eq!(plain, traced, "telemetry must never perturb the output");
}

#[test]
fn trace_out_is_valid_chrome_trace_json() {
    let (_, trace, events, metrics) = faults_with_sinks("2", "valid");
    let doc = parse(&String::from_utf8(trace).expect("utf8")).expect("valid trace JSON");
    let trace_events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let points: Vec<&Json> = trace_events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("point"))
        .collect();
    assert_eq!(points.len(), 3, "one instant event per BER point");
    for (i, point) in points.iter().enumerate() {
        assert_eq!(point.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(point.get("ts").and_then(Json::as_num), Some(i as f64));
        let arg = |k: &str| point.get("args").and_then(|a| a.get(k));
        assert_eq!(arg("point").and_then(Json::as_num), Some(i as f64));
        assert!(arg("ber").and_then(Json::as_num).is_some());
    }
    assert!(trace_events
        .iter()
        .all(|e| e.get("ph").and_then(Json::as_str) != Some("X")));

    // Every JSONL line parses on its own.
    let text = String::from_utf8(events).expect("utf8");
    assert!(text.lines().count() > 3);
    for line in text.lines() {
        assert!(parse(line).is_ok(), "invalid JSONL line: {line}");
    }

    // The run report is versioned and carries the sweep sections.
    let report = parse(&String::from_utf8(metrics).expect("utf8")).expect("valid report");
    assert_eq!(
        report.get("srlr_run_report_version").and_then(Json::as_num),
        Some(1.0)
    );
    assert_eq!(
        report.get("name").and_then(Json::as_str),
        Some("noc-faults")
    );
    assert!(report
        .get("sections")
        .and_then(|s| s.get("point.002"))
        .and_then(|p| p.get("delivered_fraction"))
        .and_then(Json::as_num)
        .is_some());
    assert!(report
        .get("metrics")
        .and_then(|m| m.get("ber.point.001.latency.p50"))
        .is_some());
}

/// Runs `fig6 --runs 40` with the trace and event sinks at the given
/// thread count and returns (trace bytes, events bytes).
fn fig6_with_sinks(threads: &str) -> (Vec<u8>, Vec<u8>) {
    let trace = Scratch::new(&format!("fig6-t{threads}.trace.json"));
    let events = Scratch::new(&format!("fig6-t{threads}.events.jsonl"));
    let _ = run(&[
        "fig6",
        "--runs",
        "40",
        "--threads",
        threads,
        "--trace-out",
        trace.path(),
        "--events-out",
        events.path(),
    ]);
    (trace.read(), events.read())
}

#[test]
fn fig6_records_one_trial_event_per_die_at_any_thread_count() {
    let (trace1, events1) = fig6_with_sinks("1");
    let (trace2, events2) = fig6_with_sinks("2");
    assert_eq!(trace1, trace2, "trace must not depend on --threads");
    assert_eq!(events1, events2, "events must not depend on --threads");
    let trace = String::from_utf8(trace1).expect("utf8");
    let events = String::from_utf8(events1).expect("utf8");
    assert!(parse(&trace).is_ok(), "invalid trace JSON");
    assert!(!trace.contains("\"ph\":\"X\""), "no complete-span events");
    assert!(!events.contains("\"type\":\"span\""), "no span lines");
    // 40 dice x 5 swing points, in flattened-index order.
    let trials: Vec<Json> = events
        .lines()
        .map(|l| parse(l).expect("valid JSONL line"))
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("trial"))
        .collect();
    assert_eq!(trials.len(), 200);
    for (i, trial) in trials.iter().enumerate() {
        assert_eq!(trial.get("type").and_then(Json::as_str), Some("event"));
        assert_eq!(trial.get("ts").and_then(Json::as_num), Some(i as f64));
        let field = |k: &str| trial.get("fields").and_then(|f| f.get(k));
        assert_eq!(field("point").and_then(Json::as_num), Some((i / 40) as f64));
        assert_eq!(field("trial").and_then(Json::as_num), Some((i % 40) as f64));
        assert!(matches!(field("pass"), Some(Json::Bool(_))));
    }
}

#[test]
fn noc_trace_records_the_flit_lifecycle() {
    let events = Scratch::new("noc.events.jsonl");
    let metrics = Scratch::new("noc.report.json");
    let _ = run(&[
        "noc",
        "--cols",
        "4",
        "--rows",
        "4",
        "--load",
        "0.05",
        "--cycles",
        "400",
        "--events-out",
        events.path(),
        "--metrics-out",
        metrics.path(),
    ]);
    let text = String::from_utf8(events.read()).expect("utf8");
    assert!(text.contains("\"name\":\"flit.inject\""));
    assert!(text.contains("\"name\":\"flit.route\""));
    assert!(text.contains("\"name\":\"flit.eject\""));
    let report = parse(&String::from_utf8(metrics.read()).expect("utf8")).expect("valid report");
    let metric = |k: &str| report.get("metrics").and_then(|m| m.get(k)).cloned();
    assert!(metric("link.total_flits").is_some(), "per-link utilisation");
    assert!(metric("counter.flit.packets_ejected").is_some());
    assert!(metric("latency.p50").and_then(|j| j.as_num()).is_some());
}

#[test]
fn waveforms_report_carries_integrator_stats() {
    let metrics = Scratch::new("waveforms.report.json");
    let _ = run(&["waveforms", "--metrics-out", metrics.path()]);
    let report = parse(&String::from_utf8(metrics.read()).expect("utf8")).expect("valid report");
    let steps = report
        .get("metrics")
        .and_then(|m| m.get("transient.steps"))
        .and_then(Json::as_num)
        .expect("integrator step count");
    assert!(steps > 100.0, "a Fig. 4 run takes many steps, got {steps}");
}

#[test]
fn fig6_report_absorbs_mc_counters() {
    let metrics = Scratch::new("fig6.report.json");
    let _ = run(&["fig6", "--runs", "20", "--metrics-out", metrics.path()]);
    let report = parse(&String::from_utf8(metrics.read()).expect("utf8")).expect("valid report");
    let metric = |k: &str| {
        report
            .get("metrics")
            .and_then(|m| m.get(k))
            .and_then(Json::as_num)
    };
    // 20 dice x 5 swing points recorded by the observed sweep.
    assert_eq!(metric("counter.mc.trials"), Some(100.0));
    assert!(metric("immunity_ratio").is_some());
}
