//! Shell-level contract of `srlr verify-noc`: the model-check gate
//! exits 0 when all proofs hold and 1 with counterexample traces when
//! they do not, and the SARIF export is a valid document that carries
//! the broken-variant counterexamples (the ISSUE 8 seeded fixture).

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_srlr"))
        .args(args)
        .output()
        .expect("spawn srlr binary")
}

#[test]
fn correct_variant_proves_the_issue_budgets_and_exits_0() {
    let out = run(&["verify-noc", "--retries", "0,1,3"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all proofs hold"), "stdout: {stdout}");
    assert!(stdout.contains("12 ordered routes"), "stdout: {stdout}");
    // One row per requested budget.
    for budget in ["0", "1", "3"] {
        assert!(stdout.lines().any(|l| l.trim_start().starts_with(budget)));
    }
}

#[test]
fn broken_variant_exits_1_with_a_counterexample_trace() {
    let out = run(&["verify-noc", "--variant", "no-watermark", "--retries", "3"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("counterexample"), "stderr: {stderr}");
    assert!(
        stderr.contains("no-overtaking violated"),
        "stderr: {stderr}"
    );
    // The trace shows the offending crossing: an arrival at or below
    // the link watermark.
    assert!(stderr.contains("watermark"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn sarif_export_always_exits_0_and_carries_the_violations() {
    let out = run(&[
        "verify-noc",
        "--variant",
        "no-watermark",
        "--retries",
        "3",
        "--format",
        "sarif",
    ]);
    assert_eq!(out.status.code(), Some(0), "sarif export must not gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\":\"2.1.0\""), "stdout: {stdout}");
    assert!(stdout.contains("\"name\":\"srlr-model\""));
    assert!(stdout.contains("\"ruleId\":\"no-overtaking\""));
    assert!(stdout.contains("model://2x2/budget-3/route/"));
    // The message embeds the replayable trace.
    assert!(stdout.contains("attempts"));
}

#[test]
fn clean_sarif_export_declares_all_rules_with_no_results() {
    let out = run(&["verify-noc", "--retries", "1", "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"results\":[]"), "stdout: {stdout}");
    for rule in ["no-overtaking", "deadlock", "termination"] {
        assert!(stdout.contains(rule), "missing rule {rule}");
    }
}

#[test]
fn metrics_out_reports_the_exact_probability_and_closed_form() {
    use srlr_telemetry::json::{parse, Json};
    let dir = std::env::temp_dir().join(format!("srlr-verify-noc-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("report.json");
    let out = run(&[
        "verify-noc",
        "--retries",
        "0,1",
        "--metrics-out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("run report written");
    std::fs::remove_dir_all(&dir).ok();
    let doc = parse(&text).expect("valid JSON");
    let sections = doc.get("sections").expect("sections object");
    assert!(
        matches!(sections, Json::Obj(m) if m.len() == 2),
        "one section per budget: {text}"
    );
    for (section, budget) in [("budget.000", 0.0), ("budget.001", 1.0)] {
        let field = |k: &str| sections.get(section).and_then(|s| s.get(k));
        assert_eq!(field("max_retries").and_then(Json::as_num), Some(budget));
        let exact = field("deliver_probability")
            .and_then(Json::as_num)
            .expect("probability");
        let closed = field("closed_form")
            .and_then(Json::as_num)
            .expect("closed form");
        assert!((exact - closed).abs() < 1e-12);
        assert_eq!(field("deadlock_free"), Some(&Json::Bool(true)));
    }
}

#[test]
fn counterexamples_stream_through_telemetry_events() {
    let dir = std::env::temp_dir().join("srlr-verify-noc-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let events = dir.join("events.jsonl");
    let out = run(&[
        "verify-noc",
        "--variant",
        "no-watermark",
        "--retries",
        "2",
        "--events-out",
        events.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stream = std::fs::read_to_string(&events).expect("events file written");
    assert!(stream.contains("model.violation"), "stream: {stream}");
    assert!(stream.contains("model.crossing"));
    assert!(stream.contains("busy_before"));
    std::fs::remove_file(&events).ok();
}

#[test]
fn bad_flags_exit_2() {
    for args in [
        &["verify-noc", "--retries", "0,soup"][..],
        &["verify-noc", "--variant", "chaotic"][..],
        &["verify-noc", "--format", "xml"][..],
        &["verify-noc", "--format", "json"][..],
        &["verify-noc", "--packet-len", "99"][..],
        &["verify-noc", "--ber", "1.5"][..],
        &["verify-noc", "--cols", "9"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
}
