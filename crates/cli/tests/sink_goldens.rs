//! The telemetry file sinks are pinned byte for byte: `srlr waveforms`,
//! a 2x2 `srlr noc` run and a broken-variant `srlr verify-noc` must
//! write the `golden/` files exactly, and the 2x2 `srlr verify-noc`
//! proof its committed snapshot `VERIFY_noc_2x2.json`. Each command's
//! observation hooks are plumbed through the library's `&mut Obs`
//! entry points, so a change to that plumbing that drops, reorders or
//! re-stamps a record shows up here as a diff.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch file that cleans up after itself. Each one gets its own
/// number, so tests that run the same command in parallel never share
/// (or delete) each other's files.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        let pid = std::process::id();
        p.push(format!("srlr-sink-golden-{pid}-{n}-{name}"));
        Self(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is utf-8")
    }

    fn read(&self) -> String {
        let bytes = std::fs::read(&self.0).expect("telemetry file written");
        String::from_utf8(bytes).expect("utf-8 telemetry file")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs the binary with `args` plus one `--<sink> <file>` pair per
/// sink, checks the exit code, and returns each sink's contents.
fn sinks(args: &[&str], sinks: &[&str], exit: i32) -> Vec<String> {
    let files: Vec<Scratch> = sinks
        .iter()
        .map(|sink| Scratch::new(&format!("{}-{sink}", args[0])))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_srlr"));
    cmd.args(args);
    for (sink, file) in sinks.iter().zip(&files) {
        cmd.arg(format!("--{sink}")).arg(file.path());
    }
    let out = cmd.output().expect("spawn srlr binary");
    assert_eq!(
        out.status.code(),
        Some(exit),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    files.iter().map(Scratch::read).collect()
}

#[test]
fn waveforms_metrics_match_their_golden() {
    let got = sinks(&["waveforms"], &["metrics-out"], 0);
    assert_eq!(got[0], include_str!("golden/waveforms.metrics.json"));
}

#[test]
fn noc_sinks_match_their_goldens() {
    let got = sinks(
        &["noc", "--cols", "2", "--rows", "2", "--cycles", "100"],
        &["trace-out", "events-out", "metrics-out"],
        0,
    );
    assert_eq!(got[0], include_str!("golden/noc-2x2.trace.json"));
    assert_eq!(got[1], include_str!("golden/noc-2x2.events.jsonl"));
    assert_eq!(got[2], include_str!("golden/noc-2x2.metrics.json"));
}

#[test]
fn verify_noc_counterexample_sinks_match_their_goldens() {
    // The broken scheduler fails the check (exit 1) but still writes
    // its counterexamples and run report.
    let got = sinks(
        &["verify-noc", "--retries", "1", "--variant", "no-watermark"],
        &["events-out", "metrics-out"],
        1,
    );
    assert_eq!(
        got[0],
        include_str!("golden/verify-noc-no-watermark.events.jsonl")
    );
    assert_eq!(
        got[1],
        include_str!("golden/verify-noc-no-watermark.metrics.json")
    );
}

#[test]
fn verify_noc_2x2_report_matches_its_committed_snapshot() {
    // The repo-root snapshot CI also gates with `bench-diff` (the
    // default 2x2 mesh, 4-flit packets, BER 1e-3): states, transitions,
    // exact and closed-form delivery probability and the three
    // verdicts at each retry budget.
    let got = sinks(&["verify-noc", "--retries", "0,1,3"], &["metrics-out"], 0);
    assert_eq!(got[0], include_str!("../../../VERIFY_noc_2x2.json"));
}
