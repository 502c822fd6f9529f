//! Self-enforcement: the workspace must stay lint-clean under both
//! layers of checks.
//!
//! These tests make the lints a tier-1 invariant instead of an optional
//! tool. `cargo test` fails if anyone breaks a workspace rule of
//! `srlr-lint` (a float `==`, a layering violation, API drift, …) or a
//! per-token rule of the root `[workspace.lints]` table, which rustc and
//! clippy enforce: a panic path, a `HashMap`, a wall-clock read, a
//! print, a thread spawn, an undocumented public item, a truncating
//! cast, a reasonless `allow` or a stale `expect`. A fixture workspace
//! built against the committed table (`support/lint_table.rs`) proves
//! that each of those fails under its lint. The lint pass's own size
//! (files, call-graph nodes, hot roots) is pinned by the committed
//! `BENCH_lint.json`.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use srlr_lint::{run, Config};
use srlr_telemetry::{RunReport, Value};

#[path = "support/lint_table.rs"]
mod lint_table;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_lint_violations() {
    let report = run(&Config::new(workspace_root())).expect("lint run succeeds");
    assert!(
        report.files_checked > 30,
        "walk found the workspace sources"
    );
    let rendered: String = report.violations.iter().map(|d| d.render()).collect();
    assert!(report.is_clean(), "srlr-lint found violations:\n{rendered}");
}

/// The committed snapshot of the lint pass's size: files scanned,
/// fresh violations (zero), rules, call-graph nodes and declared hot
/// roots. A change that adds or removes workspace functions moves the
/// call-graph count; the assertion prints the fresh JSON to commit.
const LINT_SNAPSHOT: &str = "BENCH_lint.json";

#[test]
fn lint_counts_match_the_committed_snapshot() {
    let root = workspace_root();
    let report = run(&Config::new(&root)).expect("lint run succeeds");
    let hot = srlr_lint::semantic::load_hotpaths(&root).expect("committed lint-hotpaths.txt");
    let count = |n: usize| Value::U64(n as u64);
    let mut counts = RunReport::new("lint");
    counts.section_metric("scan", "files_checked", count(report.files_checked));
    counts.section_metric("scan", "fresh_violations", count(report.violations.len()));
    counts.section_metric("scan", "rules", count(srlr_lint::rules::ALL_RULES.len()));
    counts.section_metric("callgraph", "nodes", count(report.callgraph_nodes));
    counts.section_metric("callgraph", "hot_roots", count(hot.roots.len()));
    let committed = std::fs::read_to_string(root.join(LINT_SNAPSHOT)).expect("committed snapshot");
    assert_eq!(
        counts.to_json(),
        committed,
        "{LINT_SNAPSHOT} is stale: commit the left-hand JSON"
    );
}

/// `cargo clippy` with its own target directory, so it never waits on
/// the lock of the build that runs this test.
fn clippy(manifest_dir: &Path, target: &str, extra: &[&str]) -> std::process::Output {
    let target_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(target);
    Command::new(env!("CARGO"))
        .current_dir(manifest_dir)
        .args(["clippy", "--all-targets", "--offline", "--target-dir"])
        .arg(target_dir)
        .args(extra)
        .output()
        .expect("spawn cargo clippy")
}

#[test]
fn workspace_is_clippy_clean() {
    let out = clippy(
        &workspace_root(),
        "workspace-clippy",
        &["--workspace", "--", "-D", "warnings"],
    );
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_table_rejects_every_seeded_violation() {
    let outcome = lint_table::outcome();
    assert!(outcome.failed, "the seeded fixture must fail");
    let expected: BTreeSet<(String, String)> = lint_table::SEEDED
        .iter()
        .map(|(module, lint, _)| (lint_table::module_file(module), (*lint).to_string()))
        .collect();
    assert_eq!(
        outcome.findings, expected,
        "each seeded case must fail under exactly its lint, and the look-alikes \
         and the binary under none\n{}",
        outcome.stderr
    );
}
