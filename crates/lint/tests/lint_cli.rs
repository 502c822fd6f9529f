//! Binary-level tests for `srlr-lint` as the workspace's one lint front
//! door, run the way CI runs it: text on this tree, SARIF on a clean and
//! on a dirty tree, and the usage errors a mistyped CI step would hit.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::path::Path;
use std::process::{Command, Output};

use srlr_telemetry::json::{parse, Json};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn srlr_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srlr-lint"))
        .args(args)
        .output()
        .expect("spawn srlr-lint")
}

/// A one-file workspace whose `srlr-tech` imports `srlr-noc`: one
/// `crate-layering` violation.
fn dirty_fixture(name: &str) -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src_dir = root.join("crates/tech/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture");
    std::fs::write(src_dir.join("lib.rs"), "use srlr_noc::Network;\n").expect("write fixture");
    root
}

#[test]
fn lint_is_clean_on_this_workspace() {
    let root = workspace_root();
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn lint_format_sarif_emits_valid_sarif() {
    let root = workspace_root();
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8"), "--format", "sarif"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = parse(&stdout).expect("stdout must be one valid JSON document");
    let Json::Obj(top) = &doc else {
        panic!("SARIF root must be an object")
    };
    assert_eq!(top.get("version"), Some(&Json::Str("2.1.0".into())));
    assert!(top.contains_key("runs"));
}

#[test]
fn lint_unknown_flag_is_a_usage_error() {
    let out = srlr_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("frobnicate"), "{stderr}");
    // Scripts that still pass a removed flag fail loudly.
    for flag in [
        "--deny-all",
        "--baseline",
        "--write-baseline",
        "--warn-indexing",
    ] {
        assert_eq!(srlr_lint(&[flag]).status.code(), Some(2), "{flag}");
    }
}

#[test]
fn lint_bad_format_is_a_usage_error() {
    let out = srlr_lint(&["--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn lint_violations_exit_one() {
    let root = dirty_fixture("lint_cli_dirty");
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8")]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crate-layering"), "{stdout}");
}

#[test]
fn lint_format_sarif_exits_zero_even_with_findings() {
    // The document carries the findings, so CI must receive it (exit 0)
    // even when they gate.
    let root = dirty_fixture("lint_cli_sarif_dirty");
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8"), "--format", "sarif"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = parse(&stdout).expect("stdout must be one valid JSON document");
    let Json::Obj(top) = &doc else {
        panic!("SARIF root must be an object")
    };
    let Some(Json::Arr(runs)) = top.get("runs") else {
        panic!("runs array present")
    };
    let Json::Obj(run) = &runs[0] else { panic!() };
    let Some(Json::Arr(results)) = run.get("results") else {
        panic!("results array present")
    };
    assert!(
        !results.is_empty(),
        "the finding must appear in the document: {stdout}"
    );

    // The same workspace under the text format still gates (exit 1).
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
}
