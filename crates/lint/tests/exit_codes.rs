//! Binary-level exit-code contract for `srlr-lint`: `0` clean, `1`
//! violations, `2` usage errors — and `--format sarif` always `0`, so
//! CI receives the findings document even when it gates.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::path::Path;
use std::process::{Command, Output};

fn srlr_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srlr-lint"))
        .args(args)
        .output()
        .expect("spawn srlr-lint")
}

fn dirty_fixture(name: &str) -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src_dir = root.join("crates/tech/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture");
    std::fs::write(src_dir.join("lib.rs"), "use srlr_noc::Network;\n").expect("write fixture");
    root
}

#[test]
fn text_format_gates_on_violations() {
    let root = dirty_fixture("lint_exit_text");
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crate-layering"), "{stdout}");
}

#[test]
fn sarif_format_exits_zero_even_with_findings() {
    let root = dirty_fixture("lint_exit_sarif");
    let out = srlr_lint(&["--root", root.to_str().expect("utf-8"), "--format", "sarif"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let doc = srlr_telemetry::json::parse(&stdout).expect("valid SARIF JSON");
    let srlr_telemetry::json::Json::Obj(top) = &doc else {
        panic!("SARIF root must be an object")
    };
    assert!(top.contains_key("runs"));
    assert!(
        stdout.contains("crate-layering"),
        "the finding must appear in the document: {stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let out = srlr_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = srlr_lint(&["--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
}
