//! Shell-level contract of the `srlr` binary: usage errors (unknown
//! commands, malformed flags) exit with code 2, never a panic, so
//! scripts can distinguish "you called me wrong" from "the experiment
//! failed".

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_srlr"))
        .args(args)
        .output()
        .expect("spawn srlr binary")
}

#[test]
fn unknown_command_exits_2() {
    // `lint` included: workspace static analysis has one front door,
    // the `srlr-lint` binary.
    for command in ["frobnicate", "lint"] {
        let out = run(&[command, "--deny-all"]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage error"), "stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown command `{command}`")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn malformed_bers_list_exits_2_without_panic() {
    let out = run(&["noc-faults", "--bers", "0,soup,1e-3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bers"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn malformed_swings_list_exits_2_without_panic() {
    let out = run(&["noc-faults", "--swings", "80;90"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--swings"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn malformed_threads_exits_2_without_panic() {
    let out = run(&["shmoo", "--threads", "-3"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn conflicting_flags_exit_2() {
    let out = run(&["noc-faults", "--bers", "1e-5", "--swings", "80"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_succeeds() {
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("noc-faults"), "stdout: {stdout}");
}

#[test]
fn help_text_matches_its_golden() {
    // Byte-for-byte, so a continuation line that loses its indentation
    // (a trailing `\` in a string literal strips the next line's
    // leading spaces) shows up as a diff.
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 help");
    assert_eq!(stdout, include_str!("golden/help.txt"));
}

#[test]
fn non_finite_and_too_short_inputs_exit_2_without_panic() {
    for (args, flag) in [
        (&["bathtub", "--jitter", "nan"][..], "--jitter"),
        (&["ber", "--gbps", "nan"][..], "--gbps"),
        (&["ber", "--gbps", "inf"][..], "--gbps"),
        (&["eye", "--bits", "14"][..], "--bits"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
