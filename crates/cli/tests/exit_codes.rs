//! Shell-level contract of the `srlr` binary: usage errors (unknown
//! commands, malformed flags) exit with code 2, never a panic, so
//! scripts can distinguish "you called me wrong" from "the experiment
//! failed".

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
        // Every bathtub seed's PRBS-7 stimulus opens with zeros: two
        // bits send no pulse and once read "clean" at any jitter.
        (&["bathtub", "--bits", "2", "--jitter", "1e6"][..], "--bits"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn one_node_meshes_exit_2_instead_of_hanging() {
    // Uniform random traffic has no destination other than the source
    // on a one-node mesh; the generator once looked for one forever,
    // and the model checker once checked 0 routes and passed.
    let one_node = ["--cols", "1", "--rows", "1"];
    for args in [
        [&["noc"][..], &one_node, &["--cycles", "20"]].concat(),
        [&["noc-faults"][..], &one_node, &["--cycles", "20"]].concat(),
        [&["verify-noc"][..], &one_node].concat(),
    ] {
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("two nodes"), "{args:?}: {stderr}");
    }
}

#[test]
fn ber_rates_past_the_launch_pulse_exit_2() {
    // A bit period shorter than the modulator's 120 ps launch pulse is
    // outside the stage map's domain, where it once read error-free.
    for gbps in ["400", "1e300"] {
        let out = run(&["ber", "--gbps", gbps, "--bits", "2000"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--gbps {gbps}: {stderr}");
        assert!(stderr.contains("launch pulse"), "--gbps {gbps}: {stderr}");
        assert!(!stderr.contains("panicked"), "--gbps {gbps}: {stderr}");
    }
}

/// Asserts that `command`, which takes no flags, rejects an unknown flag
/// and a stray argument with exit 2 and prints nothing on stdout.
fn assert_flagless(command: &str) {
    for args in [&[command, "--bogus", "1"][..], &[command, "stray"]] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage error"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn table1_rejects_arguments() {
    assert_flagless("table1");
}

#[test]
fn fig8_rejects_arguments() {
    assert_flagless("fig8");
}

#[test]
fn pulse_width_rejects_arguments() {
    assert_flagless("pulse-width");
}

#[test]
fn router_rejects_arguments() {
    assert_flagless("router");
}

#[test]
fn latency_rejects_arguments() {
    assert_flagless("latency");
}

#[test]
fn sizing_rejects_arguments() {
    assert_flagless("sizing");
}

#[test]
fn supply_rejects_arguments() {
    assert_flagless("supply");
}

#[test]
fn temp_rejects_arguments() {
    assert_flagless("temp");
}

#[test]
fn crosstalk_rejects_arguments() {
    assert_flagless("crosstalk");
}
