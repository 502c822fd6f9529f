//! `srlr ablation` (default 500 dice per design) and `srlr shmoo`
//! (default 512 bits per cell) are pinned byte for byte at one worker
//! thread and at two, like the Fig. 6 table (`fig6_golden.rs`). Both run
//! the per-die screen on designs that table does not: the ablation's
//! single delay cell and its inverter driver with adaptive bias, and
//! the shmoo's nominal die across 1–8 Gb/s and 250–600 mV. A screen or
//! elaboration change that claims bit-identical results is held to
//! these outputs too. `srlr bathtub` (default 2000 bits × 8 seeds at
//! 3 ps) pins the jittered batch kernel the same way.
//!
//! `srlr latency` (uniform, transpose and neighbour traffic on the 8×8
//! mesh up to 0.12 load, transpose deep in saturation) and `srlr
//! router` (the Sec. IV power split, SRLR vs full-swing datapaths and
//! bufferless vs VC routers) pin the cycle-level NoC the same way: a
//! router or network change that claims bit-identical simulation must
//! leave every latency, packet count and power figure in place.

#![allow(
    clippy::expect_used,
    reason = "the test helper fails loudly when the binary cannot run"
)]

use std::process::Command;

/// Runs `srlr args` with `SRLR_THREADS=threads` and returns its stdout.
fn srlr(args: &[&str], threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_srlr"))
        .args(args)
        .env("SRLR_THREADS", threads)
        .output()
        .expect("spawn srlr binary");
    assert!(
        out.status.success(),
        "srlr {args:?} failed at {threads} thread(s)"
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn ablation_matches_its_golden_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(
            srlr(&["ablation"], threads),
            include_str!("golden/ablation.txt"),
            "ablation at {threads} thread(s) differs from its golden"
        );
    }
}

#[test]
fn shmoo_matches_its_golden_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(
            srlr(&["shmoo", "--threads", threads], threads),
            include_str!("golden/shmoo.txt"),
            "shmoo --threads {threads} differs from its golden"
        );
    }
}

#[test]
fn bathtub_matches_its_golden_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(
            srlr(&["bathtub"], threads),
            include_str!("golden/bathtub.txt"),
            "bathtub at {threads} thread(s) differs from its golden"
        );
    }
}

#[test]
fn latency_matches_its_golden_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(
            srlr(&["latency"], threads),
            include_str!("golden/latency.txt"),
            "latency at {threads} thread(s) differs from its golden"
        );
    }
}

#[test]
fn router_matches_its_golden_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        assert_eq!(
            srlr(&["router"], threads),
            include_str!("golden/router.txt"),
            "router at {threads} thread(s) differs from its golden"
        );
    }
}
