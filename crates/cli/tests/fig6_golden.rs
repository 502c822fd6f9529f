//! The Fig. 6 table is pinned byte for byte: `srlr fig6 --runs 1000`
//! (the paper's 1000 dice per swing, default seed 2013) must print
//! `golden/fig6-runs1000.txt` at one worker thread and at two. Every
//! change to the Monte Carlo screen, the stage map or die elaboration
//! that claims bit-identical results is held to this table.

use std::process::Command;

#[test]
fn fig6_at_1000_runs_matches_its_golden_at_one_and_two_threads() {
    for threads in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_srlr"))
            .args(["fig6", "--runs", "1000", "--threads", threads])
            .output()
            .expect("spawn srlr binary");
        assert!(out.status.success(), "fig6 failed at {threads} thread(s)");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(
            stdout,
            include_str!("golden/fig6-runs1000.txt"),
            "fig6 --runs 1000 --threads {threads} differs from its golden"
        );
    }
}
