//! End-to-end profiling contract: `--profile-out` writes a parsable
//! folded-stack profile without perturbing stdout, `srlr profile`
//! ranks it, and `srlr bench-diff` gates snapshots with the 0/1/2
//! exit-code contract the CI perf-regression job relies on.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A scratch file that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("srlr-prof-test-{}-{name}", std::process::id()));
        Self(p)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is utf-8")
    }

    fn write(&self, contents: &str) {
        fs::write(&self.0, contents).expect("fixture written");
    }

    fn read_text(&self) -> String {
        String::from_utf8(fs::read(&self.0).expect("profile file written")).expect("utf8")
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

fn run_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_srlr"))
        .args(args)
        .output()
        .expect("spawn srlr binary")
}

#[test]
fn fig6_profile_out_writes_a_folded_profile_and_does_not_perturb_stdout() {
    let profile = Scratch::new("fig6.folded");
    let plain = run(&["fig6", "--runs", "20"]);
    let profiled = run(&["fig6", "--runs", "20", "--profile-out", profile.path()]);
    assert_eq!(plain, profiled, "profiling must never change the answer");

    let text = profile.read_text();
    let lines = srlr_prof::parse_folded(&text).expect("valid folded profile");
    assert!(!lines.is_empty());
    let paths: Vec<&str> = lines.iter().map(|l| l.path.as_str()).collect();
    assert!(paths.contains(&"mc.sweep"), "root frame present: {paths:?}");
    for frame in ["mc.batch", "elaborate", "certify", "kernel"] {
        assert!(
            paths.iter().any(|p| p.split(';').any(|f| f == frame)),
            "frame `{frame}` missing from {paths:?}"
        );
    }
    // Folded lines are sorted, `path value` with a non-negative value.
    let mut sorted = paths.clone();
    sorted.sort_unstable();
    assert_eq!(paths, sorted, "folded output is sorted by path");
}

#[test]
fn every_instrumented_subcommand_accepts_profile_out() {
    for (name, args) in [
        ("waveforms", vec!["waveforms"]),
        (
            "noc",
            vec!["noc", "--cols", "4", "--rows", "4", "--cycles", "400"],
        ),
        (
            "noc-faults",
            vec![
                "noc-faults",
                "--cols",
                "4",
                "--rows",
                "4",
                "--cycles",
                "400",
                "--bers",
                "0,1e-3",
            ],
        ),
        ("verify-noc", vec!["verify-noc", "--retries", "1"]),
    ] {
        let profile = Scratch::new(&format!("{name}.folded"));
        let mut argv = args.clone();
        argv.push("--profile-out");
        argv.push(profile.path());
        let _ = run(&argv);
        let lines = srlr_prof::parse_folded(&profile.read_text())
            .unwrap_or_else(|e| panic!("`{name}` wrote an invalid profile: {e}"));
        assert!(!lines.is_empty(), "`{name}` wrote an empty profile");
    }
}

#[test]
fn profile_subcommand_ranks_the_hotspots() {
    let profile = Scratch::new("rank.folded");
    let _ = run(&[
        "noc-faults",
        "--cols",
        "4",
        "--rows",
        "4",
        "--cycles",
        "400",
        "--bers",
        "0,1e-3",
        "--profile-out",
        profile.path(),
    ]);
    let table = run(&["profile", "--in", profile.path(), "--top", "3"]);
    assert!(table.contains("FRAME"), "table header: {table}");
    assert!(table.contains("noc."), "frames listed: {table}");
    assert!(
        table.lines().count() <= 3 + 3,
        "--top bounds the table: {table}"
    );
}

#[test]
fn profile_subcommand_rejects_bad_input() {
    let err = srlr_cli::run(&["profile".to_owned()]).unwrap_err();
    assert!(matches!(err, srlr_cli::CliError::Usage(_)));
    let garbage = Scratch::new("garbage.folded");
    garbage.write("no trailing value field here\n");
    let err = srlr_cli::run(&[
        "profile".to_owned(),
        "--in".to_owned(),
        garbage.path().to_owned(),
    ])
    .unwrap_err();
    assert!(matches!(err, srlr_cli::CliError::Experiment(_)));
}

#[test]
fn bench_diff_exit_codes_follow_the_gate_contract() {
    let old = Scratch::new("old.json");
    let new = Scratch::new("new.json");
    old.write("{\"metrics\": {\"immunity_ratio\": 3.7, \"errors\": 0}}");

    // Identical snapshots pass: exit 0.
    let out = run_bin(&["bench-diff", "--old", old.path(), "--new", old.path()]);
    assert_eq!(out.status.code(), Some(0), "identical snapshots gate clean");
    assert!(String::from_utf8_lossy(&out.stdout).contains("within tolerance"));

    // A seeded regression outside the band fails: exit 1.
    new.write("{\"metrics\": {\"immunity_ratio\": 2.9, \"errors\": 0}}");
    let out = run_bin(&[
        "bench-diff",
        "--old",
        old.path(),
        "--new",
        new.path(),
        "--tolerance",
        "0.05",
    ]);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("REGRESSED"), "stderr: {stderr}");
    assert!(stderr.contains("immunity_ratio"), "stderr: {stderr}");

    // The same change inside a generous band passes: exit 0.
    let out = run_bin(&[
        "bench-diff",
        "--old",
        old.path(),
        "--new",
        new.path(),
        "--tolerance",
        "0.5",
    ]);
    assert_eq!(out.status.code(), Some(0), "banded drift passes");

    // ... as does exempting the key outright.
    let out = run_bin(&[
        "bench-diff",
        "--old",
        old.path(),
        "--new",
        new.path(),
        "--ignore",
        "immunity_ratio",
    ]);
    assert_eq!(out.status.code(), Some(0), "ignored keys never gate");

    // Usage errors exit 2; unreadable files are experiment errors (1).
    let out = run_bin(&["bench-diff", "--old", old.path()]);
    assert_eq!(out.status.code(), Some(2), "missing --new is a usage error");
    let out = run_bin(&[
        "bench-diff",
        "--old",
        old.path(),
        "--new",
        "/nonexistent.json",
    ]);
    assert_eq!(out.status.code(), Some(1), "unreadable input exits 1");
}

#[test]
fn bench_diff_gates_the_committed_snapshots_against_themselves() {
    // The CI job's sanity leg: every committed snapshot must diff clean
    // against itself (schema parses, nothing regresses).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in [
        "NOC_faults_8x8.json",
        "VERIFY_noc_2x2.json",
        "VERIFY_noc_3x3.json",
        "VERIFY_noc_4x4.json",
        "BENCH_lint.json",
    ] {
        let snap = root.join(name);
        let path = snap.to_str().expect("utf-8 path");
        if !snap.exists() {
            panic!("committed snapshot `{name}` is missing");
        }
        let out = run_bin(&["bench-diff", "--old", path, "--new", path]);
        assert_eq!(out.status.code(), Some(0), "`{name}` must self-diff clean");
    }
}

#[test]
fn committed_hotpath_roots_name_real_profiler_spans() {
    // `lint-hotpaths.txt` drives the lint's alloc-in-hot-path rule; its
    // span column must stay in sync with the spans the profiler
    // actually emits, or the declared roots silently stop describing
    // the measured hot path.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join(srlr_lint::semantic::HOTPATHS_FILE))
        .expect("committed lint-hotpaths.txt");
    let hot = srlr_lint::semantic::parse_hotpaths(&text);
    assert!(hot.malformed.is_empty(), "{:?}", hot.malformed);
    assert!(!hot.roots.is_empty(), "at least one declared hot root");

    // The Monte Carlo roots profile under `fig6`, the NoC roots under
    // `noc-faults`, the model checker's under `verify-noc`; a root's
    // span must appear in one of them.
    let mut paths: Vec<String> = Vec::new();
    for (name, args) in [
        ("fig6", &["fig6", "--runs", "20"][..]),
        (
            "noc-faults",
            &["noc-faults", "--bers", "0,1e-2", "--cycles", "200"][..],
        ),
        ("verify-noc", &["verify-noc", "--retries", "1"][..]),
    ] {
        let profile = Scratch::new(&format!("hotroots-{name}.folded"));
        let mut argv = args.to_vec();
        argv.extend(["--profile-out", profile.path()]);
        let _ = run(&argv);
        let lines = srlr_prof::parse_folded(&profile.read_text()).expect("valid folded profile");
        paths.extend(lines.into_iter().map(|l| l.path));
    }
    for root in &hot.roots {
        assert!(
            paths.iter().any(|p| p.split(';').any(|f| f == root.span)),
            "hot root span `{}` (line {}) is not a profiler frame in {paths:?}",
            root.span,
            root.line,
        );
    }
}
