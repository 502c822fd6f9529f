//! Seeded-violation fixtures for the semantic rule families.
//!
//! Each test builds a miniature workspace under `CARGO_TARGET_TMPDIR`
//! (inside the repository — the suite never writes outside it), plants
//! exactly one violation, and proves the rule fires, is suppressible
//! with a reasoned `// srlr-lint: allow(...)`, and rejects reason-less
//! suppressions.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use std::path::{Path, PathBuf};

use srlr_lint::rules::RuleId;
use srlr_lint::{run, write_api_locks, Config, Report};

#[path = "support/lint_table.rs"]
mod lint_table;

/// A scratch workspace under the cargo target dir, wiped per test.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("clear old fixture");
        }
        std::fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    /// Writes `content` at `rel` (creating parent dirs).
    fn write(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture file");
        self
    }

    fn run(&self) -> Report {
        run(&Config::new(&self.root)).expect("lint run succeeds")
    }

    /// Rules of the violations, with their paths.
    fn violations(&self) -> Vec<(RuleId, String)> {
        self.run()
            .violations
            .iter()
            .map(|d| (d.rule, d.path.clone()))
            .collect()
    }
}

// -----------------------------------------------------------------
// raw-f64-api
// -----------------------------------------------------------------

#[test]
fn raw_f64_api_fires_and_is_suppressible() {
    let fx = Fixture::new("raw_f64_fires");
    fx.write(
        "crates/tech/src/lib.rs",
        "/// Swing in millivolts.\npub fn swing_mv(&self) -> f64 { 0.0 }\n",
    );
    assert_eq!(
        fx.violations(),
        [(RuleId::RawF64Api, "crates/tech/src/lib.rs".to_string())]
    );

    // A reasoned allow on the line above waves it through.
    fx.write(
        "crates/tech/src/lib.rs",
        "/// Swing in millivolts.\n\
         // srlr-lint: allow(raw-f64-api, reason = \"millivolt count for display\")\n\
         pub fn swing_mv(&self) -> f64 { 0.0 }\n",
    );
    assert!(fx.violations().is_empty(), "reasoned allow must suppress");

    // A reason-less allow is itself a violation and suppresses nothing.
    fx.write(
        "crates/tech/src/lib.rs",
        "/// Swing in millivolts.\n\
         // srlr-lint: allow(raw-f64-api)\n\
         pub fn swing_mv(&self) -> f64 { 0.0 }\n",
    );
    let rules: Vec<RuleId> = fx.violations().into_iter().map(|(r, _)| r).collect();
    assert!(rules.contains(&RuleId::BadSuppression), "{rules:?}");
    assert!(rules.contains(&RuleId::RawF64Api), "{rules:?}");
}

#[test]
fn raw_f64_api_ignores_undimensioned_crates_and_private_items() {
    let fx = Fixture::new("raw_f64_scope");
    fx.write(
        "crates/units/src/lib.rs",
        "/// Raw value.\npub fn value(&self) -> f64 { 0.0 }\n",
    );
    fx.write(
        "crates/tech/src/lib.rs",
        "fn private(x: f64) -> f64 { x }\n",
    );
    assert!(fx.violations().is_empty());
}

// -----------------------------------------------------------------
// crate-layering
// -----------------------------------------------------------------

#[test]
fn crate_layering_fires_on_upward_use_and_is_suppressible() {
    let fx = Fixture::new("layering_use");
    fx.write("crates/tech/src/lib.rs", "use srlr_noc::Network;\n");
    assert_eq!(
        fx.violations(),
        [(RuleId::CrateLayering, "crates/tech/src/lib.rs".to_string())]
    );

    fx.write(
        "crates/tech/src/lib.rs",
        "// srlr-lint: allow(crate-layering, reason = \"transitional import, tracked in #42\")\n\
         use srlr_noc::Network;\n",
    );
    assert!(fx.violations().is_empty(), "reasoned allow must suppress");

    fx.write(
        "crates/tech/src/lib.rs",
        "// srlr-lint: allow(crate-layering)\nuse srlr_noc::Network;\n",
    );
    let rules: Vec<RuleId> = fx.violations().into_iter().map(|(r, _)| r).collect();
    assert!(rules.contains(&RuleId::BadSuppression), "{rules:?}");
    assert!(rules.contains(&RuleId::CrateLayering), "{rules:?}");
}

#[test]
fn crate_layering_fires_on_manifest_dependency() {
    let fx = Fixture::new("layering_manifest");
    fx.write(
        "crates/circuit/src/lib.rs",
        "/// Simulator.\npub struct Sim;\n",
    );
    fx.write(
        "crates/circuit/Cargo.toml",
        "[package]\nname = \"srlr-circuit\"\n\n[dependencies]\nsrlr-link.workspace = true\n\n\
         [dev-dependencies]\nsrlr-noc.workspace = true\n",
    );
    // The [dependencies] entry fires; the [dev-dependencies] one is exempt.
    assert_eq!(
        fx.violations(),
        [(
            RuleId::CrateLayering,
            "crates/circuit/Cargo.toml".to_string()
        )]
    );
}

#[test]
fn crate_layering_allows_leaves_and_downward_deps() {
    let fx = Fixture::new("layering_ok");
    fx.write(
        "crates/noc/src/lib.rs",
        "use srlr_link::SrlrLink;\nuse srlr_units::Voltage;\nuse srlr_rng::Pcg;\n",
    );
    fx.write(
        "crates/noc/Cargo.toml",
        "[package]\nname = \"srlr-noc\"\n\n[dependencies]\nsrlr-link.workspace = true\n\
         srlr-telemetry.workspace = true\n",
    );
    assert!(fx.violations().is_empty());
}

// -----------------------------------------------------------------
// api-lock
// -----------------------------------------------------------------

#[test]
fn api_lock_full_cycle() {
    let fx = Fixture::new("api_lock_cycle");
    let base = "/// A device.\npub struct Device;\n\
                impl Device {\n    /// Its name.\n    pub fn name(&self) -> &str { \"d\" }\n}\n";
    fx.write("crates/tech/src/lib.rs", base);
    // No lock file yet: the crate is not locked.
    assert!(fx.violations().is_empty(), "unlocked crate must pass");

    // Snapshot the surface; the tree is now clean against its lock.
    let written = write_api_locks(&Config::new(&fx.root)).expect("write locks");
    assert_eq!(written.len(), 1);
    assert!(fx.root.join("crates/tech/api-lock.txt").exists());
    assert!(fx.violations().is_empty(), "fresh lock must match");

    // An unreviewed addition fires at the item's source line…
    fx.write(
        "crates/tech/src/lib.rs",
        &format!("{base}/// Unreviewed.\npub fn surprise() {{}}\n"),
    );
    assert_eq!(
        fx.violations(),
        [(RuleId::ApiLock, "crates/tech/src/lib.rs".to_string())]
    );

    // …and is suppressible with a reason while review is pending.
    fx.write(
        "crates/tech/src/lib.rs",
        &format!(
            "{base}/// Unreviewed.\n\
             // srlr-lint: allow(api-lock, reason = \"new helper, lock refresh in this PR\")\n\
             pub fn surprise() {{}}\n"
        ),
    );
    assert!(fx.violations().is_empty());

    // An unreviewed removal fires at the lock-file entry.
    fx.write(
        "crates/tech/src/lib.rs",
        "/// A device.\npub struct Device;\n",
    );
    let v = fx.violations();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].0, RuleId::ApiLock);
    assert_eq!(v[0].1, "crates/tech/api-lock.txt");

    // Accepting the change with --write-api-lock clears it.
    write_api_locks(&Config::new(&fx.root)).expect("rewrite locks");
    assert!(fx.violations().is_empty());
}

#[test]
fn api_lock_ignores_binaries() {
    let fx = Fixture::new("api_lock_bins");
    fx.write("crates/cli/src/lib.rs", "pub fn run() {}\n");
    fx.write("crates/cli/src/main.rs", "fn main() {}\n");
    write_api_locks(&Config::new(&fx.root)).expect("write locks");
    let lock = std::fs::read_to_string(fx.root.join("crates/cli/api-lock.txt")).expect("read lock");
    assert!(lock.contains("fn run()"), "{lock}");
    assert!(!lock.contains("main"), "binaries are not API: {lock}");
}

// -----------------------------------------------------------------
// path portability / ordering
// -----------------------------------------------------------------

#[test]
fn diagnostics_use_forward_slashes_and_stable_order() {
    let fx = Fixture::new("path_portability");
    fx.write(
        "crates/tech/src/b.rs",
        "/// Late.\npub fn late(&self) -> f64 { 0.0 }\n",
    );
    fx.write(
        "crates/tech/src/a.rs",
        "use srlr_noc::Network;\n/// Early.\npub fn early(&self) -> f64 { 0.0 }\n",
    );
    let report = fx.run();
    let keys: Vec<(String, u32, String)> = report
        .violations
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule.name().to_string()))
        .collect();
    for (path, _, _) in &keys {
        assert!(!path.contains('\\'), "rule keys must be portable: {path}");
        assert!(path.starts_with("crates/tech/src/"), "{path}");
    }
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics must sort by (path, line, rule)");
    assert_eq!(keys.len(), 3, "{keys:?}");
    assert_eq!(keys[0].0, "crates/tech/src/a.rs");
    assert_eq!(keys[2].0, "crates/tech/src/b.rs");
}

// -----------------------------------------------------------------
// alloc-in-hot-path
// -----------------------------------------------------------------

#[test]
fn alloc_in_hot_path_fires_and_is_suppressible() {
    let fx = Fixture::new("alloc_hot_fires");
    fx.write(
        "lint-hotpaths.txt",
        "bit_slot srlr-core::DieBatch::advance_slot\n",
    );
    fx.write(
        "crates/core/src/batch.rs",
        "impl DieBatch {\n    /// Advance one slot.\n    pub fn advance_slot(&mut self) {\n\
         \x20       self.scratch.push(1);\n    }\n}\n",
    );
    assert_eq!(
        fx.violations(),
        [(
            RuleId::AllocInHotPath,
            "crates/core/src/batch.rs".to_string()
        )]
    );

    fx.write(
        "crates/core/src/batch.rs",
        "impl DieBatch {\n    /// Advance one slot.\n    pub fn advance_slot(&mut self) {\n\
         \x20       // srlr-lint: allow(alloc-in-hot-path, reason = \"amortised: pushes only on the rare resize trial\")\n\
         \x20       self.scratch.push(1);\n    }\n}\n",
    );
    assert!(fx.violations().is_empty(), "reasoned allow must suppress");

    fx.write(
        "crates/core/src/batch.rs",
        "impl DieBatch {\n    /// Advance one slot.\n    pub fn advance_slot(&mut self) {\n\
         \x20       // srlr-lint: allow(alloc-in-hot-path)\n\
         \x20       self.scratch.push(1);\n    }\n}\n",
    );
    let rules: Vec<RuleId> = fx.violations().into_iter().map(|(r, _)| r).collect();
    assert!(rules.contains(&RuleId::BadSuppression), "{rules:?}");
    assert!(rules.contains(&RuleId::AllocInHotPath), "{rules:?}");
}

#[test]
fn alloc_in_hot_path_follows_cross_crate_calls() {
    let fx = Fixture::new("alloc_hot_transitive");
    fx.write(
        "lint-hotpaths.txt",
        "kernel srlr-link::Lockstep::check_shared\n",
    );
    fx.write(
        "crates/link/src/lockstep.rs",
        "impl Lockstep {\n    /// Compare one slot.\n    pub fn check_shared(&self) -> u64 {\n\
         \x20       helper(1)\n    }\n}\n",
    );
    // The allocation is two edges down, in a crate the link layer may use.
    fx.write(
        "crates/core/src/kernel.rs",
        "/// Scratch helper.\npub fn helper(x: u64) -> u64 {\n    let v = vec![x];\n    v[0]\n}\n",
    );
    let v = fx.violations();
    let hot: Vec<&(RuleId, String)> = v
        .iter()
        .filter(|(r, _)| *r == RuleId::AllocInHotPath)
        .collect();
    assert_eq!(hot.len(), 1, "{v:?}");
    assert_eq!(hot[0].1, "crates/core/src/kernel.rs");
}

#[test]
fn alloc_in_hot_path_flags_bad_root_declarations() {
    let fx = Fixture::new("alloc_hot_bad_roots");
    fx.write(
        "lint-hotpaths.txt",
        "# comment lines are fine\nbit_slot srlr-core::Nope::nothing\njust-one-field\n",
    );
    fx.write("crates/core/src/lib.rs", "/// Quiet.\npub fn quiet() {}\n");
    let v = fx.violations();
    assert_eq!(v.len(), 2, "{v:?}");
    for (rule, path) in &v {
        assert_eq!(*rule, RuleId::AllocInHotPath);
        assert_eq!(path, "lint-hotpaths.txt");
    }
}

#[test]
fn alloc_in_hot_path_is_inert_without_a_hotpaths_file() {
    let fx = Fixture::new("alloc_hot_inert");
    fx.write(
        "crates/core/src/batch.rs",
        "impl DieBatch {\n    /// Advance one slot.\n    pub fn advance_slot(&mut self) {\n\
         \x20       self.scratch.push(1);\n    }\n}\n",
    );
    assert!(
        fx.violations().is_empty(),
        "no declared roots, no hot paths"
    );
}

// -----------------------------------------------------------------
// unordered-float-reduce
// -----------------------------------------------------------------

#[test]
fn unordered_float_reduce_fires_and_is_suppressible() {
    let fx = Fixture::new("float_reduce_fires");
    fx.write(
        "crates/noc/src/stats.rs",
        "/// Mean latency.\npub fn mean(v: &[f64]) -> f64 {\n\
         \x20   v.par_iter().map(|x| x * 2.0).sum::<f64>()\n}\n",
    );
    assert_eq!(
        fx.violations(),
        [(
            RuleId::UnorderedFloatReduce,
            "crates/noc/src/stats.rs".to_string()
        )]
    );

    fx.write(
        "crates/noc/src/stats.rs",
        "/// Mean latency.\npub fn mean(v: &[f64]) -> f64 {\n\
         \x20   // srlr-lint: allow(unordered-float-reduce, reason = \"diagnostic-only estimate, never in a byte-identity sink\")\n\
         \x20   v.par_iter().map(|x| x * 2.0).sum::<f64>()\n}\n",
    );
    assert!(fx.violations().is_empty(), "reasoned allow must suppress");

    fx.write(
        "crates/noc/src/stats.rs",
        "/// Mean latency.\npub fn mean(v: &[f64]) -> f64 {\n\
         \x20   // srlr-lint: allow(unordered-float-reduce)\n\
         \x20   v.par_iter().map(|x| x * 2.0).sum::<f64>()\n}\n",
    );
    let rules: Vec<RuleId> = fx.violations().into_iter().map(|(r, _)| r).collect();
    assert!(rules.contains(&RuleId::BadSuppression), "{rules:?}");
    assert!(rules.contains(&RuleId::UnorderedFloatReduce), "{rules:?}");
}

#[test]
fn unordered_float_reduce_ignores_ordered_chains() {
    let fx = Fixture::new("float_reduce_ordered");
    fx.write(
        "crates/noc/src/stats.rs",
        "/// Mean latency.\npub fn mean(v: &[f64]) -> f64 {\n\
         \x20   v.iter().map(|x| x * 2.0).sum::<f64>()\n}\n",
    );
    assert!(
        fx.violations().is_empty(),
        "index-ordered iteration is fine"
    );
}

// -----------------------------------------------------------------
// rng-stream-discipline
// -----------------------------------------------------------------

#[test]
fn rng_stream_discipline_fires_and_is_suppressible() {
    let fx = Fixture::new("rng_discipline_fires");
    fx.write(
        "crates/noc/src/lib.rs",
        "/// Ad-hoc seed.\npub fn bad_seed(seed: u64, i: u64) -> u64 {\n\
         \x20   srlr_rng::stream_seed(seed ^ 1, i)\n}\n",
    );
    assert_eq!(
        fx.violations(),
        [(
            RuleId::RngStreamDiscipline,
            "crates/noc/src/lib.rs".to_string()
        )]
    );

    fx.write(
        "crates/noc/src/lib.rs",
        "/// Ad-hoc seed.\npub fn bad_seed(seed: u64, i: u64) -> u64 {\n\
         \x20   // srlr-lint: allow(rng-stream-discipline, reason = \"migration shim, registered entry lands with the traffic rework\")\n\
         \x20   srlr_rng::stream_seed(seed ^ 1, i)\n}\n",
    );
    assert!(fx.violations().is_empty(), "reasoned allow must suppress");

    fx.write(
        "crates/noc/src/lib.rs",
        "/// Ad-hoc seed.\npub fn bad_seed(seed: u64, i: u64) -> u64 {\n\
         \x20   // srlr-lint: allow(rng-stream-discipline)\n\
         \x20   srlr_rng::stream_seed(seed ^ 1, i)\n}\n",
    );
    let rules: Vec<RuleId> = fx.violations().into_iter().map(|(r, _)| r).collect();
    assert!(rules.contains(&RuleId::BadSuppression), "{rules:?}");
    assert!(rules.contains(&RuleId::RngStreamDiscipline), "{rules:?}");
}

#[test]
fn rng_stream_discipline_exempts_the_rng_crate_and_registered_samplers() {
    let fx = Fixture::new("rng_discipline_scope");
    fx.write(
        "crates/rng/src/lib.rs",
        "/// Derive a stream seed.\npub fn stream_seed(seed: u64, i: u64) -> u64 {\n\
         \x20   splitmix64(seed ^ i)\n}\n",
    );
    fx.write(
        "crates/noc/src/fault.rs",
        "impl FaultModel {\n    /// Registered sampler entry.\n    pub fn new(seed: u64) -> Self {\n\
         \x20       Self { rng: Xoshiro256pp::for_stream(seed, 0) }\n    }\n}\n",
    );
    assert!(fx.violations().is_empty());
}

// Lossy casts are `clippy::cast_possible_truncation` in the root lint
// table; these check it on the shared fixture workspace.

#[test]
fn lossy_cast_fires_and_is_suppressible() {
    lint_table::assert_rejected("truncating_cast", "clippy::cast_possible_truncation");
    // A reasoned `#[expect]` suppresses it; a reasonless `#[allow]` fails.
    lint_table::assert_accepted("seeded/src/justified_cast.rs");
    lint_table::assert_rejected(
        "allow_without_reason",
        "clippy::allow_attributes_without_reason",
    );
}

#[test]
fn lossy_cast_exempts_binaries_and_word_sized_targets() {
    // A binary narrows under a reasoned `#[expect]`, as `main.rs` does.
    lint_table::assert_accepted(lint_table::MAIN_FILE);
    lint_table::assert_accepted("seeded/src/widening_casts.rs");
}
