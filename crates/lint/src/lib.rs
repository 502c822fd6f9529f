//! `srlr-lint`: dependency-free static analysis for the SRLR workspace.
//!
//! The reproduction's headline guarantees — bit-identical Monte Carlo
//! results at any thread count, and sweep runs that degrade instead of
//! aborting — are invariants no compiler pass checks. This crate checks
//! them: it lexes every workspace `src/` file with its own Rust lexer
//! (raw strings, nested block comments, char-vs-lifetime — see
//! [`lexer`]) and enforces the rule catalog in [`rules`]:
//!
//! * `no-panic` — no `unwrap`/`expect`/`panic!` family in library code,
//! * `det-map` — no `HashMap`/`HashSet` (iteration order leaks),
//! * `det-time` — no wall-clock reads outside `srlr-telemetry`'s `Clock`,
//! * `det-spawn` — no threads outside `srlr-parallel`,
//! * `float-eq` — no `==`/`!=` against float literals,
//! * `no-print` — no `println!` family in library code (binaries and
//!   `crates/bench` may print),
//! * `missing-doc` — public items in `srlr-tech`/`srlr-circuit`/
//!   `srlr-units` carry doc comments,
//! * `indexing` — advisory, opt-in (`--warn-indexing`).
//!
//! On top of the token scan, [`items`] parses each file into an item
//! tree (modules, `use` declarations, public fns/structs/impls with
//! signatures — no expression parsing) feeding three cross-file rules
//! in [`semantic`]:
//!
//! * `raw-f64-api` — public fns/fields in the dimensioned crates
//!   (`tech`/`circuit`/`core`/`link`) use `srlr-units` newtypes, not
//!   bare `f64`,
//! * `crate-layering` — imports and `Cargo.toml` dependencies follow
//!   the DAG `units → tech → circuit → core → link → noc` with
//!   `rng`/`parallel`/`telemetry` as shared leaves,
//! * `api-lock` — each crate's public surface matches its committed
//!   `api-lock.txt` snapshot (`--write-api-lock` accepts changes).
//!
//! A third layer ([`exprs`]) walks every function body into call, cast
//! and float-reduction events, and [`callgraph`] resolves them into a
//! workspace call graph (name-based, pruned by the layering DAG),
//! feeding four dataflow rules:
//!
//! * `alloc-in-hot-path` — no heap-allocating call in any function
//!   reachable from the hot roots declared in `lint-hotpaths.txt`
//!   (span names cross-checked against the profiler's `--profile-out`
//!   output),
//! * `unordered-float-reduce` — no float accumulation over iteration
//!   whose order is not provably index-ordered,
//! * `rng-stream-discipline` — RNG construction only inside `srlr-rng`
//!   and the registered sampler entry points,
//! * `lossy-cast` — no `as` casts to sub-word integer types in library
//!   code.
//!
//! Violations are waved through only by an inline
//! `// srlr-lint: allow(rule, reason = "…")` with a mandatory reason, or
//! by an entry in the shrink-only `lint-baseline.txt`. Reports render as
//! rustc-style text or SARIF 2.1.0 ([`sarif`], `--format sarif`).

pub mod analyze;
pub mod baseline;
pub mod callgraph;
pub mod diagnostics;
pub mod exprs;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod semantic;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;

use analyze::{AnalyzeOptions, Suppression};
use baseline::Baseline;
use diagnostics::Diagnostic;
use semantic::ParsedFile;

/// Path prefixes (relative, `/`-separated) whose public items must carry
/// doc comments.
const DOC_COVERED: &[&str] = &["crates/tech/", "crates/circuit/", "crates/units/"];
/// Paths allowed to read the wall clock: the telemetry `Clock`
/// abstraction that fences `Instant` for the profiler (everything else
/// consumes time through `Clock`).
const TIME_ALLOWED: &[&str] = &["crates/telemetry/src/clock.rs"];
/// Prefix allowed to spawn threads.
const SPAWN_ALLOWED: &[&str] = &["crates/parallel/"];
/// Prefixes allowed to print: the bench harness crate is a reporting
/// tool whose whole job is terminal output.
const PRINT_ALLOWED: &[&str] = &["crates/bench/"];

/// A lint run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Baseline file; defaults to `<root>/lint-baseline.txt`.
    pub baseline_path: PathBuf,
    /// Enable the advisory `indexing` rule.
    pub warn_indexing: bool,
}

impl Config {
    /// Configuration for scanning `root` with the default baseline path.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        let root = root.into();
        let baseline_path = root.join("lint-baseline.txt");
        Config {
            root,
            baseline_path,
            warn_indexing: false,
        }
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_checked: usize,
    /// Violations not covered by the baseline, sorted by path/line.
    pub fresh: Vec<Diagnostic>,
    /// Violations tolerated by a baseline entry.
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries that matched nothing (must be deleted).
    pub stale: Vec<String>,
}

impl Report {
    /// Fresh violations that fail the run (advisory rules never do).
    pub fn failures(&self) -> impl Iterator<Item = &Diagnostic> {
        self.fresh.iter().filter(|d| !d.rule.advisory())
    }

    /// Whether the tree is clean: no failing fresh violations.
    pub fn is_clean(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Baseline keys for every current non-advisory violation (fresh and
    /// baselined) — what `--write-baseline` persists.
    pub fn all_violation_keys(&self) -> BTreeSet<String> {
        self.fresh
            .iter()
            .chain(self.baselined.iter())
            .filter(|d| !d.rule.advisory())
            .map(Diagnostic::baseline_key)
            .collect()
    }
}

/// A lint run failure (I/O, not a rule violation).
#[derive(Debug)]
pub struct Error {
    /// What the run was touching when it failed.
    pub context: String,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.source)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Error {
    let context = context.into();
    move |source| Error { context, source }
}

/// Derives the per-file rule toggles from a workspace-relative path.
pub fn options_for(rel: &str, warn_indexing: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        check_missing_doc: DOC_COVERED.iter().any(|p| rel.starts_with(p)),
        allow_time: TIME_ALLOWED.iter().any(|p| rel.starts_with(p)),
        allow_spawn: SPAWN_ALLOWED.iter().any(|p| rel.starts_with(p)),
        allow_print: PRINT_ALLOWED.iter().any(|p| rel.starts_with(p))
            || rel == "main.rs"
            || rel.ends_with("/main.rs"),
        warn_indexing,
    }
}

/// Per-file suppression comments, keyed by workspace-relative path.
type SuppressionMap = BTreeMap<String, Vec<Suppression>>;

/// Scans and parses every workspace file; the shared front half of
/// [`run`] and [`write_api_locks`].
fn scan(config: &Config) -> Result<(Vec<ParsedFile>, SuppressionMap, Vec<Diagnostic>), Error> {
    let files = walk::workspace_files(&config.root)
        .map_err(io_err(format!("walking {}", config.root.display())))?;

    let mut parsed = Vec::new();
    let mut suppressions = BTreeMap::new();
    let mut diags = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(&file.abs)
            .map_err(io_err(format!("reading {}", file.abs.display())))?;
        let rel = file.rel.replace('\\', "/");
        let opts = options_for(&rel, config.warn_indexing);
        let analysis = analyze::analyze_file(&rel, &src, opts);
        diags.extend(analysis.diags);
        suppressions.insert(rel.clone(), analysis.suppressions);
        let tree = items::parse_items(&rel, &src);
        let fns = exprs::parse_fns(&rel, &src);
        parsed.push(ParsedFile {
            rel,
            src,
            tree,
            fns,
        });
    }
    Ok((parsed, suppressions, diags))
}

/// Scans the workspace and partitions the results against the baseline.
pub fn run(config: &Config) -> Result<Report, Error> {
    let bl = Baseline::load(&config.baseline_path).map_err(io_err(format!(
        "reading {}",
        config.baseline_path.display()
    )))?;
    let (parsed, suppressions, mut diags) = scan(config)?;

    for file in &parsed {
        diags.extend(semantic::check_raw_f64(file));
        diags.extend(semantic::check_layering_uses(file));
        diags.extend(semantic::check_unordered_float_reduce(file));
        diags.extend(semantic::check_rng_stream_discipline(file));
        diags.extend(semantic::check_lossy_cast(file));
    }
    if let Some(hot) = semantic::load_hotpaths(&config.root) {
        let graph = semantic::build_call_graph(&parsed);
        diags.extend(semantic::check_alloc_in_hot_path(&parsed, &graph, &hot));
    }
    diags.extend(
        semantic::check_layering_manifests(&config.root).map_err(io_err(format!(
            "reading manifests under {}",
            config.root.display()
        )))?,
    );
    diags.extend(semantic::check_api_lock(&parsed, &config.root));

    // Suppressions are per source file; diagnostics anchored elsewhere
    // (Cargo.toml, api-lock.txt) have no suppression scope by design.
    for d in &mut diags {
        d.path = d.path.replace('\\', "/");
    }
    diags.retain(|d| {
        !(d.rule.suppressible()
            && suppressions.get(&d.path).is_some_and(|supps| {
                supps
                    .iter()
                    .any(|s| s.rule == d.rule && (d.line == s.line || d.line == s.line + 1))
            }))
    });
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let (fresh, baselined, stale) = bl.partition(diags);
    Ok(Report {
        files_checked: parsed.len(),
        fresh,
        baselined,
        stale,
    })
}

/// Regenerates every crate's `api-lock.txt` from the current public
/// surface. Returns the written paths.
pub fn write_api_locks(config: &Config) -> Result<Vec<PathBuf>, Error> {
    let (parsed, _, _) = scan(config)?;
    semantic::write_api_locks(&parsed, &config.root).map_err(io_err(format!(
        "writing api-lock files under {}",
        config.root.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn options_follow_path_prefixes() {
        let o = options_for("crates/tech/src/mosfet.rs", false);
        assert!(o.check_missing_doc && !o.allow_time && !o.allow_spawn && !o.allow_print);
        let o = options_for("crates/criterion/src/lib.rs", false);
        assert!(
            !o.allow_time,
            "the deleted bench-harness path keeps no wall-clock carve-out"
        );
        let o = options_for("crates/telemetry/src/clock.rs", false);
        assert!(o.allow_time, "the telemetry Clock module may use Instant");
        let o = options_for("crates/telemetry/src/profile.rs", false);
        assert!(!o.allow_time, "only clock.rs gets the carve-out");
        let o = options_for("crates/parallel/src/pool.rs", false);
        assert!(o.allow_spawn);
        let o = options_for("crates/noc/src/router.rs", true);
        assert!(!o.check_missing_doc && o.warn_indexing);
    }

    #[test]
    fn printing_is_allowed_in_binaries_and_bench_only() {
        assert!(options_for("crates/cli/src/main.rs", false).allow_print);
        assert!(options_for("crates/lint/src/main.rs", false).allow_print);
        assert!(options_for("crates/bench/src/report.rs", false).allow_print);
        assert!(!options_for("crates/cli/src/lib.rs", false).allow_print);
        assert!(!options_for("crates/noc/src/domain.rs", false).allow_print);
    }

    #[test]
    fn config_defaults_baseline_under_root() {
        let c = Config::new("/ws");
        assert_eq!(c.baseline_path, Path::new("/ws/lint-baseline.txt"));
        assert!(!c.warn_indexing);
    }
}
