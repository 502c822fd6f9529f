//! `srlr-lint`: dependency-free static analysis for the SRLR workspace.
//!
//! The reproduction's headline guarantees — bit-identical Monte Carlo
//! results at any thread count, and sweep runs that degrade instead of
//! aborting — rest on two layers of checks. The per-token rules are
//! rustc and clippy lints in the root `Cargo.toml`'s `[workspace.lints]`
//! table (with `clippy.toml`): `missing_docs`, the panic family
//! (`unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`,
//! `unimplemented`), `print_stdout`/`print_stderr`/`dbg_macro`,
//! `disallowed_types` (`HashMap`, `HashSet`, `Instant`, `SystemTime`),
//! `disallowed_methods` (the `std::thread` spawns),
//! `cast_possible_truncation` and `allow_attributes_without_reason`.
//! This crate checks the rest. It lexes every workspace `src/` file
//! with its own Rust lexer (raw strings, nested block comments,
//! char-vs-lifetime — see [`lexer`]) and enforces the rule catalog in
//! [`rules`]. One token rule stays here:
//!
//! * `float-eq` — no `==`/`!=` against float literals (clippy's
//!   `float_cmp` misses `0.0 != x`).
//!
//! Each file is lexed once. [`semantic::ParsedFile::parse`] hands that
//! one view to `float-eq` and to a single item walk ([`items`]):
//! modules, `use` declarations, impl/trait ownership and public
//! signatures, with every function body reduced to call and
//! float-reduction events ([`exprs`]). The item tree feeds three
//! cross-file rules in [`semantic`]:
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
//! The function events feed [`callgraph`], a workspace call graph
//! (name-based, pruned by the layering DAG), and three dataflow rules:
//!
//! * `alloc-in-hot-path` — no heap-allocating call in any function
//!   reachable from the hot roots declared in `lint-hotpaths.txt`
//!   (span names cross-checked against the profiler's `--profile-out`
//!   output),
//! * `unordered-float-reduce` — no float accumulation over iteration
//!   whose order is not provably index-ordered,
//! * `rng-stream-discipline` — RNG construction only inside `srlr-rng`
//!   and the registered sampler entry points.
//!
//! Violations are waved through only by an inline
//! `// srlr-lint: allow(rule, reason = "…")` with a mandatory reason
//! (`bad-suppression` otherwise). Reports render as rustc-style text or
//! SARIF 2.1.0 ([`sarif`], `--format sarif`).

pub mod analyze;
pub mod callgraph;
pub mod diagnostics;
pub mod exprs;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod semantic;
pub mod walk;

#[cfg(test)]
#[path = "../tests/support/lint_table.rs"]
mod lint_table;

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

use analyze::Suppression;
use diagnostics::Diagnostic;
use semantic::ParsedFile;

/// A lint run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to scan.
    pub root: PathBuf,
}

impl Config {
    /// Configuration for scanning `root`.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        Config { root: root.into() }
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_checked: usize,
    /// Unsuppressed violations, sorted by path/line.
    pub violations: Vec<Diagnostic>,
    /// Nodes of the call graph that `alloc-in-hot-path` walks; 0 when
    /// no `lint-hotpaths.txt` declares hot roots.
    pub callgraph_nodes: usize,
}

impl Report {
    /// Whether the tree is clean: no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
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
        let (file, analysis) = ParsedFile::parse(file.rel.replace('\\', "/"), src);
        diags.extend(analysis.diags);
        suppressions.insert(file.rel.clone(), analysis.suppressions);
        parsed.push(file);
    }
    Ok((parsed, suppressions, diags))
}

/// Scans the workspace and reports every unsuppressed violation.
pub fn run(config: &Config) -> Result<Report, Error> {
    let (parsed, suppressions, mut diags) = scan(config)?;

    for file in &parsed {
        diags.extend(semantic::check_raw_f64(file));
        diags.extend(semantic::check_layering_uses(file));
        diags.extend(semantic::check_unordered_float_reduce(file));
        diags.extend(semantic::check_rng_stream_discipline(file));
    }
    let mut callgraph_nodes = 0;
    if let Some(hot) = semantic::load_hotpaths(&config.root) {
        let graph = semantic::build_call_graph(&parsed);
        callgraph_nodes = graph.nodes().len();
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
    let mut by_path: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for mut d in diags {
        d.path = d.path.replace('\\', "/");
        by_path.entry(d.path.clone()).or_default().push(d);
    }
    let mut diags = Vec::new();
    for (path, mut file_diags) in by_path {
        if let Some(supps) = suppressions.get(&path) {
            analyze::apply_suppressions(&mut file_diags, supps);
        }
        diags.extend(file_diags);
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    Ok(Report {
        files_checked: parsed.len(),
        violations: diags,
        callgraph_nodes,
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
