//! Cross-file semantic rules built on the one item walk per file
//! ([`ParsedFile::parse`]): `raw-f64-api`, `crate-layering`,
//! `api-lock`, plus the dataflow rules `alloc-in-hot-path`,
//! `unordered-float-reduce` and `rng-stream-discipline`.
//!
//! These are the rules a token scan cannot express: they need item
//! identities (who owns this signature?), crate identities (which layer
//! does this file belong to?), function bodies reduced to call and
//! reduction events ([`crate::exprs`]), the workspace call graph
//! ([`crate::callgraph`]) and workspace state (the committed
//! `api-lock.txt` snapshots, `lint-hotpaths.txt` and the `Cargo.toml`
//! dependency sections).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::analyze::{self, FileAnalysis, FileView};
use crate::callgraph::{CallGraph, FileFns, Node};
use crate::diagnostics::{to_u32, Diagnostic};
use crate::exprs::{CallEvent, CallKind, FnDef};
use crate::items::{self, ItemKind, ItemTree, PubItem};
use crate::rules::RuleId;

/// One scanned file with its source and parsed item tree.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Full source text (for diagnostic snippets).
    pub src: String,
    /// The parsed item skeleton.
    pub tree: ItemTree,
    /// The file's function definitions with their body events.
    pub fns: Vec<FnDef>,
}

impl ParsedFile {
    /// Lexes `src` once and runs every per-file pass on that one view:
    /// the item walk (item tree and function definitions) and the token
    /// rules, whose unsuppressed findings come back beside the parsed
    /// file.
    pub fn parse(rel: String, src: String) -> (ParsedFile, FileAnalysis) {
        let view = FileView::new(&rel, &src);
        let walked = items::walk(&view);
        let analysis = analyze::analyze_view(&view);
        let file = ParsedFile {
            tree: walked.tree,
            fns: walked.fns,
            rel,
            src,
        };
        (file, analysis)
    }
}

/// Crates ordered along the signal-modeling stack; each may depend on
/// strictly earlier entries (plus the shared leaves).
const LAYERS: &[&str] = &[
    "units", "tech", "circuit", "core", "link", "noc", "model", "prof",
];
/// Leaf utility crates: usable from any layer, may use no `srlr` crate
/// themselves.
const LEAVES: &[&str] = &["rng", "parallel", "telemetry"];
/// Tool/front-end crates: consumers of the whole stack, unconstrained.
const TOOLS: &[&str] = &["cli", "lint"];

/// Crates whose public fns/fields must use `srlr-units` newtypes.
const DIMENSIONED: &[&str] = &["tech", "circuit", "core", "link"];

/// The crate directory a workspace-relative path belongs to: `Some("tech")`
/// for `crates/tech/src/…`, `Some("")` for the umbrella `src/…`.
pub fn crate_of(rel: &str) -> Option<&str> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if rel.starts_with("src/") {
        return Some("");
    }
    None
}

/// Whether crate `from` may depend on crate `to` under the layering DAG.
fn layering_allows(from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    // The umbrella facade and the tool crates consume the whole stack.
    if from.is_empty() || TOOLS.contains(&from) {
        return true;
    }
    // Leaves depend on nothing inside the workspace.
    if LEAVES.contains(&from) {
        return false;
    }
    // Unknown crates are treated as tools until they are classified.
    let Some(from_rank) = LAYERS.iter().position(|&l| l == from) else {
        return true;
    };
    if LEAVES.contains(&to) {
        return true;
    }
    match LAYERS.iter().position(|&l| l == to) {
        Some(to_rank) => to_rank < from_rank,
        None => false, // layered crates may not reach into tool crates
    }
}

/// Builds a diagnostic anchored at `(line, col)` in `file`.
fn source_diag(
    file: &ParsedFile,
    line: u32,
    col: u32,
    width: u32,
    rule: RuleId,
    message: String,
) -> Diagnostic {
    let snippet = file
        .src
        .lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .to_string();
    Diagnostic {
        path: file.rel.clone(),
        line,
        col,
        rule,
        message,
        snippet,
        width: width.max(1),
    }
}

// ---------------------------------------------------------------------
// raw-f64-api
// ---------------------------------------------------------------------

/// Flags public fns and fields in the dimensioned crates whose signature
/// carries a bare `f64`.
pub fn check_raw_f64(file: &ParsedFile) -> Vec<Diagnostic> {
    let Some(krate) = crate_of(&file.rel) else {
        return Vec::new();
    };
    if !DIMENSIONED.contains(&krate) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for item in &file.tree.items {
        if !matches!(item.kind, ItemKind::Fn | ItemKind::Field) || item.f64_spans.is_empty() {
            continue;
        }
        let what = match item.kind {
            ItemKind::Fn => "fn",
            _ => "field",
        };
        let qualified = match &item.owner {
            Some(o) if item.kind == ItemKind::Field => format!("{o}.{}", item.name),
            Some(o) => format!("{o}::{}", item.name),
            None => item.name.clone(),
        };
        let n = item.f64_spans.len();
        let plural = if n == 1 { "" } else { "s" };
        out.push(source_diag(
            file,
            item.line,
            item.col,
            to_u32(item.name.chars().count()),
            RuleId::RawF64Api,
            format!(
                "public {what} `{qualified}` exposes {n} bare `f64`{plural}; use an \
                 `srlr-units` newtype, or allow with a reason naming the dimensionless \
                 quantity"
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// crate-layering
// ---------------------------------------------------------------------

/// Checks every `use srlr_*` declaration against the layering DAG.
pub fn check_layering_uses(file: &ParsedFile) -> Vec<Diagnostic> {
    let Some(from) = crate_of(&file.rel) else {
        return Vec::new();
    };
    let from = from.to_string();
    let mut out = Vec::new();
    for decl in &file.tree.uses {
        let Some(to) = decl.first_segment.strip_prefix("srlr_") else {
            continue;
        };
        if layering_allows(&from, to) {
            continue;
        }
        out.push(source_diag(
            file,
            decl.line,
            1,
            to_u32(decl.first_segment.chars().count()),
            RuleId::CrateLayering,
            format!(
                "`{}` may not use `srlr-{to}`: the crate DAG is {} with {} as shared leaves",
                display_crate(&from),
                LAYERS.join(" -> "),
                LEAVES.join("/"),
            ),
        ));
    }
    out
}

fn display_crate(dir: &str) -> String {
    if dir.is_empty() {
        "the umbrella crate".to_string()
    } else {
        format!("srlr-{dir}")
    }
}

/// Checks every `crates/*/Cargo.toml` `[dependencies]` section against the
/// layering DAG. `[dev-dependencies]` are exempt (tests may reach
/// anywhere).
pub fn check_layering_manifests(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(out);
    }
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let from = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let rel = format!("crates/{from}/Cargo.toml");
        let mut in_deps = false;
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                in_deps = trimmed == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            let Some(dep) = trimmed.split(['.', ' ', '=']).next() else {
                continue;
            };
            let Some(to) = dep.strip_prefix("srlr-") else {
                continue;
            };
            if layering_allows(&from, to) {
                continue;
            }
            out.push(Diagnostic {
                path: rel.clone(),
                line: to_u32(idx + 1),
                col: 1,
                rule: RuleId::CrateLayering,
                message: format!(
                    "`srlr-{from}` may not depend on `srlr-{to}`: the crate DAG is {} with \
                     {} as shared leaves",
                    LAYERS.join(" -> "),
                    LEAVES.join("/"),
                ),
                snippet: line.to_string(),
                width: to_u32(dep.chars().count()),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// api-lock
// ---------------------------------------------------------------------

/// The api-lock entry line for one public item.
pub fn lock_entry(item: &PubItem) -> String {
    let module = if item.module.is_empty() {
        String::new()
    } else {
        format!("{}::", item.module)
    };
    let owner = match &item.owner {
        Some(o) if item.kind == ItemKind::Field => format!("{o}."),
        Some(o) => format!("{o}::"),
        None => String::new(),
    };
    format!(
        "{} {module}{owner}{}{}",
        item.kind.keyword(),
        item.name,
        item.signature
    )
}

/// The in-file module path of `rel` within its crate (`""` for the crate
/// root `lib.rs`, `bias` for `src/bias.rs`, `a::b` for `src/a/b.rs`).
fn file_module(rel: &str) -> String {
    let after_src = rel.split_once("src/").map(|(_, tail)| tail).unwrap_or(rel);
    let mut parts: Vec<&str> = after_src.split('/').collect();
    let Some(last) = parts.pop() else {
        return String::new();
    };
    let stem = last.trim_end_matches(".rs");
    if stem != "lib" && stem != "mod" {
        parts.push(stem);
    }
    parts.join("::")
}

/// Whether a file contributes to the crate's public API surface (binary
/// entry points do not).
fn is_api_file(rel: &str) -> bool {
    !(rel.ends_with("/main.rs") || rel == "main.rs" || rel.contains("/bin/"))
}

/// The lock-file path for a crate directory (`""` = umbrella root).
pub fn lock_path(root: &Path, krate: &str) -> PathBuf {
    if krate.is_empty() {
        root.join("api-lock.txt")
    } else {
        root.join("crates").join(krate).join("api-lock.txt")
    }
}

/// The display (workspace-relative) path of a crate's lock file.
fn lock_rel(krate: &str) -> String {
    if krate.is_empty() {
        "api-lock.txt".to_string()
    } else {
        format!("crates/{krate}/api-lock.txt")
    }
}

/// Current public surface per crate: entry → (file rel, line) of the item
/// that produced it (first occurrence wins for duplicates).
fn current_surface(
    files: &[ParsedFile],
) -> BTreeMap<String, BTreeMap<String, (&ParsedFile, u32, u32)>> {
    let mut by_crate: BTreeMap<String, BTreeMap<String, (&ParsedFile, u32, u32)>> = BTreeMap::new();
    for file in files {
        let Some(krate) = crate_of(&file.rel) else {
            continue;
        };
        if !is_api_file(&file.rel) {
            continue;
        }
        let module = file_module(&file.rel);
        let entries = by_crate.entry(krate.to_string()).or_default();
        for item in &file.tree.items {
            let mut qualified = item.clone();
            qualified.module = match (&module[..], &item.module[..]) {
                ("", m) => m.to_string(),
                (f, "") => f.to_string(),
                (f, m) => format!("{f}::{m}"),
            };
            entries
                .entry(lock_entry(&qualified))
                .or_insert((file, item.line, item.col));
        }
    }
    by_crate
}

/// Compares the current public surface with each committed
/// `api-lock.txt`. Crates without a lock file are not locked.
pub fn check_api_lock(files: &[ParsedFile], root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let surface = current_surface(files);
    for (krate, entries) in &surface {
        let path = lock_path(root, krate);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // not locked
        };
        let rel = lock_rel(krate);
        let mut locked: BTreeMap<&str, u32> = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            locked.entry(line).or_insert(to_u32(idx + 1));
        }
        for (entry, (file, line, col)) in entries {
            if locked.contains_key(entry.as_str()) {
                continue;
            }
            out.push(source_diag(
                file,
                *line,
                *col,
                3,
                RuleId::ApiLock,
                format!(
                    "public API addition not in {rel}: `{entry}`; review the change and run \
                     `srlr-lint --write-api-lock` to accept it"
                ),
            ));
        }
        for (entry, line) in &locked {
            if entries.contains_key(*entry) {
                continue;
            }
            out.push(Diagnostic {
                path: rel.clone(),
                line: *line,
                col: 1,
                rule: RuleId::ApiLock,
                message: format!(
                    "locked public API entry no longer exists: `{entry}`; if the removal is \
                     intentional run `srlr-lint --write-api-lock`"
                ),
                snippet: (*entry).to_string(),
                width: to_u32(entry.chars().count()),
            });
        }
    }
    out
}

/// Regenerates every crate's `api-lock.txt` from the current surface.
/// Returns the written paths.
pub fn write_api_locks(files: &[ParsedFile], root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let surface = current_surface(files);
    let mut written = Vec::new();
    for (krate, entries) in &surface {
        let path = lock_path(root, krate);
        let mut content = String::from(
            "# srlr-lint api-lock: the reviewed public API surface of this crate.\n\
             # Regenerate with `srlr-lint --write-api-lock` after an intentional API change.\n",
        );
        let sorted: BTreeSet<&String> = entries.keys().collect();
        for entry in sorted {
            content.push_str(entry);
            content.push('\n');
        }
        std::fs::write(&path, content)?;
        written.push(path);
    }
    Ok(written)
}

// ---------------------------------------------------------------------
// Dataflow rules: alloc-in-hot-path, unordered-float-reduce,
// rng-stream-discipline
// ---------------------------------------------------------------------

/// The committed hot-root declaration file, relative to the workspace
/// root.
pub const HOTPATHS_FILE: &str = "lint-hotpaths.txt";

/// `Type::fn` path calls that allocate.
const ALLOC_PATH_CALLS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("VecDeque", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
];
/// Method names that allocate (or may reallocate) their receiver.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "collect",
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "extend",
    "append",
    "reserve",
    "resize",
];
/// Macros whose expansion allocates its output.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Iterator adapters and sources whose yield order is not specified (or
/// not index-ordered): a float reduction downstream of one of these is
/// non-deterministic because float addition is not associative. The
/// sanctioned merge path is `srlr_parallel::par_map_indexed`, whose
/// outputs are index-ordered by construction.
const UNORDERED_ADAPTERS: &[&str] = &[
    "par_bridge",
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_map_unordered",
    "read_dir",
];

/// RNG-constructing calls: `Xoshiro256pp::{new, for_stream}` plus the
/// seed-derivation free functions.
const RNG_SEED_FNS: &[&str] = &["stream_seed", "splitmix64"];

/// The registered sampler entry points: the only functions outside
/// `srlr-rng` allowed to construct RNG state. Every entry derives its
/// stream from an experiment seed plus a stable index
/// (trial/link/packet), which is what keeps runs bit-identical at any
/// thread count. Additions to this list are API review, exactly like an
/// `api-lock.txt` change.
const REGISTERED_SAMPLERS: &[&str] = &[
    "srlr-tech::GaussianRng::new",
    "srlr-tech::GaussianRng::for_stream",
    "srlr-link::Prbs::prbs15_for_stream",
    "srlr-noc::TrafficGenerator::new",
    "srlr-noc::FaultModel::new",
    "srlr-noc::packet::flit_payload",
];

/// The Cargo package name of a crate directory (`core` → `srlr-core`,
/// the umbrella root → `srlr-repro`).
fn crate_display_name(dir: &str) -> String {
    if dir.is_empty() {
        "srlr-repro".to_string()
    } else {
        format!("srlr-{dir}")
    }
}

/// Inverse of [`crate_display_name`], for the layering filter.
fn crate_dir_of_display(name: &str) -> &str {
    if name == "srlr-repro" {
        ""
    } else {
        name.strip_prefix("srlr-").unwrap_or(name)
    }
}

/// The qualified id of a function definition, matching
/// [`Node::display`]: `srlr-tech::GaussianRng::new` for methods,
/// `srlr-noc::packet::flit_payload` for module free functions.
fn fn_id(rel: &str, def: &FnDef) -> String {
    let krate = crate_display_name(crate_of(rel).unwrap_or_default());
    let mid = match (&def.owner, file_module(rel)) {
        (Some(o), _) => format!("{o}::"),
        (None, m) if m.is_empty() => String::new(),
        (None, m) => format!("{m}::"),
    };
    format!("{krate}::{mid}{}", def.name)
}

/// Builds the workspace call graph from every file's parsed function
/// definitions, with edges pruned by the crate layering DAG (code in
/// `link` cannot call into `noc`, so a method name defined in both is
/// not resolved upward).
pub(crate) fn build_call_graph(files: &[ParsedFile]) -> CallGraph {
    let file_fns: Vec<FileFns<'_>> = files
        .iter()
        .map(|f| FileFns {
            crate_name: crate_display_name(crate_of(&f.rel).unwrap_or_default()),
            module: file_module(&f.rel),
            defs: &f.fns,
        })
        .collect();
    CallGraph::build(&file_fns, |from, to| {
        layering_allows(crate_dir_of_display(from), crate_dir_of_display(to))
    })
}

/// One hot-root declaration from `lint-hotpaths.txt`.
#[derive(Debug, Clone)]
pub struct HotRoot {
    /// The profiler span name this root is accountable to (must appear
    /// in `--profile-out` folded output; cross-checked by a CLI test).
    pub span: String,
    /// The function pattern, as accepted by
    /// [`CallGraph::resolve_pattern`].
    pub pattern: String,
    /// 1-based line in the declaration file.
    pub line: u32,
    /// The raw line text (diagnostic snippet).
    pub text: String,
}

/// The parsed `lint-hotpaths.txt`.
#[derive(Debug, Default)]
pub struct HotPaths {
    /// Well-formed declarations.
    pub roots: Vec<HotRoot>,
    /// Lines that are neither comments nor `span pattern` pairs.
    pub malformed: Vec<(u32, String)>,
}

/// Parses the hot-root declaration format: one `span-name fn-pattern`
/// pair per line, `#` comments and blank lines ignored.
pub fn parse_hotpaths(text: &str) -> HotPaths {
    let mut hot = HotPaths::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        match (fields.next(), fields.next(), fields.next()) {
            (Some(span), Some(pattern), None) => hot.roots.push(HotRoot {
                span: span.to_string(),
                pattern: pattern.to_string(),
                line: to_u32(idx + 1),
                text: raw.to_string(),
            }),
            _ => hot.malformed.push((to_u32(idx + 1), raw.to_string())),
        }
    }
    hot
}

/// Loads `<root>/lint-hotpaths.txt`; `None` when the workspace declares
/// no hot roots (the rule is then inert).
pub fn load_hotpaths(root: &Path) -> Option<HotPaths> {
    let text = std::fs::read_to_string(root.join(HOTPATHS_FILE)).ok()?;
    Some(parse_hotpaths(&text))
}

/// A diagnostic anchored in the hot-root declaration file itself.
fn hotpaths_diag(line: u32, text: &str, message: String) -> Diagnostic {
    Diagnostic {
        path: HOTPATHS_FILE.to_string(),
        line,
        col: 1,
        rule: RuleId::AllocInHotPath,
        message,
        snippet: text.to_string(),
        width: to_u32(text.trim().chars().count().max(1)),
    }
}

/// Whether a call event is a heap allocation.
fn allocates(call: &CallEvent) -> bool {
    match call.kind {
        CallKind::Path => call
            .qualifier
            .as_deref()
            .is_some_and(|q| ALLOC_PATH_CALLS.contains(&(q, call.name.as_str()))),
        CallKind::Method => ALLOC_METHODS.contains(&call.name.as_str()),
        CallKind::Macro => ALLOC_MACROS.contains(&call.name.as_str()),
        CallKind::Bare => false,
    }
}

/// `alloc-in-hot-path`: no heap-allocating call in any function the
/// call graph can reach from a declared hot root.
///
/// `crates/telemetry/` is exempt: the profiler's record-keeping
/// (entered frames, counters) allocates only when profiling is enabled,
/// and its zero-cost-when-disabled contract is enforced by its own
/// tests — the hot path's *disabled* cost is one branch.
pub fn check_alloc_in_hot_path(
    files: &[ParsedFile],
    graph: &CallGraph,
    hot: &HotPaths,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (line, text) in &hot.malformed {
        out.push(hotpaths_diag(
            *line,
            text,
            format!(
                "malformed hot-root line in {HOTPATHS_FILE}: expected `span-name crate::Owner::fn`"
            ),
        ));
    }
    let mut roots: Vec<usize> = Vec::new();
    let mut root_decl: BTreeMap<usize, &HotRoot> = BTreeMap::new();
    for root in &hot.roots {
        let ids = graph.resolve_pattern(&root.pattern);
        if ids.is_empty() {
            out.push(hotpaths_diag(
                root.line,
                &root.text,
                format!(
                    "hot root `{}` matches no workspace function; fix the pattern or delete \
                     the line (shapes: crate::Owner::fn, crate::fn, crate::module::*)",
                    root.pattern
                ),
            ));
            continue;
        }
        for id in ids {
            root_decl.entry(id).or_insert(root);
            roots.push(id);
        }
    }
    let reached = graph.reachable_from(&roots);
    for (id, node) in graph.nodes().iter().enumerate() {
        let Some(root_id) = reached[id] else { continue };
        let file = &files[node.file];
        if file.rel.starts_with("crates/telemetry/") {
            continue;
        }
        let def = &file.fns[node.def];
        let decl = &root_decl[&root_id];
        let via: &Node = &graph.nodes()[root_id];
        for call in &def.calls {
            if !allocates(call) {
                continue;
            }
            out.push(source_diag(
                file,
                call.line,
                call.col,
                to_u32(call.name.chars().count()),
                RuleId::AllocInHotPath,
                format!(
                    "heap allocation `{}` in hot function `{}` (reachable from `{}` root \
                     `{}` in {HOTPATHS_FILE})",
                    call.display(),
                    node.display(),
                    decl.span,
                    via.display(),
                ),
            ));
        }
    }
    out
}

/// `unordered-float-reduce`: a float reduction whose chain contains an
/// adapter with unspecified iteration order.
pub fn check_unordered_float_reduce(file: &ParsedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for def in &file.fns {
        for r in &def.reduces {
            let Some(bad) = r
                .chain
                .iter()
                .find(|c| UNORDERED_ADAPTERS.contains(&c.as_str()))
            else {
                continue;
            };
            out.push(source_diag(
                file,
                r.line,
                r.col,
                to_u32(r.terminator.chars().count()),
                RuleId::UnorderedFloatReduce,
                format!(
                    "float `{}` over order-unspecified iteration (`{bad}`): float addition \
                     is not associative; merge parallel results through \
                     `par_map_indexed`-ordered outputs",
                    r.terminator
                ),
            ));
        }
    }
    out
}

/// Whether a call event constructs RNG state.
fn constructs_rng(call: &CallEvent) -> bool {
    if call.kind == CallKind::Macro {
        return false;
    }
    if RNG_SEED_FNS.contains(&call.name.as_str()) {
        return true;
    }
    call.qualifier.as_deref() == Some("Xoshiro256pp")
        && matches!(call.name.as_str(), "new" | "for_stream")
}

/// `rng-stream-discipline`: RNG construction outside `srlr-rng` and the
/// registered sampler entry points.
pub fn check_rng_stream_discipline(file: &ParsedFile) -> Vec<Diagnostic> {
    if file.rel.starts_with("crates/rng/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for def in &file.fns {
        if REGISTERED_SAMPLERS.contains(&fn_id(&file.rel, def).as_str()) {
            continue;
        }
        for call in def.calls.iter().filter(|c| constructs_rng(c)) {
            out.push(source_diag(
                file,
                call.line,
                call.col,
                to_u32(call.name.chars().count()),
                RuleId::RngStreamDiscipline,
                format!(
                    "RNG construction `{}` in `{}`, which is not a registered sampler: derive \
                     streams through a REGISTERED_SAMPLERS entry point (srlr-lint semantic.rs) \
                     so they stay counter-derived from a trial index",
                    call.display(),
                    fn_id(&file.rel, def),
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        ParsedFile::parse(rel.to_string(), src.to_string()).0
    }

    #[test]
    fn raw_f64_fires_only_in_dimensioned_crates() {
        let src = "pub fn volts(&self) -> f64 { 0.0 }";
        let in_tech = parsed("crates/tech/src/device.rs", src);
        assert_eq!(check_raw_f64(&in_tech).len(), 1);
        let in_units = parsed("crates/units/src/voltage.rs", src);
        assert!(check_raw_f64(&in_units).is_empty());
        let in_noc = parsed("crates/noc/src/router.rs", src);
        assert!(check_raw_f64(&in_noc).is_empty());
    }

    #[test]
    fn raw_f64_message_names_the_item() {
        let f = parsed(
            "crates/core/src/design.rs",
            "pub struct D { pub margin: f64 }",
        );
        let d = check_raw_f64(&f);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`D.margin`"), "{}", d[0].message);
    }

    #[test]
    fn raw_f64_ignores_consts_and_private_items() {
        let f = parsed(
            "crates/tech/src/x.rs",
            "pub const K: f64 = 1.0;\nfn private(x: f64) -> f64 { x }",
        );
        assert!(check_raw_f64(&f).is_empty());
    }

    #[test]
    fn layering_dag() {
        assert!(layering_allows("tech", "units"));
        assert!(layering_allows("noc", "link"));
        assert!(layering_allows("link", "rng"));
        assert!(layering_allows("cli", "noc"));
        assert!(layering_allows("", "noc"));
        // The model checker sits atop the noc layer and shares its
        // transition semantics (srlr_noc::protocol).
        assert!(layering_allows("model", "noc"));
        assert!(layering_allows("model", "telemetry"));
        assert!(layering_allows("cli", "model"));
        // The profile toolkit only reads telemetry artifacts; nothing
        // below the tool crates may depend on it.
        assert!(layering_allows("prof", "telemetry"));
        assert!(layering_allows("cli", "prof"));
        assert!(!layering_allows("link", "prof"));
        assert!(!layering_allows("model", "prof"));
        assert!(!layering_allows("noc", "model"));
        assert!(!layering_allows("tech", "noc"));
        assert!(!layering_allows("units", "tech"));
        assert!(!layering_allows("rng", "units"));
        assert!(!layering_allows("circuit", "core"));
        assert!(!layering_allows("core", "lint"));
    }

    #[test]
    fn layering_use_violation_fires() {
        let f = parsed("crates/tech/src/bad.rs", "use srlr_noc::Network;\n");
        let d = check_layering_uses(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::CrateLayering);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn layering_allows_downward_uses() {
        let f = parsed(
            "crates/noc/src/lib.rs",
            "use srlr_link::SrlrLink;\nuse srlr_units::Voltage;\nuse std::fmt;\n",
        );
        assert!(check_layering_uses(&f).is_empty());
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(file_module("crates/tech/src/lib.rs"), "");
        assert_eq!(file_module("crates/tech/src/bias.rs"), "bias");
        assert_eq!(file_module("crates/noc/src/a/b.rs"), "a::b");
        assert_eq!(file_module("crates/noc/src/a/mod.rs"), "a");
        assert_eq!(file_module("src/lib.rs"), "");
    }

    #[test]
    fn lock_entries_are_qualified_by_file_module() {
        let f = parsed(
            "crates/tech/src/bias.rs",
            "pub struct B { pub p: Power }\nimpl B { pub fn p(&self) -> Power { self.p } }",
        );
        let files = [f];
        let surface = current_surface(&files);
        let entries: Vec<&String> = surface["tech"].keys().collect();
        assert_eq!(
            entries,
            [
                "field bias::B.p: Power",
                "fn bias::B::p(&self) -> Power",
                "struct bias::B"
            ]
        );
    }

    #[test]
    fn main_rs_is_not_api() {
        let f = parsed("crates/cli/src/main.rs", "pub fn run() {}");
        assert!(current_surface(&[f]).is_empty());
    }

    #[test]
    fn hotpaths_parse_accepts_comments_and_flags_malformed() {
        let hot = parse_hotpaths(
            "# comment\n\nbit_slot srlr-core::DieBatch::advance_slot\nbroken\nspan pat extra\n",
        );
        assert_eq!(hot.roots.len(), 1);
        assert_eq!(hot.roots[0].span, "bit_slot");
        assert_eq!(hot.roots[0].line, 3);
        assert_eq!(
            hot.malformed,
            [(4, "broken".to_string()), (5, "span pat extra".to_string())]
        );
    }

    #[test]
    fn alloc_in_hot_path_fires_transitively() {
        let files = [
            parsed(
                "crates/core/src/batch.rs",
                "impl DieBatch {\n    pub fn advance_slot(&mut self) { helper(); }\n}\n\
                 fn helper() { let mut v = Vec::new(); v.push(1); }",
            ),
            parsed("crates/core/src/cold.rs", "pub fn cold() { Vec::new(); }"),
        ];
        let graph = build_call_graph(&files);
        let hot = parse_hotpaths("bit_slot srlr-core::DieBatch::advance_slot\n");
        let d = check_alloc_in_hot_path(&files, &graph, &hot);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("Vec::new"));
        assert!(d[0].message.contains("srlr-core::batch::helper"));
        assert!(d[0].message.contains("bit_slot"));
        assert!(
            d.iter().all(|x| x.path == "crates/core/src/batch.rs"),
            "cold() is unreachable from the root: {d:?}"
        );
    }

    #[test]
    fn alloc_in_hot_path_reports_unresolved_roots() {
        let files = [parsed("crates/core/src/batch.rs", "pub fn tick() {}")];
        let graph = build_call_graph(&files);
        let hot = parse_hotpaths("bit_slot srlr-core::Nope::missing\n");
        let d = check_alloc_in_hot_path(&files, &graph, &hot);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, HOTPATHS_FILE);
        assert!(d[0].message.contains("matches no workspace function"));
    }

    #[test]
    fn alloc_in_hot_path_exempts_telemetry() {
        let files = [
            parsed(
                "crates/core/src/batch.rs",
                "impl DieBatch { pub fn advance_slot(&self, p: Profiler) { p.enter(); } }",
            ),
            parsed(
                "crates/telemetry/src/profile.rs",
                "impl Profiler { pub fn enter(&mut self) { self.frames.push(1); } }",
            ),
        ];
        let graph = build_call_graph(&files);
        let hot = parse_hotpaths("bit_slot srlr-core::DieBatch::advance_slot\n");
        assert!(check_alloc_in_hot_path(&files, &graph, &hot).is_empty());
    }

    #[test]
    fn unordered_float_reduce_fires_on_unordered_chains_only() {
        let bad = parsed(
            "crates/link/src/x.rs",
            "fn merge(xs: &[f64]) -> f64 { xs.par_bridge().map(|x| x).sum::<f64>() }",
        );
        let d = check_unordered_float_reduce(&bad);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("par_bridge"), "{}", d[0].message);
        let good = parsed(
            "crates/link/src/x.rs",
            "fn merge(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }",
        );
        assert!(check_unordered_float_reduce(&good).is_empty());
    }

    #[test]
    fn rng_discipline_allows_registered_samplers_only() {
        let bad = parsed(
            "crates/noc/src/rogue.rs",
            "fn rogue(seed: u64) -> Xoshiro256pp { Xoshiro256pp::new(seed) }",
        );
        let d = check_rng_stream_discipline(&bad);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not a registered sampler"));
        let registered = parsed(
            "crates/tech/src/montecarlo.rs",
            "impl GaussianRng {\n    pub fn new(seed: u64) -> Self { Self { rng: Xoshiro256pp::new(seed) } }\n}",
        );
        assert!(check_rng_stream_discipline(&registered).is_empty());
        let in_rng = parsed(
            "crates/rng/src/lib.rs",
            "pub fn splitmix64(x: u64) -> u64 { splitmix64(x) }",
        );
        assert!(check_rng_stream_discipline(&in_rng).is_empty());
    }

    #[test]
    fn lossy_cast_flags_subword_targets_only() {
        // Lossy casts are `clippy::cast_possible_truncation` now; widening
        // and float targets pass.
        crate::lint_table::assert_rejected("subword_cast", "clippy::cast_possible_truncation");
        crate::lint_table::assert_accepted("seeded/src/widening_casts.rs");
    }
}
