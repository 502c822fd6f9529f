//! Workspace call graph over the [`crate::exprs`] function definitions.
//!
//! Resolution is name-based (there is no type inference): a method call
//! `.name(…)` may reach every workspace method named `name`; a path call
//! `Qualifier::name(…)` reaches methods of the type `Qualifier`, falling
//! back to free functions named `name` when the qualifier is a module
//! path segment (`kernel::delivered_swing_volts`); a bare call reaches free
//! functions. This over-approximates reachability, which is the safe
//! direction for `alloc-in-hot-path`: a function the graph *might* reach
//! from a hot root must stay allocation-free.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::exprs::{CallKind, FnDef};

/// One function definition, located in the workspace.
#[derive(Debug, Clone)]
pub struct Node {
    /// Crate name (`srlr-core`), empty for root `src/` files.
    pub crate_name: String,
    /// File module path (`kernel` for `crates/core/src/kernel.rs`).
    pub module: String,
    /// Index of the file in the caller's file list.
    pub file: usize,
    /// Index of the definition in that file's `FnDef` list.
    pub def: usize,
    /// Enclosing impl/trait type, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
}

impl Node {
    /// `crate::Owner::name` (owner segment omitted for free functions in
    /// the crate root module).
    pub fn display(&self) -> String {
        let mid = match (&self.owner, self.module.as_str()) {
            (Some(o), _) => format!("{o}::"),
            (None, "") => String::new(),
            (None, m) => format!("{m}::"),
        };
        format!("{}::{mid}{}", self.crate_name, self.name)
    }
}

/// The workspace call graph: nodes are function definitions, edges are
/// name-resolved call sites.
pub struct CallGraph {
    nodes: Vec<Node>,
    /// Adjacency: callee node ids per node.
    edges: Vec<Vec<usize>>,
}

/// One file's definitions with their workspace location, as input to
/// [`CallGraph::build`].
pub struct FileFns<'a> {
    /// Crate name (`srlr-core`), empty for root `src/` files.
    pub crate_name: String,
    /// File module path (`kernel` for `crates/core/src/kernel.rs`).
    pub module: String,
    /// The file's parsed function definitions.
    pub defs: &'a [FnDef],
}

impl CallGraph {
    /// Builds the graph from every file's parsed definitions.
    ///
    /// `allows(caller_crate, callee_crate)` prunes edges the workspace
    /// dependency DAG forbids (directory names as in `crate_of`: `link`
    /// cannot call into `noc`, so a method named `step` in `noc` is not
    /// a candidate callee for `link` code).
    pub fn build(files: &[FileFns<'_>], allows: impl Fn(&str, &str) -> bool) -> CallGraph {
        let mut nodes = Vec::new();
        for (file, f) in files.iter().enumerate() {
            for (def, d) in f.defs.iter().enumerate() {
                nodes.push(Node {
                    crate_name: f.crate_name.clone(),
                    module: f.module.clone(),
                    file,
                    def,
                    owner: d.owner.clone(),
                    name: d.name.clone(),
                });
            }
        }
        // Name-resolution indexes.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut owned: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    methods.entry(&n.name).or_default().push(id);
                    owned.entry((o, &n.name)).or_default().push(id);
                }
                None => free.entry(&n.name).or_default().push(id),
            }
        }
        let mut edges = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            let def = &files[n.file].defs[n.def];
            let mut out = Vec::new();
            for call in &def.calls {
                let targets: Option<&Vec<usize>> = match call.kind {
                    CallKind::Method => methods.get(call.name.as_str()),
                    CallKind::Path => match &call.qualifier {
                        Some(q) => owned
                            .get(&(q.as_str(), call.name.as_str()))
                            .or_else(|| free.get(call.name.as_str())),
                        None => free.get(call.name.as_str()),
                    },
                    CallKind::Bare => free.get(call.name.as_str()),
                    CallKind::Macro => None,
                };
                if let Some(targets) = targets {
                    out.extend(
                        targets
                            .iter()
                            .copied()
                            .filter(|&t| allows(&n.crate_name, &nodes[t].crate_name)),
                    );
                }
            }
            out.sort_unstable();
            out.dedup();
            edges[id] = out;
        }
        CallGraph { nodes, edges }
    }

    /// All nodes, indexable by node id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Resolves a hot-root pattern to node ids.
    ///
    /// Accepted shapes (crate names as in `Cargo.toml`, e.g. `srlr-core`):
    /// * `crate::Owner::fn` — a method (the middle segment also matches a
    ///   file module, so `crate::module::fn` finds free functions),
    /// * `crate::fn` — a free function in any module of the crate,
    /// * `crate::Owner::*` / `crate::module::*` — every function of a
    ///   type or file module.
    pub fn resolve_pattern(&self, pattern: &str) -> Vec<usize> {
        let parts: Vec<&str> = pattern.split("::").collect();
        let matches = |id: usize| -> bool {
            let n = &self.nodes[id];
            match parts.as_slice() {
                [krate, name] => n.crate_name == *krate && n.owner.is_none() && n.name == *name,
                [krate, mid, name] => {
                    n.crate_name == *krate
                        && (n.owner.as_deref() == Some(*mid)
                            || (n.owner.is_none() && n.module == *mid))
                        && (*name == "*" || n.name == *name)
                }
                _ => false,
            }
        };
        (0..self.nodes.len()).filter(|&id| matches(id)).collect()
    }

    /// BFS reachability from the given roots. Returns, per node, the
    /// root node id that reaches it (`None` when unreachable). Roots
    /// reach themselves.
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut reached: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if r < self.nodes.len() && reached[r].is_none() {
                reached[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            let root = reached[id];
            for &next in &self.edges[id] {
                if reached[next].is_none() {
                    reached[next] = root;
                    queue.push_back(next);
                }
            }
        }
        reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ParsedFile;

    fn parse_fns(rel: &str, src: &str) -> Vec<FnDef> {
        ParsedFile::parse(rel.to_string(), src.to_string()).0.fns
    }

    fn graph(defs: &[Vec<FnDef>], meta: &[(&str, &str)]) -> CallGraph {
        let files: Vec<FileFns<'_>> = defs
            .iter()
            .zip(meta)
            .map(|(d, (krate, module))| FileFns {
                crate_name: krate.to_string(),
                module: module.to_string(),
                defs: d,
            })
            .collect();
        CallGraph::build(&files, |_, _| true)
    }

    #[test]
    fn path_calls_reach_methods_and_free_fns() {
        let a = parse_fns("a.rs", "pub fn top() { Dev::make(); helper::leaf(); }");
        let b = parse_fns(
            "b.rs",
            "struct Dev; impl Dev { fn make() -> Dev { Dev } }\npub fn leaf() {}",
        );
        let g = graph(&[a, b], &[("srlr-x", ""), ("srlr-y", "helper")]);
        let roots = g.resolve_pattern("srlr-x::top");
        assert_eq!(roots.len(), 1);
        let reached = g.reachable_from(&roots);
        let hit: Vec<&str> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|(id, _)| reached[*id].is_some())
            .map(|(_, n)| n.name.as_str())
            .collect();
        assert_eq!(hit, ["top", "make", "leaf"]);
    }

    #[test]
    fn method_calls_resolve_by_name_over_approximately() {
        let a = parse_fns("a.rs", "pub fn go(d: Dev) { d.fire(); }");
        let b = parse_fns(
            "b.rs",
            "impl Dev { fn fire(&self) {} } impl Other { fn fire(&self) {} }",
        );
        let g = graph(&[a, b], &[("srlr-x", ""), ("srlr-y", "dev")]);
        let reached = g.reachable_from(&g.resolve_pattern("srlr-x::go"));
        let hits = reached.iter().flatten().count();
        assert_eq!(hits, 3, "both `fire` methods are reachable");
    }

    #[test]
    fn wildcard_pattern_matches_modules_and_owners() {
        let a = parse_fns("a.rs", "pub fn one() {} pub fn two() {}");
        let b = parse_fns("b.rs", "impl Dev { fn m(&self) {} }");
        let g = graph(&[a, b], &[("srlr-x", "kernel"), ("srlr-x", "dev")]);
        assert_eq!(g.resolve_pattern("srlr-x::kernel::*").len(), 2);
        assert_eq!(g.resolve_pattern("srlr-x::Dev::*").len(), 1);
        assert_eq!(g.resolve_pattern("srlr-x::Dev::m").len(), 1);
        assert!(g.resolve_pattern("srlr-x::nope::*").is_empty());
    }

    #[test]
    fn layering_filter_prunes_cross_crate_edges() {
        let a = parse_fns("a.rs", "pub fn go(d: Dev) { d.fire(); }");
        let b = parse_fns("b.rs", "impl Dev { fn fire(&self) {} }");
        let files: Vec<FileFns<'_>> = [("srlr-low", &a), ("srlr-high", &b)]
            .into_iter()
            .map(|(krate, defs)| FileFns {
                crate_name: krate.to_string(),
                module: String::new(),
                defs,
            })
            .collect();
        let g = CallGraph::build(&files, |from, to| {
            !(from == "srlr-low" && to == "srlr-high")
        });
        let reached = g.reachable_from(&g.resolve_pattern("srlr-low::go"));
        assert_eq!(reached.iter().flatten().count(), 1, "only the root itself");
    }

    #[test]
    fn reachability_reports_the_reaching_root() {
        let a = parse_fns(
            "a.rs",
            "pub fn r1() { shared(); } pub fn r2() {} pub fn shared() {}",
        );
        let g = graph(&[a], &[("srlr-x", "")]);
        let r1 = g.resolve_pattern("srlr-x::r1");
        let r2 = g.resolve_pattern("srlr-x::r2");
        let roots: Vec<usize> = r1.iter().chain(&r2).copied().collect();
        let reached = g.reachable_from(&roots);
        let shared = g.nodes().iter().position(|n| n.name == "shared").unwrap();
        assert_eq!(reached[shared], Some(r1[0]), "shared is reached via r1");
    }
}
