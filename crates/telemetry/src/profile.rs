//! Self-profiling: an aggregated span-hierarchy profiler behind the
//! [`Clock`] abstraction.
//!
//! [`Profiler`] is the workspace's one span system: a call tree in
//! which every frame knows its parent, its invocation count, and its
//! total versus self time (total minus time attributed to child
//! frames). Per-item records (a die's verdict, a BER point's tally) are
//! instant events on the [`crate::Collector`], not spans. Like the
//! collector it is **zero-cost when
//! disabled** — one `None` branch, no allocation — so instrumented hot
//! loops (the batched MC kernel, the NoC step loop, the model checker)
//! pay nothing unless a `--profile-out` flag turned profiling on.
//!
//! # Determinism contract (DESIGN.md §8)
//!
//! Profile *structure* — the set of frame paths and their invocation
//! counts — is a pure function of the work performed: parallel workers
//! profile into forked [`Profiler::child`] trees that are merged back
//! in item-index order by the calling thread, so structure
//! is identical at any thread count. Profile *timing* depends on the
//! installed [`Clock`]: release binaries use [`Clock::wall`], while
//! tests install [`Clock::tick`] and get bit-exact timings too. Timing
//! lives only in this sink (the [`Profile`] snapshot / folded output);
//! the JSONL, Chrome-trace, and metrics sinks never see it, which keeps
//! the workspace's byte-identity assertions intact.

use crate::clock::Clock;

/// One aggregated call-tree node (unique by path, not by invocation).
#[derive(Debug, Clone)]
struct Node {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total_s: f64,
    child_s: f64,
}

/// A live frame on the profiler stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: usize,
    start_s: f64,
}

#[derive(Debug)]
struct ProfInner {
    clock: Clock,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<Frame>,
}

/// Aggregating call-tree profiler; disabled by default and free when
/// disabled (every method is one branch on a `None`).
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Option<Box<ProfInner>>,
}

impl ProfInner {
    /// Index of the child of `parent` (or root) named `name`, creating
    /// it if this path is new.
    fn find_or_create(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&found) = siblings.iter().find(|&&c| self.nodes[c].name == name) {
            return found;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_owned(),
            parent,
            children: Vec::new(),
            count: 0,
            total_s: 0.0,
            child_s: 0.0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Merges `src[idx]` (and its subtree) under `parent` of `self`.
    fn merge_node(&mut self, parent: Option<usize>, src: &[Node], idx: usize) {
        let s = src[idx].clone();
        let dst = self.find_or_create(parent, &s.name);
        self.nodes[dst].count += s.count;
        self.nodes[dst].total_s += s.total_s;
        self.nodes[dst].child_s += s.child_s;
        for c in s.children {
            self.merge_node(Some(dst), src, c);
        }
    }

    /// Appends `idx`'s subtree to `profile` in depth-first preorder.
    fn snapshot_node(&self, profile: &mut Profile, idx: usize, parent: Option<usize>) {
        let n = &self.nodes[idx];
        let out = profile.nodes.len();
        profile.nodes.push(ProfileNode {
            name: n.name.clone(),
            parent,
            count: n.count,
            total_s: n.total_s,
            self_s: (n.total_s - n.child_s).max(0.0),
        });
        for &c in &n.children {
            self.snapshot_node(profile, c, Some(out));
        }
    }
}

impl Profiler {
    /// A profiler that records nothing and never allocates.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording profiler timing frames against `clock`.
    pub fn enabled(clock: Clock) -> Self {
        Self {
            inner: Some(Box::new(ProfInner {
                clock,
                nodes: Vec::new(),
                roots: Vec::new(),
                stack: Vec::new(),
            })),
        }
    }

    /// Whether frames are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a frame named `name` under the currently open frame (or at
    /// the root). Every `enter` must be paired with an [`Profiler::exit`].
    pub fn enter(&mut self, name: &str) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let parent = inner.stack.last().map(|f| f.node);
        let node = inner.find_or_create(parent, name);
        let start_s = inner.clock.now();
        inner.stack.push(Frame { node, start_s });
    }

    /// Closes the innermost open frame, charging its elapsed time to
    /// the frame's total and to the parent's child time. An `exit`
    /// without a matching `enter` is a no-op.
    pub fn exit(&mut self) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let Some(frame) = inner.stack.pop() else {
            return;
        };
        let dt = (inner.clock.now() - frame.start_s).max(0.0);
        let node = &mut inner.nodes[frame.node];
        node.count += 1;
        node.total_s += dt;
        if let Some(p) = node.parent {
            inner.nodes[p].child_s += dt;
        }
    }

    /// Bumps the invocation count of a zero-duration frame named `name`
    /// under the currently open frame — an event tally (certificate
    /// hits, killed lanes) that costs no clock read and no time.
    pub fn count(&mut self, name: &str) {
        self.count_n(name, 1);
    }

    /// [`Profiler::count`] by `n` at once.
    pub fn count_n(&mut self, name: &str, n: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let parent = inner.stack.last().map(|f| f.node);
        let node = inner.find_or_create(parent, name);
        inner.nodes[node].count += n;
    }

    /// A fresh profiler of the same kind (same clock family, restarted)
    /// for one parallel work item; merge it back with
    /// [`Profiler::merge`] in item-index order.
    pub fn child(&self) -> Profiler {
        match &self.inner {
            Some(inner) => Profiler::enabled(inner.clock.fork()),
            None => Profiler::disabled(),
        }
    }

    /// Folds `other`'s tree into this one under the currently open
    /// frame: matching paths sum their counts and times. Merging in
    /// item-index order keeps the structure thread-count-invariant.
    pub fn merge(&mut self, other: Profiler) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let Some(src) = other.inner else {
            return;
        };
        let attach = inner.stack.last().map(|f| f.node);
        for &root in &src.roots {
            // Time spent in a merged subtree overlaps the open frame's
            // wall time (workers run concurrently), so it charges the
            // attach point's child time; self time clamps at zero.
            if let Some(p) = attach {
                inner.nodes[p].child_s += src.nodes[root].total_s;
            }
            inner.merge_node(attach, &src.nodes, root);
        }
    }

    /// An immutable [`Profile`] snapshot of the tree so far (open
    /// frames contribute their finished invocations only).
    pub fn snapshot(&self) -> Profile {
        let mut profile = Profile {
            clock: String::new(),
            nodes: Vec::new(),
        };
        if let Some(inner) = self.inner.as_deref() {
            profile.clock = inner.clock.kind().to_owned();
            for &root in &inner.roots {
                inner.snapshot_node(&mut profile, root, None);
            }
        }
        profile
    }
}

/// One node of a serialized profile (depth-first preorder: a parent
/// always precedes its children, so `parent` indices point backwards).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Frame name as passed to [`Profiler::enter`].
    pub name: String,
    /// Index of the parent node, `None` for roots.
    pub parent: Option<usize>,
    /// Completed invocations (or tally for count-only frames).
    pub count: u64,
    /// Seconds spent in this frame including children.
    pub total_s: f64,
    /// Seconds spent in this frame excluding children (clamped at 0:
    /// merged parallel children can legitimately exceed the parent's
    /// elapsed wall time).
    pub self_s: f64,
}

/// An immutable aggregated profile: the timing sink. Rendered to
/// folded stacks by `srlr-prof`, whose hotspot table reads them back.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Which [`Clock`] kind produced the timings (`wall`, `tick`,
    /// `manual`, or empty for a disabled profiler's snapshot).
    pub clock: String,
    /// Nodes in depth-first preorder.
    pub nodes: Vec<ProfileNode>,
}

impl Profile {
    /// The root-to-node path of node `i`, joined with `;` (the folded
    /// stack convention).
    pub fn path(&self, i: usize) -> String {
        let mut parts = Vec::new();
        let mut cur = self.nodes.get(i);
        while let Some(n) = cur {
            parts.push(n.name.as_str());
            cur = n.parent.and_then(|p| self.nodes.get(p));
        }
        parts.reverse();
        parts.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick_profiler() -> Profiler {
        Profiler::enabled(Clock::tick(1.0))
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        p.enter("a");
        p.count("c");
        p.exit();
        assert!(!p.is_enabled());
        assert!(p.snapshot().nodes.is_empty());
        assert_eq!(p.snapshot().clock, "");
    }

    #[test]
    fn single_frame_times_against_the_clock() {
        let mut p = tick_profiler();
        p.enter("work"); // read 0 -> start 0
        p.exit(); // read 1 -> end 1
        let s = p.snapshot();
        assert_eq!(s.clock, "tick");
        assert_eq!(s.nodes.len(), 1);
        assert_eq!(s.nodes[0].name, "work");
        assert_eq!(s.nodes[0].count, 1);
        assert_eq!(s.nodes[0].total_s, 1.0);
        assert_eq!(s.nodes[0].self_s, 1.0);
        assert_eq!(s.nodes[0].parent, None);
    }

    #[test]
    fn nested_frames_split_self_from_total() {
        let mut p = tick_profiler();
        p.enter("outer"); // t=0
        p.enter("inner"); // t=1
        p.exit(); // t=2: inner total 1
        p.exit(); // t=3: outer total 3, child 1
        let s = p.snapshot();
        assert_eq!(s.nodes.len(), 2);
        let outer = &s.nodes[0];
        let inner = &s.nodes[1];
        assert_eq!(
            (outer.name.as_str(), outer.total_s, outer.self_s),
            ("outer", 3.0, 2.0)
        );
        assert_eq!(
            (inner.name.as_str(), inner.total_s, inner.self_s),
            ("inner", 1.0, 1.0)
        );
        assert_eq!(inner.parent, Some(0));
        assert_eq!(s.path(1), "outer;inner");
    }

    #[test]
    fn repeated_frames_aggregate_by_path() {
        let mut p = tick_profiler();
        for _ in 0..3 {
            p.enter("loop");
            p.exit();
        }
        let s = p.snapshot();
        assert_eq!(s.nodes.len(), 1);
        assert_eq!(s.nodes[0].count, 3);
        assert_eq!(s.nodes[0].total_s, 3.0);
    }

    #[test]
    fn count_frames_cost_no_time() {
        let mut p = tick_profiler();
        p.enter("scan");
        p.count("hit");
        p.count("hit");
        p.count_n("miss", 5);
        p.exit();
        let s = p.snapshot();
        assert_eq!(s.nodes.len(), 3);
        assert_eq!(s.nodes[0].total_s, 1.0, "counts read no clock");
        let hit = s.nodes.iter().find(|n| n.name == "hit").expect("hit node");
        assert_eq!((hit.count, hit.total_s), (2, 0.0));
        let miss = s
            .nodes
            .iter()
            .find(|n| n.name == "miss")
            .expect("miss node");
        assert_eq!(miss.count, 5);
    }

    #[test]
    fn recursion_nests_by_path() {
        let mut p = tick_profiler();
        p.enter("f");
        p.enter("f");
        p.exit();
        p.exit();
        let s = p.snapshot();
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.path(1), "f;f");
    }

    #[test]
    fn unbalanced_exit_is_a_no_op() {
        let mut p = tick_profiler();
        p.exit();
        p.enter("a");
        p.exit();
        p.exit();
        assert_eq!(p.snapshot().nodes.len(), 1);
    }

    #[test]
    fn children_merge_in_index_order_with_identical_structure() {
        // Simulates two workers; merging in index order must yield the
        // same structure regardless of who "finished" first.
        let run = |order: [usize; 2]| {
            let mut root = tick_profiler();
            root.enter("sweep");
            let mut kids: Vec<Option<Profiler>> = vec![None, None];
            for &i in &order {
                let mut c = root.child();
                c.enter("item");
                c.enter(if i == 0 { "fast" } else { "slow" });
                c.exit();
                c.exit();
                kids[i] = Some(c);
            }
            for c in kids.into_iter().flatten() {
                root.merge(c);
            }
            root.exit();
            let s = root.snapshot();
            s.nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (s.path(i), n.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(run([0, 1]), run([1, 0]), "merge order is index order");
        let shape = run([0, 1]);
        assert!(shape.iter().any(|(p, _)| p == "sweep;item;fast"));
        assert!(shape.iter().any(|(p, _)| p == "sweep;item;slow"));
        let item = shape.iter().find(|(p, _)| p == "sweep;item").expect("item");
        assert_eq!(item.1, 2, "both children merged");
    }

    #[test]
    fn merged_parallel_time_clamps_parent_self_at_zero() {
        let mut root = Profiler::enabled(Clock::manual());
        root.enter("region"); // 0s region, but children carry 5s each
        for _ in 0..2 {
            let c = root.child();
            let mut c = c;
            c.enter("work");
            // Advance this child's clock by 5 s inside the frame.
            if let Some(inner) = &c.inner {
                inner.clock.advance(5.0);
            }
            c.exit();
            root.merge(c);
        }
        root.exit();
        let s = root.snapshot();
        let region = &s.nodes[0];
        assert_eq!(region.self_s, 0.0, "parallel child time cannot go negative");
        let work = s.nodes.iter().find(|n| n.name == "work").expect("work");
        assert_eq!(work.total_s, 10.0);
        assert_eq!(work.count, 2);
    }

    #[test]
    fn merging_into_an_empty_profiler_adopts_roots() {
        let mut root = tick_profiler();
        let mut c = root.child();
        c.enter("a");
        c.exit();
        root.merge(c);
        let s = root.snapshot();
        assert_eq!(s.nodes.len(), 1);
        assert_eq!(s.nodes[0].parent, None);
    }

    #[test]
    fn snapshot_is_preorder() {
        let mut p = tick_profiler();
        p.enter("a");
        p.enter("b");
        p.exit();
        p.exit();
        p.enter("c");
        p.exit();
        let s = p.snapshot();
        let names: Vec<&str> = s.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        for (i, n) in s.nodes.iter().enumerate() {
            if let Some(parent) = n.parent {
                assert!(parent < i, "parents precede children");
            }
        }
    }
}
