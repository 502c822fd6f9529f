//! The rule catalog: every invariant `srlr-lint` enforces, with the
//! rationale each rule encodes.
//!
//! The rules exist because two guarantees of this reproduction are
//! load-bearing and easy to erode silently:
//!
//! * **Determinism** — the Fig. 6 Monte Carlo, the shmoo/bathtub sweeps
//!   and the NoC fault-injection runs promise bit-identical results at
//!   every thread count and across machines. A single `HashMap` iteration
//!   in a result-bearing path, a wall-clock call, or an untracked thread
//!   breaks that promise without failing any test on the machine it was
//!   written on.
//! * **No-panic library path** — `Network::run_until_delivered` and the
//!   histogram/percentile APIs were converted to typed errors so that a
//!   sweep point degrades instead of aborting a multi-hour run; a stray
//!   `unwrap()` reintroduces the abort.

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `unwrap`/`expect` calls and `panic!`-family macros in non-test
    /// library code. Use typed errors, graceful degradation, or an
    /// `assert!` with a message for documented preconditions.
    NoPanic,
    /// `HashMap`/`HashSet` anywhere in non-test code: iteration order is
    /// randomized per process, which can leak into results. Use
    /// `BTreeMap`/`BTreeSet` or suppress with a justification.
    DetMap,
    /// `Instant`/`SystemTime` outside `srlr-telemetry`'s `clock` module
    /// (which fences the wall clock behind the `Clock` abstraction):
    /// wall-clock reads make results time-dependent.
    DetTime,
    /// `spawn(...)` calls outside `srlr-parallel`: all concurrency must go
    /// through the deterministic index-ordered pool.
    DetSpawn,
    /// `==`/`!=` against a float literal: exact float comparison is
    /// usually a tolerance bug. (Token-level: only literal operands are
    /// detectable.)
    FloatEq,
    /// `println!`-family macros in library code: libraries return strings
    /// or write through `io::Write`/the telemetry sinks so output stays
    /// testable and redirectable. Binaries (`main.rs`) and the bench
    /// harness crate keep printing.
    NoPrint,
    /// Public item without a doc comment, in the crates configured for
    /// doc coverage (`srlr-tech`, `srlr-circuit`, `srlr-units`).
    MissingDoc,
    /// Advisory: `expr[index]` can panic; prefer `.get()` on untrusted
    /// indices. Off by default (token-level analysis cannot see types),
    /// enabled with `--warn-indexing`.
    Indexing,
    /// A public fn or field in the dimensioned crates (`tech`, `circuit`,
    /// `core`, `link`) that takes or returns a bare `f64` where an
    /// `srlr-units` newtype exists. Genuinely dimensionless values carry
    /// an inline `allow` explaining why.
    RawF64Api,
    /// A `use srlr_*` import or a `Cargo.toml` dependency that points
    /// against the crate DAG `units → tech → circuit → core → link → noc`
    /// (with `rng`/`parallel`/`telemetry` as shared leaves).
    CrateLayering,
    /// The crate's public surface drifted from its committed
    /// `api-lock.txt` snapshot: an addition or removal that nobody
    /// reviewed. Accept intentional changes with `--write-api-lock`.
    ApiLock,
    /// A heap-allocating call (`Vec::new`, `push`, `collect`, `clone`,
    /// `to_vec`, `format!`, `Box::new`, …) inside a function reachable
    /// from a profiler-designated hot root declared in
    /// `lint-hotpaths.txt`. The kernel tier must stay allocation-free so
    /// its cost is pure arithmetic.
    AllocInHotPath,
    /// A floating-point reduction (`.sum::<f64>()`, `.fold(0.0, …)`,
    /// `.product::<f64>()`) over an iterator chain containing an
    /// order-unspecified adapter (`par_bridge`, `par_iter`, `read_dir`,
    /// …). Float addition is not associative; merged parallel results
    /// must come through `par_map_indexed`-ordered outputs.
    UnorderedFloatReduce,
    /// RNG construction (`Xoshiro256pp::new`/`for_stream`,
    /// `stream_seed`, `splitmix64`) outside `srlr-rng` and the
    /// registered sampler entry points: every stream must stay
    /// counter-derived from a trial index.
    RngStreamDiscipline,
    /// An `as` cast to a sub-word integer type in library code:
    /// truncation and sign wrap are silent. Use `From`/`try_from`, or
    /// allow with a reason proving the range.
    LossyCast,
    /// A `srlr-lint:` suppression comment that is malformed, names an
    /// unknown rule, or omits the mandatory `reason = "…"`.
    BadSuppression,
    /// A baseline entry that no longer matches any violation: the
    /// baseline file may only shrink, so stale entries must be deleted.
    StaleBaseline,
}

/// Every rule, in reporting order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::NoPanic,
    RuleId::DetMap,
    RuleId::DetTime,
    RuleId::DetSpawn,
    RuleId::FloatEq,
    RuleId::NoPrint,
    RuleId::MissingDoc,
    RuleId::Indexing,
    RuleId::RawF64Api,
    RuleId::CrateLayering,
    RuleId::ApiLock,
    RuleId::AllocInHotPath,
    RuleId::UnorderedFloatReduce,
    RuleId::RngStreamDiscipline,
    RuleId::LossyCast,
    RuleId::BadSuppression,
    RuleId::StaleBaseline,
];

impl RuleId {
    /// The stable kebab-case name used in suppressions, baselines and
    /// diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoPanic => "no-panic",
            RuleId::DetMap => "det-map",
            RuleId::DetTime => "det-time",
            RuleId::DetSpawn => "det-spawn",
            RuleId::FloatEq => "float-eq",
            RuleId::NoPrint => "no-print",
            RuleId::MissingDoc => "missing-doc",
            RuleId::Indexing => "indexing",
            RuleId::RawF64Api => "raw-f64-api",
            RuleId::CrateLayering => "crate-layering",
            RuleId::ApiLock => "api-lock",
            RuleId::AllocInHotPath => "alloc-in-hot-path",
            RuleId::UnorderedFloatReduce => "unordered-float-reduce",
            RuleId::RngStreamDiscipline => "rng-stream-discipline",
            RuleId::LossyCast => "lossy-cast",
            RuleId::BadSuppression => "bad-suppression",
            RuleId::StaleBaseline => "stale-baseline",
        }
    }

    /// Parses a rule name (as written in a suppression or baseline).
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::NoPanic => {
                "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test library code"
            }
            RuleId::DetMap => "no HashMap/HashSet (iteration order leaks): use BTreeMap/BTreeSet",
            RuleId::DetTime => "no Instant/SystemTime outside telemetry::clock",
            RuleId::DetSpawn => "no spawn() outside srlr-parallel",
            RuleId::FloatEq => "no ==/!= against float literals",
            RuleId::NoPrint => {
                "no println!/eprintln!/print!/eprint!/dbg! in library code (main.rs and \
                 crates/bench may print)"
            }
            RuleId::MissingDoc => "public items in doc-covered crates need doc comments",
            RuleId::Indexing => "advisory: expr[index] can panic (enable with --warn-indexing)",
            RuleId::RawF64Api => {
                "public fns/fields in dimensioned crates must use srlr-units newtypes, not bare f64"
            }
            RuleId::CrateLayering => {
                "imports and Cargo.toml deps must follow units -> tech -> circuit -> core -> \
                 link -> noc"
            }
            RuleId::ApiLock => {
                "public API surface must match the committed api-lock.txt (--write-api-lock to \
                 accept)"
            }
            RuleId::AllocInHotPath => {
                "no heap-allocating calls in functions reachable from the lint-hotpaths.txt \
                 hot roots"
            }
            RuleId::UnorderedFloatReduce => {
                "no float reductions over order-unspecified iteration; merge parallel results \
                 through par_map_indexed"
            }
            RuleId::RngStreamDiscipline => {
                "no RNG construction outside srlr-rng and the registered sampler entry points"
            }
            RuleId::LossyCast => {
                "no `as` casts to sub-word integer types in library code; use From/try_from \
                 or allow with a range argument"
            }
            RuleId::BadSuppression => "suppression comments need a known rule and a reason",
            RuleId::StaleBaseline => "baseline entries must match a real violation (shrink-only)",
        }
    }

    /// Advisory rules are reported but never fail the run, and are only
    /// scanned when explicitly enabled.
    pub fn advisory(self) -> bool {
        matches!(self, RuleId::Indexing)
    }

    /// Rules that may be suppressed inline. Meta-rules about the lint's
    /// own inputs cannot be waved through.
    pub fn suppressible(self) -> bool {
        !matches!(self, RuleId::BadSuppression | RuleId::StaleBaseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for &rule in ALL_RULES {
            assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        }
        assert_eq!(RuleId::from_name("nope"), None);
    }

    #[test]
    fn meta_rules_are_not_suppressible() {
        assert!(!RuleId::BadSuppression.suppressible());
        assert!(!RuleId::StaleBaseline.suppressible());
        assert!(RuleId::NoPanic.suppressible());
    }
}
