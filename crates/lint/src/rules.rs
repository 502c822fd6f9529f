//! The rule catalog: every invariant `srlr-lint` enforces, with the
//! rationale each rule encodes.
//!
//! The Fig. 6 Monte Carlo, the shmoo/bathtub sweeps and the NoC
//! fault-injection runs promise bit-identical results at every thread
//! count and across machines, and sweep points that degrade instead of
//! aborting. The per-token halves of those promises (no `unwrap`, no
//! `HashMap`, no wall clock, no stray threads, no prints, doc coverage,
//! no truncating casts) are rustc and clippy lints in the workspace
//! `[lints]` table; the rules here are the ones that need the whole
//! workspace, plus `float-eq`, which clippy's `float_cmp` checks less
//! strictly (it misses `0.0 != x`).

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `==`/`!=` against a float literal: exact float comparison is
    /// usually a tolerance bug. (Token-level: only literal operands are
    /// detectable.)
    FloatEq,
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
    /// A `srlr-lint:` suppression comment that is malformed, names an
    /// unknown rule, or omits the mandatory `reason = "…"`.
    BadSuppression,
}

/// Every rule, in reporting order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::FloatEq,
    RuleId::RawF64Api,
    RuleId::CrateLayering,
    RuleId::ApiLock,
    RuleId::AllocInHotPath,
    RuleId::UnorderedFloatReduce,
    RuleId::RngStreamDiscipline,
    RuleId::BadSuppression,
];

impl RuleId {
    /// The stable kebab-case name used in suppressions and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::FloatEq => "float-eq",
            RuleId::RawF64Api => "raw-f64-api",
            RuleId::CrateLayering => "crate-layering",
            RuleId::ApiLock => "api-lock",
            RuleId::AllocInHotPath => "alloc-in-hot-path",
            RuleId::UnorderedFloatReduce => "unordered-float-reduce",
            RuleId::RngStreamDiscipline => "rng-stream-discipline",
            RuleId::BadSuppression => "bad-suppression",
        }
    }

    /// Parses a rule name (as written in a suppression).
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description for `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::FloatEq => "no ==/!= against float literals",
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
            RuleId::BadSuppression => "suppression comments need a known rule and a reason",
        }
    }

    /// Rules that may be suppressed inline. The meta-rule about the
    /// lint's own suppressions cannot be waved through.
    pub fn suppressible(self) -> bool {
        self != RuleId::BadSuppression
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
        assert!(RuleId::FloatEq.suppressible());
    }
}
