//! `srlr-telemetry`: deterministic, zero-cost-when-disabled telemetry.
//!
//! The reproduction's experiments are *measurements*, and measurements
//! need instruments. This crate is the workspace's instrumentation
//! layer: structured events, counters, and scalar metrics collected by
//! a [`Collector`] and drained through three sinks —
//!
//! 1. a JSONL structured-event stream
//!    ([`Collector::write_events_jsonl`]),
//! 2. a Chrome `trace_event` export of the events, loadable in
//!    Perfetto / `chrome://tracing` ([`Collector::chrome_trace_json`]),
//!    and
//! 3. a versioned machine-readable JSON run report ([`RunReport`])
//!    emitted by the CLI subcommands (`--metrics-out`) alongside their
//!    ASCII output.
//!
//! Spans — named, nested intervals of time — have one home: the
//! [`Profiler`]'s call tree, drained through its own folded-stack sink.
//!
//! All JSON is hand-rolled ([`json`]) — the workspace is hermetic and
//! carries no serde.
//!
//! # Invariants (enforced by `srlr-lint` and the crate's tests)
//!
//! * **Zero cost when disabled.** A disabled [`Collector`] is one
//!   `None`; every record method is a branch that returns without
//!   allocating. Instrumented hot loops are free when telemetry is off.
//! * **Simulated time only.** Timestamps are cycles, trial indices, or
//!   simulated picoseconds — never the wall clock
//!   (`clippy::disallowed_types` reserves that for this crate's
//!   [`clock`] module, where profiling fences it behind the [`Clock`]
//!   abstraction).
//! * **Bit-identical at any worker count.** Parallel stages return
//!   their results in item-index order (`par_map_indexed`), and the
//!   calling thread records every event and metric from those ordered
//!   results; per-item events carry their item index. Every file sink's
//!   bytes are identical at `--threads 1/2/8`.
//! * **Deterministic iteration.** All key/value state lives in
//!   `BTreeMap`s; sinks emit sorted-key order.

pub mod clock;
pub mod collect;
pub mod json;
pub mod profile;
pub mod progress;
pub mod report;
pub mod sarif;

pub use clock::Clock;
pub use collect::{Collector, Event};
pub use json::{Json, Value};
pub use profile::{Profile, ProfileNode, Profiler};
pub use progress::Progress;
pub use report::{index_key, RunReport, RUN_REPORT_VERSION};
pub use sarif::SarifDoc;

/// The observability hooks of one run: a collector of events, counters
/// and metrics for the file sinks, a progress reporter, and a call-tree
/// profiler (the timing sink and the only span system).
///
/// Every instrumented experiment takes them as its last argument,
/// `obs: &mut Obs`, and records into whichever hooks are enabled; the
/// caller creates the `Obs` and drains it afterwards. [`Obs::none`]
/// (the default) is free — every hook is one branch on a disabled sink
/// and does no work — and the results are bit-identical either way.
#[derive(Debug, Default)]
pub struct Obs {
    /// Structured event/metric collector (drained by the caller).
    pub collector: Collector,
    /// Progress reporting to stderr.
    pub progress: Progress,
    /// Call-tree profiler, the one span system; its timings stay in
    /// the profile sink, excluded from the byte-identity contract of
    /// the other sinks.
    pub profiler: Profiler,
}

impl Obs {
    /// No observability: all hooks disabled.
    pub fn none() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_none_is_inactive() {
        let obs = Obs::none();
        assert!(!obs.collector.is_enabled());
        assert!(!obs.progress.is_enabled());
        assert!(!obs.profiler.is_enabled());
    }
}
