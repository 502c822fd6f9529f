//! `srlr-prof`: profile analysis for the workspace's self-profiling
//! layer.
//!
//! `srlr-telemetry`'s [`Profiler`](srlr_telemetry::Profiler) produces
//! aggregated call trees ([`Profile`](srlr_telemetry::Profile)); this
//! crate turns them into artifacts and verdicts:
//!
//! * [`folded`] — folded-stack rendering (`frame;frame value` lines,
//!   the format speedscope and inferno/`flamegraph.pl` load directly),
//!   plus a parser for reading folded files back. Folded stacks are the
//!   one on-disk profile format.
//! * [`hotspot`] — top-N self-time attribution tables ranked from
//!   folded lines, the numbers an optimization PR argues from.
//! * [`diff`] — structured comparison of two `RunReport`s with
//!   relative tolerance bands; drives the `srlr bench-diff` CLI and the
//!   CI gates on the committed run-report snapshots (exit 1 on
//!   regression, 2 on usage, 0 when clean — the workspace-wide
//!   contract).
//!
//! The crate is deliberately a *consumer*: it depends only on
//! `srlr-telemetry` and never touches the clock itself, so analysis is
//! a pure function of its inputs.

pub mod diff;
pub mod folded;
pub mod hotspot;

pub use diff::{diff_reports, DiffEntry, DiffKind, DiffOptions, DiffReport};
pub use folded::{fold, parse_folded, FoldedLine};
pub use hotspot::{hotspots, render_table, Hotspot};
