//! Regenerators of the committed `BENCH_*.json` snapshots.
//!
//! Each bench target under `benches/` (`noc_faults`, `model_check`,
//! `lint_bench`) is a plain `harness = false` program that recomputes one
//! deterministic snapshot and writes it through [`report`]. CI's
//! perf-regression job gates the regenerated files against the committed
//! ones with `srlr bench-diff`. The paper's tables and figures are
//! printed by the `srlr` binary, not here.

#![forbid(unsafe_code)]

pub mod report;
