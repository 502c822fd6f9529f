//! # srlr-model — exhaustive-state verification of the NoC retry protocol
//!
//! The cycle simulator in `srlr-noc` *samples* the link fault/retry
//! protocol; this crate *proves* it.  A discrete-state model checker
//! enumerates every reachable state of a wormhole packet crossing a
//! mesh under the PR 2 fault model — per-crossing CRC outcome, NACK,
//! bounded retry budget, `link_busy_until` watermark, drop at budget
//! exhaustion — and discharges three obligations on each XY route:
//!
//! 1. **Deadlock-freedom** — every non-terminal state has an enabled
//!    crossing;
//! 2. **No mid-wormhole overtaking** — a retried head flit is never
//!    overtaken by its own tail (the watermark invariant);
//! 3. **Termination** — every run ends in `Delivered` or
//!    `CountedDrop`, proven by a strictly increasing progress measure.
//!
//! Both the checker and the simulator drive the *same* pure transition
//! function, [`srlr_noc::protocol::retry_step`], so a semantics change
//! in one is a semantics change in both.
//!
//! The same state graph, weighted by per-crossing outcome
//! probabilities, is an absorbing discrete-time Markov chain.  It is
//! acyclic and its BFS order is topological, so one backward pass over
//! the explored edges solves `(I - Q) x = b` and yields the *exact*
//! delivery probability, which integration tests pin
//! inside the Monte Carlo Wilson interval of `ber_sweep` at every
//! swept BER.
//!
//! Failures are not booleans: a violated obligation carries a
//! replayable counterexample trace ([`Violation`]) that can be
//! re-executed step by step ([`replay_choices`]); [`verify_observed`]
//! records each one as `srlr-telemetry` events, and the CLI renders
//! them as text, JSON or SARIF.

#![forbid(unsafe_code)]

pub mod checker;

pub use checker::{
    check_pair, closed_form_delivery, crossing_outcomes, replay, replay_choices, verify,
    verify_observed, CrossingOutcome, ModelConfig, PairResult, Replayed, TraceStep, Variant,
    VerifyReport, Violation, ViolationKind,
};
