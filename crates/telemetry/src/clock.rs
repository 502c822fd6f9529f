//! Time sources for profiling.
//!
//! Everything else in the workspace is deterministic — simulated time,
//! trial indices, cycle counts — and `clippy::disallowed_types` bans the
//! wall clock outside this module. Profiling
//! is the one place real time is genuinely wanted, so [`Clock`] fences
//! it: release binaries profile against [`Clock::wall`], while tests use
//! [`Clock::tick`] (every read advances a virtual counter, so timings
//! are a pure function of the read sequence) or [`Clock::manual`]
//! (tests advance time explicitly). Profile *structure* — frame paths
//! and invocation counts — never depends on which clock is installed;
//! only the reported seconds do, which is why timing lives in its own
//! sink excluded from the byte-identity assertions (DESIGN.md §8).
//!
//! All variants are thread-safe: readings go through atomics, so one
//! `Clock` can be read from parallel workers.

#![expect(
    clippy::disallowed_types,
    reason = "this module is the one fence around the wall clock"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic time source reporting seconds as `f64`.
#[derive(Debug)]
pub struct Clock {
    inner: ClockInner,
}

#[derive(Debug)]
enum ClockInner {
    /// Real elapsed time since construction.
    Wall(Instant),
    /// Deterministic virtual time: each read returns the current count
    /// times `step_s`, then advances the count by one.
    Tick { count: AtomicU64, step_s: f64 },
    /// Time stands still until a test calls [`Clock::advance`].
    /// (Stored as `f64` bits for atomic access.)
    Manual(AtomicU64),
}

impl Clock {
    /// Real wall-clock time; `now` reports seconds since this call.
    /// Only for release profiling — never inside tests that assert
    /// deterministic output.
    pub fn wall() -> Self {
        Self {
            inner: ClockInner::Wall(Instant::now()),
        }
    }

    /// A deterministic clock that advances by `step_s` virtual seconds
    /// on every read. With this clock a profile's timings depend only
    /// on the sequence of reads, so tests can assert them exactly.
    pub fn tick(step_s: f64) -> Self {
        Self {
            inner: ClockInner::Tick {
                count: AtomicU64::new(0),
                step_s,
            },
        }
    }

    /// A clock that only moves when [`Clock::advance`] is called.
    pub fn manual() -> Self {
        Self {
            inner: ClockInner::Manual(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Current reading in seconds. Tick clocks advance on every read.
    pub fn now(&self) -> f64 {
        match &self.inner {
            ClockInner::Wall(epoch) => epoch.elapsed().as_secs_f64(),
            ClockInner::Tick { count, step_s } => {
                let n = count.fetch_add(1, Ordering::Relaxed);
                n as f64 * step_s
            }
            ClockInner::Manual(bits) => f64::from_bits(bits.load(Ordering::Relaxed)),
        }
    }

    /// Moves a [`Clock::manual`] clock forward by `seconds`; a no-op on
    /// the other variants.
    pub fn advance(&self, seconds: f64) {
        if let ClockInner::Manual(bits) = &self.inner {
            // Single-writer CAS loop: tests advance from one thread,
            // but keep it correct under contention anyway.
            let mut cur = bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + seconds).to_bits();
                match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// A fresh clock of the same kind, restarted at zero. Parallel
    /// workers profile into per-item children whose clocks are forked
    /// so durations stay local to the item.
    pub fn fork(&self) -> Self {
        match &self.inner {
            ClockInner::Wall(_) => Clock::wall(),
            ClockInner::Tick { step_s, .. } => Clock::tick(*step_s),
            ClockInner::Manual(bits) => Self {
                inner: ClockInner::Manual(AtomicU64::new(bits.load(Ordering::Relaxed))),
            },
        }
    }

    /// Short name of the clock kind, recorded in profile headers.
    pub fn kind(&self) -> &'static str {
        match &self.inner {
            ClockInner::Wall(_) => "wall",
            ClockInner::Tick { .. } => "tick",
            ClockInner::Manual(_) => "manual",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_advances_on_every_read() {
        let c = Clock::tick(0.5);
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.now(), 0.5);
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.kind(), "tick");
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let c = Clock::manual();
        assert_eq!(c.now(), 0.0);
        assert_eq!(c.now(), 0.0);
        c.advance(2.25);
        assert_eq!(c.now(), 2.25);
        c.advance(0.75);
        assert_eq!(c.now(), 3.0);
        assert_eq!(c.kind(), "manual");
    }

    #[test]
    fn wall_clock_is_monotone() {
        let c = Clock::wall();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a >= 0.0);
        assert_eq!(c.kind(), "wall");
    }

    #[test]
    fn fork_restarts_tick_clocks_at_zero() {
        let c = Clock::tick(1.0);
        let _ = c.now();
        let _ = c.now();
        let f = c.fork();
        assert_eq!(f.now(), 0.0, "forked tick clock restarts");
        // The parent keeps its own count.
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn fork_copies_manual_reading() {
        let c = Clock::manual();
        c.advance(5.0);
        let f = c.fork();
        assert_eq!(f.now(), 5.0);
        f.advance(1.0);
        assert_eq!(f.now(), 6.0);
        assert_eq!(c.now(), 5.0, "advancing the fork leaves the parent");
    }

    #[test]
    fn advance_on_non_manual_clocks_is_a_no_op() {
        let c = Clock::tick(1.0);
        c.advance(100.0);
        assert_eq!(c.now(), 0.0);
    }
}
