//! Rate-limited progress reporting for long sweeps.
//!
//! The limiter is deterministic in *count* by default: one line is
//! written to stderr at every decile of `total`. Ticks arrive from
//! parallel workers; the atomic counter hands each decile boundary to
//! exactly one worker, so the *set* of lines printed is identical at
//! any thread count (their interleaving on stderr is not, which is why
//! progress goes to stderr and is excluded from the bit-identity
//! contract that the file sinks honour).
//!
//! An optional [`Clock`] adds time-based rate limiting on top: decile
//! lines closer together than `min_interval_s` are suppressed (the
//! final line always prints). Because the clock is the [`Clock`]
//! abstraction rather than the wall clock directly, the limiter is
//! unit-testable with [`Clock::manual`] — `clippy::disallowed_types`
//! keeps `Instant` itself fenced inside [`crate::clock`].

use crate::clock::Clock;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts completed work items and reports deciles to stderr.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    label: String,
    total: u64,
    stride: u64,
    done: AtomicU64,
    /// Time source for rate limiting; `None` = count-based only.
    clock: Option<Clock>,
    min_interval_s: f64,
    /// Reading (seconds, as `f64` bits) of the last printed line.
    last_print: AtomicU64,
}

impl Default for Progress {
    fn default() -> Self {
        Progress::disabled()
    }
}

impl Progress {
    /// A silent progress sink.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            label: String::new(),
            total: 0,
            stride: 1,
            done: AtomicU64::new(0),
            clock: None,
            min_interval_s: 0.0,
            last_print: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// A reporting progress sink over `total` work items.
    pub fn enabled(label: &str, total: u64) -> Self {
        Self {
            enabled: true,
            label: label.to_owned(),
            total,
            stride: (total / 10).max(1),
            done: AtomicU64::new(0),
            clock: None,
            min_interval_s: 0.0,
            last_print: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// [`Progress::enabled`] with time-based rate limiting: decile
    /// lines are additionally suppressed unless at least
    /// `min_interval_s` seconds (by `clock`) have passed since the last
    /// printed line. The 100% line always prints.
    pub fn enabled_with_clock(label: &str, total: u64, clock: Clock, min_interval_s: f64) -> Self {
        Self {
            clock: Some(clock),
            min_interval_s,
            ..Self::enabled(label, total)
        }
    }

    /// Whether ticks produce output.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Work items completed so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Whether the rate limiter lets a line print now. Only consulted
    /// at decile boundaries, so the per-tick hot path reads no clock.
    fn rate_limit_allows(&self, is_final: bool) -> bool {
        let Some(clock) = &self.clock else {
            return true;
        };
        if is_final {
            return true;
        }
        let now = clock.now();
        let last = f64::from_bits(self.last_print.load(Ordering::Relaxed));
        if now - last >= self.min_interval_s {
            self.last_print.store(now.to_bits(), Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Records one completed work item; prints a decile line when this
    /// tick crosses a boundary (and the rate limiter allows it). Safe
    /// to call from parallel workers.
    pub fn tick(&self) {
        if !self.enabled {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.stride) || done == self.total {
            if !self.rate_limit_allows(done == self.total) {
                return;
            }
            let pct = (done * 100).checked_div(self.total).unwrap_or(100);
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "srlr: {} {done}/{} ({pct}%)", self.label, self.total);
        }
    }

    /// How many of the next `n` ticks would print, without printing.
    /// Test hook for the limiter (stderr itself is not captured).
    pub fn dry_run(&self, n: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut printed = 0;
        for _ in 0..n {
            let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
            if (done.is_multiple_of(self.stride) || done == self.total)
                && self.rate_limit_allows(done == self.total)
            {
                printed += 1;
            }
        }
        printed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_progress_counts_nothing() {
        let p = Progress::disabled();
        p.tick();
        p.tick();
        assert!(!p.is_enabled());
        assert_eq!(p.done(), 0);
        assert_eq!(p.dry_run(10), 0);
    }

    #[test]
    fn enabled_progress_counts_ticks() {
        let p = Progress::enabled("trials", 25);
        for _ in 0..25 {
            p.tick();
        }
        assert!(p.is_enabled());
        assert_eq!(p.done(), 25);
    }

    #[test]
    fn tiny_totals_do_not_divide_by_zero() {
        let p = Progress::enabled("x", 0);
        p.tick();
        let p = Progress::enabled("y", 1);
        p.tick();
        assert_eq!(p.done(), 1);
    }

    #[test]
    fn without_a_clock_every_decile_prints() {
        let p = Progress::enabled("x", 100);
        assert_eq!(p.dry_run(100), 10, "one line per decile");
    }

    #[test]
    fn frozen_clock_suppresses_all_but_first_and_final() {
        // A manual clock that never advances: only the first decile
        // (limiter opens at -inf) and the forced 100% line print.
        let p = Progress::enabled_with_clock("x", 100, Clock::manual(), 5.0);
        assert_eq!(p.dry_run(100), 2);
    }

    #[test]
    fn advancing_clock_reopens_the_limiter() {
        let clock = Clock::manual();
        let p = Progress::enabled_with_clock("x", 100, clock, 5.0);
        assert_eq!(p.dry_run(10), 1, "10%: limiter opens");
        assert_eq!(p.dry_run(10), 0, "20%: suppressed, no time passed");
        if let Some(c) = &p.clock {
            c.advance(5.0);
        }
        assert_eq!(p.dry_run(10), 1, "30%: interval elapsed");
        assert_eq!(p.dry_run(10), 0, "40%: suppressed again");
    }

    #[test]
    fn final_line_prints_even_when_rate_limited() {
        let p = Progress::enabled_with_clock("x", 20, Clock::manual(), 1e9);
        let printed = p.dry_run(20);
        assert_eq!(printed, 2, "first decile + forced 100% line");
        assert_eq!(p.done(), 20);
    }

    #[test]
    fn zero_interval_never_suppresses() {
        let p = Progress::enabled_with_clock("x", 50, Clock::manual(), 0.0);
        assert_eq!(p.dry_run(50), 10);
    }
}
