//! Decile progress reporting for long sweeps.
//!
//! One line is written to stderr at every decile of `total`. Ticks arrive from
//! parallel workers; the atomic counter hands each decile boundary to
//! exactly one worker, so the *set* of lines printed is identical at
//! any thread count (their interleaving on stderr is not, which is why
//! progress goes to stderr and is excluded from the bit-identity
//! contract that the file sinks honour).

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

    /// Records one completed work item; prints a decile line when this
    /// tick crosses a boundary. Safe to call from parallel workers.
    pub fn tick(&self) {
        if !self.enabled {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.stride) || done == self.total {
            let pct = (done * 100).checked_div(self.total).unwrap_or(100);
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "srlr: {} {done}/{} ({pct}%)", self.label, self.total);
        }
    }

    /// How many of the next `n` ticks would print, without printing.
    /// Test hook for the decile schedule (stderr itself is not captured).
    pub fn dry_run(&self, n: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut printed = 0;
        for _ in 0..n {
            let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
            if done.is_multiple_of(self.stride) || done == self.total {
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
}
