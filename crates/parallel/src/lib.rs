//! Deterministic fan-out of independent trials across OS threads.
//!
//! The workspace's statistical experiments (Monte Carlo dice, shmoo
//! cells, bathtub rate points) are all *embarrassingly
//! parallel once every trial is a pure function of `(seed, index)`*.
//! This crate provides the one combinator they share: [`par_map_indexed`]
//! evaluates `f(0..n)` across a bounded set of scoped threads and returns
//! the results **in index order**, so the output is bit-identical to the
//! serial loop at every thread count — parallelism changes wall-clock
//! time, never results.
//!
//! Thread-count policy ([`resolve_threads`]): an explicit request wins,
//! then the `SRLR_THREADS` environment variable, then the machine's
//! available parallelism. A resolved count of 1 takes a serial fast path
//! that spawns nothing.
//!
//! The crate is dependency-free (`std::thread::scope`); it exists because
//! this repository must build in hermetic environments where `rayon`
//! cannot be vendored. The API is deliberately rayon-shaped so the
//! implementation could be swapped for a work-stealing pool without
//! touching callers.
//!
//! # Examples
//!
//! ```
//! let serial: Vec<u64> = (0..100u64).map(|i| i * i).collect();
//! let parallel = srlr_parallel::par_map_indexed(100, 4, |i| (i as u64) * (i as u64));
//! assert_eq!(serial, parallel);
//! ```

#![forbid(unsafe_code)]

/// The environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "SRLR_THREADS";

/// Number of worker threads the machine offers (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves a worker count: `Some(n > 0)` is honoured verbatim;
/// `None` or `Some(0)` ("auto") consults `SRLR_THREADS`, then the
/// machine's available parallelism.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => std::env::var(THREADS_ENV)
            .ok()
            .and_then(|raw| raw.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(available_threads),
    }
}

/// Evaluates `f` at every index in `0..n` using up to `threads` workers
/// and returns the results in index order.
///
/// Indices are split into contiguous chunks, one per worker, so the
/// assignment of work to threads is static and the output vector is
/// identical to `(0..n).map(f).collect()` regardless of `threads` —
/// provided `f` is a pure function of its index, which is the caller's
/// side of the determinism contract.
///
/// `threads <= 1` (or `n <= 1`) runs serially on the calling thread.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (worker, out_chunk) in slots.chunks_mut(chunk).enumerate() {
            let f = &f;
            #[expect(
                clippy::disallowed_methods,
                reason = "this is the deterministic pool: results land in index order"
            )]
            scope.spawn(move || {
                let base = worker * chunk;
                for (offset, slot) in out_chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + offset));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            #[expect(
                clippy::expect_used,
                reason = "invariant: chunks_mut partitions 0..n, so every slot is written exactly once before the scope joins"
            )]
            slot.expect("every index was assigned to a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_at_every_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            assert_eq!(
                par_map_indexed(97, threads, |i| i * i),
                expected,
                "diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1)), 1);
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn available_is_positive() {
        assert!(available_threads() >= 1);
    }
}
