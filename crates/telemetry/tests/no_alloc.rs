//! The zero-cost-when-disabled contract, asserted with a counting
//! allocator: recording into a disabled [`Collector`], ticking a
//! disabled [`Progress`], and profiling into a disabled [`Profiler`]
//! must perform **zero** heap allocations.
//!
//! The tally is per thread, so allocations made by tests that the
//! harness runs concurrently on other threads are not charged to the
//! test being measured.

use srlr_telemetry::{Collector, Obs, Profiler, Progress, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const` init and no destructor: touching the slot from inside the
    // allocator never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread's locals are being torn
    // down, after any measurement on that thread has finished.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_collector_never_allocates() {
    let mut c = Collector::disabled();
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            c.event("flit.inject", i as f64, &[("packet", Value::U64(i))]);
            c.add("retries", 1);
            c.set_metric("delivered", Value::U64(i));
        }
    });
    assert_eq!(n, 0, "disabled collector allocated {n} times");
}

#[test]
fn disabled_progress_never_allocates() {
    let p = Progress::disabled();
    let n = allocations_during(|| {
        for _ in 0..10_000 {
            p.tick();
        }
    });
    assert_eq!(n, 0, "disabled progress allocated {n} times");
}

#[test]
fn disabled_profiler_never_allocates() {
    let mut p = Profiler::disabled();
    let n = allocations_during(|| {
        for _ in 0..10_000u64 {
            p.enter("frame");
            p.count("tally");
            p.count_n("bulk", 7);
            p.exit();
            let child = p.child();
            p.merge(child);
        }
    });
    assert_eq!(n, 0, "disabled profiler allocated {n} times");
}

#[test]
fn obs_none_never_allocates_after_construction() {
    let mut obs = Obs::none();
    let n = allocations_during(|| {
        for i in 0..10_000u64 {
            assert!(!obs.collector.is_enabled());
            assert!(!obs.progress.is_enabled());
            assert!(!obs.profiler.is_enabled());
            obs.collector
                .event("e", i as f64, &[("k", Value::Bool(true))]);
            obs.progress.tick();
            obs.profiler.enter("frame");
            obs.profiler.exit();
        }
    });
    assert_eq!(n, 0, "Obs::none() allocated {n} times");
}

#[test]
fn enabled_collector_does_allocate_as_a_sanity_check() {
    // Guards against the counter itself being broken: the *enabled*
    // path must show up in the allocation count.
    let mut c = Collector::enabled("t");
    let n = allocations_during(|| {
        c.event("e", 0.0, &[("k", Value::U64(1))]);
    });
    assert!(n > 0, "counting allocator saw no allocations at all");
}
