//! The Monte Carlo sweep's heap-allocation budget, counted with a
//! per-thread counting allocator: the one traced sweep loop, run with
//! every observability hook disabled, must allocate no more than the
//! untraced fast path it replaced did. Disabled hooks are one branch
//! each, so tracing costs nothing when it is off.
//!
//! The tally is per thread, so allocations made by tests that the
//! harness runs concurrently on other threads are not charged to the
//! test being measured; the sweep runs on one thread, which is the
//! calling thread.

use srlr_core::SrlrDesign;
use srlr_link::McExperiment;
use srlr_tech::Technology;
use srlr_units::Voltage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of the 2 × 64-die, width-32, single-thread sweep below.
/// The untraced fast path the single loop replaced measured 458; the
/// trial-major sweep, which elaborates each die once and keeps one
/// reused link per swing, measured 455. The certificate now works in
/// stack state and one per-batch scratch buffer instead of three heap
/// vectors per call, and the sweep measures 299, so the budget is
/// pinned there.
const UNTRACED_BASELINE: u64 = 299;

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
fn untraced_sweep_allocates_no_more_than_the_removed_fast_path() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let swings = [
        Voltage::from_millivolts(350.0),
        Voltage::from_millivolts(450.0),
    ];
    let exp = McExperiment::paper_default(&tech)
        .with_runs(64)
        .with_threads(Some(1))
        .with_batch_width(32);
    let mut sweep = Vec::new();
    let n = allocations_during(|| sweep = exp.swing_sweep(&design, &swings));
    assert_eq!(sweep.len(), 2);
    println!("swing_sweep of 2 x 64 dice allocated {n} times");
    assert!(
        n <= UNTRACED_BASELINE,
        "the sweep allocated {n} times, over the untraced baseline of {UNTRACED_BASELINE}"
    );
}
