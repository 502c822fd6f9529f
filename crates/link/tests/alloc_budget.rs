//! The Monte Carlo sweep's heap-allocation budget, counted with a
//! per-thread counting allocator: the one traced sweep loop, run with
//! every observability hook disabled, must allocate no more than the
//! untraced fast path it replaced did. Disabled hooks are one branch
//! each, so tracing costs nothing when it is off. Below the sweep, the
//! batch kernel's slot advance, plain and jittered, allocates nothing.
//!
//! The tally is per thread, so allocations made by tests that the
//! harness runs concurrently on other threads are not charged to the
//! test being measured; the sweep runs on one thread, which is the
//! calling thread.

use srlr_core::{DieBatch, SrlrDesign};
use srlr_link::{LinkConfig, McExperiment, Prbs, SrlrLink};
use srlr_tech::montecarlo::GaussianRng;
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{DataRate, TimeInterval, Voltage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of the 2 × 64-die, width-32, single-thread sweep below.
/// The untraced fast path the single loop replaced measured 458; the
/// trial-major sweep, which elaborates each die once and keeps one
/// reused link per swing, measured 455. The certificate now works in
/// stack state and one per-batch scratch buffer instead of three heap
/// vectors per call, and the sweep measured 299. Each die is now
/// re-elaborated into its batch's reused links, and a pair the screen
/// refutes is decided without a lockstep copy, so the sweep measured 28.
/// Each worker now keeps one set of links and screen scratch for all its
/// batches, so the sweep measures 21 and the budget is pinned there.
const UNTRACED_BASELINE: u64 = 21;

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

#[test]
fn batch_slot_advance_allocates_nothing() {
    // A loaded 32-lane batch of four rates (the fastest past the
    // bathtub wall, so pulses die and self-fire too), advanced 1,000
    // slots plain and 1,000 jittered: every list and intermediate of the
    // passes lives in scratch sized when the batch was built.
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let links: Vec<SrlrLink> = [3.5, 4.1, 6.0, 7.0]
        .iter()
        .map(|&gbps| {
            let config = LinkConfig::paper_default()
                .with_data_rate(DataRate::from_gigabits_per_second(gbps));
            SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal())
        })
        .collect();
    const LANES: usize = 32;
    const SLOTS: usize = 1_000;
    let mut batch = DieBatch::new(links[0].chain().len(), LANES);
    for lane in 0..LANES {
        let link = &links[lane % links.len()];
        let config = link.config();
        batch.load_lane(
            lane,
            link.chain(),
            config.data_rate.bit_period(),
            config.demod_min_width,
        );
    }
    let stimulus: Vec<Vec<bool>> = (1..)
        .take(LANES)
        .map(|seed| Prbs::prbs7_with_seed(seed).take_bits(SLOTS))
        .collect();
    let mut noise: Vec<GaussianRng> = (0..LANES as u64).map(GaussianRng::new).collect();
    let sigma = TimeInterval::from_picoseconds(3.0).seconds();
    let mut bits = [false; LANES];
    let mut rx = [false; LANES];
    let mut ones = 0usize;
    let n = allocations_during(|| {
        for slot in 0..SLOTS {
            for (bit, lane) in bits.iter_mut().zip(&stimulus) {
                *bit = lane[slot];
            }
            batch.advance_slot(&bits, &mut rx);
            ones += rx.iter().filter(|&&r| r).count();
        }
        batch.reset_state();
        let mut jitter = |lane: usize, w: TimeInterval| {
            TimeInterval::from_seconds((w.seconds() + noise[lane].sample() * sigma).max(0.0))
        };
        for slot in 0..SLOTS {
            for (bit, lane) in bits.iter_mut().zip(&stimulus) {
                *bit = lane[slot];
            }
            batch.advance_slot_jittered(&bits, &mut rx, &mut jitter);
            ones += rx.iter().filter(|&&r| r).count();
        }
    });
    assert!(ones > 0, "the batch delivered pulses");
    assert_eq!(n, 0, "2,000 slot advances allocated {n} times");
}
