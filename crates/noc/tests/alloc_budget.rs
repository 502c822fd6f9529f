//! The NoC's heap-allocation budget, counted with a per-thread counting
//! allocator: after warm-up, a loaded router's pipeline step and a
//! faulty link traversal allocate nothing, and a whole-network cycle
//! stays within its pinned per-cycle budget.
//!
//! The tally is per thread, so allocations made by tests that the
//! harness runs concurrently on other threads are not charged to the
//! test being measured.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are small generated indices"
)]

use srlr_noc::router::SentFlits;
use srlr_noc::traffic::{Pattern, TrafficGenerator};
use srlr_noc::{
    Coord, Direction, FaultConfig, FaultModel, Flit, Mesh, Network, NocConfig, Packet, PacketId,
    Router, RoutingAlgorithm,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations of 400 cycles of the 8×8 mesh at 0.05 uniform load and
/// BER 1e-2, after 100 warm-up cycles. Routers, link traversals and
/// injection allocate nothing: a packet streams its flits into the
/// local port straight from the queued `Packet`. What remains is the
/// completion list `Network::step` returns on a cycle that ejects a
/// packet, the nodes of the poisoned-packet set, and the odd growth of
/// a source queue or of the network-wide link-flit and credit lists
/// (which keep their capacity). The same window allocated 198,129
/// times before the router step became allocation-free, and 2,070
/// times while each injected packet still built its flit list.
const NETWORK_BUDGET: u64 = 356;

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

/// A router at (1, 1) of a 4×4 mesh whose every input VC is fed a
/// repeating stream of 3-flit packets, with credits returned as soon as
/// a flit leaves (an always-draining downstream).
struct LoadedRouter {
    router: Router,
    mesh: Mesh,
    sent: SentFlits,
    /// Per input VC (`port * vcs + vc`): its flit stream and the next
    /// position in it.
    streams: Vec<(Vec<Flit>, usize)>,
    vcs: usize,
    flits_sent: u64,
}

impl LoadedRouter {
    fn new(routing: RoutingAlgorithm) -> Self {
        let config = NocConfig::paper_default()
            .with_size(4, 4)
            .with_routing(routing);
        let mesh = config.mesh();
        let here = Coord::new(1, 1);
        let streams = (0..Direction::ALL.len() * config.vcs)
            .map(|slot| {
                let flits = (0..4u64)
                    .flat_map(|k| {
                        let dst = mesh.coord_of((slot * 7 + k as usize * 5) % mesh.len());
                        let id = PacketId(slot as u64 * 100 + k);
                        Packet::unicast(id, here, dst, 3, 0).flits(dst)
                    })
                    .collect();
                (flits, 0)
            })
            .collect();
        Self {
            router: Router::new(here, &config),
            mesh,
            sent: SentFlits::new(),
            streams,
            vcs: config.vcs,
            flits_sent: 0,
        }
    }

    fn cycle(&mut self) {
        for (slot, (flits, next)) in self.streams.iter_mut().enumerate() {
            let (port, vc) = (Direction::ALL[slot / self.vcs], slot % self.vcs);
            if self.router.free_slots(port, vc) > 0 {
                self.router.accept(port, vc, flits[*next]);
                *next = (*next + 1) % flits.len();
            }
        }
        let _ = self.router.step(self.mesh, &mut self.sent);
        for s in self.sent.iter() {
            if s.out_port != Direction::Local {
                self.router.return_credit(s.out_port, s.out_vc);
            }
        }
        self.flits_sent += self.sent.len() as u64;
    }
}

#[test]
fn loaded_router_steps_allocate_nothing() {
    for routing in [RoutingAlgorithm::Xy, RoutingAlgorithm::WestFirst] {
        let mut r = LoadedRouter::new(routing);
        for _ in 0..200 {
            r.cycle();
        }
        let sent_before = r.flits_sent;
        let n = allocations_during(|| {
            for _ in 0..1_000 {
                r.cycle();
            }
        });
        assert_eq!(
            n, 0,
            "{routing}: 1,000 loaded router steps allocated {n} times"
        );
        let moved = r.flits_sent - sent_before;
        assert!(
            moved > 1_000,
            "{routing}: the router must stay busy, moved {moved}"
        );
        assert!(
            r.router.occupancy() > 0,
            "{routing}: the router must stay loaded"
        );
    }
}

#[test]
fn faulty_link_traversals_allocate_nothing() {
    let mesh = Mesh::new(4, 4);
    let mut fm = FaultModel::new(FaultConfig::new(1e-2), mesh);
    let flit = Packet::unicast(PacketId(3), Coord::new(0, 0), Coord::new(3, 3), 1, 0)
        .flits(Coord::new(3, 3))[0];
    let links: Vec<(Coord, Direction)> = (0..mesh.len())
        .map(|i| mesh.coord_of(i))
        .flat_map(|c| Direction::MESH.map(|d| (c, d)))
        .filter(|&(c, d)| mesh.neighbor(c, d).is_some())
        .collect();
    for k in 0..100 {
        let (c, d) = links[k % links.len()];
        let _ = fm.transmit(c, d, &flit);
    }
    let corrupted_before = fm.tally().flits_corrupted;
    let n = allocations_during(|| {
        for k in 0..1_000 {
            let (c, d) = links[k % links.len()];
            let _ = fm.transmit(c, d, &flit);
        }
    });
    assert_eq!(n, 0, "1,000 transmits at BER 1e-2 allocated {n} times");
    assert!(
        fm.tally().flits_corrupted - corrupted_before > 200,
        "BER 1e-2 corrupts ~55% of 80-bit words; the retry path must run"
    );
}

#[test]
fn network_cycles_stay_within_their_budget() {
    let config = NocConfig::paper_default().with_ber(1e-2);
    let mesh = config.mesh();
    let mut net = Network::new(config);
    let mut gen = TrafficGenerator::new(
        mesh,
        Pattern::UniformRandom,
        0.05,
        config.packet_len,
        config.seed,
    );
    let mut cycle = |net: &mut Network| {
        for node in 0..mesh.len() {
            if let Some(packet) = gen.maybe_inject(mesh.coord_of(node), net.cycle()) {
                net.enqueue(packet);
            }
        }
        allocations_during(|| {
            let _ = net.step();
        })
    };
    for _ in 0..100 {
        let _ = cycle(&mut net);
    }
    let n: u64 = (0..400).map(|_| cycle(&mut net)).sum();
    println!("400 network cycles allocated {n} times");
    assert!(
        n <= NETWORK_BUDGET,
        "400 network cycles allocated {n} times, over the budget of {NETWORK_BUDGET}"
    );
}
