//! `Router` against a reference router, cycle by cycle.
//!
//! The reference below is the straightforward form of the same
//! pipeline: one `VecDeque` per input VC, and every stage scanning all
//! VCs in index order, empty ones included. Both routers are driven
//! side by side with seeded random traffic that keeps the credit
//! protocol: whole packets stream into each input VC one flit at a
//! time while the VC has room, and credits for flits sent downstream
//! come back after a random delay. Every cycle the sent flits, the
//! allocation activity, every input VC's free slots, the occupancy and
//! the buffered packets must agree. The sweep covers 1 to 16 VCs (13
//! and 16 give 65 and 80 VC slots, past one 64-bit word), buffers of 1
//! to 7 flits, and XY and west-first routing.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are small generated indices"
)]

use srlr_noc::router::{RouterActivity, SentFlit, SentFlits};
use srlr_noc::{
    Coord, Direction, Flit, Mesh, NocConfig, Packet, PacketId, Router, RoutingAlgorithm,
};
use srlr_rng::Xoshiro256pp;
use std::collections::VecDeque;

/// One input VC of the reference router.
#[derive(Debug, Clone)]
struct RefVc {
    buffer: VecDeque<Flit>,
    route: Option<Direction>,
    out_vc: Option<usize>,
}

/// The reference router: per-VC queues and full scans, no bitsets.
struct RefRouter {
    coord: Coord,
    vcs: usize,
    buffer_depth: usize,
    routing: RoutingAlgorithm,
    inputs: Vec<RefVc>,
    out_credits: Vec<usize>,
    out_vc_busy: Vec<bool>,
    rr_va: usize,
    rr_sa_in: [usize; 5],
    rr_sa_out: usize,
}

impl RefRouter {
    fn new(coord: Coord, config: &NocConfig) -> Self {
        let slots = Direction::ALL.len() * config.vcs;
        Self {
            coord,
            vcs: config.vcs,
            buffer_depth: config.buffer_depth,
            routing: config.routing,
            inputs: vec![
                RefVc {
                    buffer: VecDeque::new(),
                    route: None,
                    out_vc: None,
                };
                slots
            ],
            out_credits: vec![config.buffer_depth; slots],
            out_vc_busy: vec![false; slots],
            rr_va: 0,
            rr_sa_in: [0; 5],
            rr_sa_out: 0,
        }
    }

    fn free_slots(&self, port: Direction, vc: usize) -> usize {
        self.buffer_depth - self.inputs[port.index() * self.vcs + vc].buffer.len()
    }

    fn occupancy(&self) -> usize {
        self.inputs.iter().map(|v| v.buffer.len()).sum()
    }

    fn buffered_packets(&self) -> Vec<PacketId> {
        self.inputs
            .iter()
            .flat_map(|v| v.buffer.iter().map(|f| f.packet))
            .collect()
    }

    fn accept(&mut self, port: Direction, vc: usize, flit: Flit) {
        let state = &mut self.inputs[port.index() * self.vcs + vc];
        assert!(state.buffer.len() < self.buffer_depth, "reference overflow");
        state.buffer.push_back(flit);
    }

    fn return_credit(&mut self, port: Direction, vc: usize) {
        self.out_credits[port.index() * self.vcs + vc] += 1;
    }

    fn port_credits(&self, port: Direction) -> usize {
        let base = port.index() * self.vcs;
        self.out_credits[base..base + self.vcs].iter().sum()
    }

    fn step(&mut self, mesh: Mesh) -> (Vec<SentFlit>, RouterActivity) {
        let mut activity = RouterActivity::default();
        let mut sent = Vec::new();
        let vcs = self.vcs;

        // RC over every VC in index order; routed VCs without a
        // downstream VC become VA requesters in the same order.
        let mut requesters = Vec::new();
        for slot in 0..self.inputs.len() {
            let Some(front) = self.inputs[slot].buffer.front() else {
                continue;
            };
            if self.inputs[slot].route.is_none() {
                if !front.kind.is_head() {
                    continue;
                }
                let candidates = self.routing.candidates(mesh, self.coord, front.dst);
                let Some(&dir) = candidates.iter().max_by_key(|d| self.port_credits(**d)) else {
                    continue;
                };
                self.inputs[slot].route = Some(dir);
                activity.route_computations += 1;
            }
            if self.inputs[slot].out_vc.is_none() {
                requesters.push(slot);
            }
        }

        // VA, round robin over the requesters.
        if !requesters.is_empty() {
            let n = requesters.len();
            for k in 0..n {
                let slot = requesters[(self.rr_va + k) % n];
                let Some(out) = self.inputs[slot].route else {
                    continue;
                };
                if out == Direction::Local {
                    self.inputs[slot].out_vc = Some(0);
                    activity.vc_allocations += 1;
                    continue;
                }
                let base = out.index() * vcs;
                if let Some(w) = (0..vcs).find(|&w| !self.out_vc_busy[base + w]) {
                    self.out_vc_busy[base + w] = true;
                    self.inputs[slot].out_vc = Some(w);
                    activity.vc_allocations += 1;
                }
            }
            self.rr_va = self.rr_va.wrapping_add(1);
        }

        // SA: every input port scans all its VCs from its pointer...
        let mut nominations = [None; 5];
        for (port, nomination) in nominations.iter_mut().enumerate() {
            for k in 0..vcs {
                let vc = (self.rr_sa_in[port] + k) % vcs;
                let s = &self.inputs[port * vcs + vc];
                let ready = !s.buffer.is_empty()
                    && match (s.route, s.out_vc) {
                        (Some(d), Some(w)) => {
                            d == Direction::Local || self.out_credits[d.index() * vcs + w] > 0
                        }
                        _ => false,
                    };
                if ready {
                    *nomination = Some(vc);
                    self.rr_sa_in[port] = (vc + 1) % vcs;
                    break;
                }
            }
        }
        // ...and every output port grants the first nomination for it,
        // input ports taken from the output pointer.
        let mut granted = [false; 5];
        let mut winners = Vec::new();
        for k in 0..5 {
            let port = (self.rr_sa_out + k) % 5;
            let Some(vc) = nominations[port] else {
                continue;
            };
            let Some(out) = self.inputs[port * vcs + vc].route else {
                continue;
            };
            if !granted[out.index()] {
                granted[out.index()] = true;
                winners.push((port, vc));
            }
        }
        self.rr_sa_out = (self.rr_sa_out + 1) % 5;

        // ST.
        for (p, v) in winners {
            let state = &mut self.inputs[p * vcs + v];
            let (Some(out), Some(w)) = (state.route, state.out_vc) else {
                continue;
            };
            let Some(flit) = state.buffer.pop_front() else {
                continue;
            };
            if flit.kind.is_tail() {
                state.route = None;
                state.out_vc = None;
            }
            if out != Direction::Local {
                let o = out.index() * vcs + w;
                self.out_credits[o] -= 1;
                if flit.kind.is_tail() {
                    self.out_vc_busy[o] = false;
                }
            }
            activity.switch_allocations += 1;
            sent.push(SentFlit {
                flit,
                out_port: out,
                out_vc: w,
                in_port: Direction::ALL[p],
                in_vc: v,
            });
        }
        (sent, activity)
    }
}

/// What a lockstep run exercised: cycles that sent nothing although
/// flits were buffered, and cycles that sent on more than one output.
#[derive(Debug, Default)]
struct Coverage {
    stalled: usize,
    parallel: usize,
}

/// Drives `Router` and the reference through `cycles` cycles of seeded
/// random traffic and compares them after every cycle.
fn lockstep(
    vcs: usize,
    buffer_depth: usize,
    routing: RoutingAlgorithm,
    seed: u64,
    cycles: usize,
    coverage: &mut Coverage,
) {
    let config = NocConfig {
        vcs,
        buffer_depth,
        ..NocConfig::paper_default()
            .with_size(5, 5)
            .with_routing(routing)
    };
    let mesh = config.mesh();
    let mut rng = Xoshiro256pp::for_stream(seed, (vcs * 8 + buffer_depth) as u64);
    let here = mesh.coord_of(rng.index(mesh.len()));
    let mut router = Router::new(here, &config);
    let mut reference = RefRouter::new(here, &config);
    let mut sent = SentFlits::new();
    let case = format!("{routing}, {vcs} VCs x {buffer_depth} flits at {here}");

    // How hard inputs push and how fast credits come back; low credit
    // rates starve outputs, so VA and SA see contention.
    let inject = [0.3, 0.7, 1.0][rng.index(3)];
    let credit_rate = [0.2, 0.5, 1.0][rng.index(3)];
    let slots = Direction::ALL.len() * vcs;
    // Per input VC, the rest of the packet streaming into it.
    let mut streams: Vec<VecDeque<Flit>> = vec![VecDeque::new(); slots];
    // Credits owed back to each output VC by the downstream buffer.
    let mut owed = vec![0usize; slots];
    let mut next_id = 0u64;

    for cycle in 0..cycles {
        // Credits return in random order, each with probability
        // `credit_rate` per cycle.
        for (o, n) in owed.iter_mut().enumerate() {
            while *n > 0 && rng.next_f64() < credit_rate {
                *n -= 1;
                let (port, vc) = (Direction::ALL[o / vcs], o % vcs);
                router.return_credit(port, vc);
                reference.return_credit(port, vc);
            }
        }
        // Inputs stream whole packets, one flit per VC per cycle while
        // the VC has room.
        for (slot, stream) in streams.iter_mut().enumerate() {
            let (port, vc) = (Direction::ALL[slot / vcs], slot % vcs);
            if stream.is_empty() && rng.next_f64() < inject {
                let dst = mesh.coord_of(rng.index(mesh.len()));
                let len = 1 + rng.index(5);
                let src = mesh.coord_of(rng.index(mesh.len()));
                next_id += 1;
                stream.extend(Packet::unicast(PacketId(next_id), src, dst, len, 0).flits(dst));
            }
            let free = router.free_slots(port, vc);
            assert_eq!(
                free,
                reference.free_slots(port, vc),
                "{case}: cycle {cycle}"
            );
            if free > 0 && rng.next_f64() < inject {
                if let Some(flit) = stream.pop_front() {
                    router.accept(port, vc, flit);
                    reference.accept(port, vc, flit);
                }
            }
        }

        let buffered = router.occupancy();
        let activity = router.step(mesh, &mut sent);
        let (expected, expected_activity) = reference.step(mesh);
        assert_eq!(
            &sent[..],
            &expected[..],
            "{case}: sent flits, cycle {cycle}"
        );
        assert_eq!(
            activity, expected_activity,
            "{case}: activity, cycle {cycle}"
        );
        for s in sent.iter() {
            if s.out_port != Direction::Local {
                owed[s.out_port.index() * vcs + s.out_vc] += 1;
            }
        }
        coverage.stalled += usize::from(sent.is_empty() && buffered > 0);
        coverage.parallel += usize::from(sent.len() > 1);
        for slot in 0..slots {
            let (port, vc) = (Direction::ALL[slot / vcs], slot % vcs);
            assert_eq!(
                router.free_slots(port, vc),
                reference.free_slots(port, vc),
                "{case}: free slots of {port} VC {vc}, cycle {cycle}"
            );
        }
        assert_eq!(
            router.occupancy(),
            reference.occupancy(),
            "{case}: occupancy, cycle {cycle}"
        );
        assert_eq!(
            router.buffered_packets().collect::<Vec<_>>(),
            reference.buffered_packets(),
            "{case}: buffered packets, cycle {cycle}"
        );
    }
}

#[test]
fn router_matches_the_reference_router_cycle_by_cycle() {
    let mut coverage = Coverage::default();
    for routing in [RoutingAlgorithm::Xy, RoutingAlgorithm::WestFirst] {
        for vcs in [1, 2, 3, 4, 8, 13, 16] {
            for buffer_depth in [1, 2, 4, 7] {
                lockstep(vcs, buffer_depth, routing, 2013, 250, &mut coverage);
            }
        }
    }
    // The traffic must load the routers: buffered flits wait for
    // credits or a downstream VC, and several outputs fire in one cycle.
    assert!(
        coverage.stalled > 1_000 && coverage.parallel > 1_000,
        "{coverage:?}"
    );
}
