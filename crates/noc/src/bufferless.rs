//! Bufferless (deflection) routing — the other way to attack NoC power.
//!
//! Sec. I: "buffer power can be reduced by virtual bypassing flow control
//! or bufferless routing algorithms \[11\]–\[13\], \[but\] links and
//! crossbar switches form the unavoidable portion of mesh NoC power."
//! This module provides that alternative as a comparison substrate: a
//! BLESS/SCARAB-style deflection mesh where flits are never buffered —
//! every arriving flit leaves the router the same cycle, deflected to a
//! free port when its preferred port is taken. Buffer energy disappears,
//! but deflections *add* link traversals, so the unavoidable datapath
//! component grows — exactly the paper's point that the datapath, not the
//! buffers, is the floor.

use crate::packet::{Flit, Packet};
use crate::power::EnergyCounters;
use crate::router::NocConfig;
use crate::stats::NetworkStats;
use crate::topology::{Coord, Direction, Mesh};
use crate::traffic::{Pattern, TrafficGenerator};
use std::collections::VecDeque;

/// A flit in flight in the deflection mesh (single-flit packets, as in
/// BLESS-style networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeflectFlit {
    flit: Flit,
    /// Router the flit currently occupies.
    at: Coord,
    /// Age, for oldest-first arbitration (livelock freedom).
    age: u64,
}

/// A bufferless deflection-routed mesh.
#[derive(Debug, Clone)]
pub struct DeflectionNetwork {
    mesh: Mesh,
    config: NocConfig,
    in_flight: Vec<DeflectFlit>,
    source_queues: Vec<VecDeque<Packet>>,
    cycle: u64,
    counters: EnergyCounters,
    injected: u64,
    /// Total deflections suffered (diagnostic).
    deflections: u64,
}

impl DeflectionNetwork {
    /// Builds an idle deflection mesh. Packets are single-flit
    /// (deflection routing cannot keep multi-flit worms contiguous).
    pub fn new(config: NocConfig) -> Self {
        config.validate();
        let mesh = config.mesh();
        Self {
            mesh,
            config,
            in_flight: Vec::new(),
            source_queues: vec![VecDeque::new(); mesh.len()],
            cycle: 0,
            counters: EnergyCounters::default(),
            injected: 0,
            deflections: 0,
        }
    }

    /// Accumulated energy counters (note: `buffer_writes`/`reads` stay 0 —
    /// that is the whole point).
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Total deflections suffered so far.
    pub fn deflections(&self) -> u64 {
        self.deflections
    }

    /// Flits currently in flight.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len() + self.source_queues.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Enqueues a packet (converted to single-flit).
    pub fn enqueue(&mut self, packet: Packet) {
        let node = self.mesh.index_of(packet.src);
        self.injected += 1;
        self.source_queues[node].push_back(packet);
    }

    /// One cycle: route every in-flight flit (oldest first), deflecting
    /// losers; inject where a port remains free. Returns completed
    /// `(destination, latency)` pairs.
    pub fn step(&mut self) -> Vec<(Coord, u64)> {
        let n = self.mesh.len();
        // Output-port occupancy per router this cycle.
        let mut taken = vec![[false; 4]; n];
        let mut completed = Vec::new();
        let mut next_flight: Vec<DeflectFlit> = Vec::with_capacity(self.in_flight.len());

        // Oldest-first service order (deterministic livelock freedom).
        self.in_flight
            .sort_by(|a, b| b.age.cmp(&a.age).then(a.flit.packet.cmp(&b.flit.packet)));
        let in_flight = std::mem::take(&mut self.in_flight);

        for mut f in in_flight {
            if f.at == f.flit.dst {
                // Ejection is contention-free (one flit per cycle per
                // node would be the strict model; relaxed here since
                // single-flit packets rarely collide on ejection).
                self.counters.local_hops += 1;
                completed.push((f.at, self.cycle - f.flit.inject_cycle + 1));
                continue;
            }
            let node = self.mesh.index_of(f.at);
            let preferred = self.mesh.xy_route(f.at, f.flit.dst);
            // Preference order: productive port first, then any free port.
            let mut choice = None;
            let candidates = [
                preferred,
                Direction::North,
                Direction::South,
                Direction::East,
                Direction::West,
            ];
            for dir in candidates {
                if dir == Direction::Local {
                    continue;
                }
                let Some(next) = self.mesh.neighbor(f.at, dir) else {
                    continue;
                };
                if !taken[node][dir.index()] {
                    choice = Some((dir, next));
                    break;
                }
            }
            match choice {
                Some((dir, next)) => {
                    if dir != preferred {
                        self.deflections += 1;
                    }
                    taken[node][dir.index()] = true;
                    self.counters.link_hops += 1;
                    f.at = next;
                    f.age += 1;
                    next_flight.push(f);
                }
                None => {
                    // Low-radix corner routers can host more flits than
                    // ports (arrivals + an injection from the previous
                    // cycle); the youngest loser holds in place for a
                    // cycle, SCARAB-style.
                    self.deflections += 1;
                    f.age += 1;
                    next_flight.push(f);
                }
            }
        }

        // Injection: a node may inject when it has a free output port.
        #[expect(
            clippy::needless_range_loop,
            reason = "the index addresses queues, coords and the taken-port table"
        )]
        for i in 0..n {
            let here = self.mesh.coord_of(i);
            let free = Direction::ALL[..4]
                .iter()
                .any(|d| self.mesh.neighbor(here, *d).is_some() && !taken[i][d.index()]);
            if free {
                let Some(pkt) = self.source_queues[i].pop_front() else {
                    continue;
                };
                let dst = pkt.dst();
                // Allocator work for the injection decision.
                self.counters.allocations += 1;
                next_flight.push(DeflectFlit {
                    flit: pkt.flits(dst)[0],
                    at: here,
                    age: 0,
                });
            }
        }

        // Routing decisions count as allocator activity.
        self.counters.allocations += next_flight.len() as u64;
        self.in_flight = next_flight;
        self.cycle += 1;
        self.counters.router_cycles += n as u64;
        completed
    }

    /// Warmup + measurement, as in [`crate::network::Network`]. Packets
    /// are forced single-flit.
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn run_warmup_and_measure(
        &mut self,
        pattern: Pattern,
        injection_rate: f64,
        warmup: u64,
        measure: u64,
    ) -> NetworkStats {
        assert!(measure > 0, "measurement window must be non-empty");
        let mut gen =
            TrafficGenerator::new(self.mesh, pattern, injection_rate, 1, self.config.seed);
        for _ in 0..warmup {
            self.inject_from(&mut gen);
            let _ = self.step();
        }
        let before = self.counters;
        let injected_before = self.injected;
        let mut stats = NetworkStats::new(measure, self.mesh.len());
        for _ in 0..measure {
            self.inject_from(&mut gen);
            for (_, latency) in self.step() {
                stats.record_packet(latency);
            }
        }
        stats.flits_received = self.counters.local_hops - before.local_hops;
        stats.packets_injected = self.injected - injected_before;
        stats.energy = self.counters.delta(&before);
        stats
    }

    fn inject_from(&mut self, gen: &mut TrafficGenerator) {
        for i in 0..self.mesh.len() {
            if let Some(pkt) = gen.maybe_inject(self.mesh.coord_of(i), self.cycle) {
                self.enqueue(pkt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    fn config() -> NocConfig {
        NocConfig::paper_default()
            .with_size(4, 4)
            .with_packet_len(1)
    }

    #[test]
    fn lone_flit_takes_the_shortest_path() {
        let mut net = DeflectionNetwork::new(config());
        net.enqueue(Packet::unicast(
            PacketId(1),
            Coord::new(0, 0),
            Coord::new(3, 2),
            1,
            0,
        ));
        let mut done = Vec::new();
        for _ in 0..30 {
            done.extend(net.step());
        }
        assert_eq!(done.len(), 1);
        // 5 hops + injection/ejection bookkeeping, no deflections.
        assert!(done[0].1 <= 8, "latency {}", done[0].1);
        assert_eq!(net.deflections(), 0);
        assert_eq!(net.counters().link_hops, 5);
    }

    #[test]
    fn no_buffer_events_ever() {
        let mut net = DeflectionNetwork::new(config());
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.10, 200, 800);
        assert_eq!(net.counters().buffer_writes, 0);
        assert_eq!(net.counters().buffer_reads, 0);
    }

    #[test]
    fn contention_causes_deflections() {
        let mut net = DeflectionNetwork::new(config());
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.25, 200, 800);
        assert!(net.deflections() > 0, "high load must deflect");
    }

    #[test]
    fn all_packets_eventually_arrive() {
        let mut net = DeflectionNetwork::new(config());
        for k in 0..20 {
            net.enqueue(Packet::unicast(
                PacketId(k),
                Coord::new((k % 4) as u16, (k % 3) as u16),
                Coord::new(3 - (k % 4) as u16, 3 - (k % 3) as u16),
                1,
                0,
            ));
        }
        let mut done = 0;
        for _ in 0..500 {
            done += net.step().len();
        }
        assert_eq!(done, 20, "deflection must not lose or livelock flits");
        assert_eq!(net.occupancy(), 0);
    }

    #[test]
    fn deflections_inflate_link_traversals() {
        // The Sec. I argument quantified: bufferless saves buffer energy
        // but pays extra datapath hops under load.
        let mut light = DeflectionNetwork::new(config());
        let s_light = light.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 300, 1000);
        let mut heavy = DeflectionNetwork::new(config());
        let s_heavy = heavy.run_warmup_and_measure(Pattern::UniformRandom, 0.30, 300, 1000);
        let hops_per_flit_light =
            s_light.energy.link_hops as f64 / s_light.flits_received.max(1) as f64;
        let hops_per_flit_heavy =
            s_heavy.energy.link_hops as f64 / s_heavy.flits_received.max(1) as f64;
        assert!(
            hops_per_flit_heavy > hops_per_flit_light,
            "deflections should add hops: {hops_per_flit_light} -> {hops_per_flit_heavy}"
        );
    }

    #[test]
    fn latency_is_competitive_at_low_load() {
        let mut net = DeflectionNetwork::new(config());
        let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 300, 1200);
        assert!(stats.packets_received > 50);
        assert!(stats.avg_latency_cycles() < 15.0, "{stats}");
    }
}
