//! The cycle-accurate network simulator: routers, links, injection and
//! ejection, with deterministic two-phase updates.

use crate::fault::{FaultModel, LinkTransmission};
use crate::packet::{Flit, Packet, PacketId};
use crate::power::EnergyCounters;
use crate::router::{NocConfig, Router, SentFlits};
use crate::stats::NetworkStats;
use crate::topology::{Coord, Direction, Mesh};
use crate::traffic::{Pattern, TrafficGenerator};
use srlr_telemetry::{Collector, Value};
use std::collections::{BTreeSet, VecDeque};

/// Cycle window over which retry/NACK rates are tallied before being
/// emitted as one `flit.window` event (rates *over time*, not just
/// run totals).
pub const TELEMETRY_WINDOW_CYCLES: u64 = 64;

/// Retry/NACK/drop tallies for the current telemetry window.
#[derive(Debug, Clone, Copy, Default)]
struct WindowTally {
    start: u64,
    nacks: u64,
    retries: u64,
    drops: u64,
}

impl WindowTally {
    fn is_empty(&self) -> bool {
        self.nacks == 0 && self.retries == 0 && self.drops == 0
    }

    /// Emits the window as one event (skipped when nothing happened)
    /// and restarts the tally at `now`.
    fn flush(&mut self, collector: &mut Collector, now: u64) {
        if !self.is_empty() {
            collector.event(
                "flit.window",
                now as f64,
                &[
                    ("window_start", Value::U64(self.start)),
                    ("nacks", Value::U64(self.nacks)),
                    ("retries", Value::U64(self.retries)),
                    ("drops", Value::U64(self.drops)),
                ],
            );
        }
        *self = WindowTally {
            start: now,
            ..WindowTally::default()
        };
    }
}

/// Opt-in flit-lifecycle telemetry (see
/// [`Network::enable_flit_telemetry`]): a collector of per-flit
/// lifecycle events plus a per-directed-link traversal tally that
/// becomes `link.*` counters when the collector is taken.
#[derive(Debug, Clone)]
struct FlitTelemetry {
    collector: Collector,
    /// Flit traversals per directed link (`node * 4 + direction`).
    link_flits: Vec<u64>,
    /// Retry/NACK tallies for the in-progress cycle window.
    window: WindowTally,
    /// Per-cycle samples of the total source-queue depth (packets
    /// waiting to start injection), for `queue.*` metrics.
    queue_depth_sum: u64,
    queue_depth_max: u64,
    /// Per-cycle samples of total network occupancy (flits buffered,
    /// streaming in, or on a link).
    occupancy_sum: u64,
    occupancy_max: u64,
    samples: u64,
}

/// Emits the CRC-fail / NACK / retry lifecycle events and counters for
/// one faulty link traversal. Clean traversals return after one branch.
fn record_fault_events(
    collector: &mut Collector,
    cycle: u64,
    from: Coord,
    out: Direction,
    packet: PacketId,
    tx: &LinkTransmission,
) {
    if tx.nacks == 0 && tx.delivered && !tx.silent {
        return;
    }
    let ts = cycle as f64;
    if tx.nacks > 0 {
        collector.event(
            "flit.crc_fail",
            ts,
            &[
                ("packet", Value::U64(packet.0)),
                ("x", Value::U64(u64::from(from.x))),
                ("y", Value::U64(u64::from(from.y))),
                ("out", Value::Str(out.to_string())),
                ("nacks", Value::U64(u64::from(tx.nacks))),
            ],
        );
        collector.add("flit.nacks", u64::from(tx.nacks));
    }
    if tx.attempts > 1 {
        collector.event(
            "flit.retry",
            ts,
            &[
                ("packet", Value::U64(packet.0)),
                ("x", Value::U64(u64::from(from.x))),
                ("y", Value::U64(u64::from(from.y))),
                ("out", Value::Str(out.to_string())),
                ("retries", Value::U64(u64::from(tx.attempts - 1))),
                ("delivered", Value::Bool(tx.delivered)),
            ],
        );
        collector.add("flit.retries", u64::from(tx.attempts - 1));
    }
    if !tx.delivered {
        collector.event(
            "flit.retry_exhausted",
            ts,
            &[
                ("packet", Value::U64(packet.0)),
                ("x", Value::U64(u64::from(from.x))),
                ("y", Value::U64(u64::from(from.y))),
                ("out", Value::Str(out.to_string())),
            ],
        );
        collector.add("flit.retries_exhausted", 1);
    }
    if tx.silent {
        collector.add("flit.silent_corruptions", 1);
    }
}

/// A bounded simulation ran out of cycles before the expected packets
/// terminated: the typed replacement for the old "step N times and
/// panic" test idiom, carrying what *was* achieved and which packets are
/// still in the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledError {
    /// The cycle budget that was exhausted.
    pub cycles: u64,
    /// Packets that did complete before the budget ran out, as
    /// `(destination, latency_cycles)`.
    pub delivered: Vec<(Coord, u64)>,
    /// Packets discarded at ejection during the run (fault injection).
    pub dropped: u64,
    /// Every packet still queued, buffered or on a link (sorted,
    /// deduplicated).
    pub in_flight: Vec<PacketId>,
}

impl core::fmt::Display for StalledError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "simulation stalled after {} cycles: {} delivered, {} dropped, {} packet(s) in flight",
            self.cycles,
            self.delivered.len(),
            self.dropped,
            self.in_flight.len(),
        )?;
        for id in self.in_flight.iter().take(8) {
            write!(f, " {id}")?;
        }
        if self.in_flight.len() > 8 {
            write!(f, " ...")?;
        }
        Ok(())
    }
}

impl std::error::Error for StalledError {}

/// Per-node injection state: the packet currently streaming into the
/// local port.
#[derive(Debug, Clone, Default)]
struct InjectState {
    /// Remaining flits of the in-progress packet (front is next to go).
    flits: VecDeque<Flit>,
    /// The VC chosen for the in-progress packet.
    vc: usize,
}

/// The mesh network under simulation.
///
/// Per-hop latency is two cycles: one through the router pipeline (route
/// computation, allocation and switch traversal are modelled as a single
/// aggressively-pipelined stage) and one on the link.
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    mesh: Mesh,
    routers: Vec<Router>,
    /// Flits in flight to each router: `(deliver_at, in_port, vc, flit)`.
    pending_flits: Vec<Vec<(u64, Direction, usize, Flit)>>,
    /// Credits arriving at each router next cycle: `(out_port, vc)`.
    pending_credits: Vec<Vec<(Direction, usize)>>,
    /// Per-node source queues (open-loop, unbounded).
    source_queues: Vec<VecDeque<Packet>>,
    inject: Vec<InjectState>,
    cycle: u64,
    counters: EnergyCounters,
    /// Total packets ever enqueued.
    injected: u64,
    /// Link hops a multicast tree saved versus unicast clones (the SRLR's
    /// free multicast; see [`crate::multicast`]).
    multicast_saved_hops: u64,
    /// The link fault injector, when the config enables one.
    fault: Option<FaultModel>,
    /// Packets poisoned by an exhausted retry budget, awaiting discard at
    /// their ejection port.
    failed: BTreeSet<PacketId>,
    /// Packets discarded at ejection so far.
    dropped: u64,
    /// Flits or credits that pointed off the mesh edge and were discarded
    /// instead of aborting the run (always zero with the shipped routing
    /// algorithms; a non-zero value means a routing bug).
    routing_errors: u64,
    /// Per directed link (`node * 4 + direction`), the latest arrival
    /// cycle granted so far: retransmission delays must not let a later
    /// flit overtake an earlier one on the same wire.
    link_busy_until: Vec<u64>,
    /// Opt-in flit-lifecycle telemetry; `None` costs one branch per
    /// instrumentation site and no allocation.
    telemetry: Option<Box<FlitTelemetry>>,
}

impl Network {
    /// Builds an idle network.
    pub fn new(config: NocConfig) -> Self {
        config.validate();
        let mesh = config.mesh();
        let n = mesh.len();
        Self {
            config,
            mesh,
            routers: (0..n)
                .map(|i| Router::new(mesh.coord_of(i), &config))
                .collect(),
            pending_flits: vec![Vec::new(); n],
            pending_credits: vec![Vec::new(); n],
            source_queues: vec![VecDeque::new(); n],
            inject: vec![InjectState::default(); n],
            cycle: 0,
            counters: EnergyCounters::default(),
            injected: 0,
            multicast_saved_hops: 0,
            fault: config.fault.map(|f| FaultModel::new(f, mesh)),
            failed: BTreeSet::new(),
            dropped: 0,
            routing_errors: 0,
            link_busy_until: vec![0; n * Direction::MESH.len()],
            telemetry: None,
        }
    }

    /// Enables the flit-lifecycle tracer: `flit.inject`, `flit.route`,
    /// `flit.crc_fail`, `flit.retry`, `flit.retry_exhausted`,
    /// `flit.eject` and `flit.drop` events (timestamps in cycles) plus
    /// per-directed-link flit tallies. Costs memory proportional to
    /// traffic; intended for validation, debugging and `--events-out`.
    pub fn enable_flit_telemetry(&mut self) {
        self.telemetry = Some(Box::new(FlitTelemetry {
            collector: Collector::enabled("cycles"),
            link_flits: vec![0; self.mesh.len() * Direction::MESH.len()],
            window: WindowTally {
                start: self.cycle,
                ..WindowTally::default()
            },
            queue_depth_sum: 0,
            queue_depth_max: 0,
            occupancy_sum: 0,
            occupancy_max: 0,
            samples: 0,
        }));
    }

    /// Whether the flit-lifecycle tracer is currently recording.
    pub fn flit_telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Takes the flit-lifecycle collector, folding the per-link flit
    /// tallies into `link.x{X}y{Y}.{dir}.flits` counters and summary
    /// metrics (`link.links_used`, `link.max_flits`,
    /// `link.total_flits`, `flit.cycles`). Returns `None` when the
    /// tracer was never enabled; recording stops.
    pub fn take_flit_telemetry(&mut self) -> Option<Collector> {
        let mut tel = self.telemetry.take()?;
        tel.window.flush(&mut tel.collector, self.cycle);
        let mut collector = tel.collector;
        let (mut links_used, mut max_flits, mut total_flits) = (0u64, 0u64, 0u64);
        for (link, &flits) in tel.link_flits.iter().enumerate() {
            if flits == 0 {
                continue;
            }
            links_used += 1;
            max_flits = max_flits.max(flits);
            total_flits += flits;
            let at = self.mesh.coord_of(link / Direction::MESH.len());
            let dir = Direction::MESH[link % Direction::MESH.len()];
            collector.add(&format!("link.x{}y{}.{dir}.flits", at.x, at.y), flits);
        }
        collector.set_metric("link.links_used", Value::U64(links_used));
        collector.set_metric("link.max_flits", Value::U64(max_flits));
        collector.set_metric("link.total_flits", Value::U64(total_flits));
        collector.set_metric("flit.cycles", Value::U64(self.cycle));
        // Utilization = flits per cycle on a directed link; the peak is
        // the busiest link, the mean averages over the links that
        // carried traffic at all.
        if self.cycle > 0 && links_used > 0 {
            let cycles = self.cycle as f64;
            collector.set_metric(
                "link.peak_utilization",
                Value::F64(max_flits as f64 / cycles),
            );
            collector.set_metric(
                "link.mean_utilization",
                Value::F64(total_flits as f64 / (links_used as f64 * cycles)),
            );
        }
        // Per-cycle queue-depth / occupancy samples taken in `step`.
        collector.set_metric("queue.samples", Value::U64(tel.samples));
        collector.set_metric("queue.max_depth", Value::U64(tel.queue_depth_max));
        collector.set_metric("queue.max_occupancy", Value::U64(tel.occupancy_max));
        if tel.samples > 0 {
            let n = tel.samples as f64;
            collector.set_metric(
                "queue.mean_depth",
                Value::F64(tel.queue_depth_sum as f64 / n),
            );
            collector.set_metric(
                "queue.mean_occupancy",
                Value::F64(tel.occupancy_sum as f64 / n),
            );
        }
        Some(collector)
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated energy counters.
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Packets enqueued so far.
    pub fn packets_injected(&self) -> u64 {
        self.injected
    }

    /// Link hops saved by tree multicast relative to unicast clones.
    pub fn multicast_saved_hops(&self) -> u64 {
        self.multicast_saved_hops
    }

    /// Cumulative fault-injection event counts, when faults are enabled.
    pub fn fault_tally(&self) -> Option<&crate::fault::FaultTally> {
        self.fault.as_ref().map(FaultModel::tally)
    }

    /// Packets discarded at their ejection port so far (a flit exhausted
    /// its link-level retries; zero without fault injection).
    pub fn packets_dropped(&self) -> u64 {
        self.dropped
    }

    /// Flits or credits discarded because a route pointed off the mesh
    /// edge. Always zero with the shipped routing algorithms; counted
    /// instead of panicking so a routing bug degrades a run rather than
    /// aborting it.
    pub fn routing_errors(&self) -> u64 {
        self.routing_errors
    }

    /// Every packet currently queued at a source, streaming into a local
    /// port, buffered in a router or in flight on a link — sorted and
    /// deduplicated. This is the set a stalled run reports.
    pub fn in_flight_packets(&self) -> Vec<PacketId> {
        let mut ids: Vec<PacketId> = self
            .routers
            .iter()
            .flat_map(Router::buffered_packets)
            .chain(
                self.pending_flits
                    .iter()
                    .flatten()
                    .map(|&(_, _, _, flit)| flit.packet),
            )
            .chain(
                self.inject
                    .iter()
                    .flat_map(|s| s.flits.iter().map(|f| f.packet)),
            )
            .chain(self.source_queues.iter().flatten().map(|p| p.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total flits currently buffered in routers plus in flight.
    pub fn occupancy(&self) -> usize {
        self.routers.iter().map(Router::occupancy).sum::<usize>()
            + self.pending_flits.iter().map(Vec::len).sum::<usize>()
            + self.inject.iter().map(|s| s.flits.len()).sum::<usize>()
            + self
                .source_queues
                .iter()
                .map(|q| q.iter().map(|p| p.len_flits * p.dsts.len()).sum::<usize>())
                .sum::<usize>()
    }

    /// Enqueues a packet at its source. Multicast packets are decomposed
    /// into per-destination branches; the link hops their shared tree
    /// prefix saves (the SRLR free multicast) are tallied in
    /// [`Self::multicast_saved_hops`].
    pub fn enqueue(&mut self, packet: Packet) {
        let node = self.mesh.index_of(packet.src);
        self.injected += 1;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.collector.event(
                "flit.inject",
                self.cycle as f64,
                &[
                    ("packet", Value::U64(packet.id.0)),
                    ("src_x", Value::U64(u64::from(packet.src.x))),
                    ("src_y", Value::U64(u64::from(packet.src.y))),
                    ("flits", Value::U64(packet.len_flits as u64)),
                    ("branches", Value::U64(packet.dsts.len() as u64)),
                ],
            );
            tel.collector.add("flit.packets_injected", 1);
        }
        if packet.is_multicast() {
            let acc = crate::multicast::MulticastAccounting::for_packet(self.mesh, &packet);
            self.multicast_saved_hops += acc.saved_hops() as u64 * packet.len_flits as u64;
            for (i, &dst) in packet.dsts.iter().enumerate() {
                let branch = Packet::unicast(
                    crate::packet::PacketId(packet.id.0 | ((i as u64 + 1) << 48)),
                    packet.src,
                    dst,
                    packet.len_flits,
                    packet.inject_cycle,
                );
                self.source_queues[node].push_back(branch);
            }
        } else {
            self.source_queues[node].push_back(packet);
        }
    }

    /// Advances the simulation by one cycle, returning the packets that
    /// completed (`(destination, latency_cycles)` per ejected tail).
    pub fn step(&mut self) -> Vec<(Coord, u64)> {
        let n = self.routers.len();

        // Phase 0 (telemetry only): sample queue depth and occupancy as
        // of the cycle start, and roll the retry/NACK window over. The
        // flush timestamp is the current cycle, so the event stream
        // stays monotone in time.
        if self.telemetry.is_some() {
            let depth: u64 = self.source_queues.iter().map(|q| q.len() as u64).sum();
            let occupancy = self.occupancy() as u64;
            let cycle = self.cycle;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.queue_depth_sum += depth;
                tel.queue_depth_max = tel.queue_depth_max.max(depth);
                tel.occupancy_sum += occupancy;
                tel.occupancy_max = tel.occupancy_max.max(occupancy);
                tel.samples += 1;
                if cycle - tel.window.start >= TELEMETRY_WINDOW_CYCLES {
                    tel.window.flush(&mut tel.collector, cycle);
                }
            }
        }

        // Phase 1: deliver due link flits and credits, in arrival order
        // and in place (later flits keep their order and the lists keep
        // their capacity).
        let now = self.cycle;
        for i in 0..n {
            let router = &mut self.routers[i];
            let buffer_writes = &mut self.counters.buffer_writes;
            self.pending_flits[i].retain(|&(at, port, vc, flit)| {
                let due = at <= now;
                if due {
                    router.accept(port, vc, flit);
                    *buffer_writes += 1;
                }
                !due
            });
            for (port, vc) in self.pending_credits[i].drain(..) {
                router.return_credit(port, vc);
            }
        }

        // Phase 2: injection into local input ports.
        for i in 0..n {
            if self.inject[i].flits.is_empty() {
                if let Some(pkt) = self.source_queues[i].pop_front() {
                    let dst = pkt.dst();
                    // Pick the emptiest local VC for the new packet.
                    let vc = (0..self.config.vcs)
                        .max_by_key(|&v| self.routers[i].free_slots(Direction::Local, v))
                        .unwrap_or(0);
                    self.inject[i] = InjectState {
                        flits: pkt.flits(dst).into(),
                        vc,
                    };
                }
            }
            let state = &mut self.inject[i];
            if let Some(&flit) = state.flits.front() {
                if self.routers[i].free_slots(Direction::Local, state.vc) > 0 {
                    self.routers[i].accept(Direction::Local, state.vc, flit);
                    self.counters.buffer_writes += 1;
                    state.flits.pop_front();
                }
            }
        }

        // Phase 3: router pipelines, sharing one sent-flit buffer.
        let mut completed = Vec::new();
        let mut sent = SentFlits::new();
        for i in 0..n {
            let activity = self.routers[i].step(self.mesh, &mut sent);
            self.counters.allocations += (activity.route_computations
                + activity.vc_allocations
                + activity.switch_allocations) as u64;
            let here = self.routers[i].coord();
            for &s in sent.iter() {
                self.counters.buffer_reads += 1;
                if s.flit.kind.is_head() {
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.collector.event(
                            "flit.route",
                            self.cycle as f64,
                            &[
                                ("packet", Value::U64(s.flit.packet.0)),
                                ("x", Value::U64(u64::from(here.x))),
                                ("y", Value::U64(u64::from(here.y))),
                                ("out", Value::Str(s.out_port.to_string())),
                            ],
                        );
                    }
                }
                // Credit back to the upstream router (not for local
                // injection, whose occupancy is polled directly). A flit
                // claiming to come from off-mesh means a corrupted route:
                // count it, don't abort the run.
                if s.in_port != Direction::Local {
                    match (s.in_port.opposite(), self.mesh.neighbor(here, s.in_port)) {
                        (Some(back), Some(up)) => {
                            self.pending_credits[self.mesh.index_of(up)].push((back, s.in_vc));
                        }
                        _ => self.routing_errors += 1,
                    }
                }
                if s.out_port == Direction::Local {
                    self.counters.local_hops += 1;
                    if s.flit.kind.is_tail() {
                        if self.failed.remove(&s.flit.packet) {
                            // A flit of this packet exhausted its link
                            // retries: the whole packet is discarded at
                            // ejection (flits are never dropped mid-route,
                            // which would dangle the wormhole).
                            self.dropped += 1;
                            if let Some(fault) = self.fault.as_mut() {
                                fault.note_packet_dropped();
                            }
                            if let Some(tel) = self.telemetry.as_mut() {
                                tel.collector.event(
                                    "flit.drop",
                                    self.cycle as f64,
                                    &[
                                        ("packet", Value::U64(s.flit.packet.0)),
                                        ("x", Value::U64(u64::from(here.x))),
                                        ("y", Value::U64(u64::from(here.y))),
                                    ],
                                );
                                tel.collector.add("flit.packets_dropped", 1);
                                tel.window.drops += 1;
                            }
                        } else {
                            let latency = self.cycle - s.flit.inject_cycle + 1;
                            completed.push((here, latency));
                            if let Some(tel) = self.telemetry.as_mut() {
                                tel.collector.event(
                                    "flit.eject",
                                    self.cycle as f64,
                                    &[
                                        ("packet", Value::U64(s.flit.packet.0)),
                                        ("x", Value::U64(u64::from(here.x))),
                                        ("y", Value::U64(u64::from(here.y))),
                                        ("latency", Value::U64(latency)),
                                    ],
                                );
                                tel.collector.add("flit.packets_ejected", 1);
                            }
                        }
                    }
                } else {
                    match (s.out_port.opposite(), self.mesh.neighbor(here, s.out_port)) {
                        (Some(arrive_port), Some(next)) => {
                            self.counters.link_hops += 1;
                            let mut delay = 1 + self.config.extra_pipeline;
                            if let Some(fault) = self.fault.as_mut() {
                                let tx = fault.transmit(here, s.out_port, &s.flit);
                                self.counters.retry_hops += u64::from(tx.attempts - 1);
                                self.counters.nacks += u64::from(tx.nacks);
                                delay += tx.extra_delay;
                                if !tx.delivered {
                                    self.failed.insert(s.flit.packet);
                                }
                                if let Some(tel) = self.telemetry.as_mut() {
                                    record_fault_events(
                                        &mut tel.collector,
                                        self.cycle,
                                        here,
                                        s.out_port,
                                        s.flit.packet,
                                        &tx,
                                    );
                                    tel.window.nacks += u64::from(tx.nacks);
                                    tel.window.retries += u64::from(tx.attempts - 1);
                                }
                            }
                            // Retransmission delay must not let this flit
                            // overtake an earlier one on the same wire
                            // (the shared scheduling rule the checker
                            // verifies, see `crate::protocol`).
                            let link = i * Direction::MESH.len() + s.out_port.index();
                            if let Some(tel) = self.telemetry.as_mut() {
                                tel.link_flits[link] += 1;
                            }
                            let at = crate::protocol::link_arrival(
                                self.cycle,
                                delay,
                                self.link_busy_until[link],
                            );
                            self.link_busy_until[link] = at;
                            self.pending_flits[self.mesh.index_of(next)].push((
                                at,
                                arrive_port,
                                s.out_vc,
                                s.flit,
                            ));
                        }
                        _ => self.routing_errors += 1,
                    }
                }
            }
        }

        self.cycle += 1;
        self.counters.router_cycles += n as u64;
        completed
    }

    /// Runs `warmup` cycles of traffic, then measures for `measure`
    /// cycles, returning the window statistics.
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
        self.run_warmup_and_measure_profiled(
            pattern,
            injection_rate,
            warmup,
            measure,
            &mut srlr_telemetry::Profiler::disabled(),
        )
    }

    /// [`Self::run_warmup_and_measure`] with profiling: the warmup and
    /// measurement windows land as `noc.warmup` / `noc.measure` frames
    /// in `prof`. A disabled profiler costs one branch per frame and
    /// this *is* the unprofiled path — same code, same result.
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn run_warmup_and_measure_profiled(
        &mut self,
        pattern: Pattern,
        injection_rate: f64,
        warmup: u64,
        measure: u64,
        prof: &mut srlr_telemetry::Profiler,
    ) -> NetworkStats {
        assert!(measure > 0, "measurement window must be non-empty");
        let mut gen = TrafficGenerator::new(
            self.mesh,
            pattern,
            injection_rate,
            self.config.packet_len,
            self.config.seed,
        );
        prof.enter("noc.warmup");
        for _ in 0..warmup {
            self.inject_from(&mut gen);
            let _ = self.step();
        }
        prof.exit();
        let counters_before = self.counters;
        let injected_before = self.injected;
        let dropped_before = self.dropped;
        let faults_before = self.fault.as_ref().map(|f| f.tally().clone());
        let mut stats = NetworkStats::new(measure, self.mesh.len());
        prof.enter("noc.measure");
        for _ in 0..measure {
            self.inject_from(&mut gen);
            for (_, latency) in self.step() {
                stats.record_packet(latency);
            }
        }
        prof.exit();
        // Flit receipt count over the window comes from the counter delta.
        stats.flits_received = self.counters.local_hops - counters_before.local_hops;
        stats.packets_injected = self.injected - injected_before;
        stats.packets_dropped = self.dropped - dropped_before;
        stats.energy = self.counters.delta(&counters_before);
        if let (Some(fault), Some(before)) = (self.fault.as_ref(), faults_before) {
            stats.faults = fault.tally().diff(&before);
        }
        stats
    }

    /// Steps the network until `packets` have terminated (delivered or,
    /// under fault injection, dropped at ejection), returning the
    /// delivered `(destination, latency_cycles)` pairs in completion
    /// order.
    ///
    /// This is the bounded replacement for the "step a magic number of
    /// cycles and panic" idiom: when `max_cycles` elapse first, the run
    /// surfaces a typed [`StalledError`] carrying the partial deliveries
    /// and the set of packets still in the network instead of aborting
    /// the process.
    ///
    /// # Errors
    ///
    /// Returns [`StalledError`] when the cycle budget is exhausted before
    /// `packets` packets terminate.
    pub fn run_until_delivered(
        &mut self,
        packets: usize,
        max_cycles: u64,
    ) -> Result<Vec<(Coord, u64)>, StalledError> {
        let dropped_before = self.dropped;
        let mut delivered = Vec::new();
        for _ in 0..max_cycles {
            delivered.extend(self.step());
            let terminated = delivered.len() as u64 + (self.dropped - dropped_before);
            if terminated >= packets as u64 {
                return Ok(delivered);
            }
        }
        Err(StalledError {
            cycles: max_cycles,
            dropped: self.dropped - dropped_before,
            in_flight: self.in_flight_packets(),
            delivered,
        })
    }

    fn inject_from(&mut self, gen: &mut TrafficGenerator) {
        for i in 0..self.mesh.len() {
            if let Some(pkt) = gen.maybe_inject(self.mesh.coord_of(i), self.cycle) {
                self.enqueue(pkt);
            }
        }
    }

    /// Runs until every queued flit has drained or `max_cycles` elapse;
    /// returns `true` when fully drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.occupancy() == 0 {
                return true;
            }
            let _ = self.step();
        }
        self.occupancy() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    fn small_config() -> NocConfig {
        NocConfig::paper_default().with_size(4, 4)
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        let mut net = Network::new(small_config());
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 3);
        net.enqueue(Packet::unicast(PacketId(1), src, dst, 5, 0));
        let done = net.run_until_delivered(1, 100).expect("must arrive");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, dst);
        // 6 hops (router + link each) serialising 5 flits: small but
        // at least the hop count plus the body flits.
        assert!(done[0].1 >= 10 && done[0].1 < 40, "latency {}", done[0].1);
        assert!(net.drain(10), "network should be empty");
    }

    #[test]
    fn local_delivery_works() {
        let mut net = Network::new(small_config());
        let at = Coord::new(1, 1);
        net.enqueue(Packet::unicast(PacketId(1), at, at, 1, 0));
        let done = net.run_until_delivered(1, 20).expect("must arrive");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, at);
    }

    #[test]
    fn all_flits_are_conserved() {
        let mut net = Network::new(small_config());
        for k in 0..10 {
            net.enqueue(Packet::unicast(
                PacketId(k),
                Coord::new((k % 4) as u16, 0),
                Coord::new(3 - (k % 4) as u16, 3),
                5,
                0,
            ));
        }
        assert!(net.drain(500), "all packets must eventually drain");
        assert_eq!(net.counters().local_hops, 50, "5 flits x 10 packets eject");
    }

    #[test]
    fn uniform_traffic_flows_at_low_load() {
        let mut net = Network::new(small_config());
        let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 300, 1000);
        assert!(stats.packets_received > 50, "{stats}");
        let avg = stats.avg_latency_cycles();
        assert!(avg > 5.0 && avg < 60.0, "avg latency {avg}");
    }

    #[test]
    fn latency_rises_with_load() {
        let lat = |rate: f64| {
            let mut net = Network::new(small_config());
            net.run_warmup_and_measure(Pattern::UniformRandom, rate, 300, 1500)
                .avg_latency_cycles()
        };
        let low = lat(0.02);
        let high = lat(0.12);
        assert!(high > low, "latency must rise with load: {low} -> {high}");
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let mut net = Network::new(small_config());
        let rate = 0.04;
        let stats = net.run_warmup_and_measure(Pattern::UniformRandom, rate, 500, 2000);
        let offered_flits = rate * 5.0;
        let accepted = stats.throughput_flits_per_node_cycle();
        assert!(
            (accepted - offered_flits).abs() < offered_flits * 0.25,
            "accepted {accepted} vs offered {offered_flits}"
        );
    }

    #[test]
    fn neighbor_traffic_has_lower_latency_than_uniform() {
        let run = |pattern| {
            let mut net = Network::new(small_config());
            net.run_warmup_and_measure(pattern, 0.05, 300, 1500)
                .avg_latency_cycles()
        };
        assert!(run(Pattern::Neighbor) < run(Pattern::UniformRandom));
    }

    #[test]
    fn multicast_decomposes_and_saves_hops() {
        let mut net = Network::new(small_config());
        net.enqueue(Packet::multicast(
            PacketId(7),
            Coord::new(0, 0),
            vec![Coord::new(3, 0), Coord::new(3, 1), Coord::new(3, 2)],
            2,
            0,
        ));
        // One multicast = 3 branches.
        let done = net.run_until_delivered(3, 200).expect("branches arrive");
        assert_eq!(done.len(), 3);
        // Shared prefix (0,0)->(3,0) appears once in the tree but three
        // times in unicast clones: savings must be positive.
        assert!(net.multicast_saved_hops() > 0);
    }

    #[test]
    fn extra_pipeline_stretches_latency_by_hops() {
        let run = |extra: u64| {
            let mut net = Network::new(small_config().with_extra_pipeline(extra));
            net.enqueue(Packet::unicast(
                PacketId(1),
                Coord::new(0, 0),
                Coord::new(3, 3),
                1,
                0,
            ));
            net.run_until_delivered(1, 200).expect("must arrive")[0].1
        };
        let base = run(0);
        let deep = run(1);
        // 6 inter-router links... the last hop to the local port has no
        // link, so 5-6 extra cycles for one extra pipeline stage.
        assert!(
            deep >= base + 5 && deep <= base + 7,
            "base {base}, deep {deep}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut net = Network::new(small_config().with_seed(9));
            let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.08, 200, 800);
            (stats.packets_received, stats.latency_sum)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stalled_run_reports_the_in_flight_set() {
        let mut net = Network::new(small_config());
        net.enqueue(Packet::unicast(
            PacketId(1),
            Coord::new(0, 0),
            Coord::new(3, 3),
            5,
            0,
        ));
        let err = net
            .run_until_delivered(1, 3)
            .expect_err("3 cycles is too few");
        assert_eq!(err.cycles, 3);
        assert!(err.delivered.is_empty());
        assert_eq!(err.dropped, 0);
        assert_eq!(err.in_flight, vec![PacketId(1)]);
        assert!(err.to_string().contains("stalled after 3 cycles"));
        // The same network finishes the job given a real budget.
        let done = net.run_until_delivered(1, 200).expect("must arrive");
        assert_eq!(done.len(), 1);
        assert!(net.in_flight_packets().is_empty());
    }

    #[test]
    fn zero_ber_fault_model_is_transparent() {
        let run = |config: NocConfig| {
            let mut net = Network::new(config);
            let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.08, 200, 800);
            (
                stats.packets_received,
                stats.latency_sum,
                stats.latency_max,
                stats.energy,
            )
        };
        // Delivered packets, latencies and energy must be bit-identical
        // with the fault model installed at BER 0.
        assert_eq!(run(small_config()), run(small_config().with_ber(0.0)));
    }

    #[test]
    fn faulty_links_retry_and_recover() {
        let mut net = Network::new(small_config().with_ber(2e-3));
        let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 300, 2000);
        assert!(stats.faults.flits_corrupted > 0, "{:?}", stats.faults);
        assert!(stats.energy.retry_hops > 0);
        assert!(stats.energy.nacks >= stats.energy.retry_hops);
        assert!(stats.packets_received > 50, "{stats}");
        assert!(net.drain(20_000), "faulty network must still drain");
        assert_eq!(net.routing_errors(), 0);
    }

    #[test]
    fn exhausted_retries_drop_packets_at_ejection() {
        // 2 % BER corrupts ~80 % of 80-bit words; with the default 4
        // retries plenty of flits exhaust their budget.
        let mut net = Network::new(small_config().with_ber(0.02));
        let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.03, 300, 2000);
        assert!(stats.packets_dropped > 0, "{stats}");
        assert!(stats.delivered_fraction() < 1.0);
        assert!(stats.faults.retries_exhausted >= stats.packets_dropped);
        assert_eq!(
            net.packets_dropped(),
            net.fault_tally().expect("faults enabled").packets_dropped
        );
        assert!(net.drain(50_000), "drops must not wedge the wormhole");
    }

    #[test]
    fn flit_telemetry_traces_the_lifecycle() {
        let mut net = Network::new(small_config());
        net.enable_flit_telemetry();
        assert!(net.flit_telemetry_enabled());
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 3);
        net.enqueue(Packet::unicast(PacketId(9), src, dst, 2, 0));
        let done = net.run_until_delivered(1, 200).expect("must arrive");
        let latency = done[0].1;
        let tel = net.take_flit_telemetry().expect("tracer was enabled");
        assert!(!net.flit_telemetry_enabled(), "take stops recording");
        assert!(net.take_flit_telemetry().is_none());

        assert_eq!(tel.timebase(), "cycles");
        let names: Vec<&str> = tel.events().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names.first(), Some(&"flit.inject"));
        assert_eq!(names.last(), Some(&"flit.eject"));
        // XY from (0,0) to (3,3): 6 inter-router hops + the local
        // ejection = 7 route events for the head flit.
        assert_eq!(names.iter().filter(|n| **n == "flit.route").count(), 7);
        let eject = tel.events().last().expect("eject event");
        assert_eq!(
            eject.fields.get("latency"),
            Some(&srlr_telemetry::Value::U64(latency))
        );
        assert_eq!(tel.counter("flit.packets_injected"), 1);
        assert_eq!(tel.counter("flit.packets_ejected"), 1);
        assert_eq!(tel.counter("flit.packets_dropped"), 0);
        // 6 links x 2 flits traversed; the per-link counters agree.
        assert_eq!(
            tel.metrics().get("link.total_flits"),
            Some(&srlr_telemetry::Value::U64(12))
        );
        assert_eq!(
            tel.metrics().get("link.links_used"),
            Some(&srlr_telemetry::Value::U64(6))
        );
        assert_eq!(tel.counter("link.x0y0.E.flits"), 2);
        // Timestamps are cycles: monotone non-decreasing in the stream.
        let ts: Vec<f64> = tel.events().iter().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "cycle order: {ts:?}");
    }

    #[test]
    fn flit_telemetry_does_not_perturb_the_simulation() {
        let run = |trace: bool| {
            let mut net = Network::new(small_config().with_seed(5));
            if trace {
                net.enable_flit_telemetry();
            }
            let stats = net.run_warmup_and_measure(Pattern::UniformRandom, 0.08, 200, 800);
            (stats.packets_received, stats.latency_sum, stats.energy)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn flit_telemetry_records_faults_and_drops() {
        let mut net = Network::new(small_config().with_ber(0.02));
        net.enable_flit_telemetry();
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.03, 300, 2000);
        let dropped = net.packets_dropped();
        assert!(dropped > 0, "2 % BER must drop packets");
        let tel = net.take_flit_telemetry().expect("enabled");
        assert!(tel.counter("flit.nacks") > 0);
        assert!(tel.counter("flit.retries") > 0);
        assert!(tel.counter("flit.retries_exhausted") > 0);
        assert_eq!(tel.counter("flit.packets_dropped"), dropped);
        let names: Vec<&str> = tel.events().iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"flit.crc_fail"));
        assert!(names.contains(&"flit.retry"));
        assert!(names.contains(&"flit.drop"));
    }

    #[test]
    fn flit_telemetry_samples_queues_and_link_utilization() {
        let mut net = Network::new(small_config().with_seed(7));
        net.enable_flit_telemetry();
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.10, 200, 800);
        let cycles = net.cycle();
        let tel = net.take_flit_telemetry().expect("enabled");
        // One queue/occupancy sample per simulated cycle.
        assert_eq!(
            tel.metrics().get("queue.samples"),
            Some(&Value::U64(cycles))
        );
        let get_f64 = |name: &str| match tel.metrics().get(name) {
            Some(&Value::F64(v)) => v,
            other => panic!("{name} missing or not F64: {other:?}"),
        };
        let get_u64 = |name: &str| match tel.metrics().get(name) {
            Some(&Value::U64(v)) => v,
            other => panic!("{name} missing or not U64: {other:?}"),
        };
        // At 10 % load the queues are exercised; means are bounded by
        // the observed maxima.
        assert!(get_u64("queue.max_occupancy") > 0);
        assert!(get_f64("queue.mean_occupancy") > 0.0);
        assert!(get_f64("queue.mean_occupancy") <= get_u64("queue.max_occupancy") as f64);
        assert!(get_f64("queue.mean_depth") <= get_u64("queue.max_depth") as f64);
        // Utilization is flits per cycle on a directed link: positive
        // under traffic, at most one (the wire carries one flit/cycle).
        let (mean, peak) = (
            get_f64("link.mean_utilization"),
            get_f64("link.peak_utilization"),
        );
        assert!(0.0 < mean && mean <= peak && peak <= 1.0, "{mean} {peak}");
    }

    #[test]
    fn retry_window_events_tally_the_fault_totals() {
        let mut net = Network::new(small_config().with_ber(0.02));
        net.enable_flit_telemetry();
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.03, 300, 2000);
        let tel = net.take_flit_telemetry().expect("enabled");
        let windows: Vec<_> = tel
            .events()
            .iter()
            .filter(|e| e.name == "flit.window")
            .collect();
        assert!(!windows.is_empty(), "2 % BER must produce retry windows");
        let sum_field = |field: &str| -> u64 {
            windows
                .iter()
                .map(|e| match e.fields.get(field) {
                    Some(&Value::U64(v)) => v,
                    other => panic!("window field {field}: {other:?}"),
                })
                .sum()
        };
        // The windowed rate-over-time decomposition conserves the run
        // totals exactly.
        assert_eq!(sum_field("nacks"), tel.counter("flit.nacks"));
        assert_eq!(sum_field("retries"), tel.counter("flit.retries"));
        assert_eq!(sum_field("drops"), tel.counter("flit.packets_dropped"));
        // Windows cover disjoint spans no longer than the window size.
        for e in &windows {
            let start = match e.fields.get("window_start") {
                Some(&Value::U64(v)) => v,
                other => panic!("window_start: {other:?}"),
            };
            assert!(e.ts >= start as f64);
        }
    }

    #[test]
    fn fault_free_runs_emit_no_window_events() {
        let mut net = Network::new(small_config());
        net.enable_flit_telemetry();
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 100, 400);
        let tel = net.take_flit_telemetry().expect("enabled");
        assert!(
            tel.events().iter().all(|e| e.name != "flit.window"),
            "empty windows are skipped, not emitted"
        );
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_frames_the_phases() {
        use srlr_telemetry::{Clock, Profiler};
        let run = |profile: bool| {
            let mut net = Network::new(small_config().with_seed(3));
            let mut prof = if profile {
                Profiler::enabled(Clock::tick(1.0))
            } else {
                Profiler::disabled()
            };
            let stats = net.run_warmup_and_measure_profiled(
                Pattern::UniformRandom,
                0.05,
                150,
                600,
                &mut prof,
            );
            (stats, prof.snapshot())
        };
        let (plain, empty) = run(false);
        assert!(empty.nodes.is_empty());
        let (profiled, profile) = run(true);
        assert_eq!(plain, profiled, "profiling must not perturb the run");
        let names: Vec<&str> = profile.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["noc.warmup", "noc.measure"]);
    }

    #[test]
    fn counters_accumulate() {
        let mut net = Network::new(small_config());
        let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 100, 400);
        let c = net.counters();
        assert!(c.buffer_writes > 0);
        assert!(c.buffer_reads > 0);
        assert!(c.link_hops > 0);
        assert!(c.allocations > 0);
        assert_eq!(c.router_cycles, 500 * 16);
        // Every read was once written.
        assert!(c.buffer_reads <= c.buffer_writes);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use crate::routing::RoutingAlgorithm;

    fn config(routing: RoutingAlgorithm) -> NocConfig {
        NocConfig::paper_default()
            .with_size(4, 4)
            .with_routing(routing)
    }

    #[test]
    fn west_first_network_delivers_everything() {
        let mut net = Network::new(config(RoutingAlgorithm::WestFirst));
        let stats =
            net.run_warmup_and_measure(crate::traffic::Pattern::UniformRandom, 0.08, 300, 1500);
        assert!(stats.packets_received > 100, "{stats}");
        assert!(net.drain(20_000), "adaptive mesh must drain (deadlock?)");
    }

    #[test]
    fn west_first_survives_heavy_load_without_deadlock() {
        // The turn-model guarantee: even past saturation the network must
        // keep making progress and drain completely afterwards.
        let mut net = Network::new(config(RoutingAlgorithm::WestFirst));
        let stats = net.run_warmup_and_measure(crate::traffic::Pattern::Transpose, 0.30, 500, 1500);
        assert!(stats.packets_received > 100, "{stats}");
        assert!(net.drain(100_000), "deadlock under heavy transpose load");
    }

    #[test]
    fn adaptive_helps_transpose_traffic() {
        // Transpose concentrates XY traffic on the diagonal; spreading
        // over the adaptive quadrant should not do worse.
        let run = |routing| {
            let mut net = Network::new(config(routing));
            net.run_warmup_and_measure(crate::traffic::Pattern::Transpose, 0.10, 400, 1500)
                .throughput_flits_per_node_cycle()
        };
        let xy = run(RoutingAlgorithm::Xy);
        let adaptive = run(RoutingAlgorithm::WestFirst);
        assert!(
            adaptive > xy * 0.9,
            "adaptive throughput {adaptive} collapsed vs XY {xy}"
        );
    }
}
