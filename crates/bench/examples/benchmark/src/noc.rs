//! `noc_faults`: `ber_sweep` on the paper's 8×8 mesh.
//!
//! Uniform random traffic at 0.05 load; BER {0, 1e-6, 1e-5, 1e-4,
//! 1e-3, 1e-2}; 100 warm-up and 400 measured cycles per point. That is
//! 192,000 router-cycles over (at most) two workers, which split the
//! six points statically. The retry-heavy 1e-2 point is the slowest
//! and sets the wall time, so this is the workload that shows the
//! router pipeline, the CRC/retry path and load balance in
//! `srlr-parallel`.
//!
//! The seed drives both the traffic generator and the per-link fault
//! streams.

use crate::harness::{Trace, Workload};
use srlr_noc::traffic::{Pattern, TrafficGenerator};
use srlr_noc::{ber_sweep, FaultConfig, FaultSweepPoint, Network, NetworkStats, NocConfig};
use srlr_telemetry::Profiler;
use std::sync::OnceLock;

const LOAD: f64 = 0.05;
const WARMUP: u64 = 100;
const MEASURE: u64 = 400;
const BERS: [f64; 6] = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
/// Golden (delivered, dropped, retransmitted flits) per BER at seed 42.
const GOLDEN: [(u64, u64, u64); 6] = [
    (1265, 0, 0),
    (1265, 0, 4),
    (1268, 0, 26),
    (1267, 0, 278),
    (1269, 0, 2819),
    (364, 836, 37195),
];

pub struct Noc;

pub struct Inputs {
    config: NocConfig,
    template: FaultConfig,
    threads: usize,
}

impl Workload for Noc {
    type Inputs = Inputs;
    type Output = Vec<FaultSweepPoint>;
    const NAME: &'static str = "noc_faults";
    const DEFAULT_SEED: u64 = 42;
    const WORK_UNIT: &'static str = "router-cycles";

    fn threads() -> usize {
        // Cached: the query is a system call, and set-up reads it.
        static THREADS: OnceLock<usize> = OnceLock::new();
        *THREADS.get_or_init(|| srlr_parallel::available_threads().min(2))
    }

    fn setup(seed: u64) -> Inputs {
        Inputs {
            config: NocConfig::paper_default().with_seed(seed),
            template: FaultConfig::new(0.0).with_seed(seed),
            threads: Self::threads(),
        }
    }

    fn work_units(inputs: &Inputs, _: &Vec<FaultSweepPoint>) -> u64 {
        inputs.config.mesh().len() as u64 * (WARMUP + MEASURE) * BERS.len() as u64
    }

    fn run(inputs: &Inputs) -> Vec<FaultSweepPoint> {
        ber_sweep(
            inputs.config,
            inputs.template,
            Pattern::UniformRandom,
            LOAD,
            WARMUP,
            MEASURE,
            &BERS,
            Some(inputs.threads),
        )
    }

    fn replay(
        inputs: &Inputs,
        trace: &mut Trace,
        _oracle: bool,
    ) -> Result<Vec<FaultSweepPoint>, String> {
        let parent = &trace.prof;
        let points = srlr_parallel::par_map_indexed(BERS.len(), inputs.threads, |i| {
            let mut prof = parent.child();
            prof.enter("parallel.point");
            let point = run_point(inputs, BERS[i], &mut prof);
            prof.exit();
            let point_s = prof.snapshot().nodes.first().map_or(0.0, |n| n.total_s);
            (point, prof, point_s)
        });
        let mut out = Vec::with_capacity(points.len());
        for (point, prof, point_s) in points {
            trace.prof.merge(prof);
            trace.peak("parallel.point_s.max", point_s);
            out.push(point);
        }
        Ok(out)
    }

    fn check(_: &Inputs, out: &Vec<FaultSweepPoint>, golden: bool) -> Result<(), String> {
        let got: Vec<(u64, u64, u64)> = out
            .iter()
            .map(|p| {
                (
                    p.stats.packets_received,
                    p.stats.packets_dropped,
                    p.stats.faults.flits_retransmitted,
                )
            })
            .collect();
        if golden && got != GOLDEN {
            return Err(format!(
                "noc_faults (delivered, dropped, retransmitted) per point {got:?} differ from the golden {GOLDEN:?}"
            ));
        }
        Ok(())
    }
}

/// One sweep point, step by step as `Network::run_warmup_and_measure`
/// runs it, with the window statistics assembled the same way.
fn run_point(inputs: &Inputs, ber: f64, prof: &mut Profiler) -> FaultSweepPoint {
    let config = inputs.config;
    let mesh = config.mesh();
    prof.enter("noc.build");
    let mut net = Network::new(config.with_faults(FaultConfig {
        ber,
        ..inputs.template
    }));
    let mut gen = TrafficGenerator::new(
        mesh,
        Pattern::UniformRandom,
        LOAD,
        config.packet_len,
        config.seed,
    );
    prof.exit();

    let mut delivered = 0u64;
    let mut cycle = |net: &mut Network, prof: &mut Profiler, stats: Option<&mut NetworkStats>| {
        prof.enter("noc.inject");
        for node in 0..mesh.len() {
            if let Some(packet) = gen.maybe_inject(mesh.coord_of(node), net.cycle()) {
                net.enqueue(packet);
            }
        }
        prof.exit();
        prof.enter("noc.step");
        let arrivals = net.step();
        delivered += arrivals.len() as u64;
        if let Some(stats) = stats {
            for (_, latency) in arrivals {
                stats.record_packet(latency);
            }
        }
        prof.exit();
    };
    for _ in 0..WARMUP {
        cycle(&mut net, prof, None);
    }
    let counters_before = *net.counters();
    let injected_before = net.packets_injected();
    let dropped_before = net.packets_dropped();
    let faults_before = net.fault_tally().cloned();
    let mut stats = NetworkStats::new(MEASURE, mesh.len());
    for _ in 0..MEASURE {
        cycle(&mut net, prof, Some(&mut stats));
    }

    let counters = *net.counters();
    stats.flits_received = counters.local_hops - counters_before.local_hops;
    stats.packets_injected = net.packets_injected() - injected_before;
    stats.packets_dropped = net.packets_dropped() - dropped_before;
    stats.energy = counters.delta(&counters_before);
    if let (Some(tally), Some(before)) = (net.fault_tally(), faults_before) {
        stats.faults = tally.diff(&before);
    }

    for (name, n) in [
        ("noc.router_cycles", counters.router_cycles),
        ("noc.link_hops", counters.link_hops),
        ("noc.retry_hops", counters.retry_hops),
        ("noc.nacks", counters.nacks),
        ("noc.allocations", counters.allocations),
        ("noc.buffer_writes", counters.buffer_writes),
        ("noc.packets_injected", net.packets_injected()),
        ("noc.packets_delivered", delivered),
        ("noc.packets_dropped", net.packets_dropped()),
    ] {
        prof.count_n(name, n);
    }
    FaultSweepPoint { ber, stats }
}
