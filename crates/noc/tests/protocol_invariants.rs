//! Property tests for the shared link-protocol transition functions:
//! the `link_busy_until` no-overtaking invariant under 1000 random
//! fault seeds, wormhole integrity of whole networks under the same
//! seeds, and trace-identity of seeded faulty runs — the simulation
//! mirror of the `srlr-model` checker's qualitative claims.

use srlr_noc::protocol::link_arrival;
use srlr_noc::traffic::Pattern;
use srlr_noc::{
    Coord, Direction, FaultConfig, FaultModel, Mesh, Network, NocConfig, Packet, PacketId,
};
use srlr_telemetry::Obs;

/// The sender of a 2x2 mesh's (0,0) -> (1,0) link.
const SRC: Coord = Coord { x: 0, y: 0 };

#[test]
fn retried_heads_are_never_overtaken_across_1000_fault_seeds() {
    // A wormhole's flits leave the sender one cycle apart; retries delay
    // individual flits by different amounts. The scheduling rule must
    // keep per-link arrival order equal to send order for every sampled
    // delay sequence — and the check must not be vacuous: without the
    // watermark the same delay sequences WOULD reorder flits.
    let flits = Packet::unicast(PacketId(1), SRC, Coord::new(1, 1), 8, 0).flits(Coord::new(1, 1));
    let mut naive_overtakes = 0u64;
    for seed in 0..1000u64 {
        let config = FaultConfig::new(0.05).with_seed(seed).with_max_retries(4);
        let mut fm = FaultModel::new(config, Mesh::new(2, 2));
        let mut busy = 0u64;
        let mut last_naive = 0u64;
        for (i, flit) in flits.iter().enumerate() {
            let send = i as u64;
            let tx = fm.transmit(SRC, Direction::East, flit);
            let at = link_arrival(send, 1 + tx.extra_delay, busy);
            assert!(
                at > busy,
                "seed {seed} flit {i}: arrival {at} overtakes watermark {busy}"
            );
            let naive = send + 1 + tx.extra_delay;
            if naive <= last_naive {
                naive_overtakes += 1;
            }
            last_naive = last_naive.max(naive);
            busy = at;
        }
    }
    assert!(
        naive_overtakes > 0,
        "at 5 % BER some delay sequence must reorder flits without the watermark"
    );
}

#[test]
fn wormholes_stay_intact_under_1000_random_fault_seeds() {
    // Whole-network mirror of the checker's qualitative pass: under
    // heavy faults with random seeds, every packet terminates as
    // Delivered or CountedDrop, every flit reaches its ejection port
    // (poisoned ones included), and nothing dangles or mis-routes.
    let pairs = [
        (Coord::new(0, 0), Coord::new(1, 1)),
        (Coord::new(1, 0), Coord::new(0, 1)),
        (Coord::new(0, 1), Coord::new(1, 0)),
        (Coord::new(1, 1), Coord::new(0, 0)),
    ];
    let len_flits = 4usize;
    for seed in 0..1000u64 {
        let fault = FaultConfig::new(0.03).with_seed(seed).with_max_retries(2);
        let config = NocConfig::paper_default()
            .with_size(2, 2)
            .with_faults(fault)
            .with_packet_len(len_flits);
        let mut net = Network::new(config);
        for (k, &(src, dst)) in pairs.iter().enumerate() {
            net.enqueue(Packet::unicast(
                PacketId(k as u64 + 1),
                src,
                dst,
                len_flits,
                0,
            ));
        }
        let done = net
            .run_until_delivered(pairs.len(), 5_000)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            done.len() as u64 + net.packets_dropped(),
            pairs.len() as u64,
            "seed {seed}: every packet must terminate"
        );
        assert_eq!(net.routing_errors(), 0, "seed {seed}");
        assert!(net.drain(2_000), "seed {seed}: residue left in the mesh");
        assert!(net.in_flight_packets().is_empty(), "seed {seed}");
        assert_eq!(
            net.counters().local_hops,
            (pairs.len() * len_flits) as u64,
            "seed {seed}: every flit (poisoned included) must eject"
        );
    }
}

#[test]
fn faulty_seeded_runs_are_trace_identical() {
    // The refactor through `protocol::retry_step` / `link_arrival` must
    // leave seeded runs reproducible down to the flit-event byte stream,
    // not merely down to summary statistics.
    let run = || {
        let config = NocConfig::paper_default()
            .with_size(4, 4)
            .with_seed(11)
            .with_ber(5e-3);
        let mut net = Network::new(config);
        net.enable_flit_telemetry();
        let stats =
            net.run_warmup_and_measure(Pattern::UniformRandom, 0.05, 200, 800, &mut Obs::none());
        let tel = net.take_flit_telemetry().expect("telemetry enabled");
        let mut events = Vec::new();
        tel.write_events_jsonl(&mut events)
            .expect("in-memory write");
        (
            stats.packets_received,
            stats.packets_dropped,
            stats.latency_sum,
            stats.faults.clone(),
            stats.energy,
            events,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.5.len(), b.5.len(), "event stream length must match");
    assert_eq!(a, b, "seeded faulty runs must be trace-identical");
}
