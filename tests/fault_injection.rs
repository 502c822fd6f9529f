//! End-to-end checks of the BER-driven fault-injection subsystem: the
//! acceptance criteria of the fault PR, exercised through the public
//! crate surface only.
//!
//! - BER = 0 is bit-identical to a fault-free network (the whole
//!   injection path must be provably free when idle);
//! - raising the BER monotonically degrades delivery and inflates
//!   energy per delivered bit;
//! - sweeps are bit-identical at 1/2/8 worker threads;
//! - the library fault path never panics, even at absurd error rates.

use srlr_noc::traffic::Pattern;
use srlr_noc::{ber_sweep, FaultConfig, Network, NocConfig, PowerModel};
use srlr_repro::tech::Technology;
use srlr_telemetry::Obs;

fn base_config() -> NocConfig {
    NocConfig::paper_default().with_size(4, 4)
}

#[test]
fn ber_zero_is_bit_identical_to_no_fault_model() {
    let run = |config: NocConfig| {
        let mut net = Network::new(config);
        let stats =
            net.run_warmup_and_measure(Pattern::UniformRandom, 0.06, 300, 1200, &mut Obs::none());
        (
            stats.packets_received,
            stats.latency_sum,
            stats.latency_max,
            stats.energy,
        )
    };
    let clean = run(base_config());
    let armed = run(base_config().with_ber(0.0));
    assert_eq!(
        clean, armed,
        "an installed fault model at BER 0 must cost nothing and change nothing"
    );
}

#[test]
fn delivery_degrades_and_energy_grows_monotonically_with_ber() {
    let tech = Technology::soi45();
    let model = PowerModel::paper_default(&tech);
    let config = base_config();
    let bers = [0.0, 1e-4, 2e-3, 2e-2];
    let points = ber_sweep(
        config,
        FaultConfig::new(0.0),
        Pattern::UniformRandom,
        0.06,
        300,
        1500,
        &bers,
        Some(1),
    );
    let delivered: Vec<f64> = points
        .iter()
        .map(|p| p.stats.delivered_fraction())
        .collect();
    let energy_per_bit: Vec<f64> = points
        .iter()
        .map(|p| {
            let bits =
                p.stats.packets_received as f64 * (config.packet_len * config.flit_bits) as f64;
            model.dynamic_energy(&p.stats.energy).joules() / bits
        })
        .collect();
    for w in delivered.windows(2) {
        assert!(
            w[1] <= w[0],
            "delivered fraction must not improve with BER: {delivered:?}"
        );
    }
    assert!(
        delivered[bers.len() - 1] < delivered[0],
        "the harshest BER must visibly lose packets: {delivered:?}"
    );
    for w in energy_per_bit.windows(2) {
        assert!(
            w[1] >= w[0],
            "energy per delivered bit must not shrink with BER: {energy_per_bit:?}"
        );
    }
    assert!(
        energy_per_bit[bers.len() - 1] > energy_per_bit[0],
        "retransmissions must cost real energy: {energy_per_bit:?}"
    );
}

#[test]
fn fault_sweep_is_bit_identical_across_thread_counts() {
    let sweep = |threads: usize| {
        ber_sweep(
            base_config(),
            FaultConfig::new(0.0).with_max_retries(3),
            Pattern::UniformRandom,
            0.05,
            200,
            800,
            &[0.0, 5e-4, 5e-3],
            Some(threads),
        )
    };
    let serial = sweep(1);
    for threads in [2, 8] {
        let parallel = sweep(threads);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.ber, b.ber);
            assert_eq!(
                a.stats, b.stats,
                "threads={threads} diverged at ber {}",
                a.ber
            );
        }
    }
}

/// The benchmark's `noc_faults` sweep, pinned: the paper's 8×8 mesh at
/// seed 42 (traffic and fault streams), uniform traffic at 0.05, 100
/// warm-up and 400 measured cycles per point. Any change to the router
/// pipeline, the link scheduling or the fault draws moves a triple.
#[test]
fn paper_mesh_ber_sweep_matches_its_golden_at_one_and_two_threads() {
    const GOLDEN: [(u64, u64, u64); 6] = [
        (1265, 0, 0),
        (1265, 0, 4),
        (1268, 0, 26),
        (1267, 0, 278),
        (1269, 0, 2819),
        (364, 836, 37195),
    ];
    let bers = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    for threads in [1, 2] {
        let points = ber_sweep(
            NocConfig::paper_default().with_seed(42),
            FaultConfig::new(0.0).with_seed(42),
            Pattern::UniformRandom,
            0.05,
            100,
            400,
            &bers,
            Some(threads),
        );
        let got: Vec<(u64, u64, u64)> = points
            .iter()
            .map(|p| {
                (
                    p.stats.packets_received,
                    p.stats.packets_dropped,
                    p.stats.faults.flits_retransmitted,
                )
            })
            .collect();
        assert_eq!(
            got, GOLDEN,
            "threads={threads}: (delivered, dropped, retransmitted) per BER"
        );
        assert_eq!(
            points[5].stats.faults.flits_corrupted, 38_884,
            "threads={threads}: corrupted attempts in the 1e-2 window"
        );
    }
}

#[test]
fn fault_counters_are_consistent_with_each_other() {
    let mut net = Network::new(base_config().with_ber(3e-3));
    let stats =
        net.run_warmup_and_measure(Pattern::UniformRandom, 0.06, 300, 1500, &mut Obs::none());
    let faults = &stats.faults;
    assert!(faults.flits_corrupted > 0, "3e-3 over 1500 cycles must hit");
    assert!(
        faults.flits_retransmitted <= faults.flits_corrupted + faults.retries_exhausted,
        "every retry is provoked by a detected corruption: {faults:?}"
    );
    assert!(
        stats.energy.retry_hops >= faults.flits_retransmitted,
        "each window retransmission is at least one charged retry hop"
    );
    assert!(
        stats.energy.nacks >= stats.energy.retry_hops,
        "every retry was requested by at least one NACK"
    );
    assert_eq!(
        stats.packets_dropped, faults.packets_dropped,
        "the network and the tally must agree on drops"
    );
}

#[test]
fn extreme_ber_drops_packets_without_panicking_or_wedging() {
    // BER high enough that retry budgets are routinely exhausted: the
    // library path must degrade to drops, never panic or deadlock.
    let mut net = Network::new(
        base_config().with_faults(FaultConfig::new(0.05).with_max_retries(2).with_timing(2, 1)),
    );
    let stats =
        net.run_warmup_and_measure(Pattern::UniformRandom, 0.08, 200, 1200, &mut Obs::none());
    assert!(stats.packets_dropped > 0, "5 % BER must exhaust retries");
    assert!(
        stats.delivered_fraction() < 1.0,
        "drops must show up in the delivered fraction"
    );
    assert!(net.drain(60_000), "faulty network failed to drain");
}

#[test]
fn run_until_delivered_reports_stall_instead_of_panicking() {
    use srlr_noc::{Coord, Packet, PacketId};
    let mut net = Network::new(base_config());
    net.enqueue(Packet::unicast(
        PacketId(1),
        Coord::new(0, 0),
        Coord::new(3, 3),
        5,
        0,
    ));
    let err = net
        .run_until_delivered(1, 2)
        .expect_err("two cycles cannot cross a 4x4 mesh");
    assert_eq!(err.cycles, 2);
    assert!(
        !err.in_flight.is_empty(),
        "the packet must be reported in flight"
    );
    let msg = err.to_string();
    assert!(msg.contains("stalled"), "{msg}");
    net.run_until_delivered(1, 10_000)
        .expect("the same packet arrives given time");
}
