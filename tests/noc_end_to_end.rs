//! End-to-end NoC checks: traffic flows, power calibration, datapath
//! comparison, multicast savings.

use srlr_noc::traffic::Pattern;
use srlr_noc::{Coord, DatapathKind, Mesh, MulticastAccounting, Network, NocConfig, PowerModel};
use srlr_repro::tech::Technology;
use srlr_telemetry::Obs;
use srlr_units::Frequency;

#[test]
fn paper_router_power_split_reproduced() {
    let tech = Technology::soi45();
    let model = PowerModel::paper_default(&tech);
    let cal = model.calibration_report(Frequency::from_gigahertz(1.0), 5);
    assert!((cal.buffers.milliwatts() - 38.8).abs() < 2.0, "{cal}");
    assert!((cal.control.milliwatts() - 5.2).abs() < 1.0, "{cal}");
    let dp = (cal.datapath + cal.bias).milliwatts();
    assert!((dp - 12.9).abs() < 2.5, "{cal}");
}

#[test]
fn srlr_datapath_cuts_noc_power_but_not_buffers() {
    let tech = Technology::soi45();
    let run = |datapath| {
        let config = NocConfig::paper_default()
            .with_size(4, 4)
            .with_datapath(datapath);
        let mut net = Network::new(config);
        let stats =
            net.run_warmup_and_measure(Pattern::UniformRandom, 0.08, 300, 1200, &mut Obs::none());
        let model = PowerModel::for_datapath(&tech, config.flit_bits, datapath);
        model.report(&stats.energy, 1200, config.clock, config.mesh().len())
    };
    let srlr = run(DatapathKind::SrlrLowSwing);
    let full = run(DatapathKind::FullSwingRepeated);
    assert!(
        srlr.datapath < full.datapath,
        "SRLR {} vs full-swing {}",
        srlr.datapath,
        full.datapath
    );
    // Same traffic, same seed: buffers identical.
    assert_eq!(srlr.buffers, full.buffers);
    assert!(srlr.total() < full.total());
}

#[test]
fn mesh_saturates_gracefully() {
    // Beyond saturation the accepted throughput plateaus instead of
    // collapsing, and latency keeps rising.
    let run = |rate: f64| {
        let mut net = Network::new(NocConfig::paper_default().with_size(4, 4));
        let s =
            net.run_warmup_and_measure(Pattern::UniformRandom, rate, 400, 1500, &mut Obs::none());
        (s.throughput_flits_per_node_cycle(), s.avg_latency_cycles())
    };
    let (t_low, l_low) = run(0.03);
    let (t_mid, l_mid) = run(0.10);
    let (t_hot, l_hot) = run(0.40);
    assert!(t_mid > t_low);
    assert!(l_mid >= l_low * 0.8);
    assert!(l_hot > l_mid, "latency must blow up past saturation");
    assert!(t_hot >= t_mid * 0.6, "throughput must not collapse");
}

#[test]
fn transpose_and_uniform_both_complete() {
    for pattern in [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::BitComplement,
    ] {
        let mut net = Network::new(NocConfig::paper_default().with_size(4, 4));
        let stats = net.run_warmup_and_measure(pattern, 0.04, 300, 1200, &mut Obs::none());
        assert!(stats.packets_received > 20, "{pattern:?}: {stats}");
    }
}

#[test]
fn network_drains_after_load() {
    let mut net = Network::new(NocConfig::paper_default().with_size(4, 4));
    let _ = net.run_warmup_and_measure(Pattern::UniformRandom, 0.10, 100, 400, &mut Obs::none());
    assert!(net.drain(20_000), "network failed to drain");
}

#[test]
fn multicast_traffic_saves_datapath_hops() {
    let mut net = Network::new(NocConfig::paper_default().with_size(8, 8));
    let stats = net.run_warmup_and_measure(
        Pattern::Multicast { fanout: 4 },
        0.02,
        300,
        1500,
        &mut Obs::none(),
    );
    assert!(stats.packets_received > 50);
    assert!(
        net.multicast_saved_hops() > 0,
        "fanout-4 multicast must share tree prefixes"
    );
    // Savings are bounded by what unicast clones would have paid.
    assert!(net.multicast_saved_hops() < net.counters().link_hops * 3);
}

#[test]
fn multicast_accounting_matches_simulated_pattern() {
    let mesh = Mesh::new(8, 8);
    let src = Coord::new(0, 0);
    let dsts = [Coord::new(7, 0), Coord::new(7, 7)];
    let acc = MulticastAccounting::new(mesh, src, &dsts);
    // Shared 7-hop run east, then 7 north: 14 tree hops vs 7 + 14 unicast.
    assert_eq!(acc.tree_hops(), 14);
    assert_eq!(acc.unicast_hops(), 21);
}

#[test]
fn power_scales_roughly_linearly_with_load_below_saturation() {
    let tech = Technology::soi45();
    let energy_at = |rate: f64| {
        let config = NocConfig::paper_default().with_size(4, 4);
        let mut net = Network::new(config);
        let stats =
            net.run_warmup_and_measure(Pattern::UniformRandom, rate, 300, 1500, &mut Obs::none());
        let model = PowerModel::paper_default(&tech);
        model.dynamic_energy(&stats.energy).joules()
    };
    let e1 = energy_at(0.02);
    let e2 = energy_at(0.04);
    let ratio = e2 / e1;
    assert!(
        (1.5..=2.6).contains(&ratio),
        "dynamic energy should ~double with load: ratio {ratio}"
    );
}
