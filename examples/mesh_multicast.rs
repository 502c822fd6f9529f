//! Multicast on an 8x8 mesh with the SRLR datapath: tree-shared link
//! traversals versus unicast clones (the Sec. II "multicast for free"
//! claim), measured on live traffic.
//!
//! Run with `cargo run --release --example mesh_multicast`.

#![allow(clippy::print_stdout, reason = "an example reports to the terminal")]

use srlr_noc::traffic::Pattern;
use srlr_noc::{Coord, MulticastAccounting, Network, NocConfig, PowerModel};
use srlr_tech::Technology;
use srlr_telemetry::Obs;

fn main() {
    let tech = Technology::soi45();
    let config = NocConfig::paper_default();
    let mesh = config.mesh();

    // Static view: one multicast tree.
    let src = Coord::new(0, 0);
    let dsts = [Coord::new(7, 0), Coord::new(7, 3), Coord::new(7, 7)];
    let acc = MulticastAccounting::new(mesh, src, &dsts);
    println!(
        "tree {} -> {:?}: {} tree hops vs {} unicast hops ({:.2}x saving)",
        src,
        dsts,
        acc.tree_hops(),
        acc.unicast_hops(),
        acc.saving_factor()
    );

    // Dynamic view: run multicast traffic and compare datapath energy
    // with and without the free-multicast discount.
    let mut net = Network::new(config);
    let stats = net.run_warmup_and_measure(
        Pattern::Multicast { fanout: 4 },
        0.01,
        500,
        3000,
        &mut Obs::none(),
    );
    println!("\nmulticast traffic (fanout 4): {stats}");

    let model = PowerModel::paper_default(&tech);
    let power = model.report(&stats.energy, 3000, config.clock, mesh.len());
    println!(
        "datapath power paying every branch: {:.2} mW",
        power.datapath.milliwatts()
    );

    let saved = net.multicast_saved_hops();
    let saved_power = srlr_units::Power::from_watts(
        model.hop_energy().joules() * saved as f64 / (config.clock.period() * 3500.0).seconds(),
    );
    println!(
        "hops the SRLR's free multicast absorbs: {saved} (≈ {:.2} mW of datapath power)",
        saved_power.milliwatts()
    );
    println!(
        "datapath power with tree sharing: ≈ {:.2} mW",
        (power.datapath - saved_power).milliwatts().max(0.0)
    );
}
