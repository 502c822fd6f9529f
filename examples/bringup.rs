//! Silicon-style "bring-up" of the SRLR test chip: shmoo the operating
//! region, read the demodulator eye, sweep the supply, and dump the
//! transistor-level waveforms to a VCD file for a waveform viewer.
//!
//! Run with `cargo run --release --example bringup`.

#![allow(clippy::print_stdout, reason = "an example reports to the terminal")]

use srlr_circuit::vcd::VcdExporter;
use srlr_core::transient::SrlrTransientFixture;
use srlr_core::SrlrDesign;
use srlr_link::{measure_eye, shmoo, supply, SrlrLink};
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{TimeInterval, Voltage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::soi45();

    println!("== shmoo: rate x swing operating region ('+' pass) ==");
    let plot = shmoo::paper_shmoo(&tech, 512, None);
    print!("{}", plot.render());
    println!("passing fraction: {:.0} %", plot.pass_fraction() * 100.0);

    println!("\n== demodulator eye at the paper's operating point ==");
    let link = SrlrLink::paper_test_chip(&tech);
    let eye = measure_eye(&link, 5_000);
    println!("{eye}");
    println!("eye open: {}", if eye.is_open() { "yes" } else { "NO" });

    println!("\n== supply scaling (rated at 0.7 x cliff) ==");
    let design = SrlrDesign::paper_proposed(&tech);
    let vdds: Vec<Voltage> = (6..=10)
        .map(|i| Voltage::from_volts(f64::from(i) / 10.0))
        .collect();
    for p in supply::supply_sweep(&tech, &design, &vdds) {
        println!(
            "  VDD {}: cliff {:.1} Gb/s, {:.1} fJ/bit/mm, {:.2} mW",
            p.vdd,
            p.max_rate.gigabits_per_second(),
            p.energy.femtojoules_per_bit_per_millimeter(),
            p.power.milliwatts()
        );
    }

    println!("\n== VCD dump of the Fig. 4 waveforms ==");
    let fixture = SrlrTransientFixture::build_chain(
        &tech,
        &design,
        &GlobalVariation::nominal(),
        &[true, false, true],
        TimeInterval::from_picoseconds(244.0),
        2,
    );
    let result = fixture.simulate_raw(TimeInterval::from_picoseconds(244.0 * 3.5));
    let mut vcd = VcdExporter::new("srlr");
    vcd.add("in", &result.waveform(fixture.input));
    for (i, &(x, out, delivered)) in fixture.stage_nodes.iter().enumerate() {
        vcd.add(&format!("s{i}_x"), &result.waveform(x));
        vcd.add(&format!("s{i}_out"), &result.waveform(out));
        vcd.add(&format!("s{i}_delivered"), &result.waveform(delivered));
    }
    let path = std::env::temp_dir().join("srlr_fig4.vcd");
    std::fs::write(&path, vcd.render())?;
    println!("wrote {} signals to {}", vcd.len(), path.display());
    Ok(())
}
