//! Quickstart: build the paper's 1-bit 10 mm SRLR test link, feed it
//! PRBS data, and print the headline measurements.
//!
//! Run with `cargo run --release --example quickstart`.

#![allow(clippy::print_stdout, reason = "an example reports to the terminal")]

use srlr_link::ber::BerTester;
use srlr_link::SrlrLink;
use srlr_tech::Technology;

fn main() {
    // The calibrated 45nm-SOI-like technology.
    let tech = Technology::soi45();
    println!("technology: {tech}");

    // The paper's test chip: proposed SRLR design, 10 stages (10 mm),
    // 4.1 Gb/s, typical die.
    let link = SrlrLink::paper_test_chip(&tech);
    println!(
        "link: {} stages over {}",
        link.chain().len(),
        link.chain().total_length()
    );

    // Feed it PRBS-15 and count errors, as the on-chip tester does.
    let report = BerTester::prbs15().run(&link, 500_000);
    println!("BER run: {report}");
    assert!(report.error_free(), "the nominal test chip must be clean");

    // The headline metrics (paper: 4.1 Gb/s, 6.83 Gb/s/um, 40.4 fJ/bit/mm,
    // 1.66 mW at 0.8 V).
    let metrics = link.metrics();
    println!("metrics: {metrics}");

    // A single pulse's journey down the repeater chain.
    let chain = link.chain();
    println!("\npulse trace (width / swing at each stage input):");
    for (i, p) in chain
        .propagate_trace(chain.nominal_input_pulse())
        .iter()
        .enumerate()
    {
        println!("  stage {i:>2}: {p}");
    }
}
