//! Consistency checks between the two modeling levels (pulse-domain map
//! vs transistor-level transient) and between the link and NoC energy
//! models.

use srlr_core::transient::SrlrTransientFixture;
use srlr_link::SrlrLink;
use srlr_noc::{DatapathKind, PowerModel};
use srlr_repro::core::SrlrDesign;
use srlr_repro::tech::{GlobalVariation, Technology};
use srlr_telemetry::Obs;
use srlr_units::{TimeInterval, Voltage};

#[test]
fn pulse_model_and_transient_agree_on_next_stage_swing() {
    // The pulse-domain map's delivered swing should sit within a factor
    // of the transistor-level simulation's measured far-end peak.
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 2);
    let pulse_level = chain.propagate_trace(chain.nominal_input_pulse())[1]
        .swing
        .volts();

    let waves = SrlrTransientFixture::fig4(&tech, &mut Obs::none());
    let transient = waves.next_input.peak().volts();
    let ratio = pulse_level / transient;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "pulse model {pulse_level} V vs transient {transient} V"
    );
}

#[test]
fn pulse_model_and_transient_agree_on_output_width() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 1);
    let out = chain.stages()[0].process(chain.nominal_input_pulse());
    let pulse_width = out.output.width.picoseconds();

    let waves = SrlrTransientFixture::fig4(&tech, &mut Obs::none());
    let widths = waves.output.pulse_widths(Voltage::from_volts(0.4));
    assert!(!widths.is_empty());
    let transient_width = widths[0].picoseconds();
    let ratio = pulse_width / transient_width;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "pulse model {pulse_width} ps vs transient {transient_width} ps"
    );
}

#[test]
fn transient_x_standby_matches_design_assumption() {
    // Both levels assume node X rests at VDD − Vth(lvt).
    let tech = Technology::soi45();
    let waves = SrlrTransientFixture::fig4(&tech, &mut Obs::none());
    let standby = waves
        .node_x
        .value_at(TimeInterval::from_picoseconds(2.0))
        .volts();
    let expected = tech.vdd.volts() - (tech.nmos.vth0.volts() - 0.070);
    assert!(
        (standby - expected).abs() < 0.08,
        "standby {standby} vs expected {expected}"
    );
}

#[test]
fn transient_stage_survives_corners_like_the_pulse_model() {
    // The adaptive design works at every global corner in the pulse model
    // (tests/variation_robustness.rs); the transistor-level stage must
    // agree at least at the extreme same-direction corners.
    use srlr_repro::tech::ProcessCorner;
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    for corner in [ProcessCorner::SlowSlow, ProcessCorner::FastFast] {
        let var = corner.variation(&tech);
        let fixture = srlr_repro::core::transient::SrlrTransientFixture::build(
            &tech,
            &design,
            &var,
            &[true, false],
            TimeInterval::from_picoseconds(244.0),
        );
        let result = fixture.simulate_raw(TimeInterval::from_picoseconds(500.0));
        let out_peak = result.waveform(fixture.output).peak();
        assert!(
            out_peak.volts() > 0.6,
            "transient stage failed to fire at {corner}: OUT peak {out_peak}"
        );
    }
}

#[test]
fn noc_datapath_energy_comes_from_the_link_measurement() {
    // The PowerModel's fJ/bit/mm must be the same number the link crate
    // measures — one source of truth.
    let tech = Technology::soi45();
    let model = PowerModel::for_datapath(&tech, 64, DatapathKind::SrlrLowSwing);
    let link = SrlrLink::paper_test_chip(&tech).metrics();
    assert_eq!(model.datapath_energy, link.energy);
}

#[test]
fn noc_hop_energy_is_consistent_with_headline() {
    let tech = Technology::soi45();
    let model = PowerModel::paper_default(&tech);
    let per_bit_fj = model.hop_energy().femtojoules() / 64.0;
    let headline = SrlrLink::paper_test_chip(&tech)
        .metrics()
        .energy
        .femtojoules_per_bit_per_millimeter();
    // Hop = 2.5 mm of datapath.
    assert!(
        (per_bit_fj - headline * 2.5).abs() < 1e-6,
        "hop {per_bit_fj} fJ/bit vs 2.5 x {headline}"
    );
}

#[test]
fn sizing_explorer_confirms_the_paper_design_is_on_the_frontier() {
    use srlr_repro::core::sizing::SizingExplorer;
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let explorer = SizingExplorer::new(&tech, design.clone(), 10);
    let paper_point = explorer.evaluate(design.m1_width, design.m2_width);
    assert!(paper_point.is_viable(), "paper sizing must be viable");
    // A clearly undersized input device must not dominate it.
    let tiny = explorer.evaluate(srlr_units::Length::from_nanometers(40.0), design.m2_width);
    assert!(
        !tiny.is_viable() || tiny.energy.value() >= paper_point.energy.value(),
        "an undersized M1 should not beat the paper point"
    );
}
