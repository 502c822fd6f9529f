//! Integration checks of the characterisation stack: shmoo, eye, bathtub
//! and supply sweeps agree with each other and with the headline
//! calibration.

use srlr_link::{bathtub, measure_eye, shmoo, supply, SrlrLink};
use srlr_repro::core::SrlrDesign;
use srlr_repro::tech::Technology;
use srlr_units::{DataRate, TimeInterval, Voltage};

#[test]
fn shmoo_and_bathtub_agree_on_the_rate_ceiling() {
    // The shmoo's pass/fail boundary at the fabrication swing and the
    // jittered bathtub's wall must sit within a gigabit of each other
    // (jitter only erodes, never extends, the clean region).
    let tech = Technology::soi45();
    let plot = shmoo::paper_shmoo(&tech, 256, None);
    let row = plot
        .swings
        .iter()
        .position(|s| (s.millivolts() - 450.0).abs() < 1.0)
        .expect("450 mV row");
    let shmoo_ceiling = plot
        .rates
        .iter()
        .enumerate()
        .filter(|&(col, _)| plot.passes(row, col))
        .map(|(_, r)| r.gigabits_per_second())
        .fold(0.0f64, f64::max);

    let design = SrlrDesign::paper_proposed(&tech);
    let rates: Vec<DataRate> = (8..=14)
        .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
        .collect();
    let curve = bathtub::rate_bathtub_with_threads(
        &tech,
        &design,
        &rates,
        TimeInterval::from_picoseconds(3.0),
        400,
        4,
        None,
    );
    let wall = curve
        .iter()
        .find(|p| p.errors > 0)
        .map_or(7.0, |p| p.rate.gigabits_per_second());

    assert!(
        wall <= shmoo_ceiling + 1.0,
        "bathtub wall {wall} far beyond the shmoo ceiling {shmoo_ceiling}"
    );
    assert!(shmoo_ceiling >= 5.0, "shmoo ceiling {shmoo_ceiling}");
}

#[test]
fn eye_margins_predict_the_shmoo_floor() {
    // The shmoo fails below ~400 mV commanded swing; the eye at the
    // fabrication point must therefore show a swing margin smaller than
    // that 60 mV step (the distance to the cliff) times the delivered
    // fraction — i.e. a *finite*, explainable margin.
    let tech = Technology::soi45();
    let link = SrlrLink::paper_test_chip(&tech);
    let eye = measure_eye(&link, 2_000);
    assert!(eye.is_open());
    let margin_mv = eye.swing_margin().millivolts();
    assert!(
        margin_mv > 20.0 && margin_mv < 120.0,
        "swing margin {margin_mv} mV inconsistent with the shmoo floor"
    );
}

#[test]
fn supply_sweep_contains_the_calibration_point() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let points = supply::supply_sweep(&tech, &design, &[Voltage::from_volts(0.8)]);
    assert_eq!(points.len(), 1);
    let p = points[0];
    // The 0.8 V rated point reproduces the headline energy band.
    let e = p.energy.femtojoules_per_bit_per_millimeter();
    assert!((e - 40.4).abs() < 40.4 * 0.25, "energy {e}");
    let cliff = p.max_rate.gigabits_per_second();
    assert!((4.0..8.0).contains(&cliff), "cliff {cliff}");
}
