//! Calibration harness: Monte Carlo failure rates of every technique
//! combination, plus the Fig. 6 swing sweep. Used while tuning the
//! pulse-domain model against the paper's reported robustness numbers.

#![allow(clippy::print_stdout, reason = "an example reports to the terminal")]

use srlr_core::{DelayCellDesign, DriverKind, SrlrDesign};
use srlr_link::montecarlo::McExperiment;
use srlr_tech::Technology;
use srlr_units::Voltage;

fn main() {
    let tech = Technology::soi45();
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let exp = McExperiment::paper_default(&tech).with_runs(runs);

    println!("== Technique combinations at the fabrication swing ({runs} dice) ==");
    let proposed = SrlrDesign::paper_proposed(&tech);
    let combos: Vec<(&str, SrlrDesign)> = vec![
        ("proposed (alt + NMOS + adaptive)", proposed.clone()),
        (
            "single delay only",
            proposed.with_delay_cell(DelayCellDesign::single_paper()),
        ),
        (
            "inverter driver only",
            proposed.with_driver(DriverKind::Inverter),
        ),
        ("fixed bias only", proposed.with_adaptive_swing(false)),
        (
            "straightforward (single + inverter + fixed)",
            SrlrDesign::straightforward(&tech),
        ),
    ];
    for (label, design) in &combos {
        let p = exp.error_probability(design);
        println!("{label:<46} {p}");
    }

    println!("\n== All 8 technique combinations ==");
    for delay in [
        ("alt", DelayCellDesign::alternating_paper()),
        ("single", DelayCellDesign::single_paper()),
    ] {
        for driver in [
            ("nmos", DriverKind::NmosBased),
            ("inv", DriverKind::Inverter),
        ] {
            for adaptive in [true, false] {
                let d = proposed
                    .with_delay_cell(delay.1)
                    .with_driver(driver.1)
                    .with_adaptive_swing(adaptive);
                let p = exp.error_probability(&d);
                println!(
                    "{:<8}{:<6}{:<10} {p}",
                    delay.0,
                    driver.0,
                    if adaptive { "adaptive" } else { "fixed" }
                );
            }
        }
    }

    println!("\n== Corner drift: largest survivable global Vth shift (mV) ==");
    use srlr_tech::GlobalVariation;
    for (label, delay) in [
        ("alternating", DelayCellDesign::alternating_paper()),
        ("single", DelayCellDesign::single_paper()),
    ] {
        let design = proposed.with_delay_cell(delay);
        let mut worst_pos = 0.0;
        let mut worst_neg = 0.0;
        for i in 0..=40 {
            let mv = f64::from(i) * 3.0;
            for sign in [1.0, -1.0] {
                let var = GlobalVariation {
                    dvth_n: Voltage::from_millivolts(sign * mv),
                    dvth_p: Voltage::from_millivolts(sign * mv),
                    ..GlobalVariation::nominal()
                };
                let chain = design.instantiate(&tech, &var, 10);
                if chain.propagate(chain.nominal_input_pulse()).is_valid() {
                    if sign > 0.0 {
                        worst_pos = mv;
                    } else {
                        worst_neg = mv;
                    }
                }
            }
        }
        println!("{label:<14} +{worst_pos} mV / -{worst_neg} mV");
    }

    println!("\n== Sec. III-A drift traces (fixed bias, +dVth corner) ==");
    for mv in [20.0, 30.0, 40.0, 50.0] {
        let var = GlobalVariation {
            dvth_n: Voltage::from_millivolts(mv),
            dvth_p: Voltage::from_millivolts(mv),
            ..GlobalVariation::nominal()
        };
        for (label, delay) in [
            ("single", DelayCellDesign::single_paper()),
            ("alt   ", DelayCellDesign::alternating_paper()),
        ] {
            let design = proposed.with_delay_cell(delay).with_adaptive_swing(false);
            let chain = design.instantiate(&tech, &var, 20);
            let trace = chain.propagate_trace(chain.nominal_input_pulse());
            let widths: Vec<String> = trace
                .iter()
                .map(|p| {
                    if p.is_valid() {
                        format!("{:.0}", p.width.picoseconds())
                    } else {
                        "X".into()
                    }
                })
                .collect();
            println!("+{mv} mV {label}: {}", widths.join(" "));
        }
    }

    println!("\n== Fast-corner ISI ('11110' at 4.1 Gb/s, fixed bias) ==");
    use srlr_link::{LinkConfig, SrlrLink};
    for mv in [-20.0, -40.0, -60.0, -80.0] {
        let var = GlobalVariation {
            dvth_n: Voltage::from_millivolts(mv),
            dvth_p: Voltage::from_millivolts(mv),
            ..GlobalVariation::nominal()
        };
        for (label, delay) in [
            ("single", DelayCellDesign::single_paper()),
            ("alt   ", DelayCellDesign::alternating_paper()),
        ] {
            for (dlabel, driver) in [
                ("nmos", DriverKind::NmosBased),
                ("inv ", DriverKind::Inverter),
            ] {
                let design = proposed
                    .with_delay_cell(delay)
                    .with_driver(driver)
                    .with_adaptive_swing(false);
                let link = SrlrLink::on_die(&tech, &design, LinkConfig::paper_default(), &var);
                let pattern: Vec<bool> = [true, true, true, true, false].repeat(8);
                let ok = link.transmit(&pattern).received == pattern;
                println!(
                    "{mv} mV {label} {dlabel}: {}",
                    if ok { "ok" } else { "FAIL" }
                );
            }
        }
    }

    println!("\n== Fig. 6 swing sweep ==");
    let swings: Vec<Voltage> = (5..=12)
        .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
        .collect();
    for (label, design) in [
        ("proposed", proposed.clone()),
        ("straightforward", SrlrDesign::straightforward(&tech)),
    ] {
        println!("-- {label}");
        for (swing, p) in exp.swing_sweep(&design, &swings) {
            println!("  swing {swing}: {p}");
        }
    }
}
