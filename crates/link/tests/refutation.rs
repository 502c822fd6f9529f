//! Exactness of the screen's refutation: one walk of the zero-baseline
//! chain (`srlr_link::certify::solitary_one`) answers both the guarded
//! 1-bit proof and the exact question "does a solitary `1` on a fresh
//! link arrive?". A refuted (die, swing) pair is a failing verdict with
//! no simulation, so the exact answer must equal the simulator's: the
//! scalar `transmits_cleanly(&[true])` and slot 0 of the lockstep kernel.
//!
//! The grid: both Fig. 6 designs × {1, 3, 10} stages × {3, 4.1, 5.8,
//! 7.5} Gb/s × 250–600 mV in 25 mV steps × seeds {1, 2013} × 300 dice,
//! 216,000 (die, swing) pairs. Each die is elaborated once and
//! retargeted to every swing, as the Monte Carlo sweep does.

use srlr_core::{DieBatch, SrlrChain, SrlrDesign, SwingPoint};
use srlr_link::certify::{one_bit_clean, screen, solitary_one, sweep_screen, Screen};
use srlr_link::{LinkConfig, Prbs, SrlrLink};
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::{DataRate, TimeInterval, Voltage};

const SEEDS: [u64; 2] = [1, 2013];
const DICE: u64 = 300;

/// The Monte Carlo experiment's stress set for die `trial`: the three
/// Sec. III-B worst cases, then 256 PRBS-15 bits.
fn passes_stress(link: &SrlrLink, seed: u64, trial: u64) -> bool {
    let patterns: [&[bool]; 3] = [
        &[true, false, true, false, true, false, true, false],
        &[true, true, true, true, false, true, true, true, true, false],
        &[true; 16],
    ];
    patterns.iter().all(|p| link.transmits_cleanly(p))
        && link.transmits_cleanly(&Prbs::prbs15_for_stream(seed, trial).take_bits(256))
}

/// The 1-bit half of the certificate as an independent walk, with its
/// 1e-9 relative guard band on the conservative side of every check.
fn guarded_proof(link: &SrlrLink) -> bool {
    const REL: f64 = 1e-9;
    let stages = link.chain().stages();
    let mut w = link.chain().launch_width().seconds();
    let mut launcher = &stages[0];
    for stage in stages {
        if !stage.enabled || !stage.statically_sound || w <= 0.0 {
            return false;
        }
        let peak = launcher.delivered_swing(TimeInterval::from_seconds(w));
        if peak.volts() <= 0.0 {
            return false;
        }
        let t_d = stage.x_discharge_time(peak).seconds();
        if t_d * (1.0 + REL) > w {
            return false;
        }
        let w_out =
            stage.delay.seconds() - (stage.t_rise0.seconds() + t_d - stage.t_fall.seconds());
        if w_out < stage.min_output_width.seconds() * (1.0 + REL) + 1e-18 {
            return false;
        }
        w = w_out;
        launcher = stage;
    }
    w * (1.0 - REL) >= link.config().demod_min_width.seconds()
}

/// Calls `f(seed, trial, links)` for every die of the grid, `links`
/// holding the die at every swing in ascending order.
fn for_each_die(mut f: impl FnMut(u64, u64, &[SrlrLink])) {
    let tech = Technology::soi45();
    let swings: Vec<Voltage> = (0..=14)
        .map(|k| Voltage::from_millivolts(250.0 + 25.0 * f64::from(k)))
        .collect();
    let mut chain: Option<SrlrChain> = None;
    for design in [
        SrlrDesign::paper_proposed(&tech),
        SrlrDesign::straightforward(&tech),
    ] {
        let points: Vec<SwingPoint> = swings
            .iter()
            .map(|&s| SwingPoint::new(&tech, &design.with_nominal_swing(s)))
            .collect();
        let (last, _) = points.split_last().expect("15 swings");
        for stages in [1, 3, 10] {
            for gbps in [3.0, 4.1, 5.8, 7.5] {
                let config = LinkConfig {
                    stages,
                    ..LinkConfig::paper_default()
                }
                .with_data_rate(DataRate::from_gigabits_per_second(gbps));
                for seed in SEEDS {
                    let mc = MonteCarlo::new(&tech, seed);
                    for trial in 0..DICE {
                        let mut die = mc.die(trial);
                        let var = die.global_variation();
                        // One chain reused across every die, lengths and
                        // designs included, as the sweep reuses its links.
                        let chain = match &mut chain {
                            Some(chain) => {
                                last.instantiate_with_mismatch_into(
                                    &tech, &var, stages, &mut die, chain,
                                );
                                chain
                            }
                            None => chain.insert(
                                last.instantiate_with_mismatch(&tech, &var, stages, &mut die),
                            ),
                        };
                        let links: Vec<SrlrLink> = points
                            .iter()
                            .map(|point| {
                                let mut at_point = chain.clone();
                                point.retarget(&tech, &var, &mut at_point);
                                SrlrLink::from_chain(at_point, config)
                            })
                            .collect();
                        f(seed, trial, &links);
                    }
                }
            }
        }
    }
}

#[test]
fn one_walk_proves_and_exactly_refutes_every_pair() {
    let (mut pairs, mut refuted, mut clean) = (0, 0, 0);
    let mut order = vec![0; 15];
    let mut swept = vec![Screen::Undecided; 15];
    let mut slot_0 = vec![false; 15];
    for_each_die(|seed, trial, links| {
        sweep_screen(links, &mut order, &mut swept);
        let mut batch = DieBatch::new(links[0].chain().len(), links.len());
        for (lane, link) in links.iter().enumerate() {
            let config = link.config();
            batch.load_lane(
                lane,
                link.chain(),
                config.data_rate.bit_period(),
                config.demod_min_width,
            );
        }
        batch.advance_slot(&[true; 15], &mut slot_0);
        for ((link, &swept), &kernel) in links.iter().zip(&swept).zip(&slot_0) {
            pairs += 1;
            let one = solitary_one(link);
            assert_eq!(
                one.delivered,
                link.transmits_cleanly(&[true]),
                "exact verdict differs from the simulator (seed {seed}, trial {trial})"
            );
            assert_eq!(
                one.delivered, kernel,
                "exact verdict differs from the kernel"
            );
            assert_eq!(one.proven, guarded_proof(link), "proof flag differs");
            assert_eq!(one.proven, one_bit_clean(link));
            let verdict = screen(link);
            assert_eq!(
                swept, verdict,
                "sweep screen differs from the per-point screen"
            );
            assert_eq!(verdict == Screen::Clean, link.robustly_clean());
            match verdict {
                Screen::Refuted => {
                    refuted += 1;
                    assert!(!one.delivered);
                    assert!(
                        !passes_stress(link, seed, trial),
                        "a refuted pair passed the stress set (seed {seed}, trial {trial})"
                    );
                }
                Screen::Clean => clean += 1,
                Screen::Undecided => assert!(one.delivered),
            }
        }
    });
    println!("{pairs} pairs: {refuted} refuted, {clean} clean");
    assert_eq!(pairs, 216_000);
    // Elaboration is pinned bit for bit (`screen_fingerprint.rs`), so
    // the split is too.
    assert_eq!((refuted, clean), (92_180, 70_953));
}
