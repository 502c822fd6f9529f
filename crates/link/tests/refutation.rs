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

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use srlr_core::{DieBatch, SrlrChain, SrlrDesign, SrlrStage, SwingPoint};
use srlr_link::certify::{one_bit_clean, screen, solitary_one, sweep_screens, Screen, Swing};
use srlr_link::{LinkConfig, Prbs, SrlrLink};
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::{DataRate, Resistance, TimeInterval, Voltage};

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

/// `links` as the sweep screen sees them: each with its swing
/// (`Swing::of`, read from its first stage) written into every stage.
fn as_sweep(links: &[SrlrLink]) -> Vec<SrlrLink> {
    links
        .iter()
        .map(|link| {
            let swing = Swing::of(link);
            let mut chain = link.chain().clone();
            for stage in chain.stages_mut() {
                stage.drive_level = swing.drive_level;
                stage.charge_resistance = swing.charge_resistance;
            }
            SrlrLink::from_chain(chain, link.config())
        })
        .collect()
}

/// `sweep_screens` of one die given at every point: its base is the last
/// point's link, and a whole link at point `p` is `links[p]`.
fn sweep_screen(links: &[SrlrLink], order: &mut [usize], swept: &mut [Screen]) {
    let mut base = [links.last().expect("at least one point").clone()];
    let swings: Vec<Swing> = links.iter().map(Swing::of).collect();
    sweep_screens(&mut base, &swings, order, swept, |_, p, link| {
        link.clone_from(&links[p]);
    });
}

#[test]
fn one_walk_proves_and_exactly_refutes_every_pair() {
    let (mut pairs, mut refuted, mut clean) = (0, 0, 0);
    let mut order = vec![0; 15];
    let mut swept = vec![Screen::Undecided; 15];
    let mut slot_0 = vec![false; 15];
    for_each_die(|seed, trial, links| {
        assert_eq!(as_sweep(links), links, "a retarget moves only the swing");
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

/// The 0-bit half of the certificate as an independent, unmemoized walk:
/// round 0 (each launcher at its widest pulse under `t_d ≥ 0`), then
/// four interval rounds, with every residue bound evaluated afresh for
/// every segment.
fn zero_bit_oracle(link: &SrlrLink) -> bool {
    const REL: f64 = 1e-9;
    const ROUNDS: usize = 4;
    let stages = link.chain().stages();
    let t_bit = link.config().data_rate.bit_period().seconds();
    let launcher_of = |i: usize| &stages[i.saturating_sub(1)];
    let widest_output = |stage: &SrlrStage, t_d_min: f64| {
        let widest = stage.delay.seconds() - stage.t_rise0.seconds() + stage.t_fall.seconds();
        (widest - t_d_min).max(0.0)
    };
    let residue_bound = |launcher: &SrlrStage, launched: f64| -> Option<(f64, f64)> {
        let gap_min = t_bit - launched;
        if gap_min <= 0.0 {
            return None;
        }
        let decay = (-gap_min / launcher.discharge_tau().seconds()).exp() * (1.0 + REL);
        if decay >= 1.0 - 1e-6 {
            return None;
        }
        let v = launcher.drive_level.volts().max(1e-9);
        let d_max = (launcher
            .delivered_swing(TimeInterval::from_seconds(launched))
            .volts()
            * (1.0 + REL))
            .min(v);
        let slope = (1.0 - d_max / v) * (1.0 + REL);
        let b_star = d_max * decay / (1.0 - decay * slope);
        Some((b_star, (b_star * slope + d_max).min(v)))
    };
    let clears = |b_star: f64, stage: &SrlrStage| {
        b_star * (1.0 + REL) < stage.sense_threshold.volts() * (1.0 - 1e-6)
    };

    let mut launched = link.chain().launch_width().seconds();
    let round_zero = stages.iter().enumerate().all(|(i, stage)| {
        let cleared = matches!(
            residue_bound(launcher_of(i), launched),
            Some((b_star, _)) if clears(b_star, stage)
        );
        launched = widest_output(stage, 0.0);
        cleared
    });
    if round_zero {
        return true;
    }

    let mut launched = [link.chain().launch_width().seconds(); ROUNDS];
    let mut cleared = [true; ROUNDS];
    let mut live = ROUNDS;
    for (i, stage) in stages.iter().enumerate() {
        let launcher = launcher_of(i);
        let mut peak = launcher.drive_level.volts();
        for r in 0..live {
            let bound = residue_bound(launcher, launched[r]);
            let t_d_min = stage.x_discharge_time(Voltage::from_volts(peak)).seconds() * (1.0 - REL);
            launched[r] = widest_output(stage, t_d_min);
            let Some((b_star, next_peak)) = bound else {
                live = r;
                break;
            };
            cleared[r] &= clears(b_star, stage);
            peak = next_peak;
        }
        if !cleared[..live].contains(&true) {
            return false;
        }
    }
    true
}

/// Asserts that `screen` calls each link `Clean`, and the sweep screen
/// each point of the die, exactly when the 1-bit half proves it and the
/// unmemoized 0-bit half clears it. The sweep screens the links as it
/// sees them (`as_sweep`): those are `links` themselves unless a nudge
/// moved a swing field at one stage only, which no sweep point does.
fn assert_memo_matches_oracle(links: &[SrlrLink], order: &mut [usize], swept: &mut [Screen]) {
    let at_points = as_sweep(links);
    sweep_screen(&at_points, order, swept);
    for (p, ((link, at_point), &swept)) in
        links.iter().zip(&at_points).zip(swept.iter()).enumerate()
    {
        let clean = solitary_one(at_point).proven && zero_bit_oracle(at_point);
        assert_eq!(swept == Screen::Clean, clean, "sweep screen, point {p}");
        let clean = solitary_one(link).proven && zero_bit_oracle(link);
        assert_eq!(screen(link) == Screen::Clean, clean, "screen, point {p}");
    }
}

#[test]
fn the_memoized_residue_bounds_match_an_unmemoized_oracle() {
    // Round 0 evaluates each distinct residue bound once per link and
    // each swing-invariant decay once per sweep, keyed by the bits of
    // every operand. Elaboration makes every stage of a die share its
    // die-level fields, so on the plain grid most lookups hit. The
    // nudged chains break that sharing at one stage (by 1 ulp and by
    // 10 %, in the fields round 0 reads), so a memo keyed by anything
    // less than every operand returns a bound computed for another
    // stage there.
    // The fields round 0 reads, one stage at a time.
    let nudges: [fn(&mut SrlrStage, f64); 4] = [
        |s, k| {
            s.discharge_resistance = nudge(s.discharge_resistance.ohms(), k, Resistance::from_ohms)
        },
        |s, k| s.drive_level = nudge(s.drive_level.volts(), k, Voltage::from_volts),
        |s, k| s.charge_resistance = nudge(s.charge_resistance.ohms(), k, Resistance::from_ohms),
        |s, k| s.delay = nudge(s.delay.seconds(), k, TimeInterval::from_seconds),
    ];
    let mut order = vec![0; 15];
    let mut swept = vec![Screen::Undecided; 15];
    let (mut pairs, mut nudged_pairs, mut clean) = (0, 0, 0);
    for_each_die(|_, trial, links| {
        assert_memo_matches_oracle(links, &mut order, &mut swept);
        pairs += links.len();
        clean += swept.iter().filter(|&&s| s == Screen::Clean).count();
        if trial % 10 != 0 {
            return;
        }
        // One stage of the die, nudged at every swing.
        let stage = usize::try_from(trial / 10).expect("small trial") % links[0].chain().len();
        for apply in nudges {
            for k in [0.0, 0.1] {
                let nudged: Vec<SrlrLink> = links
                    .iter()
                    .map(|link| {
                        let mut chain = link.chain().clone();
                        apply(&mut chain.stages_mut()[stage], k);
                        SrlrLink::from_chain(chain, link.config())
                    })
                    .collect();
                assert_memo_matches_oracle(&nudged, &mut order, &mut swept);
                nudged_pairs += nudged.len();
            }
        }
    });
    assert_eq!(pairs, 216_000);
    assert_eq!(nudged_pairs, 172_800);
    assert_eq!(clean, 70_953);
}

/// `value` raised by 10 % for `k = 0.1`, or by one ulp for `k = 0`.
fn nudge<T>(value: f64, k: f64, unit: fn(f64) -> T) -> T {
    // srlr-lint: allow(float-eq, reason = "selects the one-ulp nudge")
    if k == 0.0 {
        unit(f64::from_bits(value.to_bits() + 1))
    } else {
        unit(value * (1.0 + k))
    }
}
