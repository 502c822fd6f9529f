//! The lockstep screen against its one-at-a-time references.
//!
//! * The batched solitary-`1` walk (`srlr_link::certify::solitary_ones`)
//!   answers lane by lane exactly what `solitary_one` answers on its own,
//!   at every group size, with lanes that lose the pulse at different
//!   stages and chains of different lengths in one walk.
//! * The sweep screen (`srlr_link::certify::sweep_screens`), which scans
//!   several dice's sweeps in lockstep, gives every (die, point) the
//!   per-point `certify::screen` verdict, also for a die whose points
//!   dominance does not order.
//!
//! The grid: both Fig. 6 designs × {3.0, 4.1, 5.8} Gb/s × 300–550 mV in
//! 10 mV steps. Each die is elaborated once and retargeted to every
//! swing, as the Monte Carlo sweep does.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use srlr_core::{PulseState, SrlrDesign, SwingPoint};
use srlr_link::certify::{
    screen, solitary_one, solitary_ones, sweep_screens, Screen, SolitaryOne, Swing,
};
use srlr_link::{LinkConfig, SrlrLink};
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::{DataRate, Voltage};

const SEED: u64 = 2013;
/// Dice per (design, rate).
const DICE: u64 = 24;

/// The sweep's swings: 300–550 mV in 10 mV steps.
fn swings() -> Vec<Voltage> {
    (0..=25)
        .map(|k| Voltage::from_millivolts(300.0 + 10.0 * f64::from(k)))
        .collect()
}

/// Calls `f(rate, dice)` for both designs at every rate, `dice[d][p]`
/// holding die `d` at swing `p`.
fn for_each_grid(mut f: impl FnMut(f64, &[Vec<SrlrLink>])) {
    let tech = Technology::soi45();
    let mc = MonteCarlo::new(&tech, SEED);
    for design in [
        SrlrDesign::paper_proposed(&tech),
        SrlrDesign::straightforward(&tech),
    ] {
        let points: Vec<SwingPoint> = swings()
            .iter()
            .map(|&s| SwingPoint::new(&tech, &design.with_nominal_swing(s)))
            .collect();
        let (last, _) = points.split_last().expect("26 swings");
        for gbps in [3.0, 4.1, 5.8] {
            let config = LinkConfig::paper_default()
                .with_data_rate(DataRate::from_gigabits_per_second(gbps));
            let dice: Vec<Vec<SrlrLink>> = (0..DICE)
                .map(|trial| {
                    let mut die = mc.die(trial);
                    let var = die.global_variation();
                    let chain =
                        last.instantiate_with_mismatch(&tech, &var, config.stages, &mut die);
                    points
                        .iter()
                        .map(|point| {
                            let mut chain = chain.clone();
                            point.retarget(&tech, &var, &mut chain);
                            SrlrLink::from_chain(chain, config)
                        })
                        .collect()
                })
                .collect();
            f(gbps, &dice);
        }
    }
}

/// The stage that loses a solitary `1` on a fresh link, if one does.
fn loses_the_one_at(link: &SrlrLink) -> Option<usize> {
    let chain = link.chain();
    let launch = chain.launch_width();
    let input = PulseState::new(launch, chain.stages()[0].delivered_swing(launch));
    chain
        .propagate_trace(input)
        .iter()
        .position(|pulse| !pulse.is_valid())
}

/// `solitary_ones` of `links`, checked lane by lane against
/// `solitary_one`.
fn assert_walks_match(links: &[&SrlrLink], context: &str) {
    let mut out = vec![SolitaryOne::default(); links.len()];
    solitary_ones(links, &mut out);
    for (lane, (link, one)) in links.iter().zip(&out).enumerate() {
        assert_eq!(*one, solitary_one(link), "{context}, lane {lane}");
    }
}

#[test]
fn batched_walk_equals_solitary_one_lane_by_lane() {
    let mut mixed_groups = 0;
    for_each_grid(|gbps, dice| {
        let links: Vec<&SrlrLink> = dice.iter().flatten().collect();
        // Every group size on consecutive links, so one walk mixes
        // swings and dice.
        for size in 1..=8 {
            for (g, group) in links.chunks(size).enumerate() {
                assert_walks_match(group, &format!("{gbps} Gb/s, size {size}, group {g}"));
                let stages: Vec<_> = group.iter().map(|l| loses_the_one_at(l)).collect();
                if stages.iter().any(|s| s.is_some() && *s != stages[0]) {
                    mixed_groups += 1;
                }
            }
        }
        // All of them at once: 624 lanes, walked 8 at a time, with a
        // ragged last group once one lane is dropped.
        assert_walks_match(&links, &format!("{gbps} Gb/s, every link"));
        assert_walks_match(&links[1..], &format!("{gbps} Gb/s, ragged"));
    });
    assert!(
        mixed_groups > 0,
        "some walk must lose lanes at different stages"
    );
}

#[test]
fn batched_walk_mixes_chain_lengths() {
    // Lanes of one walk may have chains of different lengths: a lane
    // leaves when its chain ends.
    let tech = Technology::soi45();
    let mc = MonteCarlo::new(&tech, SEED);
    let design = SrlrDesign::paper_proposed(&tech);
    let links: Vec<SrlrLink> = (0..24u32)
        .map(|trial| {
            let config = LinkConfig {
                stages: [1, 3, 10, 40][trial as usize % 4],
                ..LinkConfig::paper_default()
            };
            let swing = Voltage::from_millivolts(350.0 + 10.0 * f64::from(trial % 12));
            let mut die = mc.die(u64::from(trial));
            let var = die.global_variation();
            SrlrLink::on_die_with_mismatch(
                &tech,
                &design.with_nominal_swing(swing),
                config,
                &var,
                &mut die,
            )
        })
        .collect();
    let refs: Vec<&SrlrLink> = links.iter().collect();
    assert_walks_match(&refs, "mixed lengths");
}

/// `sweep_screens` of `dice` (`dice[d][p]`: die `d` at point `p`), each
/// die's base being its last point's link: the verdicts, die-major.
fn sweep(dice: &[Vec<SrlrLink>]) -> Vec<Screen> {
    let points = dice[0].len();
    let mut bases: Vec<SrlrLink> = dice.iter().map(|links| links[points - 1].clone()).collect();
    let swings: Vec<Swing> = dice.iter().flatten().map(Swing::of).collect();
    let mut order = vec![0; swings.len()];
    let mut screens = vec![Screen::Undecided; swings.len()];
    sweep_screens(
        &mut bases,
        &swings,
        &mut order,
        &mut screens,
        |d, p, link| {
            link.clone_from(&dice[d][p]);
        },
    );
    screens
}

#[test]
fn lockstep_sweep_screen_equals_the_per_point_screen() {
    let (mut clean, mut refuted, mut undecided) = (0, 0, 0);
    for_each_grid(|gbps, dice| {
        let mut dice = dice.to_vec();
        // Die 5 gets a point with the most drive but the slowest
        // charging, which no other point dominates or is dominated by:
        // its scan falls back to screening every point.
        let unordered = &mut dice[5];
        let mut chain = unordered[25].chain().clone();
        for stage in chain.stages_mut() {
            stage.charge_resistance = stage.charge_resistance * 4.0;
        }
        let config = unordered[25].config();
        unordered[25] = SrlrLink::from_chain(chain, config);
        let expected: Vec<Screen> = dice.iter().flatten().map(screen).collect();
        // All 24 dice in one call (groups of 8), and 13 (8 and a ragged 5).
        assert_eq!(sweep(&dice), expected, "{gbps} Gb/s, 24 dice");
        assert_eq!(
            sweep(&dice[..13]),
            expected[..13 * 26],
            "{gbps} Gb/s, 13 dice"
        );
        clean += expected.iter().filter(|&&v| v == Screen::Clean).count();
        refuted += expected.iter().filter(|&&v| v == Screen::Refuted).count();
        undecided += expected.iter().filter(|&&v| v == Screen::Undecided).count();
    });
    assert!(
        clean > 0 && refuted > 0 && undecided > 0,
        "{clean} clean, {refuted} refuted, {undecided} undecided"
    );
}
