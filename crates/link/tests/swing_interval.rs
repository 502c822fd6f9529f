//! The swing-interval certificate: a Monte Carlo sweep screens each
//! die at every swing at once (`srlr_link::certify::sweep_screens`),
//! scanning the certificate's 1-bit half up the swing-dominance order
//! instead of screening every point on its own.
//!
//! The grid is the roadmap probe's: 1000 dice × both Fig. 6 designs ×
//! 4.1 and 5.0 Gb/s × 41 swings from 300 to 600 mV. Each die is
//! elaborated once and retargeted to every swing, as the sweep does.

#![allow(
    clippy::expect_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use srlr_core::{SrlrDesign, SwingPoint};
use srlr_link::certify::{one_bit_clean, screen, sweep_screens, Screen, Swing};
use srlr_link::{LinkConfig, McExperiment, SrlrLink};
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::{DataRate, Voltage};

const SEED: u64 = 2013;
const DICE: u64 = 1000;

/// `p` dominates `q`: at every stage a drive level at least `q`'s and a
/// charging time constant at most `q`'s.
fn dominates(p: &SrlrLink, q: &SrlrLink) -> bool {
    p.chain()
        .stages()
        .iter()
        .zip(q.chain().stages())
        .all(|(p, q)| {
            p.drive_level.volts() >= q.drive_level.volts()
                && p.charge_tau().seconds() <= q.charge_tau().seconds()
        })
}

/// Calls `f` with every die of the grid at all 41 swings.
fn for_each_die(mut f: impl FnMut(&[SrlrLink])) {
    let tech = Technology::soi45();
    let mc = MonteCarlo::new(&tech, SEED);
    for design in [
        SrlrDesign::paper_proposed(&tech),
        SrlrDesign::straightforward(&tech),
    ] {
        let points: Vec<SwingPoint> = (0..=40)
            .map(|k| {
                let mv = 300.0 + 7.5 * f64::from(k);
                SwingPoint::new(
                    &tech,
                    &design.with_nominal_swing(Voltage::from_millivolts(mv)),
                )
            })
            .collect();
        let (last, _) = points.split_last().expect("41 swings");
        for gbps in [4.1, 5.0] {
            let config = LinkConfig::paper_default()
                .with_data_rate(DataRate::from_gigabits_per_second(gbps));
            for trial in 0..DICE {
                let mut die = mc.die(trial);
                let var = die.global_variation();
                let chain = last.instantiate_with_mismatch(&tech, &var, config.stages, &mut die);
                let links: Vec<SrlrLink> = points
                    .iter()
                    .map(|point| {
                        let mut chain = chain.clone();
                        point.retarget(&tech, &var, &mut chain);
                        SrlrLink::from_chain(chain, config)
                    })
                    .collect();
                f(&links);
            }
        }
    }
}

#[test]
fn one_bit_half_is_upward_closed_in_swing_dominance() {
    // The lemma behind the ordered scan: no point that fails the 1-bit
    // half dominates a point that passes it. Checked pairwise. The
    // sweep's points must also be totally ordered by dominance, or the
    // scan would never run.
    let mut dice = 0;
    for_each_die(|links| {
        dice += 1;
        for pair in links.windows(2) {
            assert!(
                dominates(&pair[1], &pair[0]),
                "die {dice}: a higher swing does not dominate the one below it"
            );
        }
        let passes: Vec<bool> = links.iter().map(one_bit_clean).collect();
        for (q, _) in links.iter().zip(&passes).filter(|(_, &pass)| pass) {
            for (p, _) in links.iter().zip(&passes).filter(|(_, &pass)| !pass) {
                assert!(
                    !dominates(p, q),
                    "die {dice}: the 1-bit half passes a point and fails one dominating it"
                );
            }
        }
    });
    assert_eq!(dice, 4 * DICE);
}

#[test]
fn sweep_verdicts_equal_the_per_point_certificate() {
    let (mut order, mut swept) = (vec![0; 41], vec![Screen::Undecided; 41]);
    let (mut clean, mut refuted) = (0, 0);
    for_each_die(|links| {
        // The die's base is its last point's link; the screen builds a
        // whole link only for the 0-bit half.
        let mut base = [links[40].clone()];
        let swings: Vec<Swing> = links.iter().map(Swing::of).collect();
        sweep_screens(&mut base, &swings, &mut order, &mut swept, |_, p, link| {
            link.clone_from(&links[p]);
        });
        let expected: Vec<Screen> = links.iter().map(screen).collect();
        assert_eq!(swept, expected);
        clean += expected.iter().filter(|&&v| v == Screen::Clean).count();
        refuted += expected.iter().filter(|&&v| v == Screen::Refuted).count();
    });
    assert!(clean > 0, "the grid must certify some points");
    assert!(refuted > 0, "the grid must refute some points");
}

#[test]
fn reversed_and_duplicated_swings_permute_the_sweep() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let exp = McExperiment::paper_default(&tech).with_runs(200);
    let swings = [350.0, 400.0, 450.0, 500.0, 550.0].map(Voltage::from_millivolts);
    let sweep = exp.swing_sweep(&design, &swings);

    let reversed: Vec<Voltage> = swings.iter().rev().copied().collect();
    let mut expected = sweep.clone();
    expected.reverse();
    assert_eq!(exp.swing_sweep(&design, &reversed), expected);

    // Every swing twice: equal points dominate each other, and both
    // copies get the same verdicts.
    let doubled: Vec<Voltage> = swings.iter().chain(&swings).copied().collect();
    let expected: Vec<_> = sweep.iter().chain(&sweep).cloned().collect();
    assert_eq!(exp.swing_sweep(&design, &doubled), expected);
}
