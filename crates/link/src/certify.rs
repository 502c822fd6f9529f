//! Conservative clean-link certificate: a per-die static analysis that
//! proves (with margin) that a link transmits **every** bit pattern
//! cleanly, so the batched Monte Carlo engine can skip exact simulation
//! for the overwhelmingly common robust dice.
//!
//! # The two monotone bounds
//!
//! The pulse-domain stage map is monotone in the quantities that matter:
//!
//! * The peak seen by stage `i` is `b + d·(1 − b/V)` with `d ≤ V`, which
//!   is non-decreasing in both the ISI baseline `b` and the launcher's
//!   delivered swing `d`; M1's current grows with the peak, so the X
//!   discharge time shrinks and the output width grows. Hence the
//!   **zero-baseline chain is the exact worst case for `1`-bit
//!   propagation**: if a solitary `1` on fully drained segments makes it
//!   to the demodulator with margin, every `1` in every pattern does
//!   (the 1-bit half, [`one_bit_clean`]).
//! * Residues only threaten `0`-bits by firing a repeater spuriously.
//!   A pulse that delivers `d` onto a segment holding residue `b` peaks
//!   at `b + d·(1 − b/V)` = `b·(1 − d/V) + d` (`V` the launcher's drive
//!   level), whose slopes `1 − d/V` in `b` and `1 − b/V` in `d` are
//!   non-negative while `b, d ≤ V`: the peak never falls as either
//!   grows. With every slot carrying the widest possible pulse (`d ≤ D`,
//!   `D` clamped to `V`), the residue after a slot therefore obeys the
//!   **headroom recurrence** `b' ≤ (b·(1 − D/V) + D)·decay`, and an idle
//!   slot only decays it further. The recurrence is increasing in `b`,
//!   so from a drained segment it never passes its fixed point
//!   `b* = D·decay / (1 − decay·(1 − D/V))` when `decay < 1`, and the
//!   peak never passes `b*·(1 − D/V) + D`. Rounds of interval iteration
//!   tighten the width/peak bounds; as soon as one round's `b*` stays
//!   below every sense threshold, **no pattern can fire a stage
//!   spuriously** (the 0-bit half).
//!
//! Every comparison carries a relative guard band (`REL` = 1e-9, many
//! orders above f64 rounding) on the *conservative* side, so a certified
//! die is clean for the exact evaluator, not merely for real arithmetic.
//! Failing to certify proves nothing — callers fall back to exact
//! (batched) simulation, which is what keeps the batched engine
//! bit-identical to the scalar path: the certificate only selects *which*
//! evaluator runs, never what it computes.
//!
//! # Round 0: the device-free residue bound
//!
//! The widest pulse stage `i` can launch is
//! `delay − (t_rise0 + t_d − t_fall)`, where `t_d` is its fastest X
//! discharge. Interval round 1 finds `t_d` by evaluating M1 at the peak
//! bound `V`. Before it, round 0 uses only `t_d ≥ 0`, which holds for
//! every elaborated stage: `t_d = C_x·depth / max(I_M1 − I_keeper, 1 pA)`
//! and elaboration floors the depth at 20 mV. So each launcher's widest
//! pulse is `delay − t_rise0 + t_fall` (the launch width on segment 0),
//! and round 0 evaluates no device. It runs the same `decay`, `slope` and
//! `b*` formulas with the same guard bands. Round 1's widths are no wider
//! than round 0's, and `b*` grows with the width (a narrower drain gap
//! raises `decay`, a wider pulse raises `D`), so round 1's bounds are at
//! least as tight. Round 0 therefore proves only dice that rounds 1–4
//! prove, and no verdict moves; it just settles nearly every die without
//! touching M1's current law.
//!
//! # The swing-dominance lemma
//!
//! A swing sweep elaborates each die once and moves it to every other
//! swing with [`srlr_core::SwingPoint::retarget`], which changes only
//! each stage's `drive_level`, `charge_resistance` and internal energy
//! per pulse. Say sweep point `p` **dominates** `q` on a die when every
//! stage has `drive_level_p ≥ drive_level_q` and
//! `charge_tau_p ≤ charge_tau_q`.
//!
//! **Lemma.** If `q` passes the 1-bit half, so does every `p` that
//! dominates it. Walk the zero-baseline chain from the same launch
//! width. The delivered swing `V·(1 − e^(−w/τ))` does not fall as `V`
//! or `w` grows or `τ` shrinks; M1's current does not fall as that swing
//! grows; `t_d` does not grow as the current grows; and
//! `w_out = delay − (t_rise0 + t_d − t_fall)` does not fall as `t_d`
//! shrinks. By induction every stage sees a pulse at least as wide and
//! as tall at `p` as at `q`, so each check of the half passes at `p`
//! if it passes at `q` (`enabled`, static soundness and the width
//! floors do not depend on the swing). The one exception
//! is the softplus branch switch at `x = 30` in M1's current law, which
//! steps down by ~1e-14 relative. That is far inside `REL`, so a point
//! the lemma calls clean still clears every check of the exact evaluator
//! with margin.
//!
//! [`sweep_clean`] uses the lemma to certify a die's whole sweep: it
//! orders the points by dominance, bisects the 1-bit half along that
//! order, and runs the cheap 0-bit half directly at each point the
//! bisection accepts. The 0-bit half needs no lemma of its own.

use crate::link::SrlrLink;
use srlr_core::SrlrStage;
use srlr_units::{TimeInterval, Voltage};

/// Relative guard band applied on the conservative side of every
/// certificate comparison. f64 evaluation of the stage map differs from
/// real arithmetic by ~1e-13 relative at worst; 1e-9 swamps that while
/// costing a negligible sliver of certifiable dice.
const REL: f64 = 1e-9;

/// Most interval-iteration rounds tightening the (width, residue)
/// bounds after round 0. Round 1 starts from `peak ≤ V_drive` (always
/// true) and each round is a sound refinement of the last, so every
/// round's `b*` is on its own an upper bound of the reachable residues.
/// The certificate accepts at the first round whose `b*` clears every
/// sense threshold. The peak bound only falls from round to round, which
/// narrows the widest pulse, widens the drain gap and lowers `b*`, so a
/// die proven at round `r` is also proven at every later round. Four
/// rounds certify essentially every die that the exact evaluator passes
/// at the paper's operating points.
const ROUNDS: usize = 4;

/// `true` when this die provably transmits every bit pattern cleanly at
/// the link's configured rate (see the module docs for the argument).
/// `false` means "unproven", not "failing".
pub(crate) fn robustly_clean(link: &SrlrLink) -> bool {
    one_bit_clean(link) && zero_bit_clean(link)
}

/// The 1-bit half of the certificate: a solitary `1` on fully drained
/// segments (the worst case for `1`-bits) reaches the demodulator with
/// margin. Upward-closed in swing dominance (the module docs' lemma).
pub fn one_bit_clean(link: &SrlrLink) -> bool {
    let stages = link.chain().stages();
    let demod_min = link.config().demod_min_width.seconds();
    let mut w = link.chain().launch_width().seconds();
    let mut launcher = &stages[0];
    for stage in stages {
        if !stage.enabled || !stage.statically_sound {
            return false;
        }
        if w <= 0.0 {
            return false;
        }
        let peak = launcher
            .delivered_swing(TimeInterval::from_seconds(w))
            .volts();
        if peak <= 0.0 {
            return false;
        }
        let t_d = stage.x_discharge_time(Voltage::from_volts(peak)).seconds();
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
    w * (1.0 - REL) >= demod_min
}

/// The 0-bit half of the certificate: no reachable ISI residue reaches a
/// sense threshold. Round 0 first, then the interval rounds.
fn zero_bit_clean(link: &SrlrLink) -> bool {
    round_zero(link) || interval_rounds(link)
}

/// Round 0 of the residue bound: every launcher emits its widest pulse
/// under `t_d ≥ 0` alone, so no device is evaluated.
fn round_zero(link: &SrlrLink) -> bool {
    let stages = link.chain().stages();
    let t_bit = link.config().data_rate.bit_period().seconds();
    let mut launched = link.chain().launch_width().seconds();
    for (i, stage) in stages.iter().enumerate() {
        match residue_bound(launcher_of(stages, i), launched, t_bit) {
            Some((b_star, _)) if clears(b_star, stage) => {}
            _ => return false,
        }
        launched = widest_output(stage, 0.0);
    }
    true
}

/// Rounds `1..=ROUNDS` of the interval iteration, starting from
/// `peak ≤ V` on every segment.
///
/// Round `r`'s bound on segment `i` depends only on round `r − 1`'s
/// peak on segment `i − 1`, through the widest pulse stage `i − 1` can
/// launch. So all rounds walk the chain together, each carrying the
/// width its launcher emits, and no per-segment buffer is needed. The
/// verdict is the round-by-round one: the first round that has no
/// drain window on some segment rejects the die, and otherwise the
/// first round whose `b*` clears every sense threshold accepts it.
fn interval_rounds(link: &SrlrLink) -> bool {
    let stages = link.chain().stages();
    let t_bit = link.config().data_rate.bit_period().seconds();
    // `launched[r]`: the widest pulse launched onto the current segment
    // in round `r + 1`.
    let mut launched = [link.chain().launch_width().seconds(); ROUNDS];
    // `cleared[r]`: round `r + 1`'s `b*` has cleared every segment so far.
    let mut cleared = [true; ROUNDS];
    // Rounds from the first one without a drain window on are never
    // reached.
    let mut live = ROUNDS;
    for (i, stage) in stages.iter().enumerate() {
        let launcher = launcher_of(stages, i);
        // The previous round's peak bound on this segment; round 1
        // starts from the launcher's drive level.
        let mut peak = launcher.drive_level.volts();
        for r in 0..live {
            let bound = residue_bound(launcher, launched[r], t_bit);
            // Widest output of this stage given the previous round's
            // bound on its input (larger peak → faster X discharge →
            // wider output): what round `r + 1` launches next segment.
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

/// The stage that drives segment `i`: stage `i − 1`, or for segment 0
/// the pulse modulator, which mirrors stage 0.
fn launcher_of(stages: &[SrlrStage], i: usize) -> &SrlrStage {
    &stages[i.saturating_sub(1)]
}

/// Widest output pulse `stage` can emit when its X discharge takes at
/// least `t_d_min`.
fn widest_output(stage: &SrlrStage, t_d_min: f64) -> f64 {
    let widest = stage.delay.seconds() - stage.t_rise0.seconds() + stage.t_fall.seconds();
    (widest - t_d_min).max(0.0)
}

/// Residue fixed point `b*` and peak bound on a segment that `launcher`
/// drives with pulses at most `launched` wide, one per bit slot of
/// `t_bit`; `None` when there is no drain window for the geometric
/// residue argument.
fn residue_bound(launcher: &SrlrStage, launched: f64, t_bit: f64) -> Option<(f64, f64)> {
    let gap_min = t_bit - launched;
    if gap_min <= 0.0 {
        // Pulses can outlast the bit slot.
        return None;
    }
    let decay = (-gap_min / launcher.discharge_tau().seconds()).exp() * (1.0 + REL);
    if decay >= 1.0 - 1e-6 {
        return None;
    }
    // The simulator's headroom divides by the same floored level.
    let v = launcher.drive_level.volts().max(1e-9);
    let d_max = (launcher
        .delivered_swing(TimeInterval::from_seconds(launched))
        .volts()
        * (1.0 + REL))
        .min(v);
    // The headroom slope `1 − D/V`; `b*` grows with it, so round it up.
    let slope = (1.0 - d_max / v) * (1.0 + REL);
    let b_star = d_max * decay / (1.0 - decay * slope);
    Some((b_star, (b_star * slope + d_max).min(v)))
}

/// Whether residue bound `b_star` clears `stage`'s sense threshold with
/// margin.
fn clears(b_star: f64, stage: &SrlrStage) -> bool {
    b_star * (1.0 + REL) < stage.sense_threshold.volts() * (1.0 - 1e-6)
}

/// Certificate verdicts for one die across a swing sweep: `clean[p]`
/// becomes `links[p].robustly_clean()`.
///
/// `links` must be one die moved to every sweep point by
/// [`srlr_core::SwingPoint::retarget`], so that the points differ only
/// in the swing fields. When dominance (module docs) orders the points
/// totally, checked on the actual stage fields, the 1-bit half is
/// bisected along that order, at most `⌈log2(points + 1)⌉` evaluations,
/// and the 0-bit half runs at each point the bisection accepts.
/// Otherwise every point gets the full certificate. `order` is scratch
/// space, so a caller that screens many dice allocates nothing per die.
///
/// # Panics
///
/// Panics if `order` or `clean` is shorter than `links`.
pub fn sweep_clean(links: &[SrlrLink], order: &mut [usize], clean: &mut [bool]) {
    sweep_clean_with(links, order, clean, one_bit_clean);
}

/// [`sweep_clean`] with the 1-bit half supplied by the caller, so tests
/// can count its evaluations.
fn sweep_clean_with(
    links: &[SrlrLink],
    order: &mut [usize],
    clean: &mut [bool],
    mut one_bit: impl FnMut(&SrlrLink) -> bool,
) {
    let (order, clean) = (&mut order[..links.len()], &mut clean[..links.len()]);
    for (k, slot) in order.iter_mut().enumerate() {
        *slot = k;
    }
    // Weakest first: by drive level, then by slower charging.
    order.sort_unstable_by(|&a, &b| {
        let (a, b) = (&links[a].chain().stages()[0], &links[b].chain().stages()[0]);
        let drive = a.drive_level.volts().total_cmp(&b.drive_level.volts());
        drive.then_with(|| {
            b.charge_tau()
                .seconds()
                .total_cmp(&a.charge_tau().seconds())
        })
    });
    if !order
        .windows(2)
        .all(|pair| dominates(&links[pair[1]], &links[pair[0]]))
    {
        for (verdict, link) in clean.iter_mut().zip(links) {
            *verdict = robustly_clean(link);
        }
        return;
    }
    // The 1-bit half is upward-closed along `order`: find the weakest
    // point that passes it.
    let (mut lo, mut hi) = (0, order.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if one_bit(&links[order[mid]]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    for (k, &p) in order.iter().enumerate() {
        clean[p] = k >= lo && zero_bit_clean(&links[p]);
    }
}

/// Whether `p` dominates `q`: the same chain length, and at every stage
/// a drive level at least `q`'s and a charging time constant at most
/// `q`'s.
fn dominates(p: &SrlrLink, q: &SrlrLink) -> bool {
    let (p, q) = (p.chain().stages(), q.chain().stages());
    p.len() == q.len()
        && p.iter().zip(q).all(|(p, q)| {
            p.drive_level.volts() >= q.drive_level.volts()
                && p.charge_tau().seconds() <= q.charge_tau().seconds()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::prbs::Prbs;
    use srlr_core::{DriverKind, SrlrDesign, SwingPoint};
    use srlr_tech::{GlobalVariation, MonteCarlo, ProcessCorner, Technology};
    use srlr_units::DataRate;

    /// Exhaustive-ish stress check mirroring the Monte Carlo trial.
    fn passes_stress(link: &SrlrLink, seed: u64, trial: u64) -> bool {
        let patterns: [&[bool]; 3] = [
            &[true, false, true, false, true, false, true, false],
            &[true, true, true, true, false, true, true, true, true, false],
            &[true; 16],
        ];
        patterns.iter().all(|p| link.transmits_cleanly(p))
            && link.transmits_cleanly(&Prbs::prbs15_for_stream(seed, trial).take_bits(256))
    }

    #[test]
    fn certificate_is_sound_across_dice_and_swings() {
        // The contract that matters: certified ⇒ the exact evaluator
        // agrees, across failing (300 mV), marginal (400 mV) and healthy
        // (500 mV) operating points, for both Fig. 6 designs and at slow,
        // paper and fast rates. The certificate accepts at the first
        // round that proves a die, so round 1's bounds must carry the
        // proof on their own. At 5.8 Gb/s the headroom bound still
        // proves a few proposed dice (7 of 180 here), but the inverter
        // design's drain gap after a widest pulse is too short for the
        // residue bound to clear any 10-stage die, so that leg only
        // checks that nothing is certified wrongly.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        for design in [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ] {
            for gbps in [3.0, 4.1, 5.8] {
                let config = LinkConfig::paper_default()
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps));
                let mut certified_any = false;
                for mv in [300.0, 400.0, 500.0] {
                    let d = design.with_nominal_swing(srlr_units::Voltage::from_millivolts(mv));
                    for trial in 0..60 {
                        let mut die = mc.die(trial);
                        let var = die.global_variation();
                        let link =
                            SrlrLink::on_die_with_mismatch(&tech, &d, config, &var, &mut die);
                        if link.robustly_clean() {
                            certified_any = true;
                            assert!(
                                passes_stress(&link, 2013, trial),
                                "unsound certificate for {:?} at {gbps} Gb/s, {mv} mV, trial {trial}",
                                design.driver_kind
                            );
                        }
                    }
                }
                assert!(
                    certified_any || (gbps > 5.0 && design.driver_kind == DriverKind::Inverter),
                    "healthy {:?} dice at {gbps} Gb/s must be certifiable",
                    design.driver_kind
                );
            }
        }
    }

    /// One die of `design` retargeted to every swing in `mv`, as a sweep
    /// screens it: elaborated at the last swing, retargeted to the rest.
    fn die_at_swings(
        tech: &Technology,
        design: &SrlrDesign,
        config: LinkConfig,
        mc: &MonteCarlo,
        trial: u64,
        mv: &[f64],
    ) -> Vec<SrlrLink> {
        let points: Vec<SwingPoint> = mv
            .iter()
            .map(|&mv| {
                SwingPoint::new(
                    tech,
                    &design.with_nominal_swing(Voltage::from_millivolts(mv)),
                )
            })
            .collect();
        let mut die = mc.die(trial);
        let var = die.global_variation();
        let (last, _) = points.split_last().expect("at least one swing");
        let base = SrlrLink::from_chain(
            last.instantiate_with_mismatch(tech, &var, config.stages, &mut die),
            config,
        );
        points
            .iter()
            .map(|point| {
                let mut link = base.clone();
                link.retarget(tech, &var, point);
                link
            })
            .collect()
    }

    #[test]
    fn round_zero_proves_only_links_the_interval_rounds_prove() {
        // Round 0 drops `t_d` from the widest-pulse bound, so its bounds
        // are never tighter than round 1's: on `screen_fingerprint.rs`'s
        // grid every link it proves, rounds 1–4 alone prove too, which
        // is why adding it moves no verdict.
        let tech = Technology::soi45();
        let proposed = SrlrDesign::paper_proposed(&tech);
        let designs = [
            proposed.clone(),
            SrlrDesign::straightforward(&tech),
            proposed.with_adaptive_swing(false),
        ];
        let configs: Vec<LinkConfig> = [1usize, 2, 3, 10, 40]
            .iter()
            .flat_map(|&stages| {
                [3.0, 4.1, 5.8].map(|gbps| {
                    LinkConfig {
                        stages,
                        ..LinkConfig::paper_default()
                    }
                    .with_data_rate(DataRate::from_gigabits_per_second(gbps))
                })
            })
            .collect();
        let points: Vec<SrlrDesign> = designs
            .iter()
            .flat_map(|d| {
                [300.0, 400.0, 460.0, 550.0]
                    .map(|mv| d.with_nominal_swing(Voltage::from_millivolts(mv)))
            })
            .collect();
        let (mut round_zero_proofs, mut checked) = (0, 0);
        let mut check = |link: &SrlrLink| {
            checked += 1;
            if round_zero(link) {
                round_zero_proofs += 1;
                assert!(
                    interval_rounds(link),
                    "round 0 proved a link rounds 1-4 reject"
                );
            }
        };
        for seed in [2013u64, 3, 99] {
            let mc = MonteCarlo::new(&tech, seed);
            for &config in &configs {
                for design in &points {
                    for trial in 0..60 {
                        let mut die = mc.die(trial);
                        let var = die.global_variation();
                        check(&SrlrLink::on_die_with_mismatch(
                            &tech, design, config, &var, &mut die,
                        ));
                    }
                }
            }
        }
        let corners = [
            ProcessCorner::FastFast,
            ProcessCorner::SlowSlow,
            ProcessCorner::FastSlow,
            ProcessCorner::SlowFast,
        ]
        .map(|c| c.variation(&tech));
        for var in corners.iter().chain([&GlobalVariation::nominal()]) {
            for &config in &configs {
                for design in &points {
                    check(&SrlrLink::on_die(&tech, design, config, var));
                }
            }
        }
        assert_eq!(checked, 33_300);
        assert!(round_zero_proofs > 0, "round 0 must prove some links");
    }

    #[test]
    fn sweep_bisects_the_one_bit_half_on_ordered_dice() {
        // Every die retargeted across a sweep is ordered by dominance, so
        // the 1-bit half runs at most ⌈log2(points + 1)⌉ times per die,
        // and the verdicts still equal the per-point certificate.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        let config = LinkConfig::paper_default();
        let all_mv = [550.0, 350.0, 500.0, 400.0, 460.0, 450.0, 300.0, 600.0];
        for design in [
            SrlrDesign::paper_proposed(&tech),
            SrlrDesign::straightforward(&tech),
        ] {
            for n in 1..=all_mv.len() {
                let bound = (usize::BITS - n.leading_zeros()) as usize; // ⌈log2(n + 1)⌉
                for trial in 0..20 {
                    let links = die_at_swings(&tech, &design, config, &mc, trial, &all_mv[..n]);
                    let (mut order, mut clean) = (vec![0; n], vec![false; n]);
                    let mut evaluations = 0;
                    sweep_clean_with(&links, &mut order, &mut clean, |link| {
                        evaluations += 1;
                        one_bit_clean(link)
                    });
                    assert!(
                        (1..=bound).contains(&evaluations),
                        "{evaluations} evaluations of the 1-bit half for {n} points"
                    );
                    let expected: Vec<bool> = links.iter().map(robustly_clean).collect();
                    assert_eq!(clean, expected, "{n} points, trial {trial}");
                }
            }
        }
    }

    #[test]
    fn unordered_points_fall_back_to_the_full_certificate() {
        // A point with more drive but slower charging than another is
        // not comparable to it: no bisection, every point certified
        // directly.
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 2013);
        let design = SrlrDesign::paper_proposed(&tech);
        let config = LinkConfig::paper_default();
        for trial in 0..10 {
            let mut links = die_at_swings(&tech, &design, config, &mc, trial, &[450.0, 550.0]);
            let mut chain = links[1].chain().clone();
            for stage in chain.stages_mut() {
                stage.charge_resistance = stage.charge_resistance * 4.0;
            }
            links[1] = SrlrLink::from_chain(chain, config);
            let (mut order, mut clean) = ([0; 2], [false; 2]);
            let mut evaluations = 0;
            sweep_clean_with(&links, &mut order, &mut clean, |link| {
                evaluations += 1;
                one_bit_clean(link)
            });
            assert_eq!(evaluations, 0, "unordered points must not be bisected");
            assert_eq!(
                clean,
                [robustly_clean(&links[0]), robustly_clean(&links[1])]
            );
        }
    }

    #[test]
    fn nominal_paper_link_is_certified() {
        let link = SrlrLink::paper_test_chip(&Technology::soi45());
        assert!(link.robustly_clean());
    }

    #[test]
    fn absurd_rate_is_not_certified() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let config =
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(12.0));
        let link = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert!(!link.robustly_clean());
    }

    #[test]
    fn single_stage_link_certifies() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let config = LinkConfig {
            stages: 1,
            ..LinkConfig::paper_default()
        };
        let link = SrlrLink::on_die(&tech, &design, config, &GlobalVariation::nominal());
        assert!(link.robustly_clean());
        assert!(link.transmits_cleanly(&[true, true, false, true]));
    }
}
