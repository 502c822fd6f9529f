//! Property-style tests over the core data structures and invariants.
//!
//! These were originally `proptest` properties; in the hermetic build
//! they are driven by deterministic `srlr-rng` sampling instead — every
//! case is a pure function of the fixed seed, so failures reproduce
//! exactly without a shrinker or a regression file.

#![allow(
    clippy::cast_possible_truncation,
    reason = "test inputs are small generated indices"
)]

use srlr_link::{LinkErrorModel, Prbs};
use srlr_repro::circuit::Waveform;
use srlr_repro::core::{PulseState, SrlrDesign};
use srlr_repro::noc::{Coord, Mesh};
use srlr_repro::tech::montecarlo::ErrorProbability;
use srlr_repro::tech::{GlobalVariation, MonteCarlo, Technology, WireGeometry};
use srlr_repro::units::{Length, TimeInterval, Voltage};
use srlr_rng::Xoshiro256pp;

/// Cases per property (proptest's default).
const CASES: usize = 256;

/// A uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Voltage arithmetic is associative-enough and ordering-compatible.
#[test]
fn voltage_add_sub_round_trip() {
    let mut rng = Xoshiro256pp::new(0xA001);
    for _ in 0..CASES {
        let a = uniform(&mut rng, -2.0, 2.0);
        let b = uniform(&mut rng, -2.0, 2.0);
        let va = Voltage::from_volts(a);
        let vb = Voltage::from_volts(b);
        let back = (va + vb) - vb;
        assert!((back.volts() - a).abs() < 1e-12, "a={a} b={b}");
        assert!(va.min(vb) <= va.max(vb));
    }
}

/// SI display never panics and always carries the base unit, including
/// for non-finite and denormal magnitudes.
#[test]
fn si_display_total() {
    let mut rng = Xoshiro256pp::new(0xA002);
    for _ in 0..CASES {
        // Any bit pattern at all is a legal f64 input to the formatter.
        let value = f64::from_bits(rng.next_u64());
        let s = format!("{}", Voltage::from_volts(value));
        assert!(s.ends_with('V'), "{value:?} displayed as {s}");
    }
    for value in [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
    ] {
        let s = format!("{}", Voltage::from_volts(value));
        assert!(s.ends_with('V'), "{value:?} displayed as {s}");
    }
}

/// Wire extraction scales linearly in length for any geometry.
#[test]
fn wire_extraction_linear() {
    let mut rng = Xoshiro256pp::new(0xA003);
    for _ in 0..CASES {
        let width_um = uniform(&mut rng, 0.1, 1.0);
        let space_um = uniform(&mut rng, 0.1, 1.0);
        let len_mm = uniform(&mut rng, 0.1, 10.0);
        let g = WireGeometry {
            width: Length::from_micrometers(width_um),
            space: Length::from_micrometers(space_um),
            ..WireGeometry::paper_default()
        };
        let one = g.extract(Length::from_millimeters(len_mm));
        let two = g.extract(Length::from_millimeters(2.0 * len_mm));
        assert!((two.resistance.ohms() / one.resistance.ohms() - 2.0).abs() < 1e-9);
        assert!((two.capacitance.farads() / one.capacitance.farads() - 2.0).abs() < 1e-9);
    }
}

/// The MOSFET model's current is monotone in gate voltage for any
/// physical drain bias.
#[test]
fn mosfet_monotone_in_vgs() {
    let m = srlr_repro::tech::MosfetModel::nmos_soi45();
    let mut rng = Xoshiro256pp::new(0xA004);
    for _ in 0..CASES {
        let vds = Voltage::from_millivolts(uniform(&mut rng, 10.0, 800.0));
        let step = 1 + rng.index(15) as u32;
        let lo = Voltage::from_millivolts(f64::from(step) * 50.0);
        let hi = lo + Voltage::from_millivolts(50.0);
        assert!(
            m.drain_current_per_ratio(hi, vds) >= m.drain_current_per_ratio(lo, vds),
            "vds={vds} step={step}"
        );
    }
}

/// XY routing always produces a path of exactly the Manhattan length,
/// entirely inside the mesh.
#[test]
fn xy_path_is_minimal() {
    let mut rng = Xoshiro256pp::new(0xA005);
    for _ in 0..CASES {
        let cols = 2 + rng.index(8) as u16;
        let rows = 2 + rng.index(8) as u16;
        let mesh = Mesh::new(cols, rows);
        let src = Coord::new(
            rng.index(cols as usize) as u16,
            rng.index(rows as usize) as u16,
        );
        let dst = Coord::new(
            rng.index(cols as usize) as u16,
            rng.index(rows as usize) as u16,
        );
        let path = mesh.xy_path(src, dst);
        assert_eq!(path.len() as u32, src.hop_distance(dst) + 1);
        assert!(path.iter().all(|&c| mesh.contains(c)));
    }
}

/// PRBS sequences are balanced to within the maximal-sequence bound for
/// every non-zero PRBS-7 seed.
#[test]
fn prbs_is_balanced() {
    for seed in 1u32..127 {
        let mut gen = Prbs::prbs7_with_seed(seed);
        let ones = gen.take_bits(127).iter().filter(|&&b| b).count();
        assert_eq!(ones, 64, "seed {seed}");
    }
}

/// Waveform threshold crossings alternate rising/falling.
#[test]
fn crossings_alternate() {
    let mut rng = Xoshiro256pp::new(0xA006);
    for _ in 0..CASES {
        let len = 3 + rng.index(37);
        let w: Waveform = (0..len)
            .map(|i| {
                (
                    TimeInterval::from_picoseconds(i as f64),
                    Voltage::from_volts(rng.next_f64()),
                )
            })
            .collect();
        let crossings = w.crossings(Voltage::from_volts(0.5));
        for pair in crossings.windows(2) {
            assert_ne!(pair[0].1, pair[1].1, "edges must alternate");
        }
    }
}

/// A stage's delivered swing is monotone in pulse width and bounded by
/// its drive level.
#[test]
fn delivered_swing_monotone_bounded() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 1);
    let stage = &chain.stages()[0];
    let mut rng = Xoshiro256pp::new(0xA007);
    for _ in 0..CASES {
        let w1 = uniform(&mut rng, 5.0, 300.0);
        let w2 = uniform(&mut rng, 5.0, 300.0);
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let s_lo = stage.delivered_swing(TimeInterval::from_picoseconds(lo));
        let s_hi = stage.delivered_swing(TimeInterval::from_picoseconds(hi));
        assert!(s_lo <= s_hi, "w {lo} vs {hi}");
        assert!(s_hi <= stage.drive_level);
    }
}

/// Propagating any pulse never produces a wider-than-physical output and
/// never panics.
#[test]
fn stage_process_is_total() {
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let chain = design.instantiate(&tech, &GlobalVariation::nominal(), 1);
    let stage = &chain.stages()[0];
    let mut rng = Xoshiro256pp::new(0xA008);
    for _ in 0..CASES {
        let width_ps = uniform(&mut rng, 0.0, 500.0);
        let swing_mv = uniform(&mut rng, 0.0, 800.0);
        let input = PulseState::new(
            TimeInterval::from_picoseconds(width_ps),
            Voltage::from_millivolts(swing_mv),
        );
        let out = stage.process(input);
        if out.output.is_valid() {
            // W_out = delay − (t_rise − t_fall): bounded by the delay
            // cell's contribution plus the fall-time surplus.
            assert!(out.output.width <= stage.delay + stage.t_fall);
            assert!(out.output.swing <= stage.drive_level);
        }
    }
}

/// Monte Carlo dice are always physical regardless of seed, whether
/// addressed by trial index or drawn from the trial's die sampler, and
/// both routes give the same die.
#[test]
fn monte_carlo_dice_physical() {
    let tech = Technology::soi45();
    let mut rng = Xoshiro256pp::new(0xA009);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 10_000;
        let mc = MonteCarlo::new(&tech, seed);
        for trial in 0..8 {
            let die = mc.sample_die_at(trial);
            assert!(die.is_physical(), "seed {seed} trial {trial}");
            assert_eq!(die, mc.die(trial).global_variation(), "seed {seed}");
        }
    }
}

/// Transmitting any bit pattern through the nominal link returns it
/// unchanged (the nominal die is inside the eye for all patterns at the
/// paper's rate), and the early-exit check agrees with the full
/// transmission.
#[test]
fn nominal_link_is_transparent() {
    let tech = Technology::soi45();
    let link = srlr_link::SrlrLink::paper_test_chip(&tech);
    let mut rng = Xoshiro256pp::new(0xA00A);
    for _ in 0..CASES {
        let len = 1 + rng.index(63);
        let bits: Vec<bool> = (0..len).map(|_| rng.next_u64() & 1 == 1).collect();
        let out = link.transmit(&bits);
        assert_eq!(out.received, bits);
        assert!(link.transmits_cleanly(&bits));
    }
}

/// The Wilson-score 95 % upper bound is a genuine bound: it dominates
/// the point estimate, stays in `[0, 1]`, and is strictly positive even
/// after an error-free run, for any failure count and trial count.
#[test]
fn wilson_upper_bound_dominates_the_estimate() {
    let mut rng = Xoshiro256pp::new(0xA00B);
    for _ in 0..CASES {
        let trials = 1 + rng.index(1_000_000);
        let failures = rng.index(trials + 1);
        let p = ErrorProbability { failures, trials };
        let bound = p.upper_bound_95();
        assert!(
            bound >= p.estimate(),
            "bound {bound} < estimate {} at {failures}/{trials}",
            p.estimate()
        );
        assert!((0.0..=1.0).contains(&bound), "{failures}/{trials}: {bound}");
        if failures == 0 {
            assert!(bound > 0.0, "zero failures in {trials} proves nothing");
        }
    }
}

/// With zero failures the bound shrinks monotonically as evidence
/// accumulates, covering the extreme edges: a single trial is nearly
/// uninformative, a huge run pins the bound near zero.
#[test]
fn wilson_zero_failure_bound_tightens_with_trials() {
    let one = ErrorProbability {
        failures: 0,
        trials: 1,
    }
    .upper_bound_95();
    assert!(one > 0.5, "one clean trial bounds almost nothing: {one}");
    let mut prev = one;
    for exp in 1..=9 {
        let trials = 10usize.pow(exp);
        let bound = ErrorProbability {
            failures: 0,
            trials,
        }
        .upper_bound_95();
        assert!(
            bound < prev,
            "bound must tighten: {bound} at n={trials} vs {prev}"
        );
        prev = bound;
    }
    assert!(prev < 1e-8, "1e9 clean trials must pin the bound: {prev}");
    // All-failures saturates exactly at the clamp.
    let all = ErrorProbability {
        failures: 50,
        trials: 50,
    }
    .upper_bound_95();
    assert!((all - 1.0).abs() < 1e-12, "{all}");
}

/// [`LinkErrorModel`] inherits the Wilson guarantees: the effective BER
/// fed to the fault injector never under-reports the point estimate.
#[test]
fn link_error_model_effective_ber_is_conservative() {
    let mut rng = Xoshiro256pp::new(0xA00C);
    for _ in 0..CASES {
        let bits = 1 + rng.index(100_000);
        let errors = rng.index(bits + 1);
        let m = LinkErrorModel { bits, errors };
        assert!(m.ber_upper_bound() >= m.ber(), "{errors}/{bits}");
        assert!(m.effective_ber() >= m.ber(), "{errors}/{bits}");
        assert_eq!(m.is_bounded(), errors == 0);
        if errors > 0 {
            assert_eq!(m.effective_ber(), m.ber());
        } else {
            assert_eq!(m.effective_ber(), m.ber_upper_bound());
        }
    }
}
