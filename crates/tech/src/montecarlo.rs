//! Deterministic, seedable Monte Carlo sampling of process variation.
//!
//! The paper's Fig. 6 is built from 1000-run Monte Carlo simulations; this
//! module reproduces that experiment protocol. Gaussian variates come from
//! a built-in Box–Muller transform over [`srlr_rng`]'s xoshiro256++
//! streams, so no statistics crate is needed and every stream is fully
//! determined by its seed.
//!
//! # Counter-based trials
//!
//! Trial `N` of an experiment must not depend on trials `0..N-1`, or the
//! trial loop can never be fanned out across cores. [`MonteCarlo`]
//! therefore derives an independent random stream per trial index
//! (SplitMix64-style mix of `(seed, trial)` via
//! [`srlr_rng::stream_seed`]): [`MonteCarlo::die_rng`] exposes the raw
//! stream and [`MonteCarlo::die`] wraps it in a [`DieSampler`] that draws
//! the die's global variation followed by its per-device local mismatch.
//! Every caller addresses dice by trial index, so serial and parallel
//! callers see bit-identical dice.

use crate::technology::Technology;
use crate::variation::{GlobalVariation, LocalMismatch};
use srlr_rng::{stream_seed, Xoshiro256pp};
use srlr_units::Voltage;

/// A bare deterministic Gaussian stream (Box–Muller over a seeded
/// xoshiro256++ generator) for callers that need noise without the full
/// process-variation machinery (e.g. timing jitter).
#[derive(Debug, Clone)]
pub struct GaussianRng {
    rng: Xoshiro256pp,
    spare: Option<f64>,
}

impl GaussianRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::new(seed),
            spare: None,
        }
    }

    /// Creates the stream for substream `index` of `seed` — the
    /// counter-based derivation used for per-trial randomness.
    pub fn for_stream(seed: u64, index: u64) -> Self {
        Self::new(stream_seed(seed, index))
    }

    /// Draws one standard Gaussian variate (Box–Muller, cached pair).
    // srlr-lint: allow(raw-f64-api, reason = "a standard normal variate is dimensionless")
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box-Muller needs u1 in (0, 1]; next_f64() yields [0, 1).
        let u1: f64 = 1.0 - self.rng.next_f64();
        let u2: f64 = self.rng.next_f64();
        let radius = (-2.0 * u1.ln()).sqrt();
        let angle = 2.0 * core::f64::consts::PI * u2;
        self.spare = Some(radius * angle.sin());
        radius * angle.cos()
    }
}

/// The per-technology variation magnitudes shared by every sampler.
#[derive(Debug, Clone, Copy)]
struct VariationSigmas {
    sigma_vth: Voltage,
    sigma_drive: f64,
    sigma_wire: f64,
    mismatch: LocalMismatch,
}

impl VariationSigmas {
    fn of(tech: &Technology) -> Self {
        Self {
            sigma_vth: tech.global_sigma_vth,
            sigma_drive: tech.global_sigma_drive,
            sigma_wire: tech.global_sigma_wire,
            mismatch: tech.local_mismatch,
        }
    }
}

/// All randomness of one Monte Carlo trial: the die's global variation
/// plus every per-device local-mismatch draw, consumed in elaboration
/// order from one stream that is a pure function of `(seed, trial)`.
///
/// A device's Pelgrom sigmas depend only on its drawn dimensions, so a
/// caller resolves them once from [`DieSampler::local_mismatch`] (the
/// sampler's own coefficients) and draws every device of that size with
/// them.
#[derive(Debug, Clone)]
pub struct DieSampler {
    rng: GaussianRng,
    sigmas: VariationSigmas,
}

impl DieSampler {
    /// Samples this trial's global (die-to-die) variation. Call this
    /// first: the global draws lead the stream, followed by local
    /// mismatch in elaboration order.
    pub fn global_variation(&mut self) -> GlobalVariation {
        sample_global(&mut self.rng, &self.sigmas)
    }

    /// The local-mismatch coefficients this sampler draws with.
    pub fn local_mismatch(&self) -> LocalMismatch {
        self.sigmas.mismatch
    }

    /// Draws a local threshold shift of standard deviation `sigma` (a
    /// device's [`LocalMismatch::sigma_vth`]).
    pub fn draw_local_vth(&mut self, sigma: Voltage) -> Voltage {
        Voltage::from_volts(self.rng.sample() * sigma.volts())
    }

    /// Draws a local drive multiplier of relative standard deviation
    /// `sigma` (a device's [`LocalMismatch::sigma_drive`]); clamped to
    /// stay positive.
    // srlr-lint: allow(raw-f64-api, reason = "local drive mismatch and its sigma are dimensionless")
    pub fn draw_local_drive(&mut self, sigma: f64) -> f64 {
        (1.0 + self.rng.sample() * sigma).max(0.1)
    }
}

fn sample_global(rng: &mut GaussianRng, sigmas: &VariationSigmas) -> GlobalVariation {
    // Multipliers are clamped away from zero so extreme tails stay
    // physical; +/-4 sigma is far beyond the corners we model.
    let clamp_mult = |m: f64| m.clamp(0.5, 1.5);
    GlobalVariation {
        dvth_n: Voltage::from_volts(rng.sample() * sigmas.sigma_vth.volts()),
        dvth_p: Voltage::from_volts(rng.sample() * sigmas.sigma_vth.volts()),
        drive_mult_n: clamp_mult(1.0 + rng.sample() * sigmas.sigma_drive),
        drive_mult_p: clamp_mult(1.0 + rng.sample() * sigmas.sigma_drive),
        wire_r_mult: clamp_mult(1.0 + rng.sample() * sigmas.sigma_wire),
        wire_c_mult: clamp_mult(1.0 + rng.sample() * sigmas.sigma_wire),
    }
}

/// A deterministic Monte Carlo sampler over [`GlobalVariation`] dice:
/// trial `N`'s die, and its per-device local mismatch, come from a
/// [`DieSampler`] that is a pure function of `(seed, N)`.
///
/// # Examples
///
/// ```
/// use srlr_tech::{MonteCarlo, Technology};
///
/// let tech = Technology::soi45();
/// let mc = MonteCarlo::new(&tech, 42);
/// let dice: Vec<_> = (0..1000).map(|trial| mc.sample_die_at(trial)).collect();
/// assert!(dice.iter().all(|d| d.is_physical()));
///
/// // Trial randomness is counter-based: die N is the same whichever
/// // sampler draws it, and in whatever order.
/// assert_eq!(dice[7], MonteCarlo::new(&tech, 42).die(7).global_variation());
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    seed: u64,
    sigmas: VariationSigmas,
}

impl MonteCarlo {
    /// Creates a sampler for the given technology, seeded deterministically.
    pub fn new(tech: &Technology, seed: u64) -> Self {
        Self {
            seed,
            sigmas: VariationSigmas::of(tech),
        }
    }

    /// The independent Gaussian stream of trial `trial` — a pure function
    /// of `(seed, trial)`, shared by no other trial.
    pub fn die_rng(&self, trial: u64) -> GaussianRng {
        GaussianRng::for_stream(self.seed, trial)
    }

    /// The full per-trial sampler: global variation first, then local
    /// mismatch in elaboration order, all from [`Self::die_rng`].
    pub fn die(&self, trial: u64) -> DieSampler {
        DieSampler {
            rng: self.die_rng(trial),
            sigmas: self.sigmas,
        }
    }

    /// Samples trial `trial`'s global variation directly — independent of
    /// every other trial, so callers may evaluate trials in any order or
    /// in parallel.
    pub fn sample_die_at(&self, trial: u64) -> GlobalVariation {
        self.die(trial).global_variation()
    }
}

/// Summary statistics of an error-counting Monte Carlo experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProbability {
    /// Number of failing trials.
    pub failures: usize,
    /// Total number of trials.
    pub trials: usize,
}

impl ErrorProbability {
    /// Point estimate of the failure probability.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    // srlr-lint: allow(raw-f64-api, reason = "a probability is dimensionless")
    pub fn estimate(self) -> f64 {
        assert!(
            self.trials > 0,
            "error probability needs at least one trial"
        );
        self.failures as f64 / self.trials as f64
    }

    /// Wilson-score 95 % upper bound on the failure probability — the
    /// honest number to report when zero failures were observed.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    // srlr-lint: allow(raw-f64-api, reason = "a probability is dimensionless")
    pub fn upper_bound_95(self) -> f64 {
        self.interval_95().1
    }

    /// Wilson-score 95 % lower bound on the failure probability.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    // srlr-lint: allow(raw-f64-api, reason = "a probability is dimensionless")
    pub fn lower_bound_95(self) -> f64 {
        self.interval_95().0
    }

    /// The two-sided Wilson-score 95 % confidence interval
    /// `(lower, upper)` on the failure probability, clamped to `[0, 1]`.
    /// This is the interval an exact (model-checked) probability is
    /// validated against.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    // srlr-lint: allow(raw-f64-api, reason = "a probability is dimensionless")
    pub fn interval_95(self) -> (f64, f64) {
        assert!(
            self.trials > 0,
            "error probability needs at least one trial"
        );
        let n = self.trials as f64;
        let p = self.failures as f64 / n;
        let z = 1.96_f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = p + z2 / (2.0 * n);
        let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            ((centre - spread) / denom).max(0.0),
            ((centre + spread) / denom).min(1.0),
        )
    }
}

impl core::fmt::Display for ErrorProbability {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}/{} ({:.3e})",
            self.failures,
            self.trials,
            self.estimate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_units::Length;

    fn sampler(seed: u64) -> MonteCarlo {
        MonteCarlo::new(&Technology::soi45(), seed)
    }

    /// Trials `0..n` of `seed`'s experiment.
    fn dice(seed: u64, n: u64) -> Vec<GlobalVariation> {
        let mc = sampler(seed);
        (0..n).map(|trial| mc.sample_die_at(trial)).collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        assert_eq!(dice(7, 16), dice(7, 16));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(dice(1, 8), dice(2, 8));
    }

    #[test]
    fn trial_streams_are_order_independent() {
        let mc = sampler(5);
        let forward: Vec<_> = (0..8).map(|t| mc.sample_die_at(t)).collect();
        let backward: Vec<_> = (0..8).rev().map(|t| mc.sample_die_at(t)).collect();
        for (i, die) in forward.iter().enumerate() {
            assert_eq!(*die, backward[7 - i]);
        }
    }

    #[test]
    fn adjacent_trials_give_distinct_physical_dice() {
        let mc = sampler(77);
        for trial in 0..64 {
            let a = mc.sample_die_at(trial);
            let b = mc.sample_die_at(trial + 1);
            assert_ne!(a, b, "trials {trial} and {} collide", trial + 1);
            assert!(a.is_physical());
        }
    }

    #[test]
    fn die_sampler_mismatch_is_deterministic() {
        let mc = sampler(9);
        let draw = |mut die: DieSampler| {
            let w = Length::from_micrometers(0.3);
            let l = Length::from_nanometers(45.0);
            let g = die.global_variation();
            let mismatch = die.local_mismatch();
            let v = die.draw_local_vth(mismatch.sigma_vth(w, l));
            let d = die.draw_local_drive(mismatch.sigma_drive(w, l));
            (g, v, d)
        };
        assert_eq!(draw(mc.die(4)), draw(mc.die(4)));
        assert_ne!(draw(mc.die(4)), draw(mc.die(5)));
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = GaussianRng::new(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.sample()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn dice_are_always_physical() {
        for die in dice(1234, 5000) {
            assert!(die.is_physical());
        }
    }

    #[test]
    fn vth_shifts_have_requested_spread() {
        let tech = Technology::soi45();
        let mc = MonteCarlo::new(&tech, 5);
        let n = 10_000;
        let shifts: Vec<f64> = (0..n)
            .map(|trial| mc.sample_die_at(trial).dvth_n.volts())
            .collect();
        let var = shifts.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let sigma = var.sqrt();
        let expect = tech.global_sigma_vth.volts();
        assert!((sigma - expect).abs() < expect * 0.1, "sigma = {sigma}");
    }

    #[test]
    fn local_mismatch_scales_with_area() {
        let mut die = sampler(11).die(0);
        let n = 5000;
        let spread = |die: &mut DieSampler, w: Length| {
            let sigma = die
                .local_mismatch()
                .sigma_vth(w, Length::from_nanometers(45.0));
            let v: Vec<f64> = (0..n).map(|_| die.draw_local_vth(sigma).volts()).collect();
            (v.iter().map(|x| x * x).sum::<f64>() / n as f64).sqrt()
        };
        let small = spread(&mut die, Length::from_micrometers(0.2));
        let large = spread(&mut die, Length::from_micrometers(3.2));
        assert!(small > large * 2.0, "small {small} vs large {large}");
    }

    #[test]
    fn error_probability_estimate_and_bound() {
        let p = ErrorProbability {
            failures: 3,
            trials: 1000,
        };
        assert!((p.estimate() - 0.003).abs() < 1e-12);
        assert!(p.upper_bound_95() > p.estimate());
        assert!(p.upper_bound_95() < 0.02);

        let zero = ErrorProbability {
            failures: 0,
            trials: 1000,
        };
        assert_eq!(zero.estimate(), 0.0);
        // Rule-of-three-ish: upper bound near 3.8/n for Wilson at 95 %.
        assert!(zero.upper_bound_95() < 0.006);
        assert!(zero.upper_bound_95() > 0.001);
    }

    #[test]
    fn wilson_interval_brackets_the_estimate() {
        let p = ErrorProbability {
            failures: 30,
            trials: 1000,
        };
        let (lo, hi) = p.interval_95();
        assert_eq!(lo, p.lower_bound_95());
        assert_eq!(hi, p.upper_bound_95());
        assert!(lo < p.estimate() && p.estimate() < hi);
        assert!(lo > 0.0, "30/1000 is clearly away from zero");

        // Degenerate corners stay clamped to [0, 1].
        let zero = ErrorProbability {
            failures: 0,
            trials: 50,
        };
        assert_eq!(zero.lower_bound_95(), 0.0);
        let all = ErrorProbability {
            failures: 50,
            trials: 50,
        };
        assert_eq!(all.upper_bound_95(), 1.0);
        assert!(all.lower_bound_95() < 1.0);

        // More trials tighten the interval around the same estimate.
        let wide = ErrorProbability {
            failures: 3,
            trials: 100,
        };
        let tight = ErrorProbability {
            failures: 300,
            trials: 10_000,
        };
        let (wl, wh) = wide.interval_95();
        let (tl, th) = tight.interval_95();
        assert!(th - tl < wh - wl);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = ErrorProbability {
            failures: 0,
            trials: 0,
        }
        .estimate();
    }

    #[test]
    fn display_format() {
        let p = ErrorProbability {
            failures: 1,
            trials: 100,
        };
        assert_eq!(p.to_string(), "1/100 (1.000e-2)");
    }
}
