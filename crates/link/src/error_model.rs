//! A reusable bit-error-rate model the network layer can consume.
//!
//! [`crate::ber::BerTester`] measures a single link; the mesh simulator
//! (`srlr-noc`) wants one number per *design point*: "what BER should my
//! fault injector run at for this swing?". [`LinkErrorModel`] is that
//! bridge. It aggregates bit errors over a population of Monte Carlo
//! dice — global variation plus per-stage mismatch, the same sampling as
//! [`crate::montecarlo::McExperiment`] — and reports an *effective* BER:
//! the point estimate when errors were observed, and the Wilson-score
//! 95 % upper bound when the run was error-free (an honest, conservative
//! stand-in for "we saw nothing").
//!
//! Like every experiment in this crate, measurement is a pure function
//! of `(seed, trial)` and fans out over the deterministic parallel
//! engine, so results are bit-identical at any thread count.

use crate::ber::BerReport;
use crate::link::{LinkConfig, SrlrLink};
use crate::prbs::Prbs;
use srlr_core::SrlrDesign;
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{MonteCarlo, Technology};

/// Aggregated bit-error statistics of a link design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkErrorModel {
    /// Total bits transmitted across all sampled dice.
    pub bits: usize,
    /// Total bit errors observed.
    pub errors: usize,
}

impl LinkErrorModel {
    /// Wraps the counts of a single [`BerReport`].
    pub fn from_report(report: &BerReport) -> Self {
        Self {
            bits: report.bits,
            errors: report.errors,
        }
    }

    /// Point estimate of the BER.
    ///
    /// # Panics
    ///
    /// Panics if the model holds zero bits.
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn ber(&self) -> f64 {
        assert!(self.bits > 0, "BER of an empty measurement");
        self.errors as f64 / self.bits as f64
    }

    /// Wilson-score 95 % upper bound on the BER.
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn ber_upper_bound(&self) -> f64 {
        ErrorProbability {
            failures: self.errors,
            trials: self.bits,
        }
        .upper_bound_95()
    }

    /// `true` when no errors were observed — [`Self::effective_ber`] is
    /// then a bound, not an estimate.
    pub fn is_bounded(&self) -> bool {
        self.errors == 0
    }

    /// The BER a downstream fault injector should run at: the point
    /// estimate when errors were observed, otherwise the Wilson upper
    /// bound (a zero-error run proves nothing about zero).
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn effective_ber(&self) -> f64 {
        if self.is_bounded() {
            self.ber_upper_bound()
        } else {
            self.ber()
        }
    }

    /// Measures a design point over `dice` Monte Carlo dice (global
    /// variation + per-stage mismatch), transmitting `bits_per_die`
    /// PRBS-15 bits on each. `threads: None` defers to `SRLR_THREADS` /
    /// the machine; results are bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `dice` or `bits_per_die` is zero.
    pub fn measure(
        tech: &Technology,
        design: &SrlrDesign,
        config: LinkConfig,
        dice: usize,
        bits_per_die: usize,
        seed: u64,
        threads: Option<usize>,
    ) -> Self {
        assert!(dice > 0, "need at least one die");
        assert!(bits_per_die > 0, "need at least one bit per die");
        let mc = MonteCarlo::new(tech, seed);
        let workers = srlr_parallel::resolve_threads(threads);
        let errors_per_die = srlr_parallel::par_map_indexed(dice, workers, |trial| {
            let mut die = mc.die(trial as u64);
            let var = die.global_variation();
            let link = SrlrLink::on_die_with_mismatch(tech, design, config, &var, &mut die);
            let tx = Prbs::prbs15_for_stream(seed, trial as u64).take_bits(bits_per_die);
            let outcome = link.transmit(&tx);
            tx.iter()
                .zip(&outcome.received)
                .filter(|(a, b)| a != b)
                .count()
        });
        Self {
            bits: dice * bits_per_die,
            errors: errors_per_die.iter().sum(),
        }
    }
}

impl core::fmt::Display for LinkErrorModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_bounded() {
            write!(
                f,
                "0 errors / {} bits (BER <= {:.2e}, Wilson 95 %)",
                self.bits,
                self.ber_upper_bound()
            )
        } else {
            write!(
                f,
                "{} errors / {} bits (BER {:.2e})",
                self.errors,
                self.bits,
                self.ber()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_units::Voltage;

    fn tech() -> Technology {
        Technology::soi45()
    }

    #[test]
    fn zero_error_model_reports_the_wilson_bound() {
        let m = LinkErrorModel {
            bits: 1_000_000,
            errors: 0,
        };
        assert!(m.is_bounded());
        assert_eq!(m.ber(), 0.0);
        assert!(m.effective_ber() > 0.0, "bound must be conservative");
        assert_eq!(m.effective_ber(), m.ber_upper_bound());
        assert!(m.to_string().contains("Wilson"));
    }

    #[test]
    fn nominal_population_ber_is_small() {
        // A mismatch population includes a few marginal dice, so the
        // aggregate BER is rarely exactly zero — but it must be small,
        // and far below a starved-swing design's.
        let t = tech();
        let m = LinkErrorModel::measure(
            &t,
            &SrlrDesign::paper_proposed(&t),
            LinkConfig::paper_default(),
            20,
            400,
            7,
            Some(1),
        );
        assert_eq!(m.bits, 8000);
        assert!(m.effective_ber() < 0.05, "{m}");
    }

    #[test]
    fn starved_swing_produces_real_errors() {
        let t = tech();
        let design = SrlrDesign::paper_proposed(&t)
            .with_adaptive_swing(false)
            .with_nominal_swing(Voltage::from_millivolts(80.0));
        let m = LinkErrorModel::measure(
            &t,
            &design,
            LinkConfig::paper_default(),
            20,
            400,
            7,
            Some(1),
        );
        assert!(m.errors > 0, "80 mV swing must corrupt bits: {m}");
        assert_eq!(m.effective_ber(), m.ber());
        assert!(!m.is_bounded());
    }

    #[test]
    fn measurement_is_thread_count_invariant() {
        let t = tech();
        let design = SrlrDesign::paper_proposed(&t);
        let run = |threads: usize| {
            LinkErrorModel::measure(
                &t,
                &design,
                LinkConfig::paper_default(),
                24,
                200,
                11,
                Some(threads),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn from_report_round_trips_counts() {
        let link = SrlrLink::paper_test_chip(&tech());
        let report = crate::ber::BerTester::prbs15().run(&link, 2_000);
        let m = LinkErrorModel::from_report(&report);
        assert_eq!(m.bits, 2_000);
        assert_eq!(m.errors, report.errors);
        assert_eq!(m.ber_upper_bound(), report.ber_upper_bound());
    }

    #[test]
    #[should_panic(expected = "at least one die")]
    fn zero_dice_rejected() {
        let t = tech();
        let _ = LinkErrorModel::measure(
            &t,
            &SrlrDesign::paper_proposed(&t),
            LinkConfig::paper_default(),
            0,
            100,
            1,
            Some(1),
        );
    }
}
