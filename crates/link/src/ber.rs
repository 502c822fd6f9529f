//! Bit-error-rate measurement and the maximum-data-rate search.
//!
//! The test chip's measurement circuit transmits on-chip PRBS data,
//! compares at the far end and counts errors; BER < 1e-9 was established
//! by observing zero errors over more than 1e9 bits. [`BerTester`] is that
//! protocol; since a zero-error run only *bounds* the BER, reports carry a
//! Wilson-score upper bound alongside the point estimate.

use crate::link::{LinkConfig, SrlrLink};
use crate::prbs::Prbs;
use srlr_core::SrlrDesign;
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{DataRate, Energy, EnergyPerBit};

/// The result of one BER run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerReport {
    /// Bits transmitted.
    pub bits: usize,
    /// Bits received in error.
    pub errors: usize,
    /// Total dynamic energy of the run.
    pub energy: Energy,
    /// Data rate of the run.
    pub data_rate: DataRate,
}

impl BerReport {
    /// Point estimate of the BER.
    ///
    /// # Panics
    ///
    /// Panics if the run had zero bits.
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn ber(&self) -> f64 {
        assert!(self.bits > 0, "BER of an empty run");
        self.errors as f64 / self.bits as f64
    }

    /// Wilson-score 95 % upper bound on the BER — the honest claim after
    /// a zero-error run.
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn ber_upper_bound(&self) -> f64 {
        srlr_tech::montecarlo::ErrorProbability {
            failures: self.errors,
            trials: self.bits,
        }
        .upper_bound_95()
    }

    /// Measured energy per transmitted bit.
    pub fn energy_per_bit(&self) -> EnergyPerBit {
        EnergyPerBit::from_joules_per_bit(self.energy.joules() / self.bits as f64)
    }

    /// `true` when the run saw no errors.
    pub fn error_free(&self) -> bool {
        self.errors == 0
    }
}

impl core::fmt::Display for BerReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} errors / {} bits at {} (BER <= {:.2e})",
            self.errors,
            self.bits,
            self.data_rate,
            self.ber_upper_bound()
        )
    }
}

/// PRBS-driven BER measurement over an [`SrlrLink`].
#[derive(Debug, Clone)]
pub struct BerTester {
    prbs: Prbs,
}

impl BerTester {
    /// A tester drawing stimulus from the given PRBS generator.
    pub fn new(prbs: Prbs) -> Self {
        Self { prbs }
    }

    /// The default tester: PRBS-15 (long enough to exercise every run
    /// length that matters at link time constants).
    pub fn prbs15() -> Self {
        Self::new(Prbs::prbs15())
    }

    /// Transmits `bits` bits through `link` and reports.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn run(&mut self, link: &SrlrLink, bits: usize) -> BerReport {
        assert!(bits > 0, "need at least one bit");
        let tx = self.prbs.take_bits(bits);
        let outcome = link.transmit(&tx);
        let errors = tx
            .iter()
            .zip(&outcome.received)
            .filter(|(a, b)| a != b)
            .count();
        BerReport {
            bits,
            errors,
            energy: outcome.energy,
            data_rate: link.config().data_rate,
        }
    }
}

/// Stress patterns used by the max-rate search: the worst cases for
/// pulse-width drift (`1010`), ISI accumulation (`11110`, all-ones) and
/// general traffic (PRBS).
fn stress_patterns(prbs_bits: usize) -> Vec<Vec<bool>> {
    let mut patterns = vec![
        [true, false].repeat(64),
        [true, true, true, true, false].repeat(26),
        vec![true; 128],
    ];
    let mut gen = Prbs::prbs15();
    patterns.push(gen.take_bits(prbs_bits));
    patterns
}

/// Finds the highest data rate (to `resolution`) at which a link of
/// `design` on die `var` transmits every stress pattern error-free.
/// Returns `None` if even `lo` fails.
///
/// # Panics
///
/// Panics if the bracket or resolution is non-positive or inverted.
pub fn max_data_rate(
    tech: &Technology,
    design: &SrlrDesign,
    base: LinkConfig,
    var: &GlobalVariation,
    lo: DataRate,
    hi: DataRate,
    resolution: DataRate,
) -> Option<DataRate> {
    let (lo_gbps, hi_gbps, resolution_gbps) = (
        lo.gigabits_per_second(),
        hi.gigabits_per_second(),
        resolution.gigabits_per_second(),
    );
    assert!(
        lo_gbps > 0.0 && hi_gbps > lo_gbps && resolution_gbps > 0.0,
        "invalid rate bracket"
    );
    let passes = |gbps: f64| {
        let config = base.with_data_rate(DataRate::from_gigabits_per_second(gbps));
        let link = SrlrLink::on_die(tech, design, config, var);
        stress_patterns(2_048)
            .iter()
            .all(|p| link.transmit(p).received == *p)
    };
    if !passes(lo_gbps) {
        return None;
    }
    let (mut lo, mut hi) = (lo_gbps, hi_gbps);
    if passes(hi) {
        return Some(DataRate::from_gigabits_per_second(hi));
    }
    while hi - lo > resolution_gbps {
        let mid = 0.5 * (lo + hi);
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(DataRate::from_gigabits_per_second(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::soi45()
    }

    #[test]
    fn nominal_link_is_error_free_at_paper_rate() {
        let link = SrlrLink::paper_test_chip(&tech());
        let report = BerTester::prbs15().run(&link, 30_000);
        assert!(report.error_free(), "{report}");
        assert!(report.ber() == 0.0);
        assert!(report.ber_upper_bound() < 2e-4);
    }

    #[test]
    fn max_rate_is_near_the_paper() {
        // The paper measures 4.1 Gb/s; the calibrated model should land in
        // the same few-Gb/s regime.
        let t = tech();
        let design = SrlrDesign::paper_proposed(&t);
        let rate = max_data_rate(
            &t,
            &design,
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
            DataRate::from_gigabits_per_second(1.0),
            DataRate::from_gigabits_per_second(10.0),
            DataRate::from_gigabits_per_second(0.1),
        )
        .expect("link must work at 1 Gb/s");
        let gbps = rate.gigabits_per_second();
        assert!(gbps > 2.5 && gbps < 7.0, "max rate {gbps} Gb/s");
    }

    #[test]
    fn max_rate_none_when_even_low_rate_fails() {
        let t = tech();
        // A fixed-bias die at the slow corner cannot signal at all.
        let design = SrlrDesign::paper_proposed(&t).with_adaptive_swing(false);
        let ss = srlr_tech::ProcessCorner::SlowSlow.variation(&t);
        let rate = max_data_rate(
            &t,
            &design,
            LinkConfig::paper_default(),
            &ss,
            DataRate::from_gigabits_per_second(1.0),
            DataRate::from_gigabits_per_second(6.0),
            DataRate::from_gigabits_per_second(0.25),
        );
        assert!(rate.is_none());
    }

    #[test]
    fn report_energy_per_bit_positive() {
        let link = SrlrLink::paper_test_chip(&tech());
        let report = BerTester::prbs15().run(&link, 5_000);
        assert!(report.energy_per_bit().femtojoules_per_bit() > 0.0);
    }

    #[test]
    fn report_display_mentions_errors_and_rate() {
        let link = SrlrLink::paper_test_chip(&tech());
        let report = BerTester::prbs15().run(&link, 1_000);
        let s = report.to_string();
        assert!(s.contains("errors"));
        assert!(s.contains("Gb/s"));
    }

    #[test]
    #[should_panic(expected = "invalid rate bracket")]
    fn inverted_bracket_rejected() {
        let t = tech();
        let _ = max_data_rate(
            &t,
            &SrlrDesign::paper_proposed(&t),
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
            DataRate::from_gigabits_per_second(5.0),
            DataRate::from_gigabits_per_second(2.0),
            DataRate::from_gigabits_per_second(0.1),
        );
    }
}
