//! Multi-lane link bundles: the paper's "64-bit 10 mm link
//! implementation" whose shared bias generator dissipates just 0.6 % of
//! total link power.
//!
//! A bundle instantiates one SRLR lane per bit on the same die (shared
//! global corner, independent per-stage local mismatch per lane) plus a
//! single [`AdaptiveSwingBias`] generator serving every lane's drivers.

use crate::link::{LinkConfig, SrlrLink};
use crate::metrics::LinkMetrics;
use srlr_core::SrlrDesign;
use srlr_tech::{AdaptiveSwingBias, GlobalVariation, MonteCarlo, Technology};
use srlr_units::Power;

/// A bundle of parallel SRLR lanes with one shared bias generator.
#[derive(Debug, Clone)]
pub struct LinkBundle {
    lanes: Vec<SrlrLink>,
    bias: AdaptiveSwingBias,
    config: LinkConfig,
}

impl LinkBundle {
    /// Builds a `width`-lane bundle on one die with `threads` workers
    /// (`None` defers to `SRLR_THREADS` / the machine): every lane
    /// shares the die's global variation and draws independent local
    /// mismatch. Lane `k` draws its mismatch from the counter-based
    /// stream `k` of the bundle seed, so the elaborated bundle is
    /// identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn on_die(
        tech: &Technology,
        design: &SrlrDesign,
        config: LinkConfig,
        var: &GlobalVariation,
        width: usize,
        seed: u64,
        threads: Option<usize>,
    ) -> Self {
        assert!(width > 0, "bundle needs at least one lane");
        let mc = MonteCarlo::new(tech, seed);
        let n_threads = srlr_parallel::resolve_threads(threads);
        let lanes = srlr_parallel::par_map_indexed(width, n_threads, |lane| {
            let mut die = mc.die(lane as u64);
            SrlrLink::on_die_with_mismatch(tech, design, config, var, &mut die)
        });
        Self {
            lanes,
            bias: AdaptiveSwingBias::with_nominal_swing(tech, design.nominal_swing),
            config,
        }
    }

    /// The paper's 64-bit 10 mm bundle on a typical die.
    pub fn paper_64bit(tech: &Technology, seed: u64) -> Self {
        Self::on_die(
            tech,
            &SrlrDesign::paper_proposed(tech),
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
            64,
            seed,
            None,
        )
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// The lanes.
    pub fn lanes(&self) -> &[SrlrLink] {
        &self.lanes
    }

    /// Transmits a sequence of words; bit `k` of each word rides lane `k`.
    /// Returns the received words.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is wider than 64 lanes (words are `u64`).
    pub fn transmit_words(&self, words: &[u64]) -> Vec<u64> {
        assert!(self.width() <= 64, "u64 words carry at most 64 lanes");
        let mut received = vec![0u64; words.len()];
        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            let bits: Vec<bool> = words.iter().map(|w| (w >> lane_idx) & 1 == 1).collect();
            let out = lane.transmit(&bits);
            for (word_idx, &bit) in out.received.iter().enumerate() {
                if bit {
                    received[word_idx] |= 1 << lane_idx;
                }
            }
        }
        received
    }

    /// Number of lanes that transmit the stress patterns cleanly. With
    /// per-stage local mismatch, wide bundles see real *lane yield*: the
    /// commanded swing buys margin against the worst lane, which is
    /// exactly the trade Fig. 6 sweeps.
    pub fn clean_lane_count(&self) -> usize {
        let patterns: [&[bool]; 2] = [
            &[true, true, true, true, false, true, false, true],
            &[true; 12],
        ];
        self.lanes
            .iter()
            .filter(|lane| patterns.iter().all(|p| lane.transmits_cleanly(p)))
            .count()
    }

    /// Whether every lane transmits the stress patterns cleanly.
    pub fn all_lanes_clean(&self) -> bool {
        self.clean_lane_count() == self.width()
    }

    /// Total bundle power at the configured rate (PRBS traffic): all lane
    /// dynamic power plus leakage plus the one shared bias generator.
    /// Lanes whose worst-mismatch stage cannot repeat the nominal pulse
    /// are charged at the healthy-lane average (their drivers still burn
    /// the energy; only the model's fixed point is undefined).
    ///
    /// # Panics
    ///
    /// Panics if no lane is functional at all.
    pub fn total_power(&self) -> Power {
        let live: Vec<Power> = self
            .lanes
            .iter()
            .filter(|l| {
                let c = l.chain();
                c.propagate(c.nominal_input_pulse()).is_valid()
            })
            .map(|l| LinkMetrics::measure(l).power + l.chain().total_leakage())
            .collect();
        assert!(!live.is_empty(), "bundle has no functional lane");
        let avg = live.iter().copied().sum::<Power>() / live.len() as f64;
        avg * self.width() as f64 + self.bias.power()
    }

    /// The bias generator's share of total bundle power — the paper
    /// quotes 0.6 % at 64 bits.
    // srlr-lint: allow(raw-f64-api, reason = "bias share is a dimensionless fraction")
    pub fn bias_share(&self) -> f64 {
        self.bias.power() / self.total_power()
    }

    /// Aggregate payload bandwidth.
    pub fn aggregate_bandwidth(&self) -> srlr_units::DataRate {
        self.config.data_rate * self.width() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bundle() -> LinkBundle {
        let tech = Technology::soi45();
        LinkBundle::on_die(
            &tech,
            &SrlrDesign::paper_proposed(&tech),
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
            8,
            1,
            None,
        )
    }

    #[test]
    fn words_round_trip() {
        let b = small_bundle();
        let words = [0x00, 0xFF, 0xA5, 0x5A, 0x81, 0x18];
        assert_eq!(b.transmit_words(&words), words);
    }

    #[test]
    fn paper_bundle_bias_share_matches_claim() {
        let tech = Technology::soi45();
        let b = LinkBundle::paper_64bit(&tech, 7);
        let share = b.bias_share();
        // Paper: 0.6 % for the 64-bit 10 mm link.
        assert!(
            (share - 0.006).abs() < 0.002,
            "bias share {share} vs the paper's 0.006"
        );
        // 64 lanes x 4.1 Gb/s = 262.4 Gb/s of payload.
        assert!((b.aggregate_bandwidth().gigabits_per_second() - 262.4).abs() < 0.1);
    }

    #[test]
    fn lane_yield_improves_with_commanded_swing() {
        // A 64-lane bundle with per-stage mismatch sees a weak-lane tail
        // at the stock swing; +40 mV buys all-lane yield — the bundle's
        // version of the Fig. 6 swing/robustness trade.
        let tech = Technology::soi45();
        let stock = LinkBundle::paper_64bit(&tech, 7);
        let stock_clean = stock.clean_lane_count();
        assert!(
            stock_clean >= 56,
            "stock swing should lose at most a few of 64 lanes: {stock_clean}"
        );

        let boosted_design = SrlrDesign::paper_proposed(&tech)
            .with_nominal_swing(srlr_units::Voltage::from_millivolts(500.0));
        let boosted = LinkBundle::on_die(
            &tech,
            &boosted_design,
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
            64,
            7,
            None,
        );
        assert!(
            boosted.clean_lane_count() >= stock_clean,
            "extra swing must not lose lanes"
        );
        assert!(
            boosted.all_lanes_clean(),
            "+40 mV should yield all 64 lanes"
        );
    }

    #[test]
    fn bundle_power_scales_with_width() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let build = |w| {
            LinkBundle::on_die(
                &tech,
                &design,
                LinkConfig::paper_default(),
                &GlobalVariation::nominal(),
                w,
                3,
                None,
            )
        };
        let p8 = build(8).total_power();
        let p16 = build(16).total_power();
        // Doubling lanes ~doubles lane power; the shared bias does not double.
        let ratio = p16 / p8;
        assert!(ratio > 1.8 && ratio < 2.0, "power ratio {ratio}");
    }

    #[test]
    fn parallel_bundle_matches_serial() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let build = |threads| {
            LinkBundle::on_die(
                &tech,
                &design,
                LinkConfig::paper_default(),
                &GlobalVariation::nominal(),
                16,
                7,
                Some(threads),
            )
        };
        let serial = build(1);
        for threads in [2usize, 8] {
            let parallel = build(threads);
            assert_eq!(
                serial.lanes(),
                parallel.lanes(),
                "threads={threads} elaborated different lanes"
            );
        }
    }

    #[test]
    fn lanes_differ_by_local_mismatch() {
        let b = small_bundle();
        let first = &b.lanes()[0];
        assert!(
            b.lanes().iter().skip(1).any(|l| l != first),
            "lanes should carry independent mismatch"
        );
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_width_rejected() {
        let tech = Technology::soi45();
        let _ = LinkBundle::on_die(
            &tech,
            &SrlrDesign::paper_proposed(&tech),
            LinkConfig::paper_default(),
            &GlobalVariation::nominal(),
            0,
            1,
            None,
        );
    }
}
