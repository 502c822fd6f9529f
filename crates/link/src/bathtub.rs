//! BER-versus-rate "bathtub": the margin curve between the operating
//! point and the failure cliff, measured with timing jitter enabled.
//!
//! The silicon's 4.1 Gb/s rating holds BER < 1e-9; pushing the rate eats
//! the jitter margin until errors appear. Sweeping the rate with the
//! jittered transmitter produces the right-hand wall of the classic
//! bathtub curve and shows how much slope sits between "rated" and
//! "broken".

use crate::link::{LinkConfig, SrlrLink};
use crate::prbs::Prbs;
use srlr_core::{DieBatch, SrlrDesign};
use srlr_tech::montecarlo::GaussianRng;
use srlr_tech::{GlobalVariation, Technology};
use srlr_units::{DataRate, TimeInterval};

/// One rate point of the bathtub.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BathtubPoint {
    /// Data rate.
    pub rate: DataRate,
    /// Bit errors observed across all seeds.
    pub errors: usize,
    /// Total bits transmitted across all seeds.
    pub bits: usize,
}

impl BathtubPoint {
    /// Observed bit-error rate.
    ///
    /// # Panics
    ///
    /// Panics if no bits were transmitted.
    // srlr-lint: allow(raw-f64-api, reason = "bit-error ratio is a dimensionless probability")
    pub fn ber(&self) -> f64 {
        assert!(self.bits > 0, "empty bathtub point");
        self.errors as f64 / self.bits as f64
    }
}

/// Sweeps data rate with per-stage width jitter, accumulating errors over
/// `seeds` independent noise streams of `bits_per_seed` PRBS bits each,
/// with `threads` workers (`None` defers to `SRLR_THREADS` / the
/// machine). Every `(rate, seed)` pair is an independent jittered
/// transmission, so the sweep is flattened into one parallel workload;
/// the curve is identical at every thread count.
///
/// # Panics
///
/// Panics if any count is zero or the jitter is negative.
pub fn rate_bathtub_with_threads(
    tech: &Technology,
    design: &SrlrDesign,
    rates: &[DataRate],
    jitter_sigma: TimeInterval,
    bits_per_seed: usize,
    seeds: u64,
    threads: Option<usize>,
) -> Vec<BathtubPoint> {
    assert!(!rates.is_empty(), "need at least one rate");
    assert!(bits_per_seed > 0 && seeds > 0, "need a bit budget");
    assert!(jitter_sigma.seconds() >= 0.0, "jitter must be non-negative");
    let nominal = GlobalVariation::nominal();
    // Link elaboration is invariant across seeds: build each rate's link
    // once up front instead of inside the flattened hot loop.
    let links: Vec<SrlrLink> = rates
        .iter()
        .map(|&rate| {
            let config = LinkConfig::paper_default().with_data_rate(rate);
            SrlrLink::on_die(tech, design, config, &nominal)
        })
        .collect();

    // Cells are batched: every (rate, seed) lane advances in lockstep
    // through a DieBatch with its own PRBS stimulus and its own Gaussian
    // noise stream (seeded exactly as the scalar per-cell transmit), so
    // the curve is bit-identical to one `transmit_with_jitter` per cell.
    // No certificate screening here — it only proves the *jitter-free*
    // link clean — and no early exit: a bathtub counts every error.
    const BATCH_WIDTH: usize = 32;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the flattened (rate, seed) index space is usize, so a runnable seed count fits it"
    )]
    let n_seeds = seeds as usize;
    let n_threads = srlr_parallel::resolve_threads(threads);
    let total = rates.len() * n_seeds;
    let n_batches = total.div_ceil(BATCH_WIDTH);
    let sigma_s = jitter_sigma.seconds();
    let stages = links[0].chain().stages().len();
    let chunks = srlr_parallel::par_map_indexed(n_batches, n_threads, |b| {
        let first = b * BATCH_WIDTH;
        let count = BATCH_WIDTH.min(total - first);
        let mut batch = DieBatch::new(stages, count);
        let mut txs: Vec<Vec<bool>> = Vec::with_capacity(count);
        let mut noise: Vec<GaussianRng> = Vec::with_capacity(count);
        for lane in 0..count {
            let i = first + lane;
            let (point, seed) = (i / n_seeds, (i % n_seeds) as u64);
            let link = &links[point];
            batch.load_lane(
                lane,
                link.chain(),
                link.config().data_rate.bit_period(),
                link.config().demod_min_width,
            );
            txs.push(prbs7_for_seed(seed).take_bits(bits_per_seed));
            noise.push(GaussianRng::new(seed));
        }
        let mut jitter = |lane: usize, w: TimeInterval| {
            let jittered = w.seconds() + noise[lane].sample() * sigma_s;
            TimeInterval::from_seconds(jittered.max(0.0))
        };
        let mut tx = vec![false; count];
        let mut rx = vec![false; count];
        let mut errors = vec![0usize; count];
        for slot in 0..bits_per_seed {
            for (t, lane_tx) in tx.iter_mut().zip(&txs) {
                *t = lane_tx[slot];
            }
            batch.advance_slot_jittered(&tx, &mut rx, &mut jitter);
            for ((e, &r), &t) in errors.iter_mut().zip(&rx).zip(&tx) {
                if r != t {
                    *e += 1;
                }
            }
        }
        errors
            .into_iter()
            .map(|e| (e, bits_per_seed))
            .collect::<Vec<(usize, usize)>>()
    });
    let cells = chunks.concat();
    rates
        .iter()
        .zip(cells.chunks(n_seeds))
        .map(|(&rate, chunk)| BathtubPoint {
            rate,
            errors: chunk.iter().map(|&(e, _)| e).sum(),
            bits: chunk.iter().map(|&(_, b)| b).sum(),
        })
        .collect()
}

/// The shortest `bits_per_seed` at which one of the first `seeds`
/// jitter seeds' PRBS-7 stimuli carries a `1`. Every seed's stream
/// opens with zeros, and a `0` launches no pulse, so a shorter budget
/// sends nothing and reads clean at any rate and any jitter.
pub fn min_pulsed_bits(seeds: u64) -> usize {
    // PRBS-7 repeats every 127 bits, and so does the seed mapping
    // every 126 seeds: the first period of each distinct stream decides.
    (0..seeds.min(126))
        .filter_map(|seed| prbs7_for_seed(seed).take(127).position(|bit| bit))
        .min()
        .map_or(usize::MAX, |zeros| zeros + 1)
}

/// The PRBS-7 stimulus of jitter seed `seed`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "seed % 126 + 1 is at most 126, well within u32"
)]
fn prbs7_for_seed(seed: u64) -> Prbs {
    Prbs::prbs7_with_seed((seed % 126 + 1) as u32)
}

/// Renders the bathtub as an ASCII row per rate.
pub fn render(points: &[BathtubPoint]) -> String {
    let mut out = String::new();
    for p in points {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a BER in (0, 1] gives a bar of 1 to 7 marks"
        )]
        let bar = if p.errors == 0 {
            "clean".to_owned()
        } else {
            format!(
                "BER {:.1e} {}",
                p.ber(),
                "#".repeat((p.ber().log10() + 7.0).max(1.0) as usize)
            )
        };
        out.push_str(&format!(
            "{:>6.1} Gb/s  {}\n",
            p.rate.gigabits_per_second(),
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> Vec<BathtubPoint> {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = [3.5, 4.1, 5.0, 5.6, 6.2, 7.0]
            .iter()
            .map(|&g| DataRate::from_gigabits_per_second(g))
            .collect();
        rate_bathtub_with_threads(
            &tech,
            &design,
            &rates,
            TimeInterval::from_picoseconds(3.0),
            500,
            6,
            None,
        )
    }

    #[test]
    fn rated_point_is_clean_under_jitter() {
        let c = curve();
        assert_eq!(c[0].errors, 0, "3.5 Gb/s must be clean");
        assert_eq!(c[1].errors, 0, "4.1 Gb/s must be clean");
    }

    #[test]
    fn the_wall_appears_before_the_jitter_free_cliff() {
        // Jitter-free cliff is ~6 Gb/s; with 3 ps of jitter errors must
        // appear at or below 6.2 Gb/s.
        let c = curve();
        let first_bad = c.iter().find(|p| p.errors > 0);
        let first_bad = first_bad.expect("the sweep must reach the wall");
        assert!(
            first_bad.rate.gigabits_per_second() <= 6.3,
            "wall at {first_bad:?}"
        );
    }

    #[test]
    fn error_rate_grows_up_the_wall() {
        let c = curve();
        let bers: Vec<f64> = c.iter().map(BathtubPoint::ber).collect();
        // Beyond the first error the curve must not fall back to zero.
        if let Some(first) = bers.iter().position(|&b| b > 0.0) {
            for (i, &b) in bers.iter().enumerate().skip(first + 1) {
                assert!(b > 0.0, "BER fell back to zero at index {i}");
            }
        }
    }

    #[test]
    fn a_budget_below_the_first_pulse_sends_nothing() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates = [DataRate::from_gigabits_per_second(7.0)];
        let huge = TimeInterval::from_picoseconds(1e6);
        let seeds = 8;
        let min = min_pulsed_bits(seeds);
        assert!(min > 1, "every seed opens with a zero");
        let silent = rate_bathtub_with_threads(&tech, &design, &rates, huge, min - 1, seeds, None);
        assert_eq!(silent[0].errors, 0, "no pulse, nothing to corrupt");
        let pulsed = rate_bathtub_with_threads(&tech, &design, &rates, huge, min, seeds, None);
        assert!(
            pulsed[0].errors > 0,
            "the first pulse drowns in 1 us of jitter"
        );
    }

    #[test]
    fn parallel_bathtub_matches_serial() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = [4.1, 5.6, 6.2]
            .iter()
            .map(|&g| DataRate::from_gigabits_per_second(g))
            .collect();
        let sigma = TimeInterval::from_picoseconds(3.0);
        let serial = rate_bathtub_with_threads(&tech, &design, &rates, sigma, 300, 4, Some(1));
        for threads in [2usize, 8] {
            assert_eq!(
                serial,
                rate_bathtub_with_threads(&tech, &design, &rates, sigma, 300, 4, Some(threads)),
                "threads={threads} diverged from the serial bathtub"
            );
        }
    }

    #[test]
    fn batched_bathtub_matches_per_cell_scalar_transmission() {
        // Every point must equal the straightforward per-cell jittered
        // transmit it replaced, including the per-seed noise streams.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = [4.1, 5.6, 6.2]
            .iter()
            .map(|&g| DataRate::from_gigabits_per_second(g))
            .collect();
        let sigma = TimeInterval::from_picoseconds(3.0);
        let (bits_per_seed, seeds) = (200usize, 5u64);
        let batched =
            rate_bathtub_with_threads(&tech, &design, &rates, sigma, bits_per_seed, seeds, Some(1));
        let nominal = GlobalVariation::nominal();
        for (point, &rate) in rates.iter().enumerate() {
            let config = LinkConfig::paper_default().with_data_rate(rate);
            let link = SrlrLink::on_die(&tech, &design, config, &nominal);
            let mut errors = 0usize;
            for seed in 0..seeds {
                let tx = prbs7_for_seed(seed).take_bits(bits_per_seed);
                let out = link.transmit_with_jitter(&tx, sigma, seed);
                errors += tx.iter().zip(&out.received).filter(|(a, b)| a != b).count();
            }
            assert_eq!(
                batched[point],
                BathtubPoint {
                    rate,
                    errors,
                    bits: bits_per_seed * usize::try_from(seeds).unwrap()
                },
                "rate point {point} diverged from the scalar jittered transmit"
            );
        }
    }

    #[test]
    fn cli_grid_error_counts_are_pinned_at_one_and_two_threads() {
        // `srlr bathtub`'s default sweep: 3.5–7 Gb/s in 0.5 Gb/s steps,
        // 2000 PRBS-7 bits × 8 jitter seeds at 3 ps. A kernel change that
        // claims bit-identity must reproduce every count exactly.
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let rates: Vec<DataRate> = (7..=14)
            .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5))
            .collect();
        let sigma = TimeInterval::from_picoseconds(3.0);
        for threads in [1usize, 2] {
            let curve =
                rate_bathtub_with_threads(&tech, &design, &rates, sigma, 2000, 8, Some(threads));
            let errors: Vec<usize> = curve.iter().map(|p| p.errors).collect();
            assert_eq!(
                errors,
                [0, 0, 0, 0, 0, 2073, 6673, 7782],
                "threads {threads}"
            );
            assert!(curve.iter().all(|p| p.bits == 16_000));
        }
    }

    #[test]
    fn render_marks_clean_and_dirty_rows() {
        let text = render(&curve());
        assert!(text.contains("clean"));
        assert!(text.contains("BER"));
    }

    #[test]
    #[should_panic(expected = "at least one rate")]
    fn empty_rates_rejected() {
        let tech = Technology::soi45();
        let design = SrlrDesign::paper_proposed(&tech);
        let _ = rate_bathtub_with_threads(&tech, &design, &[], TimeInterval::zero(), 10, 1, None);
    }
}
