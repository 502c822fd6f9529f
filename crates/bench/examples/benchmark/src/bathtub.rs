//! `bathtub_jitter`: the library equivalent of `srlr bathtub`.
//!
//! One repetition sweeps 8 data rates × 8 jitter-noise seeds × 2000
//! PRBS-7 bits at 3 ps of per-stage width jitter: 128,000 lane-slots on
//! one thread. There is no certificate and no early exit, and the link
//! is elaborated once per rate, so the work is kernel-bound: a change
//! to the per-die screen should not move it, a change to the kernel
//! should.
//!
//! The seed shifts the whole rate grid up by `seed % 100` Mb/s (the
//! library fixes the noise seeds at `0..8`); seed 0 is the CLI's grid.

use crate::harness::{Trace, Workload};
use srlr_core::{DieBatch, SrlrDesign};
use srlr_link::bathtub::{rate_bathtub_with_threads, BathtubPoint};
use srlr_link::{LinkConfig, Prbs, SrlrLink};
use srlr_tech::{GaussianRng, GlobalVariation, Technology};
use srlr_units::{DataRate, TimeInterval};

/// Jitter-noise seeds per rate.
const SEEDS: u64 = 8;
/// PRBS bits per (rate, seed) cell.
const BITS: usize = 2000;
/// The library's bathtub batch width.
const BATCH_WIDTH: usize = 32;
/// Golden bit errors per rate at seed 0 (3.5–7 Gb/s).
const GOLDEN_ERRORS: [usize; 8] = [0, 0, 0, 0, 0, 2073, 6673, 7782];

pub struct Bathtub;

pub struct Inputs {
    tech: Technology,
    design: SrlrDesign,
    rates: Vec<DataRate>,
    jitter: TimeInterval,
}

impl Workload for Bathtub {
    type Inputs = Inputs;
    type Output = Vec<BathtubPoint>;
    const NAME: &'static str = "bathtub_jitter";
    const DEFAULT_SEED: u64 = 0;
    const WORK_UNIT: &'static str = "lane-slots";

    fn setup(seed: u64) -> Inputs {
        let tech = Technology::soi45();
        let offset_gbps = (seed % 100) as f64 * 1e-3;
        Inputs {
            design: SrlrDesign::paper_proposed(&tech),
            rates: (7..=14)
                .map(|i| DataRate::from_gigabits_per_second(f64::from(i) * 0.5 + offset_gbps))
                .collect(),
            jitter: TimeInterval::from_picoseconds(3.0),
            tech,
        }
    }

    fn work_units(inputs: &Inputs, _: &Vec<BathtubPoint>) -> u64 {
        inputs.rates.len() as u64 * SEEDS * BITS as u64
    }

    fn run(inputs: &Inputs) -> Vec<BathtubPoint> {
        rate_bathtub_with_threads(
            &inputs.tech,
            &inputs.design,
            &inputs.rates,
            inputs.jitter,
            BITS,
            SEEDS,
            Some(1),
        )
    }

    fn replay(
        inputs: &Inputs,
        trace: &mut Trace,
        oracle: bool,
    ) -> Result<Vec<BathtubPoint>, String> {
        let nominal = GlobalVariation::nominal();
        let mut links = Vec::with_capacity(inputs.rates.len());
        for &rate in &inputs.rates {
            trace.prof.enter("link.elaborate");
            let config = LinkConfig::paper_default().with_data_rate(rate);
            links.push(SrlrLink::on_die(
                &inputs.tech,
                &inputs.design,
                config,
                &nominal,
            ));
            trace.prof.exit();
        }

        let n_seeds = SEEDS as usize;
        let total = links.len() * n_seeds;
        let mut cells = Vec::with_capacity(total);
        for first in (0..total).step_by(BATCH_WIDTH) {
            let count = BATCH_WIDTH.min(total - first);
            let cell = |lane: usize| {
                let i = first + lane;
                (&links[i / n_seeds], (i % n_seeds) as u64)
            };
            let prof = &mut trace.prof;
            prof.enter("core.load");
            let mut batch = DieBatch::new(links[0].chain().stages().len(), count);
            for lane in 0..count {
                let link = cell(lane).0;
                batch.load_lane(
                    lane,
                    link.chain(),
                    link.config().data_rate.bit_period(),
                    link.config().demod_min_width,
                );
            }
            prof.exit();
            prof.count_n("core.lane_loads", count as u64);

            let mut txs = Vec::with_capacity(count);
            let mut noise = Vec::with_capacity(count);
            for lane in 0..count {
                let seed = cell(lane).1;
                prof.enter("link.prbs");
                txs.push(prbs7(seed));
                prof.exit();
                prof.count_n("link.prbs_bits", BITS as u64);
                noise.push(GaussianRng::new(seed));
            }

            let sigma_s = inputs.jitter.seconds();
            let mut samples = 0u64;
            let mut jitter = |lane: usize, w: TimeInterval| {
                samples += 1;
                let jittered = w.seconds() + noise[lane].sample() * sigma_s;
                TimeInterval::from_seconds(jittered.max(0.0))
            };
            let mut tx = vec![false; count];
            let mut rx = vec![false; count];
            let mut errors = vec![0usize; count];
            for slot in 0..BITS {
                for (t, lane_tx) in tx.iter_mut().zip(&txs) {
                    *t = lane_tx[slot];
                }
                prof.enter("core.kernel");
                batch.advance_slot_jittered(&tx, &mut rx, &mut jitter);
                prof.exit();
                for ((e, &r), &t) in errors.iter_mut().zip(&rx).zip(&tx) {
                    if r != t {
                        *e += 1;
                    }
                }
            }
            // No early exit: every lane advances through every slot.
            prof.count_n("core.lane_slots", (count * BITS) as u64);
            prof.count_n("tech.gauss_samples", samples);
            prof.count_n("core.bit_errors", errors.iter().sum::<usize>() as u64);

            if oracle {
                for (lane, &batched) in errors.iter().enumerate() {
                    let (link, seed) = cell(lane);
                    let bits = &txs[lane];
                    let received = link
                        .transmit_with_jitter(bits, inputs.jitter, seed)
                        .received;
                    let scalar = bits.iter().zip(&received).filter(|(a, b)| a != b).count();
                    if scalar != batched {
                        return Err(format!(
                            "cell {}: {batched} lockstep errors vs {scalar} from scalar transmit_with_jitter",
                            first + lane
                        ));
                    }
                }
            }
            cells.extend(errors);
        }

        Ok(inputs
            .rates
            .iter()
            .zip(cells.chunks(n_seeds))
            .map(|(&rate, chunk)| BathtubPoint {
                rate,
                errors: chunk.iter().sum(),
                bits: BITS * n_seeds,
            })
            .collect())
    }

    fn check(_: &Inputs, out: &Vec<BathtubPoint>, golden: bool) -> Result<(), String> {
        let errors: Vec<usize> = out.iter().map(|p| p.errors).collect();
        if golden && errors != GOLDEN_ERRORS {
            return Err(format!(
                "bathtub_jitter errors per rate {errors:?} differ from the golden {GOLDEN_ERRORS:?}"
            ));
        }
        Ok(())
    }
}

/// The PRBS-7 stimulus of noise seed `seed`, seeded as the library
/// seeds it.
fn prbs7(seed: u64) -> Vec<bool> {
    let lfsr_seed = u32::try_from(seed % 126 + 1).expect("at most 126");
    Prbs::prbs7_with_seed(lfsr_seed).take_bits(BITS)
}
