//! `fig6_mc`: the library equivalent of `srlr fig6 --runs 1000`.
//!
//! One repetition sweeps the proposed and the straightforward design
//! over 350–550 mV and computes the immunity ratio: 12,000 dice at
//! batch width 32 on one thread. The work is screen-bound: most time
//! goes to elaborating each die's link and certifying it, not to the
//! lockstep kernel.

use crate::harness::{Trace, Workload};
use srlr_core::{DieBatch, SrlrDesign};
use srlr_link::{robustness_ratio, LinkConfig, McExperiment, Prbs, SrlrLink};
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{MonteCarlo, Technology};
use srlr_telemetry::Profiler;
use srlr_units::Voltage;

/// Dice per design point, as in the paper.
const RUNS: usize = 1000;
/// The library's default batch width.
const BATCH_WIDTH: usize = 32;

/// The Sec. III-B stress patterns every die must pass before its PRBS
/// stimulus: a copy of the Monte Carlo engine's private list.
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

/// Golden failures per swing point at seed 2013.
const GOLDEN_PROPOSED: [usize; 5] = [1000, 967, 150, 0, 0];
const GOLDEN_STRAIGHTFORWARD: [usize; 5] = [1000, 942, 355, 11, 0];
/// Golden immunity-point failures (proposed, straightforward).
const GOLDEN_IMMUNITY: (usize, usize) = (64, 213);

pub struct Fig6;

pub struct Inputs {
    tech: Technology,
    proposed: SrlrDesign,
    straightforward: SrlrDesign,
    swings: Vec<Voltage>,
    seed: u64,
}

impl Inputs {
    fn experiment(&self) -> McExperiment<'_> {
        let mut exp = McExperiment::paper_default(&self.tech)
            .with_runs(RUNS)
            .with_threads(Some(1))
            .with_batch_width(BATCH_WIDTH);
        exp.seed = self.seed;
        exp
    }
}

/// Failures per swing point for both designs, and the immunity result.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    proposed: Vec<usize>,
    straightforward: Vec<usize>,
    immunity: (usize, usize),
    ratio: f64,
}

impl Workload for Fig6 {
    type Inputs = Inputs;
    type Output = Output;
    const NAME: &'static str = "fig6_mc";
    const DEFAULT_SEED: u64 = 2013;
    const WORK_UNIT: &'static str = "dice";

    fn setup(seed: u64) -> Inputs {
        let tech = Technology::soi45();
        Inputs {
            proposed: SrlrDesign::paper_proposed(&tech),
            straightforward: SrlrDesign::straightforward(&tech),
            swings: (7..=11)
                .map(|i| Voltage::from_millivolts(f64::from(i) * 50.0))
                .collect(),
            tech,
            seed,
        }
    }

    fn work_units(inputs: &Inputs, _: &Output) -> u64 {
        ((2 * inputs.swings.len() + 2) * RUNS) as u64
    }

    fn run(inputs: &Inputs) -> Output {
        let exp = inputs.experiment();
        let failures = |design: &SrlrDesign| -> Vec<usize> {
            exp.swing_sweep(design, &inputs.swings)
                .iter()
                .map(|(_, p)| p.failures)
                .collect()
        };
        let proposed = failures(&inputs.proposed);
        let straightforward = failures(&inputs.straightforward);
        let (p, s, ratio) = exp.immunity_ratio();
        Output {
            proposed,
            straightforward,
            immunity: (p.failures, s.failures),
            ratio,
        }
    }

    fn replay(inputs: &Inputs, trace: &mut Trace, oracle: bool) -> Result<Output, String> {
        let exp = inputs.experiment();
        let screen = Screen {
            tech: &inputs.tech,
            config: LinkConfig::paper_default(),
            mc: MonteCarlo::new(&inputs.tech, inputs.seed),
            seed: inputs.seed,
            prbs_bits: exp.prbs_bits,
            oracle,
        };
        let sweep = |design: &SrlrDesign| -> Vec<SrlrDesign> {
            inputs
                .swings
                .iter()
                .map(|&s| design.with_nominal_swing(s))
                .collect()
        };
        let proposed = screen.failures(&sweep(&inputs.proposed), trace)?;
        let straightforward = screen.failures(&sweep(&inputs.straightforward), trace)?;
        let p = screen.failures(std::slice::from_ref(&inputs.proposed), trace)?[0];
        let s = screen.failures(std::slice::from_ref(&inputs.straightforward), trace)?[0];
        let probability = |failures| ErrorProbability {
            failures,
            trials: RUNS,
        };
        Ok(Output {
            proposed,
            straightforward,
            immunity: (p, s),
            ratio: robustness_ratio(&probability(s), &probability(p)),
        })
    }

    fn check(_: &Inputs, out: &Output, golden: bool) -> Result<(), String> {
        let expected = Output {
            proposed: GOLDEN_PROPOSED.to_vec(),
            straightforward: GOLDEN_STRAIGHTFORWARD.to_vec(),
            immunity: GOLDEN_IMMUNITY,
            ratio: out.ratio,
        };
        if golden && *out != expected {
            return Err(format!(
                "fig6_mc differs from its golden result\n  golden: {expected:?}\n  got:    {out:?}"
            ));
        }
        Ok(())
    }
}

/// The Monte Carlo engine's per-batch screen, one public call at a time.
struct Screen<'a> {
    tech: &'a Technology,
    config: LinkConfig,
    mc: MonteCarlo,
    seed: u64,
    prbs_bits: usize,
    oracle: bool,
}

impl Screen<'_> {
    /// Failing dice per design over `RUNS` dice each, flattened into
    /// batches exactly as the engine flattens a sweep.
    fn failures(&self, designs: &[SrlrDesign], trace: &mut Trace) -> Result<Vec<usize>, String> {
        let total = designs.len() * RUNS;
        let mut passes = Vec::with_capacity(total);
        for first in (0..total).step_by(BATCH_WIDTH) {
            let count = BATCH_WIDTH.min(total - first);
            passes.extend(self.batch(designs, first, count, trace)?);
        }
        Ok(passes
            .chunks(RUNS)
            .map(|chunk| chunk.iter().filter(|&&ok| !ok).count())
            .collect())
    }

    /// Flattened dice `first..first + count`: sample, elaborate and
    /// certify each; run the uncertified ones in lockstep.
    fn batch(
        &self,
        designs: &[SrlrDesign],
        first: usize,
        count: usize,
        trace: &mut Trace,
    ) -> Result<Vec<bool>, String> {
        let prof = &mut trace.prof;
        let mut pass = vec![true; count];
        // (index in batch, trial, link) of each die the certificate
        // could not prove clean.
        let mut lanes: Vec<(usize, u64, SrlrLink)> = Vec::new();
        for k in 0..count {
            let i = first + k;
            let (point, trial) = (i / RUNS, (i % RUNS) as u64);
            prof.enter("tech.sample");
            let mut die = self.mc.die(trial);
            let var = die.global_variation();
            prof.exit();
            prof.enter("link.elaborate");
            let link = SrlrLink::on_die_with_mismatch(
                self.tech,
                &designs[point],
                self.config,
                &var,
                &mut die,
            );
            prof.exit();
            prof.enter("link.certify");
            let certified = link.robustly_clean();
            prof.exit();
            if !certified {
                lanes.push((k, trial, link));
            }
        }
        prof.count_n("link.cert_hits", (count - lanes.len()) as u64);
        if lanes.is_empty() {
            return Ok(pass);
        }

        prof.enter("core.load");
        let stages = lanes[0].2.chain().stages().len();
        let mut batch = DieBatch::new(stages, lanes.len());
        for (lane, (_, _, link)) in lanes.iter().enumerate() {
            batch.load_lane(
                lane,
                link.chain(),
                link.config().data_rate.bit_period(),
                link.config().demod_min_width,
            );
        }
        prof.exit();
        prof.count_n("core.lane_loads", lanes.len() as u64);

        let mut run = Lockstep::new(batch);
        for pattern in WORST_PATTERNS {
            run.shared(pattern, prof);
        }
        let mut prbs: Vec<Option<Vec<bool>>> = vec![None; lanes.len()];
        if self.prbs_bits > 0 && run.alive > 0 {
            for (lane, (_, trial, _)) in lanes.iter().enumerate() {
                if run.batch.is_alive(lane) {
                    prof.enter("link.prbs");
                    prbs[lane] =
                        Some(Prbs::prbs15_for_stream(self.seed, *trial).take_bits(self.prbs_bits));
                    prof.exit();
                    prof.count_n("link.prbs_bits", self.prbs_bits as u64);
                }
            }
            run.per_lane(&prbs, self.prbs_bits, prof);
        }
        prof.count_n("core.lane_slots", run.lane_slots);
        // Every retired lane stopped at its first corrupted bit.
        prof.count_n("core.lanes_killed", run.killed);
        prof.count_n("core.bit_errors", run.killed);

        for (lane, (k, trial, link)) in lanes.iter().enumerate() {
            pass[*k] = run.ok[lane];
            if self.oracle {
                let bits = Prbs::prbs15_for_stream(self.seed, *trial).take_bits(self.prbs_bits);
                let scalar = WORST_PATTERNS.iter().all(|p| link.transmits_cleanly(p))
                    && link.transmits_cleanly(&bits);
                if scalar != run.ok[lane] {
                    return Err(format!(
                        "die {trial} (flattened index {}): the lockstep verdict {} disagrees with scalar transmits_cleanly {scalar}",
                        first + k,
                        run.ok[lane]
                    ));
                }
            }
        }
        Ok(pass)
    }
}

/// Kill-on-first-error verdicts over one [`DieBatch`], as the link
/// crate's private lockstep harness keeps them, with the batch's tallies
/// (kept here so the traced replay records them once per batch).
struct Lockstep {
    batch: DieBatch,
    ok: Vec<bool>,
    alive: usize,
    tx: Vec<bool>,
    rx: Vec<bool>,
    /// Live lanes summed over the slots advanced.
    lane_slots: u64,
    killed: u64,
}

impl Lockstep {
    fn new(batch: DieBatch) -> Self {
        let lanes = batch.lanes();
        Self {
            batch,
            ok: vec![true; lanes],
            alive: lanes,
            tx: vec![false; lanes],
            rx: vec![false; lanes],
            lane_slots: 0,
            killed: 0,
        }
    }

    /// One pattern sent to every live lane on a freshly drained link.
    fn shared(&mut self, pattern: &[bool], prof: &mut Profiler) {
        if self.alive == 0 {
            return;
        }
        self.batch.reset_state();
        for &bit in pattern {
            self.tx.fill(bit);
            if self.step(prof) {
                break;
            }
        }
    }

    /// Per-lane stimulus of `len` bits on a freshly drained link.
    fn per_lane(&mut self, bits: &[Option<Vec<bool>>], len: usize, prof: &mut Profiler) {
        self.batch.reset_state();
        for slot in 0..len {
            for (tx, lane_bits) in self.tx.iter_mut().zip(bits) {
                if let Some(lane_bits) = lane_bits {
                    *tx = lane_bits[slot];
                }
            }
            if self.step(prof) {
                break;
            }
        }
    }

    /// One bit slot; returns whether every lane has been retired.
    fn step(&mut self, prof: &mut Profiler) -> bool {
        self.lane_slots += self.alive as u64;
        prof.enter("core.kernel");
        self.batch.advance_slot(&self.tx, &mut self.rx);
        prof.exit();
        for lane in 0..self.ok.len() {
            if self.batch.is_alive(lane) && self.rx[lane] != self.tx[lane] {
                self.ok[lane] = false;
                self.batch.kill_lane(lane);
                self.alive -= 1;
                self.killed += 1;
            }
        }
        self.alive == 0
    }
}
