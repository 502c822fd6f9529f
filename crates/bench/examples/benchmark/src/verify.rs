//! `verify_noc`: `srlr_model::verify` on the 2×2 mesh with 8-flit
//! packets at retry budgets {0, 1, 3}.
//!
//! It reaches the same `noc::protocol` transition function as
//! `noc_faults`, through exhaustive breadth-first search and an exact
//! absorbing-chain solve instead of cycle simulation, so a protocol
//! change that helps one and hurts the other shows here.
//!
//! The seed sets the BER to `1e-3 · (1 + (seed % 100) / 100)`; the state
//! space does not depend on it, only the probabilities do.

use crate::harness::{Trace, Workload};
use srlr_model::{check_pair, closed_form_delivery, verify, ModelConfig};
use srlr_noc::{FaultConfig, Mesh};

const PACKET_LEN: usize = 8;
const BUDGETS: [u32; 3] = [0, 1, 3];
/// Largest allowed gap between the exact chain and the closed form.
const CLOSED_FORM_TOLERANCE: f64 = 1e-12;
/// Golden (states, transitions) per budget; the same at every seed.
const GOLDEN: [(usize, usize); 3] = [(268, 488), (920, 2688), (10144, 50600)];

pub struct Verify;

/// The verdict for one retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    max_retries: u32,
    states: usize,
    transitions: usize,
    deliver_probability: f64,
    all_proven: bool,
}

impl Workload for Verify {
    type Inputs = Vec<ModelConfig>;
    type Output = Vec<Budget>;
    const NAME: &'static str = "verify_noc";
    const DEFAULT_SEED: u64 = 0;
    const WORK_UNIT: &'static str = "states";

    fn setup(seed: u64) -> Vec<ModelConfig> {
        let ber = 1e-3 * (1.0 + (seed % 100) as f64 / 100.0);
        BUDGETS
            .iter()
            .map(|&budget| {
                ModelConfig::new(
                    Mesh::new(2, 2),
                    PACKET_LEN,
                    FaultConfig::new(ber).with_max_retries(budget),
                )
            })
            .collect()
    }

    fn work_units(_: &Vec<ModelConfig>, out: &Vec<Budget>) -> u64 {
        out.iter().map(|b| b.states as u64).sum()
    }

    fn run(configs: &Vec<ModelConfig>) -> Vec<Budget> {
        configs
            .iter()
            .map(|config| {
                let report = verify(config);
                Budget {
                    max_retries: config.fault.max_retries,
                    states: report.total_states,
                    transitions: report.total_transitions,
                    deliver_probability: report.deliver_probability,
                    all_proven: report.all_proven(),
                }
            })
            .collect()
    }

    fn replay(
        configs: &Vec<ModelConfig>,
        trace: &mut Trace,
        _oracle: bool,
    ) -> Result<Vec<Budget>, String> {
        let mut out = Vec::with_capacity(configs.len());
        for config in configs {
            let mesh = config.mesh;
            let mut pairs = Vec::new();
            for s in 0..mesh.len() {
                for d in (0..mesh.len()).filter(|&d| d != s) {
                    trace.prof.enter("model.check_pair");
                    let pair = check_pair(config, mesh.coord_of(s), mesh.coord_of(d));
                    trace.prof.exit();
                    trace.prof.count_n("model.states", pair.states as u64);
                    trace
                        .prof
                        .count_n("model.transitions", pair.transitions as u64);
                    trace.prof.count_n("model.transient", pair.transient as u64);
                    trace.peak("model.max_route_states", pair.states as f64);
                    pairs.push(pair);
                }
            }
            out.push(Budget {
                max_retries: config.fault.max_retries,
                states: pairs.iter().map(|p| p.states).sum(),
                transitions: pairs.iter().map(|p| p.transitions).sum(),
                deliver_probability: pairs.iter().map(|p| p.deliver_probability).sum::<f64>()
                    / pairs.len() as f64,
                all_proven: pairs.iter().all(|p| p.all_proven()),
            });
        }
        Ok(out)
    }

    fn check(configs: &Vec<ModelConfig>, out: &Vec<Budget>, golden: bool) -> Result<(), String> {
        for (config, budget) in configs.iter().zip(out) {
            if !budget.all_proven {
                return Err(format!("verify_noc: a proof fails at {budget:?}"));
            }
            let closed = closed_form_delivery(config);
            if (budget.deliver_probability - closed).abs() > CLOSED_FORM_TOLERANCE {
                return Err(format!(
                    "verify_noc: P(deliver) {} differs from the closed form {closed} at budget {}",
                    budget.deliver_probability, budget.max_retries
                ));
            }
        }
        let got: Vec<(usize, usize)> = out.iter().map(|b| (b.states, b.transitions)).collect();
        if golden && got != GOLDEN {
            return Err(format!(
                "verify_noc (states, transitions) per budget {got:?} differ from the golden {GOLDEN:?}"
            ));
        }
        Ok(())
    }
}
