//! Adversarial soundness check of the clean-link certificate at its own
//! boundary. For each die, the nominal swing is bisected down to 0.1 mV
//! between a value the certificate proves and one it does not; the
//! proven side of that flip is the die on which the certificate's bounds
//! have the least slack, so it must still transmit the stress patterns
//! and a PRBS-15 stream cleanly under the exact evaluator.

use srlr_core::SrlrDesign;
use srlr_link::{LinkConfig, Prbs, SrlrLink};
use srlr_tech::{MonteCarlo, Technology};
use srlr_units::{DataRate, Voltage};

const SEED: u64 = 41;
const DICE: u64 = 20;
/// Coarse swing grid searched for a verdict change, in millivolts.
const GRID_MV: [f64; 5] = [300.0, 400.0, 500.0, 600.0, 700.0];

/// The Sec. III-B worst-case stress patterns.
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

struct Die<'a> {
    tech: &'a Technology,
    mc: &'a MonteCarlo,
    design: &'a SrlrDesign,
    config: LinkConfig,
    trial: u64,
}

impl Die<'_> {
    fn link(&self, mv: f64) -> SrlrLink {
        let design = self.design.with_nominal_swing(Voltage::from_millivolts(mv));
        let mut die = self.mc.die(self.trial);
        let var = die.global_variation();
        SrlrLink::on_die_with_mismatch(self.tech, &design, self.config, &var, &mut die)
    }

    fn certified(&self, mv: f64) -> bool {
        self.link(mv).robustly_clean()
    }

    /// The certified swing within 0.1 mV of an uncertified one, if the
    /// verdict changes anywhere on the grid.
    fn certified_edge(&self) -> Option<f64> {
        let verdicts = GRID_MV.map(|mv| self.certified(mv));
        let i = (1..GRID_MV.len()).find(|&i| verdicts[i] != verdicts[i - 1])?;
        let (mut proven, mut unproven) = if verdicts[i] {
            (GRID_MV[i], GRID_MV[i - 1])
        } else {
            (GRID_MV[i - 1], GRID_MV[i])
        };
        while (proven - unproven).abs() > 0.1 {
            let mid = 0.5 * (proven + unproven);
            if self.certified(mid) {
                proven = mid;
            } else {
                unproven = mid;
            }
        }
        Some(proven)
    }
}

#[test]
fn dice_certified_at_the_certificate_boundary_transmit_cleanly() {
    let tech = Technology::soi45();
    let mc = MonteCarlo::new(&tech, SEED);
    let proposed = SrlrDesign::paper_proposed(&tech);
    let designs = [
        proposed.clone(),
        SrlrDesign::straightforward(&tech),
        proposed.with_adaptive_swing(false),
    ];
    let mut edges = 0;
    for design in &designs {
        for gbps in [3.0, 4.1, 5.8] {
            let config = LinkConfig::paper_default()
                .with_data_rate(DataRate::from_gigabits_per_second(gbps));
            for trial in 0..DICE {
                let die = Die {
                    tech: &tech,
                    mc: &mc,
                    design,
                    config,
                    trial,
                };
                let Some(mv) = die.certified_edge() else {
                    continue;
                };
                edges += 1;
                let link = die.link(mv);
                let prbs = Prbs::prbs15_for_stream(SEED, trial).take_bits(1024);
                assert!(
                    WORST_PATTERNS.iter().all(|p| link.transmits_cleanly(p))
                        && link.transmits_cleanly(&prbs),
                    "unsound certificate: {:?} (adaptive {}) at {gbps} Gb/s, die {trial}, {mv:.2} mV",
                    design.driver_kind,
                    design.adaptive_swing
                );
            }
        }
    }
    // The check is only as strong as the number of boundaries it finds.
    assert!(
        edges >= 100,
        "only {edges} of 180 dice changed verdict on the grid"
    );
}
