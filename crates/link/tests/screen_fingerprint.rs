//! Bit-identity fingerprints of the per-die screen: die elaboration
//! (`SrlrDesign::instantiate*`) and the clean-link certificate
//! (`SrlrLink::robustly_clean`) over a fixed grid of seeds, chain
//! lengths, data rates, designs and swings.
//!
//! `batch_identity.rs` compares the batched engine against the scalar
//! one, but both elaborate through the same code, so a change that
//! perturbs elaboration moves both sides equally. These fingerprints pin
//! the absolute result instead: every elaborated chain's `Debug` text
//! (f64s print in shortest round-trip form, so equal text means equal
//! bits) and every certificate verdict are folded into FNV-1a hashes
//! whose values are fixed below.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers fail loudly on a broken fixture"
)]

use srlr_core::SrlrDesign;
use srlr_link::{LinkConfig, SrlrLink};
use srlr_tech::{GlobalVariation, MonteCarlo, ProcessCorner, Technology};
use srlr_units::{DataRate, Voltage};
use std::fmt::Write as _;

/// Streaming 64-bit FNV-1a; `fmt::Write` lets `write!` fold `Debug`
/// text in without building a `String`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        s.bytes().for_each(|b| self.byte(b));
        Ok(())
    }
}

/// Running fingerprints of the screen's two outputs.
struct Screen {
    chains: Fnv1a,
    verdicts: Fnv1a,
    dice: usize,
    certified: usize,
}

impl Screen {
    fn fold(&mut self, link: &SrlrLink) {
        write!(self.chains, "{:?}", link.chain()).unwrap();
        let clean = link.robustly_clean();
        self.verdicts.byte(u8::from(clean));
        self.dice += 1;
        self.certified += usize::from(clean);
    }
}

#[test]
fn elaboration_and_certificate_are_bit_identical_to_the_pinned_fingerprints() {
    let tech = Technology::soi45();
    let proposed = SrlrDesign::paper_proposed(&tech);
    let designs = [
        proposed.clone(),
        SrlrDesign::straightforward(&tech),
        proposed.with_adaptive_swing(false),
    ];
    let configs: Vec<LinkConfig> = [1usize, 2, 3, 10, 40]
        .iter()
        .flat_map(|&stages| {
            [3.0, 4.1, 5.8].map(|gbps| {
                LinkConfig {
                    stages,
                    ..LinkConfig::paper_default()
                }
                .with_data_rate(DataRate::from_gigabits_per_second(gbps))
            })
        })
        .collect();
    let points: Vec<SrlrDesign> = designs
        .iter()
        .flat_map(|d| {
            [300.0, 400.0, 460.0, 550.0]
                .map(|mv| d.with_nominal_swing(Voltage::from_millivolts(mv)))
        })
        .collect();

    let mut screen = Screen {
        chains: Fnv1a::new(),
        verdicts: Fnv1a::new(),
        dice: 0,
        certified: 0,
    };
    for seed in [2013u64, 3, 99] {
        let mc = MonteCarlo::new(&tech, seed);
        for &config in &configs {
            for design in &points {
                for trial in 0..60 {
                    let mut die = mc.die(trial);
                    let var = die.global_variation();
                    screen.fold(&SrlrLink::on_die_with_mismatch(
                        &tech, design, config, &var, &mut die,
                    ));
                }
            }
        }
    }
    // The certificate bounds residues with the simulator's headroom term
    // (`b' ≤ (b·(1 − D/V) + D)·decay`, see `certify.rs`), which proves
    // more dice than the headroom-free `(b + D)·decay` it replaced
    // (12,578 here and 12,947 overall). Every die it proves passes the
    // three stress patterns and 1,024 PRBS-15 bits under the exact
    // evaluator.
    assert_eq!((screen.dice, screen.certified), (32_400, 15_013));

    // Global variation only: the four process corners and the nominal
    // die (no local mismatch, so every stage of a chain is the same
    // device apart from its delay-cell parity).
    let corners = [
        ProcessCorner::FastFast,
        ProcessCorner::SlowSlow,
        ProcessCorner::FastSlow,
        ProcessCorner::SlowFast,
    ]
    .map(|c| c.variation(&tech));
    for var in corners.iter().chain([&GlobalVariation::nominal()]) {
        for &config in &configs {
            for design in &points {
                screen.fold(&SrlrLink::on_die(&tech, design, config, var));
            }
        }
    }

    assert_eq!((screen.dice, screen.certified), (33_300, 15_444));
    assert_eq!(
        screen.chains.0, 0x68e0_1075_09d0_dbb9,
        "elaborated chains changed: {:#018x}",
        screen.chains.0
    );
    assert_eq!(
        screen.verdicts.0, 0x3848_202e_8f0c_a825,
        "certificate verdicts changed: {:#018x}",
        screen.verdicts.0
    );
}
