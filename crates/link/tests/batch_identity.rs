//! The batched-engine contract, probed at the awkward boundaries: for
//! every batch width and thread count, [`McExperiment`] must return
//! exactly what a one-die-at-a-time scalar oracle built from public calls
//! returns, and its telemetry bytes must not depend on the width or the
//! thread count. Below the experiments, [`DieBatch`] itself must decide
//! every slot of every lane as the scalar link does, with and without
//! jitter, and call a jitter closure in a pinned order.

use srlr_core::{DieBatch, SrlrDesign};
use srlr_link::{LinkConfig, McExperiment, Prbs, SrlrLink};
use srlr_tech::montecarlo::{ErrorProbability, GaussianRng};
use srlr_tech::{MonteCarlo, Technology};
use srlr_telemetry::{Collector, Obs};
use srlr_units::{DataRate, TimeInterval, Voltage};

/// The Sec. III-B worst-case stress patterns every die must pass before
/// its PRBS stimulus.
const WORST_PATTERNS: [&[bool]; 3] = [
    &[true, false, true, false, true, false, true, false],
    &[true, true, true, true, false, true, true, true, true, false],
    &[true; 16],
];

/// Swings that land in the failing, marginal and healthy regions, so
/// both the certificate fast path and the DieBatch fallback are hit.
fn sweep_swings() -> Vec<Voltage> {
    [300.0, 400.0, 500.0]
        .iter()
        .map(|&mv| Voltage::from_millivolts(mv))
        .collect()
}

/// The scalar reference: die `trial` of `exp`'s seed passes iff its link,
/// built for `design` with `config`, transmits the worst-case patterns
/// and then its own PRBS stream without error.
fn oracle_passes(
    tech: &Technology,
    exp: &McExperiment<'_>,
    config: LinkConfig,
    design: &SrlrDesign,
    trial: u64,
) -> bool {
    let mut die = MonteCarlo::new(tech, exp.seed).die(trial);
    let var = die.global_variation();
    let link = SrlrLink::on_die_with_mismatch(tech, design, config, &var, &mut die);
    let prbs = Prbs::prbs15_for_stream(exp.seed, trial).take_bits(exp.prbs_bits);
    WORST_PATTERNS.iter().all(|p| link.transmits_cleanly(p)) && link.transmits_cleanly(&prbs)
}

/// [`McExperiment::error_probability`] through the scalar oracle.
fn oracle_probability(
    tech: &Technology,
    exp: &McExperiment<'_>,
    config: LinkConfig,
    design: &SrlrDesign,
) -> ErrorProbability {
    let failures = (0..exp.runs() as u64)
        .filter(|&trial| !oracle_passes(tech, exp, config, design, trial))
        .count();
    ErrorProbability {
        failures,
        trials: exp.runs(),
    }
}

/// [`McExperiment::swing_sweep`] through the scalar oracle.
fn oracle_sweep(
    tech: &Technology,
    exp: &McExperiment<'_>,
    config: LinkConfig,
    design: &SrlrDesign,
    swings: &[Voltage],
) -> Vec<(Voltage, ErrorProbability)> {
    swings
        .iter()
        .map(|&swing| {
            let design = design.with_nominal_swing(swing);
            (swing, oracle_probability(tech, exp, config, &design))
        })
        .collect()
}

#[test]
fn batched_matches_scalar_at_awkward_widths_and_thread_counts() {
    // 37 runs is a multiple of no batch width in the set, so every
    // configuration exercises a ragged final batch (and width 1 the
    // one-lane degenerate case).
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let base = McExperiment::paper_default(&tech).with_runs(37);
    let reference = oracle_sweep(
        &tech,
        &base,
        LinkConfig::paper_default(),
        &design,
        &sweep_swings(),
    );
    for width in [1usize, 4, 8, 64] {
        for threads in [1usize, 2, 8] {
            let batched = base
                .clone()
                .with_batch_width(width)
                .with_threads(Some(threads))
                .swing_sweep(&design, &sweep_swings());
            assert_eq!(
                reference, batched,
                "width {width} × threads {threads} diverged from the scalar oracle"
            );
        }
    }
}

#[test]
fn batched_matches_scalar_with_no_prbs_stimulus() {
    // prbs_bits = 0: only the deterministic worst-case patterns run, and
    // the per-lane PRBS phase must be skipped entirely.
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let mut base = McExperiment::paper_default(&tech).with_runs(30);
    base.prbs_bits = 0;
    let scalar = oracle_sweep(
        &tech,
        &base,
        LinkConfig::paper_default(),
        &design,
        &sweep_swings(),
    );
    let batched = base
        .with_batch_width(4)
        .swing_sweep(&design, &sweep_swings());
    assert_eq!(scalar, batched);
}

#[test]
fn batched_matches_scalar_on_a_single_stage_link() {
    // One stage: the launcher bookkeeping degenerates (the PM mirrors
    // the only stage, which also drives the demodulator directly).
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let config = LinkConfig {
        stages: 1,
        ..LinkConfig::paper_default()
    };
    let base = McExperiment::paper_default(&tech)
        .with_config(config)
        .with_runs(25);
    let scalar = oracle_sweep(&tech, &base, config, &design, &sweep_swings());
    let batched = base
        .with_batch_width(8)
        .swing_sweep(&design, &sweep_swings());
    assert_eq!(scalar, batched);
}

#[test]
fn telemetry_bytes_are_identical_across_widths_and_threads() {
    // The strong form of the contract: the JSONL event stream and the
    // chrome trace emitted by an observed sweep are byte-identical no
    // matter which batch width or thread count produced them.
    let tech = Technology::soi45();
    let design = SrlrDesign::paper_proposed(&tech);
    let run = |width: usize, threads: usize| {
        let exp = McExperiment::paper_default(&tech)
            .with_runs(21)
            .with_batch_width(width)
            .with_threads(Some(threads));
        let mut obs = Obs {
            collector: Collector::enabled("batch-identity"),
            ..Obs::default()
        };
        let sweep = exp.swing_sweep_observed(&design, &sweep_swings(), &mut obs);
        let mut jsonl = Vec::new();
        obs.collector
            .write_events_jsonl(&mut jsonl)
            .expect("vec write");
        (sweep, jsonl, obs.collector.chrome_trace_json())
    };
    let (sweep_ref, jsonl_ref, chrome_ref) = run(1, 1);
    let oracle = oracle_sweep(
        &tech,
        &McExperiment::paper_default(&tech).with_runs(21),
        LinkConfig::paper_default(),
        &design,
        &sweep_swings(),
    );
    assert_eq!(oracle, sweep_ref, "width 1 diverged from the scalar oracle");
    for width in [1usize, 4, 8, 64] {
        for threads in [1usize, 2, 8] {
            let (sweep, jsonl, chrome) = run(width, threads);
            assert_eq!(
                sweep_ref, sweep,
                "width {width} threads {threads}: results diverged"
            );
            assert_eq!(
                jsonl_ref, jsonl,
                "width {width} threads {threads}: JSONL diverged"
            );
            assert_eq!(
                chrome_ref, chrome,
                "width {width} threads {threads}: trace diverged"
            );
        }
    }
}

#[test]
fn error_probability_matches_scalar_at_width_one() {
    // Width 1 runs the full certificate + single-lane DieBatch machinery
    // per die — the slowest but most direct equivalence check.
    let tech = Technology::soi45();
    let design =
        SrlrDesign::paper_proposed(&tech).with_nominal_swing(Voltage::from_millivolts(400.0));
    let base = McExperiment::paper_default(&tech).with_runs(37);
    let scalar = oracle_probability(&tech, &base, LinkConfig::paper_default(), &design);
    for threads in [1usize, 2, 8] {
        let batched = base
            .clone()
            .with_batch_width(1)
            .with_threads(Some(threads))
            .error_probability(&design);
        assert_eq!(scalar, batched, "threads {threads} diverged at width 1");
    }
}

/// Links of mixed data rates, designs and dice, plus chains edited so
/// that the kernel's rare branches run: M1 deep in saturation (`x > 30`)
/// and below threshold (`x < 0`), a repeater that self-fires on an idle
/// baseline, and a disabled stage.
fn mixed_links(tech: &Technology) -> Vec<SrlrLink> {
    let proposed = SrlrDesign::paper_proposed(tech);
    let designs = [
        proposed.clone(),
        SrlrDesign::straightforward(tech),
        proposed.with_nominal_swing(Voltage::from_millivolts(350.0)),
    ];
    let mc = MonteCarlo::new(tech, 31);
    let mut links = Vec::new();
    for (i, gbps) in [3.0, 4.1, 5.5, 6.5, 8.0].into_iter().enumerate() {
        let config =
            LinkConfig::paper_default().with_data_rate(DataRate::from_gigabits_per_second(gbps));
        for (d, design) in designs.iter().enumerate() {
            let mut die = mc.die((i * designs.len() + d) as u64);
            let var = die.global_variation();
            links.push(SrlrLink::on_die_with_mismatch(
                tech, design, config, &var, &mut die,
            ));
        }
    }
    let config = LinkConfig::paper_default();
    let edited = |edit: &dyn Fn(&mut [srlr_core::SrlrStage])| {
        let mut chain =
            proposed.instantiate(tech, &srlr_tech::GlobalVariation::nominal(), config.stages);
        edit(chain.stages_mut());
        SrlrLink::from_chain(chain, config)
    };
    // A threshold far below ground puts M1 past the softplus blend.
    links.push(edited(&|stages| {
        stages[2].m1_vth = Voltage::from_volts(-1.2)
    }));
    // A threshold just above the arriving swing: subthreshold current,
    // which fires late or not at all.
    links.push(edited(&|stages| {
        stages[4].m1_vth = Voltage::from_millivolts(400.0)
    }));
    // A slow pull-down leaves residue that a low-threshold stage, with
    // its sense threshold at 1 mV, fires on in an idle slot.
    links.push(edited(&|stages| {
        stages[2].discharge_resistance = stages[2].discharge_resistance * 20.0;
        stages[3].m1_vth = Voltage::from_millivolts(20.0);
        stages[3].sense_threshold = Voltage::from_millivolts(1.0);
    }));
    links.push(edited(&|stages| stages[5].enabled = false));
    links
}

/// The per-lane stimulus: a PRBS-7 stream picked by the lane's seed.
#[expect(
    clippy::cast_possible_truncation,
    reason = "seed % 126 + 1 is at most 126"
)]
fn lane_bits(seed: u64, bits: usize) -> Vec<bool> {
    Prbs::prbs7_with_seed((seed % 126 + 1) as u32).take_bits(bits)
}

/// Whether lane `lane` of a run is retired before slot `slot`: every
/// third lane dies partway through, each at its own slot.
fn killed_by(lane: usize, slot: usize) -> bool {
    lane % 3 == 2 && slot >= 20 + 37 * lane % 150
}

const JITTER_SIGMA_PS: f64 = 3.0;

/// Runs `width` lanes (lane `i` is link `i % links.len()` with stimulus
/// and noise seed `i`) through a batch slot by slot, and checks every
/// decision of every live lane against the scalar link's, and that a
/// killed lane's decision slot is left untouched.
fn check_slot_by_slot(links: &[SrlrLink], width: usize, jittered: bool) {
    const BITS: usize = 300;
    let stages = links[0].chain().len();
    let sigma = TimeInterval::from_picoseconds(JITTER_SIGMA_PS);
    let mut batch = DieBatch::new(stages, width);
    let mut tx: Vec<Vec<bool>> = Vec::new();
    let mut expected: Vec<Vec<bool>> = Vec::new();
    let mut noise: Vec<GaussianRng> = Vec::new();
    for lane in 0..width {
        let link = &links[lane % links.len()];
        let config = link.config();
        batch.load_lane(
            lane,
            link.chain(),
            config.data_rate.bit_period(),
            config.demod_min_width,
        );
        let bits = lane_bits(lane as u64, BITS);
        let scalar = if jittered {
            link.transmit_with_jitter(&bits, sigma, lane as u64)
        } else {
            link.transmit(&bits)
        };
        expected.push(scalar.received);
        tx.push(bits);
        noise.push(GaussianRng::new(lane as u64));
    }
    let mut jitter = |lane: usize, w: TimeInterval| {
        let jittered = w.seconds() + noise[lane].sample() * sigma.seconds();
        TimeInterval::from_seconds(jittered.max(0.0))
    };
    let mut rx = vec![false; width];
    for slot in 0..BITS {
        for lane in 0..width {
            if batch.is_alive(lane) && killed_by(lane, slot) {
                batch.kill_lane(lane);
                // A decision the dead lane could never produce.
                rx[lane] = !expected[lane][slot];
            }
        }
        let before = rx.clone();
        let bits: Vec<bool> = tx.iter().map(|t| t[slot]).collect();
        if jittered {
            batch.advance_slot_jittered(&bits, &mut rx, &mut jitter);
        } else {
            batch.advance_slot(&bits, &mut rx);
        }
        for lane in 0..width {
            if batch.is_alive(lane) {
                assert_eq!(
                    rx[lane], expected[lane][slot],
                    "width {width}, jittered {jittered}: lane {lane} slot {slot}"
                );
            } else {
                assert_eq!(rx[lane], before[lane], "dead lane {lane} was written");
            }
        }
    }
}

#[test]
fn every_slot_matches_the_scalar_link_with_and_without_jitter() {
    let tech = Technology::soi45();
    let links = mixed_links(&tech);
    // The edited chains do reach their branches: the self-firing stage
    // turns idle slots into spurious ones.
    let self_firing = &links[links.len() - 2];
    let bits = lane_bits(5, 300);
    let out = self_firing.transmit(&bits);
    assert!(
        bits.iter()
            .zip(&out.received)
            .any(|(&sent, &got)| !sent && got),
        "the idle baseline never self-fired"
    );
    for width in [1usize, 3, 32] {
        for jittered in [false, true] {
            // Width 1 and 3 visit the start of the pool; rotate it so
            // the edited chains lead there too.
            let mut pool = links.clone();
            if width < 32 {
                pool.rotate_right(4);
            }
            check_slot_by_slot(&pool, width, jittered);
        }
    }
}

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn a_shared_jitter_stream_sees_the_pinned_call_order() {
    // One noise stream shared by all lanes makes every lane's result
    // depend on the order of the jitter calls across lanes: modulator
    // launches in lane order, then stage by stage, each stage's outputs
    // in lane order. The call sequence and the decisions are pinned
    // (recorded before the kernel's lanes were split into passes).
    let tech = Technology::soi45();
    let links = mixed_links(&tech);
    let width = 32;
    let stages = links[0].chain().len();
    let mut batch = DieBatch::new(stages, width);
    for lane in 0..width {
        let link = &links[lane % links.len()];
        let config = link.config();
        batch.load_lane(
            lane,
            link.chain(),
            config.data_rate.bit_period(),
            config.demod_min_width,
        );
    }
    let sigma = TimeInterval::from_picoseconds(JITTER_SIGMA_PS).seconds();
    let mut noise = GaussianRng::new(2013);
    let (mut calls, mut call_hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    let mut jitter = |lane: usize, w: TimeInterval| {
        calls += 1;
        call_hash = fnv1a(fnv1a(call_hash, lane as u64), w.seconds().to_bits());
        TimeInterval::from_seconds((w.seconds() + noise.sample() * sigma).max(0.0))
    };
    let tx: Vec<Vec<bool>> = (0..width).map(|lane| lane_bits(lane as u64, 200)).collect();
    let mut rx = vec![false; width];
    let mut decision_hash = 0xcbf2_9ce4_8422_2325u64;
    for slot in 0..200 {
        for lane in 0..width {
            if batch.is_alive(lane) && killed_by(lane, slot) {
                batch.kill_lane(lane);
            }
        }
        let bits: Vec<bool> = tx.iter().map(|t| t[slot]).collect();
        batch.advance_slot_jittered(&bits, &mut rx, &mut jitter);
        for &r in &rx {
            decision_hash = fnv1a(decision_hash, u64::from(r));
        }
    }
    assert_eq!(
        (calls, call_hash, decision_hash),
        (
            26_973,
            18_150_253_360_547_110_059,
            11_503_294_015_782_703_621
        ),
        "jitter call order or decisions moved"
    );
}
