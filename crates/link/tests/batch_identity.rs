//! The batched-engine contract, probed at the awkward boundaries: for
//! every batch width and thread count, [`McExperiment`] must return
//! exactly what a one-die-at-a-time scalar oracle built from public calls
//! returns, and its telemetry bytes must not depend on the width or the
//! thread count.

use srlr_core::SrlrDesign;
use srlr_link::{LinkConfig, McExperiment, Prbs, SrlrLink};
use srlr_tech::montecarlo::ErrorProbability;
use srlr_tech::{MonteCarlo, Technology};
use srlr_telemetry::{Collector, Obs};
use srlr_units::Voltage;

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
