//! `verify` explores each distinct route length once and labels the
//! verdict onto every ordered pair of that length.  That is exact only
//! because the state graph never reads a router coordinate, so every
//! pair's result must equal a stand-alone `check_pair` on that pair,
//! field for field (`{:?}` prints every `f64` exactly), and every
//! counterexample must name its own pair and walk that pair's links.

use srlr_model::{check_pair, replay_choices, verify, ModelConfig, Variant, ViolationKind};
use srlr_noc::{Coord, FaultConfig, Mesh};

const BER: f64 = 1e-3;

fn config(side: u16, packet_len: usize, budget: u32) -> ModelConfig {
    ModelConfig::new(
        Mesh::new(side, side),
        packet_len,
        FaultConfig::new(BER).with_max_retries(budget),
    )
}

/// Every pair of `verify` against `check_pair` on the same pair, in the
/// `(src, dst)` order `verify` promises.
fn assert_pairs_match_check_pair(config: &ModelConfig) {
    let report = verify(config);
    let mesh = config.mesh;
    let mut expected = Vec::new();
    for s in 0..mesh.len() {
        for d in (0..mesh.len()).filter(|&d| d != s) {
            expected.push((mesh.coord_of(s), mesh.coord_of(d)));
        }
    }
    assert_eq!(report.pairs.len(), expected.len());
    for (pair, &(src, dst)) in report.pairs.iter().zip(&expected) {
        assert_eq!((pair.src, pair.dst), (src, dst));
        assert_eq!(
            format!("{pair:?}"),
            format!("{:?}", check_pair(config, src, dst)),
            "{}x{} mesh, {} flits, budget {}: {src} -> {dst}",
            mesh.cols(),
            mesh.rows(),
            config.packet_len,
            config.fault.max_retries
        );
    }
}

/// The `(from, to)` links of the XY route `src -> dst`.
fn links(mesh: Mesh, src: Coord, dst: Coord) -> Vec<(Coord, Coord)> {
    mesh.xy_path(src, dst)
        .windows(2)
        .map(|w| (w[0], w[1]))
        .collect()
}

#[test]
fn two_by_two_pairs_equal_check_pair_at_every_packet_length() {
    for packet_len in 1..=8 {
        for budget in [0, 1, 3] {
            assert_pairs_match_check_pair(&config(2, packet_len, budget));
        }
    }
}

#[test]
fn three_by_three_pairs_equal_check_pair() {
    for budget in [0, 1] {
        assert_pairs_match_check_pair(&config(3, 4, budget));
    }
}

#[test]
fn broken_scheduler_counterexamples_name_their_own_route() {
    for (side, packet_len) in [(2, 4), (3, 2)] {
        let config = config(side, packet_len, 3).with_variant(Variant::IgnoreBusyWatermark);
        assert_pairs_match_check_pair(&config);
        let report = verify(&config);
        assert!(!report.no_overtaking);
        for pair in &report.pairs {
            assert!(!pair.violations.is_empty(), "{} -> {}", pair.src, pair.dst);
            let route = links(config.mesh, pair.src, pair.dst);
            for violation in &pair.violations {
                assert_eq!(violation.kind, ViolationKind::Overtaking);
                assert_eq!((violation.src, violation.dst), (pair.src, pair.dst));
                assert!(!violation.trace.is_empty());
                for step in &violation.trace {
                    assert_eq!(
                        (step.from, step.to),
                        route[step.link as usize],
                        "{} -> {}: step off the route",
                        pair.src,
                        pair.dst
                    );
                }
                let replayed = replay_choices(&config, pair.src, pair.dst, &violation.choices);
                assert_eq!(replayed.steps, violation.trace);
                let last = &violation.trace[violation.trace.len() - 1];
                assert!(last.arrival <= last.busy_before, "the last step overtakes");
            }
        }
    }
}

#[test]
fn explored_work_counts_each_route_length_once() {
    // The repository benchmark's configuration: 2x2 mesh, 8-flit packets.
    for (budget, explored) in [(0, (50, 92)), (1, (206, 606)), (3, (2498, 12470))] {
        let report = verify(&config(2, 8, budget));
        assert_eq!(
            (report.explored_states, report.explored_transitions),
            explored,
            "budget {budget}"
        );
        // One pair per distinct route length carries exactly the
        // explored work; the per-pair totals count every pair.
        let mut lengths = Vec::new();
        let (mut states, mut transitions) = (0, 0);
        for pair in report.pairs.iter().filter(|p| p.hops > 0) {
            if !lengths.contains(&pair.hops) {
                lengths.push(pair.hops);
                states += pair.states;
                transitions += pair.transitions;
            }
        }
        assert_eq!((states, transitions), explored, "budget {budget}");
        assert!(report.total_states > report.explored_states);
    }
}
