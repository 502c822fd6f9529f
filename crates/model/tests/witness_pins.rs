//! Counterexample pins for the broken scheduler.
//!
//! The checker keeps the first few witnesses per violation kind in
//! breadth-first discovery order, so which witnesses a route reports,
//! and in what order, depend on the order states are discovered and
//! expanded. Every value here was recorded from `verify` while the
//! search still interned states in ordered maps and queued them in a
//! deque; the state store may change, but discovery order, and with it
//! every kind, choice sequence and message below, must not.

use srlr_model::{verify, ModelConfig, Variant, ViolationKind};
use srlr_noc::{FaultConfig, Mesh};

const BER: f64 = 1e-3;

/// One witness: `(kind, outcome choices from the initial state, the
/// flit, arrival cycle, link and watermark its message reports)`.
type Pin = (ViolationKind, &'static [usize], [u64; 4]);

use ViolationKind::Overtaking as O;

/// Budget 1, 2x2 mesh (4-flit packets), routes of 1 link.
const TWO_BY_TWO_SHORT_BUDGET_1: &[Pin] = &[
    (O, &[1, 0], [1, 2, 0, 3]),
    (O, &[2, 0], [1, 2, 0, 3]),
    (O, &[0, 1, 0], [2, 2, 0, 3]),
];

/// Budget 1, 2x2 mesh (4-flit packets), routes of 2 links.
const TWO_BY_TWO_LONG_BUDGET_1: &[Pin] = &[
    (O, &[1, 0], [1, 2, 0, 3]),
    (O, &[2, 0], [1, 2, 0, 3]),
    (O, &[1, 0, 0], [2, 2, 0, 2]),
];

/// Budget 1, 3x3 mesh (2-flit packets), routes of 1 link.
const THREE_BY_THREE_SHORT_BUDGET_1: &[Pin] =
    &[(O, &[1, 0], [1, 2, 0, 3]), (O, &[2, 0], [1, 2, 0, 3])];

/// Budget 1, 3x3 mesh (2-flit packets), routes of 2 to 4 links.
const THREE_BY_THREE_LONG_BUDGET_1: &[Pin] = &[
    (O, &[1, 0], [1, 2, 0, 3]),
    (O, &[2, 0], [1, 2, 0, 3]),
    (O, &[0, 0, 1, 0], [1, 2, 1, 3]),
];

/// Budget 3: the same on every route length of both meshes.
const BUDGET_3: &[Pin] = &[
    (O, &[1, 0], [1, 2, 0, 3]),
    (O, &[2, 0], [1, 2, 0, 6]),
    (O, &[2, 1], [1, 4, 0, 6]),
];

/// Checks the broken scheduler on a `side`x`side` mesh: every pair's
/// witnesses equal the pins for its route length (index `hops - 1`),
/// and the explored graph keeps its `(states, transitions)` totals.
fn check(side: u16, packet_len: usize, budget: u32, pins: &[&[Pin]], totals: (usize, usize)) {
    let config = ModelConfig::new(
        Mesh::new(side, side),
        packet_len,
        FaultConfig::new(BER).with_max_retries(budget),
    )
    .with_variant(Variant::IgnoreBusyWatermark);
    let report = verify(&config);
    let at = format!("{side}x{side}, {packet_len} flits, budget {budget}");
    assert!(
        !report.no_overtaking,
        "{at}: the broken scheduler overtakes"
    );
    assert!(report.deadlock_free && report.terminates, "{at}");
    assert_eq!(
        (report.total_states, report.total_transitions),
        totals,
        "{at}: (states, transitions)"
    );
    for pair in &report.pairs {
        let got: Vec<(ViolationKind, &[usize], &str)> = pair
            .violations
            .iter()
            .map(|v| (v.kind, &v.choices[..], v.message.as_str()))
            .collect();
        let messages: Vec<String> = pins[pair.hops - 1]
            .iter()
            .map(|&(_, _, [flit, arrival, link, watermark])| {
                format!(
                    "flit {flit} arrived at cycle {arrival} on link {link} whose watermark \
                     was already {watermark}"
                )
            })
            .collect();
        let want: Vec<(ViolationKind, &[usize], &str)> = pins[pair.hops - 1]
            .iter()
            .zip(&messages)
            .map(|(&(kind, choices, _), message)| (kind, choices, message.as_str()))
            .collect();
        assert_eq!(
            got, want,
            "{at}: witnesses of {} -> {} ({} links)",
            pair.src, pair.dst, pair.hops
        );
    }
}

#[test]
fn two_by_two_witnesses_keep_their_discovery_order() {
    let budget_1 = [TWO_BY_TWO_SHORT_BUDGET_1, TWO_BY_TWO_LONG_BUDGET_1];
    check(2, 4, 1, &budget_1, (760, 2208));
    check(2, 4, 3, &[BUDGET_3; 2], (10472, 52240));
}

#[test]
fn three_by_three_witnesses_keep_their_discovery_order() {
    let long = THREE_BY_THREE_LONG_BUDGET_1;
    let budget_1 = [THREE_BY_THREE_SHORT_BUDGET_1, long, long, long];
    check(3, 2, 1, &budget_1, (1888, 5232));
    check(3, 2, 3, &[BUDGET_3; 4], (15260, 75580));
}
