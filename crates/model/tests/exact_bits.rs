//! Bit pins for the exact delivery probability.
//!
//! Every value here was recorded from `verify` before the solver gained
//! its sub-diagonal column index and column-sorted rows, and before the
//! state search gained its per-progress interning and then its packed
//! arena store.  All are pure speedups: state ids, counts, proof flags
//! and every probability bit must stay as recorded.  Each pin holds the
//! mean delivery probability's bits, an FNV-1a fold of every route's
//! probability bits in route order, and the (states, transitions)
//! totals.
//!
//! The order pins were recorded from the sparse Gaussian elimination
//! before one backward pass replaced it.  On these configurations a
//! state's transient successors repeat and arrive out of id order, so a
//! route's bits hold only if the pass sums each successor's masses
//! before its product and adds the products by ascending id, as the
//! back-substitution did.

use srlr_model::{verify, ModelConfig};
use srlr_noc::{FaultConfig, Mesh};

const BER: f64 = 1e-3;
const BUDGETS: [u32; 3] = [0, 1, 3];

/// `(mean probability bits, per-route bits fold, states, transitions)`.
type Pin = (u64, u64, usize, usize);

/// The order pins' configurations: `(cols, rows, flits, BER, budget)`.
type OrderCase = (u16, u16, usize, f64, u32);

/// 2x2 mesh, 8-flit packets: the repository benchmark's configuration.
const TWO_BY_TWO_8: [Pin; 3] = [
    (0x3fdc_6b13_e161_0ed1, 0x4c8b_e419_7e7b_a489, 268, 488),
    (0x3fee_0b6f_6a60_b82f, 0xdd1f_2aba_1492_02d9, 920, 2688),
    (0x3fef_fcf1_0767_eee5, 0x7eb2_375d_ae3d_d8d5, 10144, 50600),
];

/// 3x3 mesh, 4-flit packets.
const THREE_BY_THREE_4: [Pin; 3] = [
    (0x3fe1_8502_71f6_b66f, 0x41cf_9224_4431_a701, 1224, 2160),
    (0x3fee_85e1_406e_4e6b, 0x01b2_2980_116e_1ed5, 6400, 18768),
    (0x3fef_fdb4_bf1f_573b, 0x9144_334b_d768_a199, 164340, 820980),
];

/// Order pins, one per configuration.
const ORDER_CASES: [OrderCase; 2] = [(2, 2, 8, 1e-2, 4), (3, 3, 4, 0.2, 2)];
const ORDER_PINS: [Pin; 2] = [
    (0x3fe2_8ee2_3666_dcdb, 0x98b3_ba28_7334_9475, 28940, 173496),
    (0x39ca_af13_5c3d_cdd0, 0x0b6c_5619_f3d1_027d, 37848, 150816),
];

fn check(cols: u16, rows: u16, packet_len: usize, ber: f64, budgets: &[u32], pins: &[Pin]) {
    assert_eq!(budgets.len(), pins.len(), "one pin per budget");
    for (&budget, &(mean_bits, fold, states, transitions)) in budgets.iter().zip(pins) {
        let config = ModelConfig::new(
            Mesh::new(cols, rows),
            packet_len,
            FaultConfig::new(ber).with_max_retries(budget),
        );
        let report = verify(&config);
        let at = format!("{cols}x{rows}, {packet_len} flits, BER {ber}, budget {budget}");
        assert!(report.all_proven(), "{at}: a proof fails");
        assert_eq!(
            (report.total_states, report.total_transitions),
            (states, transitions),
            "{at}: (states, transitions)"
        );
        assert_eq!(
            report.deliver_probability.to_bits(),
            mean_bits,
            "{at}: mean P(deliver) {} moved",
            report.deliver_probability
        );
        let got_fold = report.pairs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ p.deliver_probability.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(got_fold, fold, "{at}: a route's P(deliver) bits moved");
    }
}

#[test]
fn the_benchmark_configuration_keeps_its_probability_bits() {
    check(2, 2, 8, BER, &BUDGETS, &TWO_BY_TWO_8);
}

#[test]
fn the_three_by_three_mesh_keeps_its_probability_bits_and_goldens() {
    check(3, 3, 4, BER, &BUDGETS, &THREE_BY_THREE_4);
}

#[test]
fn repeated_and_out_of_order_successors_keep_their_probability_bits() {
    for (&(cols, rows, flits, ber, budget), pin) in ORDER_CASES.iter().zip(&ORDER_PINS) {
        check(cols, rows, flits, ber, &[budget], std::slice::from_ref(pin));
    }
}
