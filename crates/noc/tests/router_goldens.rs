//! Bit-level goldens of the 8×8 mesh simulator across the router's
//! configuration space: XY and west-first routing, uniform (0.05) and
//! transpose (0.30) traffic, BER 0 and 1e-2, and 0 or 1 extra pipeline
//! cycles.
//!
//! Each case hashes the measured window's `NetworkStats`, the network's
//! cumulative `EnergyCounters`, its occupancy, and the completion list
//! of every cycle of a short tail run (destination and latency, in the
//! order `Network::step` returns them). Any change to route computation,
//! the adaptive tie-break, VC or switch arbitration, credit flow, the
//! fault draws or the delivery order moves a digest. The values were
//! recorded before the router step was rewritten to allocate nothing.

use srlr_noc::traffic::Pattern;
use srlr_noc::{Network, NocConfig, RoutingAlgorithm};

const WARMUP: u64 = 100;
const MEASURE: u64 = 300;
/// Cycles after the measured window whose completion lists are hashed.
const TAIL: u64 = 50;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn digest(routing: RoutingAlgorithm, pattern: Pattern, load: f64, ber: f64, extra: u64) -> u64 {
    let config = NocConfig::paper_default()
        .with_routing(routing)
        .with_extra_pipeline(extra)
        .with_ber(ber);
    let mut net = Network::new(config);
    let stats = net.run_warmup_and_measure(pattern, load, WARMUP, MEASURE);
    let mut text = format!(
        "{stats:?}|{:?}|{}|{}",
        net.counters(),
        net.occupancy(),
        net.routing_errors()
    );
    for _ in 0..TAIL {
        text.push_str(&format!("|{:?}", net.step()));
    }
    fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

/// `(routing, pattern, load, ber, extra_pipeline, digest)`.
const GOLDENS: [(RoutingAlgorithm, Pattern, f64, f64, u64, u64); 16] = [
    (
        RoutingAlgorithm::Xy,
        Pattern::UniformRandom,
        0.05,
        0.0,
        0,
        0x0729_2a4b_1dec_9048,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::UniformRandom,
        0.05,
        0.0,
        1,
        0x4920_4e2d_6e97_f4a8,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::UniformRandom,
        0.05,
        1e-2,
        0,
        0x7f13_37db_a193_40da,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::UniformRandom,
        0.05,
        1e-2,
        1,
        0xa4c1_dafa_e17f_c565,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::Transpose,
        0.30,
        0.0,
        0,
        0xb81a_f74e_03ab_7263,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::Transpose,
        0.30,
        0.0,
        1,
        0xf6ec_74ba_ad7e_0867,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::Transpose,
        0.30,
        1e-2,
        0,
        0x34b2_bcc0_6b69_8b3b,
    ),
    (
        RoutingAlgorithm::Xy,
        Pattern::Transpose,
        0.30,
        1e-2,
        1,
        0xe1d7_cda3_1fab_f30d,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::UniformRandom,
        0.05,
        0.0,
        0,
        0x1f2e_af54_a1f9_15f7,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::UniformRandom,
        0.05,
        0.0,
        1,
        0xee0f_c3d7_c250_89b0,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::UniformRandom,
        0.05,
        1e-2,
        0,
        0x2a33_3b36_82e9_fdcc,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::UniformRandom,
        0.05,
        1e-2,
        1,
        0xd94a_7b0c_e26a_0780,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::Transpose,
        0.30,
        0.0,
        0,
        0x1e98_348a_6985_7c73,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::Transpose,
        0.30,
        0.0,
        1,
        0x3f93_1365_a42d_ca0d,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::Transpose,
        0.30,
        1e-2,
        0,
        0x8079_87e0_7f5d_570b,
    ),
    (
        RoutingAlgorithm::WestFirst,
        Pattern::Transpose,
        0.30,
        1e-2,
        1,
        0xb8ca_28b7_1830_ff6d,
    ),
];

#[test]
fn mesh_runs_match_their_recorded_digests() {
    let mut mismatches = Vec::new();
    for (routing, pattern, load, ber, extra, want) in GOLDENS {
        let got = digest(routing, pattern, load, ber, extra);
        println!("({routing:?}, {pattern:?}, {load}, {ber}, {extra}) => {got:#018x}");
        if got != want {
            mismatches.push(format!(
                "{routing} {pattern:?} load {load} ber {ber} extra {extra}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}
