//! Per-layer metrics from the traced replays.
//!
//! Each replay opens one frame per public layer call, named
//! `<crate>.<call>`, and records exact event tallies with
//! [`srlr_telemetry::Profiler::count_n`]. From one replay's profile this
//! module derives, per frame, the call count, the share of traced time
//! spent in it and its self time, plus the tallies and ratios between
//! them. Shares and counts exist on every workload (zero where a layer
//! is not used); absolute seconds and per-event costs only where the
//! layer ran.

use crate::harness::{quantile, Trace};
use std::collections::BTreeMap;

/// The layer frames the replays open. Time outside them is the
/// benchmark's own glue and counts against `trace.coverage`.
const FRAMES: [&str; 10] = [
    "tech.sample",
    "link.elaborate",
    "link.certify",
    "link.prbs",
    "core.load",
    "core.kernel",
    "noc.build",
    "noc.inject",
    "noc.step",
    "model.check_pair",
];

/// Exact event tallies the replays record.
const TALLIES: [&str; 19] = [
    "tech.gauss_samples",
    "link.cert_hits",
    "link.prbs_bits",
    "core.lane_loads",
    "core.lane_slots",
    "core.lanes_killed",
    "core.bit_errors",
    "noc.router_cycles",
    "noc.link_hops",
    "noc.retry_hops",
    "noc.nacks",
    "noc.allocations",
    "noc.buffer_writes",
    "noc.packets_injected",
    "noc.packets_delivered",
    "noc.packets_dropped",
    "model.states",
    "model.transitions",
    "model.transient",
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Interquartile range of the underlying samples as a share of the
    /// median, where the metric is a timing.
    pub spread: Option<f64>,
}

type Values = BTreeMap<String, (f64, &'static str)>;

/// The per-layer values of one traced replay that took `wall_s`.
pub fn from_trace(trace: &Trace, wall_s: f64) -> Values {
    // (calls or tally, self seconds, total seconds) per frame name.
    let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    let profile = trace.prof.snapshot();
    for node in &profile.nodes {
        let slot = by_name.entry(&node.name).or_default();
        slot.0 += node.count;
        slot.1 += node.self_s;
        slot.2 += node.total_s;
    }
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    // Summed over threads: a parallel replay's workers each count.
    let traced_s: f64 = by_name.values().map(|v| v.1).sum();

    let mut out = Values::new();
    let mut put = |name: String, value: f64, unit: &'static str| {
        out.insert(name, (value, unit));
    };
    let mut covered_s = 0.0;
    for frame in FRAMES {
        let (calls, self_s, _) = get(frame);
        covered_s += self_s;
        put(format!("{frame}_calls"), calls as f64, "count");
        put(format!("{frame}_share"), self_s / traced_s, "frac");
        if calls > 0 {
            put(format!("{frame}_s"), self_s, "s");
        }
    }
    for tally in TALLIES {
        put(tally.to_owned(), get(tally).0 as f64, "count");
    }

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |name: &str| get(name).0 as f64;
    let self_s = |name: &str| get(name).1;
    put(
        "link.cert_hit_ratio".into(),
        ratio(count("link.cert_hits"), count("link.certify")),
        "frac",
    );
    put(
        "link.screen_share".into(),
        (self_s("link.elaborate") + self_s("link.certify")) / traced_s,
        "frac",
    );
    put(
        "noc.retry_share".into(),
        ratio(count("noc.retry_hops"), count("noc.link_hops")),
        "frac",
    );
    for (name, num, den) in [
        (
            "link.elaborate_ns_per_call",
            "link.elaborate",
            "link.elaborate",
        ),
        (
            "core.kernel_ns_per_lane_slot",
            "core.kernel",
            "core.lane_slots",
        ),
        ("noc.ns_per_router_cycle", "noc.step", "noc.router_cycles"),
        ("model.ns_per_state", "model.check_pair", "model.states"),
    ] {
        if count(den) > 0.0 {
            put(name.into(), self_s(num) * 1e9 / count(den), "ns");
        }
    }
    let peak = |name: &str| trace.peaks.get(name).copied().unwrap_or(0.0);
    put(
        "model.max_route_states".into(),
        peak("model.max_route_states"),
        "count",
    );
    let point_max = peak("parallel.point_s.max");
    let point_sum = get("parallel.point").2;
    put(
        "parallel.critical_share".into(),
        ratio(point_max, point_sum),
        "frac",
    );
    if point_sum > 0.0 {
        put("parallel.point_s.max".into(), point_max, "s");
        put("parallel.point_s.sum".into(), point_sum, "s");
    }
    put("trace.rep_s".into(), wall_s, "s");
    put("trace.coverage".into(), covered_s / traced_s, "frac");
    out
}

/// Combines the traced replays: counts must repeat exactly (a
/// difference is a problem), everything else is the median. Adds the
/// metrics that need the timed phase's median repetition `wall_p50`.
pub fn summarize(
    samples: &[Values],
    threads: usize,
    wall_p50: f64,
    problems: &mut Vec<String>,
) -> BTreeMap<String, Metric> {
    let mut out = BTreeMap::new();
    let Some(first) = samples.first() else {
        return out;
    };
    for (name, &(value, unit)) in first {
        let all: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(name).map(|v| v.0))
            .collect();
        let value = if unit == "count" {
            if all.iter().any(|&v| v != value) || all.len() != samples.len() {
                problems.push(format!(
                    "count {name} differs between traced replays: {all:?}"
                ));
            }
            value
        } else {
            quantile(&all, 0.5)
        };
        out.insert(
            name.clone(),
            Metric {
                value,
                unit,
                spread: None,
            },
        );
    }
    let median = |name: &str| out.get(name).map_or(0.0, |m: &Metric| m.value);
    let efficiency = median("parallel.point_s.sum") / (threads as f64 * wall_p50);
    let overhead = median("trace.rep_s") / wall_p50 - 1.0;
    for (name, value) in [
        ("parallel.efficiency", efficiency),
        ("trace.overhead_frac", overhead),
    ] {
        out.insert(
            name.to_owned(),
            Metric {
                value,
                unit: "frac",
                spread: None,
            },
        );
    }
    out
}
