//! Regenerates `BENCH_noc_faults.json`: the 8x8 mesh's delivered rate,
//! retransmissions and latency summary across injected link BERs.
//!
//! The snapshot uses `srlr-telemetry`'s versioned run-report schema. The
//! sweep is fully deterministic, so CI's perf-regression job gates it
//! with `srlr bench-diff` at (near-)zero tolerance. Run with
//! `cargo bench -p srlr-bench --bench noc_faults`.

use srlr_noc::traffic::Pattern;
use srlr_noc::{ber_sweep, FaultConfig, NocConfig};
use srlr_telemetry::{RunReport, Value};

fn main() {
    let bers = [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    let points = ber_sweep(
        NocConfig::paper_default(),
        FaultConfig::new(0.0),
        Pattern::UniformRandom,
        0.05,
        500,
        1500,
        &bers,
        None,
    );
    let mut run = RunReport::new("noc_faults");
    run.param("points", Value::U64(points.len() as u64));
    run.param("load", Value::F64(0.05));
    for (i, p) in points.iter().enumerate() {
        let section = format!("point.{i:03}");
        run.section_metric(&section, "ber", Value::F64(p.ber));
        run.section_metric(
            &section,
            "delivered_fraction",
            Value::F64(p.stats.delivered_fraction()),
        );
        run.section_metric(
            &section,
            "flits_retransmitted",
            Value::U64(p.stats.faults.flits_retransmitted),
        );
        for (name, value) in p.stats.latency_histogram.summary().metric_fields("latency") {
            run.section_metric(&section, &name, value);
        }
    }
    srlr_bench::report::emit_bench_snapshot(&run);
}
