//! Regenerates `BENCH_model_check.json`: the `srlr-model` checker's
//! state-space size and exact DTMC delivery probability on the 2x2 mesh
//! at the retry budgets the CI gate proves.
//!
//! The snapshot uses `srlr-telemetry`'s versioned run-report schema.
//! State counts and the exact probabilities are deterministic, so CI's
//! perf-regression job gates the snapshot with `srlr bench-diff` at
//! (near-)zero tolerance. Run with
//! `cargo bench -p srlr-bench --bench model_check`.

use srlr_model::{closed_form_delivery, verify, ModelConfig};
use srlr_telemetry::{RunReport, Value};

fn main() {
    let mut run = RunReport::new("model_check");
    for (i, budget) in [0u32, 1, 3].into_iter().enumerate() {
        let config = ModelConfig::two_by_two(1e-3, budget);
        let report = verify(&config);
        assert!(report.all_proven(), "the shipped protocol must verify");
        let closed = closed_form_delivery(&config);
        assert!((report.deliver_probability - closed).abs() < 1e-12);
        let section = format!("budget.{i:03}");
        run.section_metric(&section, "max_retries", Value::U64(u64::from(budget)));
        run.section_metric(&section, "states", Value::U64(report.total_states as u64));
        run.section_metric(
            &section,
            "transitions",
            Value::U64(report.total_transitions as u64),
        );
        run.section_metric(
            &section,
            "deliver_probability",
            Value::F64(report.deliver_probability),
        );
    }
    srlr_bench::report::emit_bench_snapshot(&run);
}
