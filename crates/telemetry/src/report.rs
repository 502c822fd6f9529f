//! Versioned machine-readable run reports.
//!
//! CLI subcommands emit one [`RunReport`] per run (`--metrics-out`)
//! alongside their ASCII output, so downstream tooling (regression
//! dashboards, the committed snapshots that `srlr bench-diff` gates)
//! can consume results without scraping text. The schema is versioned
//! by [`RUN_REPORT_VERSION`]; consumers must reject reports with a
//! version they do not understand.

use crate::collect::Collector;
use crate::json::{write_str, Value};
use std::collections::BTreeMap;

/// Version of the run-report JSON schema.
///
/// Schema v1:
///
/// ```json
/// {
///   "srlr_run_report_version": 1,
///   "name": "<experiment>",
///   "params": { "<k>": <scalar> },
///   "metrics": { "<k>": <scalar> },
///   "sections": { "<section>": { "<k>": <scalar> } }
/// }
/// ```
pub const RUN_REPORT_VERSION: u32 = 1;

/// A versioned, machine-readable summary of one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    name: String,
    params: BTreeMap<String, Value>,
    metrics: BTreeMap<String, Value>,
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

impl RunReport {
    /// A fresh report for the named experiment.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one input parameter.
    pub fn param(&mut self, key: &str, value: Value) {
        self.params.insert(key.to_owned(), value);
    }

    /// Records one top-level result metric.
    pub fn metric(&mut self, key: &str, value: Value) {
        self.metrics.insert(key.to_owned(), value);
    }

    /// Records one metric under a named section (e.g. one sweep point).
    pub fn section_metric(&mut self, section: &str, key: &str, value: Value) {
        self.sections
            .entry(section.to_owned())
            .or_default()
            .insert(key.to_owned(), value);
    }

    /// The top-level metrics (for tests and consumers).
    pub fn metrics(&self) -> &BTreeMap<String, Value> {
        &self.metrics
    }

    /// Folds a collector's counters (as `counter.<name>`) and metrics
    /// into the top-level metrics.
    pub fn absorb_collector(&mut self, collector: &Collector) {
        for (k, &v) in collector.counters() {
            self.metrics.insert(format!("counter.{k}"), Value::U64(v));
        }
        for (k, v) in collector.metrics() {
            self.metrics.insert(k.clone(), v.clone());
        }
    }

    /// Renders the report as pretty-printed JSON (schema v1).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"srlr_run_report_version\": ");
        out.push_str(&RUN_REPORT_VERSION.to_string());
        out.push_str(",\n  \"name\": ");
        write_str(&mut out, &self.name);
        out.push_str(",\n  \"params\": ");
        write_flat_map(&mut out, &self.params, 2);
        out.push_str(",\n  \"metrics\": ");
        write_flat_map(&mut out, &self.metrics, 2);
        out.push_str(",\n  \"sections\": {");
        for (i, (section, entries)) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_str(&mut out, section);
            out.push_str(": ");
            write_flat_map(&mut out, entries, 4);
        }
        if !self.sections.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// The key of item `index` of `count` under `prefix` (a sweep point's
/// metric prefix or run-report section, e.g. `mc.point.007`): the index
/// is zero-padded to at least three digits and widens with `count`, so
/// lexicographic key order (every sink's `BTreeMap` order) matches
/// numeric order at any item count.
pub fn index_key(prefix: &str, index: usize, count: usize) -> String {
    let width = count.saturating_sub(1).to_string().len().max(3);
    format!("{prefix}.{index:0width$}")
}

/// Writes a one-entry-per-line JSON object at the given indent depth.
fn write_flat_map(out: &mut String, map: &BTreeMap<String, Value>, indent: usize) {
    if map.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push('{');
    let pad = " ".repeat(indent + 2);
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&pad);
        write_str(out, k);
        out.push_str(": ");
        v.write_json(out);
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn report_json_carries_version_and_parses() {
        let mut r = RunReport::new("fig6_monte_carlo");
        r.param("runs", Value::U64(1000));
        r.param("swing_mv", Value::F64(120.0));
        r.metric("error_probability", Value::F64(1e-3));
        r.section_metric("point.000", "swing_mv", Value::F64(80.0));
        r.section_metric("point.000", "failures", Value::U64(3));
        let doc = parse(&r.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("srlr_run_report_version").and_then(Json::as_num),
            Some(f64::from(RUN_REPORT_VERSION))
        );
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some("fig6_monte_carlo")
        );
        assert_eq!(
            doc.get("params")
                .and_then(|p| p.get("runs"))
                .and_then(Json::as_num),
            Some(1000.0)
        );
        assert_eq!(
            doc.get("sections")
                .and_then(|s| s.get("point.000"))
                .and_then(|p| p.get("failures"))
                .and_then(Json::as_num),
            Some(3.0)
        );
    }

    #[test]
    fn empty_report_is_valid() {
        let doc = parse(&RunReport::new("empty").to_json()).expect("valid JSON");
        assert!(matches!(doc.get("metrics"), Some(Json::Obj(m)) if m.is_empty()));
        assert!(matches!(doc.get("sections"), Some(Json::Obj(m)) if m.is_empty()));
    }

    #[test]
    fn index_keys_sort_lexicographically_at_any_count() {
        // Regression: a fixed `{i:03}` scheme interleaves past 999 items
        // (`mc.point.1000` < `mc.point.999` lexicographically).
        for count in [1usize, 7, 1000, 1500, 12_000] {
            let keys: Vec<String> = (0..count)
                .map(|i| index_key("mc.point", i, count))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "keys interleave at {count} items");
        }
    }

    #[test]
    fn index_key_keeps_the_three_digit_shape_below_1000_items() {
        assert_eq!(index_key("mc.point", 0, 7), "mc.point.000");
        assert_eq!(index_key("mc.point", 999, 1000), "mc.point.999");
        assert_eq!(index_key("mc.point", 0, 1500), "mc.point.0000");
        assert_eq!(index_key("mc.point", 1499, 1500), "mc.point.1499");
        assert_eq!(index_key("budget", 2, 3), "budget.002");
        assert_eq!(index_key("point", 0, 0), "point.000");
    }

    #[test]
    fn absorb_collector_prefixes_counters() {
        let mut c = Collector::enabled("t");
        c.add("retries", 4);
        c.set_metric("delivered_fraction", Value::F64(0.99));
        let mut r = RunReport::new("x");
        r.absorb_collector(&c);
        assert_eq!(r.metrics().get("counter.retries"), Some(&Value::U64(4)));
        assert_eq!(
            r.metrics().get("delivered_fraction"),
            Some(&Value::F64(0.99))
        );
    }
}
