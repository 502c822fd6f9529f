//! The benchmark's declared contract, read from `BENCHMARK.json` at the
//! repository root: which workloads exist, which metrics a run reports
//! (with their units), the regression bound of each end-to-end metric,
//! and the default run length.

use srlr_telemetry::json::{self, Json};

/// Where the contract lives, relative to the repository root the
/// benchmark runs from.
pub const PATH: &str = "BENCHMARK.json";

/// One declared metric.
pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may worsen
    /// (end-to-end metrics only; zero for per-layer ones).
    pub bound: f64,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

/// Reads and validates [`PATH`].
pub fn load() -> Result<Spec, String> {
    let text = std::fs::read_to_string(PATH).map_err(|e| {
        format!("cannot read {PATH} ({e}); run the benchmark from the repository root")
    })?;
    let doc = json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{PATH}: `{key}` must be a list"))
    };
    let text_of = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{PATH}: an entry lacks the text field `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<SpecMetric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(SpecMetric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    lower_is_better: text_of(m, "better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_num).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("{PATH}: `run_seconds` must be a number"))?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
