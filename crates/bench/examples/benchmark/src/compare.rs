//! `--compare OLD NEW`: applies the `BENCHMARK.json` bounds to two
//! results files.
//!
//! Every pair of end-to-end metric and workload gets one label:
//!
//! * `unresolved` — the spread between repetitions (interquartile range
//!   over median, the larger of the two runs) is wider than the bound,
//!   so the runs cannot tell a change of that size from noise;
//! * `regressed` — the new median is worse by more than the bound;
//! * `improved` — it is better by more than the bound;
//! * `ok` — otherwise.
//!
//! Per-layer counts are deterministic, so at equal seeds they must
//! match exactly.

use crate::spec::Spec;
use srlr_telemetry::json::{self, Json};

/// Compares `old` with `new`; `Ok(true)` when nothing regressed and no
/// count changed.
pub fn compare(spec: &Spec, old: &str, new: &str) -> Result<bool, String> {
    let (old, new) = (read(old)?, read(new)?);
    let mut clean = true;
    println!(
        "{:<15} {:<13} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "old", "new", "change", "spread", "bound"
    );
    for name in &spec.workloads {
        let (Some(o), Some(n)) = (workload(&old, name), workload(&new, name)) else {
            println!("{name:<15} (not in both files)");
            continue;
        };
        for m in &spec.end_to_end {
            let (Some((ov, os)), Some((nv, ns))) = (
                metric(o, "end_to_end", &m.name),
                metric(n, "end_to_end", &m.name),
            ) else {
                println!("{name:<15} {:<13} (missing)", m.name);
                continue;
            };
            let change = (nv - ov) / ov;
            let worse = if m.lower_is_better { change } else { -change };
            let spread = os.max(ns);
            let verdict = if spread > m.bound {
                "unresolved"
            } else if worse > m.bound {
                "regressed"
            } else if worse < -m.bound {
                "improved"
            } else {
                "ok"
            };
            clean &= verdict != "regressed";
            println!(
                "{name:<15} {:<13} {ov:>14.6e} {nv:>14.6e} {:>+7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                m.name,
                change * 100.0,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        if o.get("seed") != n.get("seed") {
            println!("{name:<15} seeds differ; per-layer counts not compared");
            continue;
        }
        for m in spec.per_layer.iter().filter(|m| m.unit == "count") {
            let ov = metric(o, "per_layer", &m.name).map(|v| v.0);
            let nv = metric(n, "per_layer", &m.name).map(|v| v.0);
            if ov != nv {
                clean = false;
                println!("{name:<15} count {} changed: {ov:?} -> {nv:?}", m.name);
            }
        }
    }
    Ok(clean)
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

/// `(value, spread)` of metric `name` in `section` of a workload.
fn metric(workload: &Json, section: &str, name: &str) -> Option<(f64, f64)> {
    let m = workload.get(section)?.get(name)?;
    let spread = m.get("spread").and_then(Json::as_num).unwrap_or(0.0);
    Some((m.get("value")?.as_num()?, spread))
}
