//! Structured diff of two `RunReport` snapshots, with tolerance bands —
//! the engine behind `srlr bench-diff` and CI's gates on the committed
//! run reports.
//!
//! Both inputs are flattened to `dotted.path → scalar` maps; the diff
//! reports keys that appeared, disappeared, or changed. A numeric
//! change is within tolerance when
//!
//! ```text
//! |new − old| ≤ abs_tol + rel_tol · max(|old|, |new|)
//! ```
//!
//! so `rel_tol` bands machine-dependent throughput numbers while
//! `abs_tol = rel_tol = 0` gates deterministic metrics exactly. Keys
//! matching an ignore pattern (substring) are reported but never count
//! as regressions — CI uses this for `dice_per_second`-style timings
//! that are honest measurements yet meaningless to compare across
//! machines. Added/removed keys are regressions by design: a bench
//! that grows or loses a metric must refresh its committed snapshot in
//! the same PR.

use srlr_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tolerances and exemptions for a diff.
#[derive(Debug, Clone, Default)]
pub struct DiffOptions {
    /// Relative tolerance (fraction of the larger magnitude).
    pub rel_tol: f64,
    /// Absolute tolerance.
    pub abs_tol: f64,
    /// Substring patterns; matching keys never regress.
    pub ignore: Vec<String>,
}

/// A flattened scalar leaf.
#[derive(Debug, Clone, PartialEq)]
enum Flat {
    Num(f64),
    Text(String),
}

/// What happened to one key.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffKind {
    /// Key only in the new input.
    Added,
    /// Key only in the old input.
    Removed,
    /// Numeric change with its relative deviation.
    Changed {
        /// Old value.
        old: f64,
        /// New value.
        new: f64,
        /// `|new − old| / max(|old|, |new|)` (0 when both are 0).
        rel: f64,
    },
    /// Non-numeric change (string, or a type flip).
    TextChanged {
        /// Old rendering.
        old: String,
        /// New rendering.
        new: String,
    },
}

/// One diff finding.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted key path.
    pub key: String,
    /// The change.
    pub kind: DiffKind,
    /// Whether the change sits inside the tolerance band.
    pub within: bool,
    /// Whether an ignore pattern exempts this key.
    pub ignored: bool,
}

impl DiffEntry {
    /// Whether this entry fails the gate.
    pub fn regresses(&self) -> bool {
        !self.within && !self.ignored
    }
}

/// The full comparison result.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every differing key (identical keys are counted, not listed).
    pub entries: Vec<DiffEntry>,
    /// Keys present in both inputs.
    pub compared: usize,
}

impl DiffReport {
    /// Whether any entry fails the gate (CLI exit 1).
    pub fn regressed(&self) -> bool {
        self.entries.iter().any(DiffEntry::regresses)
    }

    /// Entries failing the gate.
    pub fn regressions(&self) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.regresses()).collect()
    }

    /// Human-readable summary, one line per differing key, ending with
    /// a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let status = if e.regresses() {
                "FAIL"
            } else if e.ignored {
                "SKIP"
            } else {
                "ok"
            };
            match &e.kind {
                DiffKind::Added => {
                    let _ = writeln!(out, "{status:>4}  {}: added in new", e.key);
                }
                DiffKind::Removed => {
                    let _ = writeln!(out, "{status:>4}  {}: removed in new", e.key);
                }
                DiffKind::Changed { old, new, rel } => {
                    let _ = writeln!(
                        out,
                        "{status:>4}  {}: {old} -> {new} (rel {:.3e})",
                        e.key, rel
                    );
                }
                DiffKind::TextChanged { old, new } => {
                    let _ = writeln!(out, "{status:>4}  {}: \"{old}\" -> \"{new}\"", e.key);
                }
            }
        }
        let verdict = if self.regressed() {
            "REGRESSED"
        } else {
            "within tolerance"
        };
        let _ = writeln!(
            out,
            "bench-diff: {} keys compared, {} differ, {} regress — {verdict}",
            self.compared,
            self.entries.len(),
            self.regressions().len()
        );
        out
    }
}

fn flatten_into(doc: &Json, prefix: &str, out: &mut BTreeMap<String, Flat>) {
    let key = |k: &str| {
        if prefix.is_empty() {
            k.to_owned()
        } else {
            format!("{prefix}.{k}")
        }
    };
    match doc {
        Json::Obj(map) => {
            for (k, v) in map {
                flatten_into(v, &key(k), out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_into(v, &key(&i.to_string()), out);
            }
        }
        Json::Num(v) => {
            out.insert(prefix.to_owned(), Flat::Num(*v));
        }
        Json::Str(s) => {
            out.insert(prefix.to_owned(), Flat::Text(s.clone()));
        }
        Json::Bool(b) => {
            out.insert(prefix.to_owned(), Flat::Text(b.to_string()));
        }
        Json::Null => {
            out.insert(prefix.to_owned(), Flat::Text("null".to_owned()));
        }
    }
}

fn flatten_doc(doc: &Json) -> BTreeMap<String, Flat> {
    let mut out = BTreeMap::new();
    flatten_into(doc, "", &mut out);
    out
}

fn diff_maps(
    old: &BTreeMap<String, Flat>,
    new: &BTreeMap<String, Flat>,
    opts: &DiffOptions,
) -> DiffReport {
    let ignored = |key: &str| opts.ignore.iter().any(|p| !p.is_empty() && key.contains(p));
    let mut report = DiffReport::default();
    for (key, ov) in old {
        match new.get(key) {
            None => report.entries.push(DiffEntry {
                key: key.clone(),
                kind: DiffKind::Removed,
                within: false,
                ignored: ignored(key),
            }),
            Some(nv) => {
                report.compared += 1;
                match (ov, nv) {
                    (Flat::Num(o), Flat::Num(n)) => {
                        if o.to_bits() != n.to_bits() {
                            let scale = o.abs().max(n.abs());
                            let dev = (n - o).abs();
                            let rel = if scale > 0.0 { dev / scale } else { 0.0 };
                            let within = dev <= opts.abs_tol + opts.rel_tol * scale;
                            report.entries.push(DiffEntry {
                                key: key.clone(),
                                kind: DiffKind::Changed {
                                    old: *o,
                                    new: *n,
                                    rel,
                                },
                                within,
                                ignored: ignored(key),
                            });
                        }
                    }
                    (o, n) => {
                        if o != n {
                            report.entries.push(DiffEntry {
                                key: key.clone(),
                                kind: DiffKind::TextChanged {
                                    old: render_flat(o),
                                    new: render_flat(n),
                                },
                                within: false,
                                ignored: ignored(key),
                            });
                        }
                    }
                }
            }
        }
    }
    for key in new.keys() {
        if !old.contains_key(key) {
            report.entries.push(DiffEntry {
                key: key.clone(),
                kind: DiffKind::Added,
                within: false,
                ignored: ignored(key),
            });
        }
    }
    report.entries.sort_by(|a, b| a.key.cmp(&b.key));
    report
}

fn render_flat(f: &Flat) -> String {
    match f {
        Flat::Num(v) => v.to_string(),
        Flat::Text(s) => s.clone(),
    }
}

/// Diffs two report/snapshot files by text.
///
/// # Errors
///
/// Returns which input failed to parse and why.
pub fn diff_reports(
    old_text: &str,
    new_text: &str,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let old = json::parse(old_text).map_err(|e| format!("old input: {e}"))?;
    let new = json::parse(new_text).map_err(|e| format!("new input: {e}"))?;
    Ok(diff_maps(&flatten_doc(&old), &flatten_doc(&new), opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(rel: f64) -> DiffOptions {
        DiffOptions {
            rel_tol: rel,
            ..DiffOptions::default()
        }
    }

    #[test]
    fn identical_documents_do_not_regress() {
        let text = "{\"a\": {\"b\": 1.5, \"c\": \"x\"}, \"n\": [1, 2]}";
        let r = diff_reports(text, text, &opts(0.0)).expect("parses");
        assert!(!r.regressed());
        assert!(r.entries.is_empty());
        assert_eq!(r.compared, 4);
    }

    #[test]
    fn out_of_band_change_regresses() {
        let r = diff_reports("{\"m\": 100}", "{\"m\": 90}", &opts(0.05)).expect("parses");
        assert!(r.regressed());
        let e = &r.entries[0];
        assert!(matches!(e.kind, DiffKind::Changed { rel, .. } if (rel - 0.1).abs() < 1e-12));
    }

    #[test]
    fn in_band_change_passes_but_is_reported() {
        let r = diff_reports("{\"m\": 100}", "{\"m\": 99}", &opts(0.05)).expect("parses");
        assert!(!r.regressed());
        assert_eq!(r.entries.len(), 1, "the change is still listed");
        assert!(r.entries[0].within);
    }

    #[test]
    fn added_and_removed_keys_regress() {
        let r = diff_reports("{\"a\": 1, \"b\": 2}", "{\"a\": 1, \"c\": 3}", &opts(1.0))
            .expect("parses");
        assert!(r.regressed());
        let kinds: Vec<&DiffKind> = r.entries.iter().map(|e| &e.kind).collect();
        assert!(kinds.contains(&&DiffKind::Removed));
        assert!(kinds.contains(&&DiffKind::Added));
    }

    #[test]
    fn ignore_patterns_exempt_keys_entirely() {
        let o = DiffOptions {
            rel_tol: 0.0,
            abs_tol: 0.0,
            ignore: vec!["dice_per_second".into(), "threads".into()],
        };
        let r = diff_reports(
            "{\"sections\": {\"x\": {\"dice_per_second\": 5000}}, \"params\": {\"available_threads\": 1}}",
            "{\"sections\": {\"x\": {\"dice_per_second\": 9000}}, \"params\": {\"available_threads\": 8}}",
            &o,
        )
        .expect("parses");
        assert!(!r.regressed(), "ignored keys never gate: {}", r.render());
        assert_eq!(r.entries.len(), 2, "but they are still reported");
        assert!(r.entries.iter().all(|e| e.ignored));
    }

    #[test]
    fn ignored_removed_keys_do_not_gate() {
        let o = DiffOptions {
            ignore: vec!["speedup".into()],
            ..DiffOptions::default()
        };
        let r = diff_reports("{\"speedup\": 26.7}", "{}", &o).expect("parses");
        assert!(!r.regressed());
    }

    #[test]
    fn zero_to_zero_is_equal_and_zero_to_small_uses_abs_tol() {
        let r = diff_reports("{\"m\": 0}", "{\"m\": 0.0}", &opts(0.0)).expect("parses");
        assert!(r.entries.is_empty(), "0 == 0.0 bitwise");
        let r = diff_reports("{\"m\": 0}", "{\"m\": 1e-12}", &opts(0.5)).expect("parses");
        assert!(r.regressed(), "rel tol alone cannot admit a change from 0");
        let o = DiffOptions {
            rel_tol: 0.0,
            abs_tol: 1e-9,
            ignore: Vec::new(),
        };
        let r = diff_reports("{\"m\": 0}", "{\"m\": 1e-12}", &o).expect("parses");
        assert!(!r.regressed(), "abs tol admits it");
    }

    #[test]
    fn type_flips_and_string_changes_regress() {
        let r = diff_reports("{\"v\": \"a\"}", "{\"v\": \"b\"}", &opts(1.0)).expect("parses");
        assert!(r.regressed());
        let r = diff_reports("{\"v\": 1}", "{\"v\": \"1\"}", &opts(1.0)).expect("parses");
        assert!(r.regressed(), "number -> string is a schema break");
        let r = diff_reports("{\"v\": true}", "{\"v\": false}", &opts(1.0)).expect("parses");
        assert!(r.regressed());
    }

    #[test]
    fn parse_errors_name_the_side() {
        assert!(diff_reports("{", "{}", &opts(0.0))
            .expect_err("bad old")
            .starts_with("old input"));
        assert!(diff_reports("{}", "[1,", &opts(0.0))
            .expect_err("bad new")
            .starts_with("new input"));
    }

    #[test]
    fn render_summarizes_the_verdict() {
        let r = diff_reports("{\"m\": 1}", "{\"m\": 2}", &opts(0.0)).expect("parses");
        let text = r.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("REGRESSED"));
        let r = diff_reports("{\"m\": 1}", "{\"m\": 1}", &opts(0.0)).expect("parses");
        assert!(r.render().contains("within tolerance"));
    }
}
