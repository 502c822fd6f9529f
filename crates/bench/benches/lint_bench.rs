//! Regenerates `BENCH_lint.json`: the deterministic counts of the
//! `srlr-lint` workspace pass (files scanned, call-graph size, declared
//! hot roots, fresh violations — which must be zero) plus its wall time.
//!
//! CI's perf-regression job gates the counts with `srlr bench-diff`; the
//! wall-time key is an honest measurement but meaningless across
//! runners, so the gate ignores it. Run with
//! `cargo bench -p srlr-bench --bench lint_bench`.

use srlr_lint::rules::ALL_RULES;
use srlr_lint::semantic::ParsedFile;
use srlr_lint::{exprs, items, semantic, walk, Config};
use srlr_telemetry::{Clock, RunReport, Value};
use std::path::PathBuf;

fn main() {
    let config = Config::new(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let clock = Clock::wall();
    let start = clock.now();
    let lint = srlr_lint::run(&config).expect("workspace lint runs");
    let wall_ms = (clock.now() - start) * 1e3;

    // Parse every workspace file the way the lint's own scan does, to
    // size the call graph.
    let parsed: Vec<ParsedFile> = walk::workspace_files(&config.root)
        .expect("walk workspace")
        .iter()
        .map(|file| {
            let src = std::fs::read_to_string(&file.abs).expect("read source");
            let rel = file.rel.replace('\\', "/");
            let tree = items::parse_items(&rel, &src);
            let fns = exprs::parse_fns(&rel, &src);
            ParsedFile {
                rel,
                src,
                tree,
                fns,
            }
        })
        .collect();
    let graph = semantic::build_call_graph(&parsed);
    let hot = semantic::load_hotpaths(&config.root).expect("committed lint-hotpaths.txt");
    let fresh = lint.fresh.len();
    assert_eq!(fresh, 0, "the committed tree must lint clean");
    assert!(!hot.roots.is_empty(), "hot roots are declared");

    let mut run = RunReport::new("lint");
    run.section_metric(
        "scan",
        "files_checked",
        Value::U64(lint.files_checked as u64),
    );
    run.section_metric("scan", "fresh_violations", Value::U64(fresh as u64));
    run.section_metric("scan", "rules", Value::U64(ALL_RULES.len() as u64));
    run.section_metric("callgraph", "nodes", Value::U64(graph.nodes().len() as u64));
    run.section_metric("callgraph", "hot_roots", Value::U64(hot.roots.len() as u64));
    run.section_metric("timing", "wall_ms", Value::F64(wall_ms));
    srlr_bench::report::emit_bench_snapshot(&run);
}
