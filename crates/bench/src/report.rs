//! Plain-text report formatting shared by the bench harnesses, plus the
//! machine-readable run-report sink.

use srlr_telemetry::RunReport;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Directory the JSON run reports land in: `SRLR_REPORT_DIR` when set,
/// otherwise `target/srlr-reports` under the working directory.
pub fn report_dir() -> PathBuf {
    std::env::var_os("SRLR_REPORT_DIR")
        .map_or_else(|| PathBuf::from("target/srlr-reports"), PathBuf::from)
}

/// Writes `report` as `<report_dir>/<name>.json` alongside the ASCII
/// output and prints where it went. A failure (e.g. a read-only
/// directory) is printed, not fatal: the ASCII tables still stand on
/// their own.
pub fn emit_run_report(report: &RunReport) {
    let dir = report_dir();
    let path = dir.join(format!("{}.json", report.name()));
    let outcome = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::fs::File::create(&path)?;
        report.write_to(&mut file)
    });
    match outcome {
        Ok(()) => println!("\nrun report: {}", path.display()),
        Err(e) => println!("\nrun report NOT written to {}: {e}", path.display()),
    }
}

/// Directory committed benchmark snapshots land in:
/// `SRLR_BENCH_SNAPSHOT_DIR` when set, otherwise the workspace root
/// (two levels above this crate's manifest). A relative
/// `SRLR_BENCH_SNAPSHOT_DIR` is taken relative to the workspace root,
/// not to the bench's working directory (`cargo bench` runs benches from
/// the crate's own directory).
pub fn snapshot_dir() -> PathBuf {
    resolve_snapshot_dir(std::env::var_os("SRLR_BENCH_SNAPSHOT_DIR"))
}

/// [`snapshot_dir`] for a given `SRLR_BENCH_SNAPSHOT_DIR` value.
fn resolve_snapshot_dir(value: Option<OsString>) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match value {
        // `join` keeps an absolute `dir` as is.
        Some(dir) => root.join(dir),
        None => root,
    }
}

/// Additionally writes `report` as `BENCH_<name>.json` in
/// [`snapshot_dir`] — the committed, schema-versioned performance
/// snapshot (see `EXPERIMENTS.md` for the regeneration recipe). Like
/// [`emit_run_report`], failures are printed, not fatal.
pub fn emit_bench_snapshot(report: &RunReport) {
    let dir = snapshot_dir();
    let path = dir.join(format!("BENCH_{}.json", report.name()));
    let outcome = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::fs::File::create(&path)?;
        report.write_to(&mut file)
    });
    match outcome {
        Ok(()) => println!("bench snapshot: {}", path.display()),
        Err(e) => println!("bench snapshot NOT written to {}: {e}", path.display()),
    }
}

/// Prints a boxed section header.
pub fn section(title: &str) {
    let bar = "=".repeat(title.len() + 4);
    println!("\n{bar}\n| {title} |\n{bar}");
}

/// Prints a `paper vs measured` line with the relative deviation.
pub fn paper_vs_measured(label: &str, unit: &str, paper: f64, measured: f64) {
    // srlr-lint: allow(float-eq, reason = "exact-zero sentinel guard against division by zero, not a tolerance comparison")
    let dev = if paper != 0.0 {
        format!("{:+.1} %", (measured / paper - 1.0) * 100.0)
    } else {
        "n/a".to_owned()
    };
    println!(
        "{label:<44} paper {paper:>10.3} {unit:<12} measured {measured:>10.3} {unit:<12} ({dev})"
    );
}

/// One scatter series: label, plot symbol and `(x, y)` points.
pub type ScatterSeries<'a> = (&'a str, char, Vec<(f64, f64)>);

/// Renders a simple ASCII scatter of `(x, y)` series on log-ish axes
/// scaled to the data, one symbol per series.
pub fn ascii_scatter(series: &[ScatterSeries<'_>], width: usize, height: usize) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    let x_span = (x1 - x0).max(1e-12);
    let y_span = (y1 - y0).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (_, symbol, pts) in series {
        for &(x, y) in pts {
            let col = ((x - x0) / x_span * (width - 1) as f64).round() as usize;
            let row = ((y1 - y) / y_span * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = *symbol;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("y: {y1:.0} (top) .. {y0:.0} (bottom)\n"));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("x: {x0:.2} .. {x1:.2}\n"));
    for (label, symbol, _) in series {
        out.push_str(&format!("  {symbol} = {label}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_renders_all_series_symbols() {
        let s = ascii_scatter(
            &[
                ("ours", '*', vec![(1.0, 400.0), (6.8, 404.0)]),
                ("prior", 'o', vec![(6.0, 561.0)]),
            ],
            40,
            10,
        );
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("ours"));
        assert_eq!(s.lines().count(), 1 + 10 + 1 + 2);
    }

    #[test]
    fn snapshot_dir_resolves_relative_values_against_the_workspace_root() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(resolve_snapshot_dir(None), root);
        assert_eq!(
            resolve_snapshot_dir(Some("fresh-snapshots".into())),
            root.join("fresh-snapshots")
        );
        let absolute = std::env::temp_dir().join("snapshots");
        assert_eq!(
            resolve_snapshot_dir(Some(absolute.clone().into_os_string())),
            absolute
        );
    }

    #[test]
    fn scatter_handles_empty() {
        assert_eq!(ascii_scatter(&[], 10, 5), "(no data)\n");
    }
}
