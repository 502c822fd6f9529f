//! The committed-snapshot sink shared by the snapshot benches.

use srlr_telemetry::RunReport;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

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

/// Writes `report` as `BENCH_<name>.json` in [`snapshot_dir`] — the
/// committed, schema-versioned snapshot (see `EXPERIMENTS.md` for the
/// regeneration recipe) — and prints where it went. A failure is
/// printed, not fatal.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
