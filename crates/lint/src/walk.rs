//! Deterministic discovery of the workspace's library sources.
//!
//! The lint scans `src/` trees only: the umbrella crate's `<root>/src`
//! and every `<root>/crates/*/src`. Integration tests (`tests/`),
//! benches and examples are intentionally out of scope. Files are
//! returned sorted by their relative path so diagnostics are stable
//! across platforms and runs.

use std::io;
use std::path::{Path, PathBuf};

/// One discovered source file: workspace-relative path (forward slashes)
/// plus the absolute path to read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Absolute (or root-joined) path on disk.
    pub abs: PathBuf,
}

/// Finds every `.rs` file under the workspace's `src/` trees, sorted by
/// relative path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut roots: Vec<PathBuf> = Vec::new();
    let top_src = root.join("src");
    if top_src.is_dir() {
        roots.push(top_src);
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }

    let mut files = Vec::new();
    for src_root in roots {
        collect_rs(&src_root, &mut files)?;
    }
    let mut out: Vec<SourceFile> = files
        .into_iter()
        .map(|abs| SourceFile {
            rel: relative_slash_path(root, &abs),
            abs,
        })
        .collect();
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, in sorted order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders `abs` relative to `root` with forward slashes; falls back to
/// the lossy absolute path if `abs` is not under `root`.
fn relative_slash_path(root: &Path, abs: &Path) -> String {
    let rel = abs.strip_prefix(root).unwrap_or(abs);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_crates_own_sources_in_order() {
        // crates/lint/src is three levels up from this file's crate root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).unwrap();
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        assert!(rels.contains(&"crates/lint/src/walk.rs"));
        assert!(rels.contains(&"src/lib.rs"));
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "files must come back sorted");
    }

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let abs = Path::new("/ws/crates/x/src/lib.rs");
        assert_eq!(relative_slash_path(root, abs), "crates/x/src/lib.rs");
    }
}
