//! Top-N self-time hotspot attribution.
//!
//! A flame graph answers "what does the time distribution look like";
//! the hotspot table answers the optimization question directly: which
//! frames own the most *self* time, and what fraction of the run is
//! that. It reads parsed folded lines, so it ranks a `--profile-out`
//! file or any other stackcollapse tool's output alike.

use crate::folded::FoldedLine;
use std::fmt::Write as _;

/// One hotspot row.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// `;`-joined root-to-frame path.
    pub path: String,
    /// Self value in microseconds.
    pub self_us: u64,
    /// Share of the profile's total self time, in percent.
    pub pct: f64,
}

/// The top `n` folded lines by self value, descending; ties break by
/// path so the table is deterministic.
pub fn hotspots(lines: &[FoldedLine], n: usize) -> Vec<Hotspot> {
    let total: u64 = lines.iter().map(|l| l.value).sum();
    let mut spots: Vec<Hotspot> = lines
        .iter()
        .map(|l| Hotspot {
            pct: if total > 0 {
                l.value as f64 * 100.0 / total as f64
            } else {
                0.0
            },
            path: l.path.clone(),
            self_us: l.value,
        })
        .collect();
    spots.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.path.cmp(&b.path)));
    spots.truncate(n);
    spots
}

/// Renders hotspot rows as an aligned ASCII table (ends with a
/// newline; empty input renders a placeholder line).
pub fn render_table(rows: &[Hotspot]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("(empty profile)\n");
        return out;
    }
    let _ = writeln!(out, "{:>12}  {:>6}  FRAME", "SELF(us)", "PCT");
    for r in rows {
        let _ = writeln!(out, "{:>12}  {:>5.1}%  {}", r.self_us, r.pct, r.path);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folded::parse_folded;

    /// A root (self 3 s) with a hot child (self 2 s, one inner frame of
    /// 1 s) and a cold child (1 s), in folded microseconds.
    fn lines() -> Vec<FoldedLine> {
        parse_folded(
            "root 3000000\n\
             root;cold 1000000\n\
             root;hot 2000000\n\
             root;hot;inner 1000000\n",
        )
        .expect("fixture parses")
    }

    #[test]
    fn hotspots_rank_by_self_time() {
        let spots = hotspots(&lines(), 10);
        assert_eq!(spots[0].path, "root");
        assert_eq!(spots[0].self_us, 3_000_000);
        assert_eq!(spots[1].path, "root;hot");
        assert_eq!(spots[1].self_us, 2_000_000);
        // Total self = 7 s; root owns 3/7.
        assert!((spots[0].pct - 3.0 * 100.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn top_n_truncates() {
        assert_eq!(hotspots(&lines(), 2).len(), 2);
        assert_eq!(hotspots(&lines(), 0).len(), 0);
    }

    #[test]
    fn ties_break_by_path() {
        let spots = hotspots(&parse_folded("b 5\na 5\n").expect("parses"), 10);
        assert_eq!(spots[0].path, "a");
        assert_eq!(spots[1].path, "b");
    }

    #[test]
    fn table_renders_every_row() {
        let text = render_table(&hotspots(&lines(), 10));
        assert!(text.contains("FRAME"));
        assert!(text.contains("root;hot;inner"));
        assert_eq!(text.lines().count(), 5, "header + four frames");
        assert_eq!(render_table(&[]), "(empty profile)\n");
    }

    #[test]
    fn all_zero_profile_reports_zero_pct() {
        let spots = hotspots(&parse_folded("x 0\n").expect("parses"), 1);
        assert_eq!(spots[0].pct, 0.0);
    }
}
