//! Folded-stack rendering and parsing.
//!
//! One line per call-tree node: the root-to-node path joined with `;`,
//! a space, and the node's **self** value as a non-negative integer —
//! the interchange format of Brendan Gregg's stackcollapse tools, which
//! speedscope opens directly and inferno turns into flame graphs.
//!
//! Values are microseconds of self time, rounded. With the
//! deterministic tick clock a profile's timings are exact multiples of
//! the tick, so folded output is byte-stable and golden-testable;
//! wall-clock profiles produce the same *lines* with machine-dependent
//! values. Lines are emitted in sorted path order (folded consumers are
//! order-insensitive; sorting keeps the artifact deterministic).

use srlr_telemetry::Profile;

/// One parsed folded-stack line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedLine {
    /// `;`-joined root-to-frame path.
    pub path: String,
    /// Self value (microseconds for this workspace's profiles).
    pub value: u64,
}

/// The folded lines of `profile`, one per node, sorted by path.
/// Count-only frames (zero self time) keep their zero-valued lines so
/// the full structure survives the round trip.
fn fold_lines(profile: &Profile) -> Vec<FoldedLine> {
    let mut lines: Vec<FoldedLine> = profile
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| FoldedLine {
            path: profile.path(i),
            value: to_micros(n.self_s),
        })
        .collect();
    lines.sort_by(|a, b| a.path.cmp(&b.path));
    lines
}

/// Renders `profile` as folded-stack text.
pub fn fold(profile: &Profile) -> String {
    let mut out = String::new();
    for line in fold_lines(profile) {
        out.push_str(&line.path);
        out.push(' ');
        out.push_str(&line.value.to_string());
        out.push('\n');
    }
    out
}

/// Parses folded-stack text (as produced by [`fold`] or any
/// stackcollapse tool): `path value` per line, blank lines ignored.
///
/// # Errors
///
/// Returns a description naming the first malformed line.
pub fn parse_folded(text: &str) -> Result<Vec<FoldedLine>, String> {
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let Some((path, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: missing value field", i + 1));
        };
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {}: `{value}` is not a non-negative integer", i + 1))?;
        if path.is_empty() {
            return Err(format!("line {}: empty frame path", i + 1));
        }
        lines.push(FoldedLine {
            path: path.to_owned(),
            value,
        });
    }
    Ok(lines)
}

/// Seconds → rounded non-negative microseconds.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the cast is reached only for finite positive values; `as` saturates beyond u64::MAX"
)]
fn to_micros(seconds: f64) -> u64 {
    let us = (seconds * 1e6).round();
    if us.is_finite() && us > 0.0 {
        us as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlr_telemetry::{Clock, Profiler};

    fn sample_profile() -> Profile {
        let mut p = Profiler::enabled(Clock::tick(0.5));
        p.enter("mc.batch"); // t=0
        p.enter("elaborate"); // t=0.5
        p.exit(); // t=1.0: elaborate self 0.5
        p.enter("kernel"); // t=1.5
        p.enter("bit_slot"); // t=2.0
        p.exit(); // t=2.5: bit_slot 0.5
        p.count("lane_kill");
        p.exit(); // t=3.0: kernel total 1.5, self 1.0
        p.exit(); // t=3.5: batch total 3.5, self 1.5
        p.snapshot()
    }

    #[test]
    fn folded_lines_carry_self_time_in_micros() {
        let lines = fold_lines(&sample_profile());
        let get = |path: &str| {
            lines
                .iter()
                .find(|l| l.path == path)
                .unwrap_or_else(|| panic!("missing {path}"))
                .value
        };
        assert_eq!(get("mc.batch"), 1_500_000);
        assert_eq!(get("mc.batch;elaborate"), 500_000);
        assert_eq!(get("mc.batch;kernel"), 1_000_000);
        assert_eq!(get("mc.batch;kernel;bit_slot"), 500_000);
        assert_eq!(get("mc.batch;kernel;lane_kill"), 0, "count-only frame");
    }

    #[test]
    fn fold_text_is_sorted_and_round_trips() {
        let text = fold(&sample_profile());
        let mut paths: Vec<&str> = text
            .lines()
            .filter_map(|l| l.rsplit_once(' ').map(|(p, _)| p))
            .collect();
        let sorted = {
            let mut s = paths.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(paths, sorted, "folded output is path-sorted");
        paths.clear();
        let parsed = parse_folded(&text).expect("own output parses");
        assert_eq!(parsed, fold_lines(&sample_profile()));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_folded("no_value_here").is_err());
        assert!(parse_folded("frame -3").is_err());
        assert!(parse_folded("frame 1.5").is_err());
        assert!(parse_folded(" 12").is_err(), "empty path");
        assert_eq!(parse_folded("\n\n").expect("blank ok"), Vec::new());
    }

    #[test]
    fn parser_accepts_spaces_in_frame_names() {
        // rsplit: only the trailing field is the value.
        let lines = parse_folded("a b;c d 42\n").expect("parses");
        assert_eq!(lines[0].path, "a b;c d");
        assert_eq!(lines[0].value, 42);
    }

    #[test]
    fn negative_and_non_finite_self_times_clamp_to_zero() {
        assert_eq!(to_micros(-1.0), 0);
        assert_eq!(to_micros(f64::NAN), 0);
        assert_eq!(to_micros(0.4e-6), 0);
        assert_eq!(to_micros(0.6e-6), 1);
    }

    #[test]
    fn empty_profile_folds_to_empty_text() {
        let p = Profiler::disabled();
        assert_eq!(fold(&p.snapshot()), "");
    }
}
