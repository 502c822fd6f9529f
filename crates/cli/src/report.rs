//! Plain-text building blocks shared by the paper-artifact subcommands:
//! boxed section headers, `paper vs measured` rows and ASCII scatters.

/// A boxed section header, preceded by a blank line.
pub(crate) fn section(title: &str) -> String {
    let bar = "=".repeat(title.len() + 4);
    format!("\n{bar}\n| {title} |\n{bar}\n")
}

/// A `paper vs measured` row with the relative deviation.
pub(crate) fn paper_vs_measured(label: &str, unit: &str, paper: f64, measured: f64) -> String {
    // srlr-lint: allow(float-eq, reason = "exact-zero sentinel guard against division by zero, not a tolerance comparison")
    let dev = if paper != 0.0 {
        format!("{:+.1} %", (measured / paper - 1.0) * 100.0)
    } else {
        "n/a".to_owned()
    };
    format!(
        "{label:<44} paper {paper:>10.3} {unit:<12} measured {measured:>10.3} {unit:<12} ({dev})\n"
    )
}

/// One scatter series: label, plot symbol and `(x, y)` points.
pub(crate) type ScatterSeries<'a> = (&'a str, char, Vec<(f64, f64)>);

/// Renders a simple ASCII scatter of `(x, y)` series on linear axes
/// scaled to the data, one symbol per series.
pub(crate) fn ascii_scatter(series: &[ScatterSeries<'_>], width: usize, height: usize) -> String {
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
            #[expect(
                clippy::cast_possible_truncation,
                reason = "x lies in [x0, x1], so col is in [0, width - 1]; `as` saturates a NaN to 0"
            )]
            let col = ((x - x0) / x_span * (width - 1) as f64).round() as usize;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "y lies in [y0, y1], so row is in [0, height - 1]; `as` saturates a NaN to 0"
            )]
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
    fn scatter_handles_empty() {
        assert_eq!(ascii_scatter(&[], 10, 5), "(no data)\n");
    }
}
