//! Diagnostics: what a rule violation looks like when reported.

use crate::rules::RuleId;

/// Saturating `usize → u32` for line/column/width arithmetic: the
/// workspace denies truncating `as` casts, and a 4-billion-line source
/// dimension is out of scope anyway.
pub(crate) fn to_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the workspace root, with
    /// forward slashes (stable across platforms).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-oriented explanation.
    pub message: String,
    /// The full source line, for rendering.
    pub snippet: String,
    /// Character length of the offending token (for the caret underline).
    pub width: u32,
}

impl Diagnostic {
    /// Renders the diagnostic as a rustc-style block:
    ///
    /// ```text
    /// crates/x/src/lib.rs:7:15: error[float-eq]: `==` against a float literal; …
    ///      7 |     let same = y == 1.0;
    ///        |                  ^^
    /// ```
    pub fn render(&self) -> String {
        let gutter = format!("{:>6}", self.line);
        let caret_pad: String = self
            .snippet
            .chars()
            .take(self.col.saturating_sub(1) as usize)
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        let carets = "^".repeat((self.width.max(1)) as usize);
        format!(
            "{}:{}:{}: error[{}]: {}\n{gutter} | {}\n{} | {caret_pad}{carets}\n",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.message,
            self.snippet,
            " ".repeat(gutter.len()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 15,
            rule: RuleId::FloatEq,
            message: "`==` against a float literal".into(),
            snippet: "    let same = y == 1.0;".into(),
            width: 2,
        }
    }

    #[test]
    fn render_contains_position_rule_and_caret() {
        let r = diag().render();
        assert!(r.contains("crates/x/src/lib.rs:7:15"));
        assert!(r.contains("error[float-eq]"));
        assert!(r.contains("              ^^"));
        assert!(r.contains("let same = y == 1.0;"));
    }
}
