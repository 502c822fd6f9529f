//! The token-level half of the lint: one source file's token view, its
//! suppression comments and the `float-eq` rule.
//!
//! `FileView` lexes a file once; `float-eq` here and the item walker in
//! [`crate::items`] both read that one view. Two pieces of context are
//! computed up front:
//!
//! * **Test exclusion** — items annotated `#[cfg(test)]` or `#[test]`
//!   (most importantly `mod tests { … }` blocks) are invisible to every
//!   rule: tests may compare floats exactly.
//! * **Suppressions** — `// srlr-lint: allow(rule, reason = "…")` on the
//!   line of (or the line before) a violation waves exactly that rule
//!   through. The `reason` is mandatory; a suppression without one is
//!   itself a violation (`bad-suppression`).

use crate::diagnostics::{to_u32, Diagnostic};
use crate::lexer::{lex, Token, TokenKind};
use crate::rules::RuleId;

/// The marker introducing an inline suppression comment.
const SUPPRESSION_MARKER: &str = "srlr-lint:";

/// One parsed suppression comment; covers its own line and the next.
#[derive(Debug, Clone, Copy)]
pub struct Suppression {
    /// The rule being waved through.
    pub rule: RuleId,
    /// Line of the suppression comment (it also covers the next line).
    pub line: u32,
}

/// A file's token stream plus the index of non-comment ("code") tokens.
///
/// Built once per file and shared by `float-eq` here and the item
/// walker in [`crate::items`].
pub(crate) struct FileView<'a> {
    pub(crate) path: &'a str,
    pub(crate) src: &'a str,
    pub(crate) lines: Vec<&'a str>,
    pub(crate) tokens: Vec<Token>,
    /// Raw indices of the non-comment tokens, in order.
    pub(crate) code: Vec<usize>,
    /// Raw-index flags: token lies inside a `#[cfg(test)]`/`#[test]` item.
    excluded: Vec<bool>,
}

impl<'a> FileView<'a> {
    pub(crate) fn new(path: &'a str, src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].kind.is_comment())
            .collect();
        let mut view = Self {
            path,
            src,
            lines: src.lines().collect(),
            tokens,
            code,
            excluded: Vec::new(),
        };
        view.excluded = view.compute_excluded();
        view
    }

    /// The code token at code index `ci`.
    pub(crate) fn ctok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&r| &self.tokens[r])
    }

    /// The text of the code token at code index `ci`.
    pub(crate) fn ctext(&self, ci: usize) -> Option<&'a str> {
        self.ctok(ci).map(|t| t.text(self.src))
    }

    /// Whether the code token at `ci` is inside excluded (test) code.
    pub(crate) fn is_excluded(&self, ci: usize) -> bool {
        self.code
            .get(ci)
            .is_some_and(|&r| self.excluded.get(r).copied().unwrap_or(false))
    }

    /// Builds a diagnostic anchored at the given token.
    pub(crate) fn diag(&self, tok: &Token, rule: RuleId, message: String) -> Diagnostic {
        let snippet = self
            .lines
            .get(tok.line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or("")
            .to_string();
        Diagnostic {
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
            snippet,
            width: to_u32(tok.text(self.src).chars().count().max(1)),
        }
    }

    /// Finds the code index of the close delimiter matching the open
    /// delimiter at code index `i`.
    pub(crate) fn matching_close(
        &self,
        i: usize,
        open: TokenKind,
        close: TokenKind,
    ) -> Option<usize> {
        let mut depth = 0usize;
        for ci in i..self.code.len() {
            let kind = self.ctok(ci)?.kind;
            if kind == open {
                depth += 1;
            } else if kind == close {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(ci);
                }
            }
        }
        None
    }

    /// Parses an attribute group (`#[…]` or `#![…]`) starting at code
    /// index `i`. Returns the code index of the closing `]` and whether
    /// the attribute marks test code (`#[test]` / `#[cfg(test)]`).
    pub(crate) fn parse_attr(&self, i: usize) -> Option<(usize, bool)> {
        if self.ctext(i)? != "#" {
            return None;
        }
        let mut j = i + 1;
        if self.ctext(j) == Some("!") {
            j += 1;
        }
        if self.ctok(j)?.kind != TokenKind::OpenBracket {
            return None;
        }
        let close = self.matching_close(j, TokenKind::OpenBracket, TokenKind::CloseBracket)?;
        let inner: Vec<&str> = (j + 1..close).filter_map(|k| self.ctext(k)).collect();
        let is_test = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
        Some((close, is_test))
    }

    /// Finds the code index of the last token of the item starting at `i`
    /// (skipping stacked attributes): a top-level `;`, or the closing `}`
    /// of the item's brace block.
    pub(crate) fn item_end(&self, mut i: usize) -> Option<usize> {
        while let Some((close, _)) = self.parse_attr(i) {
            i = close + 1;
        }
        let mut parens = 0i32;
        let mut brackets = 0i32;
        for ci in i..self.code.len() {
            match self.ctok(ci)?.kind {
                TokenKind::OpenParen => parens += 1,
                TokenKind::CloseParen => parens -= 1,
                TokenKind::OpenBracket => brackets += 1,
                TokenKind::CloseBracket => brackets -= 1,
                TokenKind::OpenBrace if parens == 0 && brackets == 0 => {
                    return self.matching_close(ci, TokenKind::OpenBrace, TokenKind::CloseBrace);
                }
                TokenKind::Op if parens == 0 && brackets == 0 && self.ctext(ci) == Some(";") => {
                    return Some(ci);
                }
                _ => {}
            }
        }
        None
    }

    /// Marks raw-token ranges covered by `#[cfg(test)]` / `#[test]` items
    /// (attribute through end of item, comments included).
    fn compute_excluded(&self) -> Vec<bool> {
        let mut flags = vec![false; self.tokens.len()];
        let mut i = 0usize;
        while i < self.code.len() {
            let Some((close, is_test)) = self.parse_attr(i) else {
                i += 1;
                continue;
            };
            if !is_test {
                i = close + 1;
                continue;
            }
            let end = match self.item_end(close + 1) {
                Some(e) => e,
                None => self.code.len().saturating_sub(1),
            };
            if let (Some(&raw_start), Some(&raw_end)) = (self.code.get(i), self.code.get(end)) {
                for flag in flags.iter_mut().take(raw_end + 1).skip(raw_start) {
                    *flag = true;
                }
            }
            i = end + 1;
        }
        flags
    }
}

/// Token-level analysis of one file: the (unsuppressed) `float-eq` and
/// `bad-suppression` diagnostics plus the parsed suppressions, so the
/// caller can apply the same suppressions to cross-file diagnostics
/// (raw-f64-api, crate-layering, api-lock) anchored in this file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Diagnostics from the token-level rules, not yet suppression-filtered.
    pub diags: Vec<Diagnostic>,
    /// Every well-formed suppression comment in the file.
    pub suppressions: Vec<Suppression>,
}

/// Runs the token-level rules on one file without applying suppressions.
pub(crate) fn analyze_view(view: &FileView<'_>) -> FileAnalysis {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let suppressions = parse_suppressions(view, &mut diags);
    check_float_eq(view, &mut diags);
    FileAnalysis {
        diags,
        suppressions,
    }
}

/// Drops every suppressible diagnostic covered by a suppression on its
/// own line or the line above.
pub fn apply_suppressions(diags: &mut Vec<Diagnostic>, suppressions: &[Suppression]) {
    diags.retain(|d| {
        !(d.rule.suppressible()
            && suppressions
                .iter()
                .any(|s| s.rule == d.rule && (d.line == s.line || d.line == s.line + 1)))
    });
}

/// Parses every `srlr-lint:` comment; malformed ones become
/// `bad-suppression` diagnostics.
fn parse_suppressions(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (r, tok) in view.tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment { doc: false }) {
            continue;
        }
        if view.excluded.get(r).copied().unwrap_or(false) {
            continue; // test code needs no suppressions
        }
        let text = tok.text(view.src);
        let Some(pos) = text.find(SUPPRESSION_MARKER) else {
            continue;
        };
        let rest = text
            .get(pos + SUPPRESSION_MARKER.len()..)
            .unwrap_or("")
            .trim();
        match parse_allow(rest) {
            Ok(rule) => out.push(Suppression {
                rule,
                line: tok.line,
            }),
            Err(why) => diags.push(view.diag(
                tok,
                RuleId::BadSuppression,
                format!("malformed suppression: {why}"),
            )),
        }
    }
    out
}

/// Parses the `allow(rule, reason = "…")` payload of a suppression.
fn parse_allow(rest: &str) -> Result<RuleId, String> {
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(rule, reason = \"…\")`".to_string());
    };
    let name_end = inner
        .find([',', ')'])
        .ok_or_else(|| "unclosed `allow(`".to_string())?;
    let name = inner.get(..name_end).unwrap_or("").trim();
    let rule = RuleId::from_name(name).ok_or_else(|| format!("unknown rule `{name}`"))?;
    if !rule.suppressible() {
        return Err(format!("rule `{name}` cannot be suppressed"));
    }
    let after = inner.get(name_end..).unwrap_or("");
    let Some(args) = after.strip_prefix(',') else {
        return Err(format!(
            "rule `{name}` needs a justification: `allow({name}, reason = \"…\")`"
        ));
    };
    let args = args.trim_start();
    let Some(quoted) = args
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|a| a.strip_prefix('='))
        .map(str::trim_start)
    else {
        return Err("expected `reason = \"…\"` after the rule name".to_string());
    };
    let Some(body) = quoted.strip_prefix('"') else {
        return Err("reason must be a quoted string".to_string());
    };
    let Some(close_quote) = body.rfind('"') else {
        return Err("unterminated reason string".to_string());
    };
    let reason = body.get(..close_quote).unwrap_or("");
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    if !body
        .get(close_quote + 1..)
        .unwrap_or("")
        .trim_start()
        .starts_with(')')
    {
        return Err("expected `)` after the reason".to_string());
    }
    Ok(rule)
}

/// `float-eq`: `==`/`!=` with a float literal on either side.
fn check_float_eq(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) {
    for ci in 0..view.code.len() {
        if view.is_excluded(ci) {
            continue;
        }
        let Some(&tok) = view.ctok(ci) else {
            continue;
        };
        let text = tok.text(view.src);
        if tok.kind != TokenKind::Op || (text != "==" && text != "!=") {
            continue;
        }
        let is_float = |k: usize| view.ctok(k).map(|t| t.kind) == Some(TokenKind::Float);
        // A negated literal on the right (`x == -1.0`) counts too.
        let float_operand = is_float(ci + 1)
            || (view.ctext(ci + 1) == Some("-") && is_float(ci + 2))
            || (ci > 0 && is_float(ci - 1));
        if float_operand {
            diags.push(view.diag(
                &tok,
                RuleId::FloatEq,
                format!(
                    "`{text}` against a float literal; compare with a tolerance \
                     (or suppress if exact-zero is a sentinel)"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ParsedFile;

    /// Analyzes one file and returns its diagnostics, sorted by position.
    fn run(src: &str) -> Vec<Diagnostic> {
        let (_, mut analysis) = ParsedFile::parse("test.rs".to_string(), src.to_string());
        apply_suppressions(&mut analysis.diags, &analysis.suppressions);
        analysis.diags.sort_by_key(|d| (d.line, d.col, d.rule));
        analysis.diags
    }

    fn rules(diags: &[Diagnostic]) -> Vec<RuleId> {
        diags.iter().map(|d| d.rule).collect()
    }

    // ---- rules handed to rustc and clippy -------------------------------
    //
    // The per-token rules moved to the root `[workspace.lints]` table.
    // These tests check that table on the shared fixture workspace.

    use crate::lint_table::{assert_accepted, assert_rejected, MAIN_FILE};

    #[test]
    fn catches_unwrap() {
        assert_rejected("unwrap_method", "clippy::unwrap_used");
    }

    #[test]
    fn catches_expect_and_panic_macro() {
        assert_rejected("expect_method", "clippy::expect_used");
        assert_rejected("panic", "clippy::panic");
    }

    #[test]
    fn catches_path_call_unwrap_and_expect() {
        assert_rejected("unwrap_path", "clippy::unwrap_used");
        assert_rejected("expect_path", "clippy::expect_used");
        // `Option::unwrap_or(x, 0)` sits in the `unwrap_or` look-alikes.
        assert_accepted("seeded/src/unwrap_or.rs");
    }

    #[test]
    fn catches_unreachable_todo_unimplemented() {
        assert_rejected("unreachable", "clippy::unreachable");
        assert_rejected("todo", "clippy::todo");
        assert_rejected("unimplemented", "clippy::unimplemented");
    }

    #[test]
    fn catches_hashmap_and_hashset() {
        assert_rejected("hash_map", "clippy::disallowed_types");
        assert_rejected("hash_set", "clippy::disallowed_types");
        assert_accepted("seeded/src/ordered.rs");
    }

    #[test]
    fn catches_instant() {
        assert_rejected("instant", "clippy::disallowed_types");
        assert_rejected("system_time", "clippy::disallowed_types");
    }

    #[test]
    fn catches_print_macros() {
        assert_rejected("println", "clippy::print_stdout");
        assert_rejected("eprintln", "clippy::print_stderr");
        assert_rejected("dbg", "clippy::dbg_macro");
    }

    #[test]
    fn print_is_allowed_in_binaries_and_tests() {
        // Binaries print under a reasoned `#[expect]`; test code freely.
        assert_accepted(MAIN_FILE);
        assert_accepted("seeded/src/test_code.rs");
    }

    #[test]
    fn writeln_and_print_named_items_are_not_flagged() {
        assert_accepted("seeded/src/writeln.rs");
    }

    #[test]
    fn catches_spawn() {
        assert_rejected("thread_spawn", "clippy::disallowed_methods");
        assert_rejected("scoped_spawn", "clippy::disallowed_methods");
    }

    #[test]
    fn catches_missing_doc() {
        assert_rejected("missing_doc", "missing_docs");
        // Unlike the old token scan, rustc also wants docs on an exported
        // item that a macro call expands.
        assert_rejected("macro_item", "missing_docs");
    }

    #[test]
    fn pub_crate_items_need_no_docs() {
        assert_accepted("seeded/src/pub_crate.rs");
    }

    #[test]
    fn pub_items_in_bodies_and_macro_calls_need_no_docs() {
        // Not exported, so not API: a `pub struct` in a function body and
        // a `pub fn` that a macro call expands there.
        assert_accepted("seeded/src/body_items.rs");
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        assert_accepted("seeded/src/unwrap_or.rs");
    }

    #[test]
    fn assert_with_message_is_allowed() {
        // Documented-precondition idiom: `assert!` stays legal.
        assert_accepted("seeded/src/assert_message.rs");
    }

    #[test]
    fn catches_float_eq() {
        let d = run("fn f(x: f64) -> bool { x == 1.5 }");
        assert_eq!(rules(&d), [RuleId::FloatEq]);
        let d = run("fn f(x: f64) -> bool { 0.0 != x }");
        assert_eq!(rules(&d), [RuleId::FloatEq]);
        let d = run("fn f(x: f64) -> bool { x == -1.0 }");
        assert_eq!(rules(&d), [RuleId::FloatEq]);
        assert!(run("fn f(x: i32) -> bool { x == -1 }").is_empty());
    }

    #[test]
    fn int_eq_is_fine() {
        assert!(run("fn f(x: u8) -> bool { x == 3 }").is_empty());
    }

    // ---- test-code exclusion -------------------------------------------

    #[test]
    fn cfg_test_module_is_excluded() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { assert!(half() == 0.5); }\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_fn_is_excluded_but_surrounding_code_is_not() {
        let src = "#[test]\nfn t() { x == 1.0; }\nfn lib(x: f64) -> bool { x == 1.0 }";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::FloatEq]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn cfg_test_on_semicolon_item() {
        let src = "#[cfg(test)]\nconst HALF: bool = X == 0.5;\nfn f(x: f64) -> bool { x == 1.5 }";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::FloatEq]);
        assert_eq!(d[0].line, 3);
    }

    // ---- things that must NOT be flagged -------------------------------

    #[test]
    fn raw_string_containing_unwrap_is_not_flagged() {
        // Code inside a raw string literal is data, not code.
        let src = "fn f() -> &'static str { r#\"x.unwrap() == 1.0 and \"x != 0.0\"\"# }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn comment_mentioning_unwrap_is_not_flagged() {
        assert!(run("// never call .unwrap() or test x == 1.0 here\nfn f() {}").is_empty());
    }

    // ---- suppressions ---------------------------------------------------

    #[test]
    fn suppression_same_line_and_next_line() {
        let same = "fn f(x: f64) -> bool { x == 0.0 } // srlr-lint: allow(float-eq, reason = \"test fixture\")";
        assert!(run(same).is_empty());
        let next = "// srlr-lint: allow(float-eq, reason = \"test fixture\")\nfn f(x: f64) -> bool { x == 0.0 }";
        assert!(run(next).is_empty());
    }

    #[test]
    fn suppression_only_covers_named_rule() {
        let src =
            "// srlr-lint: allow(raw-f64-api, reason = \"scratch\")\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(rules(&run(src)), [RuleId::FloatEq]);
    }

    #[test]
    fn suppression_does_not_reach_two_lines_down() {
        let src = "// srlr-lint: allow(float-eq, reason = \"near miss\")\n\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(rules(&run(src)), [RuleId::FloatEq]);
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        // A suppression missing its reason is itself a violation and does
        // not suppress.
        let src = "// srlr-lint: allow(float-eq)\nfn f(x: f64) -> bool { x == 0.0 }";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::BadSuppression, RuleId::FloatEq]);
        assert!(d[0].message.contains("justification"));
    }

    #[test]
    fn suppression_with_empty_reason_is_rejected() {
        let src =
            "// srlr-lint: allow(float-eq, reason = \"  \")\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(rules(&run(src)), [RuleId::BadSuppression, RuleId::FloatEq]);
    }

    #[test]
    fn suppression_with_unknown_rule_is_rejected() {
        let src = "// srlr-lint: allow(no-such-rule, reason = \"eh\")\nfn f() {}";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::BadSuppression]);
        assert!(d[0].message.contains("unknown rule"));
        // The rules handed to rustc and clippy are gone from the catalog.
        let src = "// srlr-lint: allow(no-panic, reason = \"moved\")\nfn f() {}";
        assert_eq!(rules(&run(src)), [RuleId::BadSuppression]);
    }

    #[test]
    fn meta_rules_cannot_be_suppressed() {
        let src = "// srlr-lint: allow(bad-suppression, reason = \"nice try\")\nfn f() {}";
        assert_eq!(rules(&run(src)), [RuleId::BadSuppression]);
    }

    // ---- nested comments ------------------------------------------------

    #[test]
    fn nested_block_comment_hides_code() {
        let src = "/* outer /* x == 1.0 */ still comment */ fn f() {}";
        assert!(run(src).is_empty());
    }
}
