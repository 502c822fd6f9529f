//! The rule engine: token-level analysis of one source file.
//!
//! `FileView` lexes a file once; the token rules here and the item
//! walker in [`crate::items`] both read that one view. `missing-doc` is
//! the one rule here that needs items: it checks the `pub` items the
//! walk found, so it agrees with the api-lock surface by construction.
//!
//! All rules share three pieces of context computed up front:
//!
//! * **Test exclusion** — items annotated `#[cfg(test)]` or `#[test]`
//!   (most importantly `mod tests { … }` blocks) are invisible to every
//!   rule: tests may unwrap, compare floats exactly and use `HashSet`
//!   freely, because nothing downstream consumes their iteration order.
//! * **Suppressions** — `// srlr-lint: allow(rule, reason = "…")` on the
//!   line of (or the line before) a violation waves exactly that rule
//!   through. The `reason` is mandatory; a suppression without one is
//!   itself a violation (`bad-suppression`).
//! * **`macro_rules!` bodies** — skipped by `missing-doc` (macro token
//!   templates are not items); the other rules still apply, since the
//!   expanded code runs in library context.

use crate::diagnostics::{to_u32, Diagnostic};
use crate::lexer::{lex, Token, TokenKind};
use crate::rules::RuleId;

/// Methods whose call panics on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
/// Macros that abort the process.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Macros that write straight to stdout/stderr.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
/// Keywords after which `[` opens an array/slice, not an index.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while",
];
/// The marker introducing an inline suppression comment.
const SUPPRESSION_MARKER: &str = "srlr-lint:";

/// Per-file knobs derived from the file's path by the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Enforce doc comments on public items (`srlr-tech`, `srlr-circuit`,
    /// `srlr-units`).
    pub check_missing_doc: bool,
    /// Allow `Instant`/`SystemTime` (`srlr-telemetry`'s `clock` module).
    pub allow_time: bool,
    /// Allow `spawn(…)` (the `srlr-parallel` worker pool).
    pub allow_spawn: bool,
    /// Allow the `println!` family (binaries and the bench harness).
    pub allow_print: bool,
    /// Scan for the advisory `indexing` rule.
    pub warn_indexing: bool,
}

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
/// Built once per file and shared by the token-level rule engine here
/// and the item walker in [`crate::items`].
pub(crate) struct FileView<'a> {
    pub(crate) path: &'a str,
    pub(crate) src: &'a str,
    pub(crate) lines: Vec<&'a str>,
    pub(crate) tokens: Vec<Token>,
    /// Raw indices of the non-comment tokens, in order.
    pub(crate) code: Vec<usize>,
    /// Raw-index flags: token lies inside a `#[cfg(test)]`/`#[test]` item.
    excluded: Vec<bool>,
    /// Raw-index flags: token lies inside a `macro_rules!` body.
    in_macro: Vec<bool>,
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
            in_macro: Vec::new(),
        };
        view.excluded = view.compute_excluded();
        view.in_macro = view.compute_macro_bodies();
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

    /// Whether the code token at `ci` is inside a `macro_rules!` body.
    pub(crate) fn is_in_macro(&self, ci: usize) -> bool {
        self.code
            .get(ci)
            .is_some_and(|&r| self.in_macro.get(r).copied().unwrap_or(false))
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

    /// Marks raw-token ranges inside `macro_rules! name { … }` bodies.
    fn compute_macro_bodies(&self) -> Vec<bool> {
        let mut flags = vec![false; self.tokens.len()];
        let mut i = 0usize;
        while i < self.code.len() {
            if self.ctext(i) == Some("macro_rules") && self.ctext(i + 1) == Some("!") {
                let open = i + 3; // macro_rules ! name {
                if self.ctok(open).map(|t| t.kind) == Some(TokenKind::OpenBrace) {
                    if let Some(close) =
                        self.matching_close(open, TokenKind::OpenBrace, TokenKind::CloseBrace)
                    {
                        if let (Some(&rs), Some(&re)) = (self.code.get(open), self.code.get(close))
                        {
                            for flag in flags.iter_mut().take(re + 1).skip(rs) {
                                *flag = true;
                            }
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
        flags
    }
}

/// Token-level analysis of one file: the (unsuppressed) diagnostics plus
/// the parsed suppressions, so the caller can apply the same suppressions
/// to cross-file diagnostics (raw-f64-api, crate-layering, api-lock)
/// anchored in this file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Diagnostics from the token-level rules, not yet suppression-filtered.
    pub diags: Vec<Diagnostic>,
    /// Every well-formed suppression comment in the file.
    pub suppressions: Vec<Suppression>,
}

/// Runs the token-level rules on one file without applying suppressions;
/// `missing-doc` checks `pub_items`, the walker's `(pub index, keyword)`
/// list.
pub(crate) fn analyze_view(
    view: &FileView<'_>,
    opts: AnalyzeOptions,
    pub_items: &[(usize, &str)],
) -> FileAnalysis {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let suppressions = parse_suppressions(view, &mut diags);
    scan_code_rules(view, opts, &mut diags);
    if opts.check_missing_doc {
        check_missing_doc(view, pub_items, &mut diags);
    }
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

/// Scans the code token stream for the panic, determinism, float and
/// indexing rules.
fn scan_code_rules(view: &FileView<'_>, opts: AnalyzeOptions, diags: &mut Vec<Diagnostic>) {
    for ci in 0..view.code.len() {
        if view.is_excluded(ci) {
            continue;
        }
        let Some(tok) = view.ctok(ci) else {
            continue;
        };
        let tok = *tok;
        let text = tok.text(view.src);
        match tok.kind {
            TokenKind::Ident => {
                let next_kind = view.ctok(ci + 1).map(|t| t.kind);
                let next_is_bang = view.ctext(ci + 1) == Some("!");
                let prev = if ci > 0 { view.ctext(ci - 1) } else { None };
                let prev_is_dot = prev == Some(".");
                // `x.unwrap()` and its path-call form `Option::unwrap(x)`.
                if PANIC_METHODS.contains(&text)
                    && (prev_is_dot || prev == Some("::"))
                    && next_kind == Some(TokenKind::OpenParen)
                {
                    let sep = prev.unwrap_or(".");
                    diags.push(view.diag(
                        &tok,
                        RuleId::NoPanic,
                        format!(
                            "`{sep}{text}()` can panic in library code; return a typed error, \
                             degrade gracefully, or add a justified suppression"
                        ),
                    ));
                } else if PANIC_MACROS.contains(&text) && next_is_bang && !prev_is_dot {
                    diags.push(view.diag(
                        &tok,
                        RuleId::NoPanic,
                        format!("`{text}!` aborts in library code; return a typed error instead"),
                    ));
                } else if PRINT_MACROS.contains(&text)
                    && next_is_bang
                    && !prev_is_dot
                    && !opts.allow_print
                {
                    diags.push(view.diag(
                        &tok,
                        RuleId::NoPrint,
                        format!(
                            "`{text}!` writes to the terminal from library code; return a \
                             string, take an `io::Write`, or record through the telemetry \
                             sinks"
                        ),
                    ));
                } else if text == "HashMap" || text == "HashSet" {
                    diags.push(view.diag(
                        &tok,
                        RuleId::DetMap,
                        format!(
                            "`{text}` iteration order is randomized per process; use \
                             `BTree{}` to keep results deterministic",
                            text.trim_start_matches("Hash")
                        ),
                    ));
                } else if (text == "Instant" || text == "SystemTime") && !opts.allow_time {
                    diags.push(view.diag(
                        &tok,
                        RuleId::DetTime,
                        format!(
                            "`{text}` reads the wall clock; timing belongs in \
                             `srlr-telemetry`'s `clock` module (use the `Clock` \
                             abstraction), results must not depend on it"
                        ),
                    ));
                } else if text == "spawn"
                    && next_kind == Some(TokenKind::OpenParen)
                    && !opts.allow_spawn
                {
                    diags.push(
                        view.diag(
                            &tok,
                            RuleId::DetSpawn,
                            "`spawn(…)` outside `srlr-parallel`; route concurrency through \
                         the deterministic index-ordered pool"
                                .to_string(),
                        ),
                    );
                }
            }
            TokenKind::Op if text == "==" || text == "!=" => {
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
            TokenKind::OpenBracket if opts.warn_indexing && ci > 0 => {
                let Some(prev) = view.ctok(ci - 1) else {
                    continue;
                };
                let prev_text = prev.text(view.src);
                let indexes = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev_text),
                    TokenKind::CloseParen | TokenKind::CloseBracket => true,
                    _ => false,
                };
                if indexes {
                    diags.push(
                        view.diag(
                            &tok,
                            RuleId::Indexing,
                            "indexing can panic on out-of-range; prefer `.get()` for \
                         untrusted indices"
                                .to_string(),
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Flags the walker's `pub` items that lack a doc comment.
fn check_missing_doc(
    view: &FileView<'_>,
    pub_items: &[(usize, &str)],
    diags: &mut Vec<Diagnostic>,
) {
    for &(ci, kind) in pub_items {
        let (Some(&raw_pub), Some(tok)) = (view.code.get(ci), view.ctok(ci)) else {
            continue;
        };
        if !has_doc_before(view, raw_pub) {
            diags.push(view.diag(
                tok,
                RuleId::MissingDoc,
                format!("public {kind} is missing a doc comment"),
            ));
        }
    }
}

/// Walks raw tokens backwards from `raw_pub` looking for an outer doc
/// comment (`///` or `/**`) or a `#[doc…]` attribute, crossing plain
/// comments and other attributes.
fn has_doc_before(view: &FileView<'_>, raw_pub: usize) -> bool {
    let mut r = raw_pub;
    while r > 0 {
        r -= 1;
        let Some(tok) = view.tokens.get(r) else {
            return false;
        };
        let text = tok.text(view.src);
        match tok.kind {
            TokenKind::LineComment { doc } | TokenKind::BlockComment { doc } => {
                // Inner docs (`//!`, `/*!`) document the enclosing module,
                // not the following item: keep walking.
                if doc && !text.starts_with("//!") && !text.starts_with("/*!") {
                    return true;
                }
            }
            TokenKind::CloseBracket => {
                // Possibly the tail of an attribute: find its `[`, then
                // require a preceding `#` (an optional `!` may intervene).
                let Some(open) = matching_open_bracket(view, r) else {
                    return false;
                };
                let mut before = (0..open)
                    .rev()
                    .find(|&k| view.tokens.get(k).is_some_and(|t| !t.kind.is_comment()));
                if before.is_some_and(|k| view.tokens[k].text(view.src) == "!") {
                    before = before.and_then(|k| {
                        (0..k)
                            .rev()
                            .find(|&m| view.tokens.get(m).is_some_and(|t| !t.kind.is_comment()))
                    });
                }
                let Some(hash) = before else {
                    return false;
                };
                if view.tokens.get(hash).map(|t| t.text(view.src)) != Some("#") {
                    return false;
                }
                let first_inner = (open + 1..r)
                    .filter_map(|k| view.tokens.get(k))
                    .find(|t| !t.kind.is_comment())
                    .map(|t| t.text(view.src));
                if first_inner == Some("doc") {
                    return true; // #[doc = "…"] or #[doc(hidden)]
                }
                r = hash; // keep walking above the attribute
            }
            _ => return false,
        }
    }
    false
}

/// Finds the raw index of the `[` matching the `]` at raw index `close`.
fn matching_open_bracket(view: &FileView<'_>, close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for r in (0..=close).rev() {
        match view.tokens.get(r)?.kind {
            TokenKind::CloseBracket => depth += 1,
            TokenKind::OpenBracket => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(r);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ParsedFile;

    /// Analyzes one file and returns its diagnostics, sorted by position.
    fn analyze_source(path: &str, src: &str, opts: AnalyzeOptions) -> Vec<Diagnostic> {
        let (_, mut analysis) = ParsedFile::parse(path.to_string(), src.to_string(), opts);
        apply_suppressions(&mut analysis.diags, &analysis.suppressions);
        analysis.diags.sort_by_key(|d| (d.line, d.col, d.rule));
        analysis.diags
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        analyze_source("test.rs", src, AnalyzeOptions::default())
    }

    fn run_docs(src: &str) -> Vec<Diagnostic> {
        analyze_source(
            "test.rs",
            src,
            AnalyzeOptions {
                check_missing_doc: true,
                ..AnalyzeOptions::default()
            },
        )
    }

    fn rules(diags: &[Diagnostic]) -> Vec<RuleId> {
        diags.iter().map(|d| d.rule).collect()
    }

    // ---- seeded violations, one per rule class -------------------------

    #[test]
    fn catches_unwrap() {
        let d = run("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(rules(&d), [RuleId::NoPanic]);
        assert!(d[0].message.contains(".unwrap()"));
    }

    #[test]
    fn catches_expect_and_panic_macro() {
        let d = run("fn f() { g().expect(\"boom\"); panic!(\"no\"); }");
        assert_eq!(rules(&d), [RuleId::NoPanic, RuleId::NoPanic]);
    }

    #[test]
    fn catches_path_call_unwrap_and_expect() {
        let d = run("fn f(x: Option<u8>) -> u8 { Option::unwrap(x) }");
        assert_eq!(rules(&d), [RuleId::NoPanic]);
        assert!(d[0].message.contains("`::unwrap()`"), "{}", d[0].message);
        let d = run("fn f(r: Result<u8, ()>) -> u8 { Result::expect(r, \"boom\") }");
        assert_eq!(rules(&d), [RuleId::NoPanic]);
        assert!(run("fn f(x: Option<u8>) -> u8 { Option::unwrap_or(x, 0) }").is_empty());
    }

    #[test]
    fn catches_unreachable_todo_unimplemented() {
        let d = run("fn f() { unreachable!() } fn g() { todo!() } fn h() { unimplemented!() }");
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.rule == RuleId::NoPanic));
    }

    #[test]
    fn catches_hashmap_and_hashset() {
        let d = run("use std::collections::HashMap;\nfn f() { let s = HashSet::new(); }");
        assert_eq!(rules(&d), [RuleId::DetMap, RuleId::DetMap]);
        assert!(d[0].message.contains("BTreeMap"));
        assert!(d[1].message.contains("BTreeSet"));
    }

    #[test]
    fn catches_instant() {
        let d = run("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(rules(&d), [RuleId::DetTime]);
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

    #[test]
    fn catches_print_macros() {
        let d = run("fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(1); }");
        assert_eq!(
            rules(&d),
            [RuleId::NoPrint, RuleId::NoPrint, RuleId::NoPrint]
        );
        assert!(d[0].message.contains("println!"));
    }

    #[test]
    fn print_is_allowed_in_binaries_and_tests() {
        let opts = AnalyzeOptions {
            allow_print: true,
            ..AnalyzeOptions::default()
        };
        assert!(analyze_source("main.rs", "fn main() { println!(\"ok\"); }", opts).is_empty());
        let test_code =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"dbg\"); }\n}";
        assert!(run(test_code).is_empty());
    }

    #[test]
    fn writeln_and_print_named_items_are_not_flagged() {
        // `writeln!` to an explicit writer is the sanctioned pattern, and
        // an identifier merely named `print` is not the macro.
        assert!(
            run("fn f(w: &mut impl std::io::Write) { let _ = writeln!(w, \"x\"); }").is_empty()
        );
        assert!(run("fn f(print: u8) -> u8 { print }").is_empty());
    }

    #[test]
    fn catches_spawn() {
        let d = run("fn f() { std::thread::spawn(|| {}); }");
        assert_eq!(rules(&d), [RuleId::DetSpawn]);
    }

    #[test]
    fn catches_missing_doc() {
        let d = run_docs("pub struct Foo;\n/// Documented.\npub struct Bar;");
        assert_eq!(rules(&d), [RuleId::MissingDoc]);
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("struct"));
    }

    // ---- per-path opt-outs ---------------------------------------------

    #[test]
    fn allow_time_and_spawn_flags() {
        let opts = AnalyzeOptions {
            allow_time: true,
            allow_spawn: true,
            ..AnalyzeOptions::default()
        };
        let d = analyze_source(
            "test.rs",
            "fn f() { Instant::now(); std::thread::spawn(|| {}); }",
            opts,
        );
        assert!(d.is_empty());
    }

    // ---- test-code exclusion -------------------------------------------

    #[test]
    fn cfg_test_module_is_excluded() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); let m = std::collections::HashMap::new(); }\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_fn_is_excluded_but_surrounding_code_is_not() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib(x: Option<u8>) { x.unwrap(); }";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::NoPanic]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn cfg_test_on_semicolon_item() {
        let src =
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn f(x: Option<u8>) { x.expect(\"x\"); }";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::NoPanic]);
    }

    // ---- things that must NOT be flagged -------------------------------

    #[test]
    fn raw_string_containing_unwrap_is_not_flagged() {
        // `unwrap()` inside a raw string literal is data, not code.
        let src = "fn f() -> &'static str { r#\"x.unwrap() and panic!(\"no\")\"# }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn comment_mentioning_unwrap_is_not_flagged() {
        assert!(run("// never call .unwrap() here\nfn f() {}").is_empty());
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        assert!(run("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
    }

    #[test]
    fn assert_with_message_is_allowed() {
        // Documented-precondition idiom: `assert!`/`assert_eq!` stay legal.
        assert!(run("fn f(n: usize) { assert!(n > 0, \"n must be positive\"); }").is_empty());
    }

    // ---- suppressions ---------------------------------------------------

    #[test]
    fn suppression_same_line_and_next_line() {
        let same = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // srlr-lint: allow(no-panic, reason = \"test fixture\")";
        assert!(run(same).is_empty());
        let next = "// srlr-lint: allow(no-panic, reason = \"test fixture\")\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(run(next).is_empty());
    }

    #[test]
    fn suppression_only_covers_named_rule() {
        let src =
            "// srlr-lint: allow(det-map, reason = \"scratch\")\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules(&run(src)), [RuleId::NoPanic]);
    }

    #[test]
    fn suppression_does_not_reach_two_lines_down() {
        let src = "// srlr-lint: allow(no-panic, reason = \"near miss\")\n\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules(&run(src)), [RuleId::NoPanic]);
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        // A suppression missing its reason is itself a violation and does
        // not suppress.
        let src = "// srlr-lint: allow(no-panic)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::BadSuppression, RuleId::NoPanic]);
        assert!(d[0].message.contains("justification"));
    }

    #[test]
    fn suppression_with_empty_reason_is_rejected() {
        let src = "// srlr-lint: allow(no-panic, reason = \"  \")\nfn f() { panic!(\"x\") }";
        assert_eq!(rules(&run(src)), [RuleId::BadSuppression, RuleId::NoPanic]);
    }

    #[test]
    fn suppression_with_unknown_rule_is_rejected() {
        let src = "// srlr-lint: allow(no-such-rule, reason = \"eh\")\nfn f() {}";
        let d = run(src);
        assert_eq!(rules(&d), [RuleId::BadSuppression]);
        assert!(d[0].message.contains("unknown rule"));
    }

    #[test]
    fn meta_rules_cannot_be_suppressed() {
        let src = "// srlr-lint: allow(bad-suppression, reason = \"nice try\")\nfn f() {}";
        assert_eq!(rules(&run(src)), [RuleId::BadSuppression]);
    }

    // ---- nested comments ------------------------------------------------

    #[test]
    fn nested_block_comment_hides_code() {
        let src = "/* outer /* x.unwrap() */ still comment */ fn f() {}";
        assert!(run(src).is_empty());
    }

    // ---- missing-doc details -------------------------------------------

    #[test]
    fn doc_attribute_counts_as_documentation() {
        assert!(run_docs("#[doc = \"Documented.\"]\npub fn f() {}").is_empty());
    }

    #[test]
    fn derive_between_doc_and_item_is_crossed() {
        let src = "/// Documented.\n#[derive(Debug, Clone)]\npub struct Foo;";
        assert!(run_docs(src).is_empty());
    }

    #[test]
    fn module_inner_doc_does_not_document_first_item() {
        let src = "//! Module docs.\n\npub struct Foo;";
        assert_eq!(rules(&run_docs(src)), [RuleId::MissingDoc]);
    }

    #[test]
    fn pub_use_and_pub_fields_need_no_docs() {
        let src = "/// S.\npub struct S {\n    pub x: f64,\n}\npub use core::fmt;";
        assert!(run_docs(src).is_empty());
    }

    #[test]
    fn pub_crate_items_need_no_docs() {
        let src = "pub(crate) fn helper() {}\npub(super) struct S;\npub(in crate::a) fn g() {}";
        assert!(run_docs(src).is_empty());
    }

    #[test]
    fn pub_const_and_pub_const_fn() {
        let d = run_docs("pub const X: u8 = 1;\npub const fn f() {}");
        assert_eq!(rules(&d), [RuleId::MissingDoc, RuleId::MissingDoc]);
        assert!(d[0].message.contains("const"));
        assert!(d[1].message.contains("fn"));
    }

    #[test]
    fn pub_items_in_bodies_and_macro_calls_need_no_docs() {
        // Not API, as for rustc's `missing_docs`: the item walker never
        // reports them.
        let src = "/// F.\npub fn f() { pub struct Local; }\nm! { pub fn g() {} }";
        assert!(run_docs(src).is_empty());
    }

    #[test]
    fn macro_rules_body_is_skipped_by_missing_doc() {
        let src = "/// Documented macro.\n#[macro_export]\nmacro_rules! m {\n    () => { pub fn hidden() {} };\n}";
        assert!(run_docs(src).is_empty());
    }

    // ---- advisory indexing ----------------------------------------------

    #[test]
    fn indexing_is_off_by_default_and_advisory() {
        assert!(run("fn f(v: &[u8]) -> u8 { v[0] }").is_empty());
        let d = analyze_source(
            "test.rs",
            "fn f(v: &[u8]) -> u8 { v[0] }",
            AnalyzeOptions {
                warn_indexing: true,
                ..AnalyzeOptions::default()
            },
        );
        assert_eq!(rules(&d), [RuleId::Indexing]);
        assert!(d[0].rule.advisory());
    }

    #[test]
    fn array_types_and_literals_are_not_indexing() {
        let src = "fn f() -> [u8; 2] { let a: &[u8] = &[1, 2]; [a[0], a[1]] }";
        let d = analyze_source(
            "test.rs",
            src,
            AnalyzeOptions {
                warn_indexing: true,
                ..AnalyzeOptions::default()
            },
        );
        // Only the two real index expressions are flagged.
        assert_eq!(rules(&d), [RuleId::Indexing, RuleId::Indexing]);
    }
}
