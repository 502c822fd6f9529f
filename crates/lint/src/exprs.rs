//! Expression/statement-level analysis: function bodies as event streams.
//!
//! The item walker ([`crate::items`]) finds every function *definition*
//! (free functions, inherent and trait methods, default trait bodies,
//! functions nested in bodies, in item-level macro invocations or in
//! `const` initializers); this module is the part of that walk which
//! reduces each body to the events the dataflow rules consume:
//!
//! * **calls** — path calls (`Vec::new(…)`, `kernel::m1_current(…)`),
//!   method calls (`.push(…)`, `.collect::<Vec<_>>(…)` — turbofish
//!   handled), bare calls (`helper(…)`), and macro invocations
//!   (`format!(…)`),
//! * **reductions** — `.sum::<f64>()` / `.product::<f64>()` /
//!   `.fold(0.0, …)` terminators together with the method-chain
//!   adapters walked backwards to the chain head, so a rule can ask
//!   "was this float accumulation iterated in a provable order?".
//!
//! This is still not type inference: closures belong to their enclosing
//! function, a method call resolves by name, and blocks/`for`/`while`/
//! `match` bodies are scanned as flat token ranges (their structure
//! does not move an event to a different function). Test code
//! (`#[cfg(test)]` / `#[test]`) and `macro_rules!` bodies are invisible,
//! exactly as for the item walk.

use crate::items::{angle_delta, Scope, Walker};
use crate::lexer::TokenKind;

/// Keywords that look like `name(` but are not calls.
pub(crate) const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// How a call site spells its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `Qualifier::name(…)` — the qualifier is the segment before the
    /// final `::` (`Vec`, `kernel`, `Self` resolved to the owner).
    Path,
    /// `.name(…)` — receiver type unknown; resolved by name.
    Method,
    /// `name(…)` with no qualifier — a free function or a closure.
    Bare,
    /// `name!(…)` — a macro invocation.
    Macro,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// How the callee is spelled.
    pub kind: CallKind,
    /// The path segment before the final `::` for [`CallKind::Path`]
    /// (`Self` is replaced with the enclosing impl/trait owner).
    pub qualifier: Option<String>,
    /// The callee name (method, function, or macro).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

impl CallEvent {
    /// `Qualifier::name` when qualified, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One floating-point reduction terminator with its backwards-walked
/// method chain.
#[derive(Debug, Clone)]
pub struct ReduceEvent {
    /// `sum`, `product` or `fold`.
    pub terminator: String,
    /// Chain names walked backwards from the terminator: adapter
    /// methods first, then the head identifier if one is visible
    /// (`[iter, results]` for `results.iter().map(…).sum::<f64>()`).
    pub chain: Vec<String>,
    /// 1-based line of the terminator token.
    pub line: u32,
    /// 1-based column of the terminator token.
    pub col: u32,
}

/// One function definition with its body reduced to events.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Enclosing impl/trait type, if any.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallEvent>,
    /// Every float reduction terminator in the body.
    pub reduces: Vec<ReduceEvent>,
}

impl FnDef {
    /// `Owner::name` when owned, bare `name` otherwise.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

impl Walker<'_, '_> {
    /// Parses one `fn name …` definition starting at the `fn` keyword.
    /// Returns the code index just past it, or `None` if this `fn` token
    /// is not a definition (e.g. an `fn(…)` pointer type).
    pub(crate) fn parse_fn(&mut self, i: usize, owner: Option<&str>) -> Option<usize> {
        if self.kind(i + 1) != Some(TokenKind::Ident) {
            return None;
        }
        let name = self.text(i + 1).trim_start_matches("r#").to_string();
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            return None;
        }
        let j = self.skip_generics(i + 2);
        if self.kind(j) != Some(TokenKind::OpenParen) {
            return None;
        }
        let params_close =
            self.view
                .matching_close(j, TokenKind::OpenParen, TokenKind::CloseParen)?;
        // Find the body `{` (or a `;` for bodiless trait declarations),
        // crossing the return type and where clause.
        let open = self.scan_to(params_close + 1, &["{", ";"]);
        if self.text(open) == ";" {
            self.record(owner, name, i);
            return Some(open + 1);
        }
        let close = self
            .view
            .matching_close(open, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
        let def_index = self.record(owner, name, i);
        self.scan_body(open + 1, close, def_index, owner);
        Some(close + 1)
    }

    /// Pushes an empty definition record and returns its index.
    fn record(&mut self, owner: Option<&str>, name: String, i: usize) -> usize {
        let (line, col) = self.view.ctok(i).map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.walked.fns.push(FnDef {
            owner: owner.map(str::to_string),
            name,
            line,
            col,
            calls: Vec::new(),
            reduces: Vec::new(),
        });
        self.walked.fns.len() - 1
    }

    /// Scans a body range for events, recursing into nested `fn`/`impl`
    /// items so their events land on their own definitions.
    fn scan_body(&mut self, start: usize, end: usize, def: usize, owner: Option<&str>) {
        let mut i = start;
        while i < end {
            if self.view.is_excluded(i) {
                i += 1;
                continue;
            }
            if let Some(close) = self.macro_rules_end(i) {
                i = close + 1;
                continue;
            }
            let t = self.text(i);
            if t == "fn" {
                if let Some(next) = self.parse_fn(i, None) {
                    i = next;
                    continue;
                }
            }
            if t == "impl" && self.kind(i - 1) != Some(TokenKind::Op) {
                // A nested `impl Type { … }` item (return-position
                // `impl Trait` always follows an operator or `(`).
                if let Some(next) = self.walk_impl(i, &Scope::body()) {
                    i = next;
                    continue;
                }
            }
            if self.kind(i) == Some(TokenKind::Ident) && !NON_CALL_KEYWORDS.contains(&t) {
                if let Some(event) = self.call_at(i, owner) {
                    if event.kind == CallKind::Method {
                        if let Some(reduce) = self.reduce_at(i) {
                            self.walked.fns[def].reduces.push(reduce);
                        }
                    }
                    self.walked.fns[def].calls.push(event);
                }
            }
            i += 1;
        }
    }

    /// Classifies the identifier at `i` as a call site, if it is one.
    fn call_at(&self, i: usize, owner: Option<&str>) -> Option<CallEvent> {
        let tok = self.view.ctok(i).copied()?;
        let name = self.text(i).trim_start_matches("r#").to_string();
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if self.text(i + 1) == "!"
            && matches!(
                self.kind(i + 2),
                Some(TokenKind::OpenParen | TokenKind::OpenBracket | TokenKind::OpenBrace)
            )
        {
            return Some(CallEvent {
                kind: CallKind::Macro,
                qualifier: None,
                name,
                line: tok.line,
                col: tok.col,
            });
        }
        // Call parenthesis, with an optional turbofish in between.
        let after = if self.text(i + 1) == "::" && self.text(i + 2) == "<" {
            self.skip_generics(i + 2)
        } else {
            i + 1
        };
        if self.kind(after) != Some(TokenKind::OpenParen) {
            return None;
        }
        let prev = if i > 0 { self.text(i - 1) } else { "" };
        let (kind, qualifier) = if prev == "." {
            // A bare-`self` receiver pins the callee to the enclosing
            // type: `self.step(…)` inside `impl Lockstep` is
            // `Lockstep::step`, not every `step` in the workspace.
            if i >= 2 && self.text(i - 2) == "self" && owner.is_some() {
                (CallKind::Path, owner.map(str::to_string))
            } else {
                (CallKind::Method, None)
            }
        } else if prev == "::" {
            let q = (i >= 2)
                .then(|| self.text(i - 2))
                .filter(|_| self.kind(i - 2) == Some(TokenKind::Ident))
                .map(|t| t.trim_start_matches("r#").to_string());
            let q = match (q, owner) {
                (Some(q), Some(o)) if q == "Self" => Some(o.to_string()),
                (q, _) => q,
            };
            (CallKind::Path, q)
        } else {
            (CallKind::Bare, None)
        };
        Some(CallEvent {
            kind,
            qualifier,
            name,
            line: tok.line,
            col: tok.col,
        })
    }

    /// Detects a float-reduction terminator at method-call position `i`
    /// and walks its chain backwards.
    fn reduce_at(&self, i: usize) -> Option<ReduceEvent> {
        let name = self.text(i);
        let is_float_reduce = match name {
            "sum" | "product" => {
                // `.sum::<f64>()`: the turbofish names the accumulator.
                self.text(i + 1) == "::"
                    && self.text(i + 2) == "<"
                    && (i + 2..self.skip_generics(i + 2))
                        .any(|k| matches!(self.text(k), "f64" | "f32"))
            }
            "fold" => {
                // `.fold(0.0, …)` (optionally negated seed).
                let open = i + 1;
                self.kind(open) == Some(TokenKind::OpenParen)
                    && (self.kind(open + 1) == Some(TokenKind::Float)
                        || (self.text(open + 1) == "-"
                            && self.kind(open + 2) == Some(TokenKind::Float)))
            }
            _ => false,
        };
        if !is_float_reduce {
            return None;
        }
        let tok = self.view.ctok(i).copied()?;
        Some(ReduceEvent {
            terminator: name.to_string(),
            chain: self.chain_back(i),
            line: tok.line,
            col: tok.col,
        })
    }

    /// Walks a method chain backwards from the terminator ident at `i`,
    /// collecting adapter names and, finally, the head identifier.
    fn chain_back(&self, i: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut dot = i.checked_sub(1);
        while let Some(d) = dot {
            if self.text(d) != "." {
                break;
            }
            let Some(before) = d.checked_sub(1) else {
                break;
            };
            match self.kind(before) {
                Some(TokenKind::CloseParen) => {
                    // `…adapter(…)` — find the adapter name before `(`.
                    let Some(open) =
                        self.matching_open(before, TokenKind::OpenParen, TokenKind::CloseParen)
                    else {
                        break;
                    };
                    let Some(mut name_ci) = open.checked_sub(1) else {
                        break;
                    };
                    // Cross a turbofish: `adapter::<T>(…)`.
                    if matches!(self.text(name_ci), ">" | ">>") {
                        let Some(lt) = self.matching_open_angle(name_ci) else {
                            break;
                        };
                        if lt < 2 || self.text(lt - 1) != "::" {
                            break;
                        }
                        name_ci = lt - 2;
                    }
                    if self.kind(name_ci) != Some(TokenKind::Ident) {
                        break;
                    }
                    names.push(self.text(name_ci).to_string());
                    dot = name_ci.checked_sub(1);
                    if dot.is_some_and(|k| self.text(k) != ".") {
                        // Chain head was a call: `helper().sum…` or a
                        // path call `Type::make().sum…`; the call name
                        // is already recorded.
                        break;
                    }
                }
                Some(TokenKind::Ident) => {
                    // Head identifier (or field access tail).
                    names.push(self.text(before).to_string());
                    let further = before.checked_sub(1);
                    if further.is_some_and(|k| self.text(k) == ".") {
                        dot = further;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        names
    }

    /// Finds the code index of the open delimiter matching the close
    /// delimiter at code index `close_ci`, walking backwards.
    fn matching_open(&self, close_ci: usize, open: TokenKind, close: TokenKind) -> Option<usize> {
        let mut depth = 0usize;
        for ci in (0..=close_ci).rev() {
            let kind = self.kind(ci)?;
            if kind == close {
                depth += 1;
            } else if kind == open {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(ci);
                }
            }
        }
        None
    }

    /// Finds the code index of the `<` matching the `>` at `close_ci`,
    /// walking backwards (shift tokens counted double).
    fn matching_open_angle(&self, close_ci: usize) -> Option<usize> {
        let mut depth = 0i32;
        for ci in (0..=close_ci).rev() {
            let t = self.text(ci);
            depth -= angle_delta(t);
            if depth <= 0 && matches!(t, "<" | "<<") {
                return Some(ci);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ParsedFile;

    fn defs(src: &str) -> Vec<FnDef> {
        ParsedFile::parse("test.rs".to_string(), src.to_string())
            .0
            .fns
    }

    fn calls_of(d: &FnDef) -> Vec<String> {
        d.calls.iter().map(CallEvent::display).collect()
    }

    #[test]
    fn free_fn_records_path_method_bare_and_macro_calls() {
        let d = defs(
            "fn work(n: usize) -> Vec<u8> {\n\
                 let mut v = Vec::new();\n\
                 v.push(1);\n\
                 helper(n);\n\
                 format!(\"{n}\");\n\
                 v\n\
             }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].display(), "work");
        let calls = calls_of(&d[0]);
        assert!(calls.contains(&"Vec::new".to_string()), "{calls:?}");
        assert!(calls.contains(&"push".to_string()));
        assert!(calls.contains(&"helper".to_string()));
        assert!(calls.contains(&"format".to_string()));
        let kinds: Vec<CallKind> = d[0].calls.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&CallKind::Path));
        assert!(kinds.contains(&CallKind::Method));
        assert!(kinds.contains(&CallKind::Bare));
        assert!(kinds.contains(&CallKind::Macro));
    }

    #[test]
    fn inherent_methods_carry_their_owner_and_resolve_self() {
        let d = defs(
            "struct B;\n\
             impl B {\n\
                 fn new() -> Self { Self::make() }\n\
                 fn make() -> Self { B }\n\
             }",
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].display(), "B::new");
        assert_eq!(d[0].calls[0].qualifier.as_deref(), Some("B"));
        assert_eq!(d[0].calls[0].name, "make");
    }

    #[test]
    fn trait_impl_and_default_bodies_are_walked() {
        let d = defs(
            "trait T { fn go(&self) { helper(); } fn must(&self); }\n\
             struct S;\n\
             impl T for S { fn must(&self) { other(); } }",
        );
        let names: Vec<String> = d.iter().map(FnDef::display).collect();
        assert_eq!(names, ["T::go", "T::must", "S::must"]);
        assert_eq!(calls_of(&d[0]), ["helper"]);
        assert_eq!(calls_of(&d[2]), ["other"]);
    }

    #[test]
    fn bare_self_receiver_resolves_to_the_owner() {
        let d = defs("impl L { fn go(&mut self) { self.step(); self.inner.step(); } }");
        let c = &d[0].calls;
        assert_eq!(c[0].kind, CallKind::Path);
        assert_eq!(c[0].qualifier.as_deref(), Some("L"));
        assert_eq!(
            c[1].kind,
            CallKind::Method,
            "field receivers stay name-resolved"
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let d = defs("fn f(v: Vec<u8>) -> Vec<u8> { v.iter().copied().collect::<Vec<u8>>() }");
        let calls = calls_of(&d[0]);
        assert!(calls.contains(&"collect".to_string()), "{calls:?}");
    }

    #[test]
    fn sum_reduction_walks_the_chain_back() {
        let d = defs("fn f(v: &[f64]) -> f64 { v.iter().map(|x| x * 2.0).sum::<f64>() }");
        assert_eq!(d[0].reduces.len(), 1);
        let r = &d[0].reduces[0];
        assert_eq!(r.terminator, "sum");
        assert_eq!(r.chain, ["map", "iter", "v"]);
    }

    #[test]
    fn fold_with_float_seed_is_a_reduction() {
        let d = defs("fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, x| a + x) }");
        assert_eq!(d[0].reduces.len(), 1);
        assert_eq!(d[0].reduces[0].terminator, "fold");
    }

    #[test]
    fn integer_sum_is_not_a_reduction() {
        let d = defs("fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }");
        assert!(d[0].reduces.is_empty());
        let d = defs("fn f(v: &[u64]) -> u64 { v.iter().fold(0, |a, x| a + x) }");
        assert!(d[0].reduces.is_empty());
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "#[cfg(test)]\nmod tests { fn t() { Vec::new(); } }\nfn real() { go(); }";
        let d = defs(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "real");
    }

    #[test]
    fn fn_pointer_types_are_not_definitions() {
        let d = defs("fn apply(f: fn(u8) -> u8, x: u8) -> u8 { f(x) }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "apply");
        assert_eq!(calls_of(&d[0]), ["f"]);
    }

    #[test]
    fn nested_fns_own_their_events() {
        let d = defs("fn outer() { fn inner() { deep(); } inner(); }");
        let names: Vec<String> = d.iter().map(FnDef::display).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(calls_of(&d[0]), ["inner"]);
        assert_eq!(calls_of(&d[1]), ["deep"]);
    }

    #[test]
    fn closures_belong_to_the_enclosing_fn() {
        let d = defs("fn f(v: Vec<u8>) -> Vec<u8> { v.into_iter().map(|x| bump(x)).collect() }");
        let calls = calls_of(&d[0]);
        assert!(calls.contains(&"bump".to_string()));
        assert!(calls.contains(&"collect".to_string()));
    }

    #[test]
    fn chain_back_crosses_turbofish_adapters() {
        let d = defs(
            "fn f(v: &[f64]) -> f64 { v.chunks(2).flat_map(|c| c.iter()).copied().sum::<f64>() }",
        );
        let r = &d[0].reduces[0];
        assert_eq!(r.chain, ["copied", "flat_map", "chunks", "v"]);
    }

    #[test]
    fn mod_blocks_are_descended() {
        let d = defs("mod inner { fn hidden() { go(); } }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "hidden");
    }

    #[test]
    fn where_clause_and_return_types_are_crossed() {
        let d = defs(
            "fn f<T>(x: T) -> Vec<[u8; 4]> where T: Into<u64> { let _ = x.into() as u16; Vec::new() }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(calls_of(&d[0]), ["into", "Vec::new"]);
    }
}
