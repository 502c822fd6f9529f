//! The item walker: one pass over a file's **item skeleton**.
//!
//! This is deliberately not a Rust parser: it walks the token stream of
//! one file and recovers only the item skeleton — `use` declarations,
//! inline `mod` nesting, `impl`/`trait` ownership, and the signatures of
//! `pub` functions, structs and fields. The one walk yields everything
//! the rules need from items:
//!
//! * the [`ItemTree`], the public surface the semantic rules
//!   (`raw-f64-api`, `crate-layering`, `api-lock`) anchor on;
//! * every function definition, its body reduced to call and reduction
//!   events by [`crate::exprs`].
//!
//! Conventions the rules rely on:
//!
//! * Test code (`#[cfg(test)]` / `#[test]`) is invisible, exactly as for
//!   `float-eq`, and `macro_rules!` bodies are token templates, not
//!   code: the walk steps over them.
//! * Only unrestricted `pub` items are API; `pub(crate)` and narrower
//!   are workspace-internal and carry no API obligations.
//! * Methods inside `impl Trait for Type` blocks are **not** API: the
//!   trait declaration is the source of truth for their signatures.
//! * Items inside function bodies, item-level macro invocations
//!   (`m! { … }`) and `const`/`static` initializers are not API either,
//!   but every `fn` there is still a definition whose body feeds the
//!   dataflow rules.
//! * Macro-generated items cannot be seen (the lint never expands
//!   macros); the api-lock snapshot is therefore "everything the walker
//!   sees", applied identically when writing and when checking.

use crate::analyze::FileView;
use crate::exprs::{FnDef, NON_CALL_KEYWORDS};
use crate::lexer::TokenKind;

/// What kind of public item a [`PubItem`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ItemKind {
    /// A free function, inherent method, or trait method declaration.
    Fn,
    /// A struct.
    Struct,
    /// A named or tuple struct field.
    Field,
    /// An enum (variants are not descended into).
    Enum,
    /// A trait declaration.
    Trait,
    /// A `type` alias.
    TypeAlias,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A `union`.
    Union,
}

impl ItemKind {
    /// The keyword used in api-lock entries and diagnostics.
    pub fn keyword(self) -> &'static str {
        match self {
            ItemKind::Fn => "fn",
            ItemKind::Struct => "struct",
            ItemKind::Field => "field",
            ItemKind::Enum => "enum",
            ItemKind::Trait => "trait",
            ItemKind::TypeAlias => "type",
            ItemKind::Const => "const",
            ItemKind::Static => "static",
            ItemKind::Union => "union",
        }
    }
}

/// One recorded public item.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// The item kind.
    pub kind: ItemKind,
    /// Inline-module path within the file (`""` at file root, `a::b` for
    /// nested `mod` blocks).
    pub module: String,
    /// Owning type or trait for methods, owning struct for fields.
    pub owner: Option<String>,
    /// Item name; tuple fields use their positional index.
    pub name: String,
    /// Normalized signature: `(params) -> ret` for fns, `: Type` for
    /// fields/consts/statics, empty otherwise.
    pub signature: String,
    /// 1-based line of the item's first token.
    pub line: u32,
    /// 1-based column of the item's first token.
    pub col: u32,
    /// Positions of every bare `f64` token in the signature.
    pub f64_spans: Vec<(u32, u32)>,
}

/// One `use` declaration (any visibility — re-exports count as
/// dependencies too).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The first path segment (`srlr_units`, `std`, `crate`, …).
    pub first_segment: String,
    /// 1-based line of the `use` keyword.
    pub line: u32,
}

/// The parsed item skeleton of one file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Every `use` declaration, in source order.
    pub uses: Vec<UseDecl>,
    /// Every recorded public item, in source order.
    pub items: Vec<PubItem>,
}

/// Everything one walk over a file yields.
pub(crate) struct Walked {
    /// The public item skeleton.
    pub(crate) tree: ItemTree,
    /// Every function definition, in source order.
    pub(crate) fns: Vec<FnDef>,
}

/// Walks the item skeleton of one file.
pub(crate) fn walk(view: &FileView<'_>) -> Walked {
    let mut walker = Walker {
        view,
        walked: Walked {
            tree: ItemTree::default(),
            fns: Vec::new(),
        },
    };
    let root = Scope {
        api: true,
        ..Scope::body()
    };
    walker.walk(0, view.code.len(), &root);
    walker.walked
}

/// What kind of block the walker is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// File root or an inline `mod` body.
    Module,
    /// `impl Type { … }`: `pub fn`s are methods of the owner.
    InherentImpl,
    /// `impl Trait for Type { … }`: no fn is API.
    TraitImpl,
    /// `trait Name { … }`: every `fn` is API of a public trait.
    TraitDecl,
}

/// Where the walker stands.
#[derive(Debug, Clone)]
pub(crate) struct Scope {
    /// Inline-module path (`""` at file root, `a::b` for nested blocks).
    module: String,
    /// The enclosing impl's self type or trait's name: the owner of the
    /// fns defined here.
    owner: Option<String>,
    block: Block,
    /// Whether items here are public surface: false inside fn bodies,
    /// macro invocations, `const`/`static` initializers and private
    /// traits, where only `mod`/`impl`/`trait`/`fn` are walked.
    api: bool,
}

impl Scope {
    /// The scope of a function body: nothing in it is API.
    pub(crate) fn body() -> Scope {
        Scope {
            module: String::new(),
            owner: None,
            block: Block::Module,
            api: false,
        }
    }
}

/// Keywords that may precede `fn` in a declaration (`const` only there).
const FN_MODIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

/// How a token moves the angle-bracket depth; the lexer emits `<<` and
/// `>>` as single shift tokens.
pub(crate) fn angle_delta(t: &str) -> i32 {
    match t {
        "<" => 1,
        ">" => -1,
        "<<" => 2,
        ">>" => -2,
        _ => 0,
    }
}

/// The walk itself: items here, function bodies in [`crate::exprs`].
pub(crate) struct Walker<'a, 'b> {
    pub(crate) view: &'b FileView<'a>,
    pub(crate) walked: Walked,
}

impl<'a, 'b> Walker<'a, 'b> {
    pub(crate) fn text(&self, ci: usize) -> &'a str {
        self.view.ctext(ci).unwrap_or("")
    }

    pub(crate) fn kind(&self, ci: usize) -> Option<TokenKind> {
        self.view.ctok(ci).map(|t| t.kind)
    }

    /// The code index of the closing `}` of a `macro_rules! name { … }`
    /// definition starting at `i`.
    pub(crate) fn macro_rules_end(&self, i: usize) -> Option<usize> {
        if self.text(i) != "macro_rules"
            || self.text(i + 1) != "!"
            || self.kind(i + 3) != Some(TokenKind::OpenBrace)
        {
            return None;
        }
        self.view
            .matching_close(i + 3, TokenKind::OpenBrace, TokenKind::CloseBrace)
    }

    /// Walks the code-token range `[start, end)` at item position.
    fn walk(&mut self, start: usize, end: usize, scope: &Scope) {
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
            if let Some((close, _)) = self.view.parse_attr(i) {
                i = close + 1;
                continue;
            }
            i = self.item(i, scope).map_or(i + 1, |next| next.max(i + 1));
        }
    }

    /// Handles the item starting at `i`, if one does, and returns the
    /// code index just past it; `None` steps on by one token.
    fn item(&mut self, i: usize, scope: &Scope) -> Option<usize> {
        let (is_pub, k) = self.parse_visibility(i);
        let k = self.skip_fn_modifiers(k);
        let kw = self.text(k);
        let api_pub = scope.api && is_pub;
        match kw {
            "mod" => {
                let (name, open, close) = self.named_block(k)?;
                let module = if scope.module.is_empty() {
                    name
                } else {
                    format!("{}::{name}", scope.module)
                };
                let inner = Scope {
                    module,
                    block: Block::Module,
                    ..scope.clone()
                };
                self.walk(open + 1, close, &inner);
                Some(close + 1)
            }
            "impl" => self.walk_impl(k, scope),
            "trait" => {
                let (name, open, close) = self.named_block(k)?;
                if api_pub {
                    self.record_simple(ItemKind::Trait, i, k, &scope.module);
                }
                let inner = Scope {
                    module: scope.module.clone(),
                    owner: Some(name),
                    block: Block::TraitDecl,
                    api: api_pub,
                };
                self.walk(open + 1, close, &inner);
                Some(close + 1)
            }
            "fn" => {
                let api = scope.api
                    && match scope.block {
                        Block::Module | Block::InherentImpl => is_pub,
                        Block::TraitDecl => true,
                        Block::TraitImpl => false,
                    };
                if api {
                    let owner = (scope.block != Block::Module)
                        .then(|| scope.owner.clone().unwrap_or_default());
                    self.record_fn(i, k, &scope.module, owner);
                }
                self.parse_fn(k, scope.owner.as_deref())
            }
            // Outside the public surface only the four block items above
            // matter; everything else is stepped through token by token.
            _ if !scope.api => None,
            "use" => {
                self.record_use(k);
                self.view.item_end(k).map(|e| e + 1)
            }
            "struct" if is_pub => self.parse_struct(i, k, &scope.module),
            "enum" | "union" | "type" if is_pub => {
                let kind = match kw {
                    "enum" => ItemKind::Enum,
                    "union" => ItemKind::Union,
                    _ => ItemKind::TypeAlias,
                };
                self.record_simple(kind, i, k, &scope.module);
                self.view.item_end(k).map(|e| e + 1)
            }
            "struct" | "enum" | "union" | "type" => self.view.item_end(k).map(|e| e + 1),
            "const" | "static" => {
                if is_pub {
                    let owner = (scope.block == Block::InherentImpl)
                        .then(|| scope.owner.clone().unwrap_or_default());
                    self.record_const(i, k, kw, &scope.module, owner);
                }
                let end = self.view.item_end(k)?;
                let initializer = Scope {
                    api: false,
                    ..scope.clone()
                };
                self.walk(k + 1, end, &initializer);
                Some(end + 1)
            }
            _ => self.macro_call(k, scope),
        }
    }

    /// Parses `pub` / `pub(crate)` / … at `i`. Returns whether the item
    /// is unrestricted-public and the index of the token after the
    /// visibility.
    fn parse_visibility(&self, i: usize) -> (bool, usize) {
        if self.text(i) != "pub" {
            return (false, i);
        }
        if self.kind(i + 1) == Some(TokenKind::OpenParen) {
            let close = self
                .view
                .matching_close(i + 1, TokenKind::OpenParen, TokenKind::CloseParen)
                .unwrap_or(i + 1);
            return (false, close + 1);
        }
        (true, i + 1)
    }

    /// Skips `const`/`unsafe`/`async`/`extern "ABI"` before an item
    /// keyword; `const` counts only when a `fn` follows (else it is the
    /// `const` item's own keyword).
    fn skip_fn_modifiers(&self, mut k: usize) -> usize {
        while FN_MODIFIERS.contains(&self.text(k))
            && (self.text(k) != "const"
                || self.text(k + 1) == "fn"
                || FN_MODIFIERS.contains(&self.text(k + 1)))
        {
            k += 1;
            if self.kind(k) == Some(TokenKind::Str) {
                k += 1; // `extern "C"` carries a literal
            }
        }
        k
    }

    /// An item-level macro invocation `name!(…)` / `name![…]` /
    /// `name! { … }`: its tokens are walked for definitions, none of
    /// which is API.
    fn macro_call(&mut self, k: usize, scope: &Scope) -> Option<usize> {
        if self.kind(k) != Some(TokenKind::Ident) || self.text(k + 1) != "!" {
            return None;
        }
        let open = k + 2;
        let close = match self.kind(open)? {
            TokenKind::OpenParen => {
                self.view
                    .matching_close(open, TokenKind::OpenParen, TokenKind::CloseParen)
            }
            TokenKind::OpenBracket => {
                self.view
                    .matching_close(open, TokenKind::OpenBracket, TokenKind::CloseBracket)
            }
            TokenKind::OpenBrace => {
                self.view
                    .matching_close(open, TokenKind::OpenBrace, TokenKind::CloseBrace)
            }
            _ => None,
        }?;
        let args = Scope {
            api: false,
            ..scope.clone()
        };
        self.walk(open + 1, close, &args);
        Some(close + 1)
    }

    /// Records the first path segment of a `use` declaration.
    fn record_use(&mut self, k: usize) {
        let line = self.view.ctok(k).map(|t| t.line).unwrap_or(0);
        let mut j = k + 1;
        if self.text(j) == "::" {
            j += 1;
        }
        let seg = self.text(j);
        if !seg.is_empty() {
            self.walked.tree.uses.push(UseDecl {
                first_segment: seg.trim_start_matches("r#").to_string(),
                line,
            });
        }
    }

    /// `impl [<…>] [Trait for] Type [where …] { … }` at `k`: walks the
    /// body with the self type as owner and returns the index past it.
    pub(crate) fn walk_impl(&mut self, k: usize, scope: &Scope) -> Option<usize> {
        // The owner is the rightmost plain identifier at angle depth 0 of
        // the self type (after a top-level `for`, if any):
        // `impl Display for core::fmt::Foo` → `Foo`, `impl<T> B<T>` → `B`.
        let mut owner = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        let mut j = self.skip_generics(k + 1);
        let open = loop {
            let t = self.text(j);
            match self.kind(j)? {
                TokenKind::OpenBrace if angle <= 0 => break j,
                _ if angle == 0 && t == "for" => {
                    saw_for = true;
                    owner = None;
                }
                // `where` ends the type; the body `{` follows the clause.
                _ if angle == 0 && t == "where" => {
                    break (j..self.view.code.len())
                        .find(|&b| self.kind(b) == Some(TokenKind::OpenBrace))?;
                }
                kind => {
                    angle += angle_delta(t);
                    if angle == 0 && kind == TokenKind::Ident && !NON_CALL_KEYWORDS.contains(&t) {
                        owner = Some(t.trim_start_matches("r#").to_string());
                    }
                }
            }
            j += 1;
        };
        let close = self
            .view
            .matching_close(open, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
        let inner = Scope {
            owner,
            block: if saw_for {
                Block::TraitImpl
            } else {
                Block::InherentImpl
            },
            ..scope.clone()
        };
        self.walk(open + 1, close, &inner);
        Some(close + 1)
    }

    /// `trait Name … { … }` / `mod name { … }` at `k`: the name and the
    /// body braces. Returns `None` for `mod name;` declarations.
    fn named_block(&self, k: usize) -> Option<(String, usize, usize)> {
        let name = self.text(k + 1).trim_start_matches("r#").to_string();
        let mut j = k + 2;
        let mut angle = 0i32;
        while j < self.view.code.len() {
            let t = self.text(j);
            if t == ";" && angle <= 0 {
                return None;
            }
            angle += angle_delta(t);
            if self.kind(j) == Some(TokenKind::OpenBrace) && angle <= 0 {
                break;
            }
            j += 1;
        }
        let close = self
            .view
            .matching_close(j, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
        Some((name, j, close))
    }

    /// `pub struct Name …`: records the struct and its public fields.
    fn parse_struct(&mut self, i: usize, k: usize, module: &str) -> Option<usize> {
        let name = self.text(k + 1).trim_start_matches("r#").to_string();
        self.record_simple(ItemKind::Struct, i, k, module);
        let mut j = self.skip_generics(k + 2);
        match self.kind(j) {
            Some(TokenKind::OpenParen) => {
                let close =
                    self.view
                        .matching_close(j, TokenKind::OpenParen, TokenKind::CloseParen)?;
                self.record_tuple_fields(j, close, module, &name);
                self.view.item_end(k).map(|e| e + 1)
            }
            Some(TokenKind::OpenBrace) => {
                let close =
                    self.view
                        .matching_close(j, TokenKind::OpenBrace, TokenKind::CloseBrace)?;
                self.record_named_fields(j, close, module, &name);
                Some(close + 1)
            }
            _ => {
                // Unit struct `pub struct X;` (or a `where` clause).
                while j < self.view.code.len() && self.text(j) != ";" {
                    j += 1;
                }
                Some(j + 1)
            }
        }
    }

    /// Splits the code range `(open, close)` at top-level commas.
    fn split_fields(&self, open: usize, close: usize) -> Vec<Vec<usize>> {
        let mut chunks = Vec::new();
        let mut current = Vec::new();
        let mut depth = 0i32;
        let mut angle = 0i32;
        for ci in open + 1..close {
            let t = self.text(ci);
            match self.kind(ci) {
                Some(TokenKind::OpenParen | TokenKind::OpenBracket | TokenKind::OpenBrace) => {
                    depth += 1
                }
                Some(TokenKind::CloseParen | TokenKind::CloseBracket | TokenKind::CloseBrace) => {
                    depth -= 1
                }
                _ => angle += angle_delta(t),
            }
            if t == "," && depth == 0 && angle == 0 {
                chunks.push(std::mem::take(&mut current));
            } else {
                current.push(ci);
            }
        }
        if !current.is_empty() {
            chunks.push(current);
        }
        chunks
    }

    /// Records `pub` positional fields of a tuple struct.
    fn record_tuple_fields(&mut self, open: usize, close: usize, module: &str, owner: &str) {
        for (index, chunk) in self.split_fields(open, close).into_iter().enumerate() {
            let chunk = self.strip_field_attrs(chunk);
            let Some((&first, ty)) = chunk.split_first() else {
                continue;
            };
            if self.text(first) != "pub" {
                continue;
            }
            // `pub(crate)` tuple fields are not public API.
            if ty.first().map(|&c| self.kind(c)) == Some(Some(TokenKind::OpenParen)) {
                continue;
            }
            let Some(tok) = self.view.ctok(first).copied() else {
                continue;
            };
            self.walked.tree.items.push(PubItem {
                kind: ItemKind::Field,
                module: module.to_string(),
                owner: Some(owner.to_string()),
                name: index.to_string(),
                signature: format!(": {}", self.join(ty)),
                line: tok.line,
                col: tok.col,
                f64_spans: self.f64_spans(ty),
            });
        }
    }

    /// Records `pub name: Type` fields of a braced struct.
    fn record_named_fields(&mut self, open: usize, close: usize, module: &str, owner: &str) {
        for chunk in self.split_fields(open, close) {
            let chunk = self.strip_field_attrs(chunk);
            let Some((&first, rest)) = chunk.split_first() else {
                continue;
            };
            if self.text(first) != "pub" {
                continue;
            }
            let Some((&name_ci, rest)) = rest.split_first() else {
                continue;
            };
            if self.kind(name_ci) != Some(TokenKind::Ident) {
                continue; // pub(crate) field or malformed
            }
            let Some((&colon, ty)) = rest.split_first() else {
                continue;
            };
            if self.text(colon) != ":" {
                continue;
            }
            let Some(tok) = self.view.ctok(name_ci).copied() else {
                continue;
            };
            self.walked.tree.items.push(PubItem {
                kind: ItemKind::Field,
                module: module.to_string(),
                owner: Some(owner.to_string()),
                name: self.text(name_ci).trim_start_matches("r#").to_string(),
                signature: format!(": {}", self.join(ty)),
                line: tok.line,
                col: tok.col,
                f64_spans: self.f64_spans(ty),
            });
        }
    }

    /// Drops leading `#[…]` attribute tokens from a field chunk.
    fn strip_field_attrs(&self, chunk: Vec<usize>) -> Vec<usize> {
        let mut idx = 0usize;
        while idx < chunk.len() && self.text(chunk[idx]) == "#" {
            // Find the matching `]` within the chunk.
            let mut depth = 0i32;
            let mut j = idx + 1;
            while j < chunk.len() {
                match self.kind(chunk[j]) {
                    Some(TokenKind::OpenBracket) => depth += 1,
                    Some(TokenKind::CloseBracket) => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            idx = j + 1;
        }
        chunk.into_iter().skip(idx).collect()
    }

    /// Records a `pub fn` / trait `fn` with its normalized signature.
    fn record_fn(&mut self, i: usize, f: usize, module: &str, owner: Option<String>) {
        let name_ci = f + 1;
        let name = self.text(name_ci).trim_start_matches("r#").to_string();
        if name.is_empty() {
            return;
        }
        let mut j = self.skip_generics(name_ci + 1);
        if self.kind(j) != Some(TokenKind::OpenParen) {
            return;
        }
        let Some(params_close) =
            self.view
                .matching_close(j, TokenKind::OpenParen, TokenKind::CloseParen)
        else {
            return;
        };
        let mut sig_idxs: Vec<usize> = (j..=params_close).collect();
        // Return type: `-> Type` up to `{`, `;` or `where` at depth 0.
        j = params_close + 1;
        if self.text(j) == "->" {
            sig_idxs.extend(j..self.scan_to(j + 1, &["{", ";", "where"]));
        }
        let Some(anchor) = self.view.ctok(i).copied() else {
            return;
        };
        self.walked.tree.items.push(PubItem {
            kind: ItemKind::Fn,
            module: module.to_string(),
            owner,
            name,
            signature: self.join(&sig_idxs),
            line: anchor.line,
            col: anchor.col,
            f64_spans: self.f64_spans(&sig_idxs),
        });
    }

    /// Records an enum/trait/type-alias/struct header item.
    fn record_simple(&mut self, kind: ItemKind, i: usize, k: usize, module: &str) {
        let name = self.text(k + 1).trim_start_matches("r#").to_string();
        let Some(anchor) = self.view.ctok(i).copied() else {
            return;
        };
        self.walked.tree.items.push(PubItem {
            kind,
            module: module.to_string(),
            owner: None,
            name,
            signature: String::new(),
            line: anchor.line,
            col: anchor.col,
            f64_spans: Vec::new(),
        });
    }

    /// Records a `pub const NAME: Type` / `pub static NAME: Type` item.
    fn record_const(&mut self, i: usize, k: usize, kw: &str, module: &str, owner: Option<String>) {
        let kind = if kw == "const" {
            ItemKind::Const
        } else {
            ItemKind::Static
        };
        let mut n = k + 1;
        if self.text(n) == "mut" {
            n += 1;
        }
        let name = self.text(n).trim_start_matches("r#").to_string();
        // Type: after `:` up to a top-level `=` or `;`.
        let ty: Vec<usize> = if self.text(n + 1) == ":" {
            (n + 2..self.scan_to(n + 2, &["=", ";"])).collect()
        } else {
            Vec::new()
        };
        let Some(anchor) = self.view.ctok(i).copied() else {
            return;
        };
        self.walked.tree.items.push(PubItem {
            kind,
            module: module.to_string(),
            owner,
            name,
            signature: if ty.is_empty() {
                String::new()
            } else {
                format!(": {}", self.join(&ty))
            },
            line: anchor.line,
            col: anchor.col,
            f64_spans: Vec::new(),
        });
    }

    /// Skips a generic parameter list `<…>` starting at `j`, tracking
    /// `<<`/`>>` which the lexer emits as single shift tokens.
    pub(crate) fn skip_generics(&self, j: usize) -> usize {
        if self.text(j) != "<" {
            return j;
        }
        let mut angle = 0i32;
        let mut k = j;
        while k < self.view.code.len() {
            angle += angle_delta(self.text(k));
            k += 1;
            if angle <= 0 {
                break;
            }
        }
        k
    }

    /// The code index of the first token from `j` on that `stop` names at
    /// paren/bracket depth 0 and angle depth ≤ 0 (`code.len()` if none):
    /// where a fn header, return type or `const` type ends.
    pub(crate) fn scan_to(&self, mut j: usize, stop: &[&str]) -> usize {
        let (mut depth, mut angle) = (0i32, 0i32);
        while j < self.view.code.len() {
            let t = self.text(j);
            if depth == 0 && angle <= 0 && stop.contains(&t) {
                break;
            }
            match self.kind(j) {
                Some(TokenKind::OpenParen | TokenKind::OpenBracket) => depth += 1,
                Some(TokenKind::CloseParen | TokenKind::CloseBracket) => depth -= 1,
                _ => angle += angle_delta(t),
            }
            j += 1;
        }
        j
    }

    /// The positions of bare `f64` identifier tokens among `idxs`.
    fn f64_spans(&self, idxs: &[usize]) -> Vec<(u32, u32)> {
        idxs.iter()
            .filter_map(|&ci| self.view.ctok(ci))
            .filter(|t| t.kind == TokenKind::Ident && t.text(self.view.src) == "f64")
            .map(|t| (t.line, t.col))
            .collect()
    }

    /// Joins token texts with minimal, deterministic spacing.
    fn join(&self, idxs: &[usize]) -> String {
        const NO_SPACE_BEFORE: &[&str] = &[",", ";", ")", "]", ">", ">>", "::", ":", ".", "?", "<"];
        const NO_SPACE_AFTER: &[&str] = &["(", "[", "<", "&", "::", ".", "!", "#", "'"];
        let mut out = String::new();
        let mut prev: Option<&str> = None;
        for &ci in idxs {
            let t = self.text(ci);
            if t.is_empty() {
                continue;
            }
            let glue = match prev {
                None => false,
                Some(p) => !(NO_SPACE_BEFORE.contains(&t) || NO_SPACE_AFTER.contains(&p)),
            };
            if glue {
                out.push(' ');
            }
            out.push_str(t);
            prev = Some(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantic::ParsedFile;

    fn parsed(src: &str) -> ParsedFile {
        ParsedFile::parse("test.rs".to_string(), src.to_string()).0
    }

    fn parse(src: &str) -> ItemTree {
        parsed(src).tree
    }

    fn fn_names(file: &ParsedFile) -> Vec<String> {
        file.fns.iter().map(FnDef::display).collect()
    }

    fn entries(tree: &ItemTree) -> Vec<String> {
        tree.items
            .iter()
            .map(|i| {
                format!(
                    "{} {}{}{}{}",
                    i.kind.keyword(),
                    if i.module.is_empty() {
                        String::new()
                    } else {
                        format!("{}::", i.module)
                    },
                    i.owner
                        .as_ref()
                        .map(|o| if i.kind == ItemKind::Field {
                            format!("{o}.")
                        } else {
                            format!("{o}::")
                        })
                        .unwrap_or_default(),
                    i.name,
                    i.signature
                )
            })
            .collect()
    }

    #[test]
    fn free_fn_signature() {
        let t = parse("pub fn scale(x: f64, len: Length) -> f64 { x }");
        assert_eq!(entries(&t), ["fn scale(x: f64, len: Length) -> f64"]);
        assert_eq!(t.items[0].f64_spans.len(), 2);
    }

    #[test]
    fn private_fn_is_not_recorded() {
        assert!(parse("fn helper(x: f64) -> f64 { x }").items.is_empty());
    }

    #[test]
    fn pub_crate_is_not_recorded() {
        assert!(parse("pub(crate) fn helper(x: f64) -> f64 { x }")
            .items
            .is_empty());
        assert!(parse("pub(in crate::a) struct S;").items.is_empty());
    }

    #[test]
    fn inherent_impl_methods_get_an_owner() {
        let t = parse("struct W; impl W { pub fn volts(&self) -> f64 { 0.0 } }");
        assert_eq!(entries(&t), ["fn W::volts(&self) -> f64"]);
        assert_eq!(t.items[0].f64_spans.len(), 1);
    }

    #[test]
    fn trait_impl_methods_are_skipped() {
        let src = "pub struct W;\nimpl core::fmt::Display for W {\n    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result { Ok(()) }\n}";
        let t = parse(src);
        assert_eq!(entries(&t), ["struct W"]);
    }

    #[test]
    fn trait_decl_methods_are_recorded() {
        let t = parse("pub trait Model { fn eval(&self, v: f64) -> f64; }");
        assert_eq!(
            entries(&t),
            ["trait Model", "fn Model::eval(&self, v: f64) -> f64"]
        );
    }

    #[test]
    fn private_trait_is_invisible() {
        assert!(parse("trait Hidden { fn f(&self) -> f64; }")
            .items
            .is_empty());
    }

    #[test]
    fn struct_fields_named_and_tuple() {
        let src =
            "pub struct P { pub x: f64, y: f64, pub(crate) z: f64 }\npub struct T(pub f64, u8);";
        let t = parse(src);
        assert_eq!(
            entries(&t),
            ["struct P", "field P.x: f64", "struct T", "field T.0: f64"]
        );
    }

    #[test]
    fn inline_modules_extend_the_path() {
        let src = "pub mod outer { pub mod inner { pub fn f() {} } }";
        let t = parse(src);
        assert_eq!(entries(&t), ["fn outer::inner::f()"]);
    }

    #[test]
    fn generics_with_shift_tokens_are_skipped() {
        // `Vec<Vec<f64>>` ends with a `>>` shift token.
        let t = parse("pub fn rows(m: Vec<Vec<f64>>) -> usize { m.len() }");
        assert_eq!(entries(&t), ["fn rows(m: Vec<Vec<f64>>) -> usize"]);
        assert_eq!(t.items[0].f64_spans.len(), 1);
    }

    #[test]
    fn const_and_static_record_their_type() {
        let t = parse("pub const K: f64 = 1.0;\npub static NAME: &str = \"x\";");
        assert_eq!(entries(&t), ["const K: f64", "static NAME: &str"]);
        // Consts are not raw-f64 targets.
        assert!(t.items[0].f64_spans.is_empty());
    }

    #[test]
    fn uses_record_first_segment() {
        let src = "use srlr_units::{Length, Voltage};\nuse std::fmt;\npub use srlr_tech::Device;";
        let t = parse(src);
        let segs: Vec<&str> = t.uses.iter().map(|u| u.first_segment.as_str()).collect();
        assert_eq!(segs, ["srlr_units", "std", "srlr_tech"]);
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "#[cfg(test)]\nmod tests { pub fn t(x: f64) -> f64 { x } }\npub fn real() {}";
        assert_eq!(entries(&parse(src)), ["fn real()"]);
    }

    #[test]
    fn macro_bodies_are_invisible() {
        let src =
            "macro_rules! gen { () => { pub fn hidden(x: f64) -> f64 { x } }; }\npub fn real() {}";
        assert_eq!(entries(&parse(src)), ["fn real()"]);
    }

    #[test]
    fn enum_and_type_alias_are_headers_only() {
        let t = parse("pub enum E { A(f64) }\npub type Alias = f64;");
        assert_eq!(entries(&t), ["enum E", "type Alias"]);
    }

    #[test]
    fn where_clause_ends_the_return_type() {
        let t = parse("pub fn f<T>(x: T) -> f64 where T: Into<f64> { 0.0 }");
        assert_eq!(entries(&t), ["fn f(x: T) -> f64"]);
        assert_eq!(t.items[0].f64_spans.len(), 1);
    }

    #[test]
    fn impl_with_generics_finds_the_owner() {
        let t = parse("pub struct B<T>(pub T); impl<T: Clone> B<T> { pub fn get(&self) -> T { self.0.clone() } }");
        assert!(entries(&t).contains(&"fn B::get(&self) -> T".to_string()));
    }

    #[test]
    fn raw_identifiers_are_normalized() {
        let t = parse("pub fn r#type(r#fn: f64) -> f64 { r#fn }");
        assert_eq!(t.items[0].name, "type");
    }

    #[test]
    fn macro_invocation_fns_are_definitions_but_not_api() {
        let file = parsed("m! { pub fn g() { helper(); } }\npub fn real() {}");
        assert_eq!(entries(&file.tree), ["fn real()"]);
        assert_eq!(fn_names(&file), ["g", "real"]);
        assert_eq!(file.fns[0].calls[0].name, "helper");
    }

    #[test]
    fn const_initializer_fns_keep_the_impl_owner() {
        let file = parsed(
            "pub struct S;\nimpl S {\n    pub const K: u8 = { fn seed() -> u8 { 1 } seed() };\n}",
        );
        assert_eq!(entries(&file.tree), ["struct S", "const S::K: u8"]);
        assert_eq!(fn_names(&file), ["S::seed"]);
    }

    #[test]
    fn items_in_fn_bodies_are_not_api() {
        let file = parsed("pub fn outer() { impl Local { pub fn m(&self) {} } pub struct Local; }");
        assert_eq!(entries(&file.tree), ["fn outer()"]);
        assert_eq!(fn_names(&file), ["outer", "Local::m"]);
    }
}
