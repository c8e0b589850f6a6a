//! Item-level Rust parser on top of the token [`lexer`](crate::lexer).
//!
//! This is not a grammar-complete parser — it extracts exactly the item
//! structure the rules need from one file:
//!
//! * the line spans of test-only code (`#[cfg(test)]` / `#[test]` items),
//! * function definitions with visibility, enclosing module path, and
//!   enclosing `impl` type,
//! * call expressions inside each function body (free calls, `path::`
//!   calls, and `.method()` calls, including turbofish forms),
//! * floating-point reduction sites (`sum`/`product`/`fold`, and `+=` /
//!   `*=` inside loops, in functions with float evidence),
//! * `par::` parallel-map call sites and their argument spans,
//! * non-`fn` `pub` items (structs, enums, traits, consts, …) for the
//!   dead-export analysis,
//! * the file's leaf-pattern [`Site`]s, scanned by [`crate::sites`] once
//!   the function bodies are known.
//!
//! Everything is resolved later against the whole workspace by
//! [`symbols`](crate::symbols) and [`callgraph`](crate::callgraph).

use crate::lexer::{TokKind, Token};
use crate::sites::{self, Site};

/// Visibility of an item as written at its definition site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vis {
    /// `pub` with no restriction — exported from the crate.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — crate-internal.
    PubRestricted,
    /// No `pub` at all.
    Private,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (last path segment or method name).
    pub name: String,
    /// Path segments before the name (`osn_graph::par::map_indexed` →
    /// `["osn_graph", "par"]`); empty for bare and method calls.
    pub path: Vec<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// Token index of the callee name (for span containment tests).
    pub tok: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// 1-based source column of the callee name.
    pub col: u32,
}

/// One floating-point reduction site inside a function body.
#[derive(Clone, Debug)]
pub struct ReductionSite {
    /// `sum`, `product`, `fold`, `+=`, or `*=`.
    pub what: String,
    /// The site is definitely float-typed (turbofish names `f32`/`f64`);
    /// otherwise it only counts when the function shows float evidence.
    pub definite: bool,
    /// Token index (for par-argument containment tests).
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One `par::map*` / `par::sweep*` call site.
#[derive(Clone, Debug)]
pub struct ParCall {
    /// The entry-point name (`map_indexed`, `map_slice`, …).
    pub entry: String,
    /// Token spans `(open, close)` whose inside runs under the entry: the
    /// argument parentheses, and the body of each closure the enclosing
    /// function `let`-binds and passes by name (`let scan_one = |s| …;
    /// par::map_owned(shards, scan_one)`).
    pub bodies: Vec<(usize, usize)>,
    /// 1-based line of the entry-point name.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl ParCall {
    /// Does token `tok` sit inside a closure passed to this entry?
    pub(crate) fn holds(&self, tok: usize) -> bool {
        self.bodies.iter().any(|&(a, b)| tok > a && tok < b)
    }
}

/// A function definition extracted from one file.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// In-file module path (from `mod` blocks), outermost first.
    pub modules: Vec<String>,
    /// Enclosing `impl` self type, if any (`impl SumUp` → `SumUp`;
    /// `impl SybilDefense for SumUp` → `SumUp`).
    pub self_ty: Option<String>,
    /// Visibility at the definition site.
    pub vis: Vis,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Calls made in the body, in source order.
    pub calls: Vec<Call>,
    /// Floating-point reduction sites in the body.
    pub reductions: Vec<ReductionSite>,
    /// `par::` parallel-map call sites in the body.
    pub par_calls: Vec<ParCall>,
    /// The body mentions `f32`/`f64` or a float literal.
    pub float_evidence: bool,
    /// The definition sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Token-index span `(open, close)` of the body braces in the file's
    /// token stream: a site or a loop belongs to this function when its
    /// token index falls strictly inside.
    pub body: (usize, usize),
}

/// A non-`fn` item definition (struct, enum, trait, const, …).
#[derive(Clone, Debug)]
pub struct ItemDef {
    /// Item keyword (`struct`, `enum`, `trait`, `type`, `const`, `static`).
    pub kind: String,
    /// Item name.
    pub name: String,
    /// Visibility at the definition site.
    pub vis: Vis,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// The definition sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// Everything extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// All function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// All non-`fn` items, in source order.
    pub items: Vec<ItemDef>,
    /// Every identifier that occurs anywhere in the file (deduplicated,
    /// sorted) — the usage side of the dead-export analysis.
    pub idents: Vec<String>,
    /// Identifiers occurring inside `#[cfg(test)]`/`#[test]` spans
    /// (deduplicated, sorted) — inline unit tests keep exports alive.
    pub test_idents: Vec<String>,
    /// Leaf-pattern sites of the non-test code, in token order.
    pub(crate) sites: Vec<Site>,
}

/// Keywords that look like calls (`if (…)`, `match (…)`) but are not.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "move", "in", "as",
    "where", "impl",
];

/// The `osn_graph::par` entry points whose closures cross the thread
/// boundary.
const PAR_ENTRIES: [&str; 4] = ["map_indexed", "map_indexed_with", "map_owned", "map_slice"];

/// Keywords an item (as opposed to a field, statement or expression) can
/// start with, after its visibility.
const ITEM_KEYWORDS: [&str; 15] = [
    "fn",
    "mod",
    "impl",
    "struct",
    "enum",
    "union",
    "trait",
    "type",
    "const",
    "static",
    "use",
    "extern",
    "unsafe",
    "async",
    "macro_rules",
];

/// Whether the tokens from `k` start an item: a visibility (`pub`,
/// `pub(…)`) and then an item keyword.
fn starts_item(src: &str, toks: &[Token], mut k: usize) -> bool {
    if toks.get(k).is_some_and(|t| t.is_ident(src, "pub")) {
        k += 1;
        if toks.get(k).is_some_and(|t| t.is_punct(b'(')) {
            while k < toks.len() && !toks[k].is_punct(b')') {
                k += 1;
            }
            k += 1;
        }
    }
    toks.get(k)
        .is_some_and(|t| ITEM_KEYWORDS.iter().any(|kw| t.is_ident(src, kw)))
}

/// Compute the (start, end) line spans of test-only code: items annotated
/// `#[cfg(test)]` or `#[test]`, including whole `mod tests { ... }` blocks.
/// An annotated item runs to its `;` or the end of its `{…}`. A
/// field, struct-literal field, match arm or statement also ends at a `,`
/// outside parentheses and brackets, and anything annotated ends where
/// the block around it does — so `#[cfg(test)]` on the last field of a
/// struct does not swallow the `impl` block after the struct.
pub fn test_line_spans(src: &str, toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_punct(b'#') && toks[i + 1].is_punct(b'[') {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr_idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].kind {
                    TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b']') => depth -= 1,
                    TokKind::Ident => attr_idents.push(toks[j].text(src)),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = attr_idents.first() == Some(&"test")
                || (attr_idents.first() == Some(&"cfg") && attr_idents.contains(&"test"));
            if is_test_attr {
                // The annotated item runs to its closing brace (or `;`).
                let start_line = toks[i].line;
                let mut k = j;
                let mut end_line = start_line;
                // Skip any further attributes between this one and the item.
                while k + 1 < toks.len() && toks[k].is_punct(b'#') && toks[k + 1].is_punct(b'[') {
                    let mut d = 1usize;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        match toks[k].kind {
                            TokKind::Punct(b'[') => d += 1,
                            TokKind::Punct(b']') => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                let item = starts_item(src, toks, k);
                let mut nesting = 0usize;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct(b'(' | b'[') => nesting += 1,
                        TokKind::Punct(b')' | b']') => nesting = nesting.saturating_sub(1),
                        TokKind::Punct(b',') if !item && nesting == 0 => {
                            end_line = toks[k].line;
                            break;
                        }
                        TokKind::Punct(b'}') => {
                            // The enclosing block closes: what was
                            // annotated ended on the token before.
                            end_line = toks[k - 1].line;
                            break;
                        }
                        _ => {}
                    }
                    if toks[k].is_punct(b';') {
                        end_line = toks[k].line;
                        break;
                    }
                    if toks[k].is_punct(b'{') {
                        let mut d = 1usize;
                        let mut m = k + 1;
                        while m < toks.len() && d > 0 {
                            match toks[m].kind {
                                TokKind::Punct(b'{') => d += 1,
                                TokKind::Punct(b'}') => d -= 1,
                                _ => {}
                            }
                            m += 1;
                        }
                        end_line = toks[m.saturating_sub(1).min(toks.len() - 1)].line;
                        break;
                    }
                    k += 1;
                }
                spans.push((start_line, end_line));
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Parse one file from its tokens; `test_spans` are its
/// [`test_line_spans`].
pub fn parse(src: &str, toks: &[Token], test_spans: &[(u32, u32)]) -> ParsedFile {
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);
    let mut out = ParsedFile::default();

    let mut idents: Vec<String> = Vec::new();
    let mut test_idents: Vec<String> = Vec::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::Ident) {
        idents.push(t.text(src).to_string());
        if in_test(t.line) {
            test_idents.push(t.text(src).to_string());
        }
    }
    idents.sort_unstable();
    idents.dedup();
    test_idents.sort_unstable();
    test_idents.dedup();
    out.idents = idents;
    out.test_idents = test_idents;

    // Scope stacks: (name, brace depth at which the block opened).
    let mut depth: i32 = 0;
    let mut mods: Vec<(String, i32)> = Vec::new();
    let mut impls: Vec<(String, i32)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct(b'}') => {
                depth -= 1;
                while mods.last().is_some_and(|&(_, d)| d > depth) {
                    mods.pop();
                }
                while impls.last().is_some_and(|&(_, d)| d > depth) {
                    impls.pop();
                }
                i += 1;
            }
            TokKind::Ident => {
                let text = t.text(src);
                match text {
                    "mod" => {
                        // `mod name { … }` or `mod name;` (out-of-line).
                        if let Some(name_tok) = toks.get(i + 1) {
                            if name_tok.kind == TokKind::Ident
                                && toks.get(i + 2).is_some_and(|x| x.is_punct(b'{'))
                            {
                                mods.push((name_tok.text(src).to_string(), depth + 1));
                                depth += 1;
                                i += 3;
                                continue;
                            }
                        }
                        i += 1;
                    }
                    "impl" => {
                        if let Some((ty, body_open)) = impl_self_type(src, toks, i) {
                            impls.push((ty, depth + 1));
                            depth += 1;
                            i = body_open + 1;
                        } else {
                            i += 1;
                        }
                    }
                    "fn" => {
                        let (def, next) = parse_fn(src, toks, i, &mods, &impls, &in_test);
                        if let Some(def) = def {
                            out.fns.push(def);
                        }
                        i = next;
                    }
                    "struct" | "enum" | "trait" | "type" | "const" | "static" => {
                        // Module-level items only: they sit exactly at the
                        // depth of the innermost `mod` block (0 at file top
                        // level), which excludes `const`s inside fn bodies
                        // and associated items inside `impl` blocks.
                        let at_mod_level = depth == mods.last().map_or(0, |&(_, d)| d)
                            && impls.last().is_none_or(|&(_, d)| d != depth);
                        if at_mod_level {
                            if let Some(name_tok) = toks.get(i + 1) {
                                if name_tok.kind == TokKind::Ident {
                                    out.items.push(ItemDef {
                                        kind: text.to_string(),
                                        name: name_tok.text(src).to_string(),
                                        vis: visibility(src, toks, i),
                                        line: t.line,
                                        in_test: in_test(t.line),
                                    });
                                }
                            }
                        }
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    out.sites = sites::scan(src, toks, &in_test, &out.fns);
    out
}

/// Determine the visibility written immediately before item keyword at
/// `kw_idx`, skipping `const`/`unsafe`/`async`/`extern "…"` qualifiers.
fn visibility(src: &str, toks: &[Token], kw_idx: usize) -> Vis {
    let mut i = kw_idx;
    // Walk back over fn qualifiers.
    while let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) {
        let is_qual = prev.kind == TokKind::Ident
            && matches!(prev.text(src), "const" | "unsafe" | "async" | "extern")
            || prev.kind == TokKind::Str;
        if is_qual {
            i -= 1;
        } else {
            break;
        }
    }
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return Vis::Private;
    };
    if prev.is_ident(src, "pub") {
        return Vis::Pub;
    }
    // `pub ( crate ) kw` — prev is `)`; walk back to the matching `(`
    // and check the token before it.
    if prev.is_punct(b')') {
        let mut j = i - 1;
        let mut d = 0i32;
        while j > 0 {
            if toks[j].is_punct(b')') {
                d += 1;
            } else if toks[j].is_punct(b'(') {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            j -= 1;
        }
        if j > 0 && toks.get(j - 1).is_some_and(|t| t.is_ident(src, "pub")) {
            return Vis::PubRestricted;
        }
    }
    Vis::Private
}

/// For `impl …` at `impl_idx`, return the self type name and the token
/// index of the body `{`.
fn impl_self_type(src: &str, toks: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut i = impl_idx + 1;
    // Skip generic parameters `<…>`.
    if toks.get(i).is_some_and(|t| t.is_punct(b'<')) {
        let mut d = 0i32;
        while i < toks.len() {
            if toks[i].is_punct(b'<') {
                d += 1;
            } else if toks[i].is_punct(b'>') {
                d -= 1;
                if d == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Scan to the body `{`, remembering the last type name seen at angle
    // depth 0 and whether a `for` appeared (trait impl: type follows it).
    let mut d = 0i32;
    let mut last_ty: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'<') => d += 1,
            TokKind::Punct(b'>') => d -= 1,
            TokKind::Punct(b'{') if d <= 0 => {
                let ty = if saw_for { after_for } else { last_ty };
                return ty.map(|ty| (ty, i));
            }
            TokKind::Punct(b';') => return None,
            TokKind::Ident if d <= 0 => {
                let text = t.text(src);
                if text == "for" {
                    saw_for = true;
                } else if text == "where" {
                    // Self type is settled; keep scanning for `{`.
                } else if text != "dyn" && text != "mut" {
                    if saw_for && after_for.is_none() {
                        after_for = Some(text.to_string());
                    } else if !saw_for {
                        last_ty = Some(text.to_string());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse one `fn` item starting at the `fn` keyword; returns the
/// definition (None for bodyless trait-method declarations) and the token
/// index to resume scanning at (past the body, so nested closures/items
/// inside bodies are attributed to this function, while nested `fn` items
/// are rare enough to fold into the parent — a deliberate simplification).
fn parse_fn(
    src: &str,
    toks: &[Token],
    fn_idx: usize,
    mods: &[(String, i32)],
    impls: &[(String, i32)],
    in_test: &dyn Fn(u32) -> bool,
) -> (Option<FnDef>, usize) {
    let Some(name_tok) = toks.get(fn_idx + 1) else {
        return (None, fn_idx + 1);
    };
    if name_tok.kind != TokKind::Ident {
        return (None, fn_idx + 1);
    }
    let name = name_tok.text(src).to_string();

    // Find the body `{` at angle/paren depth 0, or `;` (no body).
    let mut i = fn_idx + 2;
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut body_open = None;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') => angle = (angle - 1).max(0),
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => paren -= 1,
            TokKind::Punct(b'-') => {
                // `-> Type` may contain `<`…: reset angle tracking is not
                // needed; generic returns keep balanced angles.
            }
            TokKind::Punct(b'{') if paren == 0 && angle <= 0 => {
                body_open = Some(i);
                break;
            }
            TokKind::Punct(b';') if paren == 0 && angle <= 0 => {
                return (None, i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    let Some(open) = body_open else {
        return (None, i);
    };
    // Matching close brace.
    let mut d = 0i32;
    let mut close = open;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct(b'{') => d += 1,
            TokKind::Punct(b'}') => {
                d -= 1;
                if d == 0 {
                    close = j;
                    break;
                }
            }
            _ => {}
        }
    }

    let mut def = FnDef {
        name,
        modules: mods.iter().map(|(m, _)| m.clone()).collect(),
        self_ty: impls.last().map(|(t, _)| t.clone()),
        vis: visibility(src, toks, fn_idx),
        line: toks[fn_idx].line,
        calls: Vec::new(),
        reductions: Vec::new(),
        par_calls: Vec::new(),
        float_evidence: false,
        in_test: in_test(toks[fn_idx].line),
        body: (open, close),
    };
    scan_body(src, toks, open, close, &mut def);
    (Some(def), close + 1)
}

/// Walk a function body's tokens collecting calls, float reductions, and
/// `par::` call sites.
fn scan_body(src: &str, toks: &[Token], open: usize, close: usize, def: &mut FnDef) {
    let mut loop_stack: Vec<i32> = Vec::new(); // brace depth of loop bodies
    let mut depth = 0i32;
    let mut i = open;
    while i <= close && i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                while loop_stack.last().is_some_and(|&d| d > depth) {
                    loop_stack.pop();
                }
            }
            TokKind::Punct(b'+') | TokKind::Punct(b'*')
                if toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct(b'=') && n.start == t.end) =>
            {
                // `x += 1;` — an integer-literal step is a counter, not a
                // float accumulation, regardless of the function's floats.
                let int_step = toks
                    .get(i + 2)
                    .is_some_and(|n| n.kind == TokKind::Num && !n.text(src).contains('.'))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(b';'));
                if !loop_stack.is_empty() && !int_step {
                    let what = if t.is_punct(b'+') { "+=" } else { "*=" };
                    def.reductions.push(ReductionSite {
                        what: what.to_string(),
                        definite: false,
                        tok: i,
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            // Float literal: `1` `.` `5` or `0` `.` (trailing) with byte
            // adjacency.
            TokKind::Num
                if toks
                    .get(i + 1)
                    .is_some_and(|d| d.is_punct(b'.') && d.start == t.end) =>
            {
                def.float_evidence = true;
            }
            TokKind::Ident => {
                let text = t.text(src);
                if text == "f32" || text == "f64" {
                    def.float_evidence = true;
                }
                if text == "for" || text == "while" || text == "loop" {
                    // The loop body opens at the next depth level.
                    loop_stack.push(depth + 1);
                }
                let is_method = i >= 1 && toks[i - 1].is_punct(b'.');
                // Calls: `name(`, `name::<T>(`, `path::name(`, `.name(`.
                let mut call_paren = None;
                if toks.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
                    call_paren = Some(i + 1);
                } else if toks.get(i + 1).is_some_and(|n| n.is_punct(b':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(b':'))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(b'<'))
                {
                    // Turbofish: skip the `<…>` and require `(`.
                    let mut d = 0i32;
                    let mut j = i + 3;
                    while j < toks.len() {
                        if toks[j].is_punct(b'<') {
                            d += 1;
                        } else if toks[j].is_punct(b'>') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    if toks.get(j + 1).is_some_and(|n| n.is_punct(b'(')) {
                        call_paren = Some(j + 1);
                        // Float-typed reductions are definite.
                        if matches!(text, "sum" | "product" | "fold") {
                            let tf: Vec<&str> = toks[i + 3..j]
                                .iter()
                                .filter(|x| x.kind == TokKind::Ident)
                                .map(|x| x.text(src))
                                .collect();
                            if tf.contains(&"f32") || tf.contains(&"f64") {
                                def.reductions.push(ReductionSite {
                                    what: text.to_string(),
                                    definite: true,
                                    tok: i,
                                    line: t.line,
                                    col: t.col,
                                });
                            }
                        }
                    }
                }
                if let Some(paren) = call_paren {
                    if !NON_CALL_KEYWORDS.contains(&text) {
                        let method = is_method;
                        // Plain (non-turbofish) reduction methods.
                        if method && matches!(text, "sum" | "product" | "fold") && paren == i + 1 {
                            def.reductions.push(ReductionSite {
                                what: text.to_string(),
                                definite: false,
                                tok: i,
                                line: t.line,
                                col: t.col,
                            });
                        }
                        let path = if method {
                            Vec::new()
                        } else {
                            path_before(src, toks, i)
                        };
                        // `par::map_*` entry points: the argument span is
                        // where the closure body sits.
                        if !method
                            && PAR_ENTRIES.contains(&text)
                            && path.last().is_some_and(|p| p == "par")
                        {
                            let args = (paren, matching_paren(toks, paren));
                            let mut bodies = vec![args];
                            bodies.extend(bare_args(toks, args).filter_map(|a| {
                                bound_closure(src, toks, open, i, toks[a].text(src))
                            }));
                            def.par_calls.push(ParCall {
                                entry: text.to_string(),
                                bodies,
                                line: t.line,
                                col: t.col,
                            });
                        }
                        def.calls.push(Call {
                            name: text.to_string(),
                            path,
                            method,
                            tok: i,
                            line: t.line,
                            col: t.col,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Path segments written before the ident at `idx` (`a::b::name` → `[a, b]`).
fn path_before(src: &str, toks: &[Token], idx: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut i = idx;
    while let Some([seg, c1, c2]) = i.checked_sub(3).and_then(|p| toks.get(p..i)) {
        if !(c1.is_punct(b':') && c2.is_punct(b':') && seg.kind == TokKind::Ident) {
            break;
        }
        segs.push(seg.text(src).to_string());
        i -= 3;
    }
    segs.reverse();
    segs
}

/// The identifiers that are a whole argument of the call spanning
/// `(open, close)`, or of a call nested in it (a closure handed on from
/// inside the par closure runs under the entry all the same), as token
/// indices.
fn bare_args(toks: &[Token], (open, close): (usize, usize)) -> impl Iterator<Item = usize> + '_ {
    let windows = toks[open..=close].windows(3).enumerate();
    windows.filter_map(move |(k, w)| {
        let bare = w[1].kind == TokKind::Ident
            && (w[0].is_punct(b'(') || w[0].is_punct(b','))
            && (w[2].is_punct(b',') || w[2].is_punct(b')'));
        bare.then_some(open + k + 1)
    })
}

/// The body span of the closure `name` is bound to by the last
/// `let [mut] name = [move] |…| …;` between tokens `from` and `upto`:
/// from the opening `|` to the statement's `;`.
fn bound_closure(
    src: &str,
    toks: &[Token],
    from: usize,
    upto: usize,
    name: &str,
) -> Option<(usize, usize)> {
    let pipe = (from..upto).rev().find_map(|l| {
        // `let name = |` once the optional keywords are set aside.
        let mut sig =
            (l..upto).filter(|&j| !toks[j].is_ident(src, "mut") && !toks[j].is_ident(src, "move"));
        let (kw, bound, eq, pipe) = (sig.next()?, sig.next()?, sig.next()?, sig.next()?);
        (toks[kw].is_ident(src, "let")
            && toks[bound].is_ident(src, name)
            && toks[eq].is_punct(b'=')
            && toks[pipe].is_punct(b'|'))
        .then_some(pipe)
    })?;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(upto).skip(pipe) {
        match t.kind {
            TokKind::Punct(b'(' | b'[' | b'{') => depth += 1,
            TokKind::Punct(b')' | b']' | b'}') => depth -= 1,
            TokKind::Punct(b';') if depth == 0 => return Some((pipe, j)),
            _ => {}
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut d = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(b'(') {
            d += 1;
        } else if t.is_punct(b')') {
            d -= 1;
            if d == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::sites::SiteKind;

    fn parse_src(src: &str) -> ParsedFile {
        let toks = lex(src);
        parse(src, &toks, &test_line_spans(src, &toks))
    }

    /// An annotated item runs to its `;` or closing brace, generics and
    /// `where` commas included; an annotated field, struct-literal field
    /// or match arm ends at its `,` or at the brace that closes the
    /// block around it — never in a later item.
    #[test]
    fn test_spans_end_where_the_annotated_thing_does() {
        let spans = |src: &str| test_line_spans(src, &lex(src));
        let item =
            "#[cfg(test)]\nfn f<A, B>(a: A, b: B)\nwhere A: Copy, B: Copy\n{\n}\nfn g() {}\n";
        assert_eq!(spans(item), vec![(1, 5)]);
        let last_field = "struct S {\n    a: u32,\n    #[cfg(test)]\n    b: u32\n}\nimpl S {\n    fn m() {}\n}\n";
        assert_eq!(spans(last_field), vec![(3, 4)]);
        let field = "pub struct S {\n    #[cfg(test)]\n    pub(crate) b: Vec<(u32, u32)>,\n    c: u32,\n}\n";
        assert_eq!(spans(field), vec![(2, 3)]);
        let literal = "fn f() -> S {\n    S { a: 1, #[cfg(test)] b: 2 }\n}\nfn g() {}\n";
        assert_eq!(spans(literal), vec![(2, 2)]);
        let arm = "fn f(x: u8) -> u8 {\n    match x {\n        #[cfg(test)]\n        0 => g(1, 2),\n        _ => 1,\n    }\n}\n";
        assert_eq!(spans(arm), vec![(3, 4)]);
    }

    #[test]
    fn extracts_fns_with_visibility_modules_and_impls() {
        let src = "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\n\
                   mod inner { pub fn d() {} }\n\
                   struct T;\nimpl T { pub fn m(&self) {} }\n\
                   trait Tr { fn decl(&self); }\nimpl Tr for T { fn decl(&self) {} }\n";
        let p = parse_src(src);
        let names: Vec<(&str, Vis)> = p.fns.iter().map(|f| (f.name.as_str(), f.vis)).collect();
        assert_eq!(
            names,
            vec![
                ("a", Vis::Pub),
                ("b", Vis::Private),
                ("c", Vis::PubRestricted),
                ("d", Vis::Pub),
                ("m", Vis::Pub),
                ("decl", Vis::Private),
            ]
        );
        assert_eq!(p.fns[3].modules, vec!["inner".to_string()]);
        assert_eq!(p.fns[4].self_ty.as_deref(), Some("T"));
        assert_eq!(p.fns[5].self_ty.as_deref(), Some("T"));
    }

    #[test]
    fn extracts_calls_paths_and_methods() {
        let src = "fn f(g: &G) { helper(); osn_graph::bfs::distances(g); v.push(1); }\n";
        let p = parse_src(src);
        let calls = &p.fns[0].calls;
        assert_eq!(calls[0].name, "helper");
        assert!(calls[0].path.is_empty() && !calls[0].method);
        assert_eq!(calls[1].name, "distances");
        assert_eq!(
            calls[1].path,
            vec!["osn_graph".to_string(), "bfs".to_string()]
        );
        assert_eq!(calls[2].name, "push");
        assert!(calls[2].method);
    }

    #[test]
    fn finds_panic_sites_and_guard_free_indexing() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i + 1] }\n\
                   fn g(v: &[u32], i: usize) -> u32 { if i + 1 < v.len() { v[i + 1] } else { 0 } }\n\
                   fn h(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn p() { panic!(\"no\"); }\n\
                   fn plain(v: &[u32], i: usize) -> u32 { v[i] }\n\
                   fn lit() -> u32 { let mut s = 0; for x in [1, 2] { s += x; } s }\n";
        let p = parse_src(src);
        let kinds = |f: usize| -> Vec<SiteKind> {
            let (open, close) = p.fns[f].body;
            let inside = p.sites.iter().filter(|s| s.tok > open && s.tok < close);
            inside.map(|s| s.kind).collect()
        };
        assert_eq!(kinds(0), [SiteKind::PanicIndex]);
        assert!(kinds(1).is_empty(), "len() guard suppresses indexing");
        assert_eq!(kinds(2), [SiteKind::PanicCall]);
        assert_eq!(kinds(3), [SiteKind::PanicMacro]);
        assert!(kinds(4).is_empty(), "plain v[i] is not a panic site");
        assert!(
            kinds(5).is_empty(),
            "array literal after `in` is not indexing"
        );
    }

    #[test]
    fn finds_float_reductions() {
        let src = "fn s(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n\
                   fn t(xs: &[f64]) -> f64 { let mut a = 0.0; for x in xs { a += x; } a }\n\
                   fn u(xs: &[u32]) -> u32 { let mut a = 0; for x in xs { a += x; } a }\n";
        let p = parse_src(src);
        assert_eq!(p.fns[0].reductions.len(), 1);
        assert!(p.fns[0].reductions[0].definite);
        assert_eq!(p.fns[1].reductions.len(), 1);
        assert!(p.fns[1].float_evidence);
        assert_eq!(p.fns[2].reductions.len(), 1, "+= in loop is a candidate");
        assert!(
            !p.fns[2].float_evidence,
            "but integer fns have no float evidence"
        );
    }

    #[test]
    fn finds_par_calls_and_captures() {
        let src = "fn f(n: usize, rng: &mut R) -> Vec<u32> {\n\
                   par::map_indexed(n, |i| { let mut acc = 0; acc += i; rng.next(acc) })\n\
                   }\n\
                   fn by_name(v: Vec<u32>) -> Vec<u32> {\n\
                   let other = |x: u32| inert(x);\n\
                   let one = move |x: u32| { step(x) };\n\
                   after(); par::map_owned(v, one)\n\
                   }\n";
        let p = parse_src(src);
        let call = |f: usize, name: &str| {
            p.fns[f]
                .calls
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{name}"))
                .tok
        };
        assert_eq!(p.fns[0].par_calls.len(), 1);
        let pc = &p.fns[0].par_calls[0];
        assert_eq!(pc.entry, "map_indexed");
        // The argument span holds the closure body.
        assert!(pc.holds(call(0, "next")));
        // A closure bound by `let` and passed by name: its body is under
        // the entry, the other binding and the code around are not.
        let pc = &p.fns[1].par_calls[0];
        assert_eq!(pc.entry, "map_owned");
        assert_eq!(pc.bodies.len(), 2);
        assert!(pc.holds(call(1, "step")));
        assert!(!pc.holds(call(1, "inert")) && !pc.holds(call(1, "after")));
    }

    #[test]
    fn collects_pub_items_and_idents() {
        let src = "pub struct S;\npub enum E { A }\nconst PRIVATE: u32 = 1;\n\
                   pub trait T {}\n#[cfg(test)]\nmod tests { pub struct Hidden; }\n";
        let p = parse_src(src);
        let pubs: Vec<(&str, &str)> = p
            .items
            .iter()
            .filter(|i| i.vis == Vis::Pub && !i.in_test)
            .map(|i| (i.kind.as_str(), i.name.as_str()))
            .collect();
        assert_eq!(pubs, vec![("struct", "S"), ("enum", "E"), ("trait", "T")]);
        assert!(p.idents.binary_search(&"PRIVATE".to_string()).is_ok());
    }
}
