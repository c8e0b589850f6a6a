//! Loop-structure recovery per function, on top of the existing token
//! stream and the parser's body spans.
//!
//! The cost rules (S113–S115 and S117, see [`crate::costs`]) need to
//! know whether a call or a site executes *inside a loop* of its
//! enclosing function: an allocation that runs once per epoch is
//! amortized, the same allocation inside the per-event scan loop is a
//! per-event cost. The parser already tracks a loop stack while
//! scanning bodies (for the float-reduction rule) but discards the
//! spans; this pass re-derives them as token-index ranges, tested for
//! containment the same way `FnDef::body` is.
//!
//! Recovery mirrors the parser's approximation exactly: a `for` /
//! `while` / `loop` keyword arms the *next* brace that opens one level
//! deeper as the loop body. A closure or struct literal between the
//! keyword and the body brace can therefore claim the span (the same
//! over-approximation `parser::scan_body` accepts) — safe for the cost
//! rules, which only ever *add* candidate loop contexts, never hide one.

use crate::lexer::{TokKind, Token};

/// Token-index span `(open, close)` of one loop body's braces,
/// inclusive of both brace tokens.
pub type LoopSpan = (usize, usize);

/// All loop-body token spans inside one function body span `(open,
/// close)` (the `FnDef::body` brace tokens), outermost and innermost
/// alike, ordered by opening token.
pub fn body_loop_spans(src: &str, toks: &[Token], body: (usize, usize)) -> Vec<LoopSpan> {
    let (open, close) = body;
    let hi = close.min(toks.len().saturating_sub(1));
    let mut spans: Vec<LoopSpan> = Vec::new();
    let mut depth = 0i32;
    // Loop keywords seen whose body brace has not opened yet: the brace
    // depth at which their body will open.
    let mut pending: Vec<i32> = Vec::new();
    // Open loop bodies: (body depth, opening brace token index).
    let mut active: Vec<(i32, usize)> = Vec::new();
    let mut i = open;
    while i <= hi {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct(b'{') => {
                depth += 1;
                if pending.last() == Some(&depth) {
                    pending.pop();
                    active.push((depth, i));
                }
            }
            TokKind::Punct(b'}') => {
                if let Some(&(d, o)) = active.last() {
                    if d == depth {
                        active.pop();
                        spans.push((o, i));
                    }
                }
                depth -= 1;
            }
            TokKind::Ident => {
                let text = t.text(src);
                if text == "for" || text == "while" || text == "loop" {
                    pending.push(depth + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    spans.sort_unstable();
    spans
}

/// Does token index `tok` sit strictly inside any of `spans`?
pub fn in_loop(spans: &[LoopSpan], tok: usize) -> bool {
    spans.iter().any(|&(a, b)| tok > a && tok < b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser;

    fn spans_of(src: &str, fn_name: &str) -> (Vec<Token>, Vec<LoopSpan>) {
        let toks = lex(src);
        let parsed = parser::parse(src, &toks, &[]);
        let def = parsed
            .fns
            .iter()
            .find(|f| f.name == fn_name)
            .unwrap_or_else(|| panic!("fn {fn_name} not found"));
        let spans = body_loop_spans(src, &toks, def.body);
        (toks, spans)
    }

    fn tok_at(toks: &[Token], src: &str, name: &str) -> usize {
        toks.iter()
            .position(|t| t.kind == TokKind::Ident && t.is_ident(src, name))
            .unwrap_or_else(|| panic!("token {name} not found"))
    }

    #[test]
    fn recovers_for_while_and_bare_loop_bodies() {
        let src = "fn f(v: &[u32]) {\n\
                   let before = 0;\n\
                   for x in v { step(x); }\n\
                   while cond() { tick(); }\n\
                   loop { spin(); break; }\n\
                   let after = 0;\n\
                   }\n";
        let (toks, spans) = spans_of(src, "f");
        assert_eq!(spans.len(), 3, "{spans:?}");
        assert!(in_loop(&spans, tok_at(&toks, src, "step")));
        assert!(in_loop(&spans, tok_at(&toks, src, "tick")));
        assert!(in_loop(&spans, tok_at(&toks, src, "spin")));
        assert!(!in_loop(&spans, tok_at(&toks, src, "before")));
        assert!(!in_loop(&spans, tok_at(&toks, src, "after")));
    }

    #[test]
    fn nested_loops_both_contain_the_inner_site() {
        let src = "fn f(n: usize) {\n\
                   for i in 0..n { while more(i) { inner(i); } }\n\
                   }\n";
        let (toks, spans) = spans_of(src, "f");
        assert_eq!(spans.len(), 2, "{spans:?}");
        let inner = tok_at(&toks, src, "inner");
        assert!(spans.iter().all(|&(a, b)| inner > a && inner < b));
    }

    #[test]
    fn while_let_headers_arm_the_right_brace() {
        let src = "fn f(q: &mut Q) {\n\
                   while let Some(x) = q.front() { drain(x); }\n\
                   settle();\n\
                   }\n";
        let (toks, spans) = spans_of(src, "f");
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert!(in_loop(&spans, tok_at(&toks, src, "drain")));
        assert!(!in_loop(&spans, tok_at(&toks, src, "settle")));
    }

    #[test]
    fn loop_free_body_yields_no_spans() {
        let src = "fn f() { if cond() { a(); } else { b(); } }\n";
        let (_, spans) = spans_of(src, "f");
        assert!(spans.is_empty(), "{spans:?}");
    }
}
