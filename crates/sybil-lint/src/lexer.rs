//! A minimal Rust lexer: just enough token structure for pattern-based
//! lint rules, with byte-accurate line/column spans.
//!
//! The lexer understands the parts of Rust's lexical grammar that matter
//! for *not* producing false positives inside non-code text: line and
//! (nested) block comments, string/char literals including raw strings,
//! and lifetimes vs. char literals. Everything else is an identifier,
//! number, or single-character punctuation token. No parsing, no types —
//! rules work on the token stream directly.

/// Kind of a lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `unwrap`, ...).
    Ident,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (integer part only; `1.5` lexes as `1` `.` `5`).
    Num,
    /// String, raw-string, byte-string, or char literal.
    Str,
    /// Single punctuation character (`.`, `:`, `{`, `!`, ...).
    Punct(u8),
}

/// One token with its source span.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Byte offset of the first character in the source.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in bytes).
    pub col: u32,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// Is this an identifier with exactly this text?
    pub(crate) fn is_ident(&self, src: &str, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == name
    }

    /// Is this the given punctuation character?
    pub(crate) fn is_punct(&self, ch: u8) -> bool {
        self.kind == TokKind::Punct(ch)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Cursor<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Cursor<'s> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += c.len_utf8() as u32;
        }
        Some(c)
    }

    /// Consume a quoted run terminated by `"` (escapes honored).
    fn eat_string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => return,
                _ => {}
            }
        }
    }

    /// Consume a raw-string body: `#...#"..."#...#` with `hashes` hashes.
    fn eat_raw_string_body(&mut self, hashes: usize) {
        // Already past `r##"`-style opener; scan for `"` + hashes.
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut n = 0;
                while n < hashes && self.peek() == Some('#') {
                    self.bump();
                    n += 1;
                }
                if n == hashes {
                    return;
                }
            }
        }
    }
}

/// Lex `src` into tokens, discarding whitespace and comments.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek2() == Some('/') => {
                while let Some(c) = cur.peek() {
                    if c == '\n' {
                        break;
                    }
                    cur.bump();
                }
            }
            '/' if cur.peek2() == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek2()) {
                        (Some('/'), Some('*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            '"' => {
                cur.bump();
                cur.eat_string_body();
                out.push(Token {
                    kind: TokKind::Str,
                    start,
                    end: cur.pos,
                    line,
                    col,
                });
            }
            '\'' => {
                // Lifetime or char literal. `'\x'`, `'a'` are chars;
                // `'a` followed by a non-quote is a lifetime.
                cur.bump();
                let kind = match cur.peek() {
                    Some('\\') => {
                        cur.bump();
                        cur.bump();
                        if cur.peek() == Some('\'') {
                            cur.bump();
                        }
                        TokKind::Str
                    }
                    Some(c2) if is_ident_start(c2) => {
                        // Consume the ident run, then decide.
                        while cur.peek().is_some_and(is_ident_continue) {
                            cur.bump();
                        }
                        if cur.peek() == Some('\'') {
                            cur.bump();
                            TokKind::Str
                        } else {
                            TokKind::Lifetime
                        }
                    }
                    Some(_) => {
                        cur.bump();
                        if cur.peek() == Some('\'') {
                            cur.bump();
                        }
                        TokKind::Str
                    }
                    None => TokKind::Str,
                };
                out.push(Token {
                    kind,
                    start,
                    end: cur.pos,
                    line,
                    col,
                });
            }
            _ if is_ident_start(c) => {
                // Raw-/byte-string prefixes: r" r#" b" br" rb"... and raw
                // identifiers r#name.
                let mut it = cur.src[cur.pos..].char_indices();
                let mut prefix_len = 0usize;
                for (i, pc) in &mut it {
                    if pc == 'r' || pc == 'b' {
                        prefix_len = i + 1;
                        if prefix_len == 2 {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let after = cur.src.get(cur.pos + prefix_len..).unwrap_or("");
                let is_raw_ident = prefix_len == 1
                    && cur.bytes.get(cur.pos) == Some(&b'r')
                    && after.starts_with('#')
                    && after
                        .get(1..)
                        .and_then(|s| s.chars().next())
                        .is_some_and(is_ident_start);
                let is_str_start = prefix_len > 0
                    && !is_raw_ident
                    && (after.starts_with('"') || after.starts_with('#'))
                    && {
                        // For `#`, require `#...#"` so `b#foo` doesn't lex as
                        // a string (it isn't valid Rust anyway).
                        let trimmed = after.trim_start_matches('#');
                        trimmed.starts_with('"')
                    };
                if is_str_start {
                    for _ in 0..prefix_len {
                        cur.bump();
                    }
                    let mut hashes = 0usize;
                    while cur.peek() == Some('#') {
                        cur.bump();
                        hashes += 1;
                    }
                    cur.bump(); // opening quote
                    if hashes == 0 {
                        cur.eat_string_body();
                    } else {
                        cur.eat_raw_string_body(hashes);
                    }
                    out.push(Token {
                        kind: TokKind::Str,
                        start,
                        end: cur.pos,
                        line,
                        col,
                    });
                } else {
                    if is_raw_ident {
                        cur.bump(); // r
                        cur.bump(); // #
                    }
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    out.push(Token {
                        kind: TokKind::Ident,
                        start,
                        end: cur.pos,
                        line,
                        col,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                while cur
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    cur.bump();
                }
                out.push(Token {
                    kind: TokKind::Num,
                    start,
                    end: cur.pos,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.push(Token {
                    kind: TokKind::Punct(if c.is_ascii() { c as u8 } else { b'?' }),
                    start,
                    end: cur.pos,
                    line,
                    col,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("let mut x = a.b();");
        let texts: Vec<&str> = ks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "mut", "x", "=", "a", ".", "b", "(", ")", ";"]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a // HashMap\n/* HashSet /* nested */ */ b");
        let texts: Vec<&str> = ks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["a", "b"]);
    }

    #[test]
    fn strings_are_opaque() {
        let ks =
            kinds(r#"x("thread_rng()"); y(r#STR#);"#.replace("STR", "\"Instant::now\"").as_str());
        assert!(ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .all(|(_, t)| t == "x" || t == "y"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("fn f<'a>(c: char) { let x = 'x'; let nl = '\\n'; }");
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Str && t == "'x'"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Str && t == "'\\n'"));
    }

    #[test]
    fn line_and_col_tracking() {
        let src = "a\n  bb\n";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
