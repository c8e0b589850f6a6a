//! The `lint.toml` allowlist: reviewed exceptions with mandatory
//! justifications.
//!
//! Format — a sequence of `[[allow]]` tables, parsed by a tiny TOML-subset
//! reader (the workspace vendors no TOML crate):
//!
//! ```toml
//! [[allow]]
//! rule = "D003"
//! path = "crates/sybil-defense/src/ranking.rs"
//! # optional: restrict to one line
//! line = 28
//! justification = "memo cache behind a Mutex; results are value-identical"
//! ```
//!
//! `rule`, `path`, and a non-trivial `justification` (≥ 15 characters) are
//! required; unknown keys and malformed lines are hard errors so the file
//! cannot silently rot.
//!
//! Besides `[[allow]]` entries, the file designates the roots of the
//! effect rules S109/S110/S118 (see [`crate::effects`]):
//!
//! ```toml
//! [effects.roots]
//! clockless = ["sybil-serve::engine::serve", "osn-sim::simulate"]
//! io_free = [
//!     "sybil-serve::shard::*",
//! ]
//! ```
//!
//! and the per-event hot-path cores for the cost rules S113–S117 (see
//! [`crate::costs`]):
//!
//! ```toml
//! [hotpaths.roots]
//! per_event = ["sybil-serve::shard::ShardState::run_epoch"]
//! ```
//!
//! Values are arrays of fully qualified function names, exact or
//! trailing-`*` prefix patterns; arrays may span multiple lines.

use crate::costs::HotPathConfig;
use crate::effects::EffectConfig;
use crate::report::Finding;

/// One reviewed exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule code the entry silences, a row of [`crate::rules::RULES`].
    pub rule: String,
    /// Workspace-relative path the entry applies to.
    pub path: String,
    /// Optional 1-based line restriction; `None` covers the whole file.
    pub line: Option<u32>,
    /// Why this exception is sound — mandatory, non-trivial.
    pub justification: String,
    /// 1-based line of this entry's `[[allow]]` header in lint.toml —
    /// where S105 anchors staleness findings.
    pub defined_at: u32,
}

/// A parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
    /// Effect-rule roots from the `[effects.roots]` table.
    pub effects: EffectConfig,
    /// Cost-rule hot-path roots from the `[hotpaths.roots]` table.
    pub hotpaths: HotPathConfig,
    /// Every root pattern of both tables with the 1-based line of the
    /// key it is listed under — where S105 anchors a pattern that
    /// matches no function.
    pub roots_at: Vec<(String, u32)>,
}

impl Allowlist {
    /// The entry covering `f`, if any: rule and path must match exactly,
    /// and the entry's `line` (when present) must equal the finding's.
    pub fn matching(&self, f: &Finding) -> Option<&AllowEntry> {
        self.entries
            .iter()
            .find(|e| e.rule == f.rule && e.path == f.path && e.line.is_none_or(|l| l == f.line))
    }
}

/// Why `lint.toml` could not be parsed. Both variants carry a 1-based
/// line number so callers can render `file:line` diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A line that isn't valid on its own (bad key, bad string, unknown
    /// table…).
    Line {
        /// The offending line.
        line: usize,
        /// What went wrong there.
        message: String,
    },
    /// An `[[allow]]` entry that ended incomplete or invalid.
    Entry {
        /// The line the entry ends at.
        end_line: usize,
        /// What the entry is missing or violating.
        message: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Line { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Entry { end_line, message } => {
                write!(f, "entry ending at line {end_line}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> ParseError {
        ParseError::Line {
            line,
            message: message.into(),
        }
    }

    fn entry(end_line: usize, message: impl Into<String>) -> ParseError {
        ParseError::Entry {
            end_line,
            message: message.into(),
        }
    }
}

/// Which non-`[[allow]]` table the parser is inside.
#[derive(Clone, Copy, PartialEq, Eq)]
enum EffTable {
    Roots,
    HotRoots,
}

/// Parse `lint.toml` content. Errors carry the offending line number.
pub fn parse(content: &str) -> Result<Allowlist, ParseError> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut effects = EffectConfig::default();
    let mut hotpaths = HotPathConfig::default();
    let mut roots_at: Vec<(String, u32)> = Vec::new();
    let mut cur: Option<PartialEntry> = None;
    let mut table: Option<EffTable> = None;
    let lines: Vec<&str> = content.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = cur.take() {
                entries.push(p.finish(lineno)?);
            }
            table = None;
            cur = Some(PartialEntry {
                defined_at: lineno as u32,
                ..PartialEntry::default()
            });
            continue;
        }
        if line.starts_with('[') {
            if let Some(p) = cur.take() {
                entries.push(p.finish(lineno)?);
            }
            table = match line.as_str() {
                "[effects.roots]" => Some(EffTable::Roots),
                "[hotpaths.roots]" => Some(EffTable::HotRoots),
                _ => {
                    return Err(ParseError::at(
                        lineno,
                        format!(
                            "unknown table {line:?} (supported: [[allow]], \
                             [effects.roots], [hotpaths.roots])"
                        ),
                    ))
                }
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError::at(
                lineno,
                format!("expected `key = value`, got {line:?}"),
            ));
        };
        let (key, mut value) = (key.trim(), value.trim().to_string());
        if let Some(t) = table {
            // Root tables: every value is a string array, possibly
            // spanning multiple lines — accumulate until it closes.
            while !value.ends_with(']') && i < lines.len() {
                value.push(' ');
                value.push_str(strip_comment(lines[i]).trim());
                i += 1;
            }
            let pats = parse_string_array(&value, lineno)?;
            let slot = match (t, key) {
                (EffTable::Roots, "clockless") => &mut effects.clockless_roots,
                (EffTable::Roots, "io_free") => &mut effects.io_free_roots,
                (EffTable::Roots, "fault_plane") => &mut effects.fault_plane_roots,
                (EffTable::HotRoots, "per_event") => &mut hotpaths.per_event_roots,
                (EffTable::Roots, _) => {
                    return Err(ParseError::at(
                        lineno,
                        format!("unknown key {key:?} in [effects.roots] (allowed: clockless, io_free, fault_plane)"),
                    ))
                }
                (EffTable::HotRoots, _) => {
                    return Err(ParseError::at(
                        lineno,
                        format!("unknown key {key:?} in [hotpaths.roots] (allowed: per_event)"),
                    ))
                }
            };
            roots_at.extend(pats.iter().map(|p| (p.clone(), lineno as u32)));
            *slot = pats;
            continue;
        }
        let Some(p) = cur.as_mut() else {
            return Err(ParseError::at(
                lineno,
                format!("key {key:?} outside an [[allow]] table"),
            ));
        };
        match key {
            "rule" => p.rule = Some(parse_string(&value, lineno)?),
            "path" => p.path = Some(parse_string(&value, lineno)?),
            "justification" => p.justification = Some(parse_string(&value, lineno)?),
            "line" => {
                p.line = Some(value.parse::<u32>().map_err(|_| {
                    ParseError::at(
                        lineno,
                        format!("`line` must be an integer, got {value:?}"),
                    )
                })?)
            }
            _ => {
                return Err(ParseError::at(
                    lineno,
                    format!("unknown key {key:?} (allowed: rule, path, line, justification)"),
                ))
            }
        }
    }
    if let Some(p) = cur.take() {
        let end = lines.len();
        entries.push(p.finish(end)?);
    }
    Ok(Allowlist {
        entries,
        effects,
        hotpaths,
        roots_at,
    })
}

/// Parse a `["a", "b", …]` string array (already joined onto one line).
fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ParseError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| {
            ParseError::at(
                lineno,
                format!("expected a string array `[…]`, got {value:?}"),
            )
        })?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        if !rest.starts_with('"') {
            return Err(ParseError::at(
                lineno,
                format!("expected a double-quoted string in array, got {rest:?}"),
            ));
        }
        // Find the closing quote (the patterns are plain paths — no
        // escapes to honor, but reject embedded backslashes outright).
        let close = rest[1..].find('"').ok_or_else(|| {
            ParseError::at(lineno, "unterminated string in array".to_string())
        })? + 1;
        let s = &rest[1..close];
        if s.contains('\\') {
            return Err(ParseError::at(
                lineno,
                format!("escapes are not supported in effect patterns: {s:?}"),
            ));
        }
        out.push(s.to_string());
        rest = rest[close + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(ParseError::at(
                lineno,
                format!("expected `,` between array elements, got {rest:?}"),
            ));
        }
    }
    Ok(out)
}

#[derive(Default)]
struct PartialEntry {
    rule: Option<String>,
    path: Option<String>,
    line: Option<u32>,
    justification: Option<String>,
    defined_at: u32,
}

impl PartialEntry {
    fn finish(self, lineno: usize) -> Result<AllowEntry, ParseError> {
        let rule = self
            .rule
            .ok_or_else(|| ParseError::entry(lineno, "missing `rule`"))?;
        if !crate::rules::is_known_rule(&rule) {
            return Err(ParseError::entry(lineno, format!("unknown rule {rule:?}")));
        }
        let path = self
            .path
            .ok_or_else(|| ParseError::entry(lineno, "missing `path`"))?;
        let justification = self
            .justification
            .ok_or_else(|| ParseError::entry(lineno, "missing `justification`"))?;
        if justification.trim().len() < 15 {
            return Err(ParseError::entry(
                lineno,
                format!(
                    "justification {justification:?} is too short — explain *why* the \
                     exception is sound (≥ 15 chars)"
                ),
            ));
        }
        Ok(AllowEntry {
            rule,
            path,
            line: self.line,
            justification,
            defined_at: self.defined_at,
        })
    }
}

/// Rewrite `content` with the blocks of `stale` entries removed
/// (`--fix-allowlist`). A block runs from its `[[allow]]` header (plus any
/// comment lines directly above it) through its last key, including the
/// blank separator that follows. With no stale entries the result is
/// **byte-identical** to the input — the rewriter never reformats.
pub fn remove_stale(content: &str, stale: &[AllowEntry]) -> String {
    if stale.is_empty() {
        return content.to_string();
    }
    let headers: Vec<u32> = stale.iter().map(|e| e.defined_at).collect();
    let lines: Vec<&str> = content.lines().collect();
    let mut drop = vec![false; lines.len()];
    for &h in &headers {
        let h0 = h as usize - 1; // 0-based index of the [[allow]] header
        if h0 >= lines.len() {
            continue;
        }
        // Comment lines directly above the header belong to the block.
        let mut start = h0;
        while start > 0 && lines[start - 1].trim_start().starts_with('#') {
            start -= 1;
        }
        // The block ends before the next [[allow]] / [effects.*] table /
        // EOF, trailing blank separator included.
        let mut end = h0 + 1;
        while end < lines.len() && !lines[end].trim_start().starts_with('[') {
            end += 1;
        }
        while end > h0 + 1 && lines[end - 1].trim().is_empty() {
            end -= 1;
        }
        if end < lines.len() && lines[end].trim().is_empty() {
            end += 1; // eat exactly one separating blank line
        }
        for d in drop.iter_mut().take(end).skip(start) {
            *d = true;
        }
    }
    let mut out = String::with_capacity(content.len());
    for (i, l) in lines.iter().enumerate() {
        if !drop[i] {
            out.push_str(l);
            out.push('\n');
        }
    }
    if !content.ends_with('\n') {
        out.pop();
    }
    out
}

/// Strip a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Parse a double-quoted TOML string with basic escapes.
fn parse_string(value: &str, lineno: usize) -> Result<String, ParseError> {
    let v = value.trim();
    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
        return Err(ParseError::at(
            lineno,
            format!("expected a double-quoted string, got {value:?}"),
        ));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => {
                    return Err(ParseError::at(
                        lineno,
                        format!("unsupported escape `\\{other}`"),
                    ))
                }
                None => return Err(ParseError::at(lineno, "dangling escape")),
            }
        } else if c == '"' {
            return Err(ParseError::at(lineno, "unescaped quote inside string"));
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# reviewed exceptions
[[allow]]
rule = "D003"
path = "crates/sybil-defense/src/ranking.rs"
justification = "memo cache; results value-identical under any interleaving"

[[allow]]
rule = "S101"
path = "crates/core/src/eval.rs"
line = 12
justification = "index comes from the same vec's enumerate()"
"#;

    #[test]
    fn parses_entries() {
        let a = parse(GOOD).unwrap();
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].rule, "D003");
        assert_eq!(a.entries[1].line, Some(12));
    }

    #[test]
    fn matching_respects_line() {
        let a = parse(GOOD).unwrap();
        let mk = |line| Finding {
            rule: "S101",
            path: "crates/core/src/eval.rs".into(),
            line,
            col: 1,
            message: String::new(),
            snippet: String::new(),
            trace: Vec::new(),
        };
        assert!(a.matching(&mk(12)).is_some());
        assert!(a.matching(&mk(13)).is_none());
    }

    #[test]
    fn rejects_missing_justification() {
        let err = parse("[[allow]]\nrule = \"D001\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(matches!(err, ParseError::Entry { end_line: 3, .. }), "{err}");
        assert!(err.to_string().contains("missing `justification`"), "{err}");
    }

    #[test]
    fn rejects_trivial_justification() {
        let err = parse(
            "[[allow]]\nrule = \"D001\"\npath = \"x.rs\"\njustification = \"because\"\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("too"), "{err}");
    }

    #[test]
    fn line_errors_carry_their_location() {
        let err = parse("[[allow]]\nrule = unquoted\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::Line {
                line: 2,
                message: "expected a double-quoted string, got \"unquoted\"".into()
            }
        );
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }

    #[test]
    fn tracks_defined_at_and_accepts_s_rules() {
        let a = parse(GOOD).unwrap();
        assert_eq!(a.entries[0].defined_at, 3);
        assert_eq!(a.entries[1].defined_at, 8);
        let s = parse(
            "[[allow]]\nrule = \"S101\"\npath = \"x.rs\"\njustification = \"invariant: index from enumerate\"\n",
        )
        .unwrap();
        assert_eq!(s.entries[0].rule, "S101");
    }

    #[test]
    fn remove_stale_is_byte_identical_when_nothing_is_stale() {
        assert_eq!(remove_stale(GOOD, &[]), GOOD);
    }

    #[test]
    fn remove_stale_drops_the_block_and_its_comment() {
        let a = parse(GOOD).unwrap();
        // Drop the first entry (with the comment line above it); keep the second.
        let out = remove_stale(GOOD, &a.entries[..1]);
        assert!(!out.contains("ranking.rs"), "{out}");
        assert!(!out.contains("# reviewed exceptions"), "{out}");
        assert!(out.contains("crates/core/src/eval.rs"), "{out}");
        let reparsed = parse(&out).unwrap();
        assert_eq!(reparsed.entries.len(), 1);
        assert_eq!(reparsed.entries[0].rule, "S101");
    }

    #[test]
    fn rejects_unknown_rule_and_keys() {
        assert!(parse("[[allow]]\nrule = \"D999\"\npath = \"x\"\njustification = \"long enough to pass\"\n").is_err());
        assert!(parse("[[allow]]\nfoo = \"bar\"\n").is_err());
    }
}
