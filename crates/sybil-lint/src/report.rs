//! Lint findings and the two output formats (human, `--format json`).
//!
//! JSON is emitted by hand (stable key order, zero dependencies) so the
//! machine-readable contract is fully controlled by this module: an
//! object with `violations`, `allowed`, and `unused_allowlist_entries`
//! arrays, each finding carrying `rule`, `path`, `line`, `col`,
//! `message`, `snippet`, and (for the semantic S-series) a `trace` array
//! holding the call chain that explains the finding, one edge per entry.

use crate::allowlist::AllowEntry;

/// One rule violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule code, a row of [`crate::rules::RULES`].
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed source line the finding points at.
    pub snippet: String,
    /// Call-chain explanation (empty for the per-file D-rules).
    /// Each entry is one step, e.g. `a::entry calls a::helper at src/lib.rs:3`.
    pub trace: Vec<String>,
}

/// A full lint run: partitioned findings plus scan metadata.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings not covered by the allowlist — these fail the build.
    pub violations: Vec<Finding>,
    /// Findings covered by an allowlist entry (justification attached).
    pub allowed: Vec<(Finding, String)>,
    /// Allowlist entries that matched nothing — stale, should be pruned.
    pub unused_allowlist: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Exit status the CLI should use: nonzero iff unallowlisted
    /// violations exist.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Render the report for terminals. One line per finding plus the
/// source snippet, rustc-style.
pub fn render_human(r: &Report) -> String {
    let mut s = String::new();
    for f in &r.violations {
        s.push_str(&format!(
            "error[{}]: {}\n  --> {}:{}:{}\n   | {}\n",
            f.rule, f.message, f.path, f.line, f.col, f.snippet
        ));
        for step in &f.trace {
            s.push_str(&format!("   = note: {step}\n"));
        }
    }
    for (f, why) in &r.allowed {
        s.push_str(&format!(
            "allowed[{}]: {}:{}:{} ({})\n",
            f.rule, f.path, f.line, f.col, why
        ));
    }
    for e in &r.unused_allowlist {
        s.push_str(&format!(
            "warning: unused allowlist entry rule={} path={} — prune it from lint.toml\n",
            e.rule, e.path
        ));
    }
    s.push_str(&format!(
        "sybil-lint: {} violation{}, {} allowed, {} files scanned\n",
        r.violations.len(),
        if r.violations.len() == 1 { "" } else { "s" },
        r.allowed.len(),
        r.files_scanned
    ));
    s
}

/// Render the report as a single JSON object (stable key order).
pub fn render_json(r: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"tool\": \"sybil-lint\",\n");
    s.push_str(&format!("  \"files_scanned\": {},\n", r.files_scanned));
    s.push_str(&format!("  \"clean\": {},\n", r.is_clean()));
    s.push_str("  \"violations\": [");
    push_findings(&mut s, r.violations.iter().map(|f| (f, None)));
    s.push_str("],\n  \"allowed\": [");
    push_findings(&mut s, r.allowed.iter().map(|(f, j)| (f, Some(j.as_str()))));
    s.push_str("],\n  \"unused_allowlist_entries\": [");
    for (i, e) in r.unused_allowlist.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}}}",
            json_str(&e.rule),
            json_str(&e.path)
        ));
    }
    if !r.unused_allowlist.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn push_findings<'a, I>(s: &mut String, findings: I)
where
    I: Iterator<Item = (&'a Finding, Option<&'a str>)>,
{
    let mut first = true;
    let mut any = false;
    for (f, justification) in findings {
        if !first {
            s.push(',');
        }
        first = false;
        any = true;
        s.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
             \"message\": {}, \"snippet\": {}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message),
            json_str(&f.snippet)
        ));
        if !f.trace.is_empty() {
            s.push_str(", \"trace\": [");
            for (i, step) in f.trace.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_str(step));
            }
            s.push(']');
        }
        if let Some(j) = justification {
            s.push_str(&format!(", \"justification\": {}", json_str(j)));
        }
        s.push('}');
    }
    if any {
        s.push_str("\n  ");
    }
}

/// Escape a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Report {
        Report {
            violations: vec![Finding {
                rule: "D001",
                path: "crates/x/src/a.rs".into(),
                line: 3,
                col: 9,
                message: "unordered iteration".into(),
                snippet: "for (k, v) in &m {".into(),
                trace: vec!["x::f calls x::g at crates/x/src/a.rs:3".into()],
            }],
            allowed: vec![(
                Finding {
                    rule: "D003",
                    path: "crates/y/src/b.rs".into(),
                    line: 7,
                    col: 1,
                    message: "Mutex".into(),
                    snippet: "use std::sync::Mutex;".into(),
                    trace: Vec::new(),
                },
                "memo cache; value-identical under any interleaving".into(),
            )],
            unused_allowlist: vec![],
            files_scanned: 2,
        }
    }

    #[test]
    fn human_output_names_rule_file_line() {
        let s = render_human(&demo());
        assert!(s.contains("error[D001]"), "{s}");
        assert!(s.contains("crates/x/src/a.rs:3:9"), "{s}");
        assert!(s.contains("allowed[D003]"), "{s}");
        assert!(s.contains("1 violation,"), "{s}");
        assert!(s.contains("   = note: x::f calls x::g"), "{s}");
    }

    #[test]
    fn json_output_is_machine_readable() {
        let s = render_json(&demo());
        assert!(s.contains("\"rule\": \"D001\""), "{s}");
        assert!(s.contains("\"line\": 3"), "{s}");
        assert!(s.contains("\"clean\": false"), "{s}");
        assert!(s.contains("\"justification\": \"memo cache"), "{s}");
        assert!(
            s.contains("\"trace\": [\"x::f calls x::g at crates/x/src/a.rs:3\"]"),
            "{s}"
        );
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
