//! Fixture-corpus tests for the per-file rules: every code is exercised
//! against a good and a bad snippet, asserting exact rule codes, file, and
//! line in both the human and `--format json` renderings. The `d004_*`
//! tests keep the retired code's fixtures and show S101 reports the same
//! lines.

use std::path::{Path, PathBuf};
use sybil_lint::allowlist;
use sybil_lint::report::{render_human, render_json, Report};
use sybil_lint::workspace::{run, SourceFile};
use sybil_lint::{check_file, FileCtx, FileKind, Finding};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint one fixture file as library code of a fictitious crate.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let rel = format!("fixtures/{name}");
    let src = std::fs::read_to_string(fixture_dir().join(name)).expect("fixture exists");
    check_file(&FileCtx {
        rel_path: &rel,
        crate_name: "fixture",
        kind: FileKind::Lib,
        src: &src,
    })
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn d001_bad_flags_exact_lines() {
    let f = lint_fixture("d001_bad.rs");
    assert_eq!(lines_of(&f, "D001"), vec![8, 12, 16], "{f:#?}");
    assert!(f.iter().all(|f| f.rule == "D001"), "only D001 expected: {f:#?}");
    assert!(f.iter().all(|f| f.path == "fixtures/d001_bad.rs"));
}

#[test]
fn d001_good_is_clean() {
    let f = lint_fixture("d001_good.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn d002_bad_flags_exact_lines() {
    let f = lint_fixture("d002_bad.rs");
    assert_eq!(lines_of(&f, "D002"), vec![5, 10], "{f:#?}");
}

#[test]
fn d002_good_is_clean() {
    assert!(lint_fixture("d002_good.rs").is_empty());
}

#[test]
fn d002_exempts_repro_cli() {
    let src = std::fs::read_to_string(fixture_dir().join("d002_bad.rs")).unwrap();
    let repro = check_file(&FileCtx {
        rel_path: "crates/repro/src/bin/repro.rs",
        crate_name: "sybil-repro",
        kind: FileKind::Bin,
        src: &src,
    });
    assert!(repro.iter().all(|f| f.rule != "D002"), "{repro:#?}");
}

#[test]
fn d003_bad_flags_exact_lines() {
    let f = lint_fixture("d003_bad.rs");
    assert_eq!(lines_of(&f, "D003"), vec![5, 10, 13], "{f:#?}");
}

#[test]
fn d003_good_is_clean() {
    assert!(lint_fixture("d003_good.rs").is_empty());
}

#[test]
fn d003_exempts_par_module() {
    let src = std::fs::read_to_string(fixture_dir().join("d003_bad.rs")).unwrap();
    let f = check_file(&FileCtx {
        rel_path: "crates/osn-graph/src/par.rs",
        crate_name: "osn-graph",
        kind: FileKind::Lib,
        src: &src,
    });
    assert!(f.iter().all(|f| f.rule != "D003"), "{f:#?}");
}

#[test]
fn d004_bad_flags_exact_lines_and_skips_tests() {
    let f = lint_fixture("d004_bad.rs");
    assert_eq!(lines_of(&f, "S101"), vec![5, 9, 13], "{f:#?}");
}

#[test]
fn d004_good_is_clean() {
    assert!(lint_fixture("d004_good.rs").is_empty());
}

#[test]
fn d004_does_not_apply_to_binaries() {
    let src = std::fs::read_to_string(fixture_dir().join("d004_bad.rs")).unwrap();
    let f = check_file(&FileCtx {
        rel_path: "crates/x/src/bin/tool.rs",
        crate_name: "x",
        kind: FileKind::Bin,
        src: &src,
    });
    assert!(f.iter().all(|f| f.rule != "S101"), "{f:#?}");
}

#[test]
fn d005_missing_vs_present() {
    for (dir, expect) in [("d005_missing", 1usize), ("d005_present", 0usize)] {
        let rel = format!("fixtures/{dir}/src/lib.rs");
        let src =
            std::fs::read_to_string(fixture_dir().join(dir).join("src/lib.rs")).unwrap();
        let f = check_file(&FileCtx {
            rel_path: &rel,
            crate_name: dir,
            kind: FileKind::Lib,
            src: &src,
        });
        let d005: Vec<_> = f.iter().filter(|f| f.rule == "D005").collect();
        assert_eq!(d005.len(), expect, "{dir}: {f:#?}");
        if expect == 1 {
            assert_eq!(d005[0].line, 1);
            assert_eq!(d005[0].path, rel);
        }
    }
}

#[test]
fn d006_bad_flags_exact_lines() {
    let f = lint_fixture("d006_bad.rs");
    assert_eq!(lines_of(&f, "D006"), vec![5, 10, 15], "{f:#?}");
}

#[test]
fn d006_good_is_clean() {
    assert!(lint_fixture("d006_good.rs").is_empty());
}

// ---------------------------------------------------------------------
// Output formats: exact rule/file/line in human and JSON renderings.

fn report_for(name: &str) -> Report {
    let files = vec![SourceFile {
        abs: fixture_dir().join(name),
        rel: format!("fixtures/{name}"),
        crate_name: "fixture".into(),
        kind: FileKind::Lib,
    }];
    run(&files, &allowlist::Allowlist::default()).unwrap()
}

#[test]
fn human_output_has_rule_file_line() {
    let rep = report_for("d001_bad.rs");
    let human = render_human(&rep);
    assert!(human.contains("error[D001]"), "{human}");
    assert!(human.contains("--> fixtures/d001_bad.rs:8:"), "{human}");
    assert!(human.contains("--> fixtures/d001_bad.rs:12:"), "{human}");
    assert!(human.contains("--> fixtures/d001_bad.rs:16:"), "{human}");
    assert!(human.contains("3 violations"), "{human}");
}

#[test]
fn json_output_has_rule_file_line() {
    let rep = report_for("d002_bad.rs");
    let json = render_json(&rep);
    assert!(json.contains("\"rule\": \"D002\""), "{json}");
    assert!(json.contains("\"path\": \"fixtures/d002_bad.rs\""), "{json}");
    assert!(json.contains("\"line\": 5"), "{json}");
    assert!(json.contains("\"line\": 10"), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
}

// ---------------------------------------------------------------------
// Allowlist behavior end-to-end.

#[test]
fn allowlist_moves_findings_to_allowed_and_reports_unused() {
    let toml = r#"
[[allow]]
rule = "D002"
path = "fixtures/d002_bad.rs"
justification = "fixture: timing lines reviewed for this test"

[[allow]]
rule = "D001"
path = "fixtures/never_matches.rs"
justification = "stale entry that matches nothing at all"
"#;
    let allow = allowlist::parse(toml).unwrap();
    let files = vec![SourceFile {
        abs: fixture_dir().join("d002_bad.rs"),
        rel: "fixtures/d002_bad.rs".into(),
        crate_name: "fixture".into(),
        kind: FileKind::Lib,
    }];
    let rep = run(&files, &allow).unwrap();
    assert!(rep.is_clean(), "{rep:#?}");
    assert_eq!(rep.allowed.len(), 2);
    assert_eq!(rep.unused_allowlist.len(), 1);
    assert_eq!(rep.unused_allowlist[0].path, "fixtures/never_matches.rs");
    let json = render_json(&rep);
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(json.contains("never_matches.rs"), "{json}");
}

/// A root pattern no function answers to silences its rule for that
/// root; S105 names each one at the line of its key, and says nothing of
/// the patterns (an exact name, a prefix) that still match.
#[test]
fn unmatched_root_patterns_are_s105_errors() {
    let toml = std::fs::read_to_string(fixture_dir().join("roots_unmatched.toml")).unwrap();
    let allow = allowlist::parse(&toml).unwrap();
    let file = |disk: &str, kind| SourceFile {
        abs: fixture_dir().join("cost_alloc_bad").join(disk),
        rel: format!("crates/cost_alloc_bad/src/{disk}"),
        crate_name: "cost_alloc_bad".into(),
        kind,
    };
    let files = [
        file("lib.rs", FileKind::Lib),
        file("scan.rs", FileKind::Lib),
        file("use_api.rs", FileKind::Bin),
    ];
    let rep = sybil_lint::workspace::run_workspace(&files, &allow).unwrap();
    let s105: Vec<(&str, u32)> = rep
        .violations
        .iter()
        .filter(|f| f.rule == "S105")
        .map(|f| (f.snippet.as_str(), f.line))
        .collect();
    assert_eq!(
        s105,
        [("cost_alloc_bad::journal::*", 4), ("cost_alloc_bad::serve_epoch", 7)],
        "{rep:#?}"
    );
    assert!(rep.violations.iter().all(|f| f.path != "lint.toml" || f.message.contains(&f.snippet)));
    // Only the workspace run has the whole function table to ask.
    let partial = run(&files, &allow).unwrap();
    assert!(partial.violations.iter().all(|f| f.rule != "S105"));
}

// ---------------------------------------------------------------------
// The acceptance gate: the real workspace is clean under lint.toml —
// token rules AND the semantic S-series, including S105 staleness — and
// the fixtures directory is never swept into a workspace scan.

#[test]
fn real_workspace_is_clean() {
    let root = sybil_lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = sybil_lint::workspace::discover(&root).unwrap();
    assert!(files.iter().all(|f| !f.rel.contains("/fixtures/")));
    let allow = allowlist::parse(
        &std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists"),
    )
    .expect("lint.toml parses");
    let rep = sybil_lint::workspace::run_workspace(&files, &allow).unwrap();
    assert!(
        rep.is_clean(),
        "workspace must lint clean:\n{}",
        render_human(&rep)
    );
    assert!(
        rep.unused_allowlist.is_empty(),
        "stale lint.toml entries: {:#?}",
        rep.unused_allowlist
    );
}
