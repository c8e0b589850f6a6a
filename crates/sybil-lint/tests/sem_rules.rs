//! S-series fixture tests: every semantic rule is exercised against a
//! good and a bad multi-file fixture crate, asserting the exact call
//! chains the findings carry — in the raw findings, the human rendering,
//! and the JSON rendering. Also covers S105 staleness and the
//! `--fix-allowlist` rewrite at the library level.

use std::path::{Path, PathBuf};
use sybil_lint::allowlist;
use sybil_lint::report::{render_human, render_json, Finding};
use sybil_lint::rules::check_model;
use sybil_lint::workspace::{classify, run_workspace, SourceFile};
use sybil_lint::WorkspaceModel;

fn sem_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sem")
}

/// Source files of one fixture crate: `(fixture file, workspace-relative
/// suffix)` pairs mapped into a synthetic `crates/<name>/…` layout.
fn sem_files(name: &str, layout: &[(&str, &str)]) -> Vec<SourceFile> {
    layout
        .iter()
        .map(|(disk, rel_suffix)| {
            let rel = format!("crates/{name}/{rel_suffix}");
            SourceFile {
                abs: sem_dir().join(name).join(disk),
                rel: rel.clone(),
                crate_name: name.to_string(),
                kind: classify(&rel),
            }
        })
        .collect()
}

/// The S-series findings on `files` with no root list designated (the
/// D-series has its own fixtures in `lint_rules.rs`).
fn semantic(files: &[SourceFile]) -> Vec<Finding> {
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(&f.abs).expect("fixture exists"))
        .collect();
    let model = WorkspaceModel::build(files, &sources);
    let mut f = check_model(&model, &Default::default(), &Default::default(), true);
    f.retain(|f| f.rule.starts_with('S'));
    f
}

/// Build the workspace model for a fixture crate and run the S-series.
fn sem_findings(name: &str, layout: &[(&str, &str)]) -> Vec<Finding> {
    semantic(&sem_files(name, layout))
}

const TWO_FILE: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("deep.rs", "src/deep.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];

const KERNEL: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("math.rs", "src/math.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];

const ONE_FILE: &[(&str, &str)] =
    &[("lib.rs", "src/lib.rs"), ("use_api.rs", "tests/use_api.rs")];

// ---------------------------------------------------------------------
// S101: panic reachability with the exact pub→panic call chain.

#[test]
fn s101_bad_reports_chain_from_pub_entry() {
    let f = sem_findings("s101_bad", TWO_FILE);
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S101");
    assert_eq!(v.path, "crates/s101_bad/src/deep.rs");
    assert_eq!(v.line, 4);
    assert_eq!(
        v.message,
        "`.expect()` is reachable from pub `s101_bad::entry` (1 call away); \
         propagate Result/Option or allowlist with the guarding invariant"
    );
    assert_eq!(
        v.trace,
        vec![
            "s101_bad::entry calls s101_bad::deep::pick at crates/s101_bad/src/lib.rs:6"
                .to_string(),
            "s101_bad::deep::pick panics via `.expect()` at crates/s101_bad/src/deep.rs:4"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s101_good_is_clean() {
    let f = sem_findings("s101_good", TWO_FILE);
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// S102: float reductions reachable from a par:: closure.

#[test]
fn s102_bad_reports_kernel_behind_par_entry() {
    let f = sem_findings("s102_bad", KERNEL);
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S102");
    assert_eq!(v.path, "crates/s102_bad/src/math.rs");
    assert_eq!(v.line, 6);
    assert_eq!(
        v.message,
        "float reduction `+=` runs under the parallel entry `par::map_slice`; \
         keep reductions off the par boundary or allowlist the kernel with \
         its ordering argument"
    );
    assert_eq!(
        v.trace,
        vec![
            "parallel entry `par::map_slice` at crates/s102_bad/src/lib.rs:6".to_string(),
            "closure calls s102_bad::math::dot".to_string(),
            "s102_bad::math::dot reduces floats via `+=` at crates/s102_bad/src/math.rs:6"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s102_closure_passed_by_name_to_map_owned_reports_chain() {
    let f = sem_findings("s102_byname", ONE_FILE);
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S102");
    assert_eq!(v.path, "crates/s102_byname/src/lib.rs");
    assert_eq!(v.line, 16);
    assert_eq!(
        v.message,
        "float reduction `sum` runs under the parallel entry `par::map_owned`; \
         keep reductions off the par boundary or allowlist the kernel with \
         its ordering argument"
    );
    assert_eq!(
        v.trace,
        vec![
            "parallel entry `par::map_owned` at crates/s102_byname/src/lib.rs:12".to_string(),
            "closure bound at crates/s102_byname/src/lib.rs:8 calls s102_byname::total"
                .to_string(),
            "s102_byname::total reduces floats via `sum` at crates/s102_byname/src/lib.rs:16"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s102_good_serial_reduction_is_clean() {
    // `total` reduces floats, but no par:: entry reaches it.
    let f = sem_findings("s102_good", KERNEL);
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// S104: dead exports, and usage from a test file reviving them.

#[test]
fn s104_bad_reports_dead_struct_and_fn() {
    let f = sem_findings("s104_bad", &[("lib.rs", "src/lib.rs")]);
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|v| v.rule == "S104"));
    assert_eq!((f[0].line, f[1].line), (5, 8), "{f:#?}");
    assert!(
        f[0].message.starts_with("pub struct `Orphan` is not named by any bin, test"),
        "{}",
        f[0].message
    );
    assert!(
        f[1].message
            .starts_with("pub fn `s104_bad::orphan_rate` is not named by any bin, test"),
        "{}",
        f[1].message
    );
    assert_eq!(
        f[1].trace,
        vec![
            "`s104_bad::orphan_rate` is exported at crates/s104_bad/src/lib.rs:8 but \
             only its own crate's library code ever names it"
                .to_string()
        ],
        "{f:#?}"
    );
}

#[test]
fn s104_good_test_usage_keeps_exports_alive() {
    let f = sem_findings(
        "s104_good",
        &[("lib.rs", "src/lib.rs"), ("api.rs", "tests/api.rs")],
    );
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// S107: stringly-typed error APIs and library-side process exits.

#[test]
fn s107_bad_reports_string_error_and_library_exit() {
    // `parse_level` returns Result<_, String> and `load_or_die` settles
    // an error with process::exit; the private helper, the Ok-side
    // String, and the #[cfg(test)] fn are all clean.
    let f = sem_findings("s107_bad", ONE_FILE);
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|v| v.rule == "S107"));
    assert!(f.iter().all(|v| v.path == "crates/s107_bad/src/lib.rs"));
    assert_eq!((f[0].line, f[1].line), (6, 26), "{f:#?}");
    assert_eq!(
        f[0].message,
        "pub fn `parse_level` returns Result<_, String>; a string error \
         cannot be matched on and carries no source — return a typed \
         error (see sybil_core::Error) and keep prose in Display"
    );
    assert_eq!(
        f[0].trace,
        vec![
            "`parse_level` declares a stringly-typed error at \
             crates/s107_bad/src/lib.rs:6; callers can only string-match or rewrap it"
                .to_string()
        ],
        "{f:#?}"
    );
    assert_eq!(
        f[1].message,
        "library code exits the process inside `unwrap_or_else`; \
         return the error and let the binary choose the exit code"
    );
    assert_eq!(
        f[1].trace,
        vec![
            "`unwrap_or_else` at crates/s107_bad/src/lib.rs:26 reaches \
             `process::exit`, killing the process from library code no caller \
             can intercept"
                .to_string()
        ],
        "{f:#?}"
    );
}

#[test]
fn s107_good_typed_errors_are_clean() {
    // Typed errors, pub(crate) internals, and a value fallback inside
    // unwrap_or_else raise nothing.
    let f = sem_findings("s107_good", ONE_FILE);
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// S108: hash containers keyed by account/packed-edge ids inside the
// three scale-critical modules.

/// Fixture files mapped onto explicit workspace-relative paths (S108 is
/// scoped by crate and path, so the synthetic `crates/<name>/…` layout
/// of [`sem_files`] does not apply).
fn s108_findings(name: &str, layout: &[(&str, &str)]) -> Vec<Finding> {
    let dir = sem_dir().join(name);
    let files: Vec<SourceFile> = layout
        .iter()
        .map(|(disk, rel)| SourceFile {
            abs: dir.join(disk),
            rel: rel.to_string(),
            crate_name: "sybil-serve".to_string(),
            kind: classify(rel),
        })
        .collect();
    semantic(&files)
}

#[test]
fn s108_bad_reports_id_keyed_containers() {
    // A HashSet<u64> field, a HashMap<u32, …> field, and a turbofish
    // tuple-keyed HashMap::<(u32, u32), …> are flagged; the String-keyed
    // map and the #[cfg(test)] scratch map are not.
    let f = s108_findings(
        "s108_bad",
        &[
            ("mirror.rs", "crates/sybil-serve/src/mirror.rs"),
            ("use_api.rs", "crates/sybil-serve/tests/use_api.rs"),
        ],
    );
    assert_eq!(f.len(), 3, "{f:#?}");
    assert!(f.iter().all(|v| v.rule == "S108"));
    assert!(f.iter().all(|v| v.path == "crates/sybil-serve/src/mirror.rs"));
    assert_eq!((f[0].line, f[1].line, f[2].line), (7, 8, 13), "{f:#?}");
    assert_eq!(
        f[0].message,
        "HashSet keyed by `u64` in a scale-critical module; use the flat \
         layouts (CSR row probes, the FlatDelta arena, sorted arrays) or \
         allowlist with the proven size bound"
    );
    assert!(
        f[1].message.starts_with("HashMap keyed by `u32`"),
        "{}",
        f[1].message
    );
    assert!(
        f[2].message.starts_with("HashMap keyed by `u32`"),
        "tuple keys report their first element: {}",
        f[2].message
    );
    assert_eq!(
        f[0].trace,
        vec![
            "`HashSet` keyed by `u64` at crates/sybil-serve/src/mirror.rs:7 \
             sits on the million-account hot path; this module's layout \
             contract is flat id-indexed arenas, not hash tables"
                .to_string()
        ],
        "{f:#?}"
    );
}

#[test]
fn s108_good_flat_layouts_and_other_modules_are_clean() {
    // The designated module uses flat layouts (bare import and inferred
    // `new()` name no key type); the id-keyed map lives in a
    // non-designated module of the same crate and raises nothing.
    let f = s108_findings(
        "s108_good",
        &[
            ("mirror.rs", "crates/sybil-serve/src/mirror.rs"),
            ("other.rs", "crates/sybil-serve/src/report.rs"),
            ("use_api.rs", "crates/sybil-serve/tests/use_api.rs"),
        ],
    );
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// Rule registry: the S-codes are first-class for allowlist validation.

#[test]
fn s_codes_are_known_rules() {
    for code in ["S101", "S102", "S104", "S105", "S107", "S108", "D001", "D006"] {
        assert!(sybil_lint::rules::is_known_rule(code), "{code}");
    }
    for retired in ["S103", "S106", "S111", "S112", "D004", "S999", "D999"] {
        assert!(!sybil_lint::rules::is_known_rule(retired), "{retired}");
    }
}

// ---------------------------------------------------------------------
// Call chains survive both renderings verbatim.

#[test]
fn chains_render_in_human_and_json_output() {
    let files = sem_files("s101_bad", TWO_FILE);
    let rep = run_workspace(&files, &allowlist::Allowlist::default()).unwrap();
    let human = render_human(&rep);
    assert!(human.contains("error[S101]"), "{human}");
    assert!(human.contains("--> crates/s101_bad/src/deep.rs:4:"), "{human}");
    assert!(
        human.contains(
            "   = note: s101_bad::entry calls s101_bad::deep::pick at \
             crates/s101_bad/src/lib.rs:6"
        ),
        "{human}"
    );
    assert!(
        human.contains(
            "   = note: s101_bad::deep::pick panics via `.expect()` at \
             crates/s101_bad/src/deep.rs:4"
        ),
        "{human}"
    );
    let json = render_json(&rep);
    assert!(json.contains("\"rule\": \"S101\""), "{json}");
    assert!(
        json.contains(
            "\"trace\": [\"s101_bad::entry calls s101_bad::deep::pick at \
             crates/s101_bad/src/lib.rs:6\", \"s101_bad::deep::pick panics via \
             `.expect()` at crates/s101_bad/src/deep.rs:4\"]"
        ),
        "{json}"
    );
}

// ---------------------------------------------------------------------
// S105 staleness and the --fix-allowlist rewrite, end to end.

#[test]
fn s105_flags_stale_entries_and_fix_allowlist_removes_them() {
    let toml = "\
# reviewed: empty input is rejected at the CLI boundary
[[allow]]
rule = \"S101\"
path = \"crates/s101_bad/src/deep.rs\"
justification = \"callers validate non-empty input at the boundary\"

# this one matches nothing and must be flagged at its [[allow]] line
[[allow]]
rule = \"S102\"
path = \"crates/s101_bad/src/never.rs\"
justification = \"stale entry kept around to test staleness\"
";
    let allow = allowlist::parse(toml).unwrap();
    let files = sem_files("s101_bad", TWO_FILE);
    let rep = run_workspace(&files, &allow).unwrap();

    // The matching entry absorbed the S101 finding.
    assert!(rep.violations.iter().all(|v| v.rule != "S101"), "{rep:#?}");
    assert!(rep.allowed.iter().any(|(v, _)| v.rule == "S101"));

    // The stale entry surfaced as an S105 error anchored in lint.toml.
    let s105: Vec<&Finding> = rep.violations.iter().filter(|v| v.rule == "S105").collect();
    assert_eq!(s105.len(), 1, "{rep:#?}");
    assert_eq!(s105[0].path, "lint.toml");
    assert_eq!(s105[0].line, 8, "anchored at the stale [[allow]] header");
    assert!(
        s105[0].message.contains("matched nothing this run"),
        "{}",
        s105[0].message
    );

    // remove_stale drops the stale block (and its comment); the surviving
    // entry still parses and still matches.
    let rewritten = allowlist::remove_stale(toml, &rep.unused_allowlist);
    assert!(!rewritten.contains("never.rs"), "{rewritten}");
    assert!(rewritten.contains("deep.rs"), "{rewritten}");
    let reparsed = allowlist::parse(&rewritten).unwrap();
    assert_eq!(reparsed.entries.len(), 1);
    let rep2 = run_workspace(&files, &reparsed).unwrap();
    assert!(rep2.violations.iter().all(|v| v.rule != "S105"), "{rep2:#?}");

    // Round trip: with nothing stale, the rewrite is byte-identical.
    assert_eq!(allowlist::remove_stale(&rewritten, &rep2.unused_allowlist), rewritten);
}
