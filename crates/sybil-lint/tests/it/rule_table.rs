//! The rule table cannot rot: every row of `RULES` has its text, the CLI
//! prints exactly the table, and every code fires on the fixture corpus.

use std::collections::BTreeSet;
use sybil_lint::allowlist;
use sybil_lint::rules::RULES;
use sybil_lint::workspace::{classify, run_workspace, SourceFile};

use crate::support::{fixture_dir, lint_cmd};

#[test]
fn every_row_has_its_text_and_the_cli_prints_the_table() {
    let lint = |args: &[&str]| {
        let out = lint_cmd().args(args).output().expect("spawn sybil-lint");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let listed = lint(&["--list-rules"]);
    let rows: Vec<String> = RULES
        .iter()
        .map(|r| format!("{}  {}", r.code, r.summary))
        .collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), rows);
    let codes: BTreeSet<&str> = RULES.iter().map(|r| r.code).collect();
    assert_eq!(codes.len(), RULES.len(), "a code appears twice");
    for rule in &RULES {
        assert!(!rule.summary.is_empty(), "{}", rule.code);
        assert!(
            rule.explain.starts_with(&format!("{} — ", rule.code)) && rule.explain.contains("\n\n"),
            "{}: `--explain` text is a headline and a body",
            rule.code
        );
        assert_eq!(
            lint(&["--explain", rule.code]),
            format!("{}\n", rule.explain)
        );
    }
}

/// The bad fixtures as one synthetic workspace: `(fixture file, crate,
/// path inside the crate)`. The S108 and S119 fixtures sit where those
/// rules look, the rest each in a crate of its own name.
const CORPUS: [(&str, &str, &str); 27] = [
    ("d001_bad.rs", "d001_bad", "src/emit.rs"),
    ("d002_bad.rs", "d002_bad", "src/stamp.rs"),
    ("d003_bad.rs", "d003_bad", "src/race.rs"),
    ("d004_bad.rs", "d004_bad", "src/first.rs"),
    ("d005_missing/src/lib.rs", "d005_missing", "src/lib.rs"),
    ("d006_bad.rs", "d006_bad", "src/roll.rs"),
    ("sem/s101_bad/lib.rs", "s101_bad", "src/lib.rs"),
    ("sem/s101_bad/deep.rs", "s101_bad", "src/deep.rs"),
    ("sem/s102_bad/lib.rs", "s102_bad", "src/lib.rs"),
    ("sem/s102_bad/math.rs", "s102_bad", "src/math.rs"),
    ("sem/s104_bad/lib.rs", "s104_bad", "src/lib.rs"),
    ("sem/s107_bad/lib.rs", "s107_bad", "src/lib.rs"),
    ("sem/s108_bad/mirror.rs", "sybil-serve", "src/mirror.rs"),
    ("eff_clock_bad/lib.rs", "eff_clock_bad", "src/lib.rs"),
    ("eff_clock_bad/tick.rs", "eff_clock_bad", "src/tick.rs"),
    ("eff_io_bad/lib.rs", "eff_io_bad", "src/lib.rs"),
    ("eff_io_bad/journal.rs", "eff_io_bad", "src/journal.rs"),
    ("eff_fault_bad/lib.rs", "eff_fault_bad", "src/lib.rs"),
    ("eff_fault_bad/plane.rs", "eff_fault_bad", "src/plane.rs"),
    (
        "eff_fault_bad/journal.rs",
        "eff_fault_bad",
        "src/journal.rs",
    ),
    ("eff_store_bad/store.rs", "sybil-store", "src/store.rs"),
    ("cost_alloc_bad/lib.rs", "cost_alloc_bad", "src/lib.rs"),
    ("cost_alloc_bad/scan.rs", "cost_alloc_bad", "src/scan.rs"),
    ("cost_growth_bad/lib.rs", "cost_growth_bad", "src/lib.rs"),
    (
        "cost_growth_bad/journal.rs",
        "cost_growth_bad",
        "src/journal.rs",
    ),
    ("cost_cast_bad/lib.rs", "cost_cast_bad", "src/lib.rs"),
    ("cost_block_rec/lib.rs", "cost_block_rec", "src/lib.rs"),
];

/// The corpus' roots, and one entry that matches nothing (S105).
const LINT_TOML: &str = r#"
[effects.roots]
clockless = ["eff_clock_bad::serve"]
io_free = ["eff_io_bad::step", "eff_fault_bad::plane::*"]

[hotpaths.roots]
per_event = [
    "cost_alloc_bad::serve",
    "cost_growth_bad::serve",
    "cost_cast_bad::serve",
    "cost_block_rec::serve",
]

[[allow]]
rule = "D001"
path = "crates/none/src/never.rs"
justification = "stale on purpose: S105 must report it"
"#;

#[test]
fn every_code_fires_on_the_fixture_corpus() {
    let fixtures = fixture_dir();
    let files: Vec<SourceFile> = CORPUS
        .iter()
        .map(|(disk, krate, inside)| {
            let rel = format!("crates/{krate}/{inside}");
            SourceFile {
                abs: fixtures.join(disk),
                kind: classify(&rel),
                rel,
                crate_name: krate.to_string(),
            }
        })
        .collect();
    let allow = allowlist::parse(LINT_TOML).expect("valid toml");
    let rep = run_workspace(&files, &allow).expect("lint runs");
    let fired: BTreeSet<&str> = rep.violations.iter().map(|f| f.rule).collect();
    let table: BTreeSet<&str> = RULES.iter().map(|r| r.code).collect();
    assert_eq!(
        fired, table,
        "codes without a firing fixture, or findings without a row"
    );
}
