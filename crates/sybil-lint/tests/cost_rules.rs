//! Cost-rule fixture tests (S113–S117): every fixture asserts the exact
//! call chain its finding carries — including an allocation reached
//! through a trait-object edge, the drain-balanced negative case, and an
//! allowlisted scratch buffer.

use std::path::{Path, PathBuf};
use sybil_lint::costs::HotPathConfig;
use sybil_lint::effects::EffectConfig;
use sybil_lint::report::Finding;
use sybil_lint::rules::check_model;
use sybil_lint::workspace::{classify, run_workspace, SourceFile};
use sybil_lint::{allowlist, WorkspaceModel};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Source files of one fixture crate: `(fixture file, workspace-relative
/// suffix)` pairs mapped into a synthetic `crates/<name>/…` layout.
fn cost_files(name: &str, layout: &[(&str, &str)]) -> Vec<SourceFile> {
    layout
        .iter()
        .map(|(disk, rel_suffix)| {
            let rel = format!("crates/{name}/{rel_suffix}");
            SourceFile {
                abs: fixture_dir().join(name).join(disk),
                rel: rel.clone(),
                crate_name: name.to_string(),
                kind: classify(&rel),
            }
        })
        .collect()
}

fn cost_model(name: &str, layout: &[(&str, &str)]) -> WorkspaceModel {
    let files = cost_files(name, layout);
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(&f.abs).expect("fixture exists"))
        .collect();
    WorkspaceModel::build(&files, &sources)
}

fn hot(roots: &[&str]) -> HotPathConfig {
    HotPathConfig {
        per_event_roots: roots.iter().map(|s| s.to_string()).collect(),
    }
}

/// The S-series findings on a fixture with the given hot-path roots (the
/// D-series has its own fixtures in `lint_rules.rs`).
fn cost_findings(name: &str, layout: &[(&str, &str)], cfg: &HotPathConfig) -> Vec<Finding> {
    let mut f = check_model(&cost_model(name, layout), &EffectConfig::default(), cfg, true);
    f.retain(|f| f.rule.starts_with('S'));
    f
}

const ONE: &[(&str, &str)] = &[("lib.rs", "src/lib.rs"), ("use_api.rs", "tests/use_api.rs")];
const ALLOC: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("scan.rs", "src/scan.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];
const GROWTH: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("journal.rs", "src/journal.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];

// ---------------------------------------------------------------------
// S113: allocation in the loop context, two calls below the root — the
// allocating function has no loop of its own.

#[test]
fn s113_alloc_reports_two_edge_chain() {
    let f = cost_findings("cost_alloc_bad", ALLOC, &hot(&["cost_alloc_bad::serve"]));
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S113");
    assert_eq!(v.path, "crates/cost_alloc_bad/src/scan.rs");
    assert_eq!(v.line, 6);
    assert_eq!(
        v.message,
        "`Vec::new` (allocation) runs per event inside the hot loop under \
         hot-path root `cost_alloc_bad::serve` (2 calls away); hoist it \
         into a recycled scratch buffer owned by the caller, or allowlist \
         with the amortization invariant"
    );
    assert_eq!(
        v.trace,
        vec![
            "cost_alloc_bad::serve calls cost_alloc_bad::scan::step at \
             crates/cost_alloc_bad/src/lib.rs:13"
                .to_string(),
            "cost_alloc_bad::scan::step calls cost_alloc_bad::scan::row at \
             crates/cost_alloc_bad/src/scan.rs:2"
                .to_string(),
            "cost_alloc_bad::scan::row allocates via `Vec::new` at \
             crates/cost_alloc_bad/src/scan.rs:6"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s113_silent_without_root_config() {
    let f = cost_findings("cost_alloc_bad", ALLOC, &HotPathConfig::default());
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn s113_alloc_through_trait_object_edge() {
    let f = cost_findings(
        "cost_alloc_trait",
        ONE,
        &hot(&["cost_alloc_trait::serve"]),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S113");
    assert_eq!(v.path, "crates/cost_alloc_trait/src/lib.rs");
    assert_eq!(v.line, 15);
    assert_eq!(
        v.message,
        "`vec![…]` (allocation) runs per event inside the hot loop under \
         hot-path root `cost_alloc_trait::serve` (1 call away); hoist it \
         into a recycled scratch buffer owned by the caller, or allowlist \
         with the amortization invariant"
    );
    assert_eq!(
        v.trace,
        vec![
            "cost_alloc_trait::serve calls cost_alloc_trait::Dense::extract at \
             crates/cost_alloc_trait/src/lib.rs:22"
                .to_string(),
            "cost_alloc_trait::Dense::extract allocates via `vec![…]` at \
             crates/cost_alloc_trait/src/lib.rs:15"
                .to_string(),
        ],
        "{v:#?}"
    );
}

// ---------------------------------------------------------------------
// S114: growth with no drain on the same receiver, reached through a
// method edge from the root's loop.

#[test]
fn s114_growth_reports_chain() {
    let f = cost_findings("cost_growth_bad", GROWTH, &hot(&["cost_growth_bad::serve"]));
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S114");
    assert_eq!(v.path, "crates/cost_growth_bad/src/journal.rs");
    assert_eq!(v.line, 9);
    assert_eq!(
        v.message,
        "`entries.push(…)` (monotonic collection growth) runs per event \
         inside the hot loop under hot-path root `cost_growth_bad::serve` \
         (1 call away); drain the collection at the epoch barrier or \
         allowlist with the occupancy bound that caps it"
    );
    assert_eq!(
        v.trace,
        vec![
            "cost_growth_bad::serve calls cost_growth_bad::journal::Journal::record at \
             crates/cost_growth_bad/src/lib.rs:11"
                .to_string(),
            "cost_growth_bad::journal::Journal::record grows a collection via \
             `entries.push(…)` at crates/cost_growth_bad/src/journal.rs:9"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s114_drained_scratch_is_silent() {
    // push balanced by clear on the same receiver in the same function,
    // and the constructor sits outside the loop: no S113, no S114.
    let f = cost_findings(
        "cost_growth_drain",
        ONE,
        &hot(&["cost_growth_drain::serve"]),
    );
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// Allowlisted scratch: the S113 hit is suppressed by an entry whose
// justification spells out the amortization invariant.

#[test]
fn s113_allowlisted_scratch_is_suppressed_with_justification() {
    let toml = r#"
[hotpaths.roots]
per_event = [
    "cost_scratch_allow::serve",
]

[[allow]]
rule = "S113"
path = "crates/cost_scratch_allow/src/lib.rs"
justification = "fixture: one-element row, freed before the next iteration; peak heap is one u32"
"#;
    let allow = allowlist::parse(toml).expect("valid toml");
    assert_eq!(
        allow.hotpaths.per_event_roots,
        vec!["cost_scratch_allow::serve".to_string()]
    );
    let rep = run_workspace(&cost_files("cost_scratch_allow", ONE), &allow).unwrap();
    assert!(rep.is_clean(), "{:#?}", rep.violations);
    assert_eq!(rep.allowed.len(), 1, "{:#?}", rep.allowed);
    let (s113, just) = &rep.allowed[0];
    assert_eq!(s113.rule, "S113");
    assert_eq!(s113.path, "crates/cost_scratch_allow/src/lib.rs");
    assert!(just.contains("peak heap is one u32"));
    assert!(rep.unused_allowlist.is_empty());
}

// ---------------------------------------------------------------------
// S115: truncating casts anywhere in the hot set; widening casts on the
// surrounding lines never fire.

#[test]
fn s115_truncating_cast_flagged_widening_silent() {
    let f = cost_findings("cost_cast_bad", ONE, &hot(&["cost_cast_bad::serve"]));
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S115");
    assert_eq!(v.path, "crates/cost_cast_bad/src/lib.rs");
    assert_eq!(v.line, 10, "only the `as u32` line fires, not as usize/u64");
    assert_eq!(
        v.message,
        "`as u32` (truncating cast) is reachable from hot-path root \
         `cost_cast_bad::serve` (in its own body); convert with try_into \
         and a typed Error::IdOverflow, or allowlist with the range \
         invariant that rules out overflow"
    );
    assert_eq!(
        v.trace,
        vec![
            "cost_cast_bad::serve truncates via `as u32` at \
             crates/cost_cast_bad/src/lib.rs:10"
                .to_string(),
        ],
        "{v:#?}"
    );
}

// ---------------------------------------------------------------------
// S116 + S117: blocking in the root's own loop, recursion one call below.

#[test]
fn s116_blocking_and_s117_recursion_report_together() {
    let f = cost_findings("cost_block_rec", ONE, &hot(&["cost_block_rec::serve"]));
    assert_eq!(f.len(), 2, "{f:#?}");
    let block = &f[0];
    assert_eq!(block.rule, "S116");
    assert_eq!(block.path, "crates/cost_block_rec/src/lib.rs");
    assert_eq!(block.line, 12);
    assert_eq!(
        block.message,
        "`.lock()` (blocking acquisition) runs per event inside the hot \
         loop under hot-path root `cost_block_rec::serve` (in its own \
         body); stage the data before the loop or allowlist with the wait \
         bound"
    );
    assert_eq!(
        block.trace,
        vec![
            "cost_block_rec::serve blocks via `.lock()` at \
             crates/cost_block_rec/src/lib.rs:12"
                .to_string(),
        ],
        "{block:#?}"
    );
    let rec = &f[1];
    assert_eq!(rec.rule, "S117");
    assert_eq!(rec.path, "crates/cost_block_rec/src/lib.rs");
    assert_eq!(rec.line, 24);
    assert_eq!(
        rec.message,
        "`recursive cycle through `cost_block_rec::depth`` (recursion) is \
         reachable from hot-path root `cost_block_rec::serve` (1 call \
         away); bound the depth or rewrite iteratively; the hot path needs \
         statically bounded stack and work"
    );
    assert_eq!(
        rec.trace,
        vec![
            "cost_block_rec::serve calls cost_block_rec::depth at \
             crates/cost_block_rec/src/lib.rs:15"
                .to_string(),
            "cost_block_rec::depth recurses via `recursive cycle through \
             `cost_block_rec::depth`` at crates/cost_block_rec/src/lib.rs:24"
                .to_string(),
        ],
        "{rec:#?}"
    );
}
