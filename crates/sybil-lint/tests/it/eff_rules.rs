//! Effect-rule fixture tests (S109, S110, S119): every fixture
//! asserts the exact call chain its finding carries — including a
//! trait-object edge and a `par::` closure edge. The fixtures of the
//! retired S111 and S112 stay, and show D001 and D003 flag the same
//! `path:line`.

use sybil_lint::costs::HotPathConfig;
use sybil_lint::effects::EffectConfig;
use sybil_lint::report::Finding;

use crate::support::{fixture_crate, model_findings};

/// Every finding on a fixture with the given effect config.
fn all_findings(name: &str, layout: &[(&str, &str)], cfg: &EffectConfig) -> Vec<Finding> {
    let files = fixture_crate(name, name, layout);
    model_findings(&files, cfg, &HotPathConfig::default())
}

/// The S-series findings on a fixture (the D-series has its own fixtures
/// in `lint_rules.rs`).
fn eff_findings(name: &str, layout: &[(&str, &str)], cfg: &EffectConfig) -> Vec<Finding> {
    let mut f = all_findings(name, layout, cfg);
    f.retain(|f| f.rule.starts_with('S'));
    f
}

fn cfg(clockless: &[&str], io_free: &[&str]) -> EffectConfig {
    let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    EffectConfig {
        clockless_roots: v(clockless),
        io_free_roots: v(io_free),
    }
}

const CLOCK: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("tick.rs", "src/tick.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];
const TRAIT: &[(&str, &str)] = &[("lib.rs", "src/lib.rs"), ("use_api.rs", "tests/use_api.rs")];
const PAR: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("cfg.rs", "src/cfg.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];
const IO: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("journal.rs", "src/journal.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];
const FAULT: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("plane.rs", "src/plane.rs"),
    ("journal.rs", "src/journal.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];
const EXPORT: &[(&str, &str)] = &[
    ("lib.rs", "src/lib.rs"),
    ("export.rs", "src/export.rs"),
    ("use_api.rs", "tests/use_api.rs"),
];
const ONE: &[(&str, &str)] = &[("lib.rs", "src/lib.rs"), ("use_api.rs", "tests/use_api.rs")];

// ---------------------------------------------------------------------
// S109: wall-clock/env/thread-id effects reachable from clockless roots.

#[test]
fn s109_clock_reports_two_edge_chain() {
    let f = eff_findings("eff_clock_bad", CLOCK, &cfg(&["eff_clock_bad::serve"], &[]));
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S109");
    assert_eq!(v.path, "crates/eff_clock_bad/src/tick.rs");
    assert_eq!(v.line, 8);
    assert_eq!(
        v.message,
        "`Instant::now()` (wall-clock read) is reachable from \
         deterministic-core root `eff_clock_bad::serve` (2 calls away); \
         inject the value at the boundary (see serve_timed) or allowlist \
         with the invariant that keeps replay bit-identical"
    );
    assert_eq!(
        v.trace,
        vec![
            "eff_clock_bad::serve calls eff_clock_bad::tick::advance at \
             crates/eff_clock_bad/src/lib.rs:10"
                .to_string(),
            "eff_clock_bad::tick::advance calls eff_clock_bad::tick::now_ms at \
             crates/eff_clock_bad/src/tick.rs:4"
                .to_string(),
            "eff_clock_bad::tick::now_ms reads the wall clock via `Instant::now()` at \
             crates/eff_clock_bad/src/tick.rs:8"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s109_silent_without_root_config() {
    let f = eff_findings("eff_clock_bad", CLOCK, &EffectConfig::default());
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn s109_trait_object_edge() {
    let f = eff_findings(
        "eff_trait_bad",
        TRAIT,
        &cfg(&["eff_trait_bad::replay"], &[]),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S109");
    assert_eq!(v.path, "crates/eff_trait_bad/src/lib.rs");
    assert_eq!(v.line, 14);
    assert_eq!(
        v.message,
        "`SystemTime` (wall-clock read) is reachable from \
         deterministic-core root `eff_trait_bad::replay` (1 call away); \
         inject the value at the boundary (see serve_timed) or allowlist \
         with the invariant that keeps replay bit-identical"
    );
    assert_eq!(
        v.trace,
        vec![
            "eff_trait_bad::replay calls eff_trait_bad::Wall::sample at \
             crates/eff_trait_bad/src/lib.rs:20"
                .to_string(),
            "eff_trait_bad::Wall::sample reads the wall clock via `SystemTime` at \
             crates/eff_trait_bad/src/lib.rs:14"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s109_par_closure_edge_is_annotated() {
    let f = eff_findings("eff_par_bad", PAR, &cfg(&["eff_par_bad::sweep"], &[]));
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S109");
    assert_eq!(v.path, "crates/eff_par_bad/src/cfg.rs");
    assert_eq!(v.line, 2);
    assert_eq!(
        v.message,
        "`env::var` (environment read) is reachable from \
         deterministic-core root `eff_par_bad::sweep` (2 calls away); \
         inject the value at the boundary (see serve_timed) or allowlist \
         with the invariant that keeps replay bit-identical"
    );
    assert_eq!(
        v.trace,
        vec![
            "eff_par_bad::sweep calls eff_par_bad::seed_of from inside the \
             `par::map_slice` closure at crates/eff_par_bad/src/lib.rs:7"
                .to_string(),
            "eff_par_bad::seed_of calls eff_par_bad::cfg::seed at \
             crates/eff_par_bad/src/lib.rs:11"
                .to_string(),
            "eff_par_bad::cfg::seed reads the environment via `env::var` at \
             crates/eff_par_bad/src/cfg.rs:2"
                .to_string(),
        ],
        "{v:#?}"
    );
}

// ---------------------------------------------------------------------
// S110: IO effects reachable from the epoch-barrier critical path.

#[test]
fn s110_io_write_reports_chain() {
    let f = eff_findings("eff_io_bad", IO, &cfg(&[], &["eff_io_bad::step"]));
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S110");
    assert_eq!(v.path, "crates/eff_io_bad/src/journal.rs");
    assert_eq!(v.line, 2);
    assert_eq!(
        v.message,
        "`fs::write` (IO write) is reachable from epoch-barrier path root \
         `eff_io_bad::step` (1 call away); hoist the IO out of the barrier \
         (stage bytes before, flush after) or allowlist with the blocking bound"
    );
    assert_eq!(
        v.trace,
        vec![
            "eff_io_bad::step calls eff_io_bad::journal::record at \
             crates/eff_io_bad/src/lib.rs:6"
                .to_string(),
            "eff_io_bad::journal::record performs IO write via `fs::write` at \
             crates/eff_io_bad/src/journal.rs:2"
                .to_string(),
        ],
        "{v:#?}"
    );
}

// ---------------------------------------------------------------------
// S110 over the production fault-plane surface (the trait's default
// hooks), rooted by module pattern like the real `sybil-serve::fault::*`
// entry of `io_free`.

#[test]
fn s110_fault_plane_default_hook_reaching_io_reports_chain() {
    let f = eff_findings(
        "eff_fault_bad",
        FAULT,
        &cfg(&[], &["eff_fault_bad::plane::*"]),
    );
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S110");
    assert_eq!(v.path, "crates/eff_fault_bad/src/journal.rs");
    assert_eq!(v.line, 2);
    assert_eq!(
        v.message,
        "`fs::write` (IO write) is reachable from epoch-barrier path root \
         `eff_fault_bad::plane::epoch_commit` (1 call away); hoist the IO out \
         of the barrier (stage bytes before, flush after) or allowlist with \
         the blocking bound"
    );
    assert_eq!(
        v.trace,
        vec![
            "eff_fault_bad::plane::epoch_commit calls eff_fault_bad::journal::flush at \
             crates/eff_fault_bad/src/plane.rs:9"
                .to_string(),
            "eff_fault_bad::journal::flush performs IO write via `fs::write` at \
             crates/eff_fault_bad/src/journal.rs:2"
                .to_string(),
        ],
        "{v:#?}"
    );
}

#[test]
fn s110_is_silent_for_an_io_free_plane() {
    // The clean fixture's `serve` designated as io-free root: no IO
    // anywhere in its reach, so S110 stays quiet.
    let f = eff_findings("eff_clean", ONE, &cfg(&[], &["eff_clean::serve"]));
    assert!(f.is_empty(), "{f:#?}");
}

// ---------------------------------------------------------------------
// Retired codes, redundancy shown on their own fixtures. S111 reported
// hash iteration reachable from a byte-stable sink: D001 reports the same
// site with no sink to designate. S112 reported a spawn outside two
// sanctioned files: D003 reports the same site outside one.

#[test]
fn s111_nondet_iter_reports_chain() {
    let mut f = all_findings("eff_export_bad", EXPORT, &EffectConfig::default());
    f.retain(|f| f.rule == "D001");
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    // The path:line S111 anchored its chain at.
    assert_eq!(v.path, "crates/eff_export_bad/src/export.rs");
    assert_eq!(v.line, 9);
    assert!(
        v.message
            .starts_with("unordered `for … in metrics` over a HashMap/HashSet"),
        "{v:#?}"
    );
}

#[test]
fn s112_spawn_outside_sanctioned_files() {
    let mut f = all_findings("eff_spawn_bad", ONE, &EffectConfig::default());
    f.retain(|f| f.rule == "D003");
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    // The path:line S112 reported.
    assert_eq!(v.path, "crates/eff_spawn_bad/src/lib.rs");
    assert_eq!(v.line, 5);
    assert_eq!(
        v.message,
        "`thread::scope` outside osn_graph::par; use the deterministic parallel map instead"
    );
}

// ---------------------------------------------------------------------
// S119: file IO on versioned state outside sybil-store's format module
// (no config needed — a site rule scoped to the persistence crate).

/// The S119 fixture masquerades as the real persistence crate: its files
/// map to `crates/sybil-store/src/…`, the path the rule is anchored to.
fn store_findings() -> Vec<Finding> {
    let layout: &[(&str, &str)] = &[
        ("lib.rs", "src/lib.rs"),
        ("format.rs", "src/format.rs"),
        ("store.rs", "src/store.rs"),
        ("use_api.rs", "tests/use_api.rs"),
    ];
    let files = fixture_crate("eff_store_bad", "sybil-store", layout);
    let mut f = model_findings(&files, &EffectConfig::default(), &HotPathConfig::default());
    f.retain(|f| f.rule.starts_with('S'));
    f
}

#[test]
fn s119_store_io_outside_the_format_module() {
    // Both fixture modules call `fs::write`; only the one outside
    // `format.rs` is a finding.
    let f = store_findings();
    assert_eq!(f.len(), 1, "{f:#?}");
    let v = &f[0];
    assert_eq!(v.rule, "S119");
    assert_eq!(v.path, "crates/sybil-store/src/store.rs");
    assert_eq!(v.line, 5);
    assert_eq!(
        v.message,
        "`fs::write` (IO write) touches versioned state outside \
         `sybil-store::format`; every file touch lives in format.rs, under \
         the SYBS/SYBJ headers, framing, and digests — express the \
         operation as a `format` helper so those rules apply to every byte \
         that reaches disk"
    );
    assert_eq!(
        v.trace,
        vec![
            "sybil-store::store::save_raw performs IO write via `fs::write` \
             at crates/sybil-store/src/store.rs:5, outside the format \
             module that owns the on-disk encoding"
                .to_string(),
        ],
        "{v:#?}"
    );
}

// ---------------------------------------------------------------------
// Clean fixture: designated as every kind of effect root, with no
// effects, it stays silent.

#[test]
fn eff_clean_is_silent_as_root_and_sink() {
    let roots = vec!["eff_clean::serve".to_string()];
    let every = EffectConfig {
        clockless_roots: roots.clone(),
        io_free_roots: roots,
    };
    let f = eff_findings("eff_clean", ONE, &every);
    assert!(f.is_empty(), "{f:#?}");
}
