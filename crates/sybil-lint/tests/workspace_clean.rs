//! The audit itself, in tier-1: this workspace under its real `lint.toml`
//! has no violation and no stale entry, the root tables are in force,
//! and `--fix-allowlist` would leave the file byte-identical.

use std::path::Path;
use sybil_lint::allowlist;
use sybil_lint::report::render_human;
use sybil_lint::workspace::{discover, find_root, run_workspace};

#[test]
fn workspace_lints_clean_with_roots_in_force() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = discover(&root).expect("discover");
    let content = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists");
    let allow = allowlist::parse(&content).expect("lint.toml parses");
    let rep = run_workspace(&files, &allow).expect("lint runs");
    assert!(
        rep.violations.is_empty(),
        "violations:\n{}",
        render_human(&rep)
    );
    assert!(
        rep.unused_allowlist.is_empty(),
        "stale entries: {:#?}",
        rep.unused_allowlist
    );
    // A reviewed finding under each root table proves the table loaded:
    // with `[effects.roots]` or `[hotpaths.roots]` empty, S109 and
    // S110, S113–S115 and S117 go quiet and the run above is vacuously
    // clean.
    for code in ["S109", "S113"] {
        assert!(
            rep.allowed.iter().any(|(f, _)| f.rule == code),
            "no allowed {code} finding"
        );
    }
    // Nothing stale, so the `--fix-allowlist` rewrite is the identity.
    assert_eq!(
        allowlist::remove_stale(&content, &rep.unused_allowlist),
        content
    );
}
