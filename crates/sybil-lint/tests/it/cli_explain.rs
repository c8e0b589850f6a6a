//! CLI contracts. `--explain`: a known code prints the rationale and
//! exits 0; an unknown code exits 2 with the known-code list on stderr.
//! `--no-allowlist`: drops the `[[allow]]` entries of lint.toml and keeps
//! its root tables.

use std::path::{Path, PathBuf};

use crate::support::{fixture_dir, lint_cmd};

#[test]
fn explain_known_code_exits_zero_with_rationale() {
    let out = lint_cmd()
        .args(["--explain", "S113"])
        .output()
        .expect("spawn sybil-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("S113"), "{stdout}");
    assert!(stdout.contains("hot loop"), "{stdout}");
}

#[test]
fn explain_unknown_code_exits_two_with_known_list_on_stderr() {
    let out = lint_cmd()
        .args(["--explain", "S999"])
        .output()
        .expect("spawn sybil-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule \"S999\""), "{stderr}");
    // The known-code list covers both rule families, through the newest.
    for code in ["D001", "D006", "S101", "S113", "S119"] {
        assert!(stderr.contains(code), "missing {code} in: {stderr}");
    }
}

#[test]
fn explain_s110_names_the_fault_plane_contract() {
    let out = lint_cmd()
        .args(["--explain", "S110"])
        .output()
        .expect("spawn sybil-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FaultPlane"), "{stdout}");
    assert!(stdout.contains("io_free"), "{stdout}");
    assert!(stdout.contains("no-op"), "{stdout}");
}

#[test]
fn explain_s119_names_the_format_module_contract() {
    let out = lint_cmd()
        .args(["--explain", "S119"])
        .output()
        .expect("spawn sybil-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("format.rs"), "{stdout}");
    assert!(stdout.contains("SYBS"), "{stdout}");
    assert!(stdout.contains("unversioned"), "{stdout}");
}

#[test]
fn explain_is_case_insensitive() {
    let out = lint_cmd()
        .args(["--explain", "s115"])
        .output()
        .expect("spawn sybil-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("try_into"), "{stdout}");
}

/// A one-crate workspace under the test tmpdir: the `cost_scratch_allow`
/// fixture, with a lint.toml holding one root and one allow entry.
fn scratch_workspace() -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no_allowlist_ws");
    let krate = root.join("crates/cost_scratch_allow");
    let fixture = fixture_dir().join("cost_scratch_allow");
    std::fs::create_dir_all(krate.join("src")).expect("mkdir src");
    std::fs::create_dir_all(krate.join("tests")).expect("mkdir tests");
    std::fs::write(
        krate.join("Cargo.toml"),
        "[package]\nname = \"cost_scratch_allow\"\n",
    )
    .expect("write manifest");
    std::fs::copy(fixture.join("lib.rs"), krate.join("src/lib.rs")).expect("copy lib.rs");
    std::fs::copy(fixture.join("use_api.rs"), krate.join("tests/use_api.rs")).expect("copy test");
    let toml = "[hotpaths.roots]\nper_event = [\"cost_scratch_allow::serve\"]\n\n\
                [[allow]]\nrule = \"S113\"\npath = \"crates/cost_scratch_allow/src/lib.rs\"\n\
                justification = \"fixture: one-element row, freed before the next iteration\"\n";
    std::fs::write(root.join("lint.toml"), toml).expect("write lint.toml");
    root
}

#[test]
fn no_allowlist_drops_the_entries_and_keeps_the_roots() {
    let root = scratch_workspace();
    let lint = |extra: &[&str]| {
        let out = lint_cmd()
            .args(["--workspace", "--format", "json", "--root"])
            .arg(&root)
            .args(extra)
            .output()
            .expect("spawn sybil-lint");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    // With the entry in force the S113 finding is allowed and the run clean.
    let (code, json) = lint(&[]);
    assert_eq!(code, Some(0), "{json}");
    assert!(json.contains("\"violations\": []"), "{json}");
    assert!(json.contains("\"rule\": \"S113\""), "{json}");
    // Without it the root still anchors the rule: the same finding is a
    // violation, not absent.
    let (code, json) = lint(&["--no-allowlist"]);
    assert_eq!(code, Some(1), "{json}");
    assert!(json.contains("\"allowed\": []"), "{json}");
    assert!(json.contains("\"rule\": \"S113\""), "{json}");
    assert!(
        json.contains("hot-path root `cost_scratch_allow::serve`"),
        "{json}"
    );
}
