//! Workspace discovery and the lint driver.
//!
//! `--workspace` walks every member crate under `crates/` plus the root
//! package's `src/`, classifies each `.rs` file (library / binary / test),
//! runs the rules, and partitions findings through the allowlist.
//! `vendor/` and `target/` are never scanned: vendored stubs are external
//! code, and build output is noise.

use crate::allowlist::Allowlist;
use crate::effects::EffectConfig;
use crate::report::{Finding, Report};
use crate::rules::{check_model, FileKind};
use crate::symbols::WorkspaceModel;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file scheduled for linting.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path, `/`-separated (stable across platforms).
    pub rel: String,
    /// Owning package name.
    pub crate_name: String,
    /// Build role.
    pub kind: FileKind,
}

/// Discover every lintable `.rs` file under `root` (a workspace root).
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        for member in members {
            let name = package_name(&member.join("Cargo.toml")).unwrap_or_else(|| {
                member
                    .file_name()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
            });
            collect_crate(root, &member, &name, &mut out)?;
        }
    }
    // The root package's own sources.
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        let name = package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "root".into());
        collect_dir(root, &root.join("src"), &name, &mut out)?;
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Collect `src/`, `tests/`, `benches/`, `examples/` of one crate.
fn collect_crate(
    root: &Path,
    member: &Path,
    name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    for sub in ["src", "tests", "benches", "examples"] {
        let dir = member.join(sub);
        if dir.is_dir() {
            collect_dir(root, &dir, name, out)?;
        }
    }
    Ok(())
}

fn collect_dir(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                // Lint fixtures are deliberately-bad code; never scan them.
                if p.file_name().is_some_and(|n| n == "fixtures") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                let rel = rel_path(root, &p);
                out.push(SourceFile {
                    kind: classify(&rel),
                    abs: p,
                    rel,
                    crate_name: crate_name.to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Classify a workspace-relative path into its build role.
pub fn classify(rel: &str) -> FileKind {
    if rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/") {
        FileKind::Test
    } else if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extract `name = "..."` from the `[package]` section of a Cargo.toml.
fn package_name(manifest: &Path) -> Option<String> {
    let content = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in content.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Lint the given files with the rules that can judge any set of files:
/// D001, D005, and the site rules over the call graph these files
/// provide. S102–S108 need whole-workspace context; see
/// [`run_workspace`].
pub fn run(files: &[SourceFile], allowlist: &Allowlist) -> io::Result<Report> {
    run_impl(files, allowlist, false)
}

/// Lint the given files — the whole workspace — with every rule,
/// including the S105 staleness check, which promotes every unused
/// allowlist entry to an error anchored at its `[[allow]]` line in
/// lint.toml.
pub fn run_workspace(files: &[SourceFile], allowlist: &Allowlist) -> io::Result<Report> {
    run_impl(files, allowlist, true)
}

fn run_impl(files: &[SourceFile], allowlist: &Allowlist, semantic: bool) -> io::Result<Report> {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut used = vec![false; allowlist.entries.len()];
    let mut sources: Vec<String> = Vec::with_capacity(files.len());
    for f in files {
        sources.push(fs::read_to_string(&f.abs)?);
    }

    let model = WorkspaceModel::build(files, &sources);
    let findings = check_model(&model, &allowlist.effects, &allowlist.hotpaths, semantic);

    for finding in findings {
        match allowlist.matching(&finding) {
            Some(entry) => {
                let idx = allowlist
                    .entries
                    .iter()
                    .position(|e| std::ptr::eq(e, entry))
                    .unwrap_or(usize::MAX);
                if idx != usize::MAX {
                    used[idx] = true;
                }
                report.allowed.push((finding, entry.justification.clone()));
            }
            None => report.violations.push(finding),
        }
    }
    for (i, e) in allowlist.entries.iter().enumerate() {
        if !used[i] {
            report.unused_allowlist.push(e.clone());
        }
    }
    if semantic {
        // S105: staleness is an error, not a warning — a stale entry
        // would silently re-arm if its pattern ever came back.
        for e in &report.unused_allowlist {
            report.violations.push(Finding {
                rule: "S105",
                path: "lint.toml".to_string(),
                line: e.defined_at,
                col: 1,
                message: format!(
                    "allowlist entry (rule={}, path={}) matched nothing this run; \
                     remove it or run --fix-allowlist",
                    e.rule, e.path
                ),
                snippet: "[[allow]]".to_string(),
                trace: vec![format!(
                    "entry defined at lint.toml:{} covers rule {} in {} but no such \
                     finding exists",
                    e.defined_at, e.rule, e.path
                )],
            });
        }
        // So is a root pattern no function answers to: the rule it
        // anchors is silently off for it (a rename does this).
        for (pat, line) in &allowlist.roots_at {
            let pats = std::slice::from_ref(pat);
            let hit = |i| model.is_lib_fn(i) && EffectConfig::matches(pats, &model.fq_name(i));
            if !(0..model.fns.len()).any(hit) {
                report.violations.push(Finding {
                    rule: "S105",
                    path: "lint.toml".to_string(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "root pattern {pat:?} matches no library function; re-point it \
                         at the function's new name or remove it"
                    ),
                    snippet: pat.clone(),
                    trace: Vec::new(),
                });
            }
        }
    }
    report.violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(report)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(content) = fs::read_to_string(&manifest) {
                if content.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/x/src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("crates/x/src/bin/tool.rs"), FileKind::Bin);
        assert_eq!(classify("crates/x/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("crates/x/tests/it.rs"), FileKind::Test);
        assert_eq!(classify("crates/x/benches/b.rs"), FileKind::Test);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn discovers_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let files = discover(&root).unwrap();
        assert!(files
            .iter()
            .any(|f| f.rel == "crates/sybil-lint/src/lexer.rs"));
        assert!(files.iter().all(|f| !f.rel.contains("vendor/")));
        assert!(files.iter().all(|f| !f.rel.contains("/fixtures/")));
        // Crate names come from manifests, not directory names.
        assert!(files.iter().any(|f| f.crate_name == "sybil-core"));
    }
}
