//! The one copy of each helper the modules of this binary share: the
//! fixture corpus, the model builder over it and the CLI under test.

use std::path::{Path, PathBuf};
use std::process::Command;
use sybil_lint::costs::HotPathConfig;
use sybil_lint::effects::EffectConfig;
use sybil_lint::report::Finding;
use sybil_lint::rules::check_model;
use sybil_lint::workspace::{classify, SourceFile};
use sybil_lint::WorkspaceModel;

/// The `sybil-lint` binary this package builds.
pub fn lint_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sybil-lint"))
}

/// The fixture corpus, `tests/fixtures`.
pub fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Source files of one fixture crate: `(fixture file, workspace-relative
/// suffix)` pairs of the fixture directory `dir` (under
/// [`fixture_dir`]) mapped into a synthetic `crates/<krate>/…` layout.
pub fn fixture_crate(dir: &str, krate: &str, layout: &[(&str, &str)]) -> Vec<SourceFile> {
    layout
        .iter()
        .map(|(disk, rel_suffix)| {
            let rel = format!("crates/{krate}/{rel_suffix}");
            SourceFile {
                abs: fixture_dir().join(dir).join(disk),
                rel: rel.clone(),
                crate_name: krate.to_string(),
                kind: classify(&rel),
            }
        })
        .collect()
}

/// Every finding of the workspace model of `files` (read from disk)
/// under the given root tables.
pub fn model_findings(
    files: &[SourceFile],
    effects: &EffectConfig,
    hotpaths: &HotPathConfig,
) -> Vec<Finding> {
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(&f.abs).expect("fixture exists"))
        .collect();
    let model = WorkspaceModel::build(files, &sources);
    check_model(&model, effects, hotpaths, true)
}
