//! Workspace symbol table: every parsed file, function, and `pub` item in
//! one indexed structure the call-graph and semantic rules resolve
//! against.
//!
//! Functions get stable integer ids (`FnIdx`) ordered by file path and
//! source position, so every downstream analysis (BFS orders, finding
//! emission) is deterministic regardless of discovery order.

use crate::lexer::{lex, Token};
use crate::parser::{self, FnDef, ItemDef, ParsedFile, Vis};
use crate::rules::FileKind;
use crate::workspace::SourceFile;
use std::collections::BTreeMap;

/// Index of a function in [`WorkspaceModel::fns`].
pub type FnIdx = usize;

/// One file's parsed contents plus its workspace metadata.
#[derive(Clone, Debug)]
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Owning package name.
    pub crate_name: String,
    /// Build role (library / binary / test).
    pub kind: FileKind,
    /// Module name derived from the file path (`par.rs` → `par`,
    /// `lib.rs` → the crate name, `foo/mod.rs` → `foo`).
    pub module: String,
    /// Full source text (for finding snippets).
    pub src: String,
    /// The file's tokens — lexed once, here; every rule reads these.
    pub toks: Vec<Token>,
    /// `(start, end)` line spans of `#[cfg(test)]` / `#[test]` code.
    pub test_spans: Vec<(u32, u32)>,
    /// Parsed items, functions, identifier usage, and leaf-pattern sites.
    pub parsed: ParsedFile,
    /// Index in [`WorkspaceModel::fns`] of this file's first function;
    /// the rest follow in source order.
    pub first_fn: FnIdx,
}

impl FileModel {
    fn new(f: &SourceFile, src: &str, first_fn: FnIdx) -> FileModel {
        let toks = lex(src);
        let test_spans = parser::test_line_spans(src, &toks);
        let parsed = parser::parse(src, &toks, &test_spans);
        FileModel {
            rel: f.rel.clone(),
            crate_name: f.crate_name.clone(),
            kind: f.kind,
            module: file_module(&f.rel, &f.crate_name),
            src: src.to_string(),
            toks,
            test_spans,
            parsed,
            first_fn,
        }
    }

    /// Does 1-based `line` sit inside test-only code?
    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// The trimmed text of 1-based `line` — a finding's snippet.
    pub(crate) fn line_text(&self, line: u32) -> String {
        self.src
            .lines()
            .nth(line as usize - 1)
            .unwrap_or("")
            .trim()
            .to_string()
    }
}

/// One function in the workspace: where its definition is. The
/// definition stays where the parser put it, in the owning file's
/// [`ParsedFile::fns`]; read it through [`WorkspaceModel::def`].
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the owning file in [`WorkspaceModel::files`].
    pub file: usize,
    /// Index of the definition in that file's [`ParsedFile::fns`].
    pub local: usize,
}

/// The whole workspace, parsed and indexed.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceModel {
    /// All parsed files, sorted by relative path.
    pub files: Vec<FileModel>,
    /// All function definitions, ordered by (file, source position).
    pub fns: Vec<FnNode>,
    /// Function indices by bare name.
    pub by_name: BTreeMap<String, Vec<FnIdx>>,
}

impl WorkspaceModel {
    /// Parse and index `files` (already read into `sources`, matched by
    /// position).
    pub fn build(files: &[SourceFile], sources: &[String]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by(|&a, &b| files[a].rel.cmp(&files[b].rel));
        for &fi in &order {
            let file = FileModel::new(&files[fi], &sources[fi], model.fns.len());
            for (local, def) in file.parsed.fns.iter().enumerate() {
                model
                    .by_name
                    .entry(def.name.clone())
                    .or_default()
                    .push(model.fns.len());
                model.fns.push(FnNode {
                    file: model.files.len(),
                    local,
                });
            }
            model.files.push(file);
        }
        model
    }

    /// The parsed definition of function `idx`.
    pub fn def(&self, idx: FnIdx) -> &FnDef {
        let node = &self.fns[idx];
        &self.files[node.file].parsed.fns[node.local]
    }

    /// The function of file `file` whose body holds token `tok`, if any
    /// (bodies are disjoint and in source order).
    pub(crate) fn fn_at(&self, file: usize, tok: usize) -> Option<FnIdx> {
        let fns = &self.files[file].parsed.fns;
        let k = fns.partition_point(|d| d.body.1 <= tok);
        (fns.get(k)?.body.0 < tok).then_some(self.files[file].first_fn + k)
    }

    /// The fully qualified display name of function `idx`:
    /// `crate::module::Type::name` with redundant segments elided.
    pub fn fq_name(&self, idx: FnIdx) -> String {
        let (file, def) = (&self.files[self.fns[idx].file], self.def(idx));
        let mut parts: Vec<&str> = vec![file.crate_name.as_str()];
        // A crate-root module repeats the crate name (modulo `-` → `_`);
        // eliding it keeps `osn-sim::simulate` out of doubled forms like
        // `osn-sim::osn_sim::simulate`.
        if file.module != file.crate_name.replace('-', "_") {
            parts.push(file.module.as_str());
        }
        for m in &def.modules {
            parts.push(m.as_str());
        }
        if let Some(ty) = &def.self_ty {
            parts.push(ty.as_str());
        }
        parts.push(def.name.as_str());
        parts.join("::")
    }

    /// Workspace-relative path of the file defining function `idx`.
    pub(crate) fn path_of(&self, idx: FnIdx) -> &str {
        &self.files[self.fns[idx].file].rel
    }

    /// Is function `idx` part of a library target (not tests/bins) and
    /// outside `#[cfg(test)]` code?
    pub(crate) fn is_lib_fn(&self, idx: FnIdx) -> bool {
        self.files[self.fns[idx].file].kind == FileKind::Lib && !self.def(idx).in_test
    }

    /// Is function `idx` exported (`pub`) from a library target?
    pub(crate) fn is_pub_api(&self, idx: FnIdx) -> bool {
        self.is_lib_fn(idx) && self.def(idx).vis == Vis::Pub
    }

    /// All `pub` non-`fn` items in library files, with their file index.
    pub(crate) fn pub_items(&self) -> Vec<(usize, &ItemDef)> {
        let mut out = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            if file.kind != FileKind::Lib {
                continue;
            }
            for item in &file.parsed.items {
                if item.vis == Vis::Pub && !item.in_test {
                    out.push((fi, item));
                }
            }
        }
        out
    }
}

/// Module name a file contributes: `crates/x/src/par.rs` → `par`,
/// `src/lib.rs` → the crate name, `src/bin/tool.rs` → `tool`,
/// `src/foo/mod.rs` → `foo`.
fn file_module(rel: &str, crate_name: &str) -> String {
    let stem = rel
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(rel);
    if stem == "lib" || stem == "main" {
        crate_name.replace('-', "_")
    } else if stem == "mod" {
        rel.rsplit('/')
            .nth(1)
            .unwrap_or(crate_name)
            .replace('-', "_")
    } else {
        stem.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_from(entries: &[(&str, &str)]) -> WorkspaceModel {
        let files: Vec<SourceFile> = entries
            .iter()
            .map(|(rel, _)| SourceFile {
                abs: std::path::PathBuf::from(rel),
                rel: rel.to_string(),
                crate_name: rel
                    .strip_prefix("crates/")
                    .and_then(|r| r.split('/').next())
                    .unwrap_or("root")
                    .to_string(),
                kind: crate::workspace::classify(rel),
            })
            .collect();
        let sources: Vec<String> = entries.iter().map(|(_, s)| s.to_string()).collect();
        WorkspaceModel::build(&files, &sources)
    }

    #[test]
    fn indexes_functions_with_fq_names() {
        let m = model_from(&[
            (
                "crates/g/src/par.rs",
                "pub fn map_indexed() {}\nfn helper() {}\n",
            ),
            (
                "crates/g/src/lib.rs",
                "pub struct G;\nimpl G { pub fn degree(&self) -> usize { 0 } }\n",
            ),
        ]);
        assert_eq!(m.fns.len(), 3);
        let names: Vec<String> = (0..3).map(|i| m.fq_name(i)).collect();
        assert!(names.contains(&"g::G::degree".to_string()), "{names:?}");
        assert!(
            names.contains(&"g::par::map_indexed".to_string()),
            "{names:?}"
        );
        assert!(names.contains(&"g::par::helper".to_string()), "{names:?}");
        assert_eq!(m.by_name["degree"].len(), 1);
    }

    #[test]
    fn module_names_from_paths() {
        assert_eq!(
            file_module("crates/osn-graph/src/par.rs", "osn-graph"),
            "par"
        );
        assert_eq!(
            file_module("crates/osn-graph/src/lib.rs", "osn-graph"),
            "osn_graph"
        );
        assert_eq!(file_module("src/bin/repro.rs", "sybil-repro"), "repro");
        assert_eq!(file_module("crates/x/src/foo/mod.rs", "x"), "foo");
    }
}
