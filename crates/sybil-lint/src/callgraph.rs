//! Workspace call graph over the [`symbols::WorkspaceModel`].
//!
//! Resolution is name-based (the analyzer has no type information) and
//! deliberately over-approximates where dynamic dispatch makes the callee
//! ambiguous — a `.verify(…)` call links to *every* workspace method named
//! `verify`. Over-approximation is the safe direction for reachability
//! rules: it can only add candidate paths, never hide one.
//! Calls that resolve to nothing are assumed to target `std`/vendored
//! code and produce no edge.
//!
//! Resolution order for `name(…)`-shaped calls:
//!
//! 1. `Type::name` / `module::name` paths match impl self types, file
//!    modules, and crate names on the last path segment;
//! 2. bare `name(…)` prefers same-file functions, then same-crate free
//!    functions, then a unique workspace match;
//! 3. `.name(…)` method calls match every impl method with that name.

use crate::parser::Call;
use crate::symbols::{FnIdx, WorkspaceModel};
use std::collections::BTreeMap;

/// One resolved call edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Calling function.
    pub from: FnIdx,
    /// Resolved callee.
    pub to: FnIdx,
    /// 1-based line of the call site (in `from`'s file).
    pub line: u32,
}

/// The resolved workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Forward adjacency: caller → sorted, deduplicated edges.
    pub out: Vec<Vec<Edge>>,
    /// Reverse adjacency: callee → sorted list of callers (edge carries
    /// the same call-site line).
    pub rin: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Build the graph by resolving every call in every function.
    pub fn build(model: &WorkspaceModel) -> CallGraph {
        let n = model.fns.len();
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut rin: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for (from, out_adj) in out.iter_mut().enumerate() {
            for call in &model.fns[from].def.calls {
                for to in resolve(model, from, call) {
                    let e = Edge {
                        from,
                        to,
                        line: call.line,
                    };
                    out_adj.push(e);
                    rin[to].push(e);
                }
            }
        }
        for adj in out.iter_mut().chain(rin.iter_mut()) {
            adj.sort_by_key(|e| (e.to, e.from, e.line));
            adj.dedup_by_key(|e| (e.to, e.from));
        }
        CallGraph { out, rin }
    }

    /// Shortest path `from → … → to` over forward edges (BFS, ties broken
    /// by function index for determinism). Returns the edge sequence.
    pub fn path(&self, from: FnIdx, to: FnIdx) -> Option<Vec<Edge>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: BTreeMap<FnIdx, Edge> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            for e in &self.out[u] {
                if e.to != from && !prev.contains_key(&e.to) {
                    prev.insert(e.to, *e);
                    if e.to == to {
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let e = prev[&cur];
                            path.push(e);
                            cur = e.from;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(e.to);
                }
            }
        }
        None
    }

    /// All functions reachable from `roots` over forward edges (including
    /// the roots themselves), as a sorted list.
    pub fn reachable_from(&self, roots: &[FnIdx]) -> Vec<FnIdx> {
        let mut seen = vec![false; self.out.len()];
        let mut queue: std::collections::VecDeque<FnIdx> = roots.iter().copied().collect();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.out[u] {
                if !seen[e.to] {
                    seen[e.to] = true;
                    queue.push_back(e.to);
                }
            }
        }
        (0..self.out.len()).filter(|&i| seen[i]).collect()
    }

    /// Nearest ancestor of `target` (over reverse edges) satisfying
    /// `pred`, together with the forward path from that ancestor down to
    /// `target` — "which pub function reaches this panic?" — restricted
    /// to paths whose every node passes `admit`. The root-anchored rules
    /// admit library functions only, so a bench or test caller can never
    /// appear on the chain of a core-path finding.
    pub fn nearest_ancestor(
        &self,
        target: FnIdx,
        pred: impl Fn(FnIdx) -> bool,
        admit: impl Fn(FnIdx) -> bool,
    ) -> Option<(FnIdx, Vec<Edge>)> {
        if pred(target) {
            return Some((target, Vec::new()));
        }
        // BFS over reverse edges, remembering the forward edge taken.
        let mut next: BTreeMap<FnIdx, Edge> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(target);
        while let Some(u) = queue.pop_front() {
            for e in &self.rin[u] {
                if e.from == target || next.contains_key(&e.from) || !admit(e.from) {
                    continue;
                }
                next.insert(e.from, *e);
                if pred(e.from) {
                    let mut path = Vec::new();
                    let mut cur = e.from;
                    while cur != target {
                        let e = next[&cur];
                        path.push(e);
                        cur = e.to;
                    }
                    return Some((e.from, path));
                }
                queue.push_back(e.from);
            }
        }
        None
    }
}

/// Method names so generic that linking them across the workspace by name
/// alone would wire unrelated types together (`new`, `len`, `get`, …
/// are also inherent methods on std types). These resolve only through
/// qualified `Type::name` paths, never through `.name(…)` dispatch.
const AMBIENT_METHODS: [&str; 14] = [
    "new", "default", "len", "get", "insert", "push", "next", "clone", "iter", "index",
    "fmt", "eq", "contains", "is_empty",
];

/// Resolve one call to its candidate definitions.
fn resolve(model: &WorkspaceModel, from: FnIdx, call: &Call) -> Vec<FnIdx> {
    let Some(cands) = model.by_name.get(&call.name) else {
        return Vec::new();
    };
    let caller_file = model.fns[from].file;
    let caller_crate = &model.files[caller_file].crate_name;

    if call.method {
        if AMBIENT_METHODS.contains(&call.name.as_str()) {
            return Vec::new();
        }
        return cands
            .iter()
            .copied()
            .filter(|&c| model.fns[c].def.self_ty.is_some())
            .collect();
    }

    if let Some(last) = call.path.last() {
        // Relative-path prefixes carry no resolution information.
        if matches!(last.as_str(), "self" | "crate" | "super") {
            return resolve_bare(model, caller_file, caller_crate, cands);
        }
        let norm = last.replace('-', "_");
        return cands
            .iter()
            .copied()
            .filter(|&c| {
                let f = &model.fns[c];
                let file = &model.files[f.file];
                f.def.self_ty.as_deref() == Some(last.as_str())
                    || file.module == norm
                    || f.def.modules.last().map(String::as_str) == Some(norm.as_str())
                    || file.crate_name.replace('-', "_") == norm
            })
            .collect();
    }

    resolve_bare(model, caller_file, caller_crate, cands)
}

/// Bare `name(…)`: same file, else same-crate free functions, else a
/// unique workspace-wide free function.
fn resolve_bare(
    model: &WorkspaceModel,
    caller_file: usize,
    caller_crate: &str,
    cands: &[FnIdx],
) -> Vec<FnIdx> {
    let same_file: Vec<FnIdx> = cands
        .iter()
        .copied()
        .filter(|&c| model.fns[c].file == caller_file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<FnIdx> = cands
        .iter()
        .copied()
        .filter(|&c| {
            model.files[model.fns[c].file].crate_name == caller_crate
                && model.fns[c].def.self_ty.is_none()
        })
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    let free: Vec<FnIdx> = cands
        .iter()
        .copied()
        .filter(|&c| model.fns[c].def.self_ty.is_none())
        .collect();
    if free.len() == 1 {
        free
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::WorkspaceModel;
    use crate::workspace::{classify, SourceFile};

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
                kind: classify(rel),
            })
            .collect();
        let sources: Vec<String> = entries.iter().map(|(_, s)| s.to_string()).collect();
        WorkspaceModel::build(&files, &sources)
    }

    fn idx(m: &WorkspaceModel, fq: &str) -> FnIdx {
        (0..m.fns.len())
            .find(|&i| m.fq_name(i) == fq)
            .unwrap_or_else(|| panic!("fn {fq} not found"))
    }

    #[test]
    fn resolves_chains_through_modules_and_methods() {
        let m = model_from(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry(g: &G) { helper(g); }\n\
                 fn helper(g: &G) { g.walk(); }\n\
                 pub struct G;\n\
                 impl G { pub fn walk(&self) { deep::panicky(); } }\n\
                 pub mod deep { pub fn panicky() { panic!(\"x\") } }\n",
            ),
        ]);
        let cg = CallGraph::build(&m);
        let entry = idx(&m, "a::entry");
        let panicky = idx(&m, "a::deep::panicky");
        let path = cg.path(entry, panicky).expect("path exists");
        assert_eq!(path.len(), 3, "entry→helper→walk→panicky: {path:?}");
        let is_entry = |i| i == entry;
        let (anc, up) = cg.nearest_ancestor(panicky, is_entry, |_| true).expect("pub ancestor");
        assert_eq!(anc, entry);
        assert_eq!(up.len(), 3);
        // Ancestry confined by `admit`: forbidding every intermediate
        // node leaves the panic site rootless.
        assert!(cg.nearest_ancestor(panicky, is_entry, |_| false).is_none());
    }

    #[test]
    fn ambient_method_names_do_not_link() {
        let m = model_from(&[
            (
                "crates/a/src/lib.rs",
                "pub struct S;\nimpl S { pub fn new() -> S { panic!(\"x\") } }\n\
                 pub fn f() { let v: Vec<u32> = Vec::new(); v.len(); }\n",
            ),
        ]);
        let cg = CallGraph::build(&m);
        let f = idx(&m, "a::f");
        assert!(cg.out[f].is_empty(), "{:?}", cg.out[f]);
    }

    #[test]
    fn qualified_type_paths_link() {
        let m = model_from(&[
            (
                "crates/a/src/lib.rs",
                "pub struct S;\nimpl S { pub fn build() -> S { S } }\npub fn f() -> S { S::build() }\n",
            ),
        ]);
        let cg = CallGraph::build(&m);
        let f = idx(&m, "a::f");
        assert_eq!(cg.out[f].len(), 1);
        assert_eq!(m.fq_name(cg.out[f][0].to), "a::S::build");
    }

    #[test]
    fn cross_crate_module_paths_link() {
        let m = model_from(&[
            ("crates/g/src/bfs.rs", "pub fn distances() {}\n"),
            (
                "crates/d/src/lib.rs",
                "pub fn verify() { osn_graph::bfs::distances(); }\n",
            ),
        ]);
        let cg = CallGraph::build(&m);
        let v = idx(&m, "d::verify");
        assert_eq!(cg.out[v].len(), 1);
    }

    #[test]
    fn reachability_is_sorted_and_complete() {
        let m = model_from(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}\n",
        )]);
        let cg = CallGraph::build(&m);
        let a = idx(&m, "a::a");
        let reach = cg.reachable_from(&[a]);
        assert_eq!(reach.len(), 3);
        assert!(!reach.contains(&idx(&m, "a::lonely")));
    }
}
