//! The semantic rules that are not site rules: S102, S104, S107, S108.
//!
//! Unlike the per-file judgments, these need the whole-workspace
//! [`WorkspaceModel`]: which closures cross the `par::` boundary and what
//! they reach, and who names an export, are cross-file properties (S107
//! and S108 judge one file at a time; they sit here with the rules that
//! run under `--workspace` only). The reachability rules carry a trace
//! explaining, edge by edge, why they fired. The site
//! rules (S101, S109–S119) are rows of [`crate::rules::RULES`]; S105
//! (allowlist staleness) lives in
//! [`workspace::run_workspace`](crate::workspace::run_workspace) because
//! it judges the allowlist itself, not the source.

use crate::callgraph::CallGraph;
use crate::lexer::Token;
use crate::parser::{ParCall, Vis};
use crate::report::Finding;
use crate::rules::{edge_step, FileKind};
use crate::symbols::{FnIdx, WorkspaceModel};

/// Run S102, S104, S107 and S108, appending to `out`.
pub(crate) fn check_workspace(model: &WorkspaceModel, cg: &CallGraph, out: &mut Vec<Finding>) {
    s102_float_reductions(model, cg, out);
    s104_dead_exports(model, out);
    s107_stringly_errors(model, out);
    s108_hot_path_hash_keys(model, out);
}

/// S102: non-associative floating-point reductions (`sum` / `fold` /
/// `+=`-in-loop over `f32`/`f64`) in functions reachable from a `par::`
/// map/sweep closure. Reordering such a reduction across the thread
/// boundary would break the bit-identical guarantee; reviewed kernels
/// whose reduction order is fixed per item belong in the allowlist.
fn s102_float_reductions(model: &WorkspaceModel, cg: &CallGraph, out: &mut Vec<Finding>) {
    // Par entry sites in deterministic order: (fn, par-call position).
    struct Entry<'m> {
        caller: FnIdx,
        label: String,
        at: String,
        /// The closures' callees, each with how the trace introduces it.
        roots: Vec<(FnIdx, String)>,
        pc: &'m ParCall,
    }
    let mut entries: Vec<Entry> = Vec::new();
    for f in 0..model.fns.len() {
        if !model.is_lib_fn(f) {
            continue;
        }
        let def = &model.fns[f].def;
        let file = &model.files[model.fns[f].file];
        for pc in &def.par_calls {
            // Roots: calls lexically inside a closure passed to the entry —
            // written in the argument list, or `let`-bound and passed by
            // name.
            let mut roots: Vec<(FnIdx, String)> = Vec::new();
            for call in &def.calls {
                let Some(k) = pc.bodies.iter().position(|&(a, b)| call.tok > a && call.tok < b)
                else {
                    continue;
                };
                let closure = match k {
                    0 => "closure".to_string(),
                    _ => format!("closure bound at {}:{}", file.rel, file.toks[pc.bodies[k].0].line),
                };
                for e in &cg.out[f] {
                    if e.line == call.line && model.fns[e.to].def.name == call.name {
                        roots.push((e.to, format!("{closure} calls {}", model.fq_name(e.to))));
                    }
                }
            }
            roots.sort();
            roots.dedup_by_key(|r| r.0);
            entries.push(Entry {
                caller: f,
                label: format!("par::{}", pc.entry),
                at: format!("{}:{}", file.rel, pc.line),
                roots,
                pc,
            });
        }
    }

    let mut seen: Vec<(String, u32, u32)> = Vec::new();
    let mut emit = |model: &WorkspaceModel,
                    out: &mut Vec<Finding>,
                    site_fn: FnIdx,
                    site: &crate::parser::ReductionSite,
                    trace: Vec<String>,
                    entry_label: &str| {
        let file = &model.files[model.fns[site_fn].file];
        let key = (file.rel.clone(), site.line, site.col);
        if seen.contains(&key) {
            return;
        }
        seen.push(key);
        out.push(Finding {
            rule: "S102",
            path: file.rel.clone(),
            line: site.line,
            col: site.col,
            message: format!(
                "float reduction `{}` runs under the parallel entry `{}`; \
                 keep reductions off the par boundary or allowlist the kernel \
                 with its ordering argument",
                site.what, entry_label
            ),
            snippet: file.line_text(site.line),
            trace,
        });
    };

    for entry in &entries {
        let def = &model.fns[entry.caller].def;
        // Reductions written directly inside a closure.
        for site in &def.reductions {
            if entry.pc.holds(site.tok) && (site.definite || def.float_evidence) {
                let trace = vec![
                    format!("parallel entry `{}` at {}", entry.label, entry.at),
                    format!(
                        "{} reduces floats via `{}` inside the closure at {}:{}",
                        model.fq_name(entry.caller),
                        site.what,
                        model.path_of(entry.caller),
                        site.line
                    ),
                ];
                emit(model, out, entry.caller, site, trace, &entry.label);
            }
        }
        // Reductions in functions reachable from the closure's callees.
        let roots: Vec<FnIdx> = entry.roots.iter().map(|r| r.0).collect();
        for target in cg.reachable_from(&roots) {
            if !model.is_lib_fn(target) {
                continue;
            }
            let tdef = &model.fns[target].def;
            let has_floats = tdef.float_evidence;
            for site in &tdef.reductions {
                if !(site.definite || has_floats) {
                    continue;
                }
                // Deterministic shortest chain from any root.
                let path = entry
                    .roots
                    .iter()
                    .filter_map(|(r, via)| cg.path(*r, target).map(|p| (*r, via, p)))
                    .min_by_key(|(r, _, p)| (p.len(), *r));
                let Some((_, via, path)) = path else { continue };
                let mut trace = vec![
                    format!("parallel entry `{}` at {}", entry.label, entry.at),
                    via.clone(),
                ];
                trace.extend(path.iter().map(|e| edge_step(model, e)));
                trace.push(format!(
                    "{} reduces floats via `{}` at {}:{}",
                    model.fq_name(target),
                    site.what,
                    model.path_of(target),
                    site.line
                ));
                emit(model, out, target, site, trace, &entry.label);
            }
        }
    }
}

/// S104: dead exports. A `pub` item that no bin, test, bench, example, or
/// other crate ever names is API surface without users — demote it to
/// `pub(crate)` (keeping it for siblings) or delete it.
fn s104_dead_exports(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    // An export is alive if anything that exercises the public surface
    // names it: another crate, a same-crate bin/test/bench/example file,
    // or inline `#[cfg(test)]` code anywhere in the crate (including the
    // defining file — the definition itself never sits in a test span).
    let used_externally = |def_file: usize, name: &str| -> bool {
        let def_crate = &model.files[def_file].crate_name;
        let name = name.to_string();
        model.files.iter().enumerate().any(|(fi, file)| {
            let external = file.crate_name != *def_crate
                || file.kind != FileKind::Lib;
            if external && fi != def_file {
                file.parsed.idents.binary_search(&name).is_ok()
            } else {
                file.parsed.test_idents.binary_search(&name).is_ok()
            }
        })
    };

    // A file whose pub fns are externally exercised anchors its pub
    // types: values of those types flow out through the alive fns even
    // when callers never write the type's name (`let r = fig1::run(…)`).
    let mut anchored = vec![false; model.files.len()];
    for f in 0..model.fns.len() {
        let node = &model.fns[f];
        if node.def.vis == Vis::Pub
            && !node.def.in_test
            && used_externally(node.file, &node.def.name)
        {
            anchored[node.file] = true;
        }
    }

    // Non-fn pub items.
    for (fi, item) in model.pub_items() {
        if anchored[fi] || used_externally(fi, &item.name) {
            continue;
        }
        let file = &model.files[fi];
        out.push(Finding {
            rule: "S104",
            path: file.rel.clone(),
            line: item.line,
            col: 1,
            message: format!(
                "pub {} `{}` is not named by any bin, test, bench, example, or \
                 other crate; demote to pub(crate) or remove",
                item.kind, item.name
            ),
            snippet: file.line_text(item.line),
            trace: vec![format!(
                "`{}` is exported at {}:{} but only its own crate's library \
                 code ever names it",
                item.name, file.rel, item.line
            )],
        });
    }

    // Pub fns (free functions and inherent methods).
    for f in 0..model.fns.len() {
        let node = &model.fns[f];
        if node.def.vis != Vis::Pub
            || node.def.in_test
            || model.files[node.file].kind != FileKind::Lib
            || node.def.name == "main"
        {
            continue;
        }
        if used_externally(node.file, &node.def.name) {
            continue;
        }
        let file = &model.files[node.file];
        out.push(Finding {
            rule: "S104",
            path: file.rel.clone(),
            line: node.def.line,
            col: 1,
            message: format!(
                "pub fn `{}` is not named by any bin, test, bench, example, or \
                 other crate; demote to pub(crate) or remove",
                model.fq_name(f)
            ),
            snippet: file.line_text(node.def.line),
            trace: vec![format!(
                "`{}` is exported at {}:{} but only its own crate's library \
                 code ever names it",
                model.fq_name(f),
                file.rel,
                node.def.line
            )],
        });
    }
}

/// S107: stringly-typed error API. Two shapes: (a) a `pub fn` whose
/// return type is `Result<_, String>` — the error carries no structure,
/// so callers can only string-match or rewrap (the workspace's typed
/// errors live in `sybil_core::Error`); (b) library code settling an
/// error with `unwrap_or_else(… process::exit …)`, which turns a
/// recoverable condition into a silent process death the caller cannot
/// intercept (binaries own their exit codes; libraries return errors).
fn s107_stringly_errors(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    for file in &model.files {
        if file.kind == FileKind::Test {
            continue;
        }
        let (src, toks) = (file.src.as_str(), &file.toks);
        let in_test = |line: u32| file.in_test(line);

        // (a) `pub fn … -> Result<_, String>`, in libraries and binaries
        // alike — a pub signature is API surface either way. Restricted
        // visibility (`pub(crate)` …) is internal and exempt.
        for i in 0..toks.len() {
            if !toks[i].is_ident(src, "pub") || in_test(toks[i].line) {
                continue;
            }
            let Some(fn_tok) = toks.get(i + 1) else { break };
            if !fn_tok.is_ident(src, "fn") {
                continue;
            }
            let Some(name_tok) = toks.get(i + 2) else { break };
            let fn_name = name_tok.text(src);
            if let Some(res_tok) = stringly_result_in_return(src, toks, i + 3) {
                out.push(Finding {
                    rule: "S107",
                    path: file.rel.clone(),
                    line: res_tok.line,
                    col: res_tok.col,
                    message: format!(
                        "pub fn `{fn_name}` returns Result<_, String>; a string error \
                         cannot be matched on and carries no source — return a typed \
                         error (see sybil_core::Error) and keep prose in Display"
                    ),
                    snippet: file.line_text(res_tok.line),
                    trace: vec![format!(
                        "`{fn_name}` declares a stringly-typed error at {}:{}; callers \
                         can only string-match or rewrap it",
                        file.rel, res_tok.line
                    )],
                });
            }
        }

        // (b) `unwrap_or_else(… process::exit …)` in library code only —
        // binaries legitimately own the process exit.
        if file.kind != FileKind::Lib {
            continue;
        }
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident(src, "unwrap_or_else") || in_test(t.line) {
                continue;
            }
            if !toks.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
                continue;
            }
            if call_args_invoke_process_exit(src, toks, i + 2) {
                out.push(Finding {
                    rule: "S107",
                    path: file.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: "library code exits the process inside `unwrap_or_else`; \
                              return the error and let the binary choose the exit code"
                        .to_string(),
                    snippet: file.line_text(t.line),
                    trace: vec![format!(
                        "`unwrap_or_else` at {}:{} reaches `process::exit`, killing the \
                         process from library code no caller can intercept",
                        file.rel, t.line
                    )],
                });
            }
        }
    }
}

/// S108: hash containers keyed by node or packed-edge ids in the
/// designated scale-critical modules — the serving engine's mirror and
/// shard scan loop, and the graph's CSR snapshot. Those modules are the
/// million-account hot path: their memory-layout contract is flat arenas
/// (CSR row blocks, the FlatDelta link arena, sorted triple arrays), so
/// a `HashMap`/`HashSet` keyed by `NodeId`/`u32`/`u64` (or a tuple of
/// them) there reintroduces per-entry hashing, pointer-chased buckets,
/// and 8–48 B of overhead per id — exactly the structures the
/// million-account refactor removed. Reviewed small maps (provably
/// bounded, off the per-event path) belong in lint.toml with that bound.
fn s108_hot_path_hash_keys(model: &WorkspaceModel, out: &mut Vec<Finding>) {
    /// The scale-critical modules, as `(crate, path suffix)` pairs.
    const HOT: [(&str, &str); 3] = [
        ("sybil-serve", "src/mirror.rs"),
        ("sybil-serve", "src/shard.rs"),
        ("osn-graph", "src/snapshot.rs"),
    ];
    /// Key types that are account or packed-edge ids.
    const KEYS: [&str; 3] = ["NodeId", "u32", "u64"];
    for file in &model.files {
        let hot = HOT
            .iter()
            .any(|&(krate, suffix)| file.crate_name == krate && file.rel.ends_with(suffix));
        if !hot || file.kind == FileKind::Test {
            continue;
        }
        let (src, toks) = (file.src.as_str(), &file.toks);
        let in_test = |line: u32| file.in_test(line);
        for (i, t) in toks.iter().enumerate() {
            let container = if t.is_ident(src, "HashMap") {
                "HashMap"
            } else if t.is_ident(src, "HashSet") {
                "HashSet"
            } else {
                continue;
            };
            if in_test(t.line) {
                continue;
            }
            // Only a generic argument list names a key type: `HashMap<K,…>`
            // or turbofish `HashMap::<K,…>`. A bare mention (an import, a
            // doc reference, `HashMap::new()` whose key type is written at a
            // flagged annotation elsewhere) keys nothing by itself.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_punct(b':'))
                && toks.get(j + 1).is_some_and(|n| n.is_punct(b':'))
                && toks.get(j + 2).is_some_and(|n| n.is_punct(b'<'))
            {
                j += 2;
            }
            if !toks.get(j).is_some_and(|n| n.is_punct(b'<')) {
                continue;
            }
            j += 1;
            // The key type: a flagged id type, or a tuple starting with one
            // (packed pairs like `(u32, u32)`).
            if toks.get(j).is_some_and(|n| n.is_punct(b'(')) {
                j += 1;
            }
            let Some(key) = toks.get(j) else { continue };
            if !KEYS.iter().any(|k| key.is_ident(src, k)) {
                continue;
            }
            let key_name = key.text(src);
            out.push(Finding {
                rule: "S108",
                path: file.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "{container} keyed by `{key_name}` in a scale-critical module; use \
                     the flat layouts (CSR row probes, the FlatDelta arena, sorted \
                     arrays) or allowlist with the proven size bound",
                ),
                snippet: file.line_text(t.line),
                trace: vec![format!(
                    "`{container}` keyed by `{key_name}` at {}:{} sits on the \
                     million-account hot path; this module's layout contract is flat \
                     id-indexed arenas, not hash tables",
                    file.rel, t.line
                )],
            });
        }
    }
}

/// Does the fn signature starting at token `start` (just past the fn
/// name) return `Result<_, String>`? Returns the `Result` token when so.
fn stringly_result_in_return<'t>(
    src: &str,
    toks: &'t [Token],
    start: usize,
) -> Option<&'t Token> {
    // Find `->` at paren depth 0, stopping at the body or a `;`.
    let mut paren = 0i32;
    let mut j = start;
    let arrow = loop {
        let t = toks.get(j)?;
        if t.is_punct(b'(') {
            paren += 1;
        } else if t.is_punct(b')') {
            paren -= 1;
        } else if paren == 0 && (t.is_punct(b'{') || t.is_punct(b';')) {
            return None; // no return type
        } else if paren == 0
            && t.is_punct(b'-')
            && toks.get(j + 1).is_some_and(|n| n.is_punct(b'>'))
        {
            break j + 2;
        }
        j += 1;
    };
    // Within the return type, find `Result <` and walk its generic args.
    let mut k = arrow;
    while let Some(t) = toks.get(k) {
        if t.is_punct(b'{') || t.is_punct(b';') || t.is_ident(src, "where") {
            return None;
        }
        if t.is_ident(src, "Result") && toks.get(k + 1).is_some_and(|n| n.is_punct(b'<')) {
            let mut depth = 1i32;
            let mut m = k + 2;
            while let Some(t) = toks.get(m) {
                // An `->` inside the generics belongs to an fn type; its
                // `>` is not a closing angle bracket.
                if t.is_punct(b'-') && toks.get(m + 1).is_some_and(|n| n.is_punct(b'>')) {
                    m += 2;
                    continue;
                }
                if t.is_punct(b'<') {
                    depth += 1;
                } else if t.is_punct(b'>') {
                    depth -= 1;
                    if depth == 0 {
                        return None; // generics closed without a String error
                    }
                } else if t.is_punct(b',') && depth == 1 {
                    // The error parameter: flag exactly `String >`.
                    if toks.get(m + 1).is_some_and(|n| n.is_ident(src, "String"))
                        && toks.get(m + 2).is_some_and(|n| n.is_punct(b'>'))
                    {
                        return Some(&toks[k]);
                    }
                    return None;
                }
                m += 1;
            }
            return None;
        }
        k += 1;
    }
    None
}

/// Does the call-argument span opening at token `start` (just past the
/// `(`) contain a `process :: exit` invocation?
fn call_args_invoke_process_exit(
    src: &str,
    toks: &[Token],
    start: usize,
) -> bool {
    let mut depth = 1i32;
    let mut j = start;
    while let Some(t) = toks.get(j) {
        if t.is_punct(b'(') {
            depth += 1;
        } else if t.is_punct(b')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.is_ident(src, "process")
            && toks.get(j + 1).is_some_and(|n| n.is_punct(b':'))
            && toks.get(j + 2).is_some_and(|n| n.is_punct(b':'))
            && toks.get(j + 3).is_some_and(|n| n.is_ident(src, "exit"))
        {
            return true;
        }
        j += 1;
    }
    false
}
