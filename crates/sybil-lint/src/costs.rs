//! Hot-path context for the cost rows of the rule table (S113–S115,
//! S117):
//! the `[hotpaths.roots]` table of `lint.toml`, the loop context, and the
//! recursion seed.
//!
//! What makes a cost different from an effect is *where* a site matters.
//! An allocation once per epoch is amortized noise; the same allocation
//! inside the per-event scan loop is a per-event cost at 5M accounts. So
//! the cost rows are anchored by [`HotPathConfig`] naming the per-event
//! cores, and the loop-scoped ones (S113 allocation, S114 growth) ask
//! [`HotContext::in_hot_loop`] about each site:
//!
//! - the **hot set** is the forward lib-to-lib closure of the roots;
//! - the **loop context** is the forward closure of every call a hot
//!   function makes *from inside one of its own loops* ([`crate::loops`])
//!   — code that runs per event even though its own body has no loop.
//!
//! A site is in a hot loop when its function is in the loop context, or
//! is hot and holds the site inside one of its own loop bodies. S115
//! (truncating casts) and S117 (recursion) judge the whole hot set — a
//! truncation or an unbounded stack is wrong on the critical path whether
//! or not it sits in a loop. Recursion is the one site kind no token
//! shows: [`recursion_sites`] seeds it from the call graph's cycles.

use crate::callgraph::CallGraph;
use crate::effects::EffectConfig;
use crate::loops::{body_loop_spans, in_loop, LoopSpan};
use crate::sites::{Site, SiteKind};
use crate::symbols::{FnIdx, WorkspaceModel};

/// The `[hotpaths.roots]` table from `lint.toml`: fully qualified
/// function-name patterns (exact, or `prefix*`, same grammar as the
/// effect tables) naming the per-event cores — the serve shard step, the
/// replay inner loop, the snapshot merge, the feature kernels. An empty
/// list disables S113–S115 and S117.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotPathConfig {
    /// Root patterns for the per-event critical path.
    pub per_event_roots: Vec<String>,
}

/// Which code runs per event under the `[hotpaths.roots]` cores.
pub(crate) struct HotContext {
    /// Membership in the loop context, per function.
    ctx: Vec<bool>,
    /// Loop-body token spans of each hot function (empty for the rest).
    loops: Vec<Vec<LoopSpan>>,
}

impl HotContext {
    pub(crate) fn build(model: &WorkspaceModel, cg: &CallGraph, cfg: &HotPathConfig) -> HotContext {
        let n = model.fns.len();
        let roots: Vec<FnIdx> = (0..n)
            .filter(|&i| EffectConfig::matches(&cfg.per_event_roots, &model.fq_name(i)))
            .collect();
        let hot = lib_closure(model, cg, &roots);
        let mut loops: Vec<Vec<LoopSpan>> = vec![Vec::new(); n];
        let mut seed: Vec<FnIdx> = Vec::new();
        for f in (0..n).filter(|&f| hot[f]) {
            let def = model.def(f);
            let file = &model.files[model.fns[f].file];
            loops[f] = body_loop_spans(&file.src, &file.toks, def.body);
            for e in &cg.out[f] {
                let callee = &model.def(e.to).name;
                let looped = def
                    .calls
                    .iter()
                    .any(|c| c.line == e.line && c.name == *callee && in_loop(&loops[f], c.tok));
                if looped {
                    seed.push(e.to);
                }
            }
        }
        HotContext {
            ctx: lib_closure(model, cg, &seed),
            loops,
        }
    }

    /// Does token `tok` of function `f` run per event?
    pub(crate) fn in_hot_loop(&self, f: FnIdx, tok: usize) -> bool {
        self.ctx[f] || in_loop(&self.loops[f], tok)
    }
}

/// Forward lib-to-lib closure of `seeds` (library seeds included), as a
/// membership vector over all functions. Confined to library functions:
/// costs in bins, benches, and `#[cfg(test)]` code neither seed nor
/// transmit.
fn lib_closure(model: &WorkspaceModel, cg: &CallGraph, seeds: &[FnIdx]) -> Vec<bool> {
    let mut seen = vec![false; model.fns.len()];
    let mut stack: Vec<FnIdx> = Vec::new();
    for &s in seeds {
        if model.is_lib_fn(s) && !seen[s] {
            seen[s] = true;
            stack.push(s);
        }
    }
    while let Some(u) = stack.pop() {
        for e in &cg.out[u] {
            if model.is_lib_fn(e.to) && !seen[e.to] {
                seen[e.to] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

/// One [`SiteKind::Recursion`] site per library function on a lib-to-lib
/// call-graph cycle, at its cycle-entering call, with its file's index.
///
/// Same-name method dispatch is excluded from cycle detection: the call
/// graph's name-based method resolution links `self.inner.len()` to
/// *every* `len` in the workspace — including the delegating wrapper
/// itself — so every `fn is_empty() { self.nodes.is_empty() }` would read
/// as a self-cycle. An edge f → g with matching names participates only
/// if f also makes a bare or `Type::name` call by that name (true direct
/// recursion); mutual recursion between differently-named functions is
/// unaffected.
pub(crate) fn recursion_sites(model: &WorkspaceModel, cg: &CallGraph) -> Vec<(usize, Site)> {
    let n = model.fns.len();
    let rec_adj: Vec<Vec<usize>> = (0..n)
        .map(|f| {
            if !model.is_lib_fn(f) {
                return Vec::new();
            }
            let def = model.def(f);
            cg.out[f]
                .iter()
                .map(|e| e.to)
                .filter(|&g| {
                    let gname = &model.def(g).name;
                    model.is_lib_fn(g)
                        && (def.name != *gname
                            || def.calls.iter().any(|c| c.name == *gname && !c.method))
                })
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for f in 0..n {
        // f is on a cycle iff some callee g of f reaches f again. One
        // search per function with callees stays far under the lint
        // runtime budget.
        let Some(back) = rec_adj[f]
            .iter()
            .copied()
            .find(|&g| reaches(&rec_adj, g, f))
        else {
            continue;
        };
        let def = model.def(f);
        let callee = &model.def(back).name;
        let (tok, line, col) = def
            .calls
            .iter()
            .find(|c| c.name == *callee)
            .map_or((def.body.0 + 1, def.line, 1), |c| (c.tok, c.line, c.col));
        let what = format!("recursive cycle through `{}`", model.fq_name(back));
        out.push((
            model.fns[f].file,
            Site {
                kind: SiteKind::Recursion,
                what,
                tok,
                line,
                col,
            },
        ));
    }
    out
}

/// Does `from` reach `to` over `adj` (forward edges, `from` excluded
/// unless revisited)?
fn reaches(adj: &[Vec<usize>], from: usize, to: usize) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; adj.len()];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(u) = stack.pop() {
        for &g in &adj[u] {
            if g == to {
                return true;
            }
            if !seen[g] {
                seen[g] = true;
                stack.push(g);
            }
        }
    }
    false
}

/// `"N calls away"` for messages, or `"in its own body"` when the site
/// sits in the root itself.
pub(crate) fn hops(n: usize) -> String {
    match n {
        0 => "in its own body".to_string(),
        1 => "1 call away".to_string(),
        n => format!("{n} calls away"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_detects_cycles_and_dead_ends() {
        let adj = vec![vec![1], vec![2], vec![0], vec![]];
        assert!(reaches(&adj, 1, 0));
        assert!(reaches(&adj, 0, 0));
        assert!(!reaches(&adj, 3, 0));
    }

    #[test]
    fn hops_wording() {
        assert_eq!(hops(0), "in its own body");
        assert_eq!(hops(1), "1 call away");
        assert_eq!(hops(3), "3 calls away");
    }
}
