//! Interprocedural effect inference over the workspace call graph.
//!
//! Each function gets an [`EffectSet`] — a bitmask over the eight effect
//! kinds in [`Effect`] — seeded from *leaf intrinsics* found by scanning
//! the function's body tokens (`Instant::now`, `env::var`, `fs::read`,
//! `println!`, `thread::spawn`, hash-container iteration, …) and
//! propagated to a least fixpoint over the name-resolved [`CallGraph`]:
//! a caller inherits every effect of every callee it can reach. The
//! propagation is deliberately over-approximate in exactly the same way
//! the call graph is — a `.step(…)` call contributes the effects of
//! *every* workspace method named `step` — because over-approximation is
//! the safe direction for a "prove the core clockless" analysis: it can
//! only report a spurious path, never hide a real one. `par::` closure
//! bodies need no special casing — the parser attributes calls inside
//! closure arguments to the enclosing function, so their edges (and thus
//! their effects) already flow through the graph; trait-object dispatch
//! is covered by the method-name over-approximation.
//!
//! The join is set union — commutative, associative, idempotent — so the
//! least fixpoint is independent of visit order. [`fixpoint`] takes the
//! iteration order as an explicit argument purely so the property can be
//! tested (see the order-independence proptest in `tests/eff_rules.rs`).
//!
//! On top of the inferred sets sit two rule shapes. S109/S110/S111/S118
//! are *reachability* rules anchored by [`EffectConfig`], the `lint.toml`
//! `[effects.roots]` / `[effects.sinks]` tables: a designated root or
//! sink function whose inferred set contains a forbidden effect is a
//! violation, reported at the leaf intrinsic with the full call chain
//! from the root — the same shape as S101's panic traces. S112 and S119
//! are *site* rules, no config needed: `thread::spawn`/`thread::scope`
//! anywhere outside the two sanctioned scheduler files, and file IO in
//! the persistence crate anywhere outside its format module, are flagged
//! directly at the intrinsic.

use crate::callgraph::{CallGraph, Edge};
use crate::lexer::{lex, TokKind, Token};
use crate::parser::FnDef;
use crate::report::Finding;
use crate::rules::{hash_iteration_sites, test_line_spans_for, FileKind};
use crate::symbols::{FnIdx, WorkspaceModel};

/// One effect kind — a bit position in [`EffectSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Reads a wall clock: `Instant::now`, `SystemTime`, `UNIX_EPOCH`.
    ReadsWallClock = 0,
    /// Reads the process environment: `env::var`, `env::args`, ….
    ReadsEnv = 1,
    /// Observes the current thread's identity: `thread::current()`.
    ReadsThreadId = 2,
    /// Reads from the filesystem or stdin.
    IoRead = 3,
    /// Writes to the filesystem, stdout, or stderr.
    IoWrite = 4,
    /// May panic (unwrap/expect/panic-family/unguarded index).
    Panics = 5,
    /// Iterates a `HashMap`/`HashSet` without restoring an order.
    NondetIter = 6,
    /// Spawns a thread: `thread::spawn`, `thread::scope`.
    Spawns = 7,
}

impl Effect {
    /// Human-readable effect name for messages.
    pub fn name(self) -> &'static str {
        match self {
            Effect::ReadsWallClock => "wall-clock read",
            Effect::ReadsEnv => "environment read",
            Effect::ReadsThreadId => "thread-id read",
            Effect::IoRead => "IO read",
            Effect::IoWrite => "IO write",
            Effect::Panics => "panic",
            Effect::NondetIter => "unordered hash iteration",
            Effect::Spawns => "thread spawn",
        }
    }

    /// The verb phrase used in the final trace step.
    fn verb(self) -> &'static str {
        match self {
            Effect::ReadsWallClock => "reads the wall clock via",
            Effect::ReadsEnv => "reads the environment via",
            Effect::ReadsThreadId => "reads the thread id via",
            Effect::IoRead => "performs IO read via",
            Effect::IoWrite => "performs IO write via",
            Effect::Panics => "may panic via",
            Effect::NondetIter => "iterates unordered via",
            Effect::Spawns => "spawns a thread via",
        }
    }
}

/// A set of [`Effect`]s as a bitmask. Union is the lattice join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EffectSet(pub u16);

impl EffectSet {
    /// The empty set (lattice bottom).
    pub const EMPTY: EffectSet = EffectSet(0);

    /// Singleton set.
    pub fn of(e: Effect) -> EffectSet {
        EffectSet(1 << (e as u16))
    }

    /// Does the set contain `e`?
    pub fn contains(self, e: Effect) -> bool {
        self.0 & (1 << (e as u16)) != 0
    }

    /// Set union (the join).
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Is any effect present?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// One leaf intrinsic found in a function body: the evidence a finding's
/// final trace step points at.
#[derive(Clone, Debug)]
pub struct EffectSite {
    /// Which effect the site contributes.
    pub effect: Effect,
    /// The token pattern that identifies it (`Instant::now()`,
    /// `env::var`, `m.keys()`, …).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Root/sink designation from `lint.toml`'s `[effects.roots]` and
/// `[effects.sinks]` tables. Patterns match fully qualified function
/// names ([`WorkspaceModel::fq_name`]) either exactly or by prefix when
/// the pattern ends in `*` (`sybil-serve::shard::*`). Empty pattern
/// lists disable the corresponding rule, so a workspace with no
/// `[effects.*]` config gets S112 only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectConfig {
    /// S109 roots: functions that must not reach wall-clock / env /
    /// thread-id reads.
    pub clockless_roots: Vec<String>,
    /// S110 roots: the epoch-barrier critical path, which must not
    /// reach filesystem/stdio IO.
    pub io_free_roots: Vec<String>,
    /// S111 sinks: serialization/export entry points that must not
    /// reach unordered hash iteration.
    pub byte_stable_sinks: Vec<String>,
    /// S118 roots: the production fault-plane surface (the `FaultPlane`
    /// trait's no-op defaults and `NoFaults`), which must not reach
    /// filesystem/stdio IO — journaling belongs to sybil-store's durable
    /// planes only.
    pub fault_plane_roots: Vec<String>,
}

impl EffectConfig {
    /// Does `fq` match any pattern in `pats` (exact, or `prefix*`)?
    /// Shared with the cost layer's `[hotpaths.roots]` patterns.
    pub(crate) fn matches(pats: &[String], fq: &str) -> bool {
        pats.iter().any(|p| match p.strip_suffix('*') {
            Some(prefix) => fq.starts_with(prefix),
            None => p == fq,
        })
    }
}

/// Per-function effect information for the whole workspace.
#[derive(Clone, Debug, Default)]
pub struct EffectModel {
    /// Leaf effects found in each function's own body.
    pub intrinsic: Vec<EffectSet>,
    /// The fixpoint: own effects plus everything reachable.
    pub inferred: Vec<EffectSet>,
    /// The intrinsic evidence sites, per function, in source order.
    pub sites: Vec<Vec<EffectSite>>,
}

/// Compute the least fixpoint of `eff(f) = intrinsic(f) ∪ ⋃ eff(g)` for
/// every forward edge `f → g` in `out`, visiting functions in `order`
/// each round until nothing changes.
///
/// The join is set union, so the result is the same for every
/// permutation `order` — the property the order-independence proptest
/// exercises. `order` must list every index of `out` exactly once.
pub fn fixpoint(out: &[Vec<usize>], intrinsic: &[u16], order: &[usize]) -> Vec<u16> {
    let mut eff: Vec<u16> = intrinsic.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for &f in order {
            let mut acc = eff[f];
            for &g in &out[f] {
                acc |= eff[g];
            }
            if acc != eff[f] {
                eff[f] = acc;
                changed = true;
            }
        }
    }
    eff
}

/// Infer effects for every function: collect intrinsics from library-code
/// bodies, then propagate over lib-to-lib call edges to a fixpoint.
///
/// Propagation is confined to library functions (`is_lib_fn`): effects
/// in bins, benches, and `#[cfg(test)]` code neither seed nor transmit,
/// so a test helper that prints can never make a core function look
/// IO-dirty through an over-approximated method edge.
pub fn infer(model: &WorkspaceModel, cg: &CallGraph) -> EffectModel {
    let n = model.fns.len();
    let mut sites: Vec<Vec<EffectSite>> = vec![Vec::new(); n];

    // Group functions by file so each lib file is lexed exactly once.
    for (fi, file) in model.files.iter().enumerate() {
        if file.kind != FileKind::Lib {
            continue;
        }
        let src = file.src.as_str();
        let toks = lex(src);
        let spans = test_line_spans_for(src);
        let in_test = |line: u32| spans.iter().any(|&(a, b)| line >= a && line <= b);
        let hash_sites = hash_iteration_sites(src, &toks);
        for (f, node) in model.fns.iter().enumerate() {
            if node.file != fi || !model.is_lib_fn(f) {
                continue;
            }
            collect_body_sites(src, &toks, &node.def, &mut sites[f]);
            for hs in &hash_sites {
                if hs.tok > node.def.body.0 && hs.tok < node.def.body.1 && !in_test(hs.line) {
                    sites[f].push(EffectSite {
                        effect: Effect::NondetIter,
                        what: hs.describe(),
                        line: hs.line,
                        col: hs.col,
                    });
                }
            }
            for p in &node.def.panics {
                sites[f].push(EffectSite {
                    effect: Effect::Panics,
                    what: p.what.clone(),
                    line: p.line,
                    col: p.col,
                });
            }
            sites[f].sort_by_key(|s| (s.line, s.col, s.effect as u16));
        }
    }

    let intrinsic: Vec<EffectSet> = sites
        .iter()
        .map(|s| {
            s.iter()
                .fold(EffectSet::EMPTY, |acc, site| acc.union(EffectSet::of(site.effect)))
        })
        .collect();

    // Lib-to-lib adjacency only; see the doc comment for why.
    let out_adj: Vec<Vec<usize>> = (0..n)
        .map(|f| {
            if !model.is_lib_fn(f) {
                return Vec::new();
            }
            cg.out[f]
                .iter()
                .filter(|e| model.is_lib_fn(e.to))
                .map(|e| e.to)
                .collect()
        })
        .collect();
    let raw: Vec<u16> = intrinsic.iter().map(|s| s.0).collect();
    let order: Vec<usize> = (0..n).collect();
    let inferred = fixpoint(&out_adj, &raw, &order)
        .into_iter()
        .map(EffectSet)
        .collect();

    EffectModel {
        intrinsic,
        inferred,
        sites,
    }
}

/// `std::env` functions that read (or mutate, which implies reading for
/// any later reader) the process environment.
const ENV_FNS: [&str; 12] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "current_exe",
    "temp_dir",
    "home_dir",
    "set_var",
    "remove_var",
];

/// `std::fs` functions that read the filesystem.
const FS_READ_FNS: [&str; 7] = [
    "read",
    "read_to_string",
    "read_dir",
    "read_link",
    "metadata",
    "canonicalize",
    "symlink_metadata",
];

/// `std::fs` functions that write the filesystem.
const FS_WRITE_FNS: [&str; 9] = [
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "set_permissions",
];

/// `print`-family macros (stdout/stderr writers).
const PRINT_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

/// Is token `i` the last segment of a `qual::…::i` path whose segment
/// immediately before it is `qual`? Matches both `env::var` and
/// `std::env::var` (only the adjacent qualifier is checked).
pub(crate) fn path_prefixed(src: &str, toks: &[Token], i: usize, qual: &str) -> bool {
    let Some(j) = i.checked_sub(3) else {
        return false;
    };
    toks.get(j).is_some_and(|t| t.is_ident(src, qual))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(b':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct(b':'))
}

/// Scan one function's body-token span for leaf effect intrinsics
/// (everything except hash iteration and panics, which come from shared
/// collectors).
fn collect_body_sites(src: &str, toks: &[Token], def: &FnDef, out: &mut Vec<EffectSite>) {
    let (open, close) = def.body;
    let lo = (open + 1).min(toks.len());
    let hi = close.min(toks.len());
    for i in lo..hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text(src);
        let next_is = |ch: u8| toks.get(i + 1).is_some_and(|n| n.is_punct(ch));
        let push = |out: &mut Vec<EffectSite>, effect: Effect, what: String| {
            out.push(EffectSite {
                effect,
                what,
                line: t.line,
                col: t.col,
            });
        };
        match text {
            // Wall clock. `Instant` alone is just a type mention (a
            // parameter, a stored field); only the `now` constructor —
            // and the ambient `SystemTime`/`UNIX_EPOCH` sources, which
            // have no injected form — observe the clock.
            "now" if path_prefixed(src, toks, i, "Instant") && next_is(b'(') => {
                push(out, Effect::ReadsWallClock, "Instant::now()".into());
            }
            "SystemTime" => push(out, Effect::ReadsWallClock, "SystemTime".into()),
            "UNIX_EPOCH" => push(out, Effect::ReadsWallClock, "UNIX_EPOCH".into()),
            // Environment.
            _ if ENV_FNS.contains(&text) && path_prefixed(src, toks, i, "env") => {
                push(out, Effect::ReadsEnv, format!("env::{text}"));
            }
            // Thread identity.
            "current" if path_prefixed(src, toks, i, "thread") && next_is(b'(') => {
                push(out, Effect::ReadsThreadId, "thread::current()".into());
            }
            // Filesystem / stdio.
            _ if FS_READ_FNS.contains(&text) && path_prefixed(src, toks, i, "fs") => {
                push(out, Effect::IoRead, format!("fs::{text}"));
            }
            _ if FS_WRITE_FNS.contains(&text) && path_prefixed(src, toks, i, "fs") => {
                push(out, Effect::IoWrite, format!("fs::{text}"));
            }
            "open" if path_prefixed(src, toks, i, "File") && next_is(b'(') => {
                push(out, Effect::IoRead, "File::open".into());
            }
            "create" if path_prefixed(src, toks, i, "File") && next_is(b'(') => {
                push(out, Effect::IoWrite, "File::create".into());
            }
            "stdin" if path_prefixed(src, toks, i, "io") && next_is(b'(') => {
                push(out, Effect::IoRead, "io::stdin()".into());
            }
            "stdout" if path_prefixed(src, toks, i, "io") && next_is(b'(') => {
                push(out, Effect::IoWrite, "io::stdout()".into());
            }
            "stderr" if path_prefixed(src, toks, i, "io") && next_is(b'(') => {
                push(out, Effect::IoWrite, "io::stderr()".into());
            }
            _ if PRINT_MACROS.contains(&text) && next_is(b'!') => {
                push(out, Effect::IoWrite, format!("{text}!"));
            }
            // Spawning.
            "spawn" | "scope" if path_prefixed(src, toks, i, "thread") && next_is(b'(') => {
                push(out, Effect::Spawns, format!("thread::{text}"));
            }
            _ => {}
        }
    }
}

/// Files allowed to spawn threads: the deterministic parallel map and
/// the serving engine's shard coordinator. Everything else routes
/// parallelism through `osn_graph::par` so S102/S103 can see it.
const SPAWN_SANCTIONED: [&str; 2] = [
    "crates/osn-graph/src/par.rs",
    "crates/sybil-serve/src/engine.rs",
];

/// The persistence crate's library sources: everything here that touches
/// a file writes *versioned* state, so the bytes must route through the
/// format module below.
const VERSIONED_STATE_DIR: &str = "crates/sybil-store/src/";

/// The one module allowed to do file IO on versioned state: it owns
/// every filesystem touch (atomic checkpoint writes, journal open and
/// torn-tail repair, directory scans), so the crate's byte layouts —
/// `SYBS` there, `SYBJ` in `journal.rs`, both on `codec.rs` — are the
/// only way bytes reach disk.
const FORMAT_MODULE: &str = "crates/sybil-store/src/format.rs";

/// Run S109–S112 over the inferred effects, appending findings to `out`.
pub(crate) fn check_effects(
    model: &WorkspaceModel,
    cg: &CallGraph,
    cfg: &EffectConfig,
    out: &mut Vec<Finding>,
) {
    let em = infer(model, cg);

    // The three reachability families: (rule, root patterns, effects,
    // role word for the message, remediation clause).
    let clock = EffectSet::of(Effect::ReadsWallClock)
        .union(EffectSet::of(Effect::ReadsEnv))
        .union(EffectSet::of(Effect::ReadsThreadId));
    let io = EffectSet::of(Effect::IoRead).union(EffectSet::of(Effect::IoWrite));
    let nondet = EffectSet::of(Effect::NondetIter);
    struct Family<'a> {
        rule: &'static str,
        pats: &'a [String],
        mask: EffectSet,
        role: &'static str,
        fix: &'static str,
    }
    let families = [
        Family {
            rule: "S109",
            pats: &cfg.clockless_roots,
            mask: clock,
            role: "deterministic-core root",
            fix: "inject the value at the boundary (see serve_timed) or \
                  allowlist with the invariant that keeps replay bit-identical",
        },
        Family {
            rule: "S110",
            pats: &cfg.io_free_roots,
            mask: io,
            role: "epoch-barrier path root",
            fix: "hoist the IO out of the barrier (stage bytes before, flush \
                  after) or allowlist with the blocking bound",
        },
        Family {
            rule: "S111",
            pats: &cfg.byte_stable_sinks,
            mask: nondet,
            role: "byte-stable export sink",
            fix: "iterate a BTree container or collect-and-sort before \
                  serializing so the exported bytes are order-stable",
        },
        Family {
            rule: "S118",
            pats: &cfg.fault_plane_roots,
            mask: io,
            role: "production fault-plane hook",
            fix: "keep the production plane a pure no-op — journal writes \
                  and other IO belong in a durable plane's override, never \
                  in the default the real engine runs",
        },
    ];

    for fam in &families {
        if fam.pats.is_empty() {
            continue;
        }
        let is_root = |i: FnIdx| {
            model.is_lib_fn(i) && EffectConfig::matches(fam.pats, &model.fq_name(i))
        };
        for f in 0..model.fns.len() {
            if em.intrinsic[f].0 & fam.mask.0 == 0 {
                continue;
            }
            let Some((anc, path)) =
                cg.nearest_ancestor_where(f, is_root, |i| model.is_lib_fn(i))
            else {
                continue;
            };
            let file = &model.files[model.fns[f].file];
            for site in &em.sites[f] {
                if !fam.mask.contains(site.effect) {
                    continue;
                }
                let mut trace: Vec<String> =
                    path.iter().map(|e| edge_step_eff(model, e)).collect();
                trace.push(format!(
                    "{} {} `{}` at {}:{}",
                    model.fq_name(f),
                    site.effect.verb(),
                    site.what,
                    file.rel,
                    site.line
                ));
                out.push(Finding {
                    rule: fam.rule,
                    path: file.rel.clone(),
                    line: site.line,
                    col: site.col,
                    message: format!(
                        "`{}` ({}) is reachable from {} `{}` ({} call{} away); {}",
                        site.what,
                        site.effect.name(),
                        fam.role,
                        model.fq_name(anc),
                        path.len(),
                        if path.len() == 1 { "" } else { "s" },
                        fam.fix,
                    ),
                    snippet: line_text(&file.src, site.line),
                    trace,
                });
            }
        }
    }

    // S112: spawn sites outside the sanctioned scheduler files.
    for f in 0..model.fns.len() {
        if !em.intrinsic[f].contains(Effect::Spawns) {
            continue;
        }
        let file = &model.files[model.fns[f].file];
        if SPAWN_SANCTIONED.iter().any(|s| file.rel.ends_with(s) || file.rel == *s) {
            continue;
        }
        for site in &em.sites[f] {
            if site.effect != Effect::Spawns {
                continue;
            }
            out.push(Finding {
                rule: "S112",
                path: file.rel.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "`{}` spawns outside the sanctioned scheduler files \
                     (osn_graph::par, sybil-serve's coordinator); route \
                     parallelism through `par::` so the capture and \
                     reduction rules can see it",
                    site.what
                ),
                snippet: line_text(&file.src, site.line),
                trace: vec![format!(
                    "{} spawns a thread via `{}` at {}:{}, outside the \
                     sanctioned scheduler files",
                    model.fq_name(f),
                    site.what,
                    file.rel,
                    site.line
                )],
            });
        }
    }

    // S119: file IO on versioned state outside the format module. A site
    // rule like S112 — no config, no allowlist: bytes the persistence
    // crate puts on disk anywhere but `format.rs` are unversioned by
    // construction.
    for f in 0..model.fns.len() {
        if !model.is_lib_fn(f) || em.intrinsic[f].0 & io.0 == 0 {
            continue;
        }
        let file = &model.files[model.fns[f].file];
        if !file.rel.starts_with(VERSIONED_STATE_DIR) || file.rel == FORMAT_MODULE {
            continue;
        }
        for site in &em.sites[f] {
            if !io.contains(site.effect) {
                continue;
            }
            out.push(Finding {
                rule: "S119",
                path: file.rel.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "`{}` ({}) touches versioned state outside \
                     `sybil-store::format`; every file touch lives in \
                     format.rs, under the SYBS/SYBJ headers, framing, and \
                     digests — express the operation as a `format` helper \
                     so those rules apply to every byte that reaches disk",
                    site.what,
                    site.effect.name()
                ),
                snippet: line_text(&file.src, site.line),
                trace: vec![format!(
                    "{} {} `{}` at {}:{}, outside the format module that \
                     owns the on-disk encoding",
                    model.fq_name(f),
                    site.effect.verb(),
                    site.what,
                    file.rel,
                    site.line
                )],
            });
        }
    }
}

/// One forward edge as a trace step, annotating calls made from inside a
/// `par::` closure (the parser attributes those calls to the enclosing
/// function, so the plain rendering would hide the thread boundary).
pub(crate) fn edge_step_eff(model: &WorkspaceModel, e: &Edge) -> String {
    let def = &model.fns[e.from].def;
    let callee = &model.fns[e.to].def.name;
    for pc in &def.par_calls {
        let inside = def.calls.iter().any(|c| {
            c.line == e.line && c.name == *callee && c.tok > pc.args.0 && c.tok < pc.args.1
        });
        if inside {
            return format!(
                "{} calls {} from inside the `par::{}` closure at {}:{}",
                model.fq_name(e.from),
                model.fq_name(e.to),
                pc.entry,
                model.path_of(e.from),
                e.line
            );
        }
    }
    format!(
        "{} calls {} at {}:{}",
        model.fq_name(e.from),
        model.fq_name(e.to),
        model.path_of(e.from),
        e.line
    )
}

fn line_text(src: &str, line: u32) -> String {
    src.lines()
        .nth(line as usize - 1)
        .unwrap_or("")
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_set_ops() {
        let s = EffectSet::of(Effect::ReadsWallClock).union(EffectSet::of(Effect::Spawns));
        assert!(s.contains(Effect::ReadsWallClock));
        assert!(s.contains(Effect::Spawns));
        assert!(!s.contains(Effect::IoRead));
        assert!(EffectSet::EMPTY.is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn fixpoint_propagates_through_cycles() {
        // 0 → 1 → 2 → 1 (cycle), intrinsic only on 2.
        let out = vec![vec![1], vec![2], vec![1]];
        let intr = vec![0u16, 0, 0b100];
        let eff = fixpoint(&out, &intr, &[0, 1, 2]);
        assert_eq!(eff, vec![0b100, 0b100, 0b100]);
        // Reversed visit order reaches the same fixpoint.
        assert_eq!(fixpoint(&out, &intr, &[2, 1, 0]), eff);
    }

    #[test]
    fn config_pattern_matching() {
        let pats = vec!["a::b".to_string(), "x::y::*".to_string()];
        assert!(EffectConfig::matches(&pats, "a::b"));
        assert!(!EffectConfig::matches(&pats, "a::b::c"));
        assert!(EffectConfig::matches(&pats, "x::y::z"));
        assert!(EffectConfig::matches(&pats, "x::y::"));
        assert!(!EffectConfig::matches(&pats, "x::"));
    }
}
