//! The rule table, the site reporter, and the two per-file rules with
//! logic of their own (D001, D005).
//!
//! Most rules are one row of [`RULES`]: *these* leaf-pattern site kinds
//! ([`crate::sites`]) are forbidden in *this* scope — anywhere outside
//! one exempt file, where a `pub` library fn can reach them, where a
//! function named in a `lint.toml` root list can reach them (inside a
//! per-event loop, for the loop-scoped rows), or inside one directory
//! outside one module. One reporter judges every such row: find the
//! site's function, search the call graph *backwards* for the nearest
//! root, render the chain. The rules that are not site rules — D001,
//! D005 here, S102/S104/S107/S108 in [`crate::rules_sem`], S105 in
//! [`crate::workspace`] — keep a row for their code, summary and
//! `--explain` text, and their own function.
//!
//! Rules are deliberately heuristic — they key on names and token shapes,
//! not types — but every heuristic errs toward *flagging*, and the
//! `lint.toml` allowlist (with mandatory justifications) absorbs the
//! reviewed exceptions. See DESIGN.md §"Determinism invariants & lint
//! policy" for the rationale behind each rule.

use crate::callgraph::{CallGraph, Edge};
use crate::costs::{hops, recursion_sites, HotContext, HotPathConfig};
use crate::effects::EffectConfig;
use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use crate::sites::{Site, SiteKind};
use crate::symbols::{FileModel, FnIdx, WorkspaceModel};
use crate::workspace::SourceFile;

/// How a source file participates in the build — determines which rules
/// apply to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**` minus `src/bin/**`): all rules apply.
    Lib,
    /// Binary targets (`src/bin/**`, `src/main.rs`): the runtime rules
    /// (D002/D003/D006) apply; the library policies (D001, S101) do not.
    Bin,
    /// Integration tests, benches, examples: exempt from every rule (test
    /// code may use wall clocks, unwraps, hash iteration).
    Test,
}

/// One file to lint on its own, see [`check_file`].
pub struct FileCtx<'s> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'s str,
    /// The crate this file belongs to (package name).
    pub crate_name: &'s str,
    /// Build role of the file.
    pub kind: FileKind,
    /// Full source text.
    pub src: &'s str,
}

/// A `lint.toml` root list a [`Scope::Roots`] row is anchored to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootList {
    /// `[effects.roots] clockless`.
    Clockless,
    /// `[effects.roots] io_free`.
    IoFree,
    /// `[effects.roots] fault_plane`.
    FaultPlane,
    /// `[hotpaths.roots] per_event`.
    PerEvent,
}

/// Where a site rule's kinds are forbidden.
#[derive(Clone, Copy, Debug)]
pub enum Scope {
    /// Anywhere in non-test code of library and binary files, except in
    /// the file whose path ends with `exempt`.
    Anywhere {
        /// Path suffix of the one sanctioned file, if there is one.
        exempt: Option<&'static str>,
    },
    /// In library code a `pub` library fn reaches through the call graph.
    /// Call and macro panics no `pub` fn reaches are reported too, under
    /// the `orphan` message.
    PubApi {
        /// Message template for a site with no `pub` ancestor.
        orphan: &'static str,
    },
    /// In library code reachable — through library functions only — from
    /// a function the root list names. An empty list disables the row.
    Roots(RootList),
    /// In library code of the files under `dir`, except the file `except`.
    Dir {
        /// Workspace-relative directory prefix.
        dir: &'static str,
        /// The one module inside it that may hold the site.
        except: &'static str,
        /// What the trace step adds about the place.
        outside: &'static str,
    },
}

/// The site half of a [`Rule`] row: what the shared reporter judges.
#[derive(Clone, Copy, Debug)]
pub struct SiteRule {
    /// The site kinds the rule forbids.
    pub kinds: &'static [SiteKind],
    /// Where it forbids them.
    pub scope: Scope,
    /// Under [`RootList::PerEvent`]: only sites that run per event — in
    /// a loop of a hot function, or in anything such a loop calls.
    pub loop_scoped: bool,
    /// Message template: `{site}` is the quoted pattern, `{kind}` its
    /// kind's name, `{root}` the nearest root, `{calls}` / `{hops}` the
    /// chain length (`0 calls away` / `in its own body`).
    pub message: &'static str,
}

/// One rule code.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// The code findings and `lint.toml` entries carry.
    pub code: &'static str,
    /// One line for `--list-rules`.
    pub summary: &'static str,
    /// The `--explain CODE` text.
    pub explain: &'static str,
    /// What the shared reporter judges for this code; `None` for the
    /// rules with a function of their own.
    pub sites: Option<SiteRule>,
}

/// Every rule, in `--list-rules` order. The D-rows and S101 are judged
/// on any set of files; S102–S108 and the rows anchored to a root list
/// need `--workspace`.
pub const RULES: [Rule; 20] = [
    Rule {
        code: "D001",
        summary: "unordered HashMap/HashSet iteration in library code (use BTreeMap or \
                 sort before emit)",
        explain: "D001 — unordered hash iteration\n\nIterating a HashMap/HashSet visits \
                 entries in randomized order, so any output derived from the walk differs \
                 between runs. Library code must iterate BTreeMap/BTreeSet or sort before \
                 emitting.",
        sites: None,
    },
    Rule {
        code: "D002",
        summary: "wall-clock read (Instant::now / SystemTime) outside the repro CLI",
        explain: "D002 — wall-clock reads\n\nInstant::now()/SystemTime readings leak \
                 nondeterminism into results. Only the repro CLI may measure time.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::WallClock],
            scope: Scope::Anywhere {
                exempt: Some("src/bin/repro.rs"),
            },
            loop_scoped: false,
            message: "{site} reads the wall clock; simulation and analytics must use sim \
                     time",
        }),
    },
    Rule {
        code: "D003",
        summary: "raw threading primitive (thread::spawn / Mutex / atomics) outside \
                 osn_graph::par",
        explain: "D003 — raw threading primitives\n\nAll parallelism flows through \
                 osn_graph::par, whose deterministic map is the one reviewed concurrency \
                 surface. thread::spawn/Mutex/atomics elsewhere bypass that review.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::ThreadPrim, SiteKind::Spawn],
            scope: Scope::Anywhere {
                exempt: Some("crates/osn-graph/src/par.rs"),
            },
            loop_scoped: false,
            message: "{site} outside osn_graph::par; use the deterministic parallel map \
                     instead",
        }),
    },
    Rule {
        code: "D005",
        summary: "library crate missing #![forbid(unsafe_code)]",
        explain: "D005 — forbid(unsafe_code)\n\nEvery library crate root must carry \
                 #![forbid(unsafe_code)] so the guarantee is compiler-checked, not \
                 policy.",
        sites: None,
    },
    Rule {
        code: "D006",
        summary: "entropy-seeded RNG (thread_rng / OsRng / from_entropy / rand::random)",
        explain: "D006 — seeded RNGs only\n\nthread_rng/OsRng/from_entropy draw from the \
                 OS entropy pool, making runs unrepeatable. All randomness must come from \
                 an explicitly seeded generator.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::Entropy],
            scope: Scope::Anywhere { exempt: None },
            loop_scoped: false,
            message: "{site}; all randomness must come from an explicitly seeded generator",
        }),
    },
    Rule {
        code: "S101",
        summary: "panic site in library code (unwrap / expect / panic! / unguarded index), \
                 with the pub call chain that reaches it",
        explain: "S101 — panics in library code\n\nunwrap/expect/panic! in a library turns \
                 a recoverable condition into an abort for every caller, and what a \
                 review of one needs is its *exposure*. S101 reports every panic site \
                 (unwrap / expect / panic-family macro / indexing in a guard-free \
                 function) that a pub library function can reach through the workspace \
                 call graph. The finding is anchored at the panic site and carries the \
                 shortest call chain from the nearest pub entry point as a trace, one \
                 `caller calls callee at file:line` step per edge. An unwrap / expect / \
                 panic-family macro that no pub function reaches yet is reported all the \
                 same, with a trace line saying so: the policy is about the site, and the \
                 next refactor may export it.\n\nFix by propagating Result/Option along \
                 the chain, or allowlist the site in lint.toml with the invariant that \
                 makes the panic unreachable. The call graph is name-resolved and \
                 over-approximate: it may report a chain that type analysis would rule \
                 out, but it never hides one.",
        sites: Some(SiteRule {
            kinds: &[
                SiteKind::PanicCall,
                SiteKind::PanicMacro,
                SiteKind::PanicIndex,
            ],
            scope: Scope::PubApi {
                orphan: "{site} is in library code no pub fn reaches yet; propagate \
                         Result/Option or allowlist with the guarding invariant",
            },
            loop_scoped: false,
            message: "{site} is reachable from pub `{root}` ({calls}); propagate \
                     Result/Option or allowlist with the guarding invariant",
        }),
    },
    Rule {
        code: "S102",
        summary: "non-associative float reduction reachable from a par:: map/sweep closure",
        explain: "S102 — float reductions under par\n\nFloating-point addition is not \
                 associative, so a sum/fold/accumulate loop over f32/f64 yields different \
                 bits under different evaluation orders. Inside a par::map_indexed / \
                 map_indexed_with / map_slice closure — or any function the closure \
                 reaches — such a reduction is one refactor away from breaking the \
                 bit-identical-across-thread-counts guarantee.\n\nThe trace names the \
                 parallel entry point and the call chain to the reduction. Reductions \
                 whose order is fixed per item (a serial loop over one node's \
                 neighbourhood) are sound: allowlist the kernel in lint.toml and state \
                 that ordering argument in the justification.",
        sites: None,
    },
    Rule {
        code: "S104",
        summary: "dead export: pub item unused by any bin, test, bench, example, or other \
                 crate",
        explain: "S104 — dead exports\n\nA pub item that no bin, test, bench, example, or \
                 other crate ever names is API surface the workspace maintains but never \
                 exercises — it dodges the whole test suite. Demote it to pub(crate) (it \
                 stays visible to siblings in its own crate) or delete it. Usage is \
                 detected by name across the workspace, which over-approximates liveness: \
                 anything S104 still flags has not even a name-collision excuse.",
        sites: None,
    },
    Rule {
        code: "S105",
        summary: "stale lint.toml entry: allowlist entry or root pattern that matched nothing \
                 this run",
        explain: "S105 — stale lint.toml entries\n\nAn [[allow]] entry in lint.toml that \
                 matched no finding this run documents an exception that no longer \
                 exists; left in place it would silently re-arm if the pattern ever came \
                 back. S105 reports the entry at its line in lint.toml as an error. Run \
                 `sybil-lint --workspace --fix-allowlist` to delete stale entries; when \
                 nothing is stale the rewrite is byte-identical.\n\nA pattern under \
                 [effects.roots] or [hotpaths.roots] that matches no library function is \
                 stale the same way, and worse: the rule it anchors is switched off for \
                 that root without a word (renaming or moving the function does it). S105 \
                 reports the pattern at its key's line; re-point it by hand — \
                 --fix-allowlist does not touch the root tables.",
        sites: None,
    },
    Rule {
        code: "S107",
        summary: "stringly-typed error API: pub Result<_, String> or process::exit in a \
                 library",
        explain: "S107 — stringly-typed error APIs\n\nA pub fn returning Result<_, String> \
                 hands callers an error they can only string-match or rewrap: no variants \
                 to match on, no source chain, and every formatting tweak is a silent API \
                 break. Return a typed error (the workspace's shared variants live in \
                 sybil_core::Error; crate-local enums like osn_graph::GraphError are \
                 equally fine) and keep the prose in its Display impl.\n\nThe second \
                 shape is the same contract violated at the call site: library code \
                 settling a Result/Option with unwrap_or_else(… process::exit …) kills \
                 the process where no caller can intercept it — under a worker pool that \
                 strands the sibling threads mid-epoch. Binaries own the exit code; \
                 libraries return the error. Only `pub fn` signatures are checked \
                 (pub(crate) surface is internal), and binaries may exit — shape (b) \
                 fires on library files only.",
        sites: None,
    },
    Rule {
        code: "S108",
        summary: "hash container keyed by node/packed-edge ids in a scale-critical module",
        explain: "S108 — hash containers on the million-account hot path\n\nThree modules \
                 carry the per-event and per-rotation work at scale: the coordinator's \
                 edge mirror (sybil-serve/src/mirror.rs), the per-shard scan loop \
                 (sybil-serve/src/shard.rs), and the CSR snapshot \
                 (osn-graph/src/snapshot.rs). Their layout contract is flat id-indexed \
                 arenas — CSR row probes, the FlatDelta arena, sorted arrays — because at \
                 5M accounts a HashMap/HashSet keyed by NodeId, u32, or u64 (or a packed \
                 pair of them) costs a hash and a cache-hostile probe per touch and \
                 scatters allocations the rotation path would then re-fault every epoch. \
                 Dense ids index Vecs directly; sorted runs binary-search. If a hash \
                 container is genuinely right (a provably tiny working set), allowlist \
                 the site in lint.toml and state that size bound in the justification. \
                 Only the three designated modules are checked, and #[cfg(test)] code is \
                 exempt.",
        sites: None,
    },
    Rule {
        code: "S109",
        summary: "wall-clock/env/thread-id effect reachable from a deterministic-core root",
        explain: "S109 — ambient-input effects on the deterministic core\n\nThe \
                 replay/serve contract every verify.sh gate byte-compares assumes the \
                 core computes from its arguments alone. S109 proves it: every read of \
                 the wall clock (Instant::now / SystemTime / UNIX_EPOCH), the environment \
                 (std::env::*), or the current thread's identity (thread::current) in \
                 library code is a site, and from each site the linter searches backwards \
                 over the name-resolved call graph — through par:: closures and \
                 (conservatively) trait-object method edges — for the nearest function \
                 designated under `[effects.roots] clockless` in lint.toml (replay, \
                 serve, simulate, snapshot rotation, feature extraction). A site that \
                 such a root reaches is an error, reported at the site with the full \
                 root→site call chain.\n\nFix by injecting the dependency at the boundary \
                 — serve_timed takes the clock as a closure parameter precisely so the \
                 core never reads one. A reviewed read whose value provably cannot alter \
                 results (e.g. a thread-count knob proven bit-identical across values by \
                 the verify gates) belongs in lint.toml with that invariant spelled out. \
                 The graph over-approximates: it may report a chain type analysis would \
                 prune, but it never hides one.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::WallClock, SiteKind::Env, SiteKind::ThreadId],
            scope: Scope::Roots(RootList::Clockless),
            loop_scoped: false,
            message: "{site} ({kind}) is reachable from deterministic-core root `{root}` \
                     ({calls}); inject the value at the boundary (see serve_timed) or \
                     allowlist with the invariant that keeps replay bit-identical",
        }),
    },
    Rule {
        code: "S110",
        summary: "IO effect reachable from the epoch-barrier critical path",
        explain: "S110 — IO on the epoch-barrier critical path\n\nShard step, mirror \
                 absorb/rotate, and delta-queue operations run between epoch barriers, \
                 where every shard's latency is the epoch's latency and a blocking read \
                 or write stalls the whole round. S110 runs the same backward search as \
                 S109 over the IO site kinds: filesystem calls (std::fs::*, \
                 File::open/create) and console writes (println!/eprintln!, \
                 io::stdout/stderr) reachable from a root designated under \
                 `[effects.roots] io_free` are errors with the full root→site call \
                 chain.\n\nKeep IO at the coordinator boundary — snapshots and metrics \
                 are staged in memory during the epoch and written outside the barrier. A \
                 reviewed exception (e.g. a bounded, rotation-only append) needs its \
                 bound written into lint.toml.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::IoRead, SiteKind::IoWrite],
            scope: Scope::Roots(RootList::IoFree),
            loop_scoped: false,
            message: "{site} ({kind}) is reachable from epoch-barrier path root `{root}` \
                     ({calls}); hoist the IO out of the barrier (stage bytes before, \
                     flush after) or allowlist with the blocking bound",
        }),
    },
    Rule {
        code: "S113",
        summary: "allocation inside a per-event hot loop (no recycled-scratch \
                 justification)",
        explain: "S113 — allocation inside a per-event hot loop\n\nPR 6 measured the \
                 serving critical path being dominated by memory behavior: recycling \
                 scratch buffers took 8-shard 5M serving from 35s to ~18s. S113 guards \
                 that win. Every allocation in library code is a site — \
                 Vec/HashMap/String constructors, Box::new, vec!/format!, \
                 .clone()/.collect()/.to_vec(). A loop pass recovers the loop spans of \
                 every function a `[hotpaths.roots]` core reaches, and any allocation \
                 that runs *inside a per-event hot loop* — in such a function's own loop \
                 body, or in any function such a loop (transitively) calls — is an error, \
                 reported at the site with the full root→site call chain (found by the \
                 same backward search as S109).\n\nFix by hoisting the buffer out of the \
                 loop into caller-owned scratch (NeighborScratch, MergeScratch, and the \
                 shard's friend_ids buffer are the house idiom: clear-and-refill, never \
                 reallocate). An allocation that is genuinely amortized — building the \
                 output block that replaces a rotated CSR block, say — belongs in \
                 lint.toml with that amortization argument spelled out in the \
                 justification.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::Alloc],
            scope: Scope::Roots(RootList::PerEvent),
            loop_scoped: true,
            message: "{site} ({kind}) runs per event inside the hot loop under hot-path \
                     root `{root}` ({hops}); hoist it into a recycled scratch buffer \
                     owned by the caller, or allowlist with the amortization invariant",
        }),
    },
    Rule {
        code: "S114",
        summary: "monotonic collection growth across the epoch loop (push/insert, no \
                 drain)",
        explain: "S114 — monotonic collection growth across the epoch loop\n\nA push or \
                 insert that executes per event with no clear/drain/truncate on the same \
                 collection is a static leak: occupancy grows with event count and the \
                 5M-account epoch loop turns it into memory pressure and realloc stalls. \
                 S114 finds growth-method calls (push / push_back / insert / extend / \
                 append) reachable inside a per-event hot loop and models drains by \
                 receiver: growth on a receiver that is also cleared, drained, truncated, \
                 popped, retained, or split in the *same function* is the \
                 recycled-scratch idiom and never fires — that is the negative case the \
                 cost fixtures pin.\n\nSurviving sites either drain at the epoch barrier \
                 (bounded staging queues drained by the coordinator each round are the \
                 house pattern) or carry an allowlist entry stating the occupancy bound: \
                 what caps the collection, and who enforces the cap.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::Growth],
            scope: Scope::Roots(RootList::PerEvent),
            loop_scoped: true,
            message: "{site} ({kind}) runs per event inside the hot loop under hot-path \
                     root `{root}` ({hops}); drain the collection at the epoch barrier or \
                     allowlist with the occupancy bound that caps it",
        }),
    },
    Rule {
        code: "S115",
        summary: "truncating `as` cast on id/count types reachable from a hot path",
        explain: "S115 — truncating casts on the hot path\n\nThe scale contract is u32 ids \
                 end-to-end: 5M accounts fit comfortably, and flat u32 arenas are half \
                 the memory of usize. The risk is the silent `as` cast — `len() as u32`, \
                 `(base + offset) as u32` — which truncates without a sound when the \
                 invariant that \"this fits\" stops holding. S115 flags every `as` cast \
                 to a narrow integer type (u8/u16/u32/i8/i16/i32) in any function \
                 reachable from a `[hotpaths.roots]` core, with the root→site chain. \
                 Widening casts are never flagged.\n\nFix with a checked conversion: \
                 try_into (or sybil_core::ids::count_u32) surfacing the typed \
                 sybil_core::Error::IdOverflow — never a stringly error. A cast whose \
                 range invariant is structural (block-local offsets bounded by block \
                 size, node ids constructed from u32) can be allowlisted with that \
                 invariant spelled out.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::Cast],
            scope: Scope::Roots(RootList::PerEvent),
            loop_scoped: false,
            message: "{site} ({kind}) is reachable from hot-path root `{root}` ({hops}); \
                     convert with try_into and a typed Error::IdOverflow, or allowlist \
                     with the range invariant that rules out overflow",
        }),
    },
    Rule {
        code: "S116",
        summary: "blocking acquisition (lock / recv / wait) reachable from a hot loop",
        explain: "S116 — blocking acquisition reachable from a hot loop\n\nBetween epoch \
                 barriers every shard's latency is the epoch's latency: a lock, an \
                 unbounded recv, or an IO wait inside the per-event loop serializes the \
                 shards and melts the throughput the substrate exists to provide. S116 \
                 marks blocking intrinsics (.lock(), .recv(), .recv_timeout(), .wait(), \
                 thread::sleep) and reports any site reachable inside a per-event hot \
                 loop, with the propagation chain.\n\nThe house architecture makes this \
                 rule cheap to satisfy: shards own their state, cross-shard effects are \
                 staged in bounded DeltaQueues and exchanged at the barrier, so nothing \
                 on the event path should ever wait on another thread. A reviewed wait \
                 with a proven bound belongs in lint.toml with that bound.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::Blocking],
            scope: Scope::Roots(RootList::PerEvent),
            loop_scoped: true,
            message: "{site} ({kind}) runs per event inside the hot loop under hot-path \
                     root `{root}` ({hops}); stage the data before the loop or allowlist \
                     with the wait bound",
        }),
    },
    Rule {
        code: "S117",
        summary: "recursion reachable from a hot path (unbounded stack and work)",
        explain: "S117 — recursion reachable from a hot path\n\nThe per-event cores must \
                 have statically bounded stack and work; recursion breaks both bounds — \
                 graph-shaped inputs can drive adversarial depth, and at 5M accounts \
                 \"the stack was deep enough in testing\" is not an invariant. S117 \
                 detects call-graph cycles (direct or mutual, over the same name-resolved \
                 graph the other S-rules use) and reports any cycle participant reachable \
                 from a `[hotpaths.roots]` core, anchored at the cycle-entering call with \
                 the root→cycle chain.\n\nRewrite iteratively with an explicit worklist \
                 (the CSR traversals and the mirror's delta-merge are all loop-shaped for \
                 this reason). Because the call graph over-approximates method dispatch \
                 by name, a reported cycle can be spurious — two unrelated `step` methods \
                 wiring into each other; renaming one of the methods is usually the \
                 cleanest fix and sharpens every other S-rule at the same time.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::Recursion],
            scope: Scope::Roots(RootList::PerEvent),
            loop_scoped: false,
            message: "{site} ({kind}) is reachable from hot-path root `{root}` ({hops}); \
                     bound the depth or rewrite iteratively; the hot path needs \
                     statically bounded stack and work",
        }),
    },
    Rule {
        code: "S118",
        summary: "IO effect reachable from a production fault-plane hook (no-op surface)",
        explain: "S118 — IO reachable from a production fault-plane hook\n\nFault \
                 injection and persistence hook the serving engine through the FaultPlane \
                 trait: the engine consults the plane at every decision point, and \
                 production runs pass the no-op plane, whose hooks must compile down to \
                 nothing. An IO effect (file open/read/write, stdio) reachable from one \
                 of the `[effects.roots] fault_plane` patterns means the *production* \
                 path would journal, log, or touch disk on every epoch — the exact \
                 overhead the trait split exists to keep at zero, and a nondeterminism \
                 hole the byte-identity gates cannot see because they replay through the \
                 same plane.\n\nS118 judges the same IO sites as S110 with the same \
                 backward search, but roots it at the fault-plane surface: the trait's \
                 default methods and the NoFaults impl. Fix by moving the IO into a \
                 durable plane's override (sybil-store owns the write-ahead journal and \
                 the checkpoints; sybil-chaos's plane only forwards to one) and keeping \
                 the default a pure return. There is deliberately no allowlist story here \
                 — a production hook that needs IO is a design error, not a reviewable \
                 exception.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::IoRead, SiteKind::IoWrite],
            scope: Scope::Roots(RootList::FaultPlane),
            loop_scoped: false,
            message: "{site} ({kind}) is reachable from production fault-plane hook \
                     `{root}` ({calls}); keep the production plane a pure no-op — journal \
                     writes and other IO belong in a durable plane's override, never in \
                     the default the real engine runs",
        }),
    },
    Rule {
        code: "S119",
        summary: "file IO on versioned state outside sybil-store's format module",
        explain: "S119 — file IO on versioned state outside the format module\n\nEvery \
                 byte sybil-store puts on disk is versioned: SYBS checkpoints \
                 (`format.rs`) and SYBJ journal frames (`journal.rs`) share one field \
                 codec, each with its magic + version header and length-prefixed framing, \
                 and the compatibility policy (same version decodes byte-identically \
                 forever; unknown versions are refused, never guessed) rests on every \
                 file touch going through `format.rs`, which writes only those layouts. A \
                 filesystem or stdio call anywhere else in `crates/sybil-store/src/` \
                 writes bytes the version policy cannot see — a checkpoint that \
                 `latest()` cannot fall back across, a journal frame the digest never \
                 covered, a format fork that silently breaks warm restart on the next \
                 release.\n\nS119 judges the same IO sites S110 does (fs::*, \
                 File::open/create, stdio, print macros), scoped to the persistence \
                 crate's library code and exempting exactly `format.rs`. Fix by \
                 expressing the operation as a `format` helper \
                 (encode/decode/write_atomic/scan) so the header, framing, and digest \
                 rules apply, then calling that from the store layer. There is no \
                 allowlist story: bytes that bypass the format module are unversioned by \
                 construction.",
        sites: Some(SiteRule {
            kinds: &[SiteKind::IoRead, SiteKind::IoWrite],
            scope: Scope::Dir {
                dir: "crates/sybil-store/src/",
                except: "crates/sybil-store/src/format.rs",
                outside: ", outside the format module that owns the on-disk encoding",
            },
            loop_scoped: false,
            message: "{site} ({kind}) touches versioned state outside \
                     `sybil-store::format`; every file touch lives in format.rs, under \
                     the SYBS/SYBJ headers, framing, and digests — express the operation \
                     as a `format` helper so those rules apply to every byte that reaches \
                     disk",
        }),
    },
];

/// The row for `code`, if it names a rule.
pub fn rule(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

/// Is `code` a rule this tool knows?
pub fn is_known_rule(code: &str) -> bool {
    RULES.iter().any(|r| r.code == code)
}

/// Lint one file on its own: the per-file rules, and the site rows over
/// the call graph this one file provides (no root list is in force).
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let file = SourceFile {
        abs: ctx.rel_path.into(),
        rel: ctx.rel_path.to_string(),
        crate_name: ctx.crate_name.to_string(),
        kind: ctx.kind,
    };
    let model = WorkspaceModel::build(&[file], &[ctx.src.to_string()]);
    check_model(
        &model,
        &EffectConfig::default(),
        &HotPathConfig::default(),
        false,
    )
}

/// Every finding on `model` (allowlist not yet applied), sorted by
/// (path, line, col, rule): D001, D005 and the site rows always, the
/// cross-file rules S102/S104/S107/S108 when `workspace` says the model
/// is the whole workspace.
pub fn check_model(
    model: &WorkspaceModel,
    effects: &EffectConfig,
    hotpaths: &HotPathConfig,
    workspace: bool,
) -> Vec<Finding> {
    let cg = CallGraph::build(model);
    let mut out = Vec::new();
    for file in &model.files {
        if file.kind == FileKind::Lib {
            d001_unordered_iteration(file, &mut out);
        }
        // D005 applies to the crate-root file regardless of anything else.
        if file.rel.ends_with("src/lib.rs") {
            d005_forbid_unsafe(file, &mut out);
        }
    }
    Reporter::new(model, &cg, effects, hotpaths).run(&mut out);
    if workspace {
        crate::rules_sem::check_workspace(model, &cg, &mut out);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    out
}

/// `caller calls callee at file:line` for one forward edge, annotating
/// calls made from inside a `par::` closure (the parser attributes those
/// calls to the enclosing function, so the plain rendering would hide the
/// thread boundary).
pub(crate) fn edge_step(model: &WorkspaceModel, e: &Edge) -> String {
    let def = &model.fns[e.from].def;
    let callee = &model.fns[e.to].def.name;
    let par = def.par_calls.iter().find(|pc| {
        def.calls
            .iter()
            .any(|c| c.line == e.line && c.name == *callee && pc.holds(c.tok))
    });
    format!(
        "{} calls {}{} at {}:{}",
        model.fq_name(e.from),
        model.fq_name(e.to),
        par.map_or(String::new(), |pc| format!(
            " from inside the `par::{}` closure",
            pc.entry
        )),
        model.path_of(e.from),
        e.line
    )
}

/// The nearest root of the function last asked about: sites arrive in
/// token order, so one function's sites share one search.
type Memo = Option<(FnIdx, Option<(FnIdx, Vec<Edge>)>)>;

/// The one judge of every [`SiteRule`] row.
struct Reporter<'a> {
    model: &'a WorkspaceModel,
    cg: &'a CallGraph,
    effects: &'a EffectConfig,
    hotpaths: &'a HotPathConfig,
    hot: HotContext,
    /// `(file, site)` for every function on a call-graph cycle; empty
    /// when no per-event root is designated.
    recursion: Vec<(usize, Site)>,
}

impl<'a> Reporter<'a> {
    fn new(
        model: &'a WorkspaceModel,
        cg: &'a CallGraph,
        effects: &'a EffectConfig,
        hotpaths: &'a HotPathConfig,
    ) -> Reporter<'a> {
        let recursion = if hotpaths.per_event_roots.is_empty() {
            Vec::new()
        } else {
            recursion_sites(model, cg)
        };
        Reporter {
            model,
            cg,
            effects,
            hotpaths,
            hot: HotContext::build(model, cg, hotpaths),
            recursion,
        }
    }

    fn run(&self, out: &mut Vec<Finding>) {
        let model = self.model;
        for rule in &RULES {
            let Some(sr) = &rule.sites else { continue };
            // Which functions end the backward search, per scope.
            let is_root: Vec<bool> = match sr.scope {
                Scope::PubApi { .. } => (0..model.fns.len()).map(|i| model.is_pub_api(i)).collect(),
                Scope::Roots(list) => {
                    let pats = match list {
                        RootList::Clockless => &self.effects.clockless_roots,
                        RootList::IoFree => &self.effects.io_free_roots,
                        RootList::FaultPlane => &self.effects.fault_plane_roots,
                        RootList::PerEvent => &self.hotpaths.per_event_roots,
                    };
                    if pats.is_empty() {
                        continue;
                    }
                    (0..model.fns.len())
                        .map(|i| {
                            model.is_lib_fn(i) && EffectConfig::matches(pats, &model.fq_name(i))
                        })
                        .collect()
                }
                Scope::Anywhere { .. } | Scope::Dir { .. } => Vec::new(),
            };
            let mut memo: Memo = None;
            let scanned = model
                .files
                .iter()
                .enumerate()
                .filter(|(_, file)| file.kind != FileKind::Test)
                .flat_map(|(fi, file)| file.parsed.sites.iter().map(move |site| (fi, site)));
            let seeded = self.recursion.iter().map(|(fi, site)| (*fi, site));
            for (fi, site) in scanned.chain(seeded) {
                if sr.kinds.contains(&site.kind) {
                    out.extend(self.judge(rule.code, sr, &is_root, fi, site, &mut memo));
                }
            }
        }
    }

    /// The nearest `is_root` ancestor of `f` and the chain down from it;
    /// `lib_only` confines the chain to library functions.
    fn nearest_root<'m>(
        &self,
        memo: &'m mut Memo,
        f: FnIdx,
        is_root: &[bool],
        lib_only: bool,
    ) -> Option<&'m (FnIdx, Vec<Edge>)> {
        if memo.as_ref().map(|m| m.0) != Some(f) {
            let found = self.cg.nearest_ancestor(
                f,
                |i| is_root[i],
                |i| !lib_only || self.model.is_lib_fn(i),
            );
            *memo = Some((f, found));
        }
        memo.as_ref().and_then(|m| m.1.as_ref())
    }

    /// One site against one row: the finding, if the row's scope holds.
    fn judge(
        &self,
        code: &'static str,
        sr: &SiteRule,
        is_root: &[bool],
        fi: usize,
        site: &Site,
        memo: &mut Memo,
    ) -> Option<Finding> {
        let model = self.model;
        let file = &model.files[fi];
        let f = model.fn_at(fi, site.tok).filter(|&f| model.is_lib_fn(f));
        let leaf = |owner: &str| {
            let verb = site.kind.words().1;
            format!(
                "{owner} {verb} `{}` at {}:{}",
                site.what, file.rel, site.line
            )
        };
        let chain = |f: FnIdx, path: &[Edge]| -> Vec<String> {
            let mut trace: Vec<String> = path.iter().map(|e| edge_step(model, e)).collect();
            trace.push(leaf(&model.fq_name(f)));
            trace
        };
        let (message, trace) = match sr.scope {
            Scope::Anywhere { exempt } => {
                if exempt.is_some_and(|e| file.rel.ends_with(e)) {
                    return None;
                }
                (fill(sr.message, site, None), Vec::new())
            }
            Scope::Dir {
                dir,
                except,
                outside,
            } => {
                if !file.rel.starts_with(dir) || file.rel == except {
                    return None;
                }
                let step = format!("{}{outside}", leaf(&model.fq_name(f?)));
                (fill(sr.message, site, None), vec![step])
            }
            Scope::PubApi { orphan } => {
                if file.kind != FileKind::Lib {
                    return None;
                }
                match f.and_then(|f| self.nearest_root(memo, f, is_root, false)) {
                    Some((root, path)) => (
                        fill(sr.message, site, Some((&model.fq_name(*root), path.len()))),
                        chain(f?, path),
                    ),
                    None if site.kind == SiteKind::PanicIndex => return None,
                    None => {
                        let owner = f.map_or_else(
                            || format!("item-level code of {}", file.rel),
                            |f| model.fq_name(f),
                        );
                        let why = format!(
                            "no pub fn reaches {owner}: the library panic policy covers the \
                             site all the same"
                        );
                        (fill(orphan, site, None), vec![leaf(&owner), why])
                    }
                }
            }
            Scope::Roots(_) => {
                let f = f?;
                if sr.loop_scoped && !self.hot.in_hot_loop(f, site.tok) {
                    return None;
                }
                let (root, path) = self.nearest_root(memo, f, is_root, true)?;
                (
                    fill(sr.message, site, Some((&model.fq_name(*root), path.len()))),
                    chain(f, path),
                )
            }
        };
        Some(Finding {
            rule: code,
            path: file.rel.clone(),
            line: site.line,
            col: site.col,
            message,
            snippet: file.line_text(site.line),
            trace,
        })
    }
}

/// Fill a [`SiteRule::message`] template for `site`, found `n` calls
/// below `root` (when the scope has roots).
fn fill(template: &str, site: &Site, root: Option<(&str, usize)>) -> String {
    let (root, n) = root.unwrap_or(("", 0));
    template
        .replace("{site}", &site.quoted())
        .replace("{kind}", site.kind.words().0)
        .replace("{root}", root)
        .replace(
            "{calls}",
            &format!("{n} call{} away", if n == 1 { "" } else { "s" }),
        )
        .replace("{hops}", &hops(n))
}

fn finding(file: &FileModel, rule: &'static str, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: file.rel.clone(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: file.line_text(tok.line),
        trace: Vec::new(),
    }
}

/// D001: identifiers declared (or annotated) as `HashMap`/`HashSet` must
/// not be iterated in library code — `BTreeMap`/`BTreeSet` or an explicit
/// sort is required before anything order-dependent.
fn d001_unordered_iteration(file: &FileModel, out: &mut Vec<Finding>) {
    for site in hash_iteration_sites(&file.src, &file.toks) {
        let tok = &file.toks[site.tok];
        if file.in_test(tok.line) {
            continue;
        }
        let message = match site.method {
            Some(name) => format!(
                "unordered iteration `{}.{name}()` over a HashMap/HashSet; \
                 use BTreeMap/BTreeSet or sort the items before anything \
                 order-dependent",
                site.recv
            ),
            None => format!(
                "unordered `for … in {}` over a HashMap/HashSet; use \
                 BTreeMap/BTreeSet or sort the items before anything \
                 order-dependent",
                site.recv
            ),
        };
        out.push(finding(file, "D001", tok, message));
    }
}

/// One hash-container iteration site. The collect-then-sort escape
/// restores a total order and is therefore not a site.
struct HashIterSite<'s> {
    /// The iterated binding's name.
    recv: &'s str,
    /// The iterator method (`iter`, `keys`, …); `None` for `for … in`.
    method: Option<&'s str>,
    /// Token index of the site (the method name, or the iterated ident).
    tok: usize,
}

/// Every hash-container iteration site in one file, in token order.
fn hash_iteration_sites<'s>(src: &'s str, toks: &[Token]) -> Vec<HashIterSite<'s>> {
    let hash_idents = collect_hash_typed_idents(src, toks);
    const ITER_METHODS: [&str; 9] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "into_keys",
        "into_values",
        "drain",
    ];
    let mut sites: Vec<HashIterSite> = Vec::new();

    // Method-call form: `NAME.iter()`, `self.NAME.keys()`, ...
    for i in 2..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        if !ITER_METHODS.contains(&name) {
            continue;
        }
        if !toks[i - 1].is_punct(b'.') || toks[i - 2].kind != TokKind::Ident {
            continue;
        }
        let recv = toks[i - 2].text(src);
        if hash_idents.contains(&recv) && toks.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
            if collected_into_sorted_binding(src, toks, i) {
                continue;
            }
            sites.push(HashIterSite {
                recv,
                method: Some(name),
                tok: i,
            });
        }
    }

    // Loop form: `for PAT in &NAME {`, `for PAT in NAME {`.
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident(src, "for") {
            i += 1;
            continue;
        }
        // Find the `in` keyword before the loop body opens; bail at `{`
        // (an `impl Trait for Type {` has no `in`).
        let mut j = i + 1;
        let mut in_idx = None;
        let mut depth = 0i32;
        while j < toks.len() && j - i < 64 {
            match toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => break,
                TokKind::Ident if depth == 0 && toks[j].text(src) == "in" => {
                    in_idx = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(in_idx) = in_idx else {
            i += 1;
            continue;
        };
        // Iterable tokens: between `in` and the body `{` at depth 0.
        let mut k = in_idx + 1;
        let mut depth = 0i32;
        let mut expr: Vec<usize> = Vec::new();
        while k < toks.len() && k - in_idx < 64 {
            match toks[k].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => break,
                _ => {}
            }
            expr.push(k);
            k += 1;
        }
        // Match `&`/`&mut` + a single (possibly `self.`-qualified) ident.
        let idents: Vec<usize> = expr
            .iter()
            .copied()
            .filter(|&x| toks[x].kind == TokKind::Ident && toks[x].text(src) != "mut")
            .collect();
        let only_simple = expr.iter().all(|&x| {
            matches!(toks[x].kind, TokKind::Ident)
                || toks[x].is_punct(b'&')
                || toks[x].is_punct(b'.')
        });
        if only_simple && !idents.is_empty() {
            let last = idents[idents.len() - 1];
            let name = toks[last].text(src);
            let qualifier_ok = idents[..idents.len() - 1]
                .iter()
                .all(|&x| toks[x].text(src) == "self" || !hash_idents.contains(&toks[x].text(src)));
            if hash_idents.contains(&name) && qualifier_ok {
                sites.push(HashIterSite {
                    recv: name,
                    method: None,
                    tok: last,
                });
            }
        }
        i = in_idx + 1;
    }
    sites.sort_by_key(|s| s.tok);
    sites
}

/// The one sanctioned escape from D001 without an allowlist entry: the
/// iteration feeds a `let` binding whose very next statement sorts it —
/// `let mut v: Vec<_> = map.into_iter().collect(); v.sort…();`. The
/// explicit sort restores a total order, so the hash order never escapes.
fn collected_into_sorted_binding(src: &str, toks: &[Token], method_idx: usize) -> bool {
    // Walk back to the start of the statement; it must be a `let`.
    let mut s = method_idx;
    let mut back = 0;
    while s > 0 && back < 96 {
        if toks[s - 1].is_punct(b';') || toks[s - 1].is_punct(b'{') || toks[s - 1].is_punct(b'}') {
            break;
        }
        s -= 1;
        back += 1;
    }
    if !toks.get(s).is_some_and(|t| t.is_ident(src, "let")) {
        return false;
    }
    let mut n = s + 1;
    if toks.get(n).is_some_and(|t| t.is_ident(src, "mut")) {
        n += 1;
    }
    let Some(name_tok) = toks.get(n) else {
        return false;
    };
    if name_tok.kind != TokKind::Ident {
        return false;
    }
    let name = name_tok.text(src);
    // Find the end of this statement, then require `NAME.sort…(` next.
    let mut e = method_idx;
    let mut fwd = 0;
    let mut depth = 0i32;
    while e < toks.len() && fwd < 96 {
        match toks[e].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
            TokKind::Punct(b';') if depth == 0 => break,
            _ => {}
        }
        e += 1;
        fwd += 1;
    }
    toks.get(e + 1).is_some_and(|t| t.is_ident(src, name))
        && toks.get(e + 2).is_some_and(|t| t.is_punct(b'.'))
        && toks
            .get(e + 3)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(src).starts_with("sort"))
}

/// Find identifiers whose declared type (or initializer) names
/// `HashMap`/`HashSet`: let-bindings, struct fields, and fn parameters.
/// File-scoped — precise enough for a lint, reviewed via the allowlist.
fn collect_hash_typed_idents<'s>(src: &'s str, toks: &[Token]) -> Vec<&'s str> {
    let mut names: Vec<&str> = Vec::new();
    // `IDENT : <type containing HashMap/HashSet>`
    for i in 1..toks.len() {
        if !toks[i].is_punct(b':') {
            continue;
        }
        // Skip `::` path separators.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(b':')) || toks[i - 1].is_punct(b':') {
            continue;
        }
        if toks[i - 1].kind != TokKind::Ident {
            continue;
        }
        let lhs = toks[i - 1].text(src);
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut j = i + 1;
        while j < toks.len() && j - i < 64 {
            match toks[j].kind {
                TokKind::Punct(b'<') => angle += 1,
                TokKind::Punct(b'>') => angle -= 1,
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => paren += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') if paren > 0 => paren -= 1,
                TokKind::Punct(b')')
                | TokKind::Punct(b'}')
                | TokKind::Punct(b',')
                | TokKind::Punct(b';')
                | TokKind::Punct(b'=')
                    if angle <= 0 && paren == 0 =>
                {
                    break;
                }
                TokKind::Ident => {
                    let t = toks[j].text(src);
                    if t == "HashMap" || t == "HashSet" {
                        names.push(lhs);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // `let [mut] NAME = HashMap::…` / `HashSet::…` (no annotation).
    for i in 0..toks.len() {
        if !toks[i].is_ident(src, "let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let name = name_tok.text(src);
        // Scan to `=`, then look for HashMap/HashSet before `;`.
        let mut k = j + 1;
        while k < toks.len() && k - j < 48 && !toks[k].is_punct(b'=') && !toks[k].is_punct(b';') {
            k += 1;
        }
        if !toks.get(k).is_some_and(|t| t.is_punct(b'=')) {
            continue;
        }
        let mut m = k + 1;
        while m < toks.len() && m - k < 48 && !toks[m].is_punct(b';') {
            if toks[m].kind == TokKind::Ident {
                let t = toks[m].text(src);
                if t == "HashMap" || t == "HashSet" {
                    names.push(name);
                    break;
                }
            }
            m += 1;
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// D005: every library crate root must carry `#![forbid(unsafe_code)]`.
fn d005_forbid_unsafe(file: &FileModel, out: &mut Vec<Finding>) {
    let (src, toks) = (file.src.as_str(), &file.toks);
    let has = (0..toks.len()).any(|i| {
        toks[i].is_ident(src, "forbid")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b'('))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_ident(src, "unsafe_code"))
    });
    if !has {
        out.push(Finding {
            rule: "D005",
            path: file.rel.clone(),
            line: 1,
            col: 1,
            message: "library crate is missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: file.line_text(1),
            trace: Vec::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Finding> {
        check_file(&FileCtx {
            rel_path: "crates/x/src/demo.rs",
            crate_name: "x",
            kind: FileKind::Lib,
            src,
        })
    }

    #[test]
    fn d001_flags_map_iteration_and_loops() {
        let src = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m { let _ = (k, v); }\n    let _ = m.values().sum::<u32>();\n}\n";
        let f = lint_lib(src);
        let d001: Vec<_> = f.iter().filter(|f| f.rule == "D001").collect();
        assert_eq!(d001.len(), 2, "{f:?}");
        assert_eq!(d001[0].line, 3);
        assert_eq!(d001[1].line, 4);
    }

    #[test]
    fn d001_ignores_btreemap_and_lookups() {
        let src = "fn f() {\n    let mut m: BTreeMap<u32, u32> = BTreeMap::new();\n    for (k, v) in &m { let _ = (k, v); }\n    let s: HashSet<u32> = HashSet::new();\n    let _ = s.contains(&1);\n}\n";
        assert!(lint_lib(src).iter().all(|f| f.rule != "D001"));
    }

    #[test]
    fn d001_permits_collect_then_sort() {
        let src = "fn f(m: HashMap<u32, u32>) -> Vec<(u32, u32)> {\n    let mut v: Vec<(u32, u32)> = m.into_iter().collect();\n    v.sort_unstable();\n    v\n}\n";
        assert!(
            lint_lib(src).iter().all(|f| f.rule != "D001"),
            "{:?}",
            lint_lib(src)
        );
        // Without the sort the same shape is still a violation.
        let bad = "fn f(m: HashMap<u32, u32>) -> Vec<(u32, u32)> {\n    let v: Vec<(u32, u32)> = m.into_iter().collect();\n    v\n}\n";
        assert_eq!(lint_lib(bad).iter().filter(|f| f.rule == "D001").count(), 1);
    }

    #[test]
    fn d002_flags_instant_now_not_import() {
        let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
        let f = lint_lib(src);
        let d002: Vec<_> = f.iter().filter(|f| f.rule == "D002").collect();
        assert_eq!(d002.len(), 1);
        assert_eq!(d002[0].line, 2);
    }

    #[test]
    fn d003_flags_mutex_and_spawn() {
        let src = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n";
        let f = lint_lib(src);
        assert_eq!(f.iter().filter(|f| f.rule == "D003").count(), 2);
    }

    #[test]
    fn d004_skips_test_modules() {
        // D004 folded into S101: the private `f` has no pub caller and
        // is reported all the same; the unwrap in the test module is not.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let f = lint_lib(src);
        let s101: Vec<_> = f.iter().filter(|f| f.rule == "S101").collect();
        assert_eq!(s101.len(), 1);
        assert_eq!(s101[0].line, 1);
        assert_eq!(s101[0].trace.len(), 2, "{:?}", s101[0].trace);
        assert!(
            s101[0].trace[1].starts_with("no pub fn reaches x::demo::f"),
            "{:?}",
            s101[0]
        );
    }

    #[test]
    fn d004_does_not_flag_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(lint_lib(src).iter().all(|f| f.rule != "S101"));
    }

    #[test]
    fn d006_flags_entropy() {
        let src = "fn f() { let mut rng = rand::thread_rng(); let _x: u8 = rand::random(); }\n";
        assert_eq!(lint_lib(src).iter().filter(|f| f.rule == "D006").count(), 2);
    }

    #[test]
    fn d005_reports_missing_forbid() {
        let f = check_file(&FileCtx {
            rel_path: "crates/x/src/lib.rs",
            crate_name: "x",
            kind: FileKind::Lib,
            src: "//! docs\npub mod a;\n",
        });
        assert_eq!(f.iter().filter(|f| f.rule == "D005").count(), 1);
        let ok = check_file(&FileCtx {
            rel_path: "crates/x/src/lib.rs",
            crate_name: "x",
            kind: FileKind::Lib,
            src: "#![forbid(unsafe_code)]\npub mod a;\n",
        });
        assert!(ok.iter().all(|f| f.rule != "D005"));
    }
}
