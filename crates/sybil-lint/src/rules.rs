//! The determinism & invariant rules (D001–D006).
//!
//! Each rule is a pattern pass over the token stream of one file, plus a
//! file-classification gate (library vs. binary vs. test code). Rules are
//! deliberately heuristic — they key on names and token shapes, not
//! types — but every heuristic errs toward *flagging*, and the
//! `lint.toml` allowlist (with mandatory justifications) absorbs the
//! reviewed exceptions. See DESIGN.md §"Determinism invariants & lint
//! policy" for the rationale behind each rule.

use crate::lexer::{lex, TokKind, Token};
use crate::report::Finding;

/// How a source file participates in the build — determines which rules
/// apply to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**` minus `src/bin/**`): all rules apply.
    Lib,
    /// Binary targets (`src/bin/**`, `src/main.rs`): runtime rules
    /// (D002/D003/D006) apply; panic policy (D001/D004) does not.
    Bin,
    /// Integration tests, benches, examples: exempt from all per-token
    /// rules (test code may use wall clocks, unwraps, hash iteration).
    Test,
}

/// Everything a rule needs to know about one file.
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

/// All token-rule codes, in order.
pub const ALL_RULES: [&str; 6] = ["D001", "D002", "D003", "D004", "D005", "D006"];

/// All semantic (call-graph) rule codes, in order. These run only with
/// `--workspace`, because they need every file to resolve calls.
pub const SEM_RULES: [&str; 19] = [
    "S101", "S102", "S103", "S104", "S105", "S106", "S107", "S108", "S109", "S110", "S111",
    "S112", "S113", "S114", "S115", "S116", "S117", "S118", "S119",
];

/// Is `code` any rule this tool knows (token or semantic)?
pub fn is_known_rule(code: &str) -> bool {
    ALL_RULES.contains(&code) || SEM_RULES.contains(&code)
}

/// One-line summary per rule code (for `--list-rules` and diagnostics).
pub fn rule_summary(code: &str) -> &'static str {
    match code {
        "D001" => "unordered HashMap/HashSet iteration in library code (use BTreeMap or sort before emit)",
        "D002" => "wall-clock read (Instant::now / SystemTime) outside the repro CLI",
        "D003" => "raw threading primitive (thread::spawn / Mutex / atomics) outside osn_graph::par",
        "D004" => "panic in non-test library code (unwrap / expect / panic! / todo! / unreachable!)",
        "D005" => "library crate missing #![forbid(unsafe_code)]",
        "D006" => "entropy-seeded RNG (thread_rng / OsRng / from_entropy / rand::random)",
        "S101" => "panic site reachable from a pub library fn through the call graph",
        "S102" => "non-associative float reduction reachable from a par:: map/sweep closure",
        "S103" => "&mut state or RNG handle captured by a closure crossing the par boundary",
        "S104" => "dead export: pub item unused by any bin, test, bench, example, or other crate",
        "S105" => "stale lint.toml allowlist entry (matched nothing this run)",
        "S106" => "unbounded channel constructor outside sybil-serve's bounded queue module",
        "S107" => "stringly-typed error API: pub Result<_, String> or process::exit in a library",
        "S108" => "hash container keyed by node/packed-edge ids in a scale-critical module",
        "S109" => "wall-clock/env/thread-id effect reachable from a deterministic-core root",
        "S110" => "IO effect reachable from the epoch-barrier critical path",
        "S111" => "unordered hash iteration reachable from a byte-stable export sink",
        "S112" => "thread spawn outside osn_graph::par and sybil-serve's coordinator",
        "S113" => "allocation inside a per-event hot loop (no recycled-scratch justification)",
        "S114" => "monotonic collection growth across the epoch loop (push/insert, no drain)",
        "S115" => "truncating `as` cast on id/count types reachable from a hot path",
        "S116" => "blocking acquisition (lock / recv / wait) reachable from a hot loop",
        "S117" => "recursion reachable from a hot path (unbounded stack and work)",
        "S118" => "IO effect reachable from a production fault-plane hook (no-op surface)",
        "S119" => "file IO on versioned state outside sybil-store's format module",
        _ => "unknown rule",
    }
}

/// Multi-paragraph explanation per rule code (for `--explain CODE`).
pub fn rule_explanation(code: &str) -> Option<&'static str> {
    Some(match code {
        "D001" => "D001 — unordered hash iteration\n\nIterating a HashMap/HashSet visits \
                   entries in randomized order, so any output derived from the walk differs \
                   between runs. Library code must iterate BTreeMap/BTreeSet or sort before \
                   emitting.",
        "D002" => "D002 — wall-clock reads\n\nInstant::now()/SystemTime readings leak \
                   nondeterminism into results. Only the repro CLI may measure time.",
        "D003" => "D003 — raw threading primitives\n\nAll parallelism flows through \
                   osn_graph::par, whose deterministic map is the one reviewed concurrency \
                   surface. thread::spawn/Mutex/atomics elsewhere bypass that review.",
        "D004" => "D004 — panics in library code\n\nunwrap/expect/panic! in a library turns \
                   a recoverable condition into an abort for every caller. Return \
                   Result/Option instead; reviewed invariants go in lint.toml.",
        "D005" => "D005 — forbid(unsafe_code)\n\nEvery library crate root must carry \
                   #![forbid(unsafe_code)] so the guarantee is compiler-checked, not policy.",
        "D006" => "D006 — seeded RNGs only\n\nthread_rng/OsRng/from_entropy draw from the \
                   OS entropy pool, making runs unrepeatable. All randomness must come from \
                   an explicitly seeded generator.",
        "S101" => "S101 — panic reachability\n\nD004 flags panic sites; S101 flags panic \
                   *exposure*: a panic site (unwrap / expect / panic-family macro / indexing \
                   in a guard-free function) that a pub library function can reach through \
                   the workspace call graph. The finding is anchored at the panic site and \
                   carries the shortest call chain from the nearest pub entry point as a \
                   trace, one `caller calls callee at file:line` step per edge.\n\nFix by \
                   propagating Result/Option along the chain, or allowlist the site in \
                   lint.toml with the invariant that makes the panic unreachable. The call \
                   graph is name-resolved and over-approximate: it may report a chain that \
                   type analysis would rule out, but it never hides one.",
        "S102" => "S102 — float reductions under par\n\nFloating-point addition is not \
                   associative, so a sum/fold/accumulate loop over f32/f64 yields different \
                   bits under different evaluation orders. Inside a par::map_indexed / \
                   map_indexed_with / map_slice closure — or any function the closure \
                   reaches — such a reduction is one refactor away from breaking the \
                   bit-identical-across-thread-counts guarantee.\n\nThe trace names the \
                   parallel entry point and the call chain to the reduction. Reductions \
                   whose order is fixed per item (a serial loop over one node's \
                   neighbourhood) are sound: allowlist the kernel in lint.toml and state \
                   that ordering argument in the justification.",
        "S103" => "S103 — mutable capture across the par boundary\n\nA closure passed to a \
                   par:: entry that captures `&mut` state or an RNG handle from the \
                   enclosing scope would observe mutations in thread-interleaving order. \
                   Per-worker scratch belongs in the `init` closure of map_indexed_with; \
                   randomness must be derived per item from the item index, never drawn \
                   from a captured generator.",
        "S104" => "S104 — dead exports\n\nA pub item that no bin, test, bench, example, or \
                   other crate ever names is API surface the workspace maintains but never \
                   exercises — it dodges the whole test suite. Demote it to pub(crate) (it \
                   stays visible to siblings in its own crate) or delete it. Usage is \
                   detected by name across the workspace, which over-approximates liveness: \
                   anything S104 still flags has not even a name-collision excuse.",
        "S105" => "S105 — stale allowlist entries\n\nAn [[allow]] entry in lint.toml that \
                   matched no finding this run documents an exception that no longer \
                   exists; left in place it would silently re-arm if the pattern ever came \
                   back. S105 reports the entry at its line in lint.toml as an error. Run \
                   `sybil-lint --workspace --fix-allowlist` to delete stale entries; when \
                   nothing is stale the rewrite is byte-identical.",
        "S106" => "S106 — unbounded channels\n\nThe serving engine stages every cross-shard \
                   effect in a bounded DeltaQueue whose capacity is an epoch invariant, so \
                   exceeding it is an explicit QueueFull error instead of silent memory \
                   growth under backpressure. An unbounded()/unbounded_channel() constructor \
                   anywhere else bypasses that review and hides the missing bound. \
                   Construct channels with an explicit capacity, or — when the producer \
                   provably sends a fixed number of messages — allowlist the site in \
                   lint.toml and state that message-count bound in the justification. Only \
                   crates/sybil-serve/src/queue.rs, the reviewed staging surface, is exempt.",
        "S107" => "S107 — stringly-typed error APIs\n\nA pub fn returning Result<_, String> \
                   hands callers an error they can only string-match or rewrap: no variants \
                   to match on, no source chain, and every formatting tweak is a silent API \
                   break. Return a typed error (the workspace's shared variants live in \
                   sybil_core::Error; crate-local enums like osn_graph::GraphError are \
                   equally fine) and keep the prose in its Display impl.\n\nThe second shape \
                   is the same contract violated at the call site: library code settling a \
                   Result/Option with unwrap_or_else(… process::exit …) kills the process \
                   where no caller can intercept it — under a worker pool that strands the \
                   sibling threads mid-epoch. Binaries own the exit code; libraries return \
                   the error. Only `pub fn` signatures are checked (pub(crate) surface is \
                   internal), and binaries may exit — shape (b) fires on library files only.",
        "S108" => "S108 — hash containers on the million-account hot path\n\nThree modules \
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
        "S109" => "S109 — ambient-input effects on the deterministic core\n\nThe replay/serve \
                   contract every verify.sh gate byte-compares assumes the core computes from \
                   its arguments alone. S109 proves it: an interprocedural effect analysis \
                   infers, for every library function, whether it (transitively) reads the \
                   wall clock (Instant::now / SystemTime / UNIX_EPOCH), the environment \
                   (std::env::*), or the current thread's identity (thread::current), \
                   propagating leaf intrinsics to a fixpoint over the name-resolved call \
                   graph — through par:: closures and (conservatively) trait-object method \
                   edges. Any such effect reachable from a root designated under \
                   `[effects.roots] clockless` in lint.toml (replay, serve, simulate, \
                   snapshot rotation, feature extraction) is an error, reported at the leaf \
                   intrinsic with the full root→leaf propagation chain.\n\nFix by injecting \
                   the dependency at the boundary — serve_timed takes the clock as a closure \
                   parameter precisely so the core never reads one. A reviewed read whose \
                   value provably cannot alter results (e.g. a thread-count knob proven \
                   bit-identical across values by the verify gates) belongs in lint.toml \
                   with that invariant spelled out. The graph over-approximates: it may \
                   report a chain type analysis would prune, but it never hides one.",
        "S110" => "S110 — IO on the epoch-barrier critical path\n\nShard step, mirror \
                   absorb/rotate, and delta-queue operations run between epoch barriers, \
                   where every shard's latency is the epoch's latency and a blocking read \
                   or write stalls the whole round. S110 uses the same effect fixpoint as \
                   S109 with the IoRead/IoWrite lattice components: filesystem calls \
                   (std::fs::*, File::open/create) and console writes (println!/eprintln!, \
                   io::stdout/stderr) reachable from a root designated under \
                   `[effects.roots] io_free` are errors with full propagation traces.\n\n\
                   Keep IO at the coordinator boundary — snapshots and metrics are staged \
                   in memory during the epoch and written outside the barrier. A reviewed \
                   exception (e.g. a bounded, rotation-only append) needs its bound written \
                   into lint.toml.",
        "S111" => "S111 — unordered iteration on a byte-stable export path\n\nSerialized \
                   artifacts (Snapshot JSON, BENCH_* writers, future persistence images) \
                   are byte-compared by the verify gates and diffed across machines, so \
                   every byte must be a pure function of logical state. Iterating a \
                   HashMap/HashSet anywhere in an export sink's reachable set threads the \
                   hasher's randomized order into the output bytes. S111 computes the \
                   NondetIter effect (hash-container iteration, minus the collect-then-sort \
                   escape) at the fixpoint and reports any leaf reachable from a sink \
                   designated under `[effects.sinks] byte_stable`, with the sink→leaf \
                   chain.\n\nFix by iterating ordered containers (BTreeMap/BTreeSet) or \
                   sorting before emission — D001 already bans the pattern file-locally; \
                   S111 closes the interprocedural gap and gates the byte-stable format \
                   contract persistence will depend on.",
        "S112" => "S112 — thread spawns outside the sanctioned substrate\n\nAll parallelism \
                   flows through osn_graph::par (deterministic chunked maps, bit-identical \
                   across thread counts) and the sybil-serve coordinator built on it. A \
                   thread::spawn or thread::scope anywhere else creates an unreviewed \
                   concurrency surface: the effect analysis marks the Spawns intrinsic and \
                   S112 reports every site outside crates/osn-graph/src/par.rs and \
                   crates/sybil-serve/src/engine.rs, with the chain from the nearest pub \
                   entry when one reaches it.\n\nRoute the work through a par:: entry (or \
                   extend par with a reviewed primitive); D003 flags the same tokens \
                   file-locally, S112 is the call-graph-aware gate that names who exposes \
                   the spawn.",
        "S113" => "S113 — allocation inside a per-event hot loop\n\nPR 6 measured the \
                   serving critical path being dominated by memory behavior: recycling \
                   scratch buffers took 8-shard 5M serving from 35s to ~18s. S113 guards \
                   that win. The cost layer infers, for every library function, whether it \
                   (transitively) allocates — Vec/HashMap/String constructors, Box::new, \
                   vec!/format!, .clone()/.collect()/.to_vec() — by propagating leaf \
                   intrinsics to a fixpoint over the call graph, exactly like the S109 \
                   effect analysis. A loop pass then recovers each function's loop spans, \
                   and any allocation that runs *inside a per-event hot loop* — in the \
                   loop body of a `[hotpaths.roots]` core, or in any function such a loop \
                   (transitively) calls — is an error, reported at the leaf with the full \
                   root→leaf chain.\n\nFix by hoisting the buffer out of the loop into \
                   caller-owned scratch (NeighborScratch, MergeScratch, and the shard's \
                   friend_ids buffer are the house idiom: clear-and-refill, never \
                   reallocate). An allocation that is genuinely amortized — building the \
                   output block that replaces a rotated CSR block, say — belongs in \
                   lint.toml with that amortization argument spelled out in the \
                   justification.",
        "S114" => "S114 — monotonic collection growth across the epoch loop\n\nA push or \
                   insert that executes per event with no clear/drain/truncate on the same \
                   collection is a static leak: occupancy grows with event count and the \
                   5M-account epoch loop turns it into memory pressure and realloc stalls. \
                   S114 finds growth-method calls (push / push_back / insert / extend / \
                   append) reachable inside a per-event hot loop and models drains by \
                   receiver: growth on a receiver that is also cleared, drained, \
                   truncated, popped, retained, or split in the *same function* is the \
                   recycled-scratch idiom and never fires — that is the negative case the \
                   cost fixtures pin.\n\nSurviving sites either drain at the epoch barrier \
                   (bounded staging queues drained by the coordinator each round are the \
                   house pattern) or carry an allowlist entry stating the occupancy bound: \
                   what caps the collection, and who enforces the cap.",
        "S115" => "S115 — truncating casts on the hot path\n\nThe scale contract is u32 \
                   ids end-to-end: 5M accounts fit comfortably, and flat u32 arenas are \
                   half the memory of usize. The risk is the silent `as` cast — `len() as \
                   u32`, `(base + offset) as u32` — which truncates without a sound when \
                   the invariant that \"this fits\" stops holding. S115 flags every `as` \
                   cast to a narrow integer type (u8/u16/u32/i8/i16/i32) in any function \
                   reachable from a `[hotpaths.roots]` core, with the root→site chain. \
                   Widening casts are never flagged.\n\nFix with a checked conversion: \
                   try_into (or sybil_core::ids::count_u32) surfacing the typed \
                   sybil_core::Error::IdOverflow — never a stringly error. A cast whose \
                   range invariant is structural (block-local offsets bounded by block \
                   size, node ids constructed from u32) can be allowlisted with that \
                   invariant spelled out.",
        "S116" => "S116 — blocking acquisition reachable from a hot loop\n\nBetween epoch \
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
        "S117" => "S117 — recursion reachable from a hot path\n\nThe per-event cores must \
                   have statically bounded stack and work; recursion breaks both bounds — \
                   graph-shaped inputs can drive adversarial depth, and at 5M accounts \
                   \"the stack was deep enough in testing\" is not an invariant. S117 \
                   detects call-graph cycles (direct or mutual, over the same \
                   name-resolved graph the other S-rules use) and reports any cycle \
                   participant reachable from a `[hotpaths.roots]` core, anchored at the \
                   cycle-entering call with the root→cycle chain.\n\nRewrite iteratively \
                   with an explicit worklist (the CSR traversals and the mirror's \
                   delta-merge are all loop-shaped for this reason). Because the call \
                   graph over-approximates method dispatch by name, a reported cycle can \
                   be spurious — two unrelated `step` methods wiring into each other; \
                   renaming one of the methods is usually the cleanest fix and sharpens \
                   every other S-rule at the same time.",
        "S118" => "S118 — IO reachable from a production fault-plane hook\n\nFault \
                   injection and persistence hook the serving engine through the FaultPlane trait: the \
                   engine consults the plane at every decision point, and production runs \
                   pass the no-op plane, whose hooks must compile down to nothing. An IO \
                   effect (file open/read/write, stdio) reachable from one of the \
                   `[effects.roots] fault_plane` patterns means the *production* path \
                   would journal, log, or touch disk on every epoch — the exact overhead \
                   the trait split exists to keep at zero, and a nondeterminism hole the \
                   byte-identity gates cannot see because they replay through the same \
                   plane.\n\nS118 reuses the S110 IO effect inference (intrinsic sites \
                   plus interprocedural fixpoint) but roots it at the fault-plane \
                   surface: the trait's default methods and the NoFaults impl. Fix by \
                   moving the IO into a durable plane's override (sybil-store owns the \
                   write-ahead journal and the checkpoints; sybil-chaos's plane only \
                   forwards to one) and keeping the default a pure return. There is \
                   deliberately no allowlist story here — a production hook that needs \
                   IO is a design error, not a reviewable exception.",
        "S119" => "S119 — file IO on versioned state outside the format module\n\nEvery \
                   byte sybil-store puts on disk is versioned: SYBS checkpoints (`format.rs`) \
                   and SYBJ journal frames (`journal.rs`) share one field codec, each with \
                   its magic + version header and length-prefixed framing, and the \
                   compatibility policy (same \
                   version decodes byte-identically forever; unknown versions are refused, \
                   never guessed) rests on every file touch going through `format.rs`, \
                   which writes only those layouts. A filesystem or stdio \
                   call anywhere else in `crates/sybil-store/src/` writes bytes the \
                   version policy cannot see — a checkpoint that `latest()` cannot \
                   fall back across, a journal frame the digest never covered, a format \
                   fork that silently breaks warm restart on the next release.\n\nS119 is \
                   a site rule over the same IO intrinsics S110 uses (fs::*, File::open/\
                   create, stdio, print macros), scoped to the persistence crate's library \
                   code and exempting exactly `format.rs`. Fix by expressing the operation \
                   as a `format` helper (encode/decode/write_atomic/scan) so the header, \
                   framing, and digest rules apply, then calling that from the store \
                   layer. There is no allowlist story: bytes that bypass the format \
                   module are unversioned by construction.",
        _ => return None,
    })
}

/// Lint one file, returning all findings (allowlist not yet applied).
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let toks = lex(ctx.src);
    let test_spans = test_line_spans(ctx.src, &toks);
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);
    let mut out = Vec::new();

    if ctx.kind != FileKind::Test {
        if ctx.kind == FileKind::Lib {
            d001_unordered_iteration(ctx, &toks, &in_test, &mut out);
            d004_panic_policy(ctx, &toks, &in_test, &mut out);
        }
        d002_wall_clock(ctx, &toks, &in_test, &mut out);
        d003_threading(ctx, &toks, &in_test, &mut out);
        d006_rng_hygiene(ctx, &toks, &in_test, &mut out);
    }
    // D005 applies to the crate-root file regardless of anything else.
    if ctx.rel_path.ends_with("src/lib.rs") {
        d005_forbid_unsafe(ctx, &toks, &mut out);
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn finding(ctx: &FileCtx<'_>, rule: &'static str, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.rel_path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: line_text(ctx.src, tok.line).trim().to_string(),
        trace: Vec::new(),
    }
}

fn line_text(src: &str, line: u32) -> &str {
    src.lines().nth(line as usize - 1).unwrap_or("")
}

/// [`test_line_spans`] from raw source — shared with the semantic layer
/// ([`crate::parser`]) so both agree on what counts as test code.
pub fn test_line_spans_for(src: &str) -> Vec<(u32, u32)> {
    test_line_spans(src, &lex(src))
}

/// Compute the (start, end) line spans of test-only code: items annotated
/// `#[cfg(test)]` or `#[test]`, including whole `mod tests { ... }` blocks.
fn test_line_spans(src: &str, toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_punct(b'#') && toks[i + 1].is_punct(b'[') {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr_idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].kind {
                    TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b']') => depth -= 1,
                    TokKind::Ident => attr_idents.push(toks[j].text(src)),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = attr_idents.first() == Some(&"test")
                || (attr_idents.first() == Some(&"cfg") && attr_idents.contains(&"test"));
            if is_test_attr {
                // The annotated item runs to its closing brace (or `;`).
                let start_line = toks[i].line;
                let mut k = j;
                let mut end_line = start_line;
                // Skip any further attributes between this one and the item.
                while k + 1 < toks.len() && toks[k].is_punct(b'#') && toks[k + 1].is_punct(b'[') {
                    let mut d = 1usize;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        match toks[k].kind {
                            TokKind::Punct(b'[') => d += 1,
                            TokKind::Punct(b']') => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                while k < toks.len() {
                    if toks[k].is_punct(b';') {
                        end_line = toks[k].line;
                        break;
                    }
                    if toks[k].is_punct(b'{') {
                        let mut d = 1usize;
                        let mut m = k + 1;
                        while m < toks.len() && d > 0 {
                            match toks[m].kind {
                                TokKind::Punct(b'{') => d += 1,
                                TokKind::Punct(b'}') => d -= 1,
                                _ => {}
                            }
                            m += 1;
                        }
                        end_line = toks[m.saturating_sub(1).min(toks.len() - 1)].line;
                        break;
                    }
                    k += 1;
                }
                spans.push((start_line, end_line));
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// D001: identifiers declared (or annotated) as `HashMap`/`HashSet` must
/// not be iterated in library code — `BTreeMap`/`BTreeSet` or an explicit
/// sort is required before anything order-dependent.
fn d001_unordered_iteration(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for site in hash_iteration_sites(ctx.src, toks) {
        if in_test(site.line) {
            continue;
        }
        let message = match &site.method {
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
        out.push(finding(ctx, "D001", &toks[site.tok], message));
    }
}

/// One hash-container iteration site. Shared between D001 (the file-local
/// ban) and the `NondetIter` effect intrinsic in [`crate::effects`], so
/// both layers agree on what counts as unordered iteration — including
/// the collect-then-sort escape, which restores a total order and is
/// therefore neither a D001 violation nor a nondeterministic effect.
#[derive(Clone, Debug)]
pub(crate) struct HashIterSite {
    /// The iterated binding's name.
    pub recv: String,
    /// The iterator method (`iter`, `keys`, …); `None` for `for … in`.
    pub method: Option<String>,
    /// Token index of the site (the method name, or the iterated ident).
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl HashIterSite {
    /// The site the way messages quote it: `m.keys()` or `for … in m`.
    pub(crate) fn describe(&self) -> String {
        match &self.method {
            Some(m) => format!("{}.{m}()", self.recv),
            None => format!("for … in {}", self.recv),
        }
    }
}

/// Every hash-container iteration site in one file, in token order.
pub(crate) fn hash_iteration_sites(src: &str, toks: &[Token]) -> Vec<HashIterSite> {
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
                recv: recv.to_string(),
                method: Some(name.to_string()),
                tok: i,
                line: t.line,
                col: t.col,
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
                    recv: name.to_string(),
                    method: None,
                    tok: last,
                    line: toks[last].line,
                    col: toks[last].col,
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
        if toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            || toks[i - 1].is_punct(b':')
        {
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
                TokKind::Punct(b')') | TokKind::Punct(b'}') | TokKind::Punct(b',')
                | TokKind::Punct(b';') | TokKind::Punct(b'=')
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
        let Some(name_tok) = toks.get(j) else { continue };
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

/// D002: wall-clock reads. Simulation and analytics must run on sim time;
/// only the repro CLI's timing lines may consult the host clock.
fn d002_wall_clock(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    if ctx.rel_path.ends_with("src/bin/repro.rs") {
        return;
    }
    let src = ctx.src;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        match t.text(src) {
            "Instant"
                if toks.get(i + 1).is_some_and(|a| a.is_punct(b':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(b':'))
                    && toks.get(i + 3).is_some_and(|a| a.is_ident(src, "now"))
                => {
                    out.push(finding(
                        ctx,
                        "D002",
                        t,
                        "`Instant::now()` reads the wall clock; simulation and \
                         analytics must use sim time"
                            .to_string(),
                    ));
                }
            "SystemTime" | "UNIX_EPOCH" => {
                out.push(finding(
                    ctx,
                    "D002",
                    t,
                    format!(
                        "`{}` reads the wall clock; simulation and analytics must \
                         use sim time",
                        t.text(src)
                    ),
                ));
            }
            _ => {}
        }
    }
}

/// D003: raw threading primitives belong in `osn_graph::par` only — every
/// other parallel path must go through the deterministic map there.
fn d003_threading(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    if ctx.rel_path == "crates/osn-graph/src/par.rs" {
        return;
    }
    let src = ctx.src;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let text = t.text(src);
        let is_primitive = matches!(text, "Mutex" | "RwLock" | "Condvar" | "mpsc")
            || (text.starts_with("Atomic") && text.len() > 6);
        let is_spawn = (text == "spawn" || text == "scope")
            && i >= 3
            && toks[i - 1].is_punct(b':')
            && toks[i - 2].is_punct(b':')
            && toks[i - 3].is_ident(src, "thread");
        if is_primitive {
            out.push(finding(
                ctx,
                "D003",
                t,
                format!(
                    "raw threading primitive `{text}` outside osn_graph::par; \
                     use the deterministic parallel map instead"
                ),
            ));
        } else if is_spawn {
            out.push(finding(
                ctx,
                "D003",
                t,
                format!(
                    "`thread::{text}` outside osn_graph::par; use the \
                     deterministic parallel map instead"
                ),
            ));
        }
    }
}

/// D004: panic policy — library code returns `Result` or documents the
/// invariant in the allowlist; it does not unwrap its way past errors.
fn d004_panic_policy(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let src = ctx.src;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let text = t.text(src);
        let is_method = (text == "unwrap" || text == "expect")
            && i >= 1
            && toks[i - 1].is_punct(b'.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'('));
        let is_macro = matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'));
        if is_method {
            out.push(finding(
                ctx,
                "D004",
                t,
                format!(
                    "`.{text}()` in library code; propagate a Result (or \
                     allowlist with the invariant that makes this infallible)"
                ),
            ));
        } else if is_macro {
            out.push(finding(
                ctx,
                "D004",
                t,
                format!(
                    "`{text}!` in library code; return an error (or allowlist \
                     with the invariant that makes this unreachable)"
                ),
            ));
        }
    }
}

/// D005: every library crate root must carry `#![forbid(unsafe_code)]`.
fn d005_forbid_unsafe(ctx: &FileCtx<'_>, toks: &[Token], out: &mut Vec<Finding>) {
    let src = ctx.src;
    let has = (0..toks.len()).any(|i| {
        toks[i].is_ident(src, "forbid")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b'('))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(src, "unsafe_code"))
    });
    if !has {
        out.push(Finding {
            rule: "D005",
            path: ctx.rel_path.to_string(),
            line: 1,
            col: 1,
            message: "library crate is missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: line_text(ctx.src, 1).trim().to_string(),
            trace: Vec::new(),
        });
    }
}

/// D006: RNG hygiene — every random stream must be explicitly seeded so
/// runs replay bit-identically; entropy sources are forbidden everywhere.
fn d006_rng_hygiene(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let src = ctx.src;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let text = t.text(src);
        let flagged = matches!(text, "thread_rng" | "OsRng" | "from_entropy" | "getrandom")
            || (text == "random"
                && i >= 3
                && toks[i - 1].is_punct(b':')
                && toks[i - 2].is_punct(b':')
                && toks[i - 3].is_ident(src, "rand"));
        if flagged {
            out.push(finding(
                ctx,
                "D006",
                t,
                format!(
                    "entropy-based RNG `{text}`; all randomness must come from \
                     an explicitly seeded generator"
                ),
            ));
        }
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
        assert!(lint_lib(src).iter().all(|f| f.rule != "D001"), "{:?}", lint_lib(src));
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
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let f = lint_lib(src);
        let d004: Vec<_> = f.iter().filter(|f| f.rule == "D004").collect();
        assert_eq!(d004.len(), 1);
        assert_eq!(d004[0].line, 1);
    }

    #[test]
    fn d004_does_not_flag_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(lint_lib(src).iter().all(|f| f.rule != "D004"));
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
