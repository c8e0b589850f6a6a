//! The coordinator's canonical edge mirror.
//!
//! Exactly one copy of the accepted-friendship state exists: the
//! coordinator maintains it sequentially and lends it to every shard
//! read-only for the duration of an epoch. Edges accepted *within* the
//! running epoch are already in it when the shards start — one
//! stream-order pass ([`GraphMirror::index_epoch`]) appends them to the
//! delta's link arena before the scan — and a mid-epoch check at stream
//! position `s` sees exactly the edges the sequential engine had inserted
//! by `s` by *bounding* its delta probes with a link-arena watermark
//! ([`EpochIndex::watermark`]): `mirror ∪ {epoch edges with seq ≤ s}`.
//!
//! Why the watermark is exact: links are appended in stream (seq) order
//! and never move until the next rotation, which happens only at a
//! barrier, so "created at or before `s`" is the arena prefix below
//! `links-at-epoch-start + #{accepts with seq ≤ s}` (one link per
//! accepted decision). Chains run newest-first, so the links a check must
//! ignore are a prefix of each chain.
//!
//! # Repeated pairs
//!
//! The delta is the accepted decisions as they came, so it may repeat a
//! pair: a→b and b→a both accepted, a pair re-accepted after a barrier,
//! or a pair accepted again after it was folded. The *first occurrence is
//! the edge*, and every reader holds to that instead of the writer
//! probing each accept: [`GraphMirror::pair_linked`] asks "any link, at
//! either end?", which a repeat answers the same way — a repeat may be
//! stored at the other end from the first occurrence, whichever stored
//! fewer links when it came; [`GraphMirror::delta_links_among_marked`]
//! collects pairs as `(min, max)` whichever end held them and counts the
//! distinct ones the folded rows lack; and rotation's
//! [`FoldedEdges::fold_in`] is a set union. Repeats are a minority
//! in the inputs measured: 30,436 of 623,837 accepts (4.9%) on the
//! benchmark's `scan_250k` stream at seed 7, all a request accepted again
//! in the same direction; none of 193,404 on `checks_sim`'s simulator
//! log; none at `SimConfig::tiny`/`small`. A write-side probe would cost
//! every accept a row search and a chain walk to catch them; the readers
//! pay only where a repeat can change what they read, and the delta
//! carries the repeats until the next rotation drops them.
//!
//! # Compact layout
//!
//! Every structure here is flat and u32/u64-packed — no per-node `Vec`
//! allocations, no hash tables and no timestamps (nothing the mirror
//! answers depends on when an edge was made; the watermark orders the
//! running epoch by position), so the mirror's footprint at millions of
//! accounts is a handful of arenas:
//!
//! * [`FoldedEdges`] — the folded edges, which double as the
//!   edge-membership index: a blocked CSR of [`BLOCK_ROWS`]-row blocks,
//!   each one `u32` offset per row plus the rows' neighbour ids, sorted,
//!   4 B per half-edge. A pair probe is a row-local binary search (over
//!   a node's *degree*, a couple of cache lines) instead of the seed's
//!   global `HashSet<u64>` of packed keys;
//! * [`FlatDelta`] — accepts since the last fold, as a
//!   generation-stamped head array (12 B per account: generation, first
//!   link, links stored), one link arena (8 B per accept) and the same
//!   accepts as `(u, v)` pairs for the next fold (8 B per accept), all
//!   cleared in O(1) by a generation bump — no O(V) sweep at rotation.
//!   Each staged edge is stored once, at the endpoint that stored fewer
//!   links when it came, so no account's chain grows with its
//!   popularity; a pair probe walks both ends' chains, and a link count
//!   walks every marked friend's chain in lockstep, one link per chain
//!   per round, so the chains' loads overlap;
//! * [`EpochIndex`] — the running epoch's share of that arena: where it
//!   starts and the seq of each accept in it, one `u64` per accept.
//!
//! Rotation folds the delta into [`FoldedEdges`], re-materializing only
//! the blocks that hold a grown row, one contiguous block range per `par`
//! thread, side by side: each range's task takes its rows' halves of the
//! staged accepts and rebuilds its own blocks. The result is a set — each
//! row its neighbours, ascending, once — so the folded rows are the same
//! at every thread count. The schedule — when the delta is folded — does
//! not depend on the thread count either. Because the folded rows + delta
//! *are* the edge set, rotation adds no second copy of the edges and
//! membership never touches a structure proportional to the total edge
//! count. A warm restart's [`GraphMirror::restore`] re-folds the
//! persisted edges through the same fold.
//!
//! Keeping this state out of the shards is what makes the engine scale:
//! a shard's per-event cost for accounts it does not own is a counter and
//! a branch, not a hash-table write, so adding shards divides the check
//! work without multiplying the edge bookkeeping.

use osn_graph::{par, NeighborScratch, NodeId};
use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
use sybil_core::ids::saturating_u32;
use sybil_core::realtime::state::MAX_TRACKED_FRIENDS;

/// Default rotation floor: rotate the snapshot once the unfolded delta
/// reaches this many edges or the folded edge count, whichever is larger
/// — doubling keeps total rebuild traffic O(E) amortized (~2× the final
/// CSR). Overridable per engine run (tests force tiny floors to exercise
/// many rotations).
pub(crate) const ROTATE_FLOOR: usize = 1024;

/// Rows per [`FoldedEdges`] block. A power of two so the block lookup is
/// a shift; small enough that a fold touching a handful of rows
/// re-materializes kilobytes, not the whole graph.
const BLOCK_ROWS: usize = 256;

/// Sentinel for "no link" in [`FlatDelta`] chains. As a watermark it
/// bounds nothing: every real link index is below it.
const NONE: u32 = u32::MAX;

/// One block of [`BLOCK_ROWS`] consecutive rows: local row `l` is
/// `ids[offsets[l]..offsets[l + 1]]`, its neighbour ids ascending.
struct EdgeBlock {
    /// Row boundaries, `rows + 1` of them, the first always 0.
    offsets: Vec<u32>,
    /// Every row's neighbour ids, row after row.
    ids: Vec<u32>,
}

impl EdgeBlock {
    /// Local row `l`.
    #[inline]
    fn local_row(&self, l: usize) -> &[u32] {
        debug_assert!(l + 1 < self.offsets.len());
        &self.ids[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Merge `adds` (this block's half-edges as `(row, neighbour)`, rows
    /// inside the block, any order) into the rows as a set union: a
    /// neighbour the row holds, or an earlier addition brought, is
    /// dropped. The additions are counting-sorted by row into `by_row`
    /// (caller-owned, reused), each row's share is sorted and merged with
    /// the old row, runs of old ids copied whole. Returns the additions
    /// kept.
    fn merge_rows(&mut self, adds: &[(u32, u32)], by_row: &mut Vec<u32>) -> usize {
        // `at[l]` counts row `l`'s additions, then is its end, then — as
        // the placement walks it back — its start; `at[rows]` stays the
        // total.
        let mut at = [0u32; BLOCK_ROWS + 1];
        for &(v, _) in adds {
            at[v as usize % BLOCK_ROWS] += 1;
        }
        let mut end = 0;
        for c in &mut at {
            end += *c;
            *c = end;
        }
        by_row.clear();
        by_row.resize(adds.len(), 0);
        for &(v, nbr) in adds {
            let c = &mut at[v as usize % BLOCK_ROWS];
            *c -= 1;
            by_row[*c as usize] = nbr;
        }
        let mut ids = Vec::with_capacity(self.ids.len() + adds.len());
        let (mut kept, mut old_start) = (0usize, 0usize);
        for l in 0..self.offsets.len() - 1 {
            let old_end = self.offsets[l + 1] as usize;
            let old = &self.ids[old_start..old_end];
            let tail = &mut by_row[at[l] as usize..at[l + 1] as usize];
            tail.sort_unstable();
            let mut i = 0;
            for (k, &nbr) in tail.iter().enumerate() {
                if k > 0 && tail[k - 1] == nbr {
                    continue;
                }
                let run = old[i..].partition_point(|&x| x < nbr);
                ids.extend_from_slice(&old[i..i + run]);
                i += run;
                if old.get(i) != Some(&nbr) {
                    ids.push(nbr);
                    kept += 1;
                }
            }
            ids.extend_from_slice(&old[i..]);
            self.offsets[l + 1] = saturating_u32(ids.len());
            old_start = old_end;
        }
        self.ids = ids;
        kept
    }
}

/// One fold task's buffers, kept across rotations so each fold runs in
/// pages already faulted in: its range's half-edges grouped by block, the
/// counting sort's bookkeeping, and one block's additions by row.
#[derive(Default)]
struct FoldTask {
    /// Block boundaries in `grouped` (range blocks + 1 entries).
    starts: Vec<u32>,
    /// Counting-sort write cursors (one per range block).
    cursor: Vec<u32>,
    /// The range's half-edges `(row, neighbour)`, grouped by block.
    grouped: Vec<(u32, u32)>,
    /// One block's neighbour ids, grouped by row.
    by_row: Vec<u32>,
}

impl FoldTask {
    /// Fold `edges` into the contiguous block range `blocks`, whose first
    /// block is `first`: keep the half-edges whose row lies in the range,
    /// counting-sort them by block, and fold each touched block. Returns
    /// the half-edges kept.
    fn fold_range(
        &mut self,
        first: usize,
        blocks: &mut [EdgeBlock],
        edges: &[(NodeId, NodeId)],
    ) -> usize {
        let (lo, hi) = (first * BLOCK_ROWS, (first + blocks.len()) * BLOCK_ROWS);
        let mine = || {
            edges
                .iter()
                .flat_map(|&(a, b)| [(a.0, b.0), (b.0, a.0)])
                .filter(|&(v, _)| (lo..hi).contains(&(v as usize)))
        };
        let local = |v: u32| (v as usize - lo) / BLOCK_ROWS;
        self.starts.clear();
        self.starts.resize(blocks.len() + 1, 0);
        for (v, _) in mine() {
            self.starts[local(v) + 1] += 1;
        }
        for b in 0..blocks.len() {
            self.starts[b + 1] += self.starts[b];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..blocks.len()]);
        self.grouped.clear();
        self.grouped
            .resize(self.starts[blocks.len()] as usize, (0, 0));
        for half in mine() {
            let c = &mut self.cursor[local(half.0)];
            self.grouped[*c as usize] = half;
            *c += 1;
        }
        let mut kept = 0;
        for (b, blk) in blocks.iter_mut().enumerate() {
            let adds = &self.grouped[self.starts[b] as usize..self.starts[b + 1] as usize];
            if !adds.is_empty() {
                kept += blk.merge_rows(adds, &mut self.by_row);
            }
        }
        kept
    }
}

/// The mirror's folded edges: every edge once per endpoint row, ids only,
/// in [`BLOCK_ROWS`]-row blocks (see the module docs).
pub(crate) struct FoldedEdges {
    num_nodes: usize,
    num_edges: usize,
    blocks: Vec<EdgeBlock>,
}

impl FoldedEdges {
    /// No edges over `num_nodes` nodes.
    fn empty(num_nodes: usize) -> Self {
        let block = |b0| EdgeBlock {
            offsets: vec![0; BLOCK_ROWS.min(num_nodes - b0) + 1],
            ids: Vec::new(),
        };
        FoldedEdges {
            num_nodes,
            num_edges: 0,
            blocks: (0..num_nodes).step_by(BLOCK_ROWS).map(block).collect(),
        }
    }

    /// Number of nodes (accounts).
    #[inline]
    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of distinct folded edges.
    #[inline]
    pub(crate) fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `v`'s neighbour ids, ascending.
    #[inline]
    fn row_of(&self, v: u32) -> &[u32] {
        debug_assert!((v as usize) < self.num_nodes);
        self.blocks[v as usize / BLOCK_ROWS].local_row(v as usize % BLOCK_ROWS)
    }

    /// Whether `a`–`b` is folded: a binary search in the lower-degree
    /// endpoint's row.
    #[inline]
    pub(crate) fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.num_nodes || b.index() >= self.num_nodes {
            return false;
        }
        let (ra, rb) = (self.row_of(a.0), self.row_of(b.0));
        if ra.len() <= rb.len() {
            ra.binary_search(&b.0).is_ok()
        } else {
            rb.binary_search(&a.0).is_ok()
        }
    }

    /// Folded edges among the marked friend set `friends` (marked in
    /// `scratch`): every friend's row is scanned once and each
    /// friend-to-friend edge is seen from both ends. `friends` must be
    /// duplicate-free, or links are over-counted.
    pub(crate) fn links_among_marked(&self, friends: &[u32], scratch: &NeighborScratch) -> usize {
        let mut twice_links = 0usize;
        for &u in friends {
            twice_links += self
                .row_of(u)
                .iter()
                .filter(|&&v| scratch.is_marked(v))
                .count();
        }
        twice_links / 2
    }

    /// Fold `edges` in as a set union — a pair already folded, or
    /// repeated in `edges`, is dropped, so the first occurrence is the
    /// edge — as up to [`par::num_threads`] tasks. The blocks are split
    /// into contiguous ranges, one per task and each with its own
    /// [`FoldTask`] from `tasks`; a task rebuilds only its blocks that
    /// hold a grown row, and the rows are sets, so the result is the same
    /// at every thread count. Endpoints must be in range and distinct.
    fn fold_in(&mut self, edges: &[(NodeId, NodeId)], tasks: &mut Vec<FoldTask>) {
        if edges.is_empty() {
            return;
        }
        let n = self.num_nodes;
        debug_assert!(edges
            .iter()
            .all(|&(a, b)| a != b && a.index() < n && b.index() < n));
        let nblocks = self.blocks.len();
        let per = nblocks.div_ceil(par::num_threads()).max(1);
        let n_ranges = nblocks.div_ceil(per);
        if tasks.len() < n_ranges {
            tasks.resize_with(n_ranges, FoldTask::default);
        }
        let ranges: Vec<_> = self
            .blocks
            .chunks_mut(per)
            .zip(tasks.iter_mut())
            .enumerate()
            .collect();
        let fold = |(r, (blocks, task)): (usize, (&mut [EdgeBlock], &mut FoldTask))| {
            task.fold_range(r * per, blocks, edges)
        };
        let kept: usize = par::map_owned(ranges, fold).into_iter().sum();
        // A pair is kept in both of its rows or in neither.
        self.num_edges += kept / 2;
    }
}

/// Edges accepted since the last snapshot rotation, as per-node linked
/// chains threaded through one flat arena. Each accept is stored once,
/// on the chain of the endpoint that stored fewer links when it came
/// (ties to the smaller id), so a popular account does not own a chain
/// as long as its degree: a reader looking for a pair probes both ends.
///
/// `heads[v]` is `(generation, first link, links stored)` — valid only
/// when the generation matches the current one, so clearing after a
/// rotation is a generation bump, not an O(V) sweep. Link `i` is
/// `edges[i]`: links are appended in stream order and each chain runs
/// newest-first, so a probe bounded by a watermark (see the module docs)
/// skips a chain prefix and reads the rest.
pub(crate) struct FlatDelta {
    gen: u32,
    /// Per-node `(generation, first link index, links stored)`.
    heads: Vec<(u32, u32, u32)>,
    /// Link arena: `(next link index, neighbor id)`.
    links: Vec<(u32, u32)>,
    /// The same accepts in stream order (a pair may repeat), staged for
    /// the next fold.
    edges: Vec<(NodeId, NodeId)>,
}

impl FlatDelta {
    fn new(num_accounts: usize) -> Self {
        FlatDelta {
            gen: 1,
            heads: vec![(0, NONE, 0); num_accounts],
            links: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// `a`'s `(first link, links stored)` in the current generation.
    #[inline]
    fn head(&self, a: u32) -> (u32, u32) {
        let (gen, first, stored) = self.heads[a as usize];
        if gen == self.gen {
            (first, stored)
        } else {
            (NONE, 0)
        }
    }

    /// Record an accepted edge: one link, on the less-loaded endpoint's
    /// chain (ties to the smaller id).
    fn push(&mut self, u: NodeId, v: NodeId) {
        let (hu, hv) = (self.head(u.0), self.head(v.0));
        let ((a, (first, stored)), b) = if (hu.1, u.0) <= (hv.1, v.0) {
            ((u, hu), v)
        } else {
            ((v, hv), u)
        };
        // Saturates at the `NONE` sentinel; an arena that long (2^32
        // staged edges, 64 GiB of links and pairs) cannot be allocated.
        let at = saturating_u32(self.links.len());
        self.heads[a.index()] = (self.gen, at, stored.saturating_add(1));
        self.links.push((first, b.0));
        self.edges.push((u, v));
    }

    /// `a`'s delta neighbors whose link index is below `watermark`,
    /// newest first — the links stored at `a`, so only the share of its
    /// delta edges it was the less-loaded end of.
    #[inline]
    fn neighbors_below(&self, a: u32, watermark: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head(a).0;
        std::iter::from_fn(move || {
            while cur != NONE {
                let at = cur;
                let (next, nbr) = self.links[at as usize];
                cur = next;
                if at < watermark {
                    return Some(nbr);
                }
            }
            None
        })
    }

    /// Whether the delta holds `a`–`b` below `watermark`, at either end.
    #[inline]
    fn linked_below(&self, a: u32, b: u32, watermark: u32) -> bool {
        self.neighbors_below(a, watermark).any(|v| v == b)
            || self.neighbors_below(b, watermark).any(|v| v == a)
    }

    /// Number of staged accepts, repeats included.
    fn len(&self) -> usize {
        self.edges.len()
    }

    /// Drop all staged edges in O(1) by bumping the generation.
    fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stale heads could collide with the new generation.
            self.heads.fill((0, NONE, 0));
            self.gen = 1;
        }
        self.links.clear();
        self.edges.clear();
    }
}

/// Canonical accepted-edge state. `snapshot ∪ delta` *is* the
/// accepted-edge set — there is no separate membership structure to keep
/// in sync or pay memory for. During an epoch the delta already holds
/// the epoch's own edges; probes see the state as of a stream position
/// through a watermark ([`NONE`] for "everything").
pub(crate) struct GraphMirror {
    /// Folded prefix of the edge stream.
    pub snapshot: FoldedEdges,
    /// Edges accepted since the last rotation.
    pub delta: FlatDelta,
    /// Rotation floor in force for this run (see [`ROTATE_FLOOR`]).
    rotate_floor: usize,
    /// Reused rotation buffers, one [`FoldTask`] per fold range (the
    /// fold's working set is delta-sized; re-allocating it every rotation
    /// pays first-touch page faults on hundreds of megabytes at the
    /// million-account sizes).
    fold_tasks: Vec<FoldTask>,
    /// Recycled [`EpochIndex`] storage, taken back in [`Self::absorb`].
    spare_seqs: Vec<u64>,
}

/// The running epoch's share of the delta's link arena: the epoch's
/// accept `k` owns link `base + k`.
pub(crate) struct EpochIndex {
    /// Link-arena length when the epoch began.
    base: u32,
    /// Stream position of each accept the epoch added, ascending.
    seqs: Vec<u64>,
}

impl EpochIndex {
    /// Link-arena watermark for a check at stream position `seq`: links
    /// at or above it belong to edges created after `seq`.
    #[inline]
    pub(crate) fn watermark(&self, seq: u64) -> u32 {
        let visible = self.seqs.partition_point(|&s| s <= seq);
        self.base.saturating_add(saturating_u32(visible))
    }
}

impl GraphMirror {
    /// Mirror over `num_accounts` accounts. `rotate_floor` of 0 selects
    /// the default [`ROTATE_FLOOR`].
    pub fn new(num_accounts: usize, rotate_floor: usize) -> Self {
        GraphMirror {
            snapshot: FoldedEdges::empty(num_accounts),
            delta: FlatDelta::new(num_accounts),
            rotate_floor: if rotate_floor == 0 {
                ROTATE_FLOOR
            } else {
                rotate_floor
            },
            fold_tasks: Vec::new(),
            spare_seqs: Vec::new(),
        }
    }

    /// One stream-order pass over an epoch's events: every accepted
    /// decision enters the delta at once, and its seq is noted. There is
    /// no membership probe: a pair already linked (folded, staged or
    /// accepted earlier this epoch) is appended again, and readers treat
    /// its first occurrence as the edge (see the module docs). `details`
    /// is the epoch slice's parallel [`EventDetail`] array, so the pass
    /// never touches the log.
    pub(crate) fn index_epoch(
        &mut self,
        events: &[StreamEvent],
        details: &[EventDetail],
    ) -> EpochIndex {
        debug_assert_eq!(events.len(), details.len());
        let base = saturating_u32(self.delta.links.len());
        let mut seqs = std::mem::take(&mut self.spare_seqs);
        seqs.clear();
        for (ev, d) in events.iter().zip(details) {
            if matches!(ev.kind, StreamEventKind::Decided(_)) && d.accepted {
                self.delta.push(NodeId(d.from), NodeId(d.to));
                seqs.push(ev.seq);
            }
        }
        EpochIndex { base, seqs }
    }

    /// Whether `a`–`b` is linked below `watermark` (pair-probe path): a
    /// row-local binary search of the snapshot plus short delta chain
    /// walks at both ends. A repeated pair only answers the same question
    /// twice.
    #[inline]
    pub(crate) fn pair_linked(&self, a: NodeId, b: NodeId, watermark: u32) -> bool {
        self.snapshot.has_edge(a, b) || self.delta.linked_below(a.0, b.0, watermark)
    }

    /// Links the delta adds, below `watermark`, among the marked friend
    /// set `friends` (the probe companion to the snapshot's marked-set
    /// kernel): the distinct marked pairs with a delta link that the
    /// snapshot does not already hold. A link is stored at one end only,
    /// so every friend's chain is walked; the walks advance one link per
    /// round, up to [`MAX_TRACKED_FRIENDS`] chains at a time, so the loads
    /// of different chains overlap instead of queueing behind each other.
    /// The delta may repeat a pair, at either end, so the pairs are
    /// collected as `(min, max)` in `pairs` (caller-owned, reused) and
    /// deduplicated before they are counted.
    pub(crate) fn delta_links_among_marked(
        &self,
        friends: &[u32],
        watermark: u32,
        scratch: &NeighborScratch,
        pairs: &mut Vec<(u32, u32)>,
    ) -> usize {
        pairs.clear();
        // `(next link to read, chain owner)` of each live walk.
        let mut walks = [(NONE, 0u32); MAX_TRACKED_FRIENDS];
        for group in friends.chunks(MAX_TRACKED_FRIENDS) {
            let mut live = 0;
            for &u in group {
                let first = self.delta.head(u).0;
                if first != NONE {
                    walks[live] = (first, u);
                    live += 1;
                }
            }
            while live > 0 {
                let mut i = 0;
                while i < live {
                    let (at, u) = walks[i];
                    let (next, v) = self.delta.links[at as usize];
                    if at < watermark && v != u && scratch.is_marked(v) {
                        pairs.push((u.min(v), u.max(v)));
                    }
                    if next == NONE {
                        live -= 1;
                        walks[i] = walks[live];
                    } else {
                        walks[i].0 = next;
                        i += 1;
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .iter()
            .filter(|&&(u, v)| !self.snapshot.has_edge(NodeId(u), NodeId(v)))
            .count()
    }

    /// Folded (snapshot) edges as undirected `(u, v)` pairs with
    /// `u < v`, in row order, straight off the rows: a deterministic
    /// function of the edge *set*, so checkpoints of a restored mirror
    /// stay byte-stable.
    pub(crate) fn folded_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.snapshot.num_edges());
        for u in 0..saturating_u32(self.snapshot.num_nodes()) {
            let above = self.snapshot.row_of(u).iter().filter(|&&v| u < v);
            edges.extend(above.map(|&v| (NodeId(u), NodeId(v))));
        }
        edges
    }

    /// Edges staged in the delta (accepted since the last rotation), in
    /// stream order, as accepted: a pair may repeat.
    pub(crate) fn staged_edges(&self) -> &[(NodeId, NodeId)] {
        &self.delta.edges
    }

    /// Rebuild a mirror from persisted [`Self::folded_edges`] /
    /// [`Self::staged_edges`] output: one fold re-folds the snapshot
    /// (in any order — the fold is a set union), then staged edges —
    /// repeats included — re-enter the delta. The fold/delta split is
    /// restored exactly as persisted, so rotation timing — and therefore
    /// every downstream probe — continues deterministically. `None` when
    /// an endpoint is not an account of this run (rows and chain heads
    /// are indexed by it) or an edge is a self-loop (no accept makes one,
    /// and the link kernels would count it).
    pub(crate) fn restore(
        num_accounts: usize,
        rotate_floor: usize,
        folded: &[(NodeId, NodeId)],
        staged: &[(NodeId, NodeId)],
    ) -> Option<Self> {
        let inside = |&(u, v): &(NodeId, NodeId)| {
            u != v && u.index() < num_accounts && v.index() < num_accounts
        };
        if !folded.iter().chain(staged).all(inside) {
            return None;
        }
        let mut m = GraphMirror::new(num_accounts, rotate_floor);
        m.snapshot.fold_in(folded, &mut m.fold_tasks);
        for &(u, v) in staged {
            m.delta.push(u, v);
        }
        Some(m)
    }

    /// Close an epoch after the barrier: its edges are already in the
    /// delta, so this is the rotation test plus buffer recycling.
    /// Rotation timing is value-neutral — a link counts the same from the
    /// snapshot or the delta — and deterministic, since the delta is a
    /// pure function of the event stream and the configured floor.
    pub(crate) fn absorb(&mut self, idx: EpochIndex) {
        // Rotate once the delta matches the folded size (doubling): total
        // rebuild traffic stays ~2× the final CSR while delta chains stay
        // O(average degree) — they are walked on every pair probe. The
        // delta's length counts repeats, so a stream that repeats pairs
        // rotates a little sooner; the fold drops them.
        let threshold = self.rotate_floor.max(self.snapshot.num_edges());
        if self.delta.len() >= threshold {
            self.snapshot
                .fold_in(&self.delta.edges, &mut self.fold_tasks);
            self.delta.clear();
        }
        self.spare_seqs = idx.seqs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::links_at;
    use osn_graph::Timestamp;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashSet};
    use sybil_core::realtime::state::{links_via_edges, pack_edge};

    #[test]
    fn pair_probe_covers_snapshot_and_delta() {
        let mut m = GraphMirror::new(5, 1_000_000);
        assert!(!m.pair_linked(NodeId(0), NodeId(1), NONE));
        // Folded edge: rotate a one-edge delta into the snapshot.
        m.delta.push(NodeId(0), NodeId(1));
        m.snapshot.fold_in(&m.delta.edges, &mut m.fold_tasks);
        m.delta.clear();
        // Staged edge: still in the delta.
        m.delta.push(NodeId(2), NodeId(3));
        assert!(m.pair_linked(NodeId(0), NodeId(1), NONE));
        assert!(m.pair_linked(NodeId(1), NodeId(0), NONE));
        assert!(m.pair_linked(NodeId(2), NodeId(3), NONE));
        assert!(m.pair_linked(NodeId(3), NodeId(2), NONE));
        assert!(!m.pair_linked(NodeId(0), NodeId(2), NONE));
        assert!(!m.pair_linked(NodeId(1), NodeId(3), NONE));
        assert!(!m.pair_linked(NodeId(0), NodeId(4), NONE));
        // A watermark at the arena's start hides the staged edge, never
        // the folded one.
        assert!(!m.pair_linked(NodeId(2), NodeId(3), 0));
        assert!(m.pair_linked(NodeId(0), NodeId(1), 0));
    }

    fn marked_count(d: &FlatDelta, u: u32, scratch: &NeighborScratch) -> usize {
        d.neighbors_below(u, NONE)
            .filter(|&v| scratch.is_marked(v))
            .count()
    }

    #[test]
    fn flat_delta_counts_marked_and_clears_in_o1() {
        const N: usize = 6;
        let mut d = FlatDelta::new(N);
        // Node 0 is a hub: once it stores more links than a newcomer, the
        // newcomer's end takes the link. Pairs repeat in both directions.
        let accepts = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 0),
            (4, 0),
            (5, 4),
            (3, 2),
            (2, 3),
        ];
        let mut stored = [0u32; N];
        for (k, &(u, v)) in accepts.iter().enumerate() {
            let at = if (stored[u], u) <= (stored[v], v) {
                u
            } else {
                v
            };
            let other = if at == u { v } else { u };
            let before: Vec<(u32, u32)> = (0..N as u32).map(|a| d.head(a)).collect();
            d.push(NodeId(u as u32), NodeId(v as u32));
            stored[at] += 1;
            // Exactly one chain grew: `at`'s, whose newest link is link
            // `k` and names the other end.
            for a in 0..N as u32 {
                let (first, count) = d.head(a);
                if a as usize == at {
                    assert_eq!((first, count), (k as u32, stored[at]), "accept {k}");
                    assert_eq!(d.links[k], (before[at].0, other as u32));
                } else {
                    assert_eq!((first, count), before[a as usize], "accept {k}, node {a}");
                }
            }
        }
        // The hub stores one of its five accepts; 3–2 tied and went to 2.
        assert_eq!(stored, [1, 1, 2, 2, 1, 1]);
        let total: u32 = (0..N as u32).map(|a| d.head(a).1).sum();
        assert_eq!(total as usize, d.len());
        assert_eq!(d.len(), accepts.len());
        let mut scratch = NeighborScratch::new(N);
        scratch.begin(N);
        scratch.mark(1);
        scratch.mark(2);
        scratch.mark(4);
        // Node 0 stores 0–1; node 3 stores 0–3 and the repeat 2–3; node 1
        // stores the repeat 1–0.
        assert_eq!(marked_count(&d, 0, &scratch), 1);
        assert_eq!(marked_count(&d, 3, &scratch), 1); // 0 is unmarked
        assert_eq!(marked_count(&d, 1, &scratch), 0);
        d.clear();
        assert_eq!(d.len(), 0);
        for a in 0..N as u32 {
            assert_eq!(d.head(a), (NONE, 0));
            assert_eq!(marked_count(&d, a, &scratch), 0);
        }
        // Reuse after clear starts clean chains and counts: the tie goes
        // to the smaller id again.
        d.push(NodeId(4), NodeId(0));
        assert_eq!(d.head(0), (0, 1));
        assert_eq!(d.head(4), (NONE, 0));
        assert_eq!(marked_count(&d, 0, &scratch), 1);
    }

    #[test]
    fn flat_delta_wrap_resets_heads_and_counts() {
        let mut d = FlatDelta::new(3);
        d.push(NodeId(0), NodeId(1));
        d.push(NodeId(0), NodeId(2));
        assert_eq!((d.gen, d.head(0), d.head(2)), (1, (0, 1), (1, 1)));
        // The next clear wraps to generation 1, which the heads written
        // above still carry: they must be reset, not revived.
        d.gen = u32::MAX;
        d.clear();
        assert_eq!(d.gen, 1);
        assert!(d.heads.iter().all(|&h| h == (0, NONE, 0)));
        d.push(NodeId(2), NodeId(1));
        assert_eq!(
            (d.head(0), d.head(1), d.head(2)),
            ((NONE, 0), (0, 1), (NONE, 0))
        );
        assert_eq!(d.neighbors_below(1, NONE).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn flat_delta_generation_wraparound_is_safe() {
        let mut d = FlatDelta::new(3);
        d.gen = u32::MAX;
        d.push(NodeId(0), NodeId(1));
        let mut scratch = NeighborScratch::new(3);
        scratch.begin(3);
        scratch.mark(1);
        assert_eq!(marked_count(&d, 0, &scratch), 1);
        d.clear(); // wraps to 0 → resets heads, lands on gen 1
        assert_eq!(marked_count(&d, 0, &scratch), 0);
        d.push(NodeId(0), NodeId(1));
        assert_eq!(marked_count(&d, 0, &scratch), 1);
    }

    /// Run `body` with `RENREN_THREADS` pinned, restoring the prior
    /// value. Env vars are process-global: this lock serializes the tests
    /// of this binary that set it, and any other test reading it meanwhile
    /// sees the same results at every thread count.
    fn with_threads_env<T>(value: usize, body: impl FnOnce() -> T) -> T {
        use std::sync::{Mutex, OnceLock};
        static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let _guard = ENV_LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
        let prior = std::env::var(par::THREADS_ENV).ok();
        std::env::set_var(par::THREADS_ENV, value.to_string());
        let out = body();
        match prior {
            Some(v) => std::env::set_var(par::THREADS_ENV, v),
            None => std::env::remove_var(par::THREADS_ENV),
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fold against a `BTreeSet` union, at `RENREN_THREADS` 1, 2
        /// and 3: batches over one to five 256-row blocks of nodes, four
        /// hubs among them, pairs repeated within and across batches in
        /// either direction. After every fold each row is the set's
        /// neighbours of its node, ascending and once each, `num_edges` is
        /// the set's size, and `has_edge` is membership, both ways.
        #[test]
        fn fold_equals_a_set_union_at_every_thread_count(
            n in 2u32..=1200,
            batches in prop::collection::vec(
                prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 0..80),
                1..5,
            ),
        ) {
            for threads in 1..=3 {
                let mut folded = FoldedEdges::empty(n as usize);
                let mut tasks = Vec::new();
                let mut set: BTreeSet<(u32, u32)> = BTreeSet::new();
                let mut seen: Vec<(u32, u32)> = Vec::new();
                for batch in &batches {
                    let mut edges = Vec::new();
                    for &(kind, x, y) in batch {
                        let (a, b) = match (kind, seen.len()) {
                            (1, _) => (x % 4 % n, y % n),
                            (2, k) if k > 0 => seen[x as usize % k],
                            (3, k) if k > 0 => {
                                let (a, b) = seen[x as usize % k];
                                (b, a)
                            }
                            _ => (x % n, y % n),
                        };
                        let b = if a == b { (b + 1) % n } else { b };
                        seen.push((a, b));
                        set.insert((a.min(b), a.max(b)));
                        edges.push((NodeId(a), NodeId(b)));
                    }
                    with_threads_env(threads, || folded.fold_in(&edges, &mut tasks));
                    let mut rows = vec![Vec::new(); n as usize];
                    for &(u, v) in &set {
                        rows[u as usize].push(v);
                        rows[v as usize].push(u);
                    }
                    for (v, want) in rows.iter_mut().enumerate() {
                        want.sort_unstable();
                        let got = folded.row_of(v as u32);
                        prop_assert_eq!(got, &want[..], "row {} at {} threads", v, threads);
                    }
                    prop_assert_eq!(folded.num_edges(), set.len());
                    for (v, row) in rows.iter().enumerate() {
                        let v = v as u32;
                        // Each neighbour, and the id after it: an edge or not.
                        for w in row.iter().flat_map(|&w| [w, w + 1]).filter(|&w| w < n) {
                            let linked = v != w && set.contains(&(v.min(w), v.max(w)));
                            prop_assert_eq!(folded.has_edge(NodeId(v), NodeId(w)), linked);
                            prop_assert_eq!(folded.has_edge(NodeId(w), NodeId(v)), linked);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// Watermark-bounded probes against a brute-force edge set: for
        /// arbitrary accept sequences — pairs repeated inside one epoch,
        /// across epochs, and across rotations at tiny floors — and every
        /// `seq` of every epoch, `pair_linked` and the link count
        /// (snapshot kernel plus `delta_links_among_marked`) see exactly
        /// the edges created at or before `seq`.
        #[test]
        fn watermark_probes_equal_brute_force(
            accepts in prop::collection::vec((0u32..6, 0u32..6, 0usize..4), 0..40),
            rotate_floor in 1usize..5,
        ) {
            const N: u32 = 6;
            let mut m = GraphMirror::new(N as usize, rotate_floor);
            let mut scratch = NeighborScratch::new(N as usize);
            let mut pairs = Vec::new();
            // Friend sets: every node but `skip` (none when `skip == N`).
            let sets: Vec<Vec<u32>> =
                (0..=N).map(|skip| (0..N).filter(|&v| v != skip).collect()).collect();
            let mut known: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut seq = 0u64;
            let mut rest = accepts.as_slice();
            while !rest.is_empty() {
                // An epoch is the next 1–4 accepts, each followed by a
                // non-accept event so some seqs create nothing.
                let (epoch, tail) = rest.split_at(rest[0].2.clamp(1, rest.len()));
                rest = tail;
                let mut events = Vec::new();
                let mut details = Vec::new();
                for &(a, b, _) in epoch {
                    let b = if a == b { (b + 1) % N } else { b };
                    for accepted in [true, false] {
                        events.push(StreamEvent {
                            seq,
                            at: Timestamp(seq),
                            kind: StreamEventKind::Decided(0),
                        });
                        details.push(EventDetail { from: a, to: b, accepted });
                        seq += 1;
                    }
                }
                let idx = m.index_epoch(&events, &details);
                for (ev, d) in events.iter().zip(&details) {
                    if d.accepted {
                        known.insert((d.from.min(d.to), d.from.max(d.to)));
                    }
                    let watermark = idx.watermark(ev.seq);
                    for a in 0..N {
                        for b in (0..N).filter(|&b| b != a) {
                            prop_assert_eq!(
                                m.pair_linked(NodeId(a), NodeId(b), watermark),
                                known.contains(&(a.min(b), a.max(b))),
                                "pair {}-{} at seq {}", a, b, ev.seq
                            );
                        }
                    }
                    for (skip, friends) in sets.iter().enumerate() {
                        scratch.begin(N as usize);
                        friends.iter().for_each(|&v| scratch.mark(v));
                        let skip = skip as u32;
                        let want = known.iter().filter(|&&(u, v)| u != skip && v != skip);
                        let delta =
                            m.delta_links_among_marked(friends, watermark, &scratch, &mut pairs);
                        prop_assert_eq!(
                            m.snapshot.links_among_marked(friends, &scratch) + delta,
                            want.count(),
                            "links without {} at seq {}", skip, ev.seq
                        );
                    }
                }
                m.absorb(idx);
                // The snapshot holds distinct edges, the delta every accept
                // since the last rotation: a repeated pair is in the delta
                // twice, or in both, so `num_edges + delta.len()` may
                // exceed `known.len()` by design. The union is the set.
                prop_assert!(m.snapshot.num_edges() + m.delta.len() >= known.len());
                let mut union: BTreeSet<(u32, u32)> = m
                    .folded_edges()
                    .iter()
                    .map(|&(u, v)| (u.0, v.0))
                    .collect();
                prop_assert_eq!(union.len(), m.snapshot.num_edges());
                union.extend(m.delta.edges.iter().map(|&(u, v)| (u.0.min(v.0), u.0.max(v.0))));
                prop_assert_eq!(union, known.clone());
            }
        }
    }

    /// Friend lists for the realistic-size proptest, drawn from `all`
    /// (every account, shuffled): empty, one friend, `some` (a random
    /// list of up to [`MAX_TRACKED_FRIENDS`]), a full one, every account
    /// (longer than a lockstep group once there are more accounts than
    /// the cap), and a list holding a duplicate (the pair-probe
    /// fallback). The flag is `links_at`'s `dup`.
    fn friend_lists(some: &[u32], all: &[u32]) -> Vec<(Vec<NodeId>, bool)> {
        let ids = |v: &[u32]| v.iter().map(|&u| NodeId(u)).collect::<Vec<_>>();
        let mut dup = ids(&some[..some.len().min(MAX_TRACKED_FRIENDS - 1)]);
        dup.push(NodeId(all[0]));
        dup.push(NodeId(all[0]));
        vec![
            (Vec::new(), false),
            (ids(&all[..1]), false),
            (ids(some), false),
            (ids(&all[..all.len().min(MAX_TRACKED_FRIENDS)]), false),
            (ids(all), false),
            (dup, true),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The shard's link count (`links_at`: the snapshot kernel plus
        /// the lockstep delta walk, or pair probes for a list with a
        /// duplicate) and `pair_linked` in both directions, against the
        /// reference pair-probe counter over a `HashSet` of the edges
        /// accepted so far. 40–80 accounts, four hubs whose degree
        /// grows past their partners' so links land at both ends, pairs
        /// repeated in either direction within an epoch and across
        /// rotations at tiny floors; checked at every seq of every epoch
        /// and at one random watermark per epoch.
        #[test]
        fn links_at_equals_pair_probes_at_realistic_size(
            n in 40u32..=80,
            keys in prop::collection::vec(any::<u64>(), 80),
            some_len in 0usize..=MAX_TRACKED_FRIENDS,
            ops in prop::collection::vec(
                (0u8..4, 0u32..80, 0u32..80, any::<bool>(), 0u8..4),
                1..120,
            ),
            rotate_floor in 1usize..16,
        ) {
            // Every account in a random order; the random list is its
            // last `some_len`, the full one its first 50.
            let mut all: Vec<u32> = (0..n).collect();
            all.sort_unstable_by_key(|&u| keys[u as usize]);
            let some: Vec<u32> = all.iter().rev().take(some_len).copied().collect();
            let lists = friend_lists(&some, &all);
            let mut m = GraphMirror::new(n as usize, rotate_floor);
            let mut scratch = NeighborScratch::new(n as usize);
            let (mut ids, mut pairs) = (Vec::new(), Vec::new());
            let mut known: HashSet<u64> = HashSet::new();
            let mut accepted: Vec<(u32, u32)> = Vec::new();
            let mut seq = 0u64;
            let mut rest = ops.as_slice();
            while !rest.is_empty() {
                // An epoch runs to the next op whose last field is 0.
                let len = rest.iter().position(|op| op.4 == 0).map_or(rest.len(), |i| i + 1);
                let (epoch, tail) = rest.split_at(len);
                rest = tail;
                let mut events = Vec::new();
                let mut details = Vec::new();
                for &(kind, x, y, is_accept, _) in epoch {
                    let (x, y) = (x % n, y % n);
                    let (a, b) = match (kind, accepted.len()) {
                        (1, _) => (x % 4, y),
                        (2, k) if k > 0 => accepted[x as usize % k],
                        (3, k) if k > 0 => {
                            let (a, b) = accepted[x as usize % k];
                            (b, a)
                        }
                        _ => (x, y),
                    };
                    let b = if a == b { (b + 1) % n } else { b };
                    if is_accept {
                        accepted.push((a, b));
                    }
                    events.push(StreamEvent {
                        seq,
                        at: Timestamp(seq),
                        kind: StreamEventKind::Decided(0),
                    });
                    details.push(EventDetail { from: a, to: b, accepted: is_accept });
                    seq += 1;
                }
                let idx = m.index_epoch(&events, &details);
                for (ev, d) in events.iter().zip(&details) {
                    if d.accepted {
                        known.insert(pack_edge(NodeId(d.from), NodeId(d.to)));
                    }
                    let watermark = idx.watermark(ev.seq);
                    for (friends, dup) in &lists {
                        prop_assert_eq!(
                            links_at(friends, *dup, watermark, &m, &mut scratch, &mut ids,
                                &mut pairs),
                            links_via_edges(friends, &known),
                            "{} friends (dup {}) at seq {}", friends.len(), dup, ev.seq
                        );
                    }
                    // Every pair accepted in this case, later ones too,
                    // and pairs that may never be.
                    let others = some.windows(2).map(|w| (w[0], w[1]));
                    for (a, b) in accepted.iter().copied().chain(others) {
                        let (a, b) = (NodeId(a), NodeId(b));
                        let linked = m.pair_linked(a, b, watermark);
                        prop_assert_eq!(linked, m.pair_linked(b, a, watermark));
                        prop_assert_eq!(
                            linked,
                            known.contains(&pack_edge(a, b)),
                            "pair {}-{} at seq {}", a.0, b.0, ev.seq
                        );
                    }
                }
                // A random watermark, below the epoch's base too: link `i`
                // is staged accept `i`, so the mirror below `w` is the
                // snapshot plus the delta's first `w` accepts.
                let w = (epoch[0].1 * 80 + epoch[0].2) as usize % (m.delta.len() + 2);
                let below: HashSet<u64> = m
                    .folded_edges()
                    .iter()
                    .chain(&m.delta.edges[..w.min(m.delta.len())])
                    .map(|&(u, v)| pack_edge(u, v))
                    .collect();
                for (friends, dup) in &lists {
                    prop_assert_eq!(
                        links_at(friends, *dup, w as u32, &m, &mut scratch, &mut ids, &mut pairs),
                        links_via_edges(friends, &below),
                        "{} friends (dup {}) below watermark {}", friends.len(), dup, w
                    );
                }
                m.absorb(idx);
            }
        }
    }
}
