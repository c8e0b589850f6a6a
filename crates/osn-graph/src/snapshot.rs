//! Immutable CSR (compressed sparse row) snapshot of a [`TemporalGraph`].
//!
//! The mutable graph keeps per-node `Vec<Neighbor>` adjacency plus a global
//! hash set for membership tests. That layout is right for incremental
//! simulation but wrong for the measurement sweeps (§3 of the paper), which
//! are read-only and dominated by neighborhood intersection: clustering
//! coefficients probe every neighbor pair through the hash set, costing
//! O(deg²) hashed lookups per node with poor locality.
//!
//! [`CsrSnapshot::freeze`] lays the adjacency out in two flat views:
//!
//! * **id-sorted** rows (`sorted`, with creation times alongside in
//!   `sorted_times`) giving O(log deg) [`has_edge`](CsrSnapshot::has_edge)
//!   by binary search and O(deg a + deg b) merge intersection for
//!   [`mutual_friends`](CsrSnapshot::mutual_friends);
//! * **chronological** rows (`chrono`/`chrono_times`, preserving the
//!   temporal graph's edge-creation order) so the paper's "first *k*
//!   friends by time" analyses keep their semantics.
//!
//! The snapshot is an analytics view: the §3 sweeps and the feature
//! extractor freeze a finished graph once and read it. The serving
//! engine's edge mirror does not use it; it keeps its own ids-only rows
//! (`sybil-serve`'s `mirror` module), since it reads neither the times
//! nor the chronological view.
//!
//! # Chunked column storage
//!
//! The four columns are not monolithic `Vec`s: rows are grouped into
//! fixed-size **blocks** of [`BLOCK_ROWS`] consecutive nodes, each block
//! holding its own relative offsets plus column arenas. Any single row is
//! contiguous inside one block, so every accessor still returns a plain
//! slice.
//!
//! The incremental rebuild ([`CsrSnapshot::merge_delta`]) has no caller
//! in the serving engine. It is kept, unchanged, only because the
//! benchmark's `osn-graph.merge_delta_s` probe times it; ROADMAP item 1
//! retargets that probe at the mirror's fold and then deletes
//! `merge_delta`, `merge_delta_with`, [`MergeScratch`] and `FoldScratch`
//! (≈400 lines). It re-materializes
//! only the blocks that contain grown rows and leaves every other
//! block's storage untouched: O(delta + grown-blocks) work, transient
//! memory of the delta's half-edges plus one block per fold task.
//! Blocks are independent, so the fold splits them into one contiguous
//! range per [`par`] thread and rebuilds the ranges side by side.
//! [`CsrSnapshot::with_edges`] keeps the original monolithic rebuild as
//! the independently-coded oracle.
//!
//! Triangle-style kernels use an epoch-stamped scratch array
//! ([`NeighborScratch`]) instead of pairwise probes: marking a node's
//! friend set costs O(deg) and each membership probe is one array read, so
//! a clustering coefficient costs O(Σ deg(friend)) instead of O(deg²) hash
//! probes. [`CsrSnapshot::first_k_clustering`] returns values
//! bit-identical to `clustering::first_k_clustering` on the source graph.

use crate::graph::{NodeId, TemporalGraph, Timestamp};
use crate::par;

/// Rows per column block. A power of two so the block lookup is a shift;
/// small enough that an incremental rotation touching a handful of rows
/// re-materializes kilobytes, not the whole graph.
const BLOCK_ROWS: usize = 256;

/// One block of [`BLOCK_ROWS`] consecutive rows: relative offsets plus the
/// four column arenas. Rows are contiguous within their block, so row
/// accessors can hand out slices.
#[derive(Clone, Debug, Default)]
struct RowBlock {
    /// Relative row boundaries: local row `l`'s entries live at
    /// `offsets[l]..offsets[l + 1]` in all four arenas. Length
    /// `rows_in_block + 1`; first entry always 0.
    offsets: Vec<u32>,
    /// Neighbor ids per row, sorted ascending by id.
    sorted: Vec<u32>,
    /// Edge-creation times aligned with `sorted`.
    sorted_times: Vec<Timestamp>,
    /// Neighbor ids per row in edge-creation (chronological) order.
    chrono: Vec<u32>,
    /// Edge-creation times aligned with `chrono`.
    chrono_times: Vec<Timestamp>,
}

impl RowBlock {
    fn empty(rows: usize) -> Self {
        RowBlock {
            offsets: vec![0; rows + 1],
            ..RowBlock::default()
        }
    }

    /// Number of rows in this block.
    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total entries stored (half-edges) across the block's rows.
    fn len(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// Local range of local row `l`.
    #[inline]
    fn row(&self, l: usize) -> std::ops::Range<usize> {
        debug_assert!(l + 1 < self.offsets.len());
        self.offsets[l] as usize..self.offsets[l + 1] as usize
    }
}

/// Frozen read-only CSR view of a [`TemporalGraph`], stored as chunked
/// column blocks (see the module docs).
#[derive(Clone, Debug)]
pub struct CsrSnapshot {
    num_nodes: usize,
    num_edges: usize,
    blocks: Vec<RowBlock>,
}

/// Reusable epoch-stamped mark array for neighborhood kernels.
///
/// `marks[v] == epoch` means "v is in the current friend set"; bumping the
/// epoch clears the set in O(1). One scratch per thread is enough for any
/// number of kernel calls.
#[derive(Clone, Debug, Default)]
pub struct NeighborScratch {
    marks: Vec<u32>,
    epoch: u32,
}

impl NeighborScratch {
    /// Scratch sized for a snapshot with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        NeighborScratch {
            marks: vec![0; num_nodes],
            epoch: 0,
        }
    }

    /// Start a new (empty) friend set, resizing if the snapshot grew.
    pub fn begin(&mut self, num_nodes: usize) {
        if self.marks.len() < num_nodes {
            self.marks.resize(num_nodes, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale marks could collide with the new epoch.
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Add `v` to the current friend set.
    #[inline]
    pub fn mark(&mut self, v: u32) {
        self.marks[v as usize] = self.epoch;
    }

    /// Is `v` in the current friend set?
    #[inline]
    pub fn is_marked(&self, v: u32) -> bool {
        self.marks[v as usize] == self.epoch
    }
}

/// Reusable transient buffers for [`CsrSnapshot::merge_delta_with`], one
/// set per fold task (kept for the benchmark probe; see the module docs).
/// A rotation's working set is proportional to the delta being folded
/// (its half-edges, grouped by block, are 2 × the
/// additions across the tasks); holding one `MergeScratch` across
/// rotations keeps those pages faulted in instead of re-allocating (and
/// first-touching) them on every fold.
#[derive(Clone, Debug, Default)]
pub struct MergeScratch {
    tasks: Vec<FoldScratch>,
}

/// One fold task's buffers: the counting-sort bookkeeping, its range's
/// half-edges grouped by block, and the per-block staging area.
#[derive(Clone, Debug, Default)]
struct FoldScratch {
    /// Counting-sort block boundaries (range blocks + 1 entries).
    starts: Vec<u32>,
    /// Counting-sort write cursors (one per range block).
    cursor: Vec<u32>,
    /// The range's half-edges `(row, neighbor, time)`, grouped by
    /// block, stream-ordered within a block.
    grouped: Vec<(u32, u32, Timestamp)>,
    /// One block's additions, row-sorted, handed to the rebuild.
    block: Vec<(u32, u32, Timestamp)>,
    /// One row's additions as `(neighbor, position in the row's
    /// additions)`, sorted, recycled across every row of every rebuilt
    /// block instead of allocating per row.
    tail: Vec<(u32, u32)>,
}

impl CsrSnapshot {
    /// Assemble the block layout from monolithic columns — the tail of the
    /// one-shot builders ([`freeze`](Self::freeze),
    /// [`with_edges`](Self::with_edges)), which construct flat arrays and
    /// chop them into blocks here.
    fn from_monolithic(
        offsets: Vec<u32>,
        sorted: Vec<u32>,
        sorted_times: Vec<Timestamp>,
        chrono: Vec<u32>,
        chrono_times: Vec<Timestamp>,
        num_edges: usize,
    ) -> Self {
        let n = offsets.len() - 1;
        let mut blocks = Vec::with_capacity(n.div_ceil(BLOCK_ROWS));
        for b0 in (0..n).step_by(BLOCK_ROWS) {
            let rows = BLOCK_ROWS.min(n - b0);
            let base = offsets[b0];
            let (lo, hi) = (base as usize, offsets[b0 + rows] as usize);
            blocks.push(RowBlock {
                offsets: offsets[b0..=b0 + rows].iter().map(|&o| o - base).collect(),
                sorted: sorted[lo..hi].to_vec(),
                sorted_times: sorted_times[lo..hi].to_vec(),
                chrono: chrono[lo..hi].to_vec(),
                chrono_times: chrono_times[lo..hi].to_vec(),
            });
        }
        CsrSnapshot {
            num_nodes: n,
            num_edges,
            blocks,
        }
    }

    /// Freeze `g` into CSR form. O(V + E log E) for the per-row id sort.
    pub fn freeze(g: &TemporalGraph) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let half_edges = 2 * g.num_edges();
        let mut sorted = Vec::with_capacity(half_edges);
        let mut sorted_times = Vec::with_capacity(half_edges);
        let mut chrono = Vec::with_capacity(half_edges);
        let mut chrono_times = Vec::with_capacity(half_edges);
        let mut row: Vec<(u32, Timestamp)> = Vec::new();

        offsets.push(0);
        for v in g.nodes() {
            let adj = g.neighbors(v);
            for nb in adj {
                chrono.push(nb.node.0);
                chrono_times.push(nb.time);
            }
            row.clear();
            row.extend(adj.iter().map(|nb| (nb.node.0, nb.time)));
            row.sort_unstable_by_key(|&(id, _)| id);
            for &(id, time) in &row {
                sorted.push(id);
                sorted_times.push(time);
            }
            offsets.push(sorted.len() as u32);
        }

        Self::from_monolithic(
            offsets,
            sorted,
            sorted_times,
            chrono,
            chrono_times,
            g.num_edges(),
        )
    }

    /// Edge-free snapshot over `num_nodes` nodes — the seed of a rotating
    /// snapshot chain (see [`Self::merge_delta`]).
    pub fn empty(num_nodes: usize) -> Self {
        let mut blocks = Vec::with_capacity(num_nodes.div_ceil(BLOCK_ROWS));
        for b0 in (0..num_nodes).step_by(BLOCK_ROWS) {
            blocks.push(RowBlock::empty(BLOCK_ROWS.min(num_nodes - b0)));
        }
        CsrSnapshot {
            num_nodes,
            num_edges: 0,
            blocks,
        }
    }

    /// Fold a buffered edge delta into a **new** snapshot — the original
    /// monolithic rebuild, kept as the independently-coded oracle for
    /// [`Self::merge_delta`] (the proptest suite holds the two
    /// element-identical across arbitrary rotation schedules). O(V + E +
    /// D log D) for D additions — every row is copied, grown rows
    /// re-merge.
    ///
    /// Caller contract (debug-asserted): endpoints are in range and
    /// distinct, no addition duplicates an existing edge or another
    /// addition, and each addition's time is ≥ the last chronological time
    /// of both endpoint rows (the stream is time-ordered).
    pub fn with_edges(&self, additions: &[(NodeId, NodeId, Timestamp)]) -> Self {
        if additions.is_empty() {
            return self.clone();
        }
        let n = self.num_nodes();
        let mut add_deg = vec![0u32; n];
        for &(a, b, _) in additions {
            debug_assert!(a.index() < n && b.index() < n && a != b);
            debug_assert!(!self.has_edge(a, b), "addition duplicates snapshot edge");
            add_deg[a.index()] += 1;
            add_deg[b.index()] += 1;
        }

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for v in 0..n {
            let old = self.degree(NodeId(v as u32)) as u32;
            offsets.push(offsets[v] + old + add_deg[v]);
        }
        let total = offsets[n] as usize;

        // Chronological rows: old row copied, additions appended in stream
        // order via per-node write cursors.
        let mut chrono = vec![0u32; total];
        let mut chrono_times = vec![Timestamp::ZERO; total];
        let mut cursor = vec![0u32; n];
        for v in 0..n {
            let node = NodeId(v as u32);
            let dst = offsets[v] as usize;
            let len = self.degree(node);
            chrono[dst..dst + len].copy_from_slice(self.neighbors_chrono(node));
            chrono_times[dst..dst + len].copy_from_slice(self.times_chrono(node));
            cursor[v] = (dst + len) as u32;
        }
        for &(a, b, t) in additions {
            for (x, y) in [(a, b), (b, a)] {
                let c = cursor[x.index()] as usize;
                debug_assert!(
                    c == offsets[x.index()] as usize || chrono_times[c - 1] <= t,
                    "additions must extend each row in time order"
                );
                chrono[c] = y.0;
                chrono_times[c] = t;
                cursor[x.index()] += 1;
            }
        }

        // Sorted rows: untouched rows copy straight over; grown rows merge
        // the old sorted row with the (sorted) appended tail.
        let mut sorted = vec![0u32; total];
        let mut sorted_times = vec![Timestamp::ZERO; total];
        let mut tail: Vec<(u32, Timestamp)> = Vec::new();
        for v in 0..n {
            let node = NodeId(v as u32);
            let dst = offsets[v] as usize;
            let old_ids = self.neighbors_sorted(node);
            let old_times = self.times_sorted(node);
            if add_deg[v] == 0 {
                sorted[dst..dst + old_ids.len()].copy_from_slice(old_ids);
                sorted_times[dst..dst + old_times.len()].copy_from_slice(old_times);
                continue;
            }
            let tail_start = dst + old_ids.len();
            let row_end = offsets[v + 1] as usize;
            tail.clear();
            tail.extend(
                chrono[tail_start..row_end]
                    .iter()
                    .copied()
                    .zip(chrono_times[tail_start..row_end].iter().copied()),
            );
            tail.sort_unstable_by_key(|&(id, _)| id);
            debug_assert!(
                tail.windows(2).all(|w| w[0].0 != w[1].0),
                "additions must not repeat an edge"
            );
            let (mut i, mut j, mut w) = (0, 0, dst);
            while i < old_ids.len() || j < tail.len() {
                let take_old = j >= tail.len() || (i < old_ids.len() && old_ids[i] < tail[j].0);
                if take_old {
                    sorted[w] = old_ids[i];
                    sorted_times[w] = old_times[i];
                    i += 1;
                } else {
                    sorted[w] = tail[j].0;
                    sorted_times[w] = tail[j].1;
                    j += 1;
                }
                w += 1;
            }
        }

        Self::from_monolithic(
            offsets,
            sorted,
            sorted_times,
            chrono,
            chrono_times,
            self.num_edges + additions.len(),
        )
    }

    /// Fold a buffered edge delta into the snapshot **in place** — kept
    /// for the benchmark's `merge_delta_s` probe until ROADMAP item 1
    /// retargets it (see the module docs). Only blocks containing a grown
    /// row are re-materialized; every other block's storage is reused
    /// untouched, so a rotation costs O(delta + grown-block bytes) instead
    /// of the full O(V + E) copy [`Self::with_edges`] pays. Its transient
    /// allocation is not a second CSR: the delta's half-edges grouped by
    /// block (2 × `additions.len()` entries across the fold tasks) plus
    /// the block each task is rebuilding.
    ///
    /// The fold is a set union: an addition whose pair is already in the
    /// snapshot, or repeats an earlier addition, is dropped, so the first
    /// occurrence is the edge and keeps its time, and [`Self::num_edges`]
    /// counts distinct edges. Otherwise the caller contract is
    /// [`Self::with_edges`]' (debug-asserted): in-range distinct
    /// endpoints, and additions extend each endpoint row in time order.
    /// Element-for-element, the result is identical to
    /// `*self = self.with_edges(first_occurrences_not_in_self)`.
    pub fn merge_delta(&mut self, additions: &[(NodeId, NodeId, Timestamp)]) {
        self.merge_delta_with(additions, &mut MergeScratch::default());
    }

    /// [`Self::merge_delta`] with caller-owned transient buffers, run as
    /// up to [`par::num_threads`] tasks. The blocks are split into
    /// contiguous ranges, one per task; each task walks `additions` in
    /// stream order, keeps the half-edges whose row lies in its range and
    /// rebuilds its own blocks in place, so the result is the serial
    /// fold's at every thread count. A caller that rotates repeatedly
    /// reuses one [`MergeScratch`] so each fold runs in already-faulted
    /// pages. Kept for the benchmark probe only (see the module docs).
    pub fn merge_delta_with(
        &mut self,
        additions: &[(NodeId, NodeId, Timestamp)],
        ms: &mut MergeScratch,
    ) {
        if additions.is_empty() {
            return;
        }
        let n = self.num_nodes;
        debug_assert!(additions
            .iter()
            .all(|&(a, b, _)| a.index() < n && b.index() < n && a != b));
        let nblocks = self.blocks.len();
        let per = nblocks.div_ceil(par::num_threads()).max(1);
        let tasks = nblocks.div_ceil(per);
        if ms.tasks.len() < tasks {
            ms.tasks.resize_with(tasks, FoldScratch::default);
        }
        let ranges: Vec<_> = self
            .blocks
            .chunks_mut(per)
            .zip(&mut ms.tasks)
            .enumerate()
            .collect();
        let fold = |(r, (blocks, task)): (usize, (&mut [RowBlock], &mut FoldScratch))| {
            task.fold(r * per, blocks, additions)
        };
        let kept: usize = par::map_owned(ranges, fold).into_iter().sum();
        // A pair is dropped from both of its rows or from neither.
        self.num_edges += kept / 2;
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Block and block-local row range of node `n` — every row accessor
    /// funnels through here.
    #[inline]
    fn locate(&self, n: NodeId) -> (&RowBlock, std::ops::Range<usize>) {
        debug_assert!(n.index() < self.num_nodes);
        let blk = &self.blocks[n.index() / BLOCK_ROWS];
        (blk, blk.row(n.index() % BLOCK_ROWS))
    }

    /// Degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        let (_, r) = self.locate(n);
        r.end - r.start
    }

    /// Neighbor ids of `n`, ascending by id.
    #[inline]
    pub fn neighbors_sorted(&self, n: NodeId) -> &[u32] {
        let (b, r) = self.locate(n);
        &b.sorted[r]
    }

    /// Creation times aligned with [`neighbors_sorted`](Self::neighbors_sorted).
    #[inline]
    pub fn times_sorted(&self, n: NodeId) -> &[Timestamp] {
        let (b, r) = self.locate(n);
        &b.sorted_times[r]
    }

    /// Neighbor ids of `n` in edge-creation order (the temporal graph's
    /// adjacency order).
    #[inline]
    pub fn neighbors_chrono(&self, n: NodeId) -> &[u32] {
        let (b, r) = self.locate(n);
        &b.chrono[r]
    }

    /// Creation times aligned with [`neighbors_chrono`](Self::neighbors_chrono).
    #[inline]
    pub fn times_chrono(&self, n: NodeId) -> &[Timestamp] {
        let (b, r) = self.locate(n);
        &b.chrono_times[r]
    }

    /// The first `k` friends of `n` in chronological order.
    #[inline]
    pub fn first_k_friends(&self, n: NodeId, k: usize) -> &[u32] {
        let row = self.neighbors_chrono(n);
        &row[..row.len().min(k)]
    }

    /// Membership test for the undirected edge `a — b`: binary search in
    /// the lower-degree endpoint's sorted row, O(log min(deg a, deg b)).
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.num_nodes() || b.index() >= self.num_nodes() {
            return false;
        }
        let (probe_row, target) = if self.degree(a) <= self.degree(b) {
            (self.neighbors_sorted(a), b.0)
        } else {
            (self.neighbors_sorted(b), a.0)
        };
        probe_row.binary_search(&target).is_ok()
    }

    /// Count of mutual friends of `a` and `b` by merge intersection of the
    /// two sorted rows, O(deg a + deg b) with no hashing.
    pub fn mutual_friends(&self, a: NodeId, b: NodeId) -> usize {
        let (mut i, ra) = (0, self.neighbors_sorted(a));
        let (mut j, rb) = (0, self.neighbors_sorted(b));
        let mut common = 0;
        while i < ra.len() && j < rb.len() {
            match ra[i].cmp(&rb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // A shared endpoint is not a mutual *friend*.
                    if ra[i] != a.0 && ra[i] != b.0 {
                        common += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        common
    }

    /// Count edges among the marked friend set: every friend's row is
    /// scanned once and each friend-to-friend edge is seen from both ends.
    ///
    /// Public so a streaming consumer can combine it with a delta probe
    /// over edges not yet folded into the snapshot: mark the set with
    /// [`NeighborScratch::begin`]/[`NeighborScratch::mark`], call this, then
    /// count the distinct delta edges whose both endpoints are
    /// [`NeighborScratch::is_marked`] and that the snapshot does not hold.
    /// Requires `friends` to be duplicate-free, or links are over-counted.
    pub fn links_among_marked(&self, friends: &[u32], scratch: &NeighborScratch) -> usize {
        let mut twice_links = 0usize;
        for &u in friends {
            twice_links += self
                .neighbors_sorted(NodeId(u))
                .iter()
                .filter(|&&v| scratch.is_marked(v))
                .count();
        }
        twice_links / 2
    }

    /// Clustering coefficient over an explicit friend set.
    fn clustering_of(&self, friends: &[u32], scratch: &mut NeighborScratch) -> f64 {
        let k = friends.len();
        if k < 2 {
            return 0.0;
        }
        scratch.begin(self.num_nodes());
        for &u in friends {
            scratch.mark(u);
        }
        let links = self.links_among_marked(friends, scratch);
        links as f64 / (k * (k - 1) / 2) as f64
    }

    /// The paper's Fig. 4 metric: clustering over the first `k` friends of
    /// `n` in chronological order. Bit-identical to
    /// [`clustering::first_k_clustering`].
    pub fn first_k_clustering(&self, n: NodeId, k: usize, scratch: &mut NeighborScratch) -> f64 {
        self.clustering_of(self.first_k_friends(n, k), scratch)
    }
}

impl FoldScratch {
    /// Fold `additions` into the contiguous block range `blocks`, whose
    /// first block is `first`: keep the half-edges whose row lies in the
    /// range, in stream order, counting-sort them by block and then by
    /// row (both sorts stable, so a row's additions stay in stream order,
    /// which is what the chronological column appends in), and rebuild
    /// each touched block in place. O(delta + touched blocks). Returns
    /// the number of additions kept.
    fn fold(
        &mut self,
        first: usize,
        blocks: &mut [RowBlock],
        additions: &[(NodeId, NodeId, Timestamp)],
    ) -> usize {
        let (lo, hi) = (first * BLOCK_ROWS, (first + blocks.len()) * BLOCK_ROWS);
        let mine = || {
            additions
                .iter()
                .flat_map(|&(a, b, t)| [(a.0, b.0, t), (b.0, a.0, t)])
                .filter(|&(v, _, _)| (lo..hi).contains(&(v as usize)))
        };
        let local = |v: u32| (v as usize - lo) / BLOCK_ROWS;
        self.starts.clear();
        self.starts.resize(blocks.len() + 1, 0);
        for (v, _, _) in mine() {
            self.starts[local(v) + 1] += 1;
        }
        for b in 0..blocks.len() {
            self.starts[b + 1] += self.starts[b];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..blocks.len()]);
        self.grouped.clear();
        self.grouped
            .resize(self.starts[blocks.len()] as usize, (0, 0, Timestamp::ZERO));
        for half in mine() {
            let c = &mut self.cursor[local(half.0)];
            self.grouped[*c as usize] = half;
            *c += 1;
        }

        let mut kept = 0usize;
        for (b, blk) in blocks.iter_mut().enumerate() {
            let adds = &self.grouped[self.starts[b] as usize..self.starts[b + 1] as usize];
            if adds.is_empty() {
                continue;
            }
            let mut row_starts = [0u32; BLOCK_ROWS + 1];
            for &(v, _, _) in adds {
                row_starts[v as usize % BLOCK_ROWS + 1] += 1;
            }
            for l in 0..BLOCK_ROWS {
                row_starts[l + 1] += row_starts[l];
            }
            self.block.clear();
            self.block.resize(adds.len(), (0, 0, Timestamp::ZERO));
            for &half in adds {
                let l = half.0 as usize % BLOCK_ROWS;
                self.block[row_starts[l] as usize] = half;
                row_starts[l] += 1;
            }
            let (rebuilt, k) =
                rebuild_block(blk, (first + b) * BLOCK_ROWS, &self.block, &mut self.tail);
            *blk = rebuilt;
            kept += k;
        }
        kept
    }
}

/// Re-materialize one block, merging `adds` (half-edges sorted by row,
/// stream-ordered within a row, all rows inside this block) into its
/// columns as a set union: an addition whose neighbor the row already
/// holds, or an earlier addition already brought, is dropped from both
/// columns. `b0` is the block's first row; `tail` is caller-owned row
/// scratch (see [`FoldScratch`]), cleared per row here. Returns the
/// new block and the number of additions kept.
fn rebuild_block(
    old: &RowBlock,
    b0: usize,
    adds: &[(u32, u32, Timestamp)],
    tail: &mut Vec<(u32, u32)>,
) -> (RowBlock, usize) {
    let rows = old.rows();
    let new_len = old.len() + adds.len();
    let mut nb = RowBlock {
        offsets: Vec::with_capacity(rows + 1),
        sorted: Vec::with_capacity(new_len),
        sorted_times: Vec::with_capacity(new_len),
        chrono: Vec::with_capacity(new_len),
        chrono_times: Vec::with_capacity(new_len),
    };
    nb.offsets.push(0);
    let (mut a, mut kept) = (0usize, 0usize);
    for l in 0..rows {
        let v = (b0 + l) as u32;
        let r = old.row(l);
        let row_start = nb.chrono.len();
        nb.chrono.extend_from_slice(&old.chrono[r.clone()]);
        nb.chrono_times
            .extend_from_slice(&old.chrono_times[r.clone()]);
        let a0 = a;
        while a < adds.len() && adds[a].0 == v {
            a += 1;
        }
        let row_adds = &adds[a0..a];
        if row_adds.is_empty() {
            // Row unchanged: copy its sorted view straight over.
            nb.sorted.extend_from_slice(&old.sorted[r.clone()]);
            nb.sorted_times.extend_from_slice(&old.sorted_times[r]);
        } else {
            // Sorted by (neighbor, position): each neighbor's first
            // occurrence leads its run.
            tail.clear();
            tail.extend(
                row_adds
                    .iter()
                    .enumerate()
                    .map(|(k, &(_, nbr, _))| (nbr, k as u32)),
            );
            tail.sort_unstable();
            // Merge with the old row; the kept additions are compacted to
            // the front of `tail` (`w` of them).
            let (old_ids, old_times) = (&old.sorted[r.clone()], &old.sorted_times[r]);
            let (mut i, mut j, mut w) = (0, 0, 0);
            while i < old_ids.len() || j < tail.len() {
                if j >= tail.len() || (i < old_ids.len() && old_ids[i] < tail[j].0) {
                    nb.sorted.push(old_ids[i]);
                    nb.sorted_times.push(old_times[i]);
                    i += 1;
                    continue;
                }
                let (nbr, k) = tail[j];
                j += 1;
                let known = i < old_ids.len() && old_ids[i] == nbr;
                if known || (w > 0 && tail[w - 1].0 == nbr) {
                    continue;
                }
                nb.sorted.push(nbr);
                nb.sorted_times.push(row_adds[k as usize].2);
                tail[w] = (nbr, k);
                w += 1;
            }
            // The chronological column takes the kept additions in stream
            // order: all of them, or the survivors re-sorted by position.
            if w < row_adds.len() {
                tail.truncate(w);
                tail.sort_unstable_by_key(|&(_, k)| k);
            }
            let mut push_chrono = |nbr: u32, t: Timestamp| {
                debug_assert!(
                    nb.chrono_times.len() == row_start
                        || nb.chrono_times[nb.chrono_times.len() - 1] <= t,
                    "additions must extend each row in time order"
                );
                nb.chrono.push(nbr);
                nb.chrono_times.push(t);
            };
            if w == row_adds.len() {
                row_adds.iter().for_each(|&(_, nbr, t)| push_chrono(nbr, t));
            } else {
                tail.iter()
                    .for_each(|&(nbr, k)| push_chrono(nbr, row_adds[k as usize].2));
            }
            kept += w;
        }
        nb.offsets.push(nb.sorted.len() as u32);
    }
    debug_assert!(a == adds.len(), "every addition lands in its block");
    (nb, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering;
    use crate::graph::Timestamp;

    fn t(h: u64) -> Timestamp {
        Timestamp::from_hours(h)
    }

    /// Node 0 with friends 1, 2, 3 (in that time order); 1-2 linked.
    fn wedge_graph() -> TemporalGraph {
        let mut g = TemporalGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), t(1)).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t(2)).unwrap();
        g.add_edge(NodeId(0), NodeId(3), t(3)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t(4)).unwrap();
        g
    }

    #[test]
    fn freeze_preserves_shape() {
        let g = wedge_graph();
        let s = CsrSnapshot::freeze(&g);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_edges(), 4);
        for n in g.nodes() {
            assert_eq!(s.degree(n), g.degree(n));
        }
    }

    #[test]
    fn sorted_and_chrono_views_carry_the_same_timed_edges() {
        let g = wedge_graph();
        let s = CsrSnapshot::freeze(&g);
        for n in g.nodes() {
            let mut sorted_view: Vec<(u32, Timestamp)> = s
                .neighbors_sorted(n)
                .iter()
                .copied()
                .zip(s.times_sorted(n).iter().copied())
                .collect();
            let mut chrono_view: Vec<(u32, Timestamp)> = s
                .neighbors_chrono(n)
                .iter()
                .copied()
                .zip(s.times_chrono(n).iter().copied())
                .collect();
            sorted_view.sort_unstable();
            chrono_view.sort_unstable();
            assert_eq!(sorted_view, chrono_view, "node {n:?}");
        }
    }

    #[test]
    fn sorted_rows_are_sorted_and_chrono_rows_match_adjacency() {
        let g = wedge_graph();
        let s = CsrSnapshot::freeze(&g);
        for n in g.nodes() {
            let row = s.neighbors_sorted(n);
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            let chrono: Vec<u32> = s.neighbors_chrono(n).to_vec();
            let adj: Vec<u32> = g.neighbors(n).iter().map(|nb| nb.node.0).collect();
            assert_eq!(chrono, adj);
            let times: Vec<Timestamp> = g.neighbors(n).iter().map(|nb| nb.time).collect();
            assert_eq!(s.times_chrono(n), &times[..]);
        }
    }

    #[test]
    fn has_edge_matches_graph() {
        let g = wedge_graph();
        let s = CsrSnapshot::freeze(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(s.has_edge(a, b), g.has_edge(a, b), "{a:?}-{b:?}");
            }
        }
        assert!(!s.has_edge(NodeId(0), NodeId(99)));
    }

    #[test]
    fn mutual_friends_matches_graph() {
        let mut g = TemporalGraph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1), t(0)).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t(2)).unwrap();
        g.add_edge(NodeId(0), NodeId(3), t(3)).unwrap();
        g.add_edge(NodeId(1), NodeId(3), t(4)).unwrap();
        let s = CsrSnapshot::freeze(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                if a != b {
                    let count = g
                        .neighbors(a)
                        .iter()
                        .filter(|x| g.neighbors(b).iter().any(|y| y.node == x.node))
                        .count();
                    assert_eq!(s.mutual_friends(a, b), count, "{a:?},{b:?}");
                    assert_eq!(g.has_mutual_friend(a, b), count >= 1, "{a:?},{b:?}");
                }
            }
        }
    }

    #[test]
    fn clustering_kernels_match_reference() {
        let g = wedge_graph();
        let s = CsrSnapshot::freeze(&g);
        let mut scratch = NeighborScratch::new(s.num_nodes());
        // k ≥ 3 takes every node's whole neighbourhood.
        for n in g.nodes() {
            for k in 0..6 {
                assert_eq!(
                    s.first_k_clustering(n, k, &mut scratch),
                    clustering::first_k_clustering(&g, n, k),
                    "first_{k} at {n:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_epoch_wraparound_is_safe() {
        let g = wedge_graph();
        let s = CsrSnapshot::freeze(&g);
        let mut scratch = NeighborScratch::new(s.num_nodes());
        scratch.epoch = u32::MAX - 1;
        let expected = clustering::first_k_clustering(&g, NodeId(0), 50);
        for _ in 0..4 {
            assert_eq!(s.first_k_clustering(NodeId(0), 50, &mut scratch), expected);
        }
    }

    /// Rotating an empty snapshot through edge deltas must reproduce the
    /// one-shot freeze of the full graph, view for view.
    #[test]
    fn with_edges_chain_matches_freeze() {
        let edges: Vec<(NodeId, NodeId, Timestamp)> = vec![
            (NodeId(0), NodeId(1), t(1)),
            (NodeId(0), NodeId(2), t(2)),
            (NodeId(3), NodeId(4), t(2)),
            (NodeId(1), NodeId(2), t(3)),
            (NodeId(0), NodeId(3), t(4)),
            (NodeId(2), NodeId(4), t(5)),
            (NodeId(1), NodeId(4), t(6)),
        ];
        let mut g = TemporalGraph::with_nodes(5);
        for &(a, b, at) in &edges {
            g.add_edge(a, b, at).unwrap();
        }
        let full = CsrSnapshot::freeze(&g);

        // Rotate in uneven batches, including an empty one.
        let mut s = CsrSnapshot::empty(5);
        for batch in [&edges[0..3], &edges[3..3], &edges[3..6], &edges[6..7]] {
            s = s.with_edges(batch);
        }
        assert_eq!(s.num_nodes(), full.num_nodes());
        assert_eq!(s.num_edges(), full.num_edges());
        for n in s.nodes() {
            assert_eq!(s.neighbors_sorted(n), full.neighbors_sorted(n), "{n:?}");
            assert_eq!(s.times_sorted(n), full.times_sorted(n), "{n:?}");
            assert_eq!(s.neighbors_chrono(n), full.neighbors_chrono(n), "{n:?}");
            assert_eq!(s.times_chrono(n), full.times_chrono(n), "{n:?}");
        }
        let mut scratch = NeighborScratch::new(5);
        for n in s.nodes() {
            assert_eq!(
                s.first_k_clustering(n, 50, &mut scratch),
                full.first_k_clustering(n, 50, &mut scratch)
            );
        }
    }

    /// The in-place incremental rotation must agree with the monolithic
    /// oracle on every column, including across a block boundary (node
    /// ids straddling `BLOCK_ROWS`).
    #[test]
    fn merge_delta_chain_matches_with_edges() {
        let far = (BLOCK_ROWS + 3) as u32; // second block
        let edges: Vec<(NodeId, NodeId, Timestamp)> = vec![
            (NodeId(0), NodeId(1), t(1)),
            (NodeId(0), NodeId(far), t(2)),
            (NodeId(1), NodeId(2), t(3)),
            (NodeId(far), NodeId(far + 1), t(4)),
            (NodeId(1), NodeId(far), t(5)),
            (NodeId(2), NodeId(far + 1), t(6)),
        ];
        let n = BLOCK_ROWS + 8;
        let oracle = CsrSnapshot::empty(n).with_edges(&edges);

        let mut s = CsrSnapshot::empty(n);
        for batch in [&edges[0..2], &edges[2..2], &edges[2..5], &edges[5..6]] {
            s.merge_delta(batch);
        }
        assert_eq!(s.num_edges(), oracle.num_edges());
        for v in s.nodes() {
            assert_eq!(s.neighbors_sorted(v), oracle.neighbors_sorted(v), "{v:?}");
            assert_eq!(s.times_sorted(v), oracle.times_sorted(v), "{v:?}");
            assert_eq!(s.neighbors_chrono(v), oracle.neighbors_chrono(v), "{v:?}");
            assert_eq!(s.times_chrono(v), oracle.times_chrono(v), "{v:?}");
        }
    }

    #[test]
    fn links_among_marked_is_usable_with_a_delta_probe() {
        // Snapshot holds 0-1, 0-2; the delta holds 1-2 (the closing link).
        let mut g = TemporalGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), t(1)).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t(2)).unwrap();
        let s = CsrSnapshot::freeze(&g);
        let delta = [(NodeId(1), NodeId(2))];
        let friends = [1u32, 2u32];
        let mut scratch = NeighborScratch::new(3);
        scratch.begin(s.num_nodes());
        for &f in &friends {
            scratch.mark(f);
        }
        let base = s.links_among_marked(&friends, &scratch);
        assert_eq!(base, 0);
        // Each delta edge is seen from both marked endpoints, so halve.
        let twice: usize = delta
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(|&(a, b)| scratch.is_marked(a.0) && scratch.is_marked(b.0))
            .count();
        assert_eq!(base + twice / 2, 1);
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let s = CsrSnapshot::freeze(&TemporalGraph::new());
        assert_eq!(s.num_nodes(), 0);
        let s = CsrSnapshot::freeze(&TemporalGraph::with_nodes(3));
        assert_eq!(s.num_edges(), 0);
        let mut scratch = NeighborScratch::new(3);
        assert_eq!(s.first_k_clustering(NodeId(0), 50, &mut scratch), 0.0);
        assert!(!s.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(s.mutual_friends(NodeId(0), NodeId(1)), 0);
    }
}
