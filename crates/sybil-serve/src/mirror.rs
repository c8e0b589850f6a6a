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
//! `links-at-epoch-start + 2 × #{new edges with seq ≤ s}` (two links per
//! edge). Chains run newest-first, so the links a check must ignore are a
//! prefix of each chain.
//!
//! # Compact layout
//!
//! Every structure here is flat and u32/u64-packed — no per-node `Vec`
//! allocations and no hash tables, so the mirror's footprint at millions
//! of accounts is a handful of arenas:
//!
//! * the [`CsrSnapshot`] itself doubles as the edge-membership index: its
//!   per-row sorted runs make a pair probe a row-local binary search
//!   (over a node's *degree*, a couple of cache lines) instead of the
//!   seed's global `HashSet<u64>` of packed keys;
//! * [`FlatDelta`] — edges accepted since the last snapshot rotation, as
//!   a generation-stamped head array plus one link arena (8 B/half-edge,
//!   O(1) clear by generation bump — no O(V) sweep at rotation), probed
//!   by short chain walks;
//! * [`EpochIndex`] — the running epoch's share of that arena: where it
//!   starts and the creating seq of each edge in it, one `u64` per new
//!   edge.
//!
//! Rotation folds the delta into the [`CsrSnapshot`] via
//! [`CsrSnapshot::merge_delta`], which re-materializes only the column
//! blocks containing grown rows (see `osn_graph::snapshot`). Because the
//! snapshot + delta *are* the edge set, rotation adds no second copy of
//! the edges and membership never touches a structure proportional to the
//! total edge count.
//!
//! Keeping this state out of the shards is what makes the engine scale:
//! a shard's per-event cost for accounts it does not own is a counter and
//! a branch, not a hash-table write, so adding shards divides the check
//! work without multiplying the edge bookkeeping.

use osn_graph::{CsrSnapshot, MergeScratch, NeighborScratch, NodeId, Timestamp};
use osn_sim::stream::{EventDetail, StreamEvent, StreamEventKind};
use sybil_core::ids::saturating_u32;

/// Default rotation floor: rotate the snapshot once the unfolded delta
/// reaches this many edges or the folded edge count, whichever is larger
/// — doubling keeps total rebuild traffic O(E) amortized (~2× the final
/// CSR). Overridable per engine run (tests force tiny floors to exercise
/// many rotations).
pub(crate) const ROTATE_FLOOR: usize = 1024;

/// Sentinel for "no link" in [`FlatDelta`] chains. As a watermark it
/// bounds nothing: every real link index is below it.
const NONE: u32 = u32::MAX;

/// Edges accepted since the last snapshot rotation, as per-node linked
/// chains threaded through one flat arena.
///
/// `heads[v]` is `(generation, first-link)` — valid only when the
/// generation matches the current one, so clearing after a rotation is a
/// generation bump, not an O(V) sweep. Links are appended in stream order
/// and each chain runs newest-first, so a probe bounded by a watermark
/// (see the module docs) skips a chain prefix and reads the rest.
pub(crate) struct FlatDelta {
    gen: u32,
    /// Per-node `(generation, first link index)`.
    heads: Vec<(u32, u32)>,
    /// Link arena: `(next link index, neighbor id)`.
    links: Vec<(u32, u32)>,
    /// The same edges in stream order, staged for the next fold.
    edges: Vec<(NodeId, NodeId, Timestamp)>,
}

impl FlatDelta {
    fn new(num_accounts: usize) -> Self {
        FlatDelta {
            gen: 1,
            heads: vec![(0, NONE); num_accounts],
            links: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Record an accepted edge (both directions).
    fn push(&mut self, u: NodeId, v: NodeId, t: Timestamp) {
        for (a, b) in [(u, v), (v, u)] {
            let head = &mut self.heads[a.index()];
            let first = if head.0 == self.gen { head.1 } else { NONE };
            // Saturates at the `NONE` sentinel; an arena that long (2^31
            // staged edges, 48 GiB of `edges` alone) cannot be allocated.
            *head = (self.gen, saturating_u32(self.links.len()));
            self.links.push((first, b.0));
        }
        self.edges.push((u, v, t));
    }

    /// `a`'s delta neighbors whose link index is below `watermark`,
    /// newest first. The delta is bounded by the rotation threshold, so
    /// chains stay short on average.
    #[inline]
    fn neighbors_below(&self, a: u32, watermark: u32) -> impl Iterator<Item = u32> + '_ {
        let head = self.heads[a as usize];
        let mut cur = if head.0 == self.gen { head.1 } else { NONE };
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

    /// Number of staged (undirected) edges.
    fn len(&self) -> usize {
        self.edges.len()
    }

    /// Drop all staged edges in O(1) by bumping the generation.
    fn clear(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stale heads could collide with the new generation.
            self.heads.fill((0, NONE));
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
    pub snapshot: CsrSnapshot,
    /// Edges accepted since the last rotation.
    pub delta: FlatDelta,
    /// Rotation floor in force for this run (see [`ROTATE_FLOOR`]).
    rotate_floor: usize,
    /// Reused rotation buffers (the fold's working set is delta-sized;
    /// re-allocating it every rotation pays first-touch page faults on
    /// hundreds of megabytes at the million-account sizes).
    merge_scratch: MergeScratch,
    /// Recycled [`EpochIndex`] storage, taken back in [`Self::absorb`].
    spare_seqs: Vec<u64>,
}

/// The running epoch's share of the delta's link arena: edge `k` created
/// this epoch owns links `base + 2k` and `base + 2k + 1`.
pub(crate) struct EpochIndex {
    /// Link-arena length when the epoch began.
    base: u32,
    /// Creating stream position of each edge the epoch added, ascending.
    seqs: Vec<u64>,
}

impl EpochIndex {
    /// Link-arena watermark for a check at stream position `seq`: links
    /// at or above it belong to edges created after `seq`.
    #[inline]
    pub(crate) fn watermark(&self, seq: u64) -> u32 {
        let visible = self.seqs.partition_point(|&s| s <= seq);
        self.base
            .saturating_add(saturating_u32(visible.saturating_mul(2)))
    }
}

impl GraphMirror {
    /// Mirror over `num_accounts` accounts. `rotate_floor` of 0 selects
    /// the default [`ROTATE_FLOOR`].
    pub fn new(num_accounts: usize, rotate_floor: usize) -> Self {
        GraphMirror {
            snapshot: CsrSnapshot::empty(num_accounts),
            delta: FlatDelta::new(num_accounts),
            rotate_floor: if rotate_floor == 0 {
                ROTATE_FLOOR
            } else {
                rotate_floor
            },
            merge_scratch: MergeScratch::default(),
            spare_seqs: Vec::new(),
        }
    }

    /// One stream-order pass over an epoch's events: every accepted
    /// decision whose pair is not yet linked enters the delta at once,
    /// and its seq is noted. Earlier accepts of the same epoch are
    /// already in the chain, so the one probe covers folded, staged and
    /// same-epoch repeats — keep-first holds by construction. `details`
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
            if !matches!(ev.kind, StreamEventKind::Decided(_)) || !d.accepted {
                continue;
            }
            let (lo, hi) = (d.from.min(d.to), d.from.max(d.to));
            let known = self
                .snapshot
                .neighbors_sorted(NodeId(lo))
                .binary_search(&hi)
                .is_ok()
                || self.delta.neighbors_below(lo, NONE).any(|v| v == hi);
            if !known {
                self.delta.push(NodeId(d.from), NodeId(d.to), ev.at);
                seqs.push(ev.seq);
            }
        }
        EpochIndex { base, seqs }
    }

    /// Whether `a`–`b` is linked below `watermark` (pair-probe path): a
    /// row-local binary search of the snapshot plus a short delta chain
    /// walk.
    #[inline]
    pub(crate) fn pair_linked(&self, a: NodeId, b: NodeId, watermark: u32) -> bool {
        self.snapshot.has_edge(a, b) || self.delta.neighbors_below(a.0, watermark).any(|v| v == b.0)
    }

    /// Count `u`'s delta neighbors below `watermark` that are in the
    /// marked set (the probe companion to the snapshot's marked-set
    /// kernel).
    #[inline]
    pub(crate) fn delta_marked_count(
        &self,
        u: u32,
        watermark: u32,
        scratch: &NeighborScratch,
    ) -> usize {
        self.delta
            .neighbors_below(u, watermark)
            .filter(|&v| scratch.is_marked(v))
            .count()
    }

    /// Folded (snapshot) edges as undirected `(u, v, t)` triples with
    /// `u < v`, sorted by `(t, u, v)`. That order makes a single
    /// [`CsrSnapshot::merge_delta_with`] re-fold legal (rows must extend
    /// in time order) and is a deterministic function of the edge *set*,
    /// so checkpoints of a restored mirror stay byte-stable.
    pub(crate) fn folded_edges(&self) -> Vec<(NodeId, NodeId, Timestamp)> {
        let mut edges = Vec::with_capacity(self.snapshot.num_edges());
        for u in 0..self.snapshot.num_nodes() as u32 {
            let n = NodeId(u);
            let nbrs = self.snapshot.neighbors_sorted(n);
            let times = self.snapshot.times_sorted(n);
            for (&v, &t) in nbrs.iter().zip(times) {
                if u < v {
                    edges.push((n, NodeId(v), t));
                }
            }
        }
        edges.sort_unstable_by_key(|&(u, v, t)| (t, u.0, v.0));
        edges
    }

    /// Edges staged in the delta (accepted since the last rotation), in
    /// stream order.
    pub(crate) fn staged_edges(&self) -> &[(NodeId, NodeId, Timestamp)] {
        &self.delta.edges
    }

    /// Rebuild a mirror from persisted [`Self::folded_edges`] /
    /// [`Self::staged_edges`] output: one merge re-folds the snapshot,
    /// then staged edges re-enter the delta. The fold/delta split is
    /// restored exactly as persisted, so rotation timing — and therefore
    /// every downstream probe — continues deterministically. `None` when
    /// an endpoint is not an account of this run (rows and chain heads
    /// are indexed by it).
    pub(crate) fn restore(
        num_accounts: usize,
        rotate_floor: usize,
        folded: &[(NodeId, NodeId, Timestamp)],
        staged: &[(NodeId, NodeId, Timestamp)],
    ) -> Option<Self> {
        let inside = |&(u, v, _): &(NodeId, NodeId, Timestamp)| {
            u.index() < num_accounts && v.index() < num_accounts
        };
        if !folded.iter().chain(staged).all(inside) {
            return None;
        }
        let mut m = GraphMirror::new(num_accounts, rotate_floor);
        if !folded.is_empty() {
            m.snapshot.merge_delta_with(folded, &mut m.merge_scratch);
        }
        for &(u, v, t) in staged {
            m.delta.push(u, v, t);
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
        // O(average degree) — they are walked on every pair probe.
        let threshold = self.rotate_floor.max(self.snapshot.num_edges());
        if self.delta.len() >= threshold {
            self.snapshot
                .merge_delta_with(&self.delta.edges, &mut self.merge_scratch);
            self.delta.clear();
        }
        self.spare_seqs = idx.seqs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn pair_probe_covers_snapshot_and_delta() {
        let mut m = GraphMirror::new(5, 1_000_000);
        assert!(!m.pair_linked(NodeId(0), NodeId(1), NONE));
        // Folded edge: rotate a one-edge delta into the snapshot.
        m.delta.push(NodeId(0), NodeId(1), Timestamp::ZERO);
        m.snapshot.merge_delta(&m.delta.edges);
        m.delta.clear();
        // Staged edge: still in the delta.
        m.delta.push(NodeId(2), NodeId(3), Timestamp::ZERO);
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
        let mut d = FlatDelta::new(5);
        let t = Timestamp::ZERO;
        d.push(NodeId(0), NodeId(1), t);
        d.push(NodeId(0), NodeId(2), t);
        d.push(NodeId(3), NodeId(4), t);
        let mut scratch = NeighborScratch::new(5);
        scratch.begin(5);
        scratch.mark(1);
        scratch.mark(2);
        scratch.mark(4);
        assert_eq!(marked_count(&d, 0, &scratch), 2);
        assert_eq!(marked_count(&d, 1, &scratch), 0); // 0 is unmarked
        assert_eq!(marked_count(&d, 3, &scratch), 1);
        assert_eq!(d.len(), 3);
        d.clear();
        assert_eq!(d.len(), 0);
        assert_eq!(marked_count(&d, 0, &scratch), 0);
        // Reuse after clear starts clean chains.
        d.push(NodeId(0), NodeId(4), t);
        assert_eq!(marked_count(&d, 0, &scratch), 1);
    }

    #[test]
    fn flat_delta_generation_wraparound_is_safe() {
        let mut d = FlatDelta::new(3);
        d.gen = u32::MAX;
        d.push(NodeId(0), NodeId(1), Timestamp::ZERO);
        let mut scratch = NeighborScratch::new(3);
        scratch.begin(3);
        scratch.mark(1);
        assert_eq!(marked_count(&d, 0, &scratch), 1);
        d.clear(); // wraps to 0 → resets heads, lands on gen 1
        assert_eq!(marked_count(&d, 0, &scratch), 0);
        d.push(NodeId(0), NodeId(1), Timestamp::ZERO);
        assert_eq!(marked_count(&d, 0, &scratch), 1);
    }

    proptest! {
        /// Watermark-bounded probes against a brute-force edge set: for
        /// arbitrary accept sequences — pairs repeated inside one epoch,
        /// across epochs, and across rotations at tiny floors — and every
        /// `seq` of every epoch, `pair_linked` and `delta_marked_count`
        /// see exactly the edges created at or before `seq`.
        #[test]
        fn watermark_probes_equal_brute_force(
            accepts in prop::collection::vec((0u32..6, 0u32..6, 0usize..4), 0..40),
            rotate_floor in 1usize..5,
        ) {
            const N: u32 = 6;
            let mut m = GraphMirror::new(N as usize, rotate_floor);
            let mut scratch = NeighborScratch::new(N as usize);
            // Every node marked: the marked count is the visible degree.
            let mark_all = |scratch: &mut NeighborScratch| {
                scratch.begin(N as usize);
                (0..N).for_each(|v| scratch.mark(v));
            };
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
                mark_all(&mut scratch);
                for (ev, d) in events.iter().zip(&details) {
                    if d.accepted {
                        known.insert((d.from.min(d.to), d.from.max(d.to)));
                    }
                    let watermark = idx.watermark(ev.seq);
                    for a in 0..N {
                        let mut degree = 0;
                        for b in (0..N).filter(|&b| b != a) {
                            let want = known.contains(&(a.min(b), a.max(b)));
                            prop_assert_eq!(
                                m.pair_linked(NodeId(a), NodeId(b), watermark),
                                want,
                                "pair {}-{} at seq {}", a, b, ev.seq
                            );
                            degree += usize::from(want);
                        }
                        let folded = m.snapshot.neighbors_sorted(NodeId(a)).len();
                        prop_assert_eq!(
                            folded + m.delta_marked_count(a, watermark, &scratch),
                            degree,
                            "degree of {} at seq {}", a, ev.seq
                        );
                    }
                }
                m.absorb(idx);
                prop_assert_eq!(m.snapshot.num_edges() + m.delta.len(), known.len());
            }
        }
    }
}
