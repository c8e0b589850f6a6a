//! Property tests for the incremental snapshot rotation:
//! [`CsrSnapshot::merge_delta`] must be element-identical (all four
//! columns) to the monolithic oracle [`CsrSnapshot::with_edges`] and to a
//! one-shot [`CsrSnapshot::freeze`] of the same edge stream, under any
//! randomized batching schedule — and, fed additions that repeat pairs,
//! to the oracle over their first occurrences.

use osn_graph::{CsrSnapshot, MergeScratch, NodeId, TemporalGraph, Timestamp};
use proptest::prelude::*;

/// Build a deduplicated, time-ordered undirected edge stream over `n`
/// nodes from raw proptest pairs. Times are the stream index, so every
/// addition extends its endpoint rows in time order (the caller contract
/// of both `with_edges` and `merge_delta`).
fn edge_stream(n: usize, raw: &[(usize, usize)]) -> Vec<(NodeId, NodeId, Timestamp)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for &(a, b) in raw {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            out.push((
                NodeId(a as u32),
                NodeId(b as u32),
                Timestamp(out.len() as u64),
            ));
        }
    }
    out
}

/// Split `edges` into consecutive batches at the given cut fractions
/// (empty batches allowed — rotations with nothing to fold must be no-ops).
fn schedule<'a>(
    edges: &'a [(NodeId, NodeId, Timestamp)],
    cuts: &[usize],
) -> Vec<&'a [(NodeId, NodeId, Timestamp)]> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (edges.len() + 1)).collect();
    points.sort_unstable();
    let mut batches = Vec::new();
    let mut prev = 0;
    for p in points {
        batches.push(&edges[prev..p]);
        prev = p;
    }
    batches.push(&edges[prev..]);
    batches
}

fn assert_columns_equal(got: &CsrSnapshot, want: &CsrSnapshot) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.num_nodes(), want.num_nodes());
    prop_assert_eq!(got.num_edges(), want.num_edges());
    for v in got.nodes() {
        prop_assert_eq!(got.neighbors_sorted(v), want.neighbors_sorted(v), "sorted {:?}", v);
        prop_assert_eq!(got.times_sorted(v), want.times_sorted(v), "sorted_times {:?}", v);
        prop_assert_eq!(got.neighbors_chrono(v), want.neighbors_chrono(v), "chrono {:?}", v);
        prop_assert_eq!(got.times_chrono(v), want.times_chrono(v), "chrono_times {:?}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any randomized rotation schedule of `merge_delta` reproduces the
    /// single-shot `with_edges` build column for column. Node counts span
    /// multiple 256-row blocks so block-boundary handling is exercised.
    #[test]
    fn merge_delta_schedule_matches_with_edges(
        n in 2usize..600,
        raw in prop::collection::vec((0usize..600, 0usize..600), 0..300),
        cuts in prop::collection::vec(0usize..301, 0..6),
    ) {
        let edges = edge_stream(n, &raw);
        let oracle = CsrSnapshot::empty(n).with_edges(&edges);
        let mut inc = CsrSnapshot::empty(n);
        for batch in schedule(&edges, &cuts) {
            inc.merge_delta(batch);
        }
        assert_columns_equal(&inc, &oracle)?;
    }

    /// The same schedule also reproduces `freeze` of a graph built from
    /// the identical stream — tying the incremental path to the original
    /// construction, not just to `with_edges`.
    #[test]
    fn merge_delta_schedule_matches_freeze(
        n in 2usize..600,
        raw in prop::collection::vec((0usize..600, 0usize..600), 0..300),
        cuts in prop::collection::vec(0usize..301, 0..6),
    ) {
        let edges = edge_stream(n, &raw);
        let mut g = TemporalGraph::with_nodes(n);
        for &(a, b, t) in &edges {
            g.add_edge(a, b, t).unwrap();
        }
        let frozen = CsrSnapshot::freeze(&g);
        let mut inc = CsrSnapshot::empty(n);
        for batch in schedule(&edges, &cuts) {
            inc.merge_delta(batch);
        }
        assert_columns_equal(&inc, &frozen)?;
    }

    /// `merge_delta_with` is a set union: additions that repeat a
    /// snapshot edge or an earlier addition (either way round, inside one
    /// batch or across batches) fold to exactly `with_edges` over the
    /// first occurrence of each new pair, row for row, and `num_edges`
    /// counts distinct edges. Pairs are drawn from a few `hot` nodes so
    /// repeats are common, and from all `n` so blocks are crossed.
    #[test]
    fn merge_with_repeats_matches_with_edges_over_first_occurrences(
        n in 2usize..600,
        hot in 2usize..24,
        raw in prop::collection::vec((0usize..600, 0usize..600, any::<bool>()), 0..300),
        split in 0usize..301,
        echo in prop::collection::vec(0usize..300, 0..20),
        cuts in prop::collection::vec(0usize..301, 0..4),
    ) {
        let hot = hot.min(n);
        let pairs: Vec<(usize, usize)> = raw
            .iter()
            .map(|&(a, b, spread)| if spread { (a % n, b % n) } else { (a % hot, b % hot) })
            .filter(|&(a, b)| a != b)
            .collect();
        let (old, new) = pairs.split_at(split % (pairs.len() + 1));
        let base = edge_stream(n, old);
        let snap = CsrSnapshot::empty(n).with_edges(&base);
        // Every new pair as drawn (repeats kept), then some base edges
        // again, reversed; times continue the base stream's.
        let additions: Vec<(NodeId, NodeId, Timestamp)> = new
            .iter()
            .map(|&(a, b)| (NodeId(a as u32), NodeId(b as u32)))
            .chain(echo.iter().filter_map(|&i| base.get(i % base.len().max(1)).map(|&(u, v, _)| (v, u))))
            .enumerate()
            .map(|(k, (a, b))| (a, b, Timestamp((base.len() + k) as u64)))
            .collect();
        let mut seen: std::collections::BTreeSet<(u32, u32)> =
            base.iter().map(|&(u, v, _)| (u.0.min(v.0), u.0.max(v.0))).collect();
        let firsts: Vec<_> = additions
            .iter()
            .copied()
            .filter(|&(a, b, _)| seen.insert((a.0.min(b.0), a.0.max(b.0))))
            .collect();
        let oracle = snap.with_edges(&firsts);
        prop_assert_eq!(oracle.num_edges(), seen.len());
        let (mut inc, mut scratch) = (snap.clone(), MergeScratch::default());
        for batch in schedule(&additions, &cuts) {
            inc.merge_delta_with(batch, &mut scratch);
        }
        assert_columns_equal(&inc, &oracle)?;
    }

    /// Mixing the two rebuild paths mid-chain (rotate incrementally, then
    /// monolithically, then incrementally again) stays on the same values:
    /// the block layout carries no path-dependent state.
    #[test]
    fn mixed_rebuild_paths_agree(
        n in 2usize..600,
        raw in prop::collection::vec((0usize..600, 0usize..600), 0..300),
        cut in 0usize..301,
    ) {
        let edges = edge_stream(n, &raw);
        let oracle = CsrSnapshot::empty(n).with_edges(&edges);
        let split = cut % (edges.len() + 1);
        let mut mixed = CsrSnapshot::empty(n);
        mixed.merge_delta(&edges[..split]);
        mixed = mixed.with_edges(&edges[split..]);
        assert_columns_equal(&mixed, &oracle)?;
    }
}
