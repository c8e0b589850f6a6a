//! Property tests for the CSR snapshot and the parallel map: the frozen
//! view must agree with [`TemporalGraph`] on every query, and parallel
//! sweeps must be bit-identical to their serial counterparts.

use osn_graph::{clustering, par, CsrSnapshot, NeighborScratch, Timestamp};
use proptest::prelude::*;

use crate::support::{graph_from, with_threads_env};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `has_edge` agrees between snapshot and graph on every node pair.
    #[test]
    fn snapshot_has_edge_matches_graph(
        n in 2usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..80)
    ) {
        let g = graph_from(n, &edges);
        let s = CsrSnapshot::freeze(&g);
        prop_assert_eq!(s.num_nodes(), g.num_nodes());
        prop_assert_eq!(s.num_edges(), g.num_edges());
        for a in g.nodes() {
            for b in g.nodes() {
                prop_assert_eq!(
                    s.has_edge(a, b),
                    g.has_edge(a, b),
                    "pair {:?}-{:?}", a, b
                );
            }
        }
    }

    /// Snapshot rows are permutations of the graph's adjacency: the sorted
    /// row ascends by id, the chronological row preserves insertion order.
    #[test]
    fn snapshot_neighbor_sets_match_graph(
        n in 2usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..80)
    ) {
        let g = graph_from(n, &edges);
        let s = CsrSnapshot::freeze(&g);
        for v in g.nodes() {
            prop_assert_eq!(s.degree(v), g.degree(v));
            let chrono: Vec<u32> = g.neighbors(v).iter().map(|nb| nb.node.0).collect();
            prop_assert_eq!(s.neighbors_chrono(v), &chrono[..]);
            let times: Vec<Timestamp> = g.neighbors(v).iter().map(|nb| nb.time).collect();
            prop_assert_eq!(s.times_chrono(v), &times[..]);
            let mut sorted = chrono.clone();
            sorted.sort_unstable();
            prop_assert_eq!(s.neighbors_sorted(v), &sorted[..]);
            prop_assert!(s.neighbors_sorted(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// Mutual-friend counts from the sorted-adjacency merge equal a
    /// brute-force intersection of the two neighbor sets, and the graph's
    /// short-circuit test says whether that count is at least one.
    #[test]
    fn snapshot_mutual_friends_match_graph(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..60)
    ) {
        let g = graph_from(n, &edges);
        let s = CsrSnapshot::freeze(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                if a != b {
                    let count = g
                        .neighbors(a)
                        .iter()
                        .filter(|x| g.neighbors(b).iter().any(|y| y.node == x.node))
                        .count();
                    prop_assert_eq!(
                        s.mutual_friends(a, b),
                        count,
                        "pair {:?}-{:?}", a, b
                    );
                    prop_assert_eq!(g.has_mutual_friend(a, b), count >= 1);
                }
            }
        }
    }

    /// The snapshot's first-k clustering kernel returns the exact bits of
    /// the serial `clustering::first_k_clustering`.
    #[test]
    fn snapshot_clustering_matches_graph(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..70),
        k in 0usize..8
    ) {
        let g = graph_from(n, &edges);
        let s = CsrSnapshot::freeze(&g);
        let mut scratch = NeighborScratch::new(s.num_nodes());
        for v in g.nodes() {
            prop_assert_eq!(
                s.first_k_clustering(v, k, &mut scratch),
                clustering::first_k_clustering(&g, v, k)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full-population sweep produces the same bits at 1, 2, 3 and 7
    /// threads.
    #[test]
    fn parallel_sweeps_are_thread_count_invariant(
        n in 2usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..80),
        k in 1usize..6
    ) {
        let g = graph_from(n, &edges);
        let mut firstk = Vec::new();
        for threads in ["1", "2", "3", "7"] {
            with_threads_env(threads, || {
                firstk.push(clustering::first_k_clustering_all(&g, k));
            });
        }
        for i in 1..firstk.len() {
            prop_assert_eq!(&firstk[i], &firstk[0]);
        }
    }

    /// `par::map_indexed` equals the serial loop for arbitrary lengths,
    /// including ones that do not divide evenly into chunks.
    #[test]
    fn map_indexed_matches_serial(len in 0usize..200, threads in 1usize..9) {
        with_threads_env(&threads.to_string(), || {
            let expected: Vec<u64> = (0..len).map(|i| (i as u64).wrapping_mul(0x9E3779B9)).collect();
            let got = par::map_indexed(len, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(got, expected);
        });
    }
}
