//! Property-based tests for the graph substrate.

use osn_graph::walks::{RouteStart, RouteTables};
use osn_graph::{generators, NodeId, TemporalGraph, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph_from(n: usize, edges: &[(usize, usize)]) -> TemporalGraph {
    let mut g = TemporalGraph::with_nodes(n);
    for (i, &(a, b)) in edges.iter().enumerate() {
        let _ = g.add_edge(
            NodeId((a % n) as u32),
            NodeId((b % n) as u32),
            Timestamp(i as u64),
        );
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random routes follow edges and are reproducible; two routes that
    /// traverse the same directed edge coincide afterwards (the SybilGuard
    /// convergence property) on arbitrary graphs.
    #[test]
    fn route_convergence(seed in 0u64..500, n in 4usize..30, m in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, Timestamp::ZERO, &mut rng);
        let tables = RouteTables::new(&g, &mut rng);
        let len = 12;
        let start_a = RouteStart { node: NodeId(0), first_edge: 0 };
        let ra = tables.route(&g, start_a, len);
        prop_assert_eq!(&ra, &tables.route(&g, start_a, len));
        for w in ra.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
        // Convergence: compare with a route from another node.
        let other = NodeId((n - 1) as u32);
        if g.degree(other) > 0 {
            let rb = tables.route(&g, RouteStart { node: other, first_edge: 0 }, len);
            let ea: Vec<(NodeId, NodeId)> = ra.windows(2).map(|w| (w[0], w[1])).collect();
            let eb: Vec<(NodeId, NodeId)> = rb.windows(2).map(|w| (w[0], w[1])).collect();
            'outer: for (i, x) in ea.iter().enumerate() {
                for (j, y) in eb.iter().enumerate() {
                    if x == y {
                        let k = (ea.len() - i).min(eb.len() - j);
                        for d in 0..k {
                            prop_assert_eq!(ea[i + d], eb[j + d]);
                        }
                        break 'outer;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cascade reach always includes the seed, never shrinks as `p` grows
    /// within a sample, and is bounded by the seed's component, which
    /// `p = 1` reaches exactly.
    #[test]
    fn cascade_bounds(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..100),
        seed_idx in 0usize..40,
        p in 0.0f64..1.0
    ) {
        let g = graph_from(n, &edges);
        let seed = NodeId((seed_idx % n) as u32);
        let mut rng = StdRng::seed_from_u64(9);
        let r = osn_graph::cascade::percolation_reach(
            &g, &[vec![seed]], &[0.0, p, 1.0], 1, &mut rng,
        );
        let comp_size = osn_graph::bfs::bfs_order(&g, seed).len();
        prop_assert_eq!(r[0][0], 1.0);
        prop_assert!(r[0][0] <= r[0][1] && r[0][1] <= r[0][2]);
        prop_assert_eq!(r[0][2], comp_size as f64);
    }

    /// Spectral gap, when defined, is in [0, 1].
    #[test]
    fn spectral_gap_bounds(seed in 0u64..200, n in 5usize..40, m in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, Timestamp::ZERO, &mut rng);
        let gap = osn_graph::spectral::spectral_gap(&g, 40, seed).unwrap();
        prop_assert!((0.0..=1.0).contains(&gap), "gap {}", gap);
    }
}
