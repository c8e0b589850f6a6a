//! Property-based tests for the graph substrate.

use osn_graph::io;
use osn_graph::subgraph::InducedSubgraph;
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

    /// CSV round trip preserves the edge set and timestamps.
    #[test]
    fn io_roundtrip(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80)
    ) {
        let g = graph_from(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for e in g.edges() {
            prop_assert!(g2.has_edge(e.a, e.b));
        }
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            prop_assert_eq!(a.time, b.time);
        }
    }

    /// Induced subgraphs contain exactly the edges with both endpoints in
    /// the subset.
    #[test]
    fn induced_subgraph_edge_set(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        mask in prop::collection::vec(any::<bool>(), 40)
    ) {
        let g = graph_from(n, &edges);
        let subset: Vec<NodeId> = (0..n)
            .filter(|&i| mask[i])
            .map(|i| NodeId(i as u32))
            .collect();
        let sub = InducedSubgraph::new(&g, &subset);
        let expected = g
            .edges()
            .iter()
            .filter(|e| sub.to_sub(e.a).is_some() && sub.to_sub(e.b).is_some())
            .count();
        prop_assert_eq!(sub.graph.num_edges(), expected);
        // Round-trip mapping.
        for node in sub.graph.nodes() {
            let orig = sub.to_original(node);
            prop_assert_eq!(sub.to_sub(orig), Some(node));
        }
    }

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

    /// Watts–Strogatz at β=0 is the pure ring lattice: every node has
    /// exactly degree k.
    #[test]
    fn ws_beta_zero_is_lattice(n in 10usize..60, half_k in 1usize..3) {
        let k = half_k * 2;
        prop_assume!(n > k);
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::watts_strogatz(n, k, 0.0, Timestamp::ZERO, &mut rng);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), k);
        }
    }

    /// The configuration model never exceeds requested degrees.
    #[test]
    fn configuration_model_degree_caps(
        degrees in prop::collection::vec(0usize..6, 2..60)
    ) {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::configuration_model(&degrees, Timestamp::ZERO, &mut rng);
        for (i, &d) in degrees.iter().enumerate() {
            prop_assert!(g.degree(NodeId(i as u32)) <= d);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Core numbers never exceed degrees, and k-cores are nested.
    #[test]
    fn kcore_nesting(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..120)
    ) {
        let g = graph_from(n, &edges);
        let cores = osn_graph::kcore::core_numbers(&g);
        for v in g.nodes() {
            prop_assert!(cores[v.index()] as usize <= g.degree(v));
        }
        let k1 = osn_graph::kcore::k_core(&g, 1);
        let k2 = osn_graph::kcore::k_core(&g, 2);
        let set1: std::collections::HashSet<_> = k1.into_iter().collect();
        for v in k2 {
            prop_assert!(set1.contains(&v), "2-core must lie inside 1-core");
        }
    }

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
