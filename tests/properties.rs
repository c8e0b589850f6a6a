//! Cross-crate property-based tests (proptest) on the substrate
//! invariants the experiments rely on.

use proptest::prelude::*;
use renren_sybils::graph::{
    bfs, clustering, components, generators, maxflow::FlowNetwork, metrics, CsrSnapshot,
    NeighborScratch, NodeId, TemporalGraph, Timestamp, UnionFind,
};
use renren_sybils::repro::cdf::Cdf;

/// Build a graph from an arbitrary edge list over `n` nodes (dups/loops
/// dropped).
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Components partition the node set, regardless of topology.
    #[test]
    fn components_partition_nodes(
        n in 1usize..60,
        edges in prop::collection::vec((0usize..60, 0usize..60), 0..120)
    ) {
        let g = graph_from(n, &edges);
        let comps = components::connected_components(&g);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, n);
        let mut seen = std::collections::HashSet::new();
        for c in &comps {
            for &node in &c.nodes {
                prop_assert!(seen.insert(node), "node in two components");
            }
        }
    }

    /// Union-find connectivity agrees with BFS reachability.
    #[test]
    fn unionfind_matches_bfs(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80)
    ) {
        let g = graph_from(n, &edges);
        let mut uf = UnionFind::new(n);
        for e in g.edges() {
            uf.union(e.a.index(), e.b.index());
        }
        let dist = bfs::distances(&g, NodeId(0));
        for (i, d) in dist.iter().enumerate() {
            prop_assert_eq!(
                d.is_some(),
                uf.connected(0, i),
                "node {} reachability mismatch", i
            );
        }
    }

    /// Whole-neighbourhood clustering coefficients are valid
    /// probabilities, first-k clustering stops changing once k reaches
    /// the degree, and the CSR kernel the feature path runs returns the
    /// same bits.
    #[test]
    fn clustering_bounds(
        n in 3usize..30,
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..90)
    ) {
        let g = graph_from(n, &edges);
        let snap = CsrSnapshot::freeze(&g);
        let mut scratch = NeighborScratch::new(n);
        for node in g.nodes() {
            let k = g.degree(node).max(1);
            let cc = clustering::first_k_clustering(&g, node, k);
            prop_assert!((0.0..=1.0).contains(&cc));
            prop_assert_eq!(cc, clustering::first_k_clustering(&g, node, k + 5));
            prop_assert_eq!(cc, snap.first_k_clustering(node, k, &mut scratch));
        }
    }

    /// Conductance is within [0, 1] whenever defined, and cut statistics
    /// are internally consistent.
    #[test]
    fn cut_stats_consistent(
        n in 4usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 1..100),
        mask in prop::collection::vec(any::<bool>(), 40)
    ) {
        let g = graph_from(n, &edges);
        let set: Vec<NodeId> = (0..n).filter(|&i| mask[i]).map(|i| NodeId(i as u32)).collect();
        let stats = metrics::cut_stats(&g, &set);
        prop_assert!(stats.audience <= stats.crossing_edges);
        prop_assert!(stats.internal_edges + stats.crossing_edges <= g.num_edges() + stats.internal_edges);
        if let Some(phi) = metrics::conductance(&g, &set) {
            prop_assert!((0.0..=1.0).contains(&phi), "conductance {}", phi);
        }
    }

    /// Max-flow is bounded by both endpoint degrees (unit capacities) and
    /// is symmetric on undirected unit networks.
    #[test]
    fn maxflow_bounded_and_symmetric(
        n in 2usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 1..60)
    ) {
        let g = graph_from(n, &edges);
        if g.num_edges() == 0 { return Ok(()); }
        let s = g.edges()[0].a.index();
        let t = g.edges()[g.num_edges() - 1].b.index();
        if s == t { return Ok(()); }
        let build = || {
            let links = g.edges().iter().map(|e| (e.a.index(), e.b.index(), 1, 1));
            FlowNetwork::from_arcs(n, links)
        };
        let f_st = build().max_flow(s, t);
        let f_ts = build().max_flow(t, s);
        prop_assert_eq!(f_st, f_ts, "undirected flow must be symmetric");
        prop_assert!(f_st <= g.degree(NodeId(s as u32)) as i64);
        prop_assert!(f_st <= g.degree(NodeId(t as u32)) as i64);
    }

    /// BA generator output is connected with the requested node count.
    #[test]
    fn ba_generator_connected(n in 6usize..120, m in 1usize..4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        use rand::SeedableRng;
        let g = generators::barabasi_albert(n, m, Timestamp::ZERO, &mut rng);
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(components::connected_components(&g).len(), 1);
    }

    /// Empirical CDF is a valid distribution function: monotone, right
    /// limits 0 and 1, quantiles invert eval.
    #[test]
    fn cdf_is_distribution_function(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let c = Cdf::new(samples.clone());
        prop_assert_eq!(c.len(), samples.len());
        let lo = c.min().unwrap();
        let hi = c.max().unwrap();
        prop_assert_eq!(c.eval(lo - 1.0), 0.0);
        prop_assert_eq!(c.eval(hi), 1.0);
        // Monotone on a grid.
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let y = c.eval(x);
            prop_assert!(y >= prev);
            prev = y;
        }
        // Quantile/eval consistency: eval(quantile(q)) >= q for q in (0,1].
        for &q in &[0.1, 0.5, 0.9, 1.0] {
            let v = c.quantile(q).unwrap();
            prop_assert!(c.eval(v) + 1e-9 >= q - 0.5 / samples.len() as f64);
        }
    }

    /// Degree sum equals twice the edge count (handshake lemma) after any
    /// edge insertion sequence.
    #[test]
    fn handshake_lemma(
        n in 1usize..50,
        edges in prop::collection::vec((0usize..50, 0usize..50), 0..150)
    ) {
        let g = graph_from(n, &edges);
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
        prop_assert_eq!(g.volume(), sum);
    }
}
