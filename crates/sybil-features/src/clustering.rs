//! Clustering-coefficient feature (Fig. 4): first 50 friends by time.

use osn_graph::{clustering, NodeId, TemporalGraph};

/// Number of earliest friends the paper's Fig. 4 metric considers.
pub const FIRST_K: usize = 50;

/// Clustering coefficient over the first 50 friends of `n` (by friendship
/// time), on the mutable graph. Zero for accounts with fewer than two
/// friends. [`crate::FeatureExtractor`] computes the same metric on a
/// frozen snapshot; this is the reference its tests compare against.
pub fn first50_cc(graph: &TemporalGraph, n: NodeId) -> f64 {
    clustering::first_k_clustering(graph, n, FIRST_K)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::Timestamp;

    #[test]
    fn matches_graph_crate_metric() {
        let mut g = TemporalGraph::with_nodes(4);
        let t = Timestamp::ZERO;
        g.add_edge(NodeId(0), NodeId(1), t).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t).unwrap();
        assert_eq!(first50_cc(&g, NodeId(0)), 1.0);
        assert_eq!(first50_cc(&g, NodeId(3)), 0.0);
    }

    #[test]
    fn only_first_fifty_friends_count() {
        // Node 0 with 60 friends; friends 51..60 form a clique with friend 1,
        // but they are outside the first-50 prefix, so cc stays 0.
        let mut g = TemporalGraph::with_nodes(62);
        for i in 1..=60 {
            g.add_edge(NodeId(0), NodeId(i), Timestamp::from_hours(i as u64))
                .unwrap();
        }
        for i in 51..=60 {
            for j in (i + 1)..=60 {
                g.add_edge(NodeId(i), NodeId(j), Timestamp::from_hours(100))
                    .unwrap();
            }
        }
        assert_eq!(first50_cc(&g, NodeId(0)), 0.0);
    }
}
