//! Clustering coefficients.
//!
//! Fig. 4 of the paper plots the CDF of the clustering coefficient computed
//! over each user's **first 50 friends sorted by friendship time** — a
//! real-time-friendly variant that only needs invitation data. Normal users
//! average ≈ 0.0386 and Sybils ≈ 0.0006 because Sybils befriend strangers
//! with no mutual ties.

use crate::graph::{NodeId, TemporalGraph};
use crate::par;

/// The paper's Fig. 4 metric: clustering coefficient over the first `k`
/// friends of `n` in chronological order —
/// `edges-among-them / C(k', 2)` for the `k' ≤ k` friends there are. Zero
/// when fewer than 2 friends.
///
/// Pairwise membership probes over a borrowed friend slice: the serial
/// oracle of the [`CsrSnapshot`](crate::snapshot::CsrSnapshot) kernel
/// bulk sweeps use, which replaces the O(k²) probes with O(Σ deg)
/// scratch marking.
pub fn first_k_clustering(g: &TemporalGraph, n: NodeId, k: usize) -> f64 {
    let fs = g.first_k_friends(n, k);
    let k = fs.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            if g.has_edge(fs[i].node, fs[j].node) {
                links += 1;
            }
        }
    }
    links as f64 / (k * (k - 1) / 2) as f64
}

/// First-`k` clustering ([`first_k_clustering`]) for every node, computed
/// over a shared snapshot on [`par::num_threads`] threads. Output order
/// and bits match the serial per-node loop.
pub fn first_k_clustering_all(g: &TemporalGraph, k: usize) -> Vec<f64> {
    let snap = crate::snapshot::CsrSnapshot::freeze(g);
    par::map_indexed_with(
        g.num_nodes(),
        || crate::snapshot::NeighborScratch::new(snap.num_nodes()),
        |scratch, i| snap.first_k_clustering(NodeId(i as u32), k, scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn degree_below_two_is_zero() {
        let g = wedge_graph();
        assert_eq!(first_k_clustering(&g, NodeId(3), 50), 0.0);
        let empty = TemporalGraph::with_nodes(1);
        assert_eq!(first_k_clustering(&empty, NodeId(0), 50), 0.0);
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let mut g = TemporalGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), t(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t(0)).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t(0)).unwrap();
        for n in g.nodes() {
            assert_eq!(first_k_clustering(&g, n, 50), 1.0);
        }
        assert_eq!(first_k_clustering_all(&g, 50), vec![1.0; 3]);
    }

    #[test]
    fn first_k_restricts_to_time_prefix() {
        let g = wedge_graph();
        // First 2 friends of 0 are {1, 2}, which are linked -> cc = 1.
        assert_eq!(first_k_clustering(&g, NodeId(0), 2), 1.0);
        // First 3 friends (the whole neighbourhood): one link (1-2) out
        // of 3 possible pairs.
        assert!((first_k_clustering(&g, NodeId(0), 3) - 1.0 / 3.0).abs() < 1e-12);
        // k = 1 -> 0.
        assert_eq!(first_k_clustering(&g, NodeId(0), 1), 0.0);
    }

    #[test]
    fn star_graph_zero_clustering() {
        let mut g = TemporalGraph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId(i), t(i as u64)).unwrap();
        }
        assert_eq!(first_k_clustering(&g, NodeId(0), 50), 0.0);
        assert_eq!(first_k_clustering_all(&g, 50), vec![0.0; 5]);
    }
}
