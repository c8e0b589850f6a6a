//! Degree lists and degree shares.
//!
//! Figs. 5 and 9 of the paper are degree CDFs: Fig. 5 contrasts each Sybil's
//! total degree (“All Edges”) with its degree counting only edges to other
//! Sybils (“Sybil Edges”); Fig. 9 repeats the comparison inside the largest
//! Sybil component. The helpers here compute plain and predicate-restricted
//! degrees of a node list and the shares Fig. 9 quotes; the CDFs themselves
//! are built by `sybil-repro`'s `cdf` module.

use crate::graph::{NodeId, TemporalGraph};
use crate::par;

/// Degrees of the nodes in `nodes`, in the same order. Runs across
/// [`par::num_threads`] threads; output is identical to the serial loop.
pub fn degrees_of(g: &TemporalGraph, nodes: &[NodeId]) -> Vec<usize> {
    par::map_slice(nodes, |&n| g.degree(n))
}

/// Degree of each node in `nodes` counting only neighbors satisfying
/// `count_neighbor` — e.g. the “Sybil edges” degree of Fig. 5 when the
/// predicate is "neighbor is a Sybil". The predicate must be `Sync`; it is
/// applied from worker threads, in a deterministic per-node order.
pub fn restricted_degrees<F>(g: &TemporalGraph, nodes: &[NodeId], count_neighbor: F) -> Vec<usize>
where
    F: Fn(NodeId) -> bool + Sync,
{
    par::map_slice(nodes, |&n| {
        g.neighbors(n)
            .iter()
            .filter(|nb| count_neighbor(nb.node))
            .count()
    })
}

/// Fraction of entries equal to `d`.
pub fn fraction_with_degree(degrees: &[usize], d: usize) -> f64 {
    if degrees.is_empty() {
        return 0.0;
    }
    degrees.iter().filter(|&&x| x == d).count() as f64 / degrees.len() as f64
}

/// Fraction of entries ≤ `d`.
pub fn fraction_with_degree_at_most(degrees: &[usize], d: usize) -> f64 {
    if degrees.is_empty() {
        return 0.0;
    }
    degrees.iter().filter(|&&x| x <= d).count() as f64 / degrees.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Timestamp;

    fn path_graph(n: usize) -> TemporalGraph {
        let mut g = TemporalGraph::with_nodes(n);
        for i in 1..n {
            g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), Timestamp::ZERO)
                .unwrap();
        }
        g
    }

    #[test]
    fn path_degrees() {
        let g = path_graph(4);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(degrees_of(&g, &all), vec![1, 2, 2, 1]);
    }

    #[test]
    fn degrees_of_subset() {
        let g = path_graph(4);
        assert_eq!(degrees_of(&g, &[NodeId(1), NodeId(3)]), vec![2, 1]);
    }

    #[test]
    fn restricted_degree_counts_matching_neighbors() {
        let g = path_graph(5);
        // Count only even-id neighbors.
        let nodes: Vec<NodeId> = g.nodes().collect();
        let r = restricted_degrees(&g, &nodes, |n| n.0 % 2 == 0);
        // node0: nb {1} -> 0; node1: nb {0,2} -> 2; node2: nb {1,3} -> 0;
        // node3: nb {2,4} -> 2; node4: nb {3} -> 0.
        assert_eq!(r, vec![0, 2, 0, 2, 0]);
    }

    #[test]
    fn histogram_and_fractions() {
        let degs = vec![0, 1, 1, 2, 5];
        assert_eq!(fraction_with_degree(&degs, 1), 0.4);
        assert_eq!(fraction_with_degree_at_most(&degs, 2), 0.8);
        assert_eq!(fraction_with_degree(&[], 0), 0.0);
        assert_eq!(fraction_with_degree_at_most(&[], 0), 0.0);
    }
}
