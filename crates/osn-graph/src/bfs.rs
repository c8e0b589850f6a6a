//! Breadth-first traversal and hop distances.
//!
//! [`distances`] gives SumUp its ticket levels (hop distance from the vote
//! collector); [`bfs_order`] is the independent component oracle the
//! cascade property test checks full-probability reach against.

use crate::graph::{NodeId, TemporalGraph};
use std::collections::VecDeque;

/// Nodes reachable from `start`, in BFS order (including `start`).
pub fn bfs_order(g: &TemporalGraph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.num_nodes()];
    let mut order = Vec::new();
    let mut q = VecDeque::new();
    seen[start.index()] = true;
    q.push_back(start);
    while let Some(u) = q.pop_front() {
        order.push(u);
        for nb in g.neighbors(u) {
            if !seen[nb.node.index()] {
                seen[nb.node.index()] = true;
                q.push_back(nb.node);
            }
        }
    }
    order
}

/// Hop distance from `start` to every node; `None` for unreachable nodes.
pub fn distances(g: &TemporalGraph, start: NodeId) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; g.num_nodes()];
    let mut q = VecDeque::new();
    dist[start.index()] = Some(0);
    q.push_back((start, 0u32));
    while let Some((u, du)) = q.pop_front() {
        for nb in g.neighbors(u) {
            if dist[nb.node.index()].is_none() {
                dist[nb.node.index()] = Some(du + 1);
                q.push_back((nb.node, du + 1));
            }
        }
    }
    dist
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
    fn bfs_visits_component_in_order() {
        let g = path_graph(4);
        assert_eq!(
            bfs_order(&g, NodeId(0)),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            bfs_order(&g, NodeId(2)),
            vec![NodeId(2), NodeId(1), NodeId(3), NodeId(0)]
        );
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(4);
        assert_eq!(
            distances(&g, NodeId(0)),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = TemporalGraph::with_nodes(4); // node 3 isolated
        g.add_edge(NodeId(0), NodeId(1), Timestamp::ZERO).unwrap();
        g.add_edge(NodeId(1), NodeId(2), Timestamp::ZERO).unwrap();
        assert_eq!(distances(&g, NodeId(0))[3], None);
        assert_eq!(bfs_order(&g, NodeId(0)).len(), 3);
    }
}
