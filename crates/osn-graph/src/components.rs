//! Connected components of the full graph or of induced node subsets.
//!
//! §3.3 of the paper builds the graph induced by Sybils with at least one
//! Sybil edge and finds 7,094 connected components, 98% of size < 10 and one
//! giant component of 63,541 Sybils. [`components_of_subset`] computes
//! exactly that decomposition given a membership predicate.

use crate::graph::{NodeId, TemporalGraph};
use crate::par;
use crate::unionfind::UnionFind;

/// A connected component: its member nodes (ascending id order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Member nodes, sorted ascending.
    pub nodes: Vec<NodeId>,
}

impl Component {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the component has no nodes (never produced by this module).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Connected components of the whole graph, largest first.
///
/// Isolated nodes form singleton components.
pub fn connected_components(g: &TemporalGraph) -> Vec<Component> {
    components_of_subset(g, |_| true)
}

/// Connected components of the subgraph induced by `keep`, largest first.
///
/// Only edges with **both** endpoints satisfying `keep` connect components;
/// nodes failing `keep` are excluded entirely. Isolated kept nodes form
/// singleton components (callers analyzing “Sybils with ≥ 1 Sybil edge”
/// should filter on degree-in-subset first, or drop singletons afterwards).
///
/// The membership predicate (often the expensive part — e.g. an adjacency
/// scan per node) is evaluated for all nodes in parallel; the union-find
/// pass itself is sequential and unaffected by thread count.
pub fn components_of_subset<F>(g: &TemporalGraph, keep: F) -> Vec<Component>
where
    F: Fn(NodeId) -> bool + Sync,
{
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    let kept: Vec<bool> = par::map_indexed(n, |i| keep(NodeId(i as u32)));
    for e in g.edges() {
        if kept[e.a.index()] && kept[e.b.index()] {
            uf.union(e.a.index(), e.b.index());
        }
    }
    let mut by_root: std::collections::HashMap<usize, Vec<NodeId>> =
        std::collections::HashMap::new();
    for (i, &keep_i) in kept.iter().enumerate() {
        if keep_i {
            let r = uf.find(i);
            by_root.entry(r).or_default().push(NodeId(i as u32));
        }
    }
    let mut comps: Vec<Component> = by_root
        .into_values()
        .map(|mut nodes| {
            nodes.sort_unstable();
            Component { nodes }
        })
        .collect();
    comps.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.nodes.cmp(&b.nodes)));
    comps
}

/// The giant (largest) component, if any.
pub fn giant_component(comps: &[Component]) -> Option<&Component> {
    comps.first()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Timestamp;

    fn component_sizes(comps: &[Component]) -> Vec<usize> {
        comps.iter().map(|c| c.len()).collect()
    }

    fn graph_two_triangles_and_isolate() -> TemporalGraph {
        // Nodes 0-1-2 triangle, 3-4 edge, 5 isolated.
        let mut g = TemporalGraph::with_nodes(6);
        let t = Timestamp::ZERO;
        g.add_edge(NodeId(0), NodeId(1), t).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t).unwrap();
        g.add_edge(NodeId(3), NodeId(4), t).unwrap();
        g
    }

    #[test]
    fn full_components_largest_first() {
        let g = graph_two_triangles_and_isolate();
        let comps = connected_components(&g);
        assert_eq!(component_sizes(&comps), vec![3, 2, 1]);
        assert_eq!(
            giant_component(&comps).unwrap().nodes,
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn subset_components_exclude_cross_edges() {
        let g = graph_two_triangles_and_isolate();
        // Keep only odd nodes: 1, 3, 5. No kept-kept edges.
        let comps = components_of_subset(&g, |n| n.0 % 2 == 1);
        assert_eq!(component_sizes(&comps), vec![1, 1, 1]);
    }

    #[test]
    fn subset_components_keep_internal_edges() {
        let g = graph_two_triangles_and_isolate();
        let comps = components_of_subset(&g, |n| n.0 <= 1); // nodes 0 and 1 plus their edge
        assert_eq!(component_sizes(&comps), vec![2]);
        assert_eq!(comps[0].nodes, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn empty_graph_no_components() {
        let g = TemporalGraph::new();
        assert!(connected_components(&g).is_empty());
    }

    #[test]
    fn singleton_components_are_reported() {
        let g = TemporalGraph::with_nodes(3);
        let comps = connected_components(&g);
        assert_eq!(component_sizes(&comps), vec![1, 1, 1]);
    }

    #[test]
    fn deterministic_ordering_for_ties() {
        let mut g = TemporalGraph::with_nodes(4);
        g.add_edge(NodeId(2), NodeId(3), Timestamp::ZERO).unwrap();
        g.add_edge(NodeId(0), NodeId(1), Timestamp::ZERO).unwrap();
        let comps = connected_components(&g);
        // Same size; tie broken by node ids ascending.
        assert_eq!(comps[0].nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1].nodes, vec![NodeId(2), NodeId(3)]);
    }
}
