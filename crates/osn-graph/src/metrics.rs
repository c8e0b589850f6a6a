//! Cut and community metrics.
//!
//! The core assumption the paper tests is that Sybil regions are separated
//! from the honest region by a *small edge cut* (few attack edges relative
//! to internal Sybil edges). These helpers quantify exactly that: internal
//! vs. crossing edge counts, conductance, and the audience (distinct honest
//! neighbors) of a node set — the quantities of Table 2 and Fig. 7. The
//! rich-club coefficient is the quantifier EXPERIMENTS.md names for the
//! popular core behind the Fig. 4 scale artifact.

use crate::graph::{NodeId, TemporalGraph};
use std::collections::HashSet;

/// Edge statistics of a node set `S` within graph `g`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CutStats {
    /// Edges with both endpoints in `S` (the paper's "Sybil edges" when `S`
    /// is a Sybil component).
    pub internal_edges: usize,
    /// Edges with exactly one endpoint in `S` (the paper's "attack edges").
    pub crossing_edges: usize,
    /// Distinct outside endpoints of crossing edges (Table 2's "Audience").
    pub audience: usize,
}

/// Compute [`CutStats`] for the node set `set`.
pub fn cut_stats(g: &TemporalGraph, set: &[NodeId]) -> CutStats {
    let members: HashSet<NodeId> = set.iter().copied().collect();
    let mut ordered: Vec<NodeId> = members.iter().copied().collect();
    ordered.sort_unstable();
    let mut internal = 0usize;
    let mut crossing = 0usize;
    let mut audience: HashSet<NodeId> = HashSet::new();
    for &n in &ordered {
        for nb in g.neighbors(n) {
            if members.contains(&nb.node) {
                internal += 1; // counted from both sides; halve below
            } else {
                crossing += 1;
                audience.insert(nb.node);
            }
        }
    }
    CutStats {
        internal_edges: internal / 2,
        crossing_edges: crossing,
        audience: audience.len(),
    }
}

/// Conductance of `S`: `cut(S) / min(vol(S), vol(V \ S))`, in `[0, 1]`.
/// Lower conductance = better-separated community. Returns `None` when
/// either side has zero volume.
pub fn conductance(g: &TemporalGraph, set: &[NodeId]) -> Option<f64> {
    let members: HashSet<NodeId> = set.iter().copied().collect();
    let mut ordered: Vec<NodeId> = members.iter().copied().collect();
    ordered.sort_unstable();
    let mut vol_s = 0usize;
    let mut cut = 0usize;
    for &n in &ordered {
        vol_s += g.degree(n);
        for nb in g.neighbors(n) {
            if !members.contains(&nb.node) {
                cut += 1;
            }
        }
    }
    let vol_rest = g.volume().checked_sub(vol_s)?;
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        None
    } else {
        Some(cut as f64 / denom as f64)
    }
}

/// Rich-club coefficient φ(k): the edge density among nodes of degree
/// > k. A φ(k) near 1 for large k means the popular core is a near-clique
/// > — the effect that inflates simulated Sybils' clustering relative to
/// > Renren scale (see EXPERIMENTS.md). `None` when fewer than two nodes
/// > exceed `k`.
pub fn rich_club_coefficient(g: &TemporalGraph, k: usize) -> Option<f64> {
    let rich: Vec<NodeId> = g.nodes().filter(|&n| g.degree(n) > k).collect();
    if rich.len() < 2 {
        return None;
    }
    let members: HashSet<NodeId> = rich.iter().copied().collect();
    let mut internal = 0usize;
    for &n in &rich {
        for nb in g.neighbors(n) {
            if members.contains(&nb.node) {
                internal += 1;
            }
        }
    }
    let pairs = rich.len() * (rich.len() - 1) / 2;
    Some((internal / 2) as f64 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Timestamp;

    /// Two triangles joined by a single bridge edge 2-3.
    fn barbell() -> TemporalGraph {
        let mut g = TemporalGraph::with_nodes(6);
        let t = Timestamp::ZERO;
        g.add_edge(NodeId(0), NodeId(1), t).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t).unwrap();
        g.add_edge(NodeId(3), NodeId(4), t).unwrap();
        g.add_edge(NodeId(4), NodeId(5), t).unwrap();
        g.add_edge(NodeId(3), NodeId(5), t).unwrap();
        g.add_edge(NodeId(2), NodeId(3), t).unwrap();
        g
    }

    #[test]
    fn cut_stats_of_half_barbell() {
        let g = barbell();
        let s = cut_stats(&g, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(s.internal_edges, 3);
        assert_eq!(s.crossing_edges, 1);
        assert_eq!(s.audience, 1);
    }

    #[test]
    fn cut_stats_empty_set() {
        let g = barbell();
        assert_eq!(cut_stats(&g, &[]), CutStats::default());
    }

    #[test]
    fn conductance_of_good_community_is_low() {
        let g = barbell();
        let phi = conductance(&g, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        // vol(S)=7, cut=1 -> 1/7.
        assert!((phi - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn conductance_none_for_trivial_sets() {
        let g = barbell();
        assert_eq!(conductance(&g, &[]), None);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(conductance(&g, &all), None);
    }

    #[test]
    fn rich_club_of_clique_plus_pendants() {
        // 4-clique (degrees >= 3) plus pendants on node 0.
        let mut g = TemporalGraph::with_nodes(7);
        let t = Timestamp::ZERO;
        for i in 0..4u32 {
            for j in (i + 1)..4u32 {
                g.add_edge(NodeId(i), NodeId(j), t).unwrap();
            }
        }
        g.add_edge(NodeId(0), NodeId(4), t).unwrap();
        g.add_edge(NodeId(0), NodeId(5), t).unwrap();
        g.add_edge(NodeId(0), NodeId(6), t).unwrap();
        // Nodes with degree > 2: the clique (deg 3,3,3 and 6). Fully linked.
        assert_eq!(rich_club_coefficient(&g, 2), Some(1.0));
        // Degree > 5: only node 0 -> undefined.
        assert_eq!(rich_club_coefficient(&g, 5), None);
    }
}
