//! Temporal edge-order analysis (Fig. 8, §3.4).
//!
//! For each Sybil the paper builds the chronological sequence of its edges
//! and marks which are Sybil edges. Intentionally-created Sybil edges show
//! up as a *contiguous run at the start* of the sequence (the attacker
//! interlinked the accounts before friending normal users); accidental ones
//! are scattered uniformly over the account's life.

use osn_graph::{NodeId, TemporalGraph};
use serde::{Deserialize, Serialize};

/// One Fig. 8 column: the chronological edge sequence of one account with
/// Sybil-edge positions marked.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeOrderColumn {
    /// The account.
    pub node: NodeId,
    /// Total number of edges (sequence length).
    pub total: usize,
    /// 0-based positions within the sequence that are Sybil edges,
    /// ascending.
    pub sybil_positions: Vec<usize>,
}

impl EdgeOrderColumn {
    /// Build the column for `node`: its adjacency is already chronological.
    pub fn build<F>(graph: &TemporalGraph, node: NodeId, is_sybil: F) -> Self
    where
        F: Fn(NodeId) -> bool,
    {
        let nb = graph.neighbors(node);
        let sybil_positions = nb
            .iter()
            .enumerate()
            .filter(|(_, n)| is_sybil(n.node))
            .map(|(i, _)| i)
            .collect();
        EdgeOrderColumn {
            node,
            total: nb.len(),
            sybil_positions,
        }
    }

    /// Number of Sybil edges.
    pub fn sybil_count(&self) -> usize {
        self.sybil_positions.len()
    }

    /// Mean *normalized* position of the Sybil edges in `[0, 1]`.
    /// Accidental edges scatter around 0.5; intentional prefixes sit near 0.
    /// `None` when the column has no Sybil edges or only one edge total.
    pub fn mean_normalized_position(&self) -> Option<f64> {
        if self.sybil_positions.is_empty() || self.total < 2 {
            return None;
        }
        let denom = (self.total - 1) as f64;
        Some(
            self.sybil_positions
                .iter()
                .map(|&p| p as f64 / denom)
                .sum::<f64>()
                / self.sybil_positions.len() as f64,
        )
    }

    /// Heuristic for the paper's circled columns: the account looks like an
    /// *intentional* interlinker if it has at least `min_edges` Sybil edges
    /// and they form one contiguous run starting within the first
    /// `prefix_slack` positions.
    pub fn looks_intentional(&self, min_edges: usize, prefix_slack: usize) -> bool {
        let k = self.sybil_positions.len();
        if k < min_edges {
            return false;
        }
        let (Some(&first), Some(&last)) =
            (self.sybil_positions.first(), self.sybil_positions.last())
        else {
            return false; // no Sybil edges at all (only when min_edges == 0)
        };
        first <= prefix_slack && last - first + 1 == k
    }
}

/// Build Fig. 8 columns for a set of accounts.
pub fn columns_for<F>(graph: &TemporalGraph, nodes: &[NodeId], is_sybil: F) -> Vec<EdgeOrderColumn>
where
    F: Fn(NodeId) -> bool + Copy,
{
    nodes
        .iter()
        .map(|&n| EdgeOrderColumn::build(graph, n, is_sybil))
        .collect()
}

/// Summary of a population of columns: how many look intentional, and the
/// distribution of normalized Sybil-edge positions (for the uniformity
/// argument of §3.4).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TemporalSummary {
    /// Columns with at least one Sybil edge.
    pub with_sybil_edges: usize,
    /// Columns matching the intentional heuristic.
    pub intentional: usize,
    /// Mean of all normalized Sybil-edge positions.
    pub mean_position: f64,
    /// Mean normalized position over columns *not* flagged intentional —
    /// the paper's uniformity claim is about these accidental edges.
    pub accidental_mean_position: f64,
}

/// Summarize columns with the default heuristic (≥ 3 edges, prefix run).
pub fn summarize(columns: &[EdgeOrderColumn]) -> TemporalSummary {
    let mut s = TemporalSummary::default();
    let mut pos_sum = 0.0;
    let mut pos_n = 0usize;
    let mut acc_sum = 0.0;
    let mut acc_n = 0usize;
    for c in columns {
        if c.sybil_count() > 0 {
            s.with_sybil_edges += 1;
            let intentional = c.looks_intentional(3, 1);
            if intentional {
                s.intentional += 1;
            }
            if let Some(m) = c.mean_normalized_position() {
                pos_sum += m * c.sybil_count() as f64;
                pos_n += c.sybil_count();
                if !intentional {
                    acc_sum += m * c.sybil_count() as f64;
                    acc_n += c.sybil_count();
                }
            }
        }
    }
    s.mean_position = if pos_n == 0 {
        0.0
    } else {
        pos_sum / pos_n as f64
    };
    s.accidental_mean_position = if acc_n == 0 {
        0.0
    } else {
        acc_sum / acc_n as f64
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::Timestamp;

    /// Node 0 with 6 friends in time order; friends with odd ids are
    /// "sybils".
    fn column_with(sybil_first: bool) -> EdgeOrderColumn {
        let mut g = TemporalGraph::with_nodes(8);
        let order: Vec<u32> = if sybil_first {
            vec![1, 3, 5, 2, 4, 6] // sybil prefix
        } else {
            vec![2, 1, 4, 3, 6, 5] // interleaved
        };
        for (i, &f) in order.iter().enumerate() {
            g.add_edge(NodeId(0), NodeId(f), Timestamp::from_hours(i as u64))
                .unwrap();
        }
        EdgeOrderColumn::build(&g, NodeId(0), |n| n.0 % 2 == 1)
    }

    #[test]
    fn build_marks_positions() {
        let c = column_with(true);
        assert_eq!(c.total, 6);
        assert_eq!(c.sybil_positions, vec![0, 1, 2]);
        let c2 = column_with(false);
        assert_eq!(c2.sybil_positions, vec![1, 3, 5]);
    }

    #[test]
    fn intentional_heuristic() {
        assert!(column_with(true).looks_intentional(3, 1));
        assert!(!column_with(false).looks_intentional(3, 1));
        // Too few edges never counts.
        assert!(!column_with(true).looks_intentional(4, 1));
    }

    #[test]
    fn normalized_positions() {
        let c = column_with(true);
        // positions 0,1,2 of 0..=5 -> (0 + 0.2 + 0.4)/3 = 0.2
        assert!((c.mean_normalized_position().unwrap() - 0.2).abs() < 1e-12);
        let c2 = column_with(false);
        // positions 1,3,5 -> (0.2 + 0.6 + 1.0)/3 = 0.6
        assert!((c2.mean_normalized_position().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_column() {
        let g = TemporalGraph::with_nodes(1);
        let c = EdgeOrderColumn::build(&g, NodeId(0), |_| true);
        assert_eq!(c.total, 0);
        assert_eq!(c.sybil_count(), 0);
        assert_eq!(c.mean_normalized_position(), None);
        assert!(!c.looks_intentional(1, 1));
    }

    #[test]
    fn summary_counts() {
        let cols = vec![column_with(true), column_with(false), {
            let g = TemporalGraph::with_nodes(1);
            EdgeOrderColumn::build(&g, NodeId(0), |_| true)
        }];
        let s = summarize(&cols);
        assert_eq!(s.with_sybil_edges, 2);
        assert_eq!(s.intentional, 1);
        assert!((s.mean_position - 0.4).abs() < 1e-12);
        // Accidental-only mean excludes the intentional column.
        assert!((s.accidental_mean_position - 0.6).abs() < 1e-12);
    }
}
