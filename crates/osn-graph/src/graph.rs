//! The [`TemporalGraph`] store: an undirected friendship graph whose edges
//! carry creation timestamps.
//!
//! The paper's entire topological analysis (§3) runs over edge-creation
//! metadata: which edges exist, between whom, and *when* each was formed.
//! This store keeps per-node adjacency in **edge-creation order** (so that
//! “first 50 friends” and Fig. 8's edge-order matrix are cheap) and a global
//! packed edge set for O(1) membership tests (so that clustering
//! coefficients and mutual-friend tests are cheap). The edge set hashes
//! with [`PairBuildHasher`](crate::hash::PairBuildHasher), one fixed
//! SplitMix64 round per key rather than std's randomly keyed SipHash: it
//! is only queried for membership, never iterated, and its keys are
//! account ids, so a fixed key can reach no output (see [`crate::hash`]).

use crate::hash::{pack_pair, PairBuildHasher};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a node (account) in the graph. Dense, starting at zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a usize, for indexing adjacency vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of an edge, equal to its position in global creation order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Simulation time, in seconds since the simulation epoch.
///
/// The paper reports behavior over 1-hour and 400-hour windows; seconds give
/// enough resolution for request-level logs while staying integral (and thus
/// exactly reproducible).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Zero time: the simulation epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Build a timestamp from whole hours.
    #[inline]
    pub fn from_hours(h: u64) -> Self {
        Timestamp(h * 3600)
    }

    /// Build a timestamp from fractional hours (rounded down to seconds).
    #[inline]
    pub fn from_hours_f64(h: f64) -> Self {
        Timestamp((h * 3600.0).max(0.0) as u64)
    }

    /// This time expressed in fractional hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// This time expressed in whole seconds.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Saturating addition of a duration in seconds.
    #[inline]
    pub fn plus_secs(self, s: u64) -> Self {
        Timestamp(self.0.saturating_add(s))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}h", self.as_hours())
    }
}

/// One end of an adjacency entry: the neighbor, when the friendship formed,
/// and which global edge produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The node on the other side of the edge.
    pub node: NodeId,
    /// When this friendship was established.
    pub time: Timestamp,
    /// The global edge this entry belongs to.
    pub edge: EdgeId,
}

/// A full undirected edge record in global creation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// Lower endpoint (by insertion argument order, not by id).
    pub a: NodeId,
    /// Higher endpoint.
    pub b: NodeId,
    /// Creation time.
    pub time: Timestamp,
}

impl EdgeRecord {
    /// The endpoint opposite `n`, or `None` if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if self.a == n {
            Some(self.b)
        } else if self.b == n {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Errors returned when mutating a [`TemporalGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced node id is out of range.
    UnknownNode(NodeId),
    /// Both endpoints of an edge were the same node.
    SelfLoop(NodeId),
    /// The edge already exists.
    DuplicateEdge(NodeId, NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::SelfLoop(n) => write!(f, "self loop on node {n}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a}-{b}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Undirected friendship graph with edge-creation timestamps.
///
/// Nodes are dense indices `0..n`. Adjacency lists are kept in the order the
/// edges were inserted, which the simulator guarantees is chronological; the
/// paper's “first *k* friends (sorted by time)” analyses read adjacency
/// prefixes directly.
///
/// ```
/// use osn_graph::{TemporalGraph, NodeId, Timestamp};
///
/// let mut g = TemporalGraph::with_nodes(3);
/// g.add_edge(NodeId(0), NodeId(1), Timestamp::from_hours(1)).unwrap();
/// g.add_edge(NodeId(0), NodeId(2), Timestamp::from_hours(5)).unwrap();
/// assert!(g.has_edge(NodeId(1), NodeId(0)));
/// assert_eq!(g.degree(NodeId(0)), 2);
/// // Adjacency is chronological: the paper's "first k friends by time".
/// assert_eq!(g.first_k_friends(NodeId(0), 1)[0].node, NodeId(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TemporalGraph {
    adj: Vec<Vec<Neighbor>>,
    edges: Vec<EdgeRecord>,
    edge_set: HashSet<u64, PairBuildHasher>,
}

impl TemporalGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        TemporalGraph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            edge_set: HashSet::default(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Append `n` nodes and return the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = NodeId(self.adj.len() as u32);
        self.adj.resize_with(self.adj.len() + n, Vec::new);
        first
    }

    /// True if `n` is a valid node id.
    #[inline]
    pub(crate) fn contains_node(&self, n: NodeId) -> bool {
        n.index() < self.adj.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Insert an undirected edge `a — b` created at `time`.
    ///
    /// Fails on unknown endpoints, self-loops and duplicates. Callers are
    /// expected to insert edges in nondecreasing time order; this is not
    /// enforced (imported datasets may be unordered) but temporal analyses
    /// assume it per node.
    pub fn add_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        time: Timestamp,
    ) -> Result<EdgeId, GraphError> {
        if !self.contains_node(a) {
            return Err(GraphError::UnknownNode(a));
        }
        if !self.contains_node(b) {
            return Err(GraphError::UnknownNode(b));
        }
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        if !self.edge_set.insert(pack_pair(a, b)) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { a, b, time });
        self.adj[a.index()].push(Neighbor {
            node: b,
            time,
            edge: id,
        });
        self.adj[b.index()].push(Neighbor {
            node: a,
            time,
            edge: id,
        });
        Ok(id)
    }

    /// O(1) membership test for the undirected edge `a — b`.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.edge_set.contains(&pack_pair(a, b))
    }

    /// Adjacency list of `n`, in edge-creation order.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[Neighbor] {
        &self.adj[n.index()]
    }

    /// Degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// The first `k` friends of `n` in chronological order (the paper's
    /// Fig. 4 computes clustering over exactly this prefix with k = 50).
    pub fn first_k_friends(&self, n: NodeId, k: usize) -> &[Neighbor] {
        let a = &self.adj[n.index()];
        &a[..a.len().min(k)]
    }

    /// All edges in global creation order.
    #[inline]
    pub fn edges(&self) -> &[EdgeRecord] {
        &self.edges
    }

    /// Look up one edge record.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        &self.edges[e.index()]
    }

    /// True if `a` and `b` have at least one mutual friend.
    ///
    /// Scans the smaller adjacency list with one packed edge-set probe per
    /// neighbor and stops at the first hit, so it is `O(min(deg a, deg b))`
    /// at worst. A neighbor equal to the other endpoint packs to a
    /// self-loop, which is never stored, so no separate endpoint guard is
    /// needed beyond the one probe. For counts,
    /// [`CsrSnapshot::mutual_friends`](crate::snapshot::CsrSnapshot::mutual_friends)
    /// merges sorted adjacency rows.
    pub fn has_mutual_friend(&self, a: NodeId, b: NodeId) -> bool {
        let (small, other) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[small.index()]
            .iter()
            .any(|nb| self.edge_set.contains(&pack_pair(nb.node, other)))
    }

    /// Sum of degrees (`2 * num_edges`), the `vol(V)` of conductance math.
    pub fn volume(&self) -> usize {
        2 * self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: u64) -> Timestamp {
        Timestamp::from_hours(h)
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraph::new();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.nodes().next().is_none());
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = TemporalGraph::with_nodes(3);
        assert_eq!(g.num_nodes(), 3);
        let e = g.add_edge(NodeId(0), NodeId(1), t(1)).unwrap();
        assert_eq!(e, EdgeId(0));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(2)), 0);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = TemporalGraph::with_nodes(2);
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(1), t(0)),
            Err(GraphError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn rejects_duplicate_both_orientations() {
        let mut g = TemporalGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), t(0)).unwrap();
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), t(1)),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            g.add_edge(NodeId(1), NodeId(0), t(1)),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_unknown_node() {
        let mut g = TemporalGraph::with_nodes(1);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(5), t(0)),
            Err(GraphError::UnknownNode(NodeId(5)))
        );
    }

    #[test]
    fn adjacency_preserves_insertion_order() {
        let mut g = TemporalGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2), t(5)).unwrap();
        g.add_edge(NodeId(0), NodeId(1), t(7)).unwrap();
        g.add_edge(NodeId(0), NodeId(3), t(9)).unwrap();
        let order: Vec<u32> = g.neighbors(NodeId(0)).iter().map(|n| n.node.0).collect();
        assert_eq!(order, vec![2, 1, 3]);
        assert_eq!(g.first_k_friends(NodeId(0), 2).len(), 2);
        assert_eq!(g.first_k_friends(NodeId(0), 10).len(), 3);
    }

    #[test]
    fn mutual_friends_counts_triangles() {
        let mut g = TemporalGraph::with_nodes(5);
        // 0-1, 0-2, 1-2 triangle; 3 friends with 0 and 1 as well.
        g.add_edge(NodeId(0), NodeId(1), t(0)).unwrap();
        g.add_edge(NodeId(0), NodeId(2), t(1)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t(2)).unwrap();
        g.add_edge(NodeId(0), NodeId(3), t(3)).unwrap();
        g.add_edge(NodeId(1), NodeId(3), t(4)).unwrap();
        // Brute force: the neighbor sets' intersection, and the
        // short-circuit test must agree with it.
        let mutual = |a: NodeId, b: NodeId| {
            let count = g
                .neighbors(a)
                .iter()
                .filter(|x| g.neighbors(b).iter().any(|y| y.node == x.node))
                .count();
            assert_eq!(g.has_mutual_friend(a, b), count >= 1, "{a:?},{b:?}");
            count
        };
        assert_eq!(mutual(NodeId(0), NodeId(1)), 2); // 2 and 3
        assert_eq!(mutual(NodeId(0), NodeId(4)), 0);
        assert_eq!(mutual(NodeId(2), NodeId(3)), 2); // 0 and 1
    }

    #[test]
    fn edge_record_other() {
        let r = EdgeRecord {
            a: NodeId(3),
            b: NodeId(7),
            time: t(0),
        };
        assert_eq!(r.other(NodeId(3)), Some(NodeId(7)));
        assert_eq!(r.other(NodeId(7)), Some(NodeId(3)));
        assert_eq!(r.other(NodeId(1)), None);
    }

    #[test]
    fn timestamp_conversions() {
        assert_eq!(Timestamp::from_hours(2).as_secs(), 7200);
        assert_eq!(Timestamp::from_hours(24).as_hours(), 24.0);
        assert_eq!(Timestamp::from_hours_f64(0.5).as_secs(), 1800);
        assert_eq!(Timestamp(100).plus_secs(20).0, 120);
        assert_eq!(Timestamp(u64::MAX).plus_secs(1), Timestamp(u64::MAX));
    }

    #[test]
    fn volume_is_twice_edges() {
        let mut g = TemporalGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), t(0)).unwrap();
        g.add_edge(NodeId(1), NodeId(2), t(0)).unwrap();
        assert_eq!(g.volume(), 4);
    }
}
