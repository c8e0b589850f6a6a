//! Random walks and random *routes*.
//!
//! SybilGuard and SybilLimit are built on *random routes*: each node fixes a
//! random one-to-one mapping (a permutation) between its incident edges, so
//! that a route entering through edge `e` always leaves through `π(e)`.
//! Routes are thus deterministic given the tables, and two routes that ever
//! traverse the same directed edge converge forever after — the property
//! both protocols exploit. Plain uniform random walks are also provided for
//! SybilInfer and general diagnostics.

use crate::graph::{EdgeId, NodeId, TemporalGraph};
use rand::prelude::*;

/// A plain uniform random walk of `len` steps starting at `start`.
///
/// Returns the visited nodes including the start (`len + 1` entries), or
/// just `[start]` if the start is isolated (walks cannot leave an isolated
/// node; they stall and are truncated).
pub fn random_walk<R: Rng + ?Sized>(
    g: &TemporalGraph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(len + 1);
    path.push(start);
    let mut cur = start;
    for _ in 0..len {
        let nb = g.neighbors(cur);
        if nb.is_empty() {
            break;
        }
        cur = nb[rng.random_range(0..nb.len())].node;
        path.push(cur);
    }
    path
}

/// The stationary-distribution-respecting walk endpoint sampler: performs a
/// walk of `len` steps and returns the final node.
pub fn walk_endpoint<R: Rng + ?Sized>(
    g: &TemporalGraph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> NodeId {
    random_walk(g, start, len, rng).last().copied().unwrap_or(start)
}

/// Per-node random routing tables for SybilGuard/SybilLimit random routes.
///
/// `perm[v][i] = j` means a route entering node `v` through the edge at
/// adjacency position `i` leaves through the edge at position `j`. Each
/// `perm[v]` is a uniform random permutation drawn at construction time.
#[derive(Clone, Debug)]
pub struct RouteTables {
    perm: Vec<Vec<u32>>,
    /// For every edge id: position of the edge within `a`'s and `b`'s
    /// adjacency lists, enabling O(1) reverse-position lookup during routing.
    edge_pos: Vec<(u32, u32)>,
}

/// A directed step used to seed a route: the node we start from and the
/// adjacency position of the first edge to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteStart {
    /// Starting node.
    pub node: NodeId,
    /// Index into `node`'s adjacency list for the first hop.
    pub first_edge: usize,
}

/// One hop of a random route: the undirected edge `edge`, traversed from
/// `from` to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteHop {
    /// Node the hop leaves.
    pub from: NodeId,
    /// Node the hop enters.
    pub to: NodeId,
    /// The edge traversed.
    pub edge: EdgeId,
}

/// Iterator over a route's hops; see [`RouteTables::hops`].
#[derive(Clone, Debug)]
pub struct RouteHops<'a> {
    tables: &'a RouteTables,
    g: &'a TemporalGraph,
    cur: NodeId,
    /// Adjacency position in `cur` of the next edge to take.
    out_pos: usize,
    remaining: usize,
}

impl Iterator for RouteHops<'_> {
    type Item = RouteHop;

    fn next(&mut self) -> Option<RouteHop> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let next = self.g.neighbors(self.cur)[self.out_pos];
        let hop = RouteHop {
            from: self.cur,
            to: next.node,
            edge: next.edge,
        };
        if self.remaining > 0 {
            let in_pos = self.tables.pos_at(self.g, next.edge, next.node);
            self.out_pos = self.tables.perm[next.node.index()][in_pos] as usize;
        }
        self.cur = next.node;
        Some(hop)
    }
}

impl RouteTables {
    /// Draw fresh random routing tables for `g`.
    pub fn new<R: Rng + ?Sized>(g: &TemporalGraph, rng: &mut R) -> Self {
        let mut perm = Vec::with_capacity(g.num_nodes());
        for n in g.nodes() {
            let d = g.degree(n);
            let mut p: Vec<u32> = (0..d as u32).collect();
            p.shuffle(rng);
            perm.push(p);
        }
        let mut edge_pos = vec![(u32::MAX, u32::MAX); g.num_edges()];
        for n in g.nodes() {
            for (i, nb) in g.neighbors(n).iter().enumerate() {
                let e = nb.edge.index();
                let rec = g.edge(nb.edge);
                if rec.a == n {
                    edge_pos[e].0 = i as u32;
                } else {
                    edge_pos[e].1 = i as u32;
                }
            }
        }
        RouteTables { perm, edge_pos }
    }

    /// Position of edge `e` in the adjacency list of endpoint `n`.
    fn pos_at(&self, g: &TemporalGraph, e: EdgeId, n: NodeId) -> usize {
        let rec = g.edge(e);
        let (pa, pb) = self.edge_pos[e.index()];
        if rec.a == n {
            pa as usize
        } else {
            debug_assert_eq!(rec.b, n);
            pb as usize
        }
    }

    /// The hops of the random route of `len` hops from `start`, one at a
    /// time and without materializing the route (nothing is allocated).
    ///
    /// Empty if the start is isolated or `len == 0`. Routes are fully
    /// deterministic: the same `start` always produces the same hops for
    /// fixed tables.
    pub fn hops<'a>(
        &'a self,
        g: &'a TemporalGraph,
        start: RouteStart,
        len: usize,
    ) -> RouteHops<'a> {
        let isolated = g.neighbors(start.node).is_empty();
        debug_assert!(isolated || start.first_edge < g.degree(start.node));
        RouteHops {
            tables: self,
            g,
            cur: start.node,
            out_pos: start.first_edge,
            remaining: if isolated { 0 } else { len },
        }
    }

    /// Walk a random route of `len` hops from `start`.
    ///
    /// Returns the node sequence (start first, ≤ `len + 1` entries; shorter
    /// only if the start is isolated) — [`Self::hops`], collected.
    pub fn route(&self, g: &TemporalGraph, start: RouteStart, len: usize) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(len + 1);
        path.push(start.node);
        path.extend(self.hops(g, start, len).map(|hop| hop.to));
        path
    }

    /// The directed edge (`tail` of the route) traversed on the final hop of
    /// a route, as `(from, to)` — SybilLimit intersects on these tails.
    pub fn route_tail(
        &self,
        g: &TemporalGraph,
        start: RouteStart,
        len: usize,
    ) -> Option<(NodeId, NodeId)> {
        self.hops(g, start, len)
            .last()
            .map(|hop| (hop.from, hop.to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Timestamp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cycle_graph(n: usize) -> TemporalGraph {
        let mut g = TemporalGraph::with_nodes(n);
        for i in 0..n {
            g.add_edge(
                NodeId(i as u32),
                NodeId(((i + 1) % n) as u32),
                Timestamp::ZERO,
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn walk_length_and_adjacency() {
        let g = cycle_graph(6);
        let mut rng = StdRng::seed_from_u64(7);
        let path = random_walk(&g, NodeId(0), 20, &mut rng);
        assert_eq!(path.len(), 21);
        for w in path.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "walk must follow edges");
        }
    }

    #[test]
    fn walk_on_isolated_node_stalls() {
        let g = TemporalGraph::with_nodes(1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_walk(&g, NodeId(0), 5, &mut rng), vec![NodeId(0)]);
        assert_eq!(walk_endpoint(&g, NodeId(0), 5, &mut rng), NodeId(0));
    }

    #[test]
    fn routes_are_deterministic() {
        let g = cycle_graph(8);
        let mut rng = StdRng::seed_from_u64(3);
        let rt = RouteTables::new(&g, &mut rng);
        let s = RouteStart {
            node: NodeId(0),
            first_edge: 0,
        };
        let r1 = rt.route(&g, s, 10);
        let r2 = rt.route(&g, s, 10);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 11);
        for w in r1.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    #[test]
    fn routes_entering_same_directed_edge_converge() {
        // Back-to-back property: once two routes traverse the same directed
        // edge they coincide ever after.
        let g = cycle_graph(10);
        let mut rng = StdRng::seed_from_u64(11);
        let rt = RouteTables::new(&g, &mut rng);
        let len = 12;
        let ra = rt.route(
            &g,
            RouteStart {
                node: NodeId(0),
                first_edge: 0,
            },
            len,
        );
        let rb = rt.route(
            &g,
            RouteStart {
                node: NodeId(0),
                first_edge: 1,
            },
            len,
        );
        // Find the first shared directed edge, then require suffix equality.
        let dir_edges = |p: &[NodeId]| -> Vec<(NodeId, NodeId)> {
            p.windows(2).map(|w| (w[0], w[1])).collect()
        };
        let ea = dir_edges(&ra);
        let eb = dir_edges(&rb);
        for (i, sa) in ea.iter().enumerate() {
            if let Some(j) = eb.iter().position(|sb| sb == sa) {
                let rest = (len - 1 - i.max(j)).min(ea.len() - 1 - i).min(eb.len() - 1 - j);
                for k in 0..rest {
                    assert_eq!(ea[i + k], eb[j + k], "routes must converge after shared edge");
                }
                return;
            }
        }
        // On a small cycle, sharing is essentially guaranteed; if not, the
        // test is vacuous but should not fail.
    }

    #[test]
    fn route_tail_returns_last_hop() {
        let g = cycle_graph(5);
        let mut rng = StdRng::seed_from_u64(5);
        let rt = RouteTables::new(&g, &mut rng);
        let s = RouteStart {
            node: NodeId(2),
            first_edge: 0,
        };
        let p = rt.route(&g, s, 4);
        let tail = rt.route_tail(&g, s, 4).unwrap();
        assert_eq!(tail, (p[p.len() - 2], p[p.len() - 1]));
    }

    #[test]
    fn hops_are_the_routes_consecutive_pairs() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = crate::generators::barabasi_albert(60, 3, Timestamp::ZERO, &mut rng);
        let rt = RouteTables::new(&g, &mut rng);
        for node in g.nodes() {
            for first_edge in 0..g.degree(node) {
                let s = RouteStart { node, first_edge };
                let path = rt.route(&g, s, 9);
                let hops: Vec<RouteHop> = rt.hops(&g, s, 9).collect();
                assert_eq!(hops.len(), 9);
                for (hop, w) in hops.iter().zip(path.windows(2)) {
                    assert_eq!((hop.from, hop.to), (w[0], w[1]));
                    let rec = g.edge(hop.edge);
                    assert!(
                        rec.other(hop.from) == Some(hop.to),
                        "edge must join the hop"
                    );
                }
            }
        }
        let isolated = TemporalGraph::with_nodes(1);
        let rt = RouteTables::new(&isolated, &mut rng);
        let s = RouteStart {
            node: NodeId(0),
            first_edge: 0,
        };
        assert_eq!(rt.hops(&isolated, s, 5).count(), 0);
    }

    #[test]
    fn route_zero_length() {
        let g = cycle_graph(4);
        let mut rng = StdRng::seed_from_u64(9);
        let rt = RouteTables::new(&g, &mut rng);
        let p = rt.route(
            &g,
            RouteStart {
                node: NodeId(1),
                first_edge: 0,
            },
            0,
        );
        assert_eq!(p, vec![NodeId(1)]);
        assert!(rt
            .route_tail(
                &g,
                RouteStart {
                    node: NodeId(1),
                    first_edge: 0
                },
                0
            )
            .is_none());
    }
}
