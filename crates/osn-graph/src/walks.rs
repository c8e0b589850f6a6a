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
/// walk of `len` steps and returns the final node — the last entry of
/// [`random_walk`] on the same draws, without keeping the path.
pub fn walk_endpoint<R: Rng + ?Sized>(
    g: &TemporalGraph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> NodeId {
    let mut cur = start;
    for _ in 0..len {
        let nb = g.neighbors(cur);
        if nb.is_empty() {
            break;
        }
        cur = nb[rng.random_range(0..nb.len())].node;
    }
    cur
}

/// `g`'s adjacency as one flat array of *slots*, the substrate random
/// routes walk: node `v`'s row is the slot range [`row`](Self::row)`(v)`,
/// whose `i`-th slot stands for `g.neighbors(v)[i]`. Each slot holds the
/// neighbour it leads to and the slot the same edge has in that
/// neighbour's row, so a route finds the slot it enters through beside
/// the one it left by, with no lookup by edge.
#[derive(Clone, Debug)]
pub struct RouteSlots {
    first: Vec<u32>, // per node: start of its row; `first[n]` ends the last
    slots: Vec<Slot>,
}

/// One adjacency slot: where it leads, and its edge's slot in that row.
#[derive(Clone, Copy, Debug)]
struct Slot {
    to: u32,
    back: u32,
}

impl RouteSlots {
    /// The slots of `g`'s adjacency, in `neighbors` order.
    pub fn new(g: &TemporalGraph) -> Self {
        let mut first = Vec::with_capacity(g.num_nodes() + 1);
        first.push(0u32);
        for n in g.nodes() {
            first.push(first[n.index()] + g.degree(n) as u32);
        }
        let len = first[g.num_nodes()] as usize;
        let mut slots = Vec::with_capacity(len);
        // The first slot seen of each edge, until its other end pairs it.
        let mut seen = vec![u32::MAX; g.num_edges()];
        for n in g.nodes() {
            for nb in g.neighbors(n) {
                let s = slots.len() as u32;
                let other = std::mem::replace(&mut seen[nb.edge.index()], s);
                slots.push(Slot {
                    to: nb.node.0,
                    back: other,
                });
                if other != u32::MAX {
                    slots[other as usize].back = s;
                }
            }
        }
        RouteSlots { first, slots }
    }

    /// The slots of `v`'s row.
    #[inline]
    pub fn row(&self, v: NodeId) -> std::ops::Range<usize> {
        debug_assert!(v.index() + 1 < self.first.len(), "node out of range");
        self.first[v.index()] as usize..self.first[v.index() + 1] as usize
    }

    /// Where slot `s` leads: the neighbour, and the slot its edge has in
    /// the neighbour's row.
    #[inline]
    pub fn hop(&self, s: usize) -> (NodeId, usize) {
        let slot = self.slots[s];
        (NodeId(slot.to), slot.back as usize)
    }
}

/// Per-node random routing tables for SybilGuard's random routes, over
/// `g`'s [`RouteSlots`]. (SybilLimit derives a permutation per route
/// instance on demand and walks the slots itself.)
///
/// For every slot `s` of node `v`'s row, `perm[s]` is the slot a route
/// entering `v` through `s` leaves by. Each row of `perm` is a uniform
/// random permutation of the row, drawn at construction time.
#[derive(Clone, Debug)]
pub struct RouteTables {
    slots: RouteSlots,
    edges: Vec<EdgeId>, // per slot: the edge it stands for
    perm: Vec<u32>,
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
    cur: NodeId,
    /// The slot of `cur`'s row the next hop leaves by.
    out: usize,
    remaining: usize,
}

impl Iterator for RouteHops<'_> {
    type Item = RouteHop;

    #[inline]
    fn next(&mut self) -> Option<RouteHop> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (to, back) = self.tables.slots.hop(self.out);
        let hop = RouteHop {
            from: self.cur,
            to,
            edge: self.tables.edges[self.out],
        };
        self.out = self.tables.perm[back] as usize;
        self.cur = to;
        Some(hop)
    }
}

impl RouteTables {
    /// Draw fresh random routing tables for `g`: one `shuffle` of each
    /// node's row, in node order.
    pub fn new<R: Rng + ?Sized>(g: &TemporalGraph, rng: &mut R) -> Self {
        let slots = RouteSlots::new(g);
        let edges = g.nodes().flat_map(|n| g.neighbors(n)).map(|nb| nb.edge);
        let mut perm: Vec<u32> = (0..slots.slots.len() as u32).collect();
        for n in g.nodes() {
            perm[slots.row(n)].shuffle(rng);
        }
        RouteTables {
            slots,
            edges: edges.collect(),
            perm,
        }
    }

    /// The hops of the random route of `len` hops from `start`, one at a
    /// time and without materializing the route (nothing is allocated).
    ///
    /// Empty if the start is isolated or `len == 0`. Routes are fully
    /// deterministic: the same `start` always produces the same hops for
    /// fixed tables.
    pub fn hops(&self, start: RouteStart, len: usize) -> RouteHops<'_> {
        let row = self.slots.row(start.node);
        debug_assert!(row.is_empty() || start.first_edge < row.len());
        RouteHops {
            tables: self,
            cur: start.node,
            out: row.start + start.first_edge,
            remaining: if row.is_empty() { 0 } else { len },
        }
    }

    /// Walk a random route of `len` hops from `start`.
    ///
    /// Returns the node sequence (start first, ≤ `len + 1` entries; shorter
    /// only if the start is isolated) — [`Self::hops`], collected.
    pub fn route(&self, start: RouteStart, len: usize) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(len + 1);
        path.push(start.node);
        path.extend(self.hops(start, len).map(|hop| hop.to));
        path
    }

    /// The directed edge (`tail` of the route) traversed on the final hop of
    /// a route, as `(from, to)` — SybilLimit intersects on these tails.
    pub fn route_tail(&self, start: RouteStart, len: usize) -> Option<(NodeId, NodeId)> {
        self.hops(start, len).last().map(|hop| (hop.from, hop.to))
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
    fn walk_endpoint_is_the_walks_last_node_on_the_same_draws() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = crate::generators::barabasi_albert(40, 2, Timestamp::ZERO, &mut rng);
        let isolated = g.add_nodes(1);
        let starts = [
            (NodeId(0), 0),
            (NodeId(3), 1),
            (NodeId(17), 9),
            (isolated, 4),
        ];
        for (start, len) in starts {
            let mut a = StdRng::seed_from_u64(len as u64);
            let mut b = a.clone();
            for _ in 0..50 {
                let path = random_walk(&g, start, len, &mut a);
                assert_eq!(walk_endpoint(&g, start, len, &mut b), *path.last().unwrap());
            }
            // Both consumed the same draws.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn slots_are_the_adjacency_and_pair_each_edge_with_its_reverse() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut g = crate::generators::barabasi_albert(50, 3, Timestamp::ZERO, &mut rng);
        let isolated = g.add_nodes(1);
        let slots = RouteSlots::new(&g);
        assert!(slots.row(isolated).is_empty());
        for n in g.nodes() {
            let row = slots.row(n);
            assert_eq!(row.len(), g.degree(n));
            for (s, nb) in row.zip(g.neighbors(n)) {
                let (to, back) = slots.hop(s);
                assert_eq!(to, nb.node);
                let back_pos = back - slots.row(to).start;
                assert_eq!(g.neighbors(to)[back_pos].edge, nb.edge);
                assert_eq!(slots.hop(back), (n, s));
            }
        }
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
        let r1 = rt.route(s, 10);
        let r2 = rt.route(s, 10);
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
            RouteStart {
                node: NodeId(0),
                first_edge: 0,
            },
            len,
        );
        let rb = rt.route(
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
                let rest = (len - 1 - i.max(j))
                    .min(ea.len() - 1 - i)
                    .min(eb.len() - 1 - j);
                for k in 0..rest {
                    assert_eq!(
                        ea[i + k],
                        eb[j + k],
                        "routes must converge after shared edge"
                    );
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
        let p = rt.route(s, 4);
        let tail = rt.route_tail(s, 4).unwrap();
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
                let path = rt.route(s, 9);
                let hops: Vec<RouteHop> = rt.hops(s, 9).collect();
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
        assert_eq!(rt.hops(s, 5).count(), 0);
    }

    #[test]
    fn route_zero_length() {
        let g = cycle_graph(4);
        let mut rng = StdRng::seed_from_u64(9);
        let rt = RouteTables::new(&g, &mut rng);
        let p = rt.route(
            RouteStart {
                node: NodeId(1),
                first_edge: 0,
            },
            0,
        );
        assert_eq!(p, vec![NodeId(1)]);
        assert!(rt
            .route_tail(
                RouteStart {
                    node: NodeId(1),
                    first_edge: 0
                },
                0
            )
            .is_none());
    }
}
