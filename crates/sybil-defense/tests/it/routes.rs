//! Random routes against an independent model of them.
//!
//! `ReferenceRoutes` keeps each node's routing permutation as a `Vec` of
//! its own, drawn by the same `shuffle` calls in node order as
//! `RouteTables::new` makes, and finds the slot a route enters a node
//! through by scanning that node's adjacency for the edge it came along.
//! It shares no layout with the tables, so a permutation filed under the
//! wrong node or slot, or a wrong reverse position, shows as a different
//! route. `prepared.rs`'s SybilGuard reference walks its routes here.

use osn_graph::walks::{RouteHop, RouteStart, RouteTables};
use osn_graph::{generators, NodeId, TemporalGraph, Timestamp};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sybil_defense::common::injected_cluster_graph;

/// Per-node routing permutations, one `Vec` each.
pub struct ReferenceRoutes {
    perm: Vec<Vec<u32>>,
}

impl ReferenceRoutes {
    /// The permutations `RouteTables::new(g, rng)` draws: node by node,
    /// one `shuffle` of `0..degree` each.
    pub fn new<R: Rng + ?Sized>(g: &TemporalGraph, rng: &mut R) -> Self {
        let perm = g
            .nodes()
            .map(|n| {
                let mut p: Vec<u32> = (0..g.degree(n) as u32).collect();
                p.shuffle(rng);
                p
            })
            .collect();
        ReferenceRoutes { perm }
    }

    /// The `len` hops of the route from `start`; none if the start is
    /// isolated.
    pub fn hops(&self, g: &TemporalGraph, start: RouteStart, len: usize) -> Vec<RouteHop> {
        let mut hops = Vec::new();
        if g.degree(start.node) == 0 {
            return hops;
        }
        let (mut cur, mut out_pos) = (start.node, start.first_edge);
        for _ in 0..len {
            let next = g.neighbors(cur)[out_pos];
            hops.push(RouteHop {
                from: cur,
                to: next.node,
                edge: next.edge,
            });
            let in_pos = g
                .neighbors(next.node)
                .iter()
                .position(|x| x.edge == next.edge)
                .expect("an edge is in both endpoints' adjacency");
            out_pos = self.perm[next.node.index()][in_pos] as usize;
            cur = next.node;
        }
        hops
    }

    /// The route's nodes, start first.
    pub fn route(&self, g: &TemporalGraph, start: RouteStart, len: usize) -> Vec<NodeId> {
        let hops = self.hops(g, start, len);
        std::iter::once(start.node)
            .chain(hops.iter().map(|hop| hop.to))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every route from every slot of every node, at lengths from zero to
    /// beyond the graph's size, is the model's: hop by hop, node by node
    /// and by its tail; and both drew the same words.
    #[test]
    fn route_tables_walk_the_reference_routes(
        seed in 0u64..1_000_000,
        injected in any::<bool>(),
        n in 20usize..90,
        long in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = if injected {
            injected_cluster_graph(n, n / 3, 4, &mut rng).0
        } else {
            generators::barabasi_albert(n, 1 + (seed % 5) as usize, Timestamp::ZERO, &mut rng)
        };
        let isolated = g.add_nodes(1);
        let mut drawn = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut modelled = drawn.clone();
        let tables = RouteTables::new(&g, &mut drawn);
        let reference = ReferenceRoutes::new(&g, &mut modelled);
        prop_assert_eq!(drawn.next_u64(), modelled.next_u64());
        for node in g.nodes() {
            // An isolated start has no slot; its routes are empty anyway.
            for first_edge in 0..g.degree(node).max(usize::from(node == isolated)) {
                let start = RouteStart { node, first_edge };
                for len in [0, 1, 2, 7, long] {
                    let want = reference.hops(&g, start, len);
                    let hops: Vec<RouteHop> = tables.hops(start, len).collect();
                    prop_assert_eq!(&hops, &want, "{:?} len {}", start, len);
                    let nodes = std::iter::once(node).chain(want.iter().map(|hop| hop.to));
                    prop_assert_eq!(tables.route(start, len), nodes.collect::<Vec<_>>());
                    prop_assert_eq!(
                        tables.route_tail(start, len),
                        want.last().map(|hop| (hop.from, hop.to))
                    );
                }
            }
        }
    }
}
