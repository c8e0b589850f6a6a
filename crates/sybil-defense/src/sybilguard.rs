//! SybilGuard (Yu et al., SIGCOMM 2006).
//!
//! Every node fixes a random routing permutation per incident edge;
//! *random routes* of length `w ≈ Θ(√n log n)` walked through these
//! tables have the convergence property: routes crossing the same
//! directed edge coincide afterwards. An honest verifier accepts a suspect
//! when enough of the suspect's routes **intersect** the verifier's
//! routes (in nodes). With few attack edges, Sybil routes rarely escape
//! the Sybil region, so they rarely intersect honest routes.
//!
//! Simplifications vs. the full protocol (documented per DESIGN.md): a
//! single global table set stands in for the per-node exchanged
//! witnesses, and the majority rule is a configurable fraction.

use crate::common::{PreparedVerifier, RejectAll, SybilDefense, Verdict};
use osn_graph::walks::{RouteHops, RouteStart, RouteTables};
use osn_graph::{EdgeId, NodeId, TemporalGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SybilGuard verifier.
pub struct SybilGuard {
    tables: RouteTables,
    route_len: usize,
    /// Fraction of suspect routes that must intersect the verifier's.
    pub accept_fraction: f64,
}

impl SybilGuard {
    /// Set up routing tables for `g`. `route_len = None` uses the
    /// `√(m)·ln(n)`-flavored default the protocol suggests, capped for
    /// tractability.
    pub fn new(g: &TemporalGraph, route_len: Option<usize>, seed: u64) -> Self {
        let n = g.num_nodes().max(2) as f64;
        let default_len = (n.sqrt() * n.ln() * 0.5).ceil() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        SybilGuard {
            tables: RouteTables::new(g, &mut rng),
            route_len: route_len.unwrap_or(default_len).clamp(4, 5_000),
            accept_fraction: 0.5,
        }
    }

    /// The route length in use.
    pub fn route_len(&self) -> usize {
        self.route_len
    }

    /// The hops of `who`'s route through its `first_edge`-th adjacency slot.
    fn route_hops<'a>(
        &'a self,
        g: &'a TemporalGraph,
        who: NodeId,
        first_edge: usize,
    ) -> RouteHops<'a> {
        let start = RouteStart {
            node: who,
            first_edge,
        };
        self.tables.hops(g, start, self.route_len)
    }
}

impl SybilDefense for SybilGuard {
    fn name(&self) -> &'static str {
        "SybilGuard"
    }

    /// Walks the verifier's routes (one per incident edge) once and
    /// indexes them by the edges they cross.
    fn prepare<'a>(
        &'a self,
        g: &'a TemporalGraph,
        verifier: NodeId,
    ) -> Box<dyn PreparedVerifier + 'a> {
        let routes = g.degree(verifier);
        if routes == 0 {
            return Box::new(RejectAll); // disconnected nodes are unverifiable
        }
        let mut crossing: Vec<(EdgeId, u32)> = (0..routes)
            .flat_map(|route| {
                self.route_hops(g, verifier, route)
                    .map(move |hop| (hop.edge, route as u32))
            })
            .collect();
        crossing.sort_unstable();
        crossing.dedup();
        Box::new(VerifierRoutes {
            guard: self,
            g,
            routes,
            crossing,
        })
    }
}

/// SybilGuard bound to one verifier: every (edge, verifier route crossing
/// it) pair, sorted, over the verifier's `routes` routes.
struct VerifierRoutes<'a> {
    guard: &'a SybilGuard,
    g: &'a TemporalGraph,
    routes: usize,
    crossing: Vec<(EdgeId, u32)>,
}

impl PreparedVerifier for VerifierRoutes<'_> {
    /// SybilGuard's acceptance rule, edge-intersection variant: the
    /// verifier accepts when at least `accept_fraction` of **its own**
    /// routes share an edge with the suspect's routes. Judging from the
    /// verifier's side keeps a handful of escaped routes (through attack
    /// edges) from blanketing a small Sybil region.
    fn judge(&self, suspect: NodeId) -> Verdict {
        let sd = self.g.degree(suspect);
        if sd == 0 {
            return Verdict::Reject; // disconnected nodes are unverifiable
        }
        let enough = |routes_hit: usize| {
            routes_hit as f64 >= self.guard.accept_fraction * self.routes as f64
        };
        // Mark the verifier routes the suspect's routes touch. The count
        // only grows, so the walk stops as soon as it is enough.
        let mut hit = vec![false; self.routes];
        let mut intersecting = 0usize;
        for e in 0..sd {
            if enough(intersecting) {
                break;
            }
            for hop in self.guard.route_hops(self.g, suspect, e) {
                let first = self.crossing.partition_point(|&(edge, _)| edge < hop.edge);
                for &(edge, route) in &self.crossing[first..] {
                    if edge != hop.edge {
                        break;
                    }
                    if !std::mem::replace(&mut hit[route as usize], true) {
                        intersecting += 1;
                    }
                }
            }
        }
        Verdict::accept_if(enough(intersecting))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{evaluate_defense, injected_cluster_graph};
    use osn_graph::generators;
    use osn_graph::Timestamp;

    #[test]
    fn honest_nodes_verify_each_other() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(400, 4, Timestamp::ZERO, &mut rng);
        let sg = SybilGuard::new(&g, Some(60), 7);
        let mut accepted = 0;
        let total = 30;
        for i in 0..total {
            if sg.verify(&g, NodeId(0), NodeId(50 + i)) == Verdict::Accept {
                accepted += 1;
            }
        }
        assert!(
            accepted * 10 >= total * 8,
            "honest acceptance too low: {accepted}/{total}"
        );
    }

    #[test]
    fn rejects_injected_sybil_cluster() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, first_sybil) = injected_cluster_graph(600, 80, 4, &mut rng);
        let sg = SybilGuard::new(&g, Some(40), 3);
        let sybils: Vec<NodeId> = (0..20).map(|i| NodeId(first_sybil.0 + i)).collect();
        let honest: Vec<NodeId> = (10..30).map(NodeId).collect();
        let eval = evaluate_defense(&sg, &g, NodeId(0), &sybils, &honest);
        assert!(
            eval.sybil_acceptance_rate() < 0.5,
            "sybil acceptance {} should be low on injected clusters",
            eval.sybil_acceptance_rate()
        );
        assert!(
            eval.honest_rejection_rate() < 0.45,
            "honest rejection {} too high",
            eval.honest_rejection_rate()
        );
    }

    #[test]
    fn disconnected_suspect_rejected() {
        let mut g = TemporalGraph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1), Timestamp::ZERO).unwrap();
        let sg = SybilGuard::new(&g, Some(8), 1);
        assert_eq!(sg.verify(&g, NodeId(0), NodeId(4)), Verdict::Reject);
        assert_eq!(sg.verify(&g, NodeId(4), NodeId(0)), Verdict::Reject);
    }

    #[test]
    fn default_route_length_scales() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(100, 3, Timestamp::ZERO, &mut rng);
        let sg = SybilGuard::new(&g, None, 1);
        assert!(sg.route_len() >= 4);
        assert!(sg.route_len() <= 5000);
    }
}
