//! SumUp (Tran et al., NSDI 2009) — Sybil-resilient vote collection.
//!
//! SumUp collects at most `C_max` votes through the social graph toward a
//! trusted *vote collector*: link capacities form a decreasing *ticket
//! envelope* around the collector (level 0 links carry many tickets,
//! links outside the envelope carry capacity 1), and a vote is accepted
//! only if a unit of flow can be pushed from the voter to the collector.
//! Sybil voters behind a small attack cut can deliver at most one vote per
//! attack edge, no matter how many identities they forge — *if* the cut is
//! small.

use crate::common::{PreparedVerifier, SybilDefense, Verdict};
use osn_graph::bfs;
use osn_graph::maxflow::FlowNetwork;
use osn_graph::{NodeId, TemporalGraph};
use std::collections::VecDeque;

/// SumUp vote collector.
pub struct SumUp {
    /// Maximum votes to collect (`C_max`).
    pub c_max: usize,
}

impl SumUp {
    /// Collector expecting up to `c_max` votes.
    pub fn new(c_max: usize) -> Self {
        SumUp {
            c_max: c_max.max(1),
        }
    }

    /// Build the capacity network around `collector` with SumUp's ticket
    /// envelope: `C_max` tickets start at the collector and are consumed
    /// by the edges of each successive BFS level; an edge at level `l`
    /// (between distance-`l` and distance-`l+1` nodes) carries capacity
    /// `1 + tickets_l / edges_l`; once tickets run out (the envelope
    /// boundary), every edge carries capacity 1. Sybil voters outside the
    /// envelope can thus deliver at most one vote per attack edge.
    fn build_network(&self, g: &TemporalGraph, collector: NodeId) -> FlowNetwork {
        let dist = bfs::distances(g, collector);
        // Count level-crossing edges per level.
        let mut level_edges: Vec<usize> = Vec::new();
        for e in g.edges() {
            if let (Some(x), Some(y)) = (dist[e.a.index()], dist[e.b.index()]) {
                if x != y {
                    let lvl = x.min(y) as usize;
                    if level_edges.len() <= lvl {
                        level_edges.resize(lvl + 1, 0);
                    }
                    level_edges[lvl] += 1;
                }
            }
        }
        // Tickets per level: consume edges_l tickets per level.
        let mut per_edge_bonus: Vec<i64> = Vec::with_capacity(level_edges.len());
        let mut tickets = self.c_max as i64;
        for &edges in &level_edges {
            if tickets <= 0 || edges == 0 {
                per_edge_bonus.push(0);
                continue;
            }
            per_edge_bonus.push((tickets / edges as i64).max(0));
            tickets -= edges as i64;
        }
        let arcs = g.edges().iter().map(|e| {
            let (a, b) = (e.a.index(), e.b.index());
            let cap = match (dist[a], dist[b]) {
                (Some(x), Some(y)) if x != y => {
                    let lvl = x.min(y) as usize;
                    1 + per_edge_bonus.get(lvl).copied().unwrap_or(0)
                }
                _ => 1, // same-level or unreachable edges sit outside the tree
            };
            // One arc pair, `cap` each way: an undirected link.
            (a, b, cap, cap)
        });
        FlowNetwork::from_arcs(g.num_nodes(), arcs)
    }

    /// Build the ticket-envelope network around `collector` once, to
    /// collect any number of voter sets from.
    pub fn collector(&self, g: &TemporalGraph, collector: NodeId) -> VoteCollector {
        VoteCollector {
            net: self.build_network(g, collector),
            collector,
            c_max: self.c_max,
        }
    }

    /// Collect votes from `voters` in order; returns, per voter, whether
    /// the vote was accepted. Flow consumed by earlier voters persists
    /// (capacities are shared), capping total accepted votes.
    pub fn collect_votes(
        &self,
        g: &TemporalGraph,
        collector: NodeId,
        voters: &[NodeId],
    ) -> Vec<bool> {
        self.collector(g, collector).collect_votes(voters)
    }
}

/// SumUp bound to one graph and one collector: the ticket-envelope
/// capacity network, at full capacity between calls.
pub struct VoteCollector {
    net: FlowNetwork,
    collector: NodeId,
    c_max: usize,
}

impl VoteCollector {
    /// Collect votes from `voters` in order, as [`SumUp::collect_votes`]
    /// does. The flow they consumed is handed back before returning, so
    /// the next voter set starts from the same untouched envelope.
    pub fn collect_votes(&mut self, voters: &[NodeId]) -> Vec<bool> {
        let t = self.collector.index();
        let mut search = PathSearch::new(self.net.num_nodes());
        let mut pushed = Vec::new();
        let mut accepted_total = 0usize;
        let accepted = voters
            .iter()
            .map(|&v| {
                if v == self.collector || accepted_total >= self.c_max {
                    return false;
                }
                let flow = search.find(&self.net, v.index(), t);
                if flow {
                    search.push_one(&mut self.net, v.index(), t, &mut pushed);
                    accepted_total += 1;
                }
                flow
            })
            .collect();
        for &arc in pushed.iter().rev() {
            self.net.push_unit(self.net.reverse_arc(arc));
        }
        accepted
    }
}

/// Breadth-first search for an augmenting path, with its state reused
/// across voters: a node counts as visited in the current search when its
/// stamp equals `epoch`, so starting a search is one increment, not an
/// O(n) clear.
struct PathSearch {
    epoch: usize,
    stamp: Vec<usize>,
    parent_arc: Vec<u32>,
    queue: VecDeque<usize>,
}

impl PathSearch {
    fn new(n: usize) -> Self {
        PathSearch {
            epoch: 0,
            stamp: vec![0; n],
            parent_arc: vec![0; n],
            queue: VecDeque::new(),
        }
    }

    /// Whether `t` can be reached from `s` over arcs with residual
    /// capacity. The search stops when `t` is discovered — its parent arc,
    /// and so the tree path to it, is fixed at that moment.
    fn find(&mut self, net: &FlowNetwork, s: usize, t: usize) -> bool {
        self.epoch += 1;
        let epoch = self.epoch;
        self.stamp[s] = epoch;
        self.queue.clear();
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            for a in net.arcs_from(u) {
                let v = net.arc_to(a);
                if self.stamp[v] != epoch && net.arc_cap(a) > 0 {
                    self.stamp[v] = epoch;
                    self.parent_arc[v] = a;
                    if v == t {
                        return true;
                    }
                    self.queue.push_back(v);
                }
            }
        }
        false
    }

    /// Push one unit of flow along the path the last successful
    /// [`find`](Self::find)`(net, s, t)` found, recording the arcs used.
    fn push_one(&self, net: &mut FlowNetwork, s: usize, t: usize, pushed: &mut Vec<usize>) {
        let mut v = t;
        while v != s {
            let a = self.parent_arc[v] as usize;
            net.push_unit(a);
            pushed.push(a);
            v = net.arc_from_endpoint(a);
        }
    }
}

impl SybilDefense for SumUp {
    fn name(&self) -> &'static str {
        "SumUp"
    }

    /// Builds the ticket-envelope network around the verifier-as-collector
    /// once.
    fn prepare<'a>(
        &'a self,
        g: &'a TemporalGraph,
        verifier: NodeId,
    ) -> Box<dyn PreparedVerifier + 'a> {
        Box::new(self.collector(g, verifier))
    }
}

impl PreparedVerifier for VoteCollector {
    /// Single-suspect verdict: can the suspect deliver a vote to the
    /// collector on a fresh network? One vote needs one augmenting path
    /// and consumes nothing the verdict depends on, so the path is only
    /// looked for. (The collector itself cannot vote, a node without edges
    /// has no arc to leave through, and a zero budget admits nobody.)
    fn judge(&self, suspect: NodeId) -> Verdict {
        let (s, t) = (suspect.index(), self.collector.index());
        Verdict::accept_if(
            self.c_max > 0 && s != t && PathSearch::new(self.net.num_nodes()).find(&self.net, s, t),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::injected_cluster_graph;
    use osn_graph::generators;
    use osn_graph::Timestamp;
    use rand::prelude::*;

    #[test]
    fn honest_votes_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(300, 4, Timestamp::ZERO, &mut rng);
        let sumup = SumUp::new(50);
        let voters: Vec<NodeId> = (100..140).map(NodeId).collect();
        let accepted = sumup.collect_votes(&g, NodeId(0), &voters);
        let ok = accepted.iter().filter(|&&a| a).count();
        assert!(ok >= 35, "honest votes accepted: {ok}/40");
    }

    #[test]
    fn sybil_votes_capped_by_attack_cut() {
        let mut rng = StdRng::seed_from_u64(2);
        let attack_edges = 3;
        let (g, first_sybil) = injected_cluster_graph(400, 100, attack_edges, &mut rng);
        let sumup = SumUp::new(60);
        let sybil_voters: Vec<NodeId> = (0..50).map(|i| NodeId(first_sybil.0 + i)).collect();
        let accepted = sumup.collect_votes(&g, NodeId(0), &sybil_voters);
        let ok = accepted.iter().filter(|&&a| a).count();
        // Flow from the Sybil region is bounded by the attack cut capacity:
        // each attack edge sits outside the envelope (capacity 1).
        assert!(
            ok <= attack_edges,
            "sybil votes {ok} must be capped by {attack_edges} attack edges"
        );
    }

    #[test]
    fn vote_budget_enforced() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(200, 4, Timestamp::ZERO, &mut rng);
        let sumup = SumUp::new(5);
        let voters: Vec<NodeId> = (50..150).map(NodeId).collect();
        let accepted = sumup.collect_votes(&g, NodeId(0), &voters);
        assert!(accepted.iter().filter(|&&a| a).count() <= 5);
    }

    #[test]
    fn self_and_isolated_votes_rejected() {
        let mut g = TemporalGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Timestamp::ZERO).unwrap();
        let sumup = SumUp::new(5);
        assert_eq!(sumup.verify(&g, NodeId(0), NodeId(0)), Verdict::Reject);
        assert_eq!(sumup.verify(&g, NodeId(0), NodeId(2)), Verdict::Reject);
        assert_eq!(sumup.verify(&g, NodeId(0), NodeId(1)), Verdict::Accept);
    }
}
