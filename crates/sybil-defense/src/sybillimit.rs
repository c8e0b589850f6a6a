//! SybilLimit (Yu et al., IEEE S&P 2008).
//!
//! SybilLimit replaces SybilGuard's one long route with `r = Θ(√m)` short
//! route *instances* of length `w = Θ(log n)` each, and accepts a suspect
//! when enough instances' route **tails** (final directed edges) intersect
//! the verifier's tails. With `g` attack edges, at most `O(g · w)` Sybil
//! tails can land on honest edges, bounding accepted Sybils per attack
//! edge — *if* Sybils actually sit behind a small cut.
//!
//! Instead of materializing `r` full routing-table sets (quadratic
//! memory), each instance derives its per-node permutation on demand from
//! a seed (deterministic, stateless) — the same trick a decentralized node
//! would use with a keyed PRF. The balance condition is simplified to a
//! per-tail load cap.
//!
//! Only the slot a route enters through is ever read from a permutation,
//! so each hop runs the shuffle just far enough to fix that slot (see
//! `shuffled_slot`). The verifier's tails are walked once per prepared
//! verifier; judging a suspect walks the suspect's routes only.

use crate::common::{PreparedVerifier, RejectAll, SybilDefense, Verdict};
use osn_graph::{NodeId, TemporalGraph};
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// SybilLimit verifier.
pub struct SybilLimit {
    /// Number of route instances `r`.
    pub instances: usize,
    /// Route length `w`.
    pub route_len: usize,
    /// Minimum tail intersections for acceptance (the protocol requires at
    /// least one; the expected count for honest pairs is `r²/2m` ≈ 8 with
    /// the default `r = 4√m`).
    pub min_intersections: usize,
    seed: u64,
}

impl SybilLimit {
    /// Configure for graph `g`: `r ≈ r0·√m` (capped) and `w ≈ 2·ln n`.
    pub fn new(g: &TemporalGraph, seed: u64) -> Self {
        let m = g.num_edges().max(1) as f64;
        let n = g.num_nodes().max(2) as f64;
        let instances = ((4.0 * m.sqrt()) as usize).clamp(32, 4000);
        // Honest pairs expect ~r²/2m tail collisions; requiring a quarter
        // of that keeps honest acceptance high while filtering suspects
        // whose tails rarely reach honest edges.
        let expected = (instances * instances) as f64 / (2.0 * m);
        SybilLimit {
            instances,
            route_len: ((2.0 * n.ln()).ceil() as usize).max(4),
            min_intersections: ((expected / 4.0).round() as usize).max(1),
            seed,
        }
    }

    /// Stateless per-instance permutation: the out-position for a route
    /// entering `node` at `in_pos` under instance `inst`. `perm` is scratch
    /// (its contents on entry are irrelevant).
    fn out_pos(
        &self,
        node: NodeId,
        degree: usize,
        in_pos: usize,
        inst: usize,
        perm: &mut Vec<u32>,
    ) -> usize {
        // Derive the node's permutation for this instance from a seed.
        let node_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node.0 as u64) << 20)
            .wrapping_add(inst as u64);
        shuffled_slot(&mut StdRng::seed_from_u64(node_seed), degree, in_pos, perm)
    }

    /// The tail (final directed edge) of the instance-`inst` route leaving
    /// `who` through its `first_edge`-th adjacency slot.
    fn route_tail(
        &self,
        g: &TemporalGraph,
        who: NodeId,
        first_edge: usize,
        inst: usize,
        perm: &mut Vec<u32>,
    ) -> Option<(NodeId, NodeId)> {
        let nb = g.neighbors(who);
        if nb.is_empty() {
            return None;
        }
        let mut prev = who;
        let mut edge = nb[first_edge].edge;
        let mut cur = nb[first_edge].node;
        for _ in 1..self.route_len {
            let d = g.degree(cur);
            // Position of the incoming edge within cur's adjacency. The
            // edge was taken from the adjacency list one hop back, so a
            // miss means the graph is inconsistent — abandon the route.
            let in_pos = g.neighbors(cur).iter().position(|x| x.edge == edge)?;
            let out = self.out_pos(cur, d, in_pos, inst, perm);
            let next = g.neighbors(cur)[out];
            prev = cur;
            edge = next.edge;
            cur = next.node;
        }
        Some((prev, cur))
    }

    /// One route tail per instance for `who`, in instance order (the
    /// protocol runs one instance per edge slot in rotation); abandoned
    /// routes are skipped. `who` must have at least one edge.
    fn tails<'a>(
        &'a self,
        g: &'a TemporalGraph,
        who: NodeId,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        let d = g.degree(who);
        let mut perm = Vec::new();
        (0..self.instances)
            .filter_map(move |inst| self.route_tail(g, who, inst % d, inst, &mut perm))
    }
}

/// `perm[in_pos]` of the Fisher–Yates shuffle of `0..degree` that
/// `SliceRandom::shuffle` would draw from `rng`, stopping early: the
/// shuffle fixes slots from the top down (step `i` swaps slot `i` with a
/// slot `≤ i` and never touches `i` again), so once step `in_pos` has run
/// the wanted slot is final and the remaining draws cannot change it.
fn shuffled_slot(rng: &mut StdRng, degree: usize, in_pos: usize, perm: &mut Vec<u32>) -> usize {
    debug_assert!(in_pos < degree);
    perm.clear();
    perm.extend(0..degree as u32);
    for i in (in_pos.max(1)..degree).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm[in_pos] as usize
}

impl SybilDefense for SybilLimit {
    fn name(&self) -> &'static str {
        "SybilLimit"
    }

    /// Walks the verifier's `r` routes once and keeps its tail multiset.
    fn prepare<'a>(
        &'a self,
        g: &'a TemporalGraph,
        verifier: NodeId,
    ) -> Box<dyn PreparedVerifier + 'a> {
        if g.degree(verifier) == 0 {
            return Box::new(RejectAll);
        }
        // Balance condition (simplified): each verifier tail admits a
        // bounded number of suspect intersections.
        let mut tail_caps = HashMap::new();
        for tail in self.tails(g, verifier) {
            *tail_caps.entry(tail).or_insert(0) += 2;
        }
        Box::new(VerifierTails {
            limit: self,
            g,
            tail_caps,
        })
    }
}

/// SybilLimit bound to one verifier: how many suspect intersections each
/// of the verifier's tails still admits.
struct VerifierTails<'a> {
    limit: &'a SybilLimit,
    g: &'a TemporalGraph,
    tail_caps: HashMap<(NodeId, NodeId), usize>,
}

impl PreparedVerifier for VerifierTails<'_> {
    fn judge(&self, suspect: NodeId) -> Verdict {
        if self.g.degree(suspect) == 0 {
            return Verdict::Reject;
        }
        let needed = self.limit.min_intersections;
        // The caps are consumed in instance order, and the count only
        // grows, so stopping at `needed` matches cannot change the verdict.
        let mut remaining = self.tail_caps.clone();
        let mut matched = 0usize;
        let mut tails = self.limit.tails(self.g, suspect);
        while matched < needed {
            let Some(tail) = tails.next() else { break };
            // Tails are undirected-intersected: either direction works.
            let rev = (tail.1, tail.0);
            for key in [tail, rev] {
                if let Some(cap) = remaining.get_mut(&key) {
                    if *cap > 0 {
                        *cap -= 1;
                        matched += 1;
                        break;
                    }
                }
            }
        }
        Verdict::accept_if(matched >= needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{evaluate_defense, injected_cluster_graph};
    use osn_graph::generators;
    use osn_graph::Timestamp;

    #[test]
    fn honest_nodes_mostly_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(500, 4, Timestamp::ZERO, &mut rng);
        let sl = SybilLimit::new(&g, 11);
        let honest: Vec<NodeId> = (100..130).map(NodeId).collect();
        let eval = evaluate_defense(&sl, &g, NodeId(0), &[], &honest);
        assert!(
            eval.honest_rejection_rate() < 0.35,
            "honest rejection {}",
            eval.honest_rejection_rate()
        );
    }

    #[test]
    fn rejects_injected_cluster_more_than_honest() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, first_sybil) = injected_cluster_graph(600, 80, 3, &mut rng);
        let sl = SybilLimit::new(&g, 5);
        let sybils: Vec<NodeId> = (0..20).map(|i| NodeId(first_sybil.0 + i)).collect();
        let honest: Vec<NodeId> = (10..30).map(NodeId).collect();
        let eval = evaluate_defense(&sl, &g, NodeId(0), &sybils, &honest);
        assert!(
            eval.sybil_acceptance_rate() + 0.2 < 1.0 - eval.honest_rejection_rate(),
            "defense must separate: sybil acc {} vs honest acc {}",
            eval.sybil_acceptance_rate(),
            1.0 - eval.honest_rejection_rate()
        );
    }

    #[test]
    fn stateless_permutation_is_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(50, 3, Timestamp::ZERO, &mut rng);
        let sl = SybilLimit::new(&g, 9);
        let mut perm = Vec::new();
        let a = sl.route_tail(&g, NodeId(1), 0, 4, &mut perm);
        let b = sl.route_tail(&g, NodeId(1), 0, 4, &mut perm);
        assert_eq!(a, b, "same instance must reproduce the same route");
        // Permutation property: out positions for distinct in positions
        // are distinct.
        let d = g.degree(NodeId(1));
        if d >= 2 {
            let outs: std::collections::HashSet<usize> = (0..d)
                .map(|p| sl.out_pos(NodeId(1), d, p, 0, &mut perm))
                .collect();
            assert_eq!(outs.len(), d);
        }
    }

    #[test]
    fn early_exit_shuffle_reads_the_full_shuffles_slot() {
        // A dirty scratch buffer on entry must not matter either.
        let mut perm = vec![7; 100];
        for degree in 1..=64usize {
            for instance in 0..8u64 {
                let seed = instance.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ degree as u64;
                let mut full: Vec<u32> = (0..degree as u32).collect();
                full.shuffle(&mut StdRng::seed_from_u64(seed));
                for (in_pos, &slot) in full.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(seed);
                    assert_eq!(
                        shuffled_slot(&mut rng, degree, in_pos, &mut perm),
                        slot as usize,
                        "degree {degree} in_pos {in_pos} instance {instance}"
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_nodes_rejected() {
        let g = TemporalGraph::with_nodes(3);
        let sl = SybilLimit::new(&g, 1);
        assert_eq!(sl.verify(&g, NodeId(0), NodeId(1)), Verdict::Reject);
    }
}
