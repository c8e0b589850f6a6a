//! SybilInfer (Danezis & Mittal, NDSS 2009) — simplified.
//!
//! SybilInfer's generative model says short random walks started from an
//! honest node mix quickly *within* the honest region but escape into a
//! Sybil region only through the few attack edges. It samples honest-set
//! cuts with Metropolis-Hastings over walk traces and outputs per-node
//! honesty probabilities.
//!
//! We implement the computational core of that idea without the full MH
//! machinery (documented simplification): estimate each node's stationary-
//! normalized visit probability from many verifier-anchored walks; nodes
//! whose normalized visit frequency falls far below the typical honest
//! level are labeled Sybil. This is the same mixing-time signal the
//! original exploits, and it exhibits the same failure mode the paper
//! predicts: Sybils woven into the honest region mix just as fast and
//! become indistinguishable.

use crate::common::{PreparedVerifier, RejectAll, SybilDefense, Verdict};
use osn_graph::walks;
use osn_graph::{NodeId, TemporalGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SybilInfer-style verifier.
pub struct SybilInfer {
    /// Number of walks per verification.
    pub num_walks: usize,
    /// Walk length (≈ mixing time of the honest region).
    pub walk_len: usize,
    /// A suspect is accepted if its normalized visit rate is at least this
    /// fraction of the honest median.
    pub accept_fraction: f64,
    seed: u64,
}

impl SybilInfer {
    /// Defaults scaled to the graph: `walk_len ≈ 1.5·ln n`.
    pub fn new(g: &TemporalGraph, seed: u64) -> Self {
        let n = g.num_nodes().max(2) as f64;
        SybilInfer {
            // Enough endpoint samples that typical honest nodes are
            // visited at least a few times.
            num_walks: ((3.0 * n) as usize).max(4000),
            walk_len: ((1.5 * n.ln()).ceil() as usize).max(3),
            accept_fraction: 0.05,
            seed,
        }
    }

    /// Degree-normalized visit frequencies of walks from `verifier`.
    fn visit_profile(&self, g: &TemporalGraph, verifier: NodeId) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (verifier.0 as u64) << 16);
        let mut visits = vec![0u32; g.num_nodes()];
        for _ in 0..self.num_walks {
            let path = walks::random_walk(g, verifier, self.walk_len, &mut rng);
            // Count the endpoint (stationary sample) — endpoints of long
            // walks approximate the stationary distribution restricted to
            // the region the walk mixes in.
            if let Some(&end) = path.last() {
                visits[end.index()] += 1;
            }
        }
        visits
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let d = g.degree(NodeId(i as u32));
                if d == 0 {
                    0.0
                } else {
                    v as f64 / d as f64
                }
            })
            .collect()
    }
}

impl SybilDefense for SybilInfer {
    fn name(&self) -> &'static str {
        "SybilInfer"
    }

    /// Runs the verifier's walks once and keeps their visit profile with
    /// the honest baseline derived from it.
    fn prepare<'a>(
        &'a self,
        g: &'a TemporalGraph,
        verifier: NodeId,
    ) -> Box<dyn PreparedVerifier + 'a> {
        if g.degree(verifier) == 0 {
            return Box::new(RejectAll);
        }
        let profile = self.visit_profile(g, verifier);
        // Honest baseline: mean normalized visit rate over visited nodes.
        let visited = profile.iter().filter(|&&x| x > 0.0);
        let count = visited.clone().count();
        if count == 0 {
            return Box::new(RejectAll);
        }
        let mean = visited.sum::<f64>() / count as f64;
        Box::new(VisitProfile {
            g,
            profile,
            accept_at: self.accept_fraction * mean,
        })
    }
}

/// SybilInfer bound to one verifier: the degree-normalized visit profile
/// of its walks and the visit rate a suspect must reach.
struct VisitProfile<'a> {
    g: &'a TemporalGraph,
    profile: Vec<f64>,
    accept_at: f64,
}

impl PreparedVerifier for VisitProfile<'_> {
    fn judge(&self, suspect: NodeId) -> Verdict {
        Verdict::accept_if(
            self.g.degree(suspect) > 0 && self.profile[suspect.index()] >= self.accept_at,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{evaluate_defense, injected_cluster_graph};
    use osn_graph::generators;
    use osn_graph::Timestamp;

    #[test]
    fn honest_region_is_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(400, 4, Timestamp::ZERO, &mut rng);
        let si = SybilInfer::new(&g, 3);
        let honest: Vec<NodeId> = (50..90).map(NodeId).collect();
        let eval = evaluate_defense(&si, &g, NodeId(0), &[], &honest);
        assert!(
            eval.honest_rejection_rate() < 0.3,
            "honest rejection {}",
            eval.honest_rejection_rate()
        );
    }

    #[test]
    fn injected_cluster_is_starved_of_visits() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, first_sybil) = injected_cluster_graph(600, 100, 2, &mut rng);
        let si = SybilInfer::new(&g, 5);
        let sybils: Vec<NodeId> = (0..30).map(|i| NodeId(first_sybil.0 + i)).collect();
        let honest: Vec<NodeId> = (20..50).map(NodeId).collect();
        let eval = evaluate_defense(&si, &g, NodeId(0), &sybils, &honest);
        assert!(
            eval.sybil_acceptance_rate() < 0.5,
            "sybil acceptance {} too high for an injected cluster",
            eval.sybil_acceptance_rate()
        );
        assert!(
            eval.sybil_acceptance_rate() < 1.0 - eval.honest_rejection_rate(),
            "must separate regions"
        );
    }

    #[test]
    fn isolated_rejected() {
        let g = TemporalGraph::with_nodes(2);
        let si = SybilInfer::new(&g, 1);
        assert_eq!(si.verify(&g, NodeId(0), NodeId(1)), Verdict::Reject);
    }
}
