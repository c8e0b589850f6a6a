//! Shared defense interface and evaluation harness.
//!
//! All four baselines answer the same decentralized question: *from the
//! perspective of a known-honest verifier node, is this suspect node
//! honest or Sybil?* The evaluation harness measures the two error rates
//! the paper's argument turns on: how many real Sybils a defense accepts
//! (misses) and how many honest users it rejects.

use osn_graph::{NodeId, TemporalGraph};
use serde::{Deserialize, Serialize};

/// A defense's judgment of a suspect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The suspect is judged honest.
    Accept,
    /// The suspect is judged Sybil.
    Reject,
}

/// A decentralized graph-based Sybil defense.
///
/// Judging is two-phase. [`prepare`](Self::prepare) does everything that
/// depends only on the graph and the verifier — the verifier's routes,
/// walk profile, community or flow network — and
/// [`PreparedVerifier::judge`] answers for one suspect from that value, so
/// judging many suspects from one verifier pays for the verifier's half
/// once. A prepared value borrows its graph and is never reused across
/// graphs or verifiers, so a defense needs no interior cache.
///
/// `Sync` is a supertrait because [`evaluate_defense`] shares one prepared
/// verifier between worker threads.
pub trait SybilDefense: Sync {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Do the verifier-side work for judging suspects on `g` from the
    /// perspective of honest `verifier`.
    fn prepare<'a>(
        &'a self,
        g: &'a TemporalGraph,
        verifier: NodeId,
    ) -> Box<dyn PreparedVerifier + 'a>;

    /// Judge one `suspect` from the perspective of honest `verifier`:
    /// [`prepare`](Self::prepare), then one [`PreparedVerifier::judge`].
    fn verify(&self, g: &TemporalGraph, verifier: NodeId, suspect: NodeId) -> Verdict {
        self.prepare(g, verifier).judge(suspect)
    }
}

/// A defense bound to one graph and one verifier; see
/// [`SybilDefense::prepare`].
///
/// `judge` is a pure function of the suspect: it runs serially (the
/// harness parallelizes *across* suspects) and leaves the prepared value
/// untouched, so verdicts do not depend on the order or the thread they
/// are asked in.
pub trait PreparedVerifier: Sync {
    /// Judge `suspect`.
    fn judge(&self, suspect: NodeId) -> Verdict;
}

/// The prepared form of a verifier that can vouch for nobody (it has no
/// edges to route, walk or push flow through).
pub(crate) struct RejectAll;

impl PreparedVerifier for RejectAll {
    fn judge(&self, _: NodeId) -> Verdict {
        Verdict::Reject
    }
}

impl Verdict {
    /// `Accept` if `accepted`, else `Reject`.
    pub(crate) fn accept_if(accepted: bool) -> Verdict {
        if accepted {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }
}

/// Error rates of one defense on one graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DefenseEvaluation {
    /// Sybil suspects accepted (defense failures).
    pub sybils_accepted: usize,
    /// Sybil suspects evaluated.
    pub sybils_total: usize,
    /// Honest suspects rejected (collateral damage).
    pub honest_rejected: usize,
    /// Honest suspects evaluated.
    pub honest_total: usize,
}

impl DefenseEvaluation {
    /// Fraction of Sybils that escaped detection.
    pub fn sybil_acceptance_rate(&self) -> f64 {
        if self.sybils_total == 0 {
            0.0
        } else {
            self.sybils_accepted as f64 / self.sybils_total as f64
        }
    }

    /// Fraction of honest users wrongly rejected.
    pub fn honest_rejection_rate(&self) -> f64 {
        if self.honest_total == 0 {
            0.0
        } else {
            self.honest_rejected as f64 / self.honest_total as f64
        }
    }
}

/// Run `defense` from `verifier` against the given suspect samples.
///
/// The verifier is prepared once; each suspect's verdict is then
/// independent, so both sample sets are judged in parallel
/// (`osn_graph::par`, honoring `RENREN_THREADS`); the verdicts are tallied
/// in suspect order, so the counts match the serial loop exactly.
pub fn evaluate_defense<D: SybilDefense + ?Sized>(
    defense: &D,
    g: &TemporalGraph,
    verifier: NodeId,
    sybil_suspects: &[NodeId],
    honest_suspects: &[NodeId],
) -> DefenseEvaluation {
    let prepared = defense.prepare(g, verifier);
    let sybil_verdicts = osn_graph::par::map_slice(sybil_suspects, |&s| prepared.judge(s));
    let honest_verdicts = osn_graph::par::map_slice(honest_suspects, |&h| prepared.judge(h));
    DefenseEvaluation {
        sybils_accepted: sybil_verdicts
            .iter()
            .filter(|&&v| v == Verdict::Accept)
            .count(),
        sybils_total: sybil_suspects.len(),
        honest_rejected: honest_verdicts
            .iter()
            .filter(|&&v| v == Verdict::Reject)
            .count(),
        honest_total: honest_suspects.len(),
    }
}

/// Build the synthetic graph the defenses were originally validated on
/// (§3.1: "real social graphs with Sybil communities artificially
/// injected"): an honest Barabási–Albert region of `n_honest` nodes, a
/// dense injected Sybil region of `n_sybil` nodes, and exactly
/// `attack_edges` random links between the regions. Returns the graph and
/// the first Sybil node id (Sybils are `n_honest..n_honest+n_sybil`).
pub fn injected_cluster_graph<R: rand::Rng + rand::RngExt + ?Sized>(
    n_honest: usize,
    n_sybil: usize,
    attack_edges: usize,
    rng: &mut R,
) -> (TemporalGraph, NodeId) {
    use osn_graph::Timestamp;
    let mut g = osn_graph::generators::barabasi_albert(n_honest, 4, Timestamp::ZERO, rng);
    let first_sybil = g.add_nodes(n_sybil);
    // Dense Sybil region: each Sybil links to ~8 random other Sybils.
    for i in 0..n_sybil {
        let a = NodeId(first_sybil.0 + i as u32);
        for _ in 0..8 {
            let b = NodeId(first_sybil.0 + rng.random_range(0..n_sybil) as u32);
            if a != b {
                let _ = g.add_edge(a, b, Timestamp::ZERO);
            }
        }
    }
    // Sparse attack edges.
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < attack_edges && guard < attack_edges * 100 {
        guard += 1;
        let h = NodeId(rng.random_range(0..n_honest) as u32);
        let s = NodeId(first_sybil.0 + rng.random_range(0..n_sybil) as u32);
        if g.add_edge(h, s, Timestamp::ZERO).is_ok() {
            added += 1;
        }
    }
    (g, first_sybil)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysAccept;
    impl SybilDefense for AlwaysAccept {
        fn name(&self) -> &'static str {
            "accept-all"
        }
        fn prepare<'a>(
            &'a self,
            _: &'a TemporalGraph,
            _: NodeId,
        ) -> Box<dyn PreparedVerifier + 'a> {
            Box::new(AlwaysAccept)
        }
    }
    impl PreparedVerifier for AlwaysAccept {
        fn judge(&self, _: NodeId) -> Verdict {
            Verdict::Accept
        }
    }

    #[test]
    fn evaluation_counts_rates() {
        let g = TemporalGraph::with_nodes(4);
        let eval = evaluate_defense(
            &AlwaysAccept,
            &g,
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &[NodeId(3)],
        );
        assert_eq!(eval.sybil_acceptance_rate(), 1.0);
        assert_eq!(eval.honest_rejection_rate(), 0.0);
        assert_eq!(eval.sybils_total, 2);
        assert_eq!(eval.honest_total, 1);
    }

    #[test]
    fn empty_evaluation_rates_are_zero() {
        let e = DefenseEvaluation::default();
        assert_eq!(e.sybil_acceptance_rate(), 0.0);
        assert_eq!(e.honest_rejection_rate(), 0.0);
    }

    #[test]
    fn injected_graph_has_tight_sybil_region() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let (g, first_sybil) = injected_cluster_graph(500, 50, 10, &mut rng);
        assert_eq!(g.num_nodes(), 550);
        let sybils: Vec<NodeId> = (0..50).map(|i| NodeId(first_sybil.0 + i)).collect();
        let stats = osn_graph::metrics::cut_stats(&g, &sybils);
        assert_eq!(stats.crossing_edges, 10);
        assert!(
            stats.internal_edges > stats.crossing_edges * 5,
            "injected region must be tight-knit: {} internal vs {} crossing",
            stats.internal_edges,
            stats.crossing_edges
        );
    }
}
