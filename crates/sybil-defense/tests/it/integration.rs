//! Cross-defense integration tests: all five baselines on shared graphs,
//! plus semantics the unit tests don't cover.

use osn_graph::{generators, NodeId, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sybil_defense::common::injected_cluster_graph;
use sybil_defense::{
    evaluate_defense, ConductanceRanking, SumUp, SybilDefense, SybilGuard, SybilInfer, SybilLimit,
    Verdict,
};

#[test]
fn every_defense_separates_the_injected_cluster() {
    let mut rng = StdRng::seed_from_u64(42);
    let (g, first_sybil) = injected_cluster_graph(1500, 150, 6, &mut rng);
    let sybils: Vec<NodeId> = (0..25).map(|i| NodeId(first_sybil.0 + i)).collect();
    let honest: Vec<NodeId> = (200..225).map(NodeId).collect();
    let verifier = NodeId(0);

    let defenses: Vec<Box<dyn SybilDefense>> = vec![
        Box::new(SybilGuard::new(&g, Some(50), 1)),
        Box::new(SybilLimit::new(&g, 2)),
        Box::new(SybilInfer::new(&g, 3)),
        Box::new(ConductanceRanking::new()),
    ];
    for d in &defenses {
        let e = evaluate_defense(d.as_ref(), &g, verifier, &sybils, &honest);
        // Separation: honest acceptance must beat sybil acceptance clearly.
        let honest_acc = 1.0 - e.honest_rejection_rate();
        assert!(
            honest_acc > e.sybil_acceptance_rate() + 0.25,
            "{}: honest acc {:.2} vs sybil acc {:.2}",
            d.name(),
            honest_acc,
            e.sybil_acceptance_rate()
        );
    }
}

#[test]
fn sumup_vote_order_does_not_change_totals_much() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::barabasi_albert(400, 4, Timestamp::ZERO, &mut rng);
    let sumup = SumUp::new(30);
    let voters: Vec<NodeId> = (100..160).map(NodeId).collect();
    let mut reversed = voters.clone();
    reversed.reverse();
    let a = sumup
        .collect_votes(&g, NodeId(0), &voters)
        .iter()
        .filter(|&&x| x)
        .count();
    let b = sumup
        .collect_votes(&g, NodeId(0), &reversed)
        .iter()
        .filter(|&&x| x)
        .count();
    // Max-flow totals are order-independent up to the shared-capacity race;
    // allow small slack.
    assert!(a.abs_diff(b) <= 3, "vote totals diverge: {a} vs {b}");
    assert!(a <= 30 && b <= 30, "budget must cap votes");
}

#[test]
fn sumup_repeated_voter_consumes_capacity_once_per_vote() {
    let mut rng = StdRng::seed_from_u64(8);
    let g = generators::barabasi_albert(200, 3, Timestamp::ZERO, &mut rng);
    let sumup = SumUp::new(5);
    // The same voter asked 10 times: each vote consumes residual capacity;
    // the budget still caps the total.
    let voters = vec![NodeId(50); 10];
    let accepted = sumup.collect_votes(&g, NodeId(0), &voters);
    let total = accepted.iter().filter(|&&x| x).count();
    assert!(total <= 5);
    assert!(total >= 1, "at least the first vote flows");
}

#[test]
fn conductance_ranking_community_size_bounds_respected() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = generators::barabasi_albert(600, 4, Timestamp::ZERO, &mut rng);
    let mut cr = ConductanceRanking::new();
    cr.min_community = 40;
    cr.max_community = 80;
    let community = cr.community(&g, NodeId(3));
    assert!(
        community.len() >= 2 && community.len() <= 80,
        "community size {} out of bounds",
        community.len()
    );
}

#[test]
fn verdicts_are_stable_across_repeated_calls() {
    let mut rng = StdRng::seed_from_u64(10);
    let (g, first_sybil) = injected_cluster_graph(500, 60, 4, &mut rng);
    let defenses: Vec<Box<dyn SybilDefense>> = vec![
        Box::new(SybilGuard::new(&g, Some(40), 5)),
        Box::new(SybilLimit::new(&g, 5)),
        Box::new(SybilInfer::new(&g, 5)),
        Box::new(ConductanceRanking::new()),
        Box::new(SumUp::new(10)),
    ];
    for d in &defenses {
        for suspect in [NodeId(10), first_sybil] {
            let v1 = d.verify(&g, NodeId(0), suspect);
            let v2 = d.verify(&g, NodeId(0), suspect);
            assert_eq!(v1, v2, "{} verdict unstable", d.name());
        }
    }
}

#[test]
fn self_verification_behaviour_is_sane() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::barabasi_albert(200, 3, Timestamp::ZERO, &mut rng);
    // A verifier judging itself: route/walk defenses trivially accept
    // (routes intersect themselves); SumUp rejects (no flow to self).
    let sg = SybilGuard::new(&g, Some(30), 1);
    assert_eq!(sg.verify(&g, NodeId(5), NodeId(5)), Verdict::Accept);
    let su = SumUp::new(5);
    assert_eq!(su.verify(&g, NodeId(5), NodeId(5)), Verdict::Reject);
}
