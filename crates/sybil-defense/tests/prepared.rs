//! The two-phase interface against the one-phase protocol it replaced.
//!
//! `reference` holds each defense's verdict computed the way
//! `SybilDefense::verify` used to compute it — everything from scratch for
//! every (verifier, suspect) pair: both parties' routes re-walked, every
//! permutation fully shuffled, the suspect's edges collected into a set.
//! The property test requires one prepared verifier to judge every suspect
//! exactly like that, at one and at two worker threads.

use osn_graph::walks::{self, RouteStart, RouteTables};
use osn_graph::{bfs, generators, NodeId, TemporalGraph, Timestamp};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use sybil_defense::common::injected_cluster_graph;
use sybil_defense::{
    evaluate_defense, ConductanceRanking, SumUp, SybilDefense, SybilGuard, SybilInfer, SybilLimit,
    Verdict,
};

mod reference {
    use super::*;

    fn accept_if(accepted: bool) -> Verdict {
        if accepted {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }

    fn connected(g: &TemporalGraph, a: NodeId, b: NodeId) -> bool {
        g.degree(a) > 0 && g.degree(b) > 0
    }

    pub fn sybilguard(
        g: &TemporalGraph,
        sg: &SybilGuard,
        seed: u64,
        verifier: NodeId,
        suspect: NodeId,
    ) -> Verdict {
        if !connected(g, verifier, suspect) {
            return Verdict::Reject;
        }
        let tables = RouteTables::new(g, &mut StdRng::seed_from_u64(seed));
        let route_edges = |who: NodeId, first_edge: usize| -> Vec<(u32, u32)> {
            let start = RouteStart {
                node: who,
                first_edge,
            };
            tables
                .route(g, start, sg.route_len())
                .windows(2)
                .map(|w| (w[0].0.min(w[1].0), w[0].0.max(w[1].0)))
                .collect()
        };
        let suspect_edges: HashSet<(u32, u32)> = (0..g.degree(suspect))
            .flat_map(|e| route_edges(suspect, e))
            .collect();
        let vd = g.degree(verifier);
        let intersecting = (0..vd)
            .filter(|&e| {
                route_edges(verifier, e)
                    .iter()
                    .any(|edge| suspect_edges.contains(edge))
            })
            .count();
        accept_if(intersecting as f64 >= sg.accept_fraction * vd as f64)
    }

    fn sybillimit_tails(
        g: &TemporalGraph,
        sl: &SybilLimit,
        seed: u64,
        who: NodeId,
    ) -> Vec<(NodeId, NodeId)> {
        let route_tail = |first_edge: usize, inst: usize| {
            let nb = g.neighbors(who);
            let mut prev = who;
            let mut edge = nb[first_edge].edge;
            let mut cur = nb[first_edge].node;
            for _ in 1..sl.route_len {
                let in_pos = g.neighbors(cur).iter().position(|x| x.edge == edge)?;
                let node_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((cur.0 as u64) << 20)
                    .wrapping_add(inst as u64);
                let mut perm: Vec<u32> = (0..g.degree(cur) as u32).collect();
                perm.shuffle(&mut StdRng::seed_from_u64(node_seed));
                let next = g.neighbors(cur)[perm[in_pos] as usize];
                prev = cur;
                edge = next.edge;
                cur = next.node;
            }
            Some((prev, cur))
        };
        let d = g.degree(who);
        (0..sl.instances)
            .filter_map(|inst| route_tail(inst % d, inst))
            .collect()
    }

    pub fn sybillimit(
        g: &TemporalGraph,
        sl: &SybilLimit,
        seed: u64,
        verifier: NodeId,
        suspect: NodeId,
    ) -> Verdict {
        if !connected(g, verifier, suspect) {
            return Verdict::Reject;
        }
        let mut remaining: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for tail in sybillimit_tails(g, sl, seed, verifier) {
            *remaining.entry(tail).or_insert(0) += 2;
        }
        let mut matched = 0usize;
        for tail in sybillimit_tails(g, sl, seed, suspect) {
            for key in [tail, (tail.1, tail.0)] {
                if let Some(cap) = remaining.get_mut(&key) {
                    if *cap > 0 {
                        *cap -= 1;
                        matched += 1;
                        break;
                    }
                }
            }
        }
        accept_if(matched >= sl.min_intersections)
    }

    pub fn sybilinfer(
        g: &TemporalGraph,
        si: &SybilInfer,
        seed: u64,
        verifier: NodeId,
        suspect: NodeId,
    ) -> Verdict {
        if !connected(g, verifier, suspect) {
            return Verdict::Reject;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (verifier.0 as u64) << 16);
        let mut visits = vec![0u32; g.num_nodes()];
        for _ in 0..si.num_walks {
            let end = walks::walk_endpoint(g, verifier, si.walk_len, &mut rng);
            visits[end.index()] += 1;
        }
        let profile: Vec<f64> = g
            .nodes()
            .map(|n| match g.degree(n) {
                0 => 0.0,
                d => visits[n.index()] as f64 / d as f64,
            })
            .collect();
        let visited: Vec<f64> = profile.iter().copied().filter(|&x| x > 0.0).collect();
        if visited.is_empty() {
            return Verdict::Reject;
        }
        let mean = visited.iter().sum::<f64>() / visited.len() as f64;
        accept_if(profile[suspect.index()] >= si.accept_fraction * mean)
    }

    pub fn conductance(
        g: &TemporalGraph,
        cr: &ConductanceRanking,
        verifier: NodeId,
        suspect: NodeId,
    ) -> Verdict {
        accept_if(connected(g, verifier, suspect) && cr.community(g, verifier).contains(&suspect))
    }

    /// Every link of the ticket-envelope network carries at least one
    /// unit both ways, so on a fresh network one vote flows exactly when
    /// voter and collector are distinct and connected.
    pub fn sumup(g: &TemporalGraph, verifier: NodeId, suspect: NodeId) -> Verdict {
        accept_if(
            connected(g, verifier, suspect)
                && verifier != suspect
                && bfs::distances(g, verifier)[suspect.index()].is_some(),
        )
    }
}

/// Run `body` with `RENREN_THREADS` pinned, restoring the prior value.
/// Env vars are process-global, so tests touching them share one lock.
fn with_threads_env(threads: &str, body: impl FnOnce()) {
    use std::sync::{Mutex, OnceLock};
    static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _guard = ENV_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let prior = std::env::var(osn_graph::par::THREADS_ENV).ok();
    std::env::set_var(osn_graph::par::THREADS_ENV, threads);
    body();
    match prior {
        Some(v) => std::env::set_var(osn_graph::par::THREADS_ENV, v),
        None => std::env::remove_var(osn_graph::par::THREADS_ENV),
    }
}

/// One prepared verifier must give `expected` for every suspect, asked
/// directly and through the harness at one and two worker threads.
fn assert_judges_like(
    defense: &dyn SybilDefense,
    g: &TemporalGraph,
    verifier: NodeId,
    suspects: &[NodeId],
    expected: &[Verdict],
) -> Result<(), TestCaseError> {
    let prepared = defense.prepare(g, verifier);
    for (&s, &want) in suspects.iter().zip(expected) {
        prop_assert_eq!(
            prepared.judge(s),
            want,
            "{} from {:?} judging {:?}",
            defense.name(),
            verifier,
            s
        );
    }
    // Judging leaves the prepared value as it was: ask again, backwards.
    for (&s, &want) in suspects.iter().zip(expected).rev() {
        prop_assert_eq!(prepared.judge(s), want, "{} asked twice", defense.name());
    }
    let accepted = expected.iter().filter(|&&v| v == Verdict::Accept).count();
    for threads in ["1", "2"] {
        let mut eval = None;
        with_threads_env(threads, || {
            eval = Some(evaluate_defense(defense, g, verifier, suspects, suspects));
        });
        let eval = eval.expect("the body ran");
        prop_assert_eq!(
            eval.sybils_accepted,
            accepted,
            "{} threads={}",
            defense.name(),
            threads
        );
        prop_assert_eq!(
            eval.honest_rejected,
            suspects.len() - accepted,
            "{} threads={}",
            defense.name(),
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prepared_verifier_judges_like_per_suspect_verify(
        seed in 0u64..1_000_000,
        injected in any::<bool>(),
        n in 40usize..110,
        verifier_pick in 0usize..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = if injected {
            injected_cluster_graph(n, n / 4, 3, &mut rng).0
        } else {
            generators::barabasi_albert(n, 3, Timestamp::ZERO, &mut rng)
        };
        // Two nodes without edges: one to verify from, both to be judged.
        let isolated = g.add_nodes(2);
        let connected_verifier = NodeId((verifier_pick % n) as u32);
        // A third of the nodes (injected region included), the verifier
        // itself, and both isolated ones.
        let mut suspects: Vec<NodeId> = g.nodes().skip(verifier_pick % 3).step_by(3).collect();
        suspects.extend([connected_verifier, isolated, NodeId(isolated.0 + 1)]);

        let sg = SybilGuard::new(&g, Some(12), seed ^ 1);
        // Thresholds tightened so that verdicts come out mixed, not
        // all-accept as the defaults give on graphs this small.
        let mut sl = SybilLimit::new(&g, seed ^ 2);
        sl.min_intersections = 6 + (seed % 5) as usize;
        let mut si = SybilInfer::new(&g, seed ^ 3);
        si.accept_fraction = 0.6;
        let cr = ConductanceRanking::new();
        let su = SumUp::new(4);
        for verifier in [connected_verifier, isolated] {
            let expect = |verdict: &dyn Fn(NodeId) -> Verdict| -> Vec<Verdict> {
                suspects.iter().map(|&s| verdict(s)).collect()
            };
            assert_judges_like(&sg, &g, verifier, &suspects,
                &expect(&|s| reference::sybilguard(&g, &sg, seed ^ 1, verifier, s)))?;
            assert_judges_like(&sl, &g, verifier, &suspects,
                &expect(&|s| reference::sybillimit(&g, &sl, seed ^ 2, verifier, s)))?;
            assert_judges_like(&si, &g, verifier, &suspects,
                &expect(&|s| reference::sybilinfer(&g, &si, seed ^ 3, verifier, s)))?;
            assert_judges_like(&cr, &g, verifier, &suspects,
                &expect(&|s| reference::conductance(&g, &cr, verifier, s)))?;
            assert_judges_like(&su, &g, verifier, &suspects,
                &expect(&|s| reference::sumup(&g, verifier, s)))?;
        }
    }
}

/// Two graphs over the same node ids in which `NodeId(0)` sits in
/// different places: the hub of a star with a far-away clique, and a
/// member of that clique with the star's leaves hanging off elsewhere.
fn two_graphs() -> (TemporalGraph, TemporalGraph) {
    let n = 60u32;
    let clique = |g: &mut TemporalGraph, members: &[u32]| {
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                g.add_edge(NodeId(a), NodeId(b), Timestamp::ZERO).unwrap();
            }
        }
    };
    let left: Vec<u32> = (0..30).collect();
    let right: Vec<u32> = (30..n).collect();
    // A: node 0 inside the left clique; the right clique behind one bridge.
    let mut a = TemporalGraph::with_nodes(n as usize);
    clique(&mut a, &left);
    clique(&mut a, &right);
    a.add_edge(NodeId(29), NodeId(30), Timestamp::ZERO).unwrap();
    // B: node 0 inside the right clique instead; the rest of the left
    // clique behind one bridge.
    let mut b = TemporalGraph::with_nodes(n as usize);
    clique(&mut b, &left[1..]);
    let mut right_with_zero = right.clone();
    right_with_zero.push(0);
    clique(&mut b, &right_with_zero);
    b.add_edge(NodeId(29), NodeId(30), Timestamp::ZERO).unwrap();
    (a, b)
}

/// Regression: the defenses that memoized their verifier-side state keyed
/// it by verifier id alone, so one instance asked about the same id on a
/// second graph answered from the first graph's state.
#[test]
fn one_instance_asked_on_two_graphs_answers_for_each_graph() {
    let (a, b) = two_graphs();
    let verifier = NodeId(0);
    let suspects: Vec<NodeId> = a.nodes().collect();
    let verdicts = |d: &dyn SybilDefense, g: &TemporalGraph| -> Vec<Verdict> {
        suspects.iter().map(|&s| d.verify(g, verifier, s)).collect()
    };

    let mut ranking = ConductanceRanking::new();
    ranking.min_community = 8;
    let mut fresh_ranking = ConductanceRanking::new();
    fresh_ranking.min_community = 8;
    let infer = SybilInfer::new(&a, 5);
    let fresh_infer = SybilInfer::new(&a, 5);
    let pairs: [(&dyn SybilDefense, &dyn SybilDefense); 2] =
        [(&ranking, &fresh_ranking), (&infer, &fresh_infer)];
    for (reused, fresh) in pairs {
        let on_a = verdicts(reused, &a);
        let on_b = verdicts(reused, &b);
        assert_eq!(
            on_b,
            verdicts(fresh, &b),
            "{}: graph B judged from graph A's state",
            reused.name()
        );
        assert_ne!(
            on_a,
            on_b,
            "{}: the two graphs must tell apart",
            reused.name()
        );
    }
}

#[test]
fn vote_collector_serves_many_voter_sets_from_one_network() {
    let mut rng = StdRng::seed_from_u64(21);
    let (g, first_sybil) = injected_cluster_graph(300, 60, 3, &mut rng);
    let sumup = SumUp::new(20);
    let mut collector = sumup.collector(&g, NodeId(0));
    let honest: Vec<NodeId> = (50..90).map(NodeId).collect();
    let sybils: Vec<NodeId> = (0..40).map(|i| NodeId(first_sybil.0 + i)).collect();
    // Interleaved and repeated: each set sees the untouched envelope.
    for voters in [&honest, &sybils, &honest, &sybils] {
        assert_eq!(
            collector.collect_votes(voters),
            sumup.collect_votes(&g, NodeId(0), voters)
        );
    }
}
