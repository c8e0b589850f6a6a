//! The two-phase interface against the one-phase protocol it replaced.
//!
//! `reference` holds each defense's verdict computed the way
//! `SybilDefense::verify` used to compute it — everything from scratch for
//! every (verifier, suspect) pair: both parties' routes re-walked, every
//! permutation fully shuffled, the suspect's edges collected into a set
//! (SybilGuard's routes walked by `routes.rs`'s independent model).
//! The property test requires one prepared verifier to judge every suspect
//! exactly like that, at one and at two worker threads.

use crate::routes::ReferenceRoutes;
use osn_graph::walks::{self, RouteStart};
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
        let routes = ReferenceRoutes::new(g, &mut StdRng::seed_from_u64(seed));
        let route_edges = |who: NodeId, first_edge: usize| -> Vec<(u32, u32)> {
            let start = RouteStart {
                node: who,
                first_edge,
            };
            routes
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

    /// SumUp's residual network as it was before it moved to CSR form:
    /// arcs stored pairwise (arc `2k` forward, `2k + 1` its reverse), a
    /// `Vec` of arc ids per node.
    struct PairwiseNetwork {
        to: Vec<usize>,
        cap: Vec<i64>,
        head: Vec<Vec<u32>>,
    }

    impl PairwiseNetwork {
        fn add_arc(&mut self, u: usize, v: usize, c: i64) {
            let id = self.to.len() as u32;
            self.to.extend([v, u]);
            self.cap.extend([c, 0]);
            self.head[u].push(id);
            self.head[v].push(id + 1);
        }

        /// Breadth-first search for an augmenting path from `s`, stopping
        /// the moment `t` is discovered; one unit is pushed along it.
        fn augment(&mut self, s: usize, t: usize) -> bool {
            let mut parent_arc: Vec<Option<u32>> = vec![None; self.head.len()];
            let mut seen = vec![false; self.head.len()];
            seen[s] = true;
            let mut queue = std::collections::VecDeque::from([s]);
            'search: while let Some(u) = queue.pop_front() {
                for &a in &self.head[u] {
                    let v = self.to[a as usize];
                    if !seen[v] && self.cap[a as usize] > 0 {
                        seen[v] = true;
                        parent_arc[v] = Some(a);
                        if v == t {
                            break 'search;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !seen[t] {
                return false;
            }
            let mut v = t;
            while v != s {
                let a = parent_arc[v].expect("a node on the search tree") as usize;
                self.cap[a] -= 1;
                self.cap[a ^ 1] += 1;
                v = self.to[a ^ 1];
            }
            true
        }
    }

    /// SumUp's vote collection on a fresh ticket-envelope network, built
    /// and searched the pairwise way.
    pub fn sumup_votes(
        g: &TemporalGraph,
        c_max: usize,
        collector: NodeId,
        voters: &[NodeId],
    ) -> Vec<bool> {
        let dist = bfs::distances(g, collector);
        let level = |a: NodeId, b: NodeId| match (dist[a.index()], dist[b.index()]) {
            (Some(x), Some(y)) if x != y => Some(x.min(y) as usize),
            _ => None,
        };
        let mut level_edges: Vec<usize> = Vec::new();
        for l in g.edges().iter().filter_map(|e| level(e.a, e.b)) {
            if level_edges.len() <= l {
                level_edges.resize(l + 1, 0);
            }
            level_edges[l] += 1;
        }
        let mut bonus = Vec::new();
        let mut tickets = c_max as i64;
        for &edges in &level_edges {
            if tickets <= 0 || edges == 0 {
                bonus.push(0);
                continue;
            }
            bonus.push((tickets / edges as i64).max(0));
            tickets -= edges as i64;
        }
        let mut net = PairwiseNetwork {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); g.num_nodes()],
        };
        for e in g.edges() {
            let cap = level(e.a, e.b).map_or(1, |l| 1 + bonus.get(l).copied().unwrap_or(0));
            net.add_arc(e.a.index(), e.b.index(), cap);
            net.add_arc(e.b.index(), e.a.index(), cap);
        }
        let mut accepted = 0;
        voters
            .iter()
            .map(|&v| {
                if v == collector || accepted >= c_max {
                    return false;
                }
                let flow = net.augment(v.index(), collector.index());
                accepted += usize::from(flow);
                flow
            })
            .collect()
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

/// Run `body` with `RENREN_THREADS` pinned, restoring the prior value
/// even if `body` panics. Env vars are process-global, so every test in
/// this binary that sets one takes this lock (a panicking test poisons
/// it: the guard protects no data, so it is taken anyway).
fn with_threads_env<T>(value: &str, body: impl FnOnce() -> T) -> T {
    use osn_graph::par::THREADS_ENV;
    use std::sync::{Mutex, PoisonError};
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var(THREADS_ENV, v),
                None => std::env::remove_var(THREADS_ENV),
            }
        }
    }
    static ENV_LOCK: Mutex<()> = Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore(std::env::var(THREADS_ENV).ok());
    std::env::set_var(THREADS_ENV, value);
    body()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Vote collection on the CSR network accepts exactly the voters the
    /// pairwise network did. The budget is small and the voters many, so
    /// the flow earlier voters pushed decides later votes; two voter sets
    /// alternate on one collector.
    #[test]
    fn sumup_collects_votes_like_the_pairwise_network(
        seed in 0u64..1_000_000,
        injected in any::<bool>(),
        n in 40usize..140,
        c_max in 1usize..9,
        collector_pick in 0usize..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = if injected {
            injected_cluster_graph(n, n / 4, 3, &mut rng).0
        } else {
            generators::barabasi_albert(n, 2 + (seed % 3) as usize, Timestamp::ZERO, &mut rng)
        };
        let collector = NodeId((collector_pick % g.num_nodes()) as u32);
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.shuffle(&mut rng);
        let (first, second) = nodes.split_at(nodes.len() / 2);
        let sumup = SumUp::new(c_max);
        let mut votes = sumup.collector(&g, collector);
        for voters in [first, second, first, second] {
            let want = reference::sumup_votes(&g, c_max, collector, voters);
            prop_assert_eq!(&votes.collect_votes(voters), &want);
            prop_assert_eq!(&sumup.collect_votes(&g, collector, voters), &want);
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
