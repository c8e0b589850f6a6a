//! Property-based tests for the graph substrate.

use osn_graph::cascade::percolation_reach;
use osn_graph::spectral::second_eigenvalue;
use osn_graph::walks::{RouteStart, RouteTables};
use osn_graph::{generators, NodeId, TemporalGraph, Timestamp, UnionFind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::support::{env_lock, graph_from, with_threads_env};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random routes follow edges and are reproducible; two routes that
    /// traverse the same directed edge coincide afterwards (the SybilGuard
    /// convergence property) on arbitrary graphs.
    #[test]
    fn route_convergence(seed in 0u64..500, n in 4usize..30, m in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, Timestamp::ZERO, &mut rng);
        let tables = RouteTables::new(&g, &mut rng);
        let len = 12;
        let start_a = RouteStart { node: NodeId(0), first_edge: 0 };
        let ra = tables.route(start_a, len);
        prop_assert_eq!(&ra, &tables.route(start_a, len));
        for w in ra.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
        // Convergence: compare with a route from another node.
        let other = NodeId((n - 1) as u32);
        if g.degree(other) > 0 {
            let rb = tables.route(RouteStart { node: other, first_edge: 0 }, len);
            let ea: Vec<(NodeId, NodeId)> = ra.windows(2).map(|w| (w[0], w[1])).collect();
            let eb: Vec<(NodeId, NodeId)> = rb.windows(2).map(|w| (w[0], w[1])).collect();
            'outer: for (i, x) in ea.iter().enumerate() {
                for (j, y) in eb.iter().enumerate() {
                    if x == y {
                        let k = (ea.len() - i).min(eb.len() - j);
                        for d in 0..k {
                            prop_assert_eq!(ea[i + d], eb[j + d]);
                        }
                        break 'outer;
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cascade reach always includes the seed, never shrinks as `p` grows
    /// within a sample, and is bounded by the seed's component, which
    /// `p = 1` reaches exactly.
    #[test]
    fn cascade_bounds(
        n in 2usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..100),
        seed_idx in 0usize..40,
        p in 0.0f64..1.0
    ) {
        let g = graph_from(n, &edges);
        let seed = NodeId((seed_idx % n) as u32);
        let mut rng = StdRng::seed_from_u64(9);
        let r = osn_graph::cascade::percolation_reach(
            &g, &[vec![seed]], &[0.0, p, 1.0], 1, &mut rng,
        );
        let comp_size = osn_graph::bfs::bfs_order(&g, seed).len();
        prop_assert_eq!(r[0][0], 1.0);
        prop_assert!(r[0][0] <= r[0][1] && r[0][1] <= r[0][2]);
        prop_assert_eq!(r[0][2], comp_size as f64);
    }

    /// Spectral gap, when defined, is in [0, 1].
    #[test]
    fn spectral_gap_bounds(seed in 0u64..200, n in 5usize..40, m in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, Timestamp::ZERO, &mut rng);
        let gap = osn_graph::spectral::spectral_gap(&g, 40, seed).unwrap();
        prop_assert!((0.0..=1.0).contains(&gap), "gap {}", gap);
    }
}

/// The serial loop `percolation_reach` is checked against: each trial
/// merges its clusters while it draws them, from one RNG, and tallies
/// every seed set after each level.
fn serial_reach(
    g: &TemporalGraph,
    seed_sets: &[Vec<NodeId>],
    probabilities: &[f64],
    trials: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut totals = vec![vec![0usize; probabilities.len()]; seed_sets.len()];
    let mut counted = vec![0usize; g.num_nodes()];
    let mut stamp = 0usize;
    for _ in 0..trials {
        let mut clusters = UnionFind::new(g.num_nodes());
        let mut kept = 0.0f64;
        for (level, &p) in probabilities.iter().enumerate() {
            let p = p.clamp(0.0, 1.0);
            assert!(p >= kept, "probabilities must be ascending");
            if p > kept {
                let q = (p - kept) / (1.0 - kept);
                let log_closed = (-q).ln_1p();
                let mut rest = g.edges();
                loop {
                    let u: f64 = 1.0 - rng.random_range(0.0..1.0);
                    let skip = (u.ln() / log_closed).floor();
                    if skip >= rest.len() as f64 {
                        break;
                    }
                    rest = &rest[skip as usize..];
                    clusters.union(rest[0].a.index(), rest[0].b.index());
                    rest = &rest[1..];
                }
                kept = p;
            }
            for (set, seeds) in seed_sets.iter().enumerate() {
                stamp += 1;
                for &s in seeds {
                    let root = clusters.find(s.index());
                    if counted[root] != stamp {
                        counted[root] = stamp;
                        totals[set][level] += clusters.size_of(root);
                    }
                }
            }
        }
    }
    totals
        .iter()
        .map(|row| {
            row.iter()
                .map(|&t| t as f64 / trials.max(1) as f64)
                .collect()
        })
        .collect()
}

/// The lazy-walk power iteration of `second_eigenvalue`, each product
/// summed straight over the graph's `Vec<Neighbor>` adjacency lists.
fn neighbor_list_eigenvalue(g: &TemporalGraph, iterations: usize, seed: u64) -> Option<f64> {
    let n = g.num_nodes();
    let m2 = g.volume() as f64;
    if n < 2 || m2 == 0.0 {
        return None;
    }
    let pi: Vec<f64> = (0..n)
        .map(|i| g.degree(NodeId(i as u32)) as f64 / m2)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let mut next = vec![0.0f64; n];
    let mut lambda = 0.0f64;
    for _ in 0..iterations.max(2) {
        let proj: f64 = pi.iter().zip(&x).map(|(&p, &v)| p * v).sum();
        for v in x.iter_mut() {
            *v -= proj;
        }
        for (i, nx) in next.iter_mut().enumerate() {
            let d = g.degree(NodeId(i as u32));
            if d == 0 {
                *nx = 0.5 * x[i];
                continue;
            }
            let mut acc = 0.0;
            for nb in g.neighbors(NodeId(i as u32)) {
                acc += x[nb.node.index()];
            }
            *nx = 0.5 * x[i] + 0.5 * acc / d as f64;
        }
        let norm_x: f64 = pi
            .iter()
            .zip(&x)
            .map(|(&p, &v)| p * v * v)
            .sum::<f64>()
            .sqrt();
        let norm_next: f64 = pi
            .iter()
            .zip(&next)
            .map(|(&p, &v)| p * v * v)
            .sum::<f64>()
            .sqrt();
        if norm_x < 1e-300 || norm_next < 1e-300 {
            return Some(0.0);
        }
        lambda = norm_next / norm_x;
        let inv = 1.0 / norm_next;
        for (xv, nv) in x.iter_mut().zip(&next) {
            *xv = nv * inv;
        }
    }
    Some(lambda.min(1.0))
}

fn bits(means: &[Vec<f64>]) -> Vec<Vec<u64>> {
    means
        .iter()
        .map(|row| row.iter().map(|m| m.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drawing on the caller while the previous sample is tallied on a
    /// worker changes nothing: every mean is the serial loop's to the bit,
    /// and the caller's RNG ends in the same state, at 1, 2 and 3 threads.
    #[test]
    fn percolation_reach_matches_the_serial_loop(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..100),
        sets in prop::collection::vec(prop::collection::vec(0usize..40, 1..6), 1..5),
        repeat_seed in any::<bool>(),
        inner_levels in prop::collection::vec(0.0f64..1.0, 1..4),
        trials in 0usize..7,
        rng_seed in any::<u64>(),
    ) {
        let g = graph_from(n, &edges);
        let mut seed_sets: Vec<Vec<NodeId>> = sets
            .iter()
            .map(|set| set.iter().map(|&s| NodeId((s % n) as u32)).collect())
            .collect();
        if repeat_seed {
            let first = seed_sets[0][0];
            seed_sets[0].push(first);
        }
        // Ascending, from 0 to 1, with one level repeated.
        let mut levels = inner_levels.clone();
        levels.extend([0.0, 1.0, inner_levels[0]]);
        levels.sort_by(f64::total_cmp);

        let mut oracle_rng = StdRng::seed_from_u64(rng_seed);
        let expected = serial_reach(&g, &seed_sets, &levels, trials, &mut oracle_rng);
        let expected_next = oracle_rng.next_u64();
        for threads in ["1", "2", "3"] {
            let (got, got_next) = with_threads_env(threads, || {
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let got = percolation_reach(&g, &seed_sets, &levels, trials, &mut rng);
                (got, rng.next_u64())
            });
            prop_assert_eq!(bits(&got), bits(&expected), "threads={}", threads);
            prop_assert_eq!(got_next, expected_next, "threads={}", threads);
        }
    }

    /// The walk products over the compressed adjacency give the λ₂ of the
    /// products over the `Vec<Neighbor>` lists, to the bit, isolated nodes
    /// included.
    #[test]
    fn second_eigenvalue_matches_the_neighbor_list_loop(
        graph_seed in 0u64..500,
        n in 3usize..60,
        m in 1usize..4,
        isolated in 0usize..5,
        iterations in 0usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let mut g = generators::barabasi_albert(n, m, Timestamp::ZERO, &mut rng);
        g.add_nodes(isolated);
        let got = second_eigenvalue(&g, iterations, seed).map(f64::to_bits);
        let expected = neighbor_list_eigenvalue(&g, iterations, seed).map(f64::to_bits);
        prop_assert!(got.is_some());
        prop_assert_eq!(got, expected);
        let edgeless = TemporalGraph::with_nodes(n + isolated);
        prop_assert_eq!(second_eigenvalue(&edgeless, iterations, seed), None);
    }
}

#[test]
#[should_panic(expected = "seed out of range")]
fn out_of_range_seed_panics_at_two_threads() {
    with_threads_env("2", || {
        let g = graph_from(3, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(5);
        percolation_reach(&g, &[vec![NodeId(1)], vec![NodeId(9)]], &[0.5], 4, &mut rng);
    });
}

#[test]
#[should_panic(expected = "probabilities must be ascending")]
fn descending_probabilities_panic_at_two_threads() {
    with_threads_env("2", || {
        let g = graph_from(3, &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(5);
        percolation_reach(&g, &[vec![NodeId(0)]], &[0.1, 0.5, 0.2], 4, &mut rng);
    });
}

/// A body that panics leaves `RENREN_THREADS` as it found it, and the
/// lock it poisoned does not stop the next call.
#[test]
fn with_threads_env_restores_after_a_panic() {
    let read = || {
        let _guard = env_lock();
        std::env::var(osn_graph::par::THREADS_ENV).ok()
    };
    let before = read();
    let unwound = std::panic::catch_unwind(|| with_threads_env("7", || panic!("the body fails")));
    assert!(unwound.is_err());
    assert_eq!(read(), before);
    assert_eq!(with_threads_env("2", osn_graph::par::num_threads), 2);
    assert_eq!(read(), before);
}
