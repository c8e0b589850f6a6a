//! Independent-cascade diffusion, estimated by coupled bond percolation.
//!
//! The paper's motivation is Sybils "spamming advertisements": Renren's
//! most popular activity is sharing blog entries, "forwarded across
//! multiple social hops much like retweets" (§2.1). The reach of a Sybil
//! campaign is therefore a diffusion process seeded at the Sybils'
//! friends: the independent-cascade model, where each newly-activated
//! node gets one chance to activate each neighbor with probability `p`.
//!
//! On an undirected graph a cascade tries every edge at most once — from
//! whichever endpoint activates first — so its activated set is the union
//! of the seeds' clusters in the graph that keeps each edge independently
//! with probability `p` (the live-edge view of Kempe, Kleinberg & Tardos,
//! KDD 2003). [`percolation_reach`] samples that graph instead of walking
//! cascades, and one sample answers every seed set and every probability:
//! level `l` keeps what level `l - 1` kept plus each other edge with
//! probability `(p_l - p_{l-1}) / (1 - p_{l-1})`, so every edge is live at
//! level `l` with probability exactly `p_l`, independently of the others,
//! and reach never shrinks from one level to the next within a trial.
//! That is why `probabilities` must be ascending.

use crate::graph::{NodeId, TemporalGraph};
use crate::unionfind::UnionFind;
use rand::prelude::*;

/// Mean independent-cascade reach (seeds included) of every seed set at
/// every forwarding probability, as `means[set][level]`, over `trials`
/// percolation samples shared by all cells. `probabilities` are clamped to
/// `[0, 1]` and must be ascending; duplicate seeds count once;
/// out-of-range seeds panic; zero trials give zeros.
///
/// Each cell's distribution is exactly the cascade's. Cells of one call
/// share their samples, so they are positively correlated.
pub fn percolation_reach<R: Rng + ?Sized>(
    g: &TemporalGraph,
    seed_sets: &[Vec<NodeId>],
    probabilities: &[f64],
    trials: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    for &s in seed_sets.iter().flatten() {
        assert!(g.contains_node(s), "seed out of range");
    }
    let mut totals = vec![vec![0usize; probabilities.len()]; seed_sets.len()];
    // `counted[root] == stamp` marks a cluster already added to the cell
    // being read; a fresh stamp per cell stands in for clearing the array.
    let mut counted = vec![0usize; g.num_nodes()];
    let mut stamp = 0usize;
    for _ in 0..trials {
        let mut clusters = UnionFind::new(g.num_nodes());
        let mut kept = 0.0f64;
        for (level, &p) in probabilities.iter().enumerate() {
            let p = p.clamp(0.0, 1.0);
            assert!(p >= kept, "probabilities must be ascending");
            if p > kept {
                open_edges(g, (p - kept) / (1.0 - kept), &mut clusters, rng);
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
    let mean = |total: usize| total as f64 / trials.max(1) as f64;
    totals
        .iter()
        .map(|row| row.iter().map(|&t| mean(t)).collect())
        .collect()
}

/// Merge the endpoints of a Bernoulli(`q`) sample of `g`'s edges, drawn by
/// geometric skipping: about `q · E` draws instead of `E`.
fn open_edges<R: Rng + ?Sized>(g: &TemporalGraph, q: f64, clusters: &mut UnionFind, rng: &mut R) {
    let mut rest = g.edges();
    // ln(1 - q) = -inf at q = 1, which makes every skip 0: all edges open.
    let log_closed = (-q).ln_1p();
    loop {
        // Closed edges before the next open one: floor(ln U / ln(1 - q)),
        // U uniform on (0, 1].
        let u: f64 = 1.0 - rng.random_range(0.0..1.0);
        let skip = (u.ln() / log_closed).floor();
        // Compared as floats, so the cast below cannot truncate.
        if skip >= rest.len() as f64 {
            return;
        }
        rest = &rest[skip as usize..];
        clusters.union(rest[0].a.index(), rest[0].b.index());
        rest = &rest[1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Timestamp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    /// The reference the estimator is checked against: one breadth-first
    /// independent cascade, each newly-activated node trying each inactive
    /// neighbor once. Returns the number of activated nodes.
    fn independent_cascade<R: Rng + ?Sized>(
        g: &TemporalGraph,
        seeds: &[NodeId],
        p: f64,
        rng: &mut R,
    ) -> usize {
        let mut active = vec![false; g.num_nodes()];
        let mut queue = VecDeque::new();
        for &s in seeds {
            if !std::mem::replace(&mut active[s.index()], true) {
                queue.push_back(s);
            }
        }
        let mut reach = queue.len();
        while let Some(u) = queue.pop_front() {
            for nb in g.neighbors(u) {
                if !active[nb.node.index()] && rng.random_range(0.0..1.0) < p {
                    active[nb.node.index()] = true;
                    reach += 1;
                    queue.push_back(nb.node);
                }
            }
        }
        reach
    }

    /// Disjoint paths of the given lengths, numbered consecutively.
    fn paths(lens: &[usize]) -> TemporalGraph {
        let mut g = TemporalGraph::with_nodes(lens.iter().sum());
        let mut first = 0;
        for &len in lens {
            for i in first + 1..first + len {
                g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), Timestamp::ZERO)
                    .unwrap();
            }
            first += len;
        }
        g
    }

    /// One seed set, one probability, one trial: the reach of that sample.
    fn reach_once(g: &TemporalGraph, seeds: &[NodeId], p: f64, rng_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        percolation_reach(g, &[seeds.to_vec()], &[p], 1, &mut rng)[0][0]
    }

    #[test]
    fn p_zero_reaches_only_seeds() {
        let g = paths(&[5]);
        assert_eq!(reach_once(&g, &[NodeId(2)], 0.0, 1), 1.0);
        assert_eq!(reach_once(&g, &[NodeId(0), NodeId(4)], 0.0, 1), 2.0);
    }

    #[test]
    fn p_one_floods_the_component() {
        assert_eq!(reach_once(&paths(&[6]), &[NodeId(0)], 1.0, 2), 6.0);
        // Two disjoint paths: exactly the seeded components, each once.
        let g = paths(&[4, 3, 2]);
        assert_eq!(reach_once(&g, &[NodeId(5)], 1.0, 2), 3.0);
        assert_eq!(reach_once(&g, &[NodeId(1), NodeId(3), NodeId(4)], 1.0, 2), 7.0);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = paths(&[4]);
        assert_eq!(reach_once(&g, &[NodeId(1), NodeId(1)], 0.0, 3), 1.0);
        assert_eq!(reach_once(&g, &[NodeId(1), NodeId(1)], 1.0, 3), 4.0);
    }

    #[test]
    fn probabilities_are_clamped() {
        let g = paths(&[4]);
        assert_eq!(reach_once(&g, &[NodeId(0)], -0.5, 7), 1.0);
        assert_eq!(reach_once(&g, &[NodeId(0)], 1.5, 7), 4.0);
    }

    #[test]
    fn reach_grows_with_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::barabasi_albert(500, 3, Timestamp::ZERO, &mut rng);
        let r = percolation_reach(&g, &[vec![NodeId(5)]], &[0.02, 0.3], 200, &mut rng);
        let (low, high) = (r[0][0], r[0][1]);
        assert!(
            high > 3.0 * low,
            "reach must grow with p: {low} -> {high}"
        );
    }

    /// The coupling makes reach monotone in `p` in every single sample,
    /// for every seed set, not just on average.
    #[test]
    fn reach_is_monotone_within_each_trial() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = generators::barabasi_albert(300, 2, Timestamp::ZERO, &mut rng);
        let sets = [
            vec![NodeId(0)],
            vec![NodeId(17), NodeId(130), NodeId(299)],
            (100..140).map(NodeId).collect(),
        ];
        let levels = [0.0, 0.01, 0.05, 0.15, 0.15, 0.6, 1.0];
        for rng_seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let r = percolation_reach(&g, &sets, &levels, 1, &mut rng);
            for (row, seeds) in r.iter().zip(&sets) {
                assert_eq!(row[0], seeds.len() as f64);
                assert!(row.windows(2).all(|w| w[0] <= w[1]), "{row:?}");
                assert_eq!(row[3], row[4], "a repeated level opens nothing");
                assert_eq!(row[6], 300.0, "a Barabási–Albert graph is connected");
            }
        }
    }

    /// Same distribution as the cascade, at every level of one coupled
    /// call: on a fixed graph the two 2,000-trial means agree within 4
    /// standard errors of their difference (the cascade's sample variance
    /// stands for both).
    #[test]
    fn percolation_mean_matches_cascade_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::barabasi_albert(500, 3, Timestamp::ZERO, &mut rng);
        let sets = [vec![NodeId(5)], (200..210).map(NodeId).collect()];
        let levels = [0.02, 0.1, 0.3];
        let trials = 2000;
        let perc = percolation_reach(&g, &sets, &levels, trials, &mut StdRng::seed_from_u64(100));
        let mut rng = StdRng::seed_from_u64(200);
        for (seeds, perc) in sets.iter().zip(&perc) {
            for (&p, &perc) in levels.iter().zip(perc) {
                let runs: Vec<f64> = (0..trials)
                    .map(|_| independent_cascade(&g, seeds, p, &mut rng) as f64)
                    .collect();
                let mean = runs.iter().sum::<f64>() / trials as f64;
                let var = runs.iter().map(|r| (r - mean).powi(2)).sum::<f64>()
                    / (trials - 1) as f64;
                let se = (2.0 * var / trials as f64).sqrt();
                assert!(
                    (perc - mean).abs() <= 4.0 * se,
                    "p={p} seeds={}: percolation {perc} vs cascade {mean} (se {se})",
                    seeds.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn bad_seed_panics() {
        reach_once(&paths(&[2]), &[NodeId(9)], 0.5, 5);
    }

    #[test]
    #[should_panic(expected = "probabilities must be ascending")]
    fn descending_probabilities_panic() {
        let mut rng = StdRng::seed_from_u64(5);
        percolation_reach(&paths(&[2]), &[vec![NodeId(0)]], &[0.5, 0.1], 1, &mut rng);
    }

    #[test]
    fn zero_trials_reach_zero() {
        let mut rng = StdRng::seed_from_u64(6);
        let r = percolation_reach(&paths(&[3]), &[vec![NodeId(0)]], &[0.5], 0, &mut rng);
        assert_eq!(r, vec![vec![0.0]]);
    }
}
