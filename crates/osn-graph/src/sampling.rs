//! Snowball sampling and degree-weighted node draws.
//!
//! §3.4 of the paper attributes accidental Sybil-edge creation to the
//! snowball sampling that commercial Sybil tools use to find *popular*
//! friending targets: crawl outward from seeds, preferentially keeping
//! high-degree profiles. Because successful Sybils themselves become
//! popular, the tools occasionally select other Sybils — and Sybils accept
//! every request — producing Sybil edges no attacker intended.

use crate::graph::{NodeId, TemporalGraph};
use rand::prelude::*;
use std::collections::HashSet;

/// Configuration for popularity-biased snowball sampling.
#[derive(Clone, Copy, Debug)]
pub struct SnowballConfig {
    /// How many nodes to return.
    pub targets: usize,
    /// Neighbors examined per expanded node (fan-out per wave).
    pub fanout: usize,
    /// Popularity bias exponent β: a candidate of degree `d` is retained
    /// with weight `d^β`. β = 0 is unbiased; the commercial tools the paper
    /// surveys are strongly biased (β ≈ 1–2).
    pub degree_bias: f64,
    /// Minimum degree for a node to count as a "popular" target at all.
    pub min_degree: usize,
    /// Degree at which the popularity weight saturates (everything at or
    /// above this degree is "maximally popular"). Defaults to
    /// `3 × min_degree`; prevents a handful of mega-hubs from crushing the
    /// weight of everything else as the graph's degree tail grows.
    pub saturation_degree: Option<usize>,
}

impl Default for SnowballConfig {
    fn default() -> Self {
        SnowballConfig {
            targets: 100,
            fanout: 20,
            degree_bias: 1.0,
            min_degree: 1,
            saturation_degree: None,
        }
    }
}

/// Popularity-biased snowball sample starting from `seeds`.
///
/// Breadth-style expansion: repeatedly pop a frontier node, examine up to
/// `fanout` random neighbors, and accept each neighbor as a *target* with
/// probability proportional to `deg^β` (normalized against the current
/// maximum degree seen). Accepted targets are also enqueued, so the crawl
/// drifts toward the popular core — exactly the bias that makes tools
/// rediscover successful Sybils. Seeds themselves are never returned.
pub fn snowball_sample<R: Rng + ?Sized>(
    g: &TemporalGraph,
    seeds: &[NodeId],
    cfg: &SnowballConfig,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(cfg.targets);
    let mut visited: HashSet<NodeId> = seeds.iter().copied().collect();
    let mut frontier: Vec<NodeId> = seeds.to_vec();
    let saturation = cfg
        .saturation_degree
        .unwrap_or(cfg.min_degree.saturating_mul(3))
        .max(1);
    let mut idx = 0usize;
    while out.len() < cfg.targets && idx < frontier.len() {
        // Pop in FIFO order but with random tie-breaking inside each wave by
        // shuffling newly discovered nodes before appending.
        let u = frontier[idx];
        idx += 1;
        let nbs = g.neighbors(u);
        if nbs.is_empty() {
            continue;
        }
        let mut wave: Vec<NodeId> = Vec::new();
        for _ in 0..cfg.fanout.min(nbs.len()) {
            let v = nbs[rng.random_range(0..nbs.len())].node;
            if visited.contains(&v) {
                continue;
            }
            visited.insert(v);
            let d = g.degree(v);
            if d < cfg.min_degree {
                continue;
            }
            let weight = if cfg.degree_bias == 0.0 {
                1.0
            } else {
                (d.min(saturation) as f64 / saturation as f64).powf(cfg.degree_bias)
            };
            if rng.random_range(0.0..1.0) < weight {
                out.push(v);
                if out.len() >= cfg.targets {
                    break;
                }
            }
            wave.push(v);
        }
        wave.shuffle(rng);
        frontier.extend(wave);
    }
    out
}

/// One node sampled with probability proportional to degree (the stationary
/// distribution of a random walk); `None` on an edgeless graph.
pub fn degree_weighted_sample<R: Rng + ?Sized>(g: &TemporalGraph, rng: &mut R) -> Option<NodeId> {
    if g.num_edges() == 0 {
        return None;
    }
    // Pick a uniform edge endpoint: that is exactly degree-proportional.
    let e = g.edges()[rng.random_range(0..g.num_edges())];
    Some(if rng.random_bool(0.5) { e.a } else { e.b })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Timestamp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snowball_returns_requested_count_when_possible() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::barabasi_albert(500, 4, Timestamp::ZERO, &mut rng);
        let cfg = SnowballConfig {
            targets: 50,
            fanout: 10,
            degree_bias: 1.0,
            min_degree: 1,
            saturation_degree: None,
        };
        let sample = snowball_sample(&g, &[NodeId(0)], &cfg, &mut rng);
        assert!(sample.len() <= 50);
        assert!(sample.len() > 10, "BA graph should yield plenty of targets");
        // No duplicates, no seed.
        let set: HashSet<_> = sample.iter().collect();
        assert_eq!(set.len(), sample.len());
        assert!(!sample.contains(&NodeId(0)));
    }

    #[test]
    fn snowball_bias_prefers_high_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::barabasi_albert(2000, 3, Timestamp::ZERO, &mut rng);
        let mut seeds: Vec<NodeId> = g.nodes().collect();
        seeds.shuffle(&mut rng);
        seeds.truncate(5);
        // Saturate well above the BA minimum degree (m = 3) so the weight
        // `(d/saturation)^β` actually discriminates; with the default
        // saturation of 3·min_degree every node would get weight 1.0 and
        // the comparison below would be pure crawl noise.
        let biased = snowball_sample(
            &g,
            &seeds,
            &SnowballConfig {
                targets: 200,
                fanout: 15,
                degree_bias: 2.0,
                min_degree: 1,
                saturation_degree: Some(50),
            },
            &mut rng,
        );
        let unbiased = snowball_sample(
            &g,
            &seeds,
            &SnowballConfig {
                targets: 200,
                fanout: 15,
                degree_bias: 0.0,
                min_degree: 1,
                saturation_degree: None,
            },
            &mut rng,
        );
        let mean = |v: &[NodeId]| {
            v.iter().map(|&n| g.degree(n)).sum::<usize>() as f64 / v.len().max(1) as f64
        };
        assert!(
            mean(&biased) > mean(&unbiased),
            "degree bias must raise mean target degree: {} vs {}",
            mean(&biased),
            mean(&unbiased)
        );
    }

    #[test]
    fn snowball_respects_min_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(500, 2, Timestamp::ZERO, &mut rng);
        let sample = snowball_sample(
            &g,
            &[NodeId(10)],
            &SnowballConfig {
                targets: 100,
                fanout: 20,
                degree_bias: 0.0,
                min_degree: 5,
                saturation_degree: None,
            },
            &mut rng,
        );
        for n in sample {
            assert!(g.degree(n) >= 5);
        }
    }

    #[test]
    fn snowball_on_empty_neighborhood() {
        let g = TemporalGraph::with_nodes(3);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = snowball_sample(&g, &[NodeId(0)], &SnowballConfig::default(), &mut rng);
        assert!(sample.is_empty());
    }

    #[test]
    fn degree_weighted_prefers_hub() {
        let mut g = TemporalGraph::with_nodes(11);
        for i in 1..=10 {
            g.add_edge(NodeId(0), NodeId(i), Timestamp::ZERO).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(6);
        let mut hub = 0;
        let trials = 2000;
        for _ in 0..trials {
            if degree_weighted_sample(&g, &mut rng) == Some(NodeId(0)) {
                hub += 1;
            }
        }
        // Hub holds 10 of 20 endpoint slots -> expect ~50%.
        let frac = hub as f64 / trials as f64;
        assert!((0.4..0.6).contains(&frac), "hub fraction {frac}");
    }

    #[test]
    fn degree_weighted_none_on_edgeless() {
        let g = TemporalGraph::with_nodes(5);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(degree_weighted_sample(&g, &mut rng), None);
    }
}
