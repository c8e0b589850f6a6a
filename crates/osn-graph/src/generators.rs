//! Synthetic graph generator.
//!
//! The paper notes that graph-based defenses were only ever validated on
//! "real social graphs with Sybil communities artificially injected". The
//! honest region of that null model is a Barabási–Albert graph (scale-free,
//! like OSN degree distributions); `sybil_defense::injected_cluster_graph`
//! builds on it, and the defense and mixing tests use it as a fixture.

use crate::graph::{NodeId, TemporalGraph, Timestamp};
use rand::prelude::*;
use std::collections::HashSet;

/// Barabási–Albert preferential attachment: start from an `m`-clique, then
/// each new node attaches to `m` existing nodes chosen proportionally to
/// degree (repeated-endpoint trick).
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    t: Timestamp,
    rng: &mut R,
) -> TemporalGraph {
    assert!(m >= 1, "BA requires m >= 1");
    assert!(n > m, "BA requires n > m");
    let mut g = TemporalGraph::with_nodes(n);
    // Endpoint multiset: each node appears once per incident edge.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    // Seed clique over nodes 0..=m.
    for i in 0..=m {
        for j in (i + 1)..=m {
            if g.add_edge(NodeId(i as u32), NodeId(j as u32), t).is_ok() {
                endpoints.push(i as u32);
                endpoints.push(j as u32);
            }
        }
    }
    for v in (m + 1)..n {
        let mut chosen: HashSet<u32> = HashSet::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            guard += 1;
            let u = endpoints[rng.random_range(0..endpoints.len())];
            if u as usize != v {
                chosen.insert(u);
            }
        }
        // Sort for determinism: HashSet iteration order is randomized per
        // process, and edge-insertion order feeds back into later draws.
        let mut picked: Vec<u32> = chosen.into_iter().collect();
        picked.sort_unstable();
        for u in picked {
            if g.add_edge(NodeId(v as u32), NodeId(u), t).is_ok() {
                endpoints.push(v as u32);
                endpoints.push(u);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ba_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(300, 3, Timestamp::ZERO, &mut rng);
        assert_eq!(g.num_nodes(), 300);
        // Each post-seed node adds (up to) m edges; clique adds C(4,2)=6.
        assert!(g.num_edges() <= 6 + (300 - 4) * 3);
        assert!(g.num_edges() >= (300 - 4) * 2, "most nodes attach m edges");
        // Scale-free signature: max degree well above m.
        let max_deg = g.nodes().map(|n| g.degree(n)).max().unwrap();
        assert!(max_deg > 15, "max degree {max_deg}");
        // Connected (BA is connected by construction).
        let comps = crate::components::connected_components(&g);
        assert_eq!(comps.len(), 1);
    }

    #[test]
    #[should_panic(expected = "BA requires n > m")]
    fn ba_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = barabasi_albert(3, 3, Timestamp::ZERO, &mut rng);
    }
}
