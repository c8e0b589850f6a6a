//! Mixing-time analysis — extension experiment for §3.1.
//!
//! Every graph-based defense assumes (a) the honest region mixes fast and
//! (b) the Sybil region is separated by a slow-mixing bottleneck. We
//! measure both halves: the spectral gap of the lazy random walk, and the
//! empirical probability that a short walk started inside the Sybil set
//! *escapes* it. In the wild topology the Sybil set has no bottleneck at
//! all (escape ≈ 1 in a handful of steps); the injected cluster is the
//! textbook slow-mixing pocket.
//!
//! The wild graph's gap is the one measurement that shares no RNG with
//! the others, so it runs on a second core beside them; every number is
//! the serial order's.

use crate::scenario::Ctx;
use crate::table::Table;
use osn_graph::{par, spectral, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use sybil_defense::common::injected_cluster_graph;

/// Result of the mixing experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mixing {
    /// Spectral gap of the wild simulated graph.
    pub wild_gap: f64,
    /// Spectral gap of the injected-cluster graph.
    pub injected_gap: f64,
    /// Escape probability of 8-step walks from the wild Sybil set.
    pub wild_escape: f64,
    /// Escape probability of 8-step walks from the injected Sybil region.
    pub injected_escape: f64,
    /// Escape probability from a same-size random honest set (baseline).
    pub honest_escape: f64,
}

/// Run the experiment. The wild gap seeds its own RNG and shares nothing
/// with the rest, so it runs on a worker ([`par::join`]) while the caller
/// runs the rest in order on the shared `rng`: the two escapes, the honest
/// shuffle, the injected graph and its gap.
pub fn run(ctx: &Ctx) -> Mixing {
    let g = &ctx.out.graph;
    let (wild_gap, (wild_escape, honest_escape, injected_gap, injected_escape)) = par::join(
        || spectral::spectral_gap(g, 60, ctx.seed ^ 1).unwrap_or(0.0),
        || {
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x313);
            let wild_escape =
                spectral::escape_probability(g, &ctx.sybils, 8, 4000, &mut rng).unwrap_or(0.0);
            // Same-size honest baseline.
            let mut honest = ctx.normals.clone();
            honest.shuffle(&mut rng);
            honest.truncate(ctx.sybils.len().max(1));
            let honest_escape =
                spectral::escape_probability(g, &honest, 8, 4000, &mut rng).unwrap_or(0.0);
            // Injected cluster graph.
            let (inj, first_sybil) = injected_cluster_graph(
                3000,
                300,
                12,
                &mut StdRng::seed_from_u64(ctx.seed ^ 0x1213),
            );
            let inj_set: Vec<NodeId> = (0..300u32).map(|i| NodeId(first_sybil.0 + i)).collect();
            let injected_gap = spectral::spectral_gap(&inj, 60, ctx.seed ^ 2).unwrap_or(0.0);
            let injected_escape =
                spectral::escape_probability(&inj, &inj_set, 8, 4000, &mut rng).unwrap_or(0.0);
            (wild_escape, honest_escape, injected_gap, injected_escape)
        },
    );
    Mixing {
        wild_gap,
        injected_gap,
        wild_escape,
        injected_escape,
        honest_escape,
    }
}

impl Mixing {
    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Quantity", "Wild graph", "Injected-cluster graph"]);
        t.add_row([
            "spectral gap (lazy walk)".to_string(),
            format!("{:.4}", self.wild_gap),
            format!("{:.4}", self.injected_gap),
        ]);
        t.add_row([
            "P(8-step walk escapes Sybil set)".to_string(),
            format!("{:.2}", self.wild_escape),
            format!("{:.2}", self.injected_escape),
        ]);
        let mut out =
            String::from("Mixing analysis — the fast-mixing assumption behind §3.1 defenses\n\n");
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nhonest-set baseline escape: {:.2}. Wild Sybils escape like honest users \
             (no bottleneck to detect); the injected region is the slow-mixing pocket \
             the defenses were built for.\n",
            self.honest_escape
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn wild_sybils_escape_injected_do_not() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let m = run(ctx);
        assert!(
            m.wild_escape > m.injected_escape + 0.3,
            "wild {} vs injected {}",
            m.wild_escape,
            m.injected_escape
        );
        // Wild Sybils behave like honest users within noise.
        assert!((m.wild_escape - m.honest_escape).abs() < 0.2);
        assert!(m.render().contains("Mixing analysis"));
        // Both gaps and all three escapes, byte for byte (`repro --scale
        // tiny --seed 11 mixing` writes this file).
        assert_eq!(
            serde_json::to_string_pretty(&m).expect("mixing serializes"),
            include_str!("../tests/golden/mixing_tiny_seed11.json"),
            "mixing moved"
        );
    }
}
