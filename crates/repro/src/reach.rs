//! Spam-reach experiment — the paper's motivation, quantified.
//!
//! Table 2 reports each Sybil component's *audience* (distinct honest
//! neighbors) as its spam surface. But Renren content travels further
//! than one hop: "blog entries … can be forwarded across multiple social
//! hops much like retweets" (§2.1). This experiment seeds an independent
//! cascade at the honest friends of each large Sybil component and
//! measures how far an ad actually propagates, at several forwarding
//! probabilities. The cells of one run share their percolation samples, so
//! they are positively correlated: judge variance across runs, not cells.

use crate::scenario::Ctx;
use crate::table::Table;
use osn_graph::{cascade, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Reach measurements for one Sybil component.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReachRow {
    /// Component size (Sybils).
    pub sybils: usize,
    /// Direct audience (Table 2's column: distinct honest neighbors).
    pub audience: usize,
    /// Expected cascade reach at each probed forwarding probability.
    pub reach: Vec<(f64, f64)>,
}

/// Result of the reach experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Reach {
    /// Forwarding probabilities probed.
    pub probabilities: Vec<f64>,
    /// One row per large component (top 3).
    pub rows: Vec<ReachRow>,
    /// Fraction of the normal population reachable by the giant
    /// component's campaign at the highest probed probability.
    pub giant_max_coverage: f64,
}

/// Run the experiment: `trials` percolation samples, each shared by every
/// component and probability (see [`cascade::percolation_reach`]).
pub fn run(ctx: &Ctx, trials: usize) -> Reach {
    let probabilities = vec![0.01, 0.05, 0.15];
    let g = &ctx.out.graph;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5EAC);
    let comps = ctx.sybil_components.iter().take(3);
    // Seeds: each component's honest audience (the accounts that see the
    // ad directly on their feed) — Table 2's column, as a set. A component
    // of the Sybil-induced subgraph has no Sybil neighbor outside itself.
    let audiences: Vec<Vec<NodeId>> = comps
        .clone()
        .map(|comp| {
            let mut seeds: Vec<NodeId> = comp
                .nodes
                .iter()
                .flat_map(|&s| g.neighbors(s))
                .map(|nb| nb.node)
                .filter(|&n| !ctx.out.is_sybil(n))
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            seeds
        })
        .collect();
    let means = cascade::percolation_reach(g, &audiences, &probabilities, trials, &mut rng);
    let rows: Vec<ReachRow> = comps
        .zip(audiences.iter().zip(means))
        .map(|(comp, (seeds, means))| ReachRow {
            sybils: comp.len(),
            audience: seeds.len(),
            reach: probabilities.iter().copied().zip(means).collect(),
        })
        .collect();
    // Reach is monotone in `p`, so the highest probability is the last cell.
    let giant_max_coverage = rows
        .first()
        .and_then(|giant| giant.reach.last())
        .map_or(0.0, |&(_, r)| r / ctx.normals.len().max(1) as f64);
    Reach {
        probabilities,
        rows,
        giant_max_coverage,
    }
}

impl Reach {
    /// Render the reach table.
    pub fn render(&self) -> String {
        let mut header = vec!["Sybils".to_string(), "Audience".to_string()];
        for p in &self.probabilities {
            header.push(format!("reach@p={p}"));
        }
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut row = vec![r.sybils.to_string(), r.audience.to_string()];
            for (_, reach) in &r.reach {
                row.push(format!("{reach:.0}"));
            }
            t.add_row(row);
        }
        let mut out = String::from(
            "Spam reach — cascades seeded at each component's audience (§2.1 motivation)\n\n",
        );
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ngiant component campaign touches {:.0}% of the normal population at the \
             highest forwarding rate — why Table 2's audience column understates the threat\n",
            100.0 * self.giant_max_coverage
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runspec::RunSpec;
    use crate::scenario::Scale;

    #[test]
    fn reach_exceeds_audience_and_grows_with_p() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let r = run(ctx, 30);
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            // Reach includes the seeds, so it is at least the audience.
            assert!(row.reach[0].1 >= row.audience as f64);
            // Monotone in p, in every sample and so in the mean.
            for w in row.reach.windows(2) {
                assert!(w[1].1 >= w[0].1, "reach must not shrink with p");
            }
        }
        assert_eq!(
            r.giant_max_coverage,
            r.rows[0].reach[2].1 / ctx.normals.len() as f64
        );
        assert!(r.render().contains("Spam reach"));
        // At the binary's trial count, every mean byte for byte
        // (`repro --scale tiny --seed 11 reach` writes this file).
        let trials = RunSpec::builder().scale(Scale::Tiny).build().reach_trials();
        assert_eq!(
            serde_json::to_string_pretty(&run(ctx, trials)).expect("means serialize"),
            include_str!("../tests/golden/reach_tiny_seed11.json"),
            "reach means moved"
        );
    }
}
