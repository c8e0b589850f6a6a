//! Figure 8 — the order in which Sybils added their Sybil friends.
//!
//! For 1,000 random Sybils from the giant component, each column is the
//! account's chronological edge sequence with Sybil edges marked. Paper:
//! Sybil edges are scattered ~uniformly over each account's life
//! (accidental creation); only a handful of circled accounts show the
//! solid prefix runs of intentional interlinking.

use crate::ascii;
use crate::scenario::Ctx;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use sybil_features::temporal::{self, EdgeOrderColumn};

/// Result of the Fig. 8 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8 {
    /// One column per sampled account.
    pub columns: Vec<EdgeOrderColumn>,
    /// Accounts whose Sybil edges form an intentional-looking prefix run.
    pub intentional: usize,
    /// Mean normalized position of Sybil edges (≈0.5 = uniform/accidental).
    pub mean_position: f64,
    /// Mean position excluding intentional-looking columns.
    pub accidental_mean_position: f64,
}

/// Run the experiment, sampling up to `sample` accounts from the giant
/// component.
pub fn run(ctx: &Ctx, sample: usize) -> Fig8 {
    let mut nodes = match ctx.giant_component() {
        Some(c) => c.nodes.clone(),
        None => Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xF18);
    nodes.shuffle(&mut rng);
    nodes.truncate(sample);
    let columns = temporal::columns_for(&ctx.out.graph, &nodes, |n| ctx.out.is_sybil(n));
    let summary = temporal::summarize(&columns);
    Fig8 {
        columns,
        intentional: summary.intentional,
        mean_position: summary.mean_position,
        accidental_mean_position: summary.accidental_mean_position,
    }
}

impl Fig8 {
    /// Render the dot matrix plus the uniformity summary.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 8 — order of adding Sybil friends\n\n");
        if self.columns.is_empty() {
            out.push_str("(no giant component at this scale/seed)\n");
            return out;
        }
        let cols: Vec<(usize, Vec<usize>)> = self
            .columns
            .iter()
            .map(|c| (c.total, c.sybil_positions.clone()))
            .collect();
        out.push_str(&ascii::dot_matrix(&cols, 100, 24));
        out.push_str(&format!(
            "\nmean normalized Sybil-edge position: {:.2} overall, {:.2} excluding \
             intentional columns (0.5 = uniform ⇒ accidental)\n",
            self.mean_position, self.accidental_mean_position
        ));
        out.push_str(&format!(
            "intentional-looking accounts: {} of {} sampled (paper: \"a handful\")\n",
            self.intentional,
            self.columns.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn sybil_edges_scatter_uniformly() {
        let ctx = Ctx::shared(Scale::Small, 1);
        let fig = run(ctx, 200);
        assert!(!fig.columns.is_empty());
        // Accidental edges scatter: mean normalized position near 0.5
        // (intentional prefixes would pull it toward 0).
        assert!(
            (0.2..=0.8).contains(&fig.accidental_mean_position),
            "accidental mean position {}",
            fig.accidental_mean_position
        );
        // Only a minority look intentional.
        assert!(
            fig.intentional * 3 <= fig.columns.len(),
            "{} of {} intentional",
            fig.intentional,
            fig.columns.len()
        );
        assert!(fig.render().contains("Figure 8"));
    }
}
