//! Figure 4 — CDF of the clustering coefficient over each account's first
//! 50 friends.
//!
//! Paper: normal users average 0.0386, Sybils 0.0006 — orders of magnitude
//! apart, because Sybils befriend mutually-unacquainted strangers.
//!
//! Scale caveat (documented in EXPERIMENTS.md): in a 10⁴–10⁵-node
//! simulation the popular users Sybils target are measurably interlinked,
//! so the absolute gap is smaller than on 120M-user Renren; the *ordering*
//! (normal ≫ Sybil) is the reproduced shape.

use crate::fig1::ground_truth_sample;
use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf, summary::Summary};
use serde::{Deserialize, Serialize};

/// Result of the Fig. 4 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4 {
    /// First-50 clustering coefficients of sampled Sybils.
    pub sybil: Vec<f64>,
    /// First-50 clustering coefficients of sampled normal users.
    pub normal: Vec<f64>,
    /// Mean Sybil cc (paper: 0.0006).
    pub sybil_mean: f64,
    /// Mean normal cc (paper: 0.0386).
    pub normal_mean: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx, per_class: usize) -> Fig4 {
    let ds = ground_truth_sample(ctx, per_class);
    let mut sybil = Vec::new();
    let mut normal = Vec::new();
    for (f, &label) in ds.features.iter().zip(&ds.labels) {
        if label {
            sybil.push(f.clustering_coefficient);
        } else {
            normal.push(f.clustering_coefficient);
        }
    }
    Fig4 {
        sybil_mean: Summary::of(sybil.iter().copied()).mean,
        normal_mean: Summary::of(normal.iter().copied()).mean,
        sybil,
        normal,
    }
}

impl Fig4 {
    /// Render the log-x CDF chart plus the paper comparison line.
    pub fn render(&self) -> String {
        let s = Cdf::new(self.sybil.clone());
        let n = Cdf::new(self.normal.clone());
        let mut out =
            String::from("Figure 4 — clustering coefficient of first 50 friends (log x)\n\n");
        out.push_str(&ascii::plot_cdfs(
            &[("Sybil", &s), ("Normal", &n)],
            70,
            14,
            true,
        ));
        out.push_str(&format!(
            "\nmeans: sybil {:.4} (paper 0.0006), normal {:.4} (paper 0.0386); \
             ratio {:.1}x (paper 64x — gap shrinks at simulation scale)\n",
            self.sybil_mean,
            self.normal_mean,
            self.normal_mean / self.sybil_mean.max(1e-9)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn normal_users_cluster_more() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let fig = run(ctx, 50);
        assert!(
            fig.normal_mean > fig.sybil_mean,
            "ordering must hold: normal {} vs sybil {}",
            fig.normal_mean,
            fig.sybil_mean
        );
        assert!(fig.render().contains("Figure 4"));
    }
}
