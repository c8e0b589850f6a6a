//! Figure 2 — CDF of the accepted fraction of outgoing friend requests.
//!
//! Paper: normal users average 79% acceptance; Sybils average 26%
//! (strangers decline them).

use crate::fig1::ground_truth_sample;
use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf, summary::Summary};
use serde::{Deserialize, Serialize};

/// Result of the Fig. 2 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig2 {
    /// Outgoing accept ratios of sampled Sybils.
    pub sybil: Vec<f64>,
    /// Outgoing accept ratios of sampled normal users.
    pub normal: Vec<f64>,
    /// Mean Sybil ratio (paper: 0.26).
    pub sybil_mean: f64,
    /// Mean normal ratio (paper: 0.79).
    pub normal_mean: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx, per_class: usize) -> Fig2 {
    let ds = ground_truth_sample(ctx, per_class);
    let mut sybil = Vec::new();
    let mut normal = Vec::new();
    for (f, &label) in ds.features.iter().zip(&ds.labels) {
        if label {
            sybil.push(f.outgoing_accept_ratio);
        } else {
            normal.push(f.outgoing_accept_ratio);
        }
    }
    let sybil_mean = Summary::of(sybil.iter().copied()).mean;
    let normal_mean = Summary::of(normal.iter().copied()).mean;
    Fig2 {
        sybil,
        normal,
        sybil_mean,
        normal_mean,
    }
}

impl Fig2 {
    /// Render the CDF chart plus the paper comparison line.
    pub fn render(&self) -> String {
        let s = Cdf::new(self.sybil.clone());
        let n = Cdf::new(self.normal.clone());
        let mut out = String::from("Figure 2 — ratio of accepted outgoing requests\n\n");
        out.push_str(&ascii::plot_cdfs(
            &[("Sybil", &s), ("Normal", &n)],
            70,
            14,
            false,
        ));
        out.push_str(&format!(
            "\nmeans: sybil {:.2} (paper 0.26), normal {:.2} (paper 0.79)\n",
            self.sybil_mean, self.normal_mean
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn outgoing_ratio_separates() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let fig = run(ctx, 50);
        assert!(
            fig.normal_mean > fig.sybil_mean + 0.25,
            "means: normal {} sybil {}",
            fig.normal_mean,
            fig.sybil_mean
        );
        assert!(fig.sybil_mean < 0.45);
        assert!(fig.normal_mean > 0.55);
        assert!(fig.render().contains("paper 0.26"));
    }
}
