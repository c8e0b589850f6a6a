//! Figure 3 — CDF of the accepted fraction of incoming friend requests.
//!
//! Paper: Sybils accept essentially everything (80% of Sybils accept 100%
//! of incoming requests; the rest were banned before answering), while
//! normal users are spread across the board.

use crate::fig1::ground_truth_sample;
use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf};
use serde::{Deserialize, Serialize};

/// Result of the Fig. 3 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig3 {
    /// Incoming accept ratios of sampled Sybils.
    pub sybil: Vec<f64>,
    /// Incoming accept ratios of sampled normal users.
    pub normal: Vec<f64>,
    /// Fraction of Sybils accepting 100% of incoming requests (paper ≈ 0.8).
    pub sybils_accepting_all: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx, per_class: usize) -> Fig3 {
    let ds = ground_truth_sample(ctx, per_class);
    let mut sybil = Vec::new();
    let mut normal = Vec::new();
    for (f, &label) in ds.features.iter().zip(&ds.labels) {
        if label {
            sybil.push(f.incoming_accept_ratio);
        } else {
            normal.push(f.incoming_accept_ratio);
        }
    }
    let sybils_accepting_all = if sybil.is_empty() {
        0.0
    } else {
        sybil.iter().filter(|&&x| x >= 1.0).count() as f64 / sybil.len() as f64
    };
    Fig3 {
        sybil,
        normal,
        sybils_accepting_all,
    }
}

impl Fig3 {
    /// Render the CDF chart plus the paper comparison line.
    pub fn render(&self) -> String {
        let s = Cdf::new(self.sybil.clone());
        let n = Cdf::new(self.normal.clone());
        let mut out = String::from("Figure 3 — ratio of accepted incoming requests\n\n");
        out.push_str(&ascii::plot_cdfs(
            &[("Normal", &n), ("Sybil", &s)],
            70,
            14,
            false,
        ));
        out.push_str(&format!(
            "\nSybils accepting every incoming request: {:.0}% (paper ≈ 80%; \
             the shortfall is accounts banned with pending requests)\n",
            100.0 * self.sybils_accepting_all
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn sybils_accept_nearly_everything() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let fig = run(ctx, 50);
        assert!(
            fig.sybils_accepting_all > 0.5,
            "sybils accepting all: {}",
            fig.sybils_accepting_all
        );
        // Normal spread: substantial mass below 0.9.
        let below = fig.normal.iter().filter(|&&x| x < 0.9).count();
        assert!(below * 4 >= fig.normal.len(), "normal should be spread out");
        assert!(fig.render().contains("Figure 3"));
    }
}
