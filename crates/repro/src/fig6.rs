//! Figure 6 — size distribution of connected Sybil components.
//!
//! Paper (§3.3): the Sybil-only subgraph fragments into 7,094 components;
//! 98% have fewer than 10 members, yet one giant component holds most
//! connected Sybils (63,541 of ~92k, i.e. ≈69% of Sybils with Sybil
//! edges).

use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf};
use serde::{Deserialize, Serialize};

/// Result of the Fig. 6 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6 {
    /// Sizes of all non-singleton Sybil components, largest first.
    pub sizes: Vec<usize>,
    /// Fraction of components with fewer than 10 members (paper 0.98).
    pub below_10: f64,
    /// Fraction of connected Sybils inside the giant component
    /// (paper ≈ 0.69).
    pub giant_share: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx) -> Fig6 {
    let sizes: Vec<usize> = ctx.sybil_components.iter().map(|c| c.len()).collect();
    let below_10 = if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().filter(|&&s| s < 10).count() as f64 / sizes.len() as f64
    };
    let connected: usize = sizes.iter().sum();
    let giant_share = match sizes.first() {
        Some(&g) if connected > 0 => g as f64 / connected as f64,
        _ => 0.0,
    };
    Fig6 {
        sizes,
        below_10,
        giant_share,
    }
}

impl Fig6 {
    /// Render the size CDF plus the paper-comparison summary.
    pub fn render(&self) -> String {
        let cdf = Cdf::from_iter(self.sizes.iter().map(|&s| s as f64));
        let mut out = String::from("Figure 6 — size of connected Sybil components\n\n");
        if self.sizes.is_empty() {
            out.push_str("(no Sybil components formed at this scale/seed)\n");
            return out;
        }
        out.push_str(&ascii::plot_cdfs(&[("Components", &cdf)], 70, 14, true));
        out.push_str(&format!(
            "\ncomponents: {}; <10 members: {:.0}% (paper 98%); giant holds {:.0}% \
             of connected Sybils (paper ≈69%)\n",
            self.sizes.len(),
            100.0 * self.below_10,
            100.0 * self.giant_share
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn heavy_tail_with_dominant_giant() {
        let ctx = Ctx::shared(Scale::Small, 1);
        let fig = run(ctx);
        assert!(!fig.sizes.is_empty(), "some sybil components must form");
        assert!(
            fig.below_10 > 0.5,
            "most components should be small: {}",
            fig.below_10
        );
        assert!(
            fig.giant_share > 0.3,
            "giant must dominate: {}",
            fig.giant_share
        );
        assert!(fig.render().contains("Figure 6"));
    }
}
