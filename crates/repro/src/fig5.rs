//! Figure 5 — degree distribution of all Sybil accounts: all edges vs.
//! edges to other Sybils.
//!
//! Paper headline (§3.2): the all-edges distribution looks like any OSN's,
//! but only ~20% of Sybils have even one edge to another Sybil — the vast
//! majority integrate into the normal graph and never cluster.

use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf};
use osn_graph::degree;
use serde::{Deserialize, Serialize};

/// Result of the Fig. 5 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig5 {
    /// Total degree of every Sybil.
    pub all_degrees: Vec<usize>,
    /// Sybil-edge-only degree of every Sybil.
    pub sybil_degrees: Vec<usize>,
    /// Fraction of Sybils with ≥ 1 Sybil edge (paper ≈ 0.20).
    pub connected_fraction: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx) -> Fig5 {
    let all_degrees = degree::degrees_of(&ctx.out.graph, &ctx.sybils);
    let sybil_degrees =
        degree::restricted_degrees(&ctx.out.graph, &ctx.sybils, |n| ctx.out.is_sybil(n));
    let connected = sybil_degrees.iter().filter(|&&d| d > 0).count();
    let connected_fraction = if ctx.sybils.is_empty() {
        0.0
    } else {
        connected as f64 / ctx.sybils.len() as f64
    };
    Fig5 {
        all_degrees,
        sybil_degrees,
        connected_fraction,
    }
}

impl Fig5 {
    /// Render the two degree CDFs plus the connectivity headline.
    pub fn render(&self) -> String {
        let all = Cdf::from_iter(self.all_degrees.iter().map(|&d| d as f64));
        let sy = Cdf::from_iter(self.sybil_degrees.iter().map(|&d| d as f64));
        let mut out = String::from("Figure 5 — degree of Sybil accounts (log x)\n\n");
        out.push_str(&ascii::plot_cdfs(
            &[("Sybil Edges", &sy), ("All Edges", &all)],
            70,
            14,
            true,
        ));
        out.push_str(&format!(
            "\nSybils with ≥1 Sybil edge: {:.1}% (paper: ≈20%; >70% isolated)\n",
            100.0 * self.connected_fraction
        ));
        out.push_str(&format!(
            "degree medians: all {:.0}, sybil-only {:.0}\n",
            all.median().unwrap_or(0.0),
            sy.median().unwrap_or(0.0)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn most_sybils_have_no_sybil_edges() {
        let ctx = Ctx::shared(Scale::Small, 1);
        let fig = run(ctx);
        assert!(
            fig.connected_fraction < 0.6,
            "connected fraction {}",
            fig.connected_fraction
        );
        // All-edges degrees dominate sybil-only degrees pointwise.
        for (a, s) in fig.all_degrees.iter().zip(&fig.sybil_degrees) {
            assert!(a >= s);
        }
        assert!(fig.render().contains("Figure 5"));
    }
}
