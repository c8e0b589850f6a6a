//! Figure 9 — degree distribution inside the largest Sybil component.
//!
//! Paper: within the giant component, 34.5% of Sybils have exactly one
//! Sybil edge and 93.7% have at most ten — the component is loose, not the
//! tight-knit cluster community detectors expect.

use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf};
use osn_graph::degree;
use serde::{Deserialize, Serialize};

/// Result of the Fig. 9 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig9 {
    /// Total degree of each giant-component member.
    pub all_degrees: Vec<usize>,
    /// Within-component (Sybil-edge) degree of each member.
    pub sybil_degrees: Vec<usize>,
    /// Fraction with exactly one Sybil edge (paper 0.345).
    pub degree_one: f64,
    /// Fraction with at most ten Sybil edges (paper 0.937).
    pub degree_at_most_10: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx) -> Fig9 {
    let Some(giant) = ctx.giant_component() else {
        return Fig9 {
            all_degrees: Vec::new(),
            sybil_degrees: Vec::new(),
            degree_one: 0.0,
            degree_at_most_10: 0.0,
        };
    };
    let members: std::collections::HashSet<_> = giant.nodes.iter().copied().collect();
    let all_degrees = degree::degrees_of(&ctx.out.graph, &giant.nodes);
    let sybil_degrees =
        degree::restricted_degrees(&ctx.out.graph, &giant.nodes, |n| members.contains(&n));
    Fig9 {
        degree_one: degree::fraction_with_degree(&sybil_degrees, 1),
        degree_at_most_10: degree::fraction_with_degree_at_most(&sybil_degrees, 10),
        all_degrees,
        sybil_degrees,
    }
}

impl Fig9 {
    /// Render the CDFs plus the looseness summary.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 9 — degree distribution of the largest Sybil component\n\n");
        if self.all_degrees.is_empty() {
            out.push_str("(no giant component at this scale/seed)\n");
            return out;
        }
        let all = Cdf::from_iter(self.all_degrees.iter().map(|&d| d as f64));
        let sy = Cdf::from_iter(self.sybil_degrees.iter().map(|&d| d as f64));
        out.push_str(&ascii::plot_cdfs(
            &[("Sybil Edges", &sy), ("All Edges", &all)],
            70,
            14,
            true,
        ));
        out.push_str(&format!(
            "\nSybil-edge degree: exactly 1: {:.1}% (paper 34.5%); ≤10: {:.1}% (paper 93.7%)\n",
            100.0 * self.degree_one,
            100.0 * self.degree_at_most_10
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn giant_component_is_loose() {
        let ctx = Ctx::shared(Scale::Small, 1);
        let fig = run(ctx);
        assert!(!fig.sybil_degrees.is_empty());
        assert!(
            fig.degree_one > 0.2,
            "degree-1 share {} too low",
            fig.degree_one
        );
        assert!(
            fig.degree_at_most_10 > 0.8,
            "≤10 share {} too low",
            fig.degree_at_most_10
        );
        // Everyone in the component has ≥1 sybil edge by construction.
        assert!(fig.sybil_degrees.iter().all(|&d| d >= 1));
        assert!(fig.render().contains("Figure 9"));
    }
}
