//! Figure 7 — scatter of attack edges vs. Sybil edges per component.
//!
//! Paper: every component sits **above** the `y = x` diagonal — more
//! attack edges than Sybil edges — so none meets the small-cut premise of
//! community-based Sybil detection.

use crate::ascii;
use crate::scenario::Ctx;
use osn_graph::metrics;
use serde::{Deserialize, Serialize};

/// Result of the Fig. 7 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig7 {
    /// `(sybil_edges, attack_edges)` per component.
    pub points: Vec<(usize, usize)>,
    /// Fraction of components strictly above `y = x` (paper: 1.0).
    pub above_diagonal: f64,
}

/// Run the experiment.
pub fn run(ctx: &Ctx) -> Fig7 {
    let points: Vec<(usize, usize)> = ctx
        .sybil_components
        .iter()
        .map(|c| {
            let s = metrics::cut_stats(&ctx.out.graph, &c.nodes);
            (s.internal_edges, s.crossing_edges)
        })
        .collect();
    let above = points.iter().filter(|&&(s, a)| a > s).count();
    let above_diagonal = if points.is_empty() {
        0.0
    } else {
        above as f64 / points.len() as f64
    };
    Fig7 {
        points,
        above_diagonal,
    }
}

impl Fig7 {
    /// Render the log–log scatter with the diagonal.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|&(s, a)| (s.max(1) as f64, a.max(1) as f64))
            .collect();
        let mut out =
            String::from("Figure 7 — Sybil edges (x) vs attack edges (y) per component\n\n");
        out.push_str(&ascii::scatter_loglog(&pts, 70, 20));
        out.push_str(&format!(
            "\ncomponents above y = x: {:.0}% (paper: 100%)\n",
            100.0 * self.above_diagonal
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn every_component_above_diagonal() {
        let ctx = Ctx::shared(Scale::Small, 1);
        let fig = run(ctx);
        assert!(!fig.points.is_empty());
        assert!(
            fig.above_diagonal >= 0.9,
            "fraction above diagonal: {}",
            fig.above_diagonal
        );
        assert!(fig.render().contains("Figure 7"));
    }
}
