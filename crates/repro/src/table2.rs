//! Table 2 — statistics of the five largest Sybil components.
//!
//! Paper columns: Sybils, Sybil edges, attack edges, audience (distinct
//! normal users adjacent to the component). Every large component has far
//! more attack edges than Sybil edges.

use crate::scenario::Ctx;
use crate::table::Table;
use osn_graph::metrics;
use serde::{Deserialize, Serialize};

/// One row of Table 2.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ComponentRow {
    /// Number of Sybils in the component.
    pub sybils: usize,
    /// Edges internal to the component (Sybil edges).
    pub sybil_edges: usize,
    /// Edges from the component to non-members (attack edges; edges to
    /// Sybils outside the component are a negligible sliver and counted
    /// here too, as in the paper's methodology).
    pub attack_edges: usize,
    /// Distinct non-member neighbors.
    pub audience: usize,
}

/// Result of the Table 2 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2 {
    /// Up to five rows, largest component first.
    pub rows: Vec<ComponentRow>,
}

/// Run the experiment.
pub fn run(ctx: &Ctx) -> Table2 {
    let rows = ctx
        .sybil_components
        .iter()
        .take(5)
        .map(|c| {
            let stats = metrics::cut_stats(&ctx.out.graph, &c.nodes);
            ComponentRow {
                sybils: c.len(),
                sybil_edges: stats.internal_edges,
                attack_edges: stats.crossing_edges,
                audience: stats.audience,
            }
        })
        .collect();
    Table2 { rows }
}

impl Table2 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(["Sybils", "Sybil Edges", "Attack Edges", "Audience"]);
        for r in &self.rows {
            t.add_row([
                r.sybils.to_string(),
                r.sybil_edges.to_string(),
                r.attack_edges.to_string(),
                r.audience.to_string(),
            ]);
        }
        let mut out = String::from(
            "Table 2 — five largest Sybil components (paper: attack ≫ Sybil edges)\n\n",
        );
        out.push_str(&t.render());
        if let Some(r) = self.rows.first() {
            out.push_str(&format!(
                "\ngiant component: {:.1} attack edges per Sybil edge (paper: 73)\n",
                r.attack_edges as f64 / r.sybil_edges.max(1) as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn attack_edges_dominate_every_large_component() {
        let ctx = Ctx::shared(Scale::Small, 1);
        let t = run(ctx);
        assert!(!t.rows.is_empty());
        for r in &t.rows {
            assert!(
                r.attack_edges > r.sybil_edges,
                "attack {} must exceed sybil {}",
                r.attack_edges,
                r.sybil_edges
            );
            assert!(r.audience <= r.attack_edges);
            assert!(r.audience > 0);
        }
        // Rows sorted by size.
        for w in t.rows.windows(2) {
            assert!(w[0].sybils >= w[1].sybils);
        }
        assert!(t.render().contains("Table 2"));
    }
}
