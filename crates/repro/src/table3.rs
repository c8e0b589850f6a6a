//! Table 3 — the commercial Sybil tools, with measured in-simulation
//! behavior appended.
//!
//! The paper's table is a catalog (name, platform, cost). We reproduce the
//! catalog and extend it with what each tool's accounts actually did in
//! the simulation — request volume, acceptance, and accidental Sybil-edge
//! rate — which is the §3.4 argument in numbers.

use crate::scenario::Ctx;
use crate::table::Table;
use osn_sim::ToolKind;
use serde::{Deserialize, Serialize};

/// Per-tool measured behavior.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ToolRow {
    /// Tool name (catalog).
    pub name: String,
    /// Platform (catalog).
    pub platform: String,
    /// Cost (catalog).
    pub cost: String,
    /// Sybils driven by this tool.
    pub accounts: usize,
    /// Friend requests sent by those Sybils.
    pub requests: usize,
    /// Acceptance rate of those requests.
    pub accept_rate: f64,
    /// Fraction of those Sybils with ≥ 1 Sybil edge.
    pub sybil_edge_rate: f64,
}

/// Result of the Table 3 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per tool, catalog order.
    pub rows: Vec<ToolRow>,
}

/// Run the experiment.
pub fn run(ctx: &Ctx) -> Table3 {
    let mut rows = Vec::new();
    for spec in ToolKind::catalog() {
        let accounts: Vec<_> = ctx
            .sybils
            .iter()
            .filter(|&&s| ctx.out.accounts[s.index()].tool() == Some(spec.kind))
            .copied()
            .collect();
        let mut requests = 0usize;
        let mut accepted = 0usize;
        for r in ctx.out.log.records() {
            if ctx.out.accounts[r.from.index()].tool() == Some(spec.kind) {
                requests += 1;
                if r.outcome.is_accepted() {
                    accepted += 1;
                }
            }
        }
        let with_sybil_edge = accounts
            .iter()
            .filter(|&&s| {
                ctx.out
                    .graph
                    .neighbors(s)
                    .iter()
                    .any(|nb| ctx.out.is_sybil(nb.node))
            })
            .count();
        rows.push(ToolRow {
            name: spec.name.to_string(),
            platform: spec.platform.to_string(),
            cost: spec.cost.to_string(),
            accounts: accounts.len(),
            requests,
            accept_rate: accepted as f64 / requests.max(1) as f64,
            sybil_edge_rate: with_sybil_edge as f64 / accounts.len().max(1) as f64,
        });
    }
    Table3 { rows }
}

impl Table3 {
    /// Render catalog plus measured columns.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Tool",
            "Platform",
            "Cost",
            "Accounts",
            "Requests",
            "Accept%",
            "SybilEdge%",
        ]);
        for r in &self.rows {
            t.add_row([
                r.name.clone(),
                r.platform.clone(),
                r.cost.clone(),
                r.accounts.to_string(),
                r.requests.to_string(),
                format!("{:.1}", 100.0 * r.accept_rate),
                format!("{:.1}", 100.0 * r.sybil_edge_rate),
            ]);
        }
        let mut out = String::from(
            "Table 3 — Sybil creation/management tools (catalog + measured behavior)\n\n",
        );
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn catalog_rows_and_activity() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let t = run(ctx);
        assert_eq!(t.rows.len(), 3);
        assert!(t.rows.iter().any(|r| r.accounts > 0));
        let total: usize = t.rows.iter().map(|r| r.accounts).sum();
        assert_eq!(total, ctx.sybils.len(), "every sybil belongs to a tool");
        for r in &t.rows {
            assert!(r.accept_rate <= 1.0);
            assert!(r.sybil_edge_rate <= 1.0);
        }
        assert!(t.render().contains("Renren Marketing Assistant V1.0"));
    }
}
