//! Tool forensics (§3.4 / Table 3): simulate attackers running each of the
//! three commercial Sybil tools and compare the topology each produces —
//! the snowball-sampling bias is what creates accidental Sybil edges.
//!
//! ```sh
//! cargo run --release --example sybil_toolkit
//! ```

use renren_sybils::graph::metrics;
use renren_sybils::graph::{components, NodeId};
use renren_sybils::sim::{simulate, SimConfig, ToolKind};

fn main() {
    println!("tool catalog (paper Table 3):");
    for spec in ToolKind::catalog() {
        println!(
            "  {:34} {:8} {:15} {:>4.0} req/h, snowball bias β={:.1}, \
             popular pool ≥ p{:.0}",
            spec.name,
            spec.platform,
            spec.cost,
            spec.requests_per_hour,
            spec.degree_bias,
            100.0 * spec.popular_percentile
        );
    }

    println!("\nsimulating an attack campaign ...");
    let out = simulate(SimConfig::small(31337));

    for spec in ToolKind::catalog() {
        let accounts: Vec<NodeId> = out
            .sybil_ids()
            .into_iter()
            .filter(|&s| out.accounts[s.index()].tool() == Some(spec.kind))
            .collect();
        if accounts.is_empty() {
            continue;
        }
        let mut sent = 0usize;
        let mut accepted = 0usize;
        for r in out.log.records() {
            if out.accounts[r.from.index()].tool() == Some(spec.kind) {
                sent += 1;
                accepted += r.outcome.is_accepted() as usize;
            }
        }
        let degrees: Vec<usize> = accounts.iter().map(|&a| out.graph.degree(a)).collect();
        let mean_deg = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        let with_sybil_edge = accounts
            .iter()
            .filter(|&&a| {
                out.graph
                    .neighbors(a)
                    .iter()
                    .any(|nb| out.is_sybil(nb.node))
            })
            .count();
        // Friend-set popularity: the mean degree of friended targets — the
        // snowball bias signature.
        let mut friend_deg_sum = 0usize;
        let mut friend_n = 0usize;
        for &a in &accounts {
            for nb in out.graph.neighbors(a) {
                friend_deg_sum += out.graph.degree(nb.node);
                friend_n += 1;
            }
        }
        println!("\n=== {}", spec.name);
        println!(
            "  accounts {:4}  requests {:6}  accepted {:4.1}%  mean degree {:5.1}",
            accounts.len(),
            sent,
            100.0 * accepted as f64 / sent.max(1) as f64,
            mean_deg
        );
        println!(
            "  mean friend degree {:.0} (population mean ≈ {:.0}) — popularity bias at work",
            friend_deg_sum as f64 / friend_n.max(1) as f64,
            2.0 * out.graph.num_edges() as f64 / out.graph.num_nodes() as f64
        );
        println!(
            "  accounts with ≥1 accidental Sybil edge: {}/{} ({:.0}%)",
            with_sybil_edge,
            accounts.len(),
            100.0 * with_sybil_edge as f64 / accounts.len() as f64
        );
    }

    // The aggregate §3.3 picture.
    let comps = components::components_of_subset(&out.graph, |n| out.is_sybil(n));
    let nontrivial: Vec<_> = comps.iter().filter(|c| c.len() > 1).collect();
    println!(
        "\nacross all tools: {} Sybil components (size ≥ 2); largest: {} members",
        nontrivial.len(),
        nontrivial.first().map_or(0, |c| c.len())
    );
    if let Some(giant) = nontrivial.first() {
        let cut = metrics::cut_stats(&out.graph, &giant.nodes);
        println!(
            "largest component: {} Sybil edges vs {} attack edges — \
             {}x more attack edges (the anti-community of Fig. 7)",
            cut.internal_edges,
            cut.crossing_edges,
            cut.crossing_edges / cut.internal_edges.max(1)
        );
    }
}
