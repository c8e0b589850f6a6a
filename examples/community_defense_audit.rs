//! Audit the community-based Sybil defenses (§3.1): run SybilGuard,
//! SybilLimit, SybilInfer, SumUp, and the conductance-ranking reduction on
//! (a) the synthetic injected-cluster graphs they were validated on and
//! (b) a realistic simulated topology — reproducing the paper's conclusion
//! that integrated Sybils defeat all of them.
//!
//! ```sh
//! cargo run --release --example community_defense_audit
//! ```

use rand::prelude::*;
use rand::rngs::StdRng;
use renren_sybils::defense::common::injected_cluster_graph;
use renren_sybils::defense::{
    evaluate_defense, ConductanceRanking, SybilDefense, SybilGuard, SybilInfer, SybilLimit,
};
use renren_sybils::graph::NodeId;
use renren_sybils::sim::{simulate, SimConfig};

fn main() {
    // --- (a) the synthetic validation setting -----------------------------
    println!("== injected-cluster graph (how these defenses were validated) ==");
    let mut rng = StdRng::seed_from_u64(7);
    let (inj, first_sybil) = injected_cluster_graph(2500, 250, 10, &mut rng);
    println!("honest BA region: 2500 nodes; injected Sybil region: 250 nodes; 10 attack edges\n");
    let inj_sybils: Vec<NodeId> = (0..25u32).map(|i| NodeId(first_sybil.0 + i)).collect();
    let inj_honest: Vec<NodeId> = (100..125u32).map(NodeId).collect();
    let verifier = NodeId(0);

    let defenses: Vec<Box<dyn SybilDefense>> = vec![
        Box::new(SybilGuard::new(&inj, Some(60), 1)),
        Box::new(SybilLimit::new(&inj, 2)),
        Box::new(SybilInfer::new(&inj, 3)),
        Box::new(ConductanceRanking::new()),
    ];
    for d in &defenses {
        let e = evaluate_defense(d.as_ref(), &inj, verifier, &inj_sybils, &inj_honest);
        println!(
            "  {:20} sybils accepted {:3.0}%   honest rejected {:3.0}%",
            d.name(),
            100.0 * e.sybil_acceptance_rate(),
            100.0 * e.honest_rejection_rate()
        );
    }

    // --- (b) the wild topology --------------------------------------------
    println!("\n== simulated wild topology (snowball-sampled, integrated Sybils) ==");
    let out = simulate(SimConfig::small(4));
    let g = &out.graph;
    let mut rng = StdRng::seed_from_u64(8);
    let mut sybils: Vec<NodeId> = out
        .sybil_ids()
        .into_iter()
        .filter(|&s| g.degree(s) >= 5)
        .collect();
    sybils.shuffle(&mut rng);
    sybils.truncate(25);
    let mut honest: Vec<NodeId> = out
        .normal_ids()
        .into_iter()
        .filter(|&n| g.degree(n) >= 5)
        .collect();
    honest.shuffle(&mut rng);
    honest.truncate(25);
    let verifier = *honest.last().expect("sampled honest users");
    println!(
        "{} nodes, {} edges; verifier degree {}\n",
        g.num_nodes(),
        g.num_edges(),
        g.degree(verifier)
    );

    let wild: Vec<Box<dyn SybilDefense>> = vec![
        Box::new(SybilGuard::new(g, None, 1)),
        Box::new(SybilLimit::new(g, 2)),
        Box::new(SybilInfer::new(g, 3)),
        Box::new(ConductanceRanking::new()),
    ];
    for d in &wild {
        let e = evaluate_defense(d.as_ref(), g, verifier, &sybils, &honest);
        println!(
            "  {:20} sybils accepted {:3.0}%   honest rejected {:3.0}%",
            d.name(),
            100.0 * e.sybil_acceptance_rate(),
            100.0 * e.honest_rejection_rate()
        );
    }
    println!(
        "\nconclusion (paper §3): Sybils that integrate into the social graph are \
         indistinguishable to community-based detection — either they are accepted, \
         or honest users drown in false rejections."
    );
}
