//! Defense-algorithm benches: each baseline's two phases (`prepare` a
//! verifier, `judge` one suspect) on the wild simulated graph, and one
//! build-and-verify round on a synthetic injected-cluster graph.

use criterion::{criterion_group, criterion_main, Criterion};
use osn_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use sybil_bench::small_fixture;
use sybil_defense::common::injected_cluster_graph;
use sybil_defense::{
    ConductanceRanking, SumUp, SybilDefense, SybilGuard, SybilInfer, SybilLimit, Verdict,
};

fn bench_defenses(c: &mut Criterion) {
    let out = small_fixture();
    let g = &out.graph;
    let verifier = out
        .normal_ids()
        .into_iter()
        .find(|&n| g.degree(n) >= 30)
        .expect("a connected verifier exists");
    let suspect = out
        .sybil_ids()
        .into_iter()
        .find(|&s| g.degree(s) >= 10)
        .expect("a connected sybil exists");

    let sl = SybilLimit::new(g, 2);
    println!(
        "[defense] SybilLimit wild: r={} w={} min_intersections={}",
        sl.instances, sl.route_len, sl.min_intersections
    );
    // The two phases apart: `prepare` is paid once per (graph, verifier),
    // `judge` once per suspect.
    let sg = SybilGuard::new(g, Some(120), 1);
    let si = SybilInfer::new(g, 3);
    let cr = ConductanceRanking::new();
    let su = SumUp::new(50);
    let defenses: [(&str, &dyn SybilDefense); 5] = [
        ("sybilguard", &sg),
        ("sybillimit", &sl),
        ("sybilinfer", &si),
        ("conductance", &cr),
        ("sumup", &su),
    ];
    for (name, defense) in defenses {
        c.bench_function(&format!("{name}_prepare_wild"), |b| {
            b.iter(|| drop(black_box(defense.prepare(g, verifier))))
        });
        let prepared = defense.prepare(g, verifier);
        c.bench_function(&format!("{name}_judge_wild"), |b| {
            b.iter(|| black_box(prepared.judge(black_box(suspect)) == Verdict::Accept))
        });
    }

    // Injected-cluster setup cost (graph build + one verification round).
    c.bench_function("injected_cluster_build_and_verify", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let (inj, first_sybil) = injected_cluster_graph(1000, 100, 5, &mut rng);
            let sg = SybilGuard::new(&inj, Some(40), 1);
            black_box(sg.verify(&inj, NodeId(0), first_sybil) == Verdict::Accept)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_defenses
}
criterion_main!(benches);
