//! End-to-end integration: one small-scale simulation driven through every
//! stage of the pipeline, asserting the paper's headline shapes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use renren_sybils::detect::eval::cross_validate;
use renren_sybils::detect::realtime::{replay, RealtimeConfig};
use renren_sybils::detect::ThresholdClassifier;
use renren_sybils::features::dataset::GroundTruth;
use renren_sybils::features::FeatureExtractor;
use renren_sybils::graph::{components, metrics};
use renren_sybils::sim::{simulate, SimConfig, SimOutput};
use std::sync::OnceLock;

fn fixture() -> &'static SimOutput {
    static FIXTURE: OnceLock<SimOutput> = OnceLock::new();
    FIXTURE.get_or_init(|| simulate(SimConfig::small(1)))
}

#[test]
fn sybils_mostly_isolated_from_each_other() {
    // §3.2: the vast majority of Sybils have no Sybil edges.
    let out = fixture();
    let frac = out.sybil_connectivity_fraction();
    assert!(
        (0.02..0.55).contains(&frac),
        "sybil-edge incidence {frac} out of band"
    );
}

#[test]
fn every_sybil_component_has_more_attack_than_sybil_edges() {
    // Fig. 7: all components above the y = x diagonal.
    let out = fixture();
    let comps = components::components_of_subset(&out.graph, |n| out.is_sybil(n));
    let mut checked = 0;
    for c in comps.iter().filter(|c| c.len() > 1) {
        let cut = metrics::cut_stats(&out.graph, &c.nodes);
        assert!(
            cut.crossing_edges > cut.internal_edges,
            "component of {} sybils: {} attack vs {} sybil edges",
            c.len(),
            cut.crossing_edges,
            cut.internal_edges
        );
        checked += 1;
    }
    assert!(checked > 0, "no sybil components formed");
}

#[test]
fn giant_component_dominates_connected_sybils() {
    // Fig. 6: one dominant, loose component.
    let out = fixture();
    let comps = components::components_of_subset(&out.graph, |n| out.is_sybil(n));
    let sizes: Vec<usize> = comps.iter().map(|c| c.len()).filter(|&s| s > 1).collect();
    let connected: usize = sizes.iter().sum();
    // The giant's share of connected Sybils fluctuates with the (few)
    // evader hubs a small-scale seed draws; the paper's value is 69%, and
    // the reproduced shape is "one component dominates the size
    // distribution's tail".
    assert!(
        sizes[0] * 3 >= connected,
        "giant {} of {} connected",
        sizes[0],
        connected
    );
    assert!(sizes[0] >= 10, "giant too small: {}", sizes[0]);
}

#[test]
fn classifiers_reach_table1_accuracy() {
    // Table 1: ≈99% for both the SVM and the threshold rule. At small
    // simulated scale we accept ≥95%.
    let out = fixture();
    let fx = FeatureExtractor::new(out);
    let mut rng = StdRng::seed_from_u64(2);
    let mut ds = GroundTruth::sample(&fx, 200, &mut rng);
    ds.shuffle(&mut rng);
    let (thr, _) = cross_validate(&ds, 5, ThresholdClassifier::calibrate);
    assert!(
        thr.accuracy() > 0.95,
        "threshold CV accuracy {:.3}",
        thr.accuracy()
    );
    use renren_sybils::detect::svm::kernel::KernelSvmParams;
    use renren_sybils::detect::KernelSvm;
    let (svm, _) = cross_validate(&ds, 5, |train| {
        KernelSvm::train_features(&train.features, &train.labels, &KernelSvmParams::default())
    });
    assert!(
        svm.accuracy() > 0.95,
        "svm CV accuracy {:.3}",
        svm.accuracy()
    );
}

#[test]
fn realtime_detector_deployment_works() {
    // §2.3 deployment: high catch rate, negligible false positives.
    let out = fixture();
    let fx = FeatureExtractor::new(out);
    let mut rng = StdRng::seed_from_u64(3);
    let ds = GroundTruth::sample(&fx, 150, &mut rng);
    let rule = ThresholdClassifier::calibrate(&ds);
    let report = replay(
        out,
        &RealtimeConfig {
            rule,
            ..RealtimeConfig::default()
        },
    );
    assert!(
        report.catch_rate() > 0.6,
        "catch rate {:.2}",
        report.catch_rate()
    );
    let fp_rate = report.false_positives as f64 / out.normal_ids().len() as f64;
    assert!(fp_rate < 0.01, "false positive rate {fp_rate}");
}

#[test]
fn banned_accounts_are_sybils_and_stop_acting() {
    let out = fixture();
    for (i, a) in out.accounts.iter().enumerate() {
        if let Some(b) = a.banned_at {
            assert!(a.is_sybil(), "only sybils get banned in-model");
            assert!(b >= a.created_at);
            // No outgoing requests after the ban.
            for &idx in out.log.sender_index(out.accounts.len()).of(i) {
                assert!(out.log.get(idx as usize).sent_at <= b);
            }
        }
    }
}

#[test]
fn graph_and_log_are_consistent() {
    let out = fixture();
    // Every edge corresponds to an accepted request; every accepted request
    // to an edge (or a crossed duplicate, which still has an edge).
    let mut accepted = std::collections::HashSet::new();
    for r in out.log.records() {
        if r.outcome.is_accepted() {
            let (a, b) = (r.from.0.min(r.to.0), r.from.0.max(r.to.0));
            accepted.insert((a, b));
            assert!(
                out.graph.has_edge(r.from, r.to),
                "accepted request without an edge"
            );
        }
    }
    for e in out.graph.edges() {
        let key = (e.a.0.min(e.b.0), e.a.0.max(e.b.0));
        assert!(accepted.contains(&key), "edge without an accepted request");
    }
}
