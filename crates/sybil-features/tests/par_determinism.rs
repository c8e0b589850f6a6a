//! Serial-vs-parallel determinism of feature extraction: for randomly
//! seeded simulations, `features_for_all` must return the exact bits of
//! the per-node serial loop at every thread count, and so must the
//! ground-truth sample that is extracted through it.

use osn_graph::{par, NodeId};
use osn_sim::{simulate, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sybil_features::dataset::GroundTruth;
use sybil_features::{clustering, FeatureExtractor, FeatureVector};

/// Run `body` with `RENREN_THREADS` pinned, restoring the prior value.
fn with_threads_env(value: &str, body: impl FnOnce()) {
    use std::sync::{Mutex, OnceLock};
    static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _guard = ENV_LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
    let prior = std::env::var(par::THREADS_ENV).ok();
    std::env::set_var(par::THREADS_ENV, value);
    body();
    match prior {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }
}

proptest! {
    // Each case runs a full (tiny) simulation, so keep the count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn features_for_all_is_thread_count_invariant(seed in 0u64..1000) {
        let out = simulate(SimConfig::tiny(seed));
        let fx = FeatureExtractor::new(&out);
        let nodes: Vec<NodeId> = (0..out.accounts.len() as u32).map(NodeId).collect();
        let serial: Vec<FeatureVector> =
            nodes.iter().map(|&n| fx.features_for(n)).collect();
        for threads in ["1", "2", "3", "6", "8"] {
            let mut parallel = Vec::new();
            with_threads_env(threads, || {
                parallel = fx.features_for_all(&nodes);
            });
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
    }

    #[test]
    fn ground_truth_sample_is_thread_count_invariant(seed in 0u64..1000) {
        let out = simulate(SimConfig::tiny(seed));
        let fx = FeatureExtractor::new(&out);
        let mut samples = Vec::new();
        for threads in ["1", "2"] {
            with_threads_env(threads, || {
                samples.push(GroundTruth::sample(&fx, 40, &mut StdRng::seed_from_u64(seed)));
            });
        }
        let (one, two) = (&samples[0], &samples[1]);
        prop_assert_eq!(one, two);
        // Sybils first, then normals, each with its own serial features.
        prop_assert!(one.labels.windows(2).all(|w| w[0] >= w[1]));
        let serial: Vec<FeatureVector> = one.nodes.iter().map(|&n| fx.features_for(n)).collect();
        prop_assert_eq!(&one.features, &serial);
    }

    #[test]
    fn first50_cc_all_matches_serial_metric(seed in 0u64..1000) {
        let out = simulate(SimConfig::tiny(seed));
        let nodes: Vec<NodeId> = (0..out.accounts.len() as u32).map(NodeId).collect();
        let serial: Vec<f64> = nodes
            .iter()
            .map(|&n| clustering::first50_cc(&out.graph, n))
            .collect();
        for threads in ["1", "4"] {
            let mut parallel = Vec::new();
            with_threads_env(threads, || {
                parallel = clustering::first50_cc_all(&out.graph, &nodes);
            });
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
    }
}
