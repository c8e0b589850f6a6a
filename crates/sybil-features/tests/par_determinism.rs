//! Serial-vs-parallel determinism of feature extraction: for randomly
//! seeded simulations, `features_for_all` must return the exact bits of
//! the per-node serial loop at every thread count, and so must the
//! ground-truth sample that is extracted through it.

use osn_graph::NodeId;
use osn_sim::{simulate, SimConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sybil_features::dataset::GroundTruth;
use sybil_features::{clustering, FeatureExtractor, FeatureVector};

/// Run `body` with `RENREN_THREADS` pinned, restoring the prior value
/// even if `body` panics. Env vars are process-global, so every test in
/// this binary that sets one takes this lock (a panicking test poisons
/// it: the guard protects no data, so it is taken anyway).
fn with_threads_env<T>(value: &str, body: impl FnOnce() -> T) -> T {
    use osn_graph::par::THREADS_ENV;
    use std::sync::{Mutex, PoisonError};
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(v) => std::env::set_var(THREADS_ENV, v),
                None => std::env::remove_var(THREADS_ENV),
            }
        }
    }
    static ENV_LOCK: Mutex<()> = Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = Restore(std::env::var(THREADS_ENV).ok());
    std::env::set_var(THREADS_ENV, value);
    body()
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

    /// The snapshot kernel behind `features_for_all` gives the graph
    /// metric's bits for the Fig. 4 feature at every thread count.
    #[test]
    fn snapshot_cc_matches_serial_metric(seed in 0u64..1000) {
        let out = simulate(SimConfig::tiny(seed));
        let fx = FeatureExtractor::new(&out);
        let nodes: Vec<NodeId> = (0..out.accounts.len() as u32).map(NodeId).collect();
        let serial: Vec<f64> = nodes
            .iter()
            .map(|&n| clustering::first50_cc(&out.graph, n))
            .collect();
        for threads in ["1", "4"] {
            let mut parallel = Vec::new();
            with_threads_env(threads, || {
                let all = fx.features_for_all(&nodes);
                parallel = all.iter().map(|f| f.clustering_coefficient).collect();
            });
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
    }
}
