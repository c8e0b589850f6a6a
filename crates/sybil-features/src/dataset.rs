//! Labeled ground-truth datasets (the paper's 1000 + 1000 verified sample).
//!
//! Renren handed the authors 1000 confirmed Sybils and 1000 confirmed
//! normal users; all classifier results (Table 1) come from that sample.
//! [`GroundTruth::sample`] draws the analogous labeled sample from a
//! simulation run. Sybils are drawn among accounts that actually *acted*
//! (sent at least one request), mirroring how Renren's set was assembled
//! from caught, active Sybils.

use crate::{FeatureExtractor, FeatureVector};
use osn_graph::NodeId;
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// A labeled behavioral dataset.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Feature vectors.
    pub features: Vec<FeatureVector>,
    /// Ground-truth labels, `true` = Sybil; parallel to `features`.
    pub labels: Vec<bool>,
    /// The sampled account ids, parallel to `features`.
    pub nodes: Vec<NodeId>,
}

impl GroundTruth {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of Sybil examples.
    pub fn num_sybil(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Draw a balanced sample of up to `per_class` Sybils and `per_class`
    /// normal users from `fx`'s simulation, computing features for each.
    ///
    /// Only accounts that sent at least one friend request are eligible
    /// (verification teams can't judge accounts with no behavior).
    pub fn sample<R: Rng + ?Sized>(
        fx: &FeatureExtractor<'_>,
        per_class: usize,
        rng: &mut R,
    ) -> Self {
        let out = fx.output();
        let eligible = |n: &NodeId| !fx.sent_by(*n).is_empty();
        let mut sybils: Vec<NodeId> = out.sybil_ids().into_iter().filter(|n| eligible(n)).collect();
        let mut normals: Vec<NodeId> =
            out.normal_ids().into_iter().filter(|n| eligible(n)).collect();
        sybils.shuffle(rng);
        normals.shuffle(rng);
        sybils.truncate(per_class);
        normals.truncate(per_class);
        let labels = [vec![true; sybils.len()], vec![false; normals.len()]].concat();
        let nodes = [sybils, normals].concat();
        GroundTruth {
            features: fx.features_for_all(&nodes),
            labels,
            nodes,
        }
    }

    /// Shuffle examples in place (keeping features/labels/nodes aligned).
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        self.features = order.iter().map(|&i| self.features[i]).collect();
        self.labels = order.iter().map(|&i| self.labels[i]).collect();
        self.nodes = order.iter().map(|&i| self.nodes[i]).collect();
    }

    /// Split indices into `k` contiguous folds of near-equal size for
    /// cross-validation. Shuffle first for random folds.
    pub fn fold_ranges(&self, k: usize) -> Vec<std::ops::Range<usize>> {
        assert!(k >= 2, "need at least 2 folds");
        let n = self.len();
        let base = n / k;
        let extra = n % k;
        let mut ranges = Vec::with_capacity(k);
        let mut start = 0;
        for i in 0..k {
            let len = base + usize::from(i < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_sim::{simulate, SimConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_is_balanced_and_labeled() {
        let out = simulate(SimConfig::tiny(9));
        let fx = FeatureExtractor::new(&out);
        let mut rng = StdRng::seed_from_u64(1);
        let ds = GroundTruth::sample(&fx, 40, &mut rng);
        assert_eq!(ds.num_sybil(), 40);
        assert_eq!(ds.len(), 80);
        // Labels agree with ground truth.
        for (i, &n) in ds.nodes.iter().enumerate() {
            assert_eq!(ds.labels[i], out.is_sybil(n));
        }
    }

    #[test]
    fn sample_clamps_to_available() {
        let out = simulate(SimConfig::tiny(9));
        let fx = FeatureExtractor::new(&out);
        let mut rng = StdRng::seed_from_u64(2);
        let ds = GroundTruth::sample(&fx, 100_000, &mut rng);
        assert!(ds.num_sybil() <= out.sybil_ids().len());
        assert!(ds.len() - ds.num_sybil() <= out.normal_ids().len());
        assert!(!ds.is_empty());
    }

    #[test]
    fn shuffle_keeps_alignment() {
        let out = simulate(SimConfig::tiny(9));
        let fx = FeatureExtractor::new(&out);
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = GroundTruth::sample(&fx, 30, &mut rng);
        let before: std::collections::HashMap<NodeId, bool> =
            ds.nodes.iter().copied().zip(ds.labels.iter().copied()).collect();
        ds.shuffle(&mut rng);
        for (i, &n) in ds.nodes.iter().enumerate() {
            assert_eq!(ds.labels[i], before[&n]);
        }
    }

    #[test]
    fn fold_ranges_partition() {
        let ds = GroundTruth {
            features: vec![
                FeatureVector {
                    inv_freq_1h: 0.0,
                    inv_freq_400h: 0.0,
                    outgoing_accept_ratio: 0.0,
                    incoming_accept_ratio: 0.0,
                    clustering_coefficient: 0.0,
                };
                10
            ],
            labels: vec![false; 10],
            nodes: vec![NodeId(0); 10],
        };
        let folds = ds.fold_ranges(3);
        assert_eq!(folds.len(), 3);
        let total: usize = folds.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(folds[0], 0..4); // 10 = 4 + 3 + 3
        assert_eq!(folds[1], 4..7);
        assert_eq!(folds[2], 7..10);
    }

    #[test]
    #[should_panic(expected = "need at least 2 folds")]
    fn fold_ranges_rejects_k1() {
        let ds = GroundTruth::default();
        ds.fold_ranges(1);
    }
}
