//! Classifier evaluation: confusion matrices (Table 1), k-fold
//! cross-validation, ROC curves.

use crate::Classifier;
use serde::{Deserialize, Serialize};
use sybil_features::dataset::GroundTruth;
use sybil_features::FeatureVector;

/// Binary confusion matrix with the paper's Table 1 orientation:
/// rows = true class, columns = predicted class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// True Sybil predicted Sybil.
    pub tp: usize,
    /// True Sybil predicted non-Sybil.
    pub fn_: usize,
    /// True non-Sybil predicted Sybil.
    pub fp: usize,
    /// True non-Sybil predicted non-Sybil.
    pub tn: usize,
}

impl ConfusionMatrix {
    /// Record one example.
    pub fn record(&mut self, truth: bool, predicted: bool) {
        match (truth, predicted) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Merge another matrix into this one.
    pub(crate) fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fn_ += other.fn_;
        self.fp += other.fp;
        self.tn += other.tn;
    }

    /// Total examples.
    pub fn total(&self) -> usize {
        self.tp + self.fn_ + self.fp + self.tn
    }

    /// Fraction of true Sybils predicted Sybil (Table 1 row 1 col 1).
    pub fn sybil_recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Fraction of true non-Sybils predicted Sybil (Table 1 row 2 col 1).
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Fraction of true non-Sybils predicted non-Sybil.
    pub fn normal_recall(&self) -> f64 {
        ratio(self.tn, self.fp + self.tn)
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Evaluate a trained classifier on (a slice of) a dataset.
pub fn evaluate<C: Classifier>(
    clf: &C,
    features: &[FeatureVector],
    labels: &[bool],
) -> ConfusionMatrix {
    assert_eq!(features.len(), labels.len());
    let mut m = ConfusionMatrix::default();
    for (f, &l) in features.iter().zip(labels) {
        m.record(l, clf.is_sybil(f));
    }
    m
}

/// One task of [`cross_validate`]: a held-out fold's confusion counts, or
/// the classifier fit to the full sample.
enum Fit<C> {
    HeldOut(ConfusionMatrix),
    Full(C),
}

/// k-fold cross-validation (the paper uses 5 folds on the 1000+1000
/// sample) plus the fit to the full sample: `train` receives a training
/// split and returns a classifier. Returns the matrix aggregating every
/// fold's held-out predictions, and the classifier `train` fit to all of
/// `ds` (a calibrated rule or ROC model for the record; it has seen every
/// example, so it is no generalization estimate).
///
/// The dataset should be shuffled beforehand; folds are contiguous ranges.
///
/// The `k + 1` fits are independent, so they run as one parallel map on
/// [`osn_graph::par::num_threads`] threads (`RENREN_THREADS` overrides):
/// task `i < k` trains without fold `i` and evaluates on it, task `k`
/// trains on the full sample, so with 5 folds on 2 threads the full fit
/// shares the second chunk (3 + 3 tasks, three rounds). `train` therefore
/// takes a `Fn` closure rather than `FnMut`. Each classifier is trained
/// (and evaluated) entirely within one worker, and the integer confusion
/// counts merge in fold order, so the result is identical at any thread
/// count.
pub fn cross_validate<C, F>(ds: &GroundTruth, k: usize, train: F) -> (ConfusionMatrix, C)
where
    C: Classifier + Send,
    F: Fn(&GroundTruth) -> C + Sync,
{
    let folds = ds.fold_ranges(k);
    let fits = osn_graph::par::map_indexed(k + 1, |task| match folds.get(task) {
        Some(test_range) => {
            let mut train_ds = GroundTruth::default();
            for i in 0..ds.len() {
                if !test_range.contains(&i) {
                    train_ds.features.push(ds.features[i]);
                    train_ds.labels.push(ds.labels[i]);
                    train_ds.nodes.push(ds.nodes[i]);
                }
            }
            let clf = train(&train_ds);
            Fit::HeldOut(evaluate(
                &clf,
                &ds.features[test_range.clone()],
                &ds.labels[test_range.clone()],
            ))
        }
        None => Fit::Full(train(ds)),
    });
    let mut total = ConfusionMatrix::default();
    let mut full = None;
    for fit in fits {
        match fit {
            Fit::HeldOut(m) => total.merge(&m),
            Fit::Full(clf) => full = Some(clf),
        }
    }
    // `map_indexed` returns one output per task, so task `k` is always
    // there; the refit only keeps the function total without a panic.
    let full = full.unwrap_or_else(|| train(ds));
    (total, full)
}

/// ROC curve points `(false-positive-rate, true-positive-rate)` from the
/// classifier's scores, sorted by increasing FPR, plus the AUC.
pub fn roc_curve<C: Classifier>(
    clf: &C,
    features: &[FeatureVector],
    labels: &[bool],
) -> (Vec<(f64, f64)>, f64) {
    let mut scored: Vec<(f64, bool)> = features
        .iter()
        .zip(labels)
        .map(|(f, &l)| (clf.score(f), l))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0)); // descending score
    let pos = labels.iter().filter(|&&l| l).count().max(1) as f64;
    let neg = labels.iter().filter(|&&l| !l).count().max(1) as f64;
    let mut curve = vec![(0.0, 0.0)];
    let (mut tp, mut fp) = (0.0, 0.0);
    let mut i = 0;
    while i < scored.len() {
        // Process ties together so the curve is threshold-consistent.
        // NaN ties with NaN (`==` never holds for it, so the group would
        // not advance); `==` everywhere else keeps ±0 one group.
        let s = scored[i].0;
        while i < scored.len() && (scored[i].0 == s || (s.is_nan() && scored[i].0.is_nan())) {
            if scored[i].1 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        curve.push((fp / neg, tp / pos));
    }
    // Trapezoid AUC.
    let auc = curve
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) * 0.5 * (w[0].1 + w[1].1))
        .sum();
    (curve, auc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::NodeId;

    struct Above(f64);
    impl Classifier for Above {
        fn is_sybil(&self, f: &FeatureVector) -> bool {
            f.inv_freq_1h > self.0
        }
        fn score(&self, f: &FeatureVector) -> f64 {
            f.inv_freq_1h
        }
    }

    fn fv(freq: f64) -> FeatureVector {
        FeatureVector {
            inv_freq_1h: freq,
            inv_freq_400h: 0.0,
            outgoing_accept_ratio: 0.0,
            incoming_accept_ratio: 0.0,
            clustering_coefficient: 0.0,
        }
    }

    #[test]
    fn matrix_rates() {
        let mut m = ConfusionMatrix::default();
        m.record(true, true);
        m.record(true, false);
        m.record(false, false);
        m.record(false, false);
        m.record(false, true);
        assert_eq!(m.total(), 5);
        assert_eq!(m.sybil_recall(), 0.5);
        assert!((m.false_positive_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.normal_recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.sybil_recall(), 0.0);
    }

    #[test]
    fn evaluate_counts() {
        let clf = Above(10.0);
        let features = vec![fv(20.0), fv(5.0), fv(15.0), fv(1.0)];
        let labels = vec![true, true, false, false];
        let m = evaluate(&clf, &features, &labels);
        assert_eq!(m.tp, 1);
        assert_eq!(m.fn_, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.tn, 1);
    }

    #[test]
    fn cross_validation_covers_every_example() {
        let mut ds = GroundTruth::default();
        for i in 0..50 {
            ds.features.push(fv(if i % 2 == 0 { 30.0 } else { 2.0 }));
            ds.labels.push(i % 2 == 0);
            ds.nodes.push(NodeId(i));
        }
        let (m, _) = cross_validate(&ds, 5, |_| Above(10.0));
        assert_eq!(m.total(), 50);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    fn cross_validation_returns_the_full_sample_fit() {
        // The last classifier is trained on all of `ds`: a rule that
        // remembers its training size shows which split it saw.
        let mut ds = GroundTruth::default();
        for i in 0..23 {
            ds.features.push(fv(i as f64));
            ds.labels.push(i % 3 == 0);
            ds.nodes.push(NodeId(i));
        }
        let (m, full) = cross_validate(&ds, 4, |t| Above(t.len() as f64));
        assert_eq!(m.total(), 23);
        assert_eq!(full.0, 23.0);
    }

    #[test]
    fn roc_treats_nan_scores_as_one_tie() {
        let features = vec![fv(30.0), fv(f64::NAN), fv(1.0)];
        let labels = vec![true, true, false];
        let (curve, auc) = roc_curve(&Above(10.0), &features, &labels);
        assert_eq!(curve, vec![(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 1.0)]);
        assert!((auc - 1.0).abs() < 1e-12, "auc {auc}");
        let features = vec![fv(f64::NAN), fv(f64::NAN), fv(2.0), fv(f64::NAN)];
        let labels = vec![true, false, true, false];
        let (curve, _) = roc_curve(&Above(10.0), &features, &labels);
        assert_eq!(
            curve.len(),
            3,
            "one NaN group and one finite group: {curve:?}"
        );
    }

    #[test]
    fn roc_perfect_classifier() {
        let features = vec![fv(30.0), fv(25.0), fv(2.0), fv(1.0)];
        let labels = vec![true, true, false, false];
        let (curve, auc) = roc_curve(&Above(10.0), &features, &labels);
        assert!((auc - 1.0).abs() < 1e-12, "auc {auc}");
        assert_eq!(curve.first(), Some(&(0.0, 0.0)));
        assert_eq!(curve.last(), Some(&(1.0, 1.0)));
    }

    #[test]
    fn roc_random_classifier_auc_half() {
        // Same score for everything -> a single diagonal step, AUC 0.5.
        let features = vec![fv(5.0); 10];
        let labels: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let (_, auc) = roc_curve(&Above(f64::INFINITY), &features, &labels);
        assert!((auc - 0.5).abs() < 1e-12, "auc {auc}");
    }
}

/// Solo ROC AUC of each behavioral feature (threshold-free separability):
/// returns `(feature_name, auc)` pairs in `FeatureVector::NAMES` order.
/// AUC is computed in the direction that scores Sybils higher (ratios and
/// clustering are inverted), so 0.5 = uninformative, 1.0 = perfect.
pub fn per_feature_auc(features: &[FeatureVector], labels: &[bool]) -> Vec<(&'static str, f64)> {
    struct OneFeature {
        idx: usize,
        invert: bool,
    }
    impl Classifier for OneFeature {
        fn is_sybil(&self, f: &FeatureVector) -> bool {
            self.score(f) > 0.0
        }
        fn score(&self, f: &FeatureVector) -> f64 {
            let v = f.as_array()[self.idx];
            if self.invert {
                -v
            } else {
                v
            }
        }
    }
    FeatureVector::NAMES
        .iter()
        .enumerate()
        .map(|(idx, &name)| {
            // Sybils send more (0,1) but get accepted less (2), accept more
            // incoming (3), and cluster less (4).
            let invert = matches!(idx, 2 | 4);
            let clf = OneFeature { idx, invert };
            let (_, auc) = roc_curve(&clf, features, labels);
            (name, auc)
        })
        .collect()
}

#[cfg(test)]
mod per_feature_tests {
    use super::*;

    #[test]
    fn informative_features_score_high_and_noise_scores_half() {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let noise = (i % 10) as f64; // same distribution in both classes
            features.push(FeatureVector {
                inv_freq_1h: 40.0 + noise,
                inv_freq_400h: noise, // identical across classes
                outgoing_accept_ratio: 0.2,
                incoming_accept_ratio: 1.0,
                clustering_coefficient: 0.001,
            });
            labels.push(true);
            features.push(FeatureVector {
                inv_freq_1h: 2.0 + noise,
                inv_freq_400h: noise,
                outgoing_accept_ratio: 0.8,
                incoming_accept_ratio: 0.6,
                clustering_coefficient: 0.05,
            });
            labels.push(false);
        }
        let aucs = per_feature_auc(&features, &labels);
        let get = |name: &str| aucs.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("inv_freq_1h") > 0.99);
        assert!(get("outgoing_accept_ratio") > 0.99);
        assert!(get("incoming_accept_ratio") > 0.99);
        assert!(get("clustering_coefficient") > 0.99);
        // The deliberately class-independent feature is uninformative.
        assert!((get("inv_freq_400h") - 0.5).abs() < 0.05);
    }

    #[test]
    fn nan_feature_values_do_not_stall_the_sweep() {
        let fv = |cc: f64| FeatureVector {
            inv_freq_1h: 1.0,
            inv_freq_400h: 1.0,
            outgoing_accept_ratio: 0.5,
            incoming_accept_ratio: 0.5,
            clustering_coefficient: cc,
        };
        let features = vec![fv(f64::NAN), fv(0.2), fv(0.0)];
        let aucs = per_feature_auc(&features, &[true, false, true]);
        assert_eq!(aucs.len(), FeatureVector::NAMES.len());
    }
}
