//! The paper's threshold classifier.
//!
//! §2.3 compares an SVM against "a threshold-based detector: outgoing
//! requests accepted ratio < 0.5 ∧ frequency < 20 ∧ cc < 0.01" and finds
//! both ≈ 99% accurate. (The frequency direction as printed contradicts
//! Fig. 1, which shows Sybils *above* 20 invitations per interval and
//! normal users below — we read it as the obvious typo and flag accounts
//! whose frequency *exceeds* the threshold.)
//!
//! The paper's constants were tuned on Renren; our simulated substrate has
//! different absolute scales (clustering in particular is graph-size
//! dependent), so [`ThresholdClassifier::calibrate`] re-derives the three
//! cut points from a labeled sample exactly the way the authors derived
//! theirs from the 1000+1000 ground truth.

use crate::Classifier;
use serde::{Deserialize, Serialize};
use sybil_features::dataset::GroundTruth;
use sybil_features::FeatureVector;

/// Conjunctive three-feature threshold rule: Sybil iff
/// `out_ratio < max_out_ratio` ∧ `freq_1h > min_freq` ∧ `cc < max_cc`.
///
/// ```
/// use sybil_core::{Classifier, ThresholdClassifier};
/// use sybil_features::FeatureVector;
///
/// let rule = ThresholdClassifier::paper();
/// let burst_spammer = FeatureVector {
///     inv_freq_1h: 45.0,
///     inv_freq_400h: 300.0,
///     outgoing_accept_ratio: 0.2,
///     incoming_accept_ratio: 1.0,
///     clustering_coefficient: 0.001,
/// };
/// assert!(rule.is_sybil(&burst_spammer));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThresholdClassifier {
    /// Flag if the outgoing accept ratio is below this.
    pub max_out_ratio: f64,
    /// Flag if the 1-hour invitation frequency exceeds this.
    pub min_freq: f64,
    /// Flag if the first-50 clustering coefficient is below this. Set to
    /// `f64::INFINITY` to disable the clustering condition.
    pub max_cc: f64,
}

impl Default for ThresholdClassifier {
    /// Defaults to the paper's published constants.
    fn default() -> Self {
        Self::paper()
    }
}

impl ThresholdClassifier {
    /// The constants as printed in the paper (§2.3), with the frequency
    /// comparison read in the Fig.-1-consistent direction.
    pub fn paper() -> Self {
        ThresholdClassifier {
            max_out_ratio: 0.5,
            min_freq: 20.0,
            max_cc: 0.01,
        }
    }

    /// The two conjuncts an account's counters answer on their own:
    /// `out_ratio < max_out_ratio` ∧ `freq_1h > min_freq`. The streaming
    /// detector asks these first and counts clustering links only when
    /// they hold.
    #[inline]
    pub(crate) fn counter_conjuncts(&self, out_ratio: f64, freq_1h: f64) -> bool {
        out_ratio < self.max_out_ratio && freq_1h > self.min_freq
    }

    /// The conjunct that needs a link count: `cc < max_cc`.
    #[inline]
    pub(crate) fn clustering_conjunct(&self, cc: f64) -> bool {
        cc < self.max_cc
    }

    /// Derive thresholds from labeled training data.
    ///
    /// Two stages, mirroring how the authors tuned their rule on the
    /// 1000+1000 sample: (1) a 1-D sweep per feature finds each cut's solo
    /// optimum; (2) a small grid search around those optima — including
    /// "condition disabled" — maximizes the balanced accuracy of the
    /// actual *conjunction*, because per-feature-optimal cuts compose
    /// poorly (every extra condition can only lower Sybil recall).
    pub fn calibrate(train: &GroundTruth) -> Self {
        let ratio = sweep_best(train, |f| f.outgoing_accept_ratio, true).0;
        let freq = sweep_best(train, |f| f.inv_freq_1h, false).0;
        let cc = sweep_best(train, |f| f.clustering_coefficient, true).0;
        // Candidate grids: solo cut, progressively lenient variants, off.
        let ratio_cands = [ratio, ratio * 1.15, ratio * 1.35, f64::INFINITY];
        let freq_cands = [freq, freq * 0.85, freq * 0.65, f64::NEG_INFINITY];
        let cc_cands = [cc, cc * 1.4, cc * 2.0, f64::INFINITY];
        let n_sybil = train.num_sybil().max(1) as f64;
        let n_normal = (train.len() - train.num_sybil()).max(1) as f64;
        let mut best = (f64::NEG_INFINITY, Self::paper());
        for &r in &ratio_cands {
            for &q in &freq_cands {
                for &c in &cc_cands {
                    let rule = ThresholdClassifier {
                        max_out_ratio: r,
                        min_freq: q,
                        max_cc: c,
                    };
                    let mut tp = 0.0;
                    let mut tn = 0.0;
                    for (f, &label) in train.features.iter().zip(&train.labels) {
                        match (label, rule.is_sybil(f)) {
                            (true, true) => tp += 1.0,
                            (false, false) => tn += 1.0,
                            _ => {}
                        }
                    }
                    // Prefer fewer conditions on exact ties: a condition
                    // that adds nothing on training data is only downside
                    // under distribution shift.
                    let enabled =
                        r.is_finite() as u8 + (q != f64::NEG_INFINITY) as u8 + c.is_finite() as u8;
                    let bal = 0.5 * (tp / n_sybil + tn / n_normal) - 1e-9 * enabled as f64;
                    if bal > best.0 {
                        best = (bal, rule);
                    }
                }
            }
        }
        best.1
    }
}

/// Sweep candidate cut points for one feature; returns `(threshold,
/// balanced_accuracy)`. `sybil_below` states the Sybil side of the cut.
fn sweep_best<F: Fn(&FeatureVector) -> f64>(
    train: &GroundTruth,
    feature: F,
    sybil_below: bool,
) -> (f64, f64) {
    let mut values: Vec<f64> = train.features.iter().map(&feature).collect();
    values.sort_by(f64::total_cmp);
    values.dedup();
    let n_sybil = train.num_sybil().max(1) as f64;
    let n_normal = (train.len() - train.num_sybil()).max(1) as f64;
    let mut best = (0.0, 0.0);
    // Candidate cuts: midpoints between consecutive distinct values.
    for w in values.windows(2) {
        let cut = 0.5 * (w[0] + w[1]);
        let mut tp = 0.0;
        let mut tn = 0.0;
        for (f, &label) in train.features.iter().zip(&train.labels) {
            let v = feature(f);
            let predicted_sybil = if sybil_below { v < cut } else { v > cut };
            match (label, predicted_sybil) {
                (true, true) => tp += 1.0,
                (false, false) => tn += 1.0,
                _ => {}
            }
        }
        let bal = 0.5 * (tp / n_sybil + tn / n_normal);
        if bal > best.1 {
            best = (cut, bal);
        }
    }
    best
}

impl Classifier for ThresholdClassifier {
    /// The two halves in sequence — the one definition of the rule, so a
    /// staged evaluation cannot drift from it.
    fn is_sybil(&self, f: &FeatureVector) -> bool {
        self.counter_conjuncts(f.outgoing_accept_ratio, f.inv_freq_1h)
            && self.clustering_conjunct(f.clustering_coefficient)
    }

    /// Soft score for ROC sweeps: the sum of normalized signed margins of
    /// every *enabled* condition (disabled conditions contribute nothing —
    /// a constant term would collapse the ranking to ties).
    fn score(&self, f: &FeatureVector) -> f64 {
        let mut s = 0.0;
        if self.max_out_ratio.is_finite() {
            s += (self.max_out_ratio - f.outgoing_accept_ratio).clamp(-3.0, 3.0);
        }
        if self.min_freq != f64::NEG_INFINITY {
            let denom = self.min_freq.abs().max(1.0);
            s += ((f.inv_freq_1h - self.min_freq) / denom).clamp(-3.0, 3.0);
        }
        if self.max_cc.is_finite() {
            let denom = self.max_cc.abs().max(1e-9);
            s += ((self.max_cc - f.clustering_coefficient) / denom).clamp(-3.0, 3.0);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::NodeId;

    fn fv(freq: f64, ratio: f64, cc: f64) -> FeatureVector {
        FeatureVector {
            inv_freq_1h: freq,
            inv_freq_400h: freq * 10.0,
            outgoing_accept_ratio: ratio,
            incoming_accept_ratio: 1.0,
            clustering_coefficient: cc,
        }
    }

    #[test]
    fn paper_rule_classifies_archetypes() {
        let rule = ThresholdClassifier::paper();
        // Textbook Sybil: bursty, ignored, unclustered.
        assert!(rule.is_sybil(&fv(40.0, 0.25, 0.001)));
        // Textbook normal.
        assert!(!rule.is_sybil(&fv(2.0, 0.8, 0.04)));
        // Any failed condition blocks the conjunction.
        assert!(!rule.is_sybil(&fv(10.0, 0.25, 0.001))); // freq low
        assert!(!rule.is_sybil(&fv(40.0, 0.7, 0.001))); // ratio high
        assert!(!rule.is_sybil(&fv(40.0, 0.25, 0.2))); // clustered
    }

    fn synthetic_ground_truth(cc_informative: bool) -> GroundTruth {
        let mut ds = GroundTruth::default();
        for i in 0..100 {
            let jitter = i as f64 * 0.001;
            // Sybil: freq ~ 35, ratio ~ 0.2, cc ~ 0.001 (or noise).
            ds.features.push(fv(
                35.0 + jitter,
                0.2 + jitter,
                if cc_informative {
                    0.001 + jitter * 0.01
                } else {
                    0.1 + jitter
                },
            ));
            ds.labels.push(true);
            ds.nodes.push(NodeId(i));
            // Normal: freq ~ 2, ratio ~ 0.8, cc ~ 0.05 (or same noise).
            ds.features.push(fv(
                2.0 + jitter,
                0.8 - jitter,
                if cc_informative {
                    0.05 + jitter * 0.01
                } else {
                    0.1 + jitter
                },
            ));
            ds.labels.push(false);
            ds.nodes.push(NodeId(1000 + i));
        }
        ds
    }

    #[test]
    fn calibrate_finds_separating_cuts() {
        let ds = synthetic_ground_truth(true);
        let rule = ThresholdClassifier::calibrate(&ds);
        // Every *enabled* condition must separate the synthetic classes;
        // redundant conditions may be disabled (tie-break prefers fewer).
        if rule.min_freq != f64::NEG_INFINITY {
            assert!(rule.min_freq > 2.0 && rule.min_freq < 35.0);
        }
        if rule.max_out_ratio.is_finite() {
            assert!(rule.max_out_ratio > 0.2 && rule.max_out_ratio < 0.8);
        }
        if rule.max_cc.is_finite() {
            assert!(rule.max_cc > 0.001 && rule.max_cc < 0.15);
        }
        let enabled = rule.max_out_ratio.is_finite() as u8
            + (rule.min_freq != f64::NEG_INFINITY) as u8
            + rule.max_cc.is_finite() as u8;
        assert!(enabled >= 1, "at least one condition must survive");
        // Perfect on training data.
        for (f, &l) in ds.features.iter().zip(&ds.labels) {
            assert_eq!(rule.is_sybil(f), l);
        }
    }

    #[test]
    fn calibrate_disables_uninformative_feature() {
        let ds = synthetic_ground_truth(false); // cc identical across classes
        let rule = ThresholdClassifier::calibrate(&ds);
        assert!(rule.max_cc.is_infinite(), "weak cc must be disabled");
        // Classifier still works through the other two features.
        for (f, &l) in ds.features.iter().zip(&ds.labels) {
            assert_eq!(rule.is_sybil(f), l);
        }
    }

    #[test]
    fn score_orders_sybilness() {
        let rule = ThresholdClassifier::paper();
        let sybil = rule.score(&fv(40.0, 0.1, 0.001));
        let borderline = rule.score(&fv(40.0, 0.45, 0.001));
        let normal = rule.score(&fv(2.0, 0.8, 0.04));
        assert!(sybil > borderline);
        assert!(borderline > normal);
    }
}
