//! Classifier zoo — extension experiment.
//!
//! Table 1 compares only the SVM and the threshold rule; §4 mentions the
//! Bayesian-filter and regression families used by prior OSN-spam work.
//! This experiment cross-validates all five classifiers on the same
//! ground-truth sample and adds ROC AUC, substantiating the paper's claim
//! that the *features* carry the detection power — every competent
//! classifier on top of them lands in the same place.

use crate::fig1::ground_truth_sample;
use crate::scenario::Ctx;
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sybil_core::eval::{cross_validate, per_feature_auc, roc_curve, ConfusionMatrix};
use sybil_core::logistic::LogisticParams;
use sybil_core::svm::kernel::KernelSvmParams;
use sybil_core::svm::linear::LinearSvmParams;
use sybil_core::{
    Classifier, KernelSvm, LinearSvm, LogisticRegression, NaiveBayes, ThresholdClassifier,
};
use sybil_features::dataset::GroundTruth;

/// One classifier's cross-validated results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ZooRow {
    /// Classifier name.
    pub name: String,
    /// Aggregated held-out confusion matrix.
    pub matrix: ConfusionMatrix,
    /// ROC AUC on the full sample (classifier trained on the full sample;
    /// a ranking diagnostic, not a generalization estimate).
    pub auc: f64,
}

/// Result of the classifier-zoo experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Zoo {
    /// One row per classifier.
    pub rows: Vec<ZooRow>,
    /// Solo AUC of each behavioral feature (threshold-free importance).
    pub feature_auc: Vec<(String, f64)>,
}

/// Run the experiment.
pub fn run(ctx: &Ctx, per_class: usize, folds: usize) -> Zoo {
    let mut ds = ground_truth_sample(ctx, per_class);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x200);
    ds.shuffle(&mut rng);
    let lp = LinearSvmParams::default();
    let kp = KernelSvmParams::default();
    let gp = LogisticParams::default();
    let rows = vec![
        row(
            "threshold (paper)",
            &ds,
            cross_validate(&ds, folds, ThresholdClassifier::calibrate),
        ),
        row(
            "linear SVM (Pegasos)",
            &ds,
            cross_validate(&ds, folds, |t| {
                LinearSvm::train_features(&t.features, &t.labels, &lp)
            }),
        ),
        row(
            "RBF SVM (SMO)",
            &ds,
            cross_validate(&ds, folds, |t| {
                KernelSvm::train_features(&t.features, &t.labels, &kp)
            }),
        ),
        row(
            "Gaussian naive Bayes",
            &ds,
            cross_validate(&ds, folds, |t| NaiveBayes::train(&t.features, &t.labels)),
        ),
        row(
            "logistic regression",
            &ds,
            cross_validate(&ds, folds, |t| {
                LogisticRegression::train_features(&t.features, &t.labels, &gp)
            }),
        ),
    ];

    let feature_auc = per_feature_auc(&ds.features, &ds.labels)
        .into_iter()
        .map(|(n, a)| (n.to_string(), a))
        .collect();
    Zoo { rows, feature_auc }
}

/// A row from one [`cross_validate`] call: the folds' held-out matrix, and
/// the ROC AUC of the fit to the full sample the same call returns.
fn row<C: Classifier>(
    name: &str,
    ds: &GroundTruth,
    (matrix, full): (ConfusionMatrix, C),
) -> ZooRow {
    ZooRow {
        name: name.into(),
        matrix,
        auc: roc_curve(&full, &ds.features, &ds.labels).1,
    }
}

impl Zoo {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Classifier",
            "Accuracy",
            "Sybil recall",
            "False pos.",
            "AUC",
        ]);
        for r in &self.rows {
            t.add_row([
                r.name.clone(),
                format!("{:.2}%", 100.0 * r.matrix.accuracy()),
                format!("{:.2}%", 100.0 * r.matrix.sybil_recall()),
                format!("{:.2}%", 100.0 * r.matrix.false_positive_rate()),
                format!("{:.4}", r.auc),
            ]);
        }
        let mut out = String::from(
            "Classifier zoo — 5-fold CV over the behavioral features (extension of Table 1)\n\n",
        );
        out.push_str(&t.render());
        out.push_str("\nper-feature solo AUC (0.5 = uninformative):\n");
        for (name, auc) in &self.feature_auc {
            out.push_str(&format!("  {name:24} {auc:.4}\n"));
        }
        out.push_str(
            "\nthe features do the work: every competent classifier lands within a point \
             of the paper's 99% (§2.3's argument for shipping the cheap threshold rule)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn all_classifiers_competent() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let zoo = run(ctx, 50, 5);
        assert_eq!(zoo.rows.len(), 5);
        assert_eq!(zoo.feature_auc.len(), 5);
        // The invitation-frequency features must be strongly informative.
        assert!(
            zoo.feature_auc[0].1 > 0.9,
            "freq1h auc {}",
            zoo.feature_auc[0].1
        );
        for r in &zoo.rows {
            assert!(
                r.matrix.accuracy() > 0.85,
                "{} accuracy {:.3}",
                r.name,
                r.matrix.accuracy()
            );
            assert!(r.auc > 0.9, "{} auc {:.3}", r.name, r.auc);
        }
        assert!(zoo.render().contains("Classifier zoo"));
        // Every matrix and AUC, byte for byte (`repro --scale tiny --seed 11
        // zoo` writes this file).
        assert_eq!(
            serde_json::to_string_pretty(&zoo).expect("rows serialize"),
            include_str!("../tests/golden/zoo_tiny_seed11.json"),
            "classifier zoo moved"
        );
    }
}
