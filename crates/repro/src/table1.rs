//! Table 1 — SVM vs. threshold classifier on the ground-truth sample.
//!
//! Paper protocol: 1000 + 1000 verified accounts, 5-fold cross-validation.
//! Both classifiers land around 99% per-class accuracy; the point is that
//! the cheap threshold rule matches the SVM.

use crate::fig1::ground_truth_sample;
use crate::scenario::Ctx;
use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sybil_core::eval::{cross_validate, ConfusionMatrix};
use sybil_core::svm::kernel::KernelSvmParams;
use sybil_core::{KernelSvm, ThresholdClassifier};

/// Result of the Table 1 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1 {
    /// Sample size per class actually used.
    pub per_class: usize,
    /// Cross-validated confusion matrix of the RBF SVM.
    pub svm: ConfusionMatrix,
    /// Cross-validated confusion matrix of the calibrated threshold rule.
    pub threshold: ConfusionMatrix,
    /// The thresholds the final calibration chose (for the record).
    pub example_rule: ThresholdClassifier,
}

/// Run the experiment with `folds`-fold cross-validation.
pub fn run(ctx: &Ctx, per_class: usize, folds: usize) -> Table1 {
    let mut ds = ground_truth_sample(ctx, per_class);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7AB1E);
    ds.shuffle(&mut rng);
    let svm_params = KernelSvmParams::default();
    // The SVM's full-sample fit is unused; it shares the folds' rounds.
    let (svm, _) = cross_validate(&ds, folds, |train| {
        KernelSvm::train_features(&train.features, &train.labels, &svm_params)
    });
    let (threshold, example_rule) = cross_validate(&ds, folds, ThresholdClassifier::calibrate);
    Table1 {
        per_class: ds.num_sybil(),
        svm,
        threshold,
        example_rule,
    }
}

impl Table1 {
    /// Render in the paper's row/column layout.
    pub fn render(&self) -> String {
        let pct = |x: f64| format!("{:.2}%", 100.0 * x);
        let mut t = Table::new([
            "",
            "SVM: Sybil",
            "SVM: Non-Sybil",
            "Thr: Sybil",
            "Thr: Non-Sybil",
        ]);
        t.add_row([
            "True Sybil".to_string(),
            pct(self.svm.sybil_recall()),
            pct(1.0 - self.svm.sybil_recall()),
            pct(self.threshold.sybil_recall()),
            pct(1.0 - self.threshold.sybil_recall()),
        ]);
        t.add_row([
            "True Non-Sybil".to_string(),
            pct(self.svm.false_positive_rate()),
            pct(self.svm.normal_recall()),
            pct(self.threshold.false_positive_rate()),
            pct(self.threshold.normal_recall()),
        ]);
        let mut out =
            String::from("Table 1 — classifier performance (5-fold CV; paper: both ≈ 99%/99%)\n\n");
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ncalibrated rule on full sample: ratio < {:.2} ∧ freq > {:.1} ∧ cc < {}\n",
            self.example_rule.max_out_ratio,
            self.example_rule.min_freq,
            if self.example_rule.max_cc.is_finite() {
                format!("{:.3}", self.example_rule.max_cc)
            } else {
                "(disabled)".into()
            }
        ));
        out.push_str(&format!(
            "accuracies: SVM {:.2}%, threshold {:.2}%\n",
            100.0 * self.svm.accuracy(),
            100.0 * self.threshold.accuracy()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn both_classifiers_are_accurate() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let t = run(ctx, 50, 5);
        assert!(
            t.svm.accuracy() > 0.88,
            "svm accuracy {:.3}",
            t.svm.accuracy()
        );
        assert!(
            t.threshold.accuracy() > 0.85,
            "threshold accuracy {:.3}",
            t.threshold.accuracy()
        );
        // The paper's headline: the threshold rule keeps up with the SVM.
        assert!(t.threshold.accuracy() > t.svm.accuracy() - 0.10);
        assert!(t.render().contains("Table 1"));
        // Both confusion matrices and the calibrated rule, byte for byte
        // (`repro --scale tiny --seed 11 table1` writes this file).
        assert_eq!(
            serde_json::to_string_pretty(&t).expect("matrices serialize"),
            include_str!("../tests/golden/table1_tiny_seed11.json"),
            "Table 1 moved"
        );
    }
}
