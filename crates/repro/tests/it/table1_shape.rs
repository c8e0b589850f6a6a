//! Table 1 and the classifier zoo rows of EXPERIMENTS.md as shape gates
//! at `tiny`.
//!
//! As in `ablations.rs`: a number that moves is a doc correction, a shape
//! that flips is a regression. The floors sit below what seeds 11, 12 and
//! 13 measure, written beside each one.

use sybil_repro::{table1, zoo, Scale};

use crate::support::shared_ctx;

const SEEDS: [u64; 3] = [11, 12, 13];

/// §2.3's statement: the SVM and the calibrated threshold rule are both
/// accurate under 5-fold CV, and the cheap rule keeps up with the SVM.
#[test]
fn threshold_rule_matches_the_svm() {
    for seed in SEEDS {
        let t = table1::run(shared_ctx(Scale::Tiny, seed), 50, 5);
        let (svm, thr) = (t.svm.accuracy(), t.threshold.accuracy());
        // Measured: SVM 0.99 / 0.99 / 0.98, threshold 0.99 / 0.97 / 1.00.
        assert!(svm >= 0.95, "seed {seed}: SVM accuracy {svm}");
        assert!(thr >= 0.95, "seed {seed}: threshold accuracy {thr}");
        // Measured gaps: 0.00 / 0.02 / 0.02 points of accuracy.
        assert!(
            (thr - svm).abs() <= 0.04,
            "seed {seed}: threshold {thr} vs SVM {svm}"
        );
        assert_eq!(
            t.svm.total(),
            100,
            "seed {seed}: every example held out once"
        );
        assert_eq!(
            t.threshold.total(),
            100,
            "seed {seed}: every example held out once"
        );
    }
}

/// The zoo's claim: the features carry the detection power, so every
/// classifier on top of them is accurate under CV and ranks the sample
/// almost perfectly.
#[test]
fn every_zoo_classifier_is_accurate() {
    for seed in SEEDS {
        let z = zoo::run(shared_ctx(Scale::Tiny, seed), 50, 5);
        assert_eq!(z.rows.len(), 5, "seed {seed}");
        for r in &z.rows {
            // Lowest measured accuracy: linear SVM 0.94 (seed 13); every
            // AUC measured 1.0.
            let acc = r.matrix.accuracy();
            assert!(acc >= 0.92, "seed {seed}: {} accuracy {acc}", r.name);
            assert!(r.auc >= 0.98, "seed {seed}: {} AUC {}", r.name, r.auc);
        }
    }
}
