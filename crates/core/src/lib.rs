//! # sybil-core — measurement-based Sybil detectors
//!
//! The paper's primary contribution (§2.3): given the behavioral features
//! of `sybil-features`, detect Sybils in (near) real time. Two classifier
//! families are compared in Table 1:
//!
//! * a **threshold classifier** — the paper's
//!   `accept-ratio < 0.5 ∧ invitation-frequency ≥ 20 ∧ cc < 0.01` rule
//!   ([`threshold`]), with data-driven calibration;
//! * a **support-vector machine** ([`svm`]) — implemented from scratch
//!   (linear Pegasos and RBF-kernel SMO) because the Rust ML ecosystem is
//!   not part of this workspace's sanctioned dependencies.
//!
//! [`bayes`] and [`logistic`] implement the related-work baseline
//! families §4 compares against (Bayesian filters, regression
//! classifiers). [`adaptive`] implements an adaptive feedback scheme in the spirit of
//! the deployed detector (Renren's actual scheme is confidential; ours is
//! a documented reconstruction). [`realtime`] replays a simulation's
//! request log through a streaming detector, the way the production system
//! consumed Renren's event stream. [`eval`] provides the confusion-matrix
//! and cross-validation machinery behind Table 1.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adaptive;
pub mod bayes;
pub mod digest;
pub mod eval;
pub mod ids;
pub mod logistic;
pub mod realtime;
pub mod svm;
pub mod threshold;

pub use adaptive::AdaptiveThresholds;
pub use bayes::NaiveBayes;
pub use eval::ConfusionMatrix;
pub use logistic::LogisticRegression;
pub use svm::{KernelSvm, LinearSvm, Scaler};
pub use threshold::ThresholdClassifier;

use sybil_features::FeatureVector;

/// A trained binary classifier over behavioral features
/// (`true` = predicted Sybil).
pub trait Classifier {
    /// Predict whether the account is a Sybil.
    fn is_sybil(&self, features: &FeatureVector) -> bool;

    /// A real-valued score, larger = more Sybil-like (used for ROC
    /// curves). Default: 1.0/0.0 from the hard decision.
    fn score(&self, features: &FeatureVector) -> f64 {
        if self.is_sybil(features) {
            1.0
        } else {
            0.0
        }
    }
}
