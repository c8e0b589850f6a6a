//! The ablations EXPERIMENTS.md cites, as shape assertions at `tiny`.
//!
//! Each test states its comparison the way EXPERIMENTS.md §Ablations
//! does; a number that moves is a doc correction, a shape that flips is
//! a regression.

use osn_sim::{simulate, SimConfig, SimOutput};
use sybil_core::adaptive::AdaptiveThresholds;
use sybil_core::eval::evaluate;
use sybil_core::{Classifier, ThresholdClassifier};
use sybil_features::FeatureVector;
use sybil_repro::fig1::ground_truth_sample;
use sybil_repro::Scale;

use crate::support::shared_ctx;

/// Frequency carries the calibrated rule: without it every normal account
/// is flagged, while dropping the accept-ratio or the clustering
/// condition changes no verdict.
#[test]
fn frequency_is_the_load_bearing_feature() {
    let ds = ground_truth_sample(shared_ctx(Scale::Tiny, 42), 60);
    let full = ThresholdClassifier::calibrate(&ds);
    let verdicts = |rule: &ThresholdClassifier| {
        ds.features
            .iter()
            .map(|f| rule.is_sybil(f))
            .collect::<Vec<bool>>()
    };
    let full_m = evaluate(&full, &ds.features, &ds.labels);
    assert_eq!(full_m.accuracy(), 1.0);

    let no_freq = ThresholdClassifier {
        min_freq: f64::NEG_INFINITY,
        ..full
    };
    let m = evaluate(&no_freq, &ds.features, &ds.labels);
    assert_eq!(m.false_positive_rate(), 1.0);
    assert_eq!(m.accuracy(), 0.5);

    let no_ratio = ThresholdClassifier {
        max_out_ratio: f64::INFINITY,
        ..full
    };
    let no_cc = ThresholdClassifier {
        max_cc: f64::INFINITY,
        ..full
    };
    assert_eq!(verdicts(&no_ratio), verdicts(&full));
    assert_eq!(verdicts(&no_cc), verdicts(&full));
}

/// Mean final degree of the accounts Sybils sent requests to.
fn mean_sybil_target_degree(out: &SimOutput) -> f64 {
    let (mut sum, mut n) = (0usize, 0usize);
    for r in out.log.records() {
        if out.is_sybil(r.from) {
            sum += out.graph.degree(r.to);
            n += 1;
        }
    }
    sum as f64 / n.max(1) as f64
}

/// The tools' popularity bias is what wires Sybils to each other: turn
/// it off and both the mean target degree and the share of Sybils with a
/// Sybil edge fall.
#[test]
fn snowball_bias_creates_the_sybil_topology() {
    let biased = simulate(SimConfig::tiny(77));
    let mut cfg = SimConfig::tiny(77);
    cfg.attacker.degree_bias_override = Some(0.0);
    let unbiased = simulate(cfg);
    assert!(mean_sybil_target_degree(&unbiased) < mean_sybil_target_degree(&biased));
    assert!(unbiased.sybil_connectivity_fraction() < biased.sybil_connectivity_fraction());
}

/// Accepted Sybil→Sybil requests inside one attacker's farm.
fn deliberate_edges(out: &SimOutput) -> usize {
    out.log
        .records()
        .iter()
        .filter(|r| {
            r.outcome.is_accepted()
                && out.is_sybil(r.from)
                && out.is_sybil(r.to)
                && out.accounts[r.from.index()].attacker() == out.accounts[r.to.index()].attacker()
        })
        .count()
}

/// Deliberate same-farm edges grow with the interlinker share (at
/// `tiny`, 15% of the attackers is still none of them), and attack edges
/// do not grow with it.
#[test]
fn intentional_interlinking_grows_deliberate_edges_only() {
    let (deliberate, attack): (Vec<usize>, Vec<usize>) = [0.0, 0.15, 0.5]
        .into_iter()
        .map(|frac| {
            let mut cfg = SimConfig::tiny(5);
            cfg.attacker.intentional_frac = frac;
            let out = simulate(cfg);
            (deliberate_edges(&out), out.stats().attack_edges)
        })
        .unzip();
    assert_eq!(deliberate[0], 0);
    assert!(
        deliberate.windows(2).all(|w| w[0] <= w[1]),
        "{deliberate:?}"
    );
    assert!(deliberate[2] > deliberate[0], "{deliberate:?}");
    assert!(attack.windows(2).all(|w| w[1] <= w[0]), "{attack:?}");
}

/// Attackers throttling to 0.35× their rate duck the static frequency
/// cut; the adaptive thresholds, fed the audited labels, follow the
/// drift down and keep every Sybil.
#[test]
fn adaptive_thresholds_follow_a_frequency_drift() {
    let ds = ground_truth_sample(shared_ctx(Scale::Tiny, 42), 60);
    let static_rule = ThresholdClassifier::calibrate(&ds);
    assert!(static_rule.min_freq.is_finite(), "{static_rule:?}");
    let drifted: Vec<FeatureVector> = ds
        .features
        .iter()
        .map(|f| FeatureVector {
            inv_freq_1h: f.inv_freq_1h * 0.35,
            inv_freq_400h: f.inv_freq_400h * 0.35,
            ..*f
        })
        .collect();
    let mut adaptive = AdaptiveThresholds::from_rule(&static_rule, 0.05);
    for _ in 0..40 {
        for (f, &l) in drifted.iter().zip(&ds.labels) {
            adaptive.feedback(f, l);
        }
    }
    let adaptive_rule = adaptive.current_rule();
    let static_m = evaluate(&static_rule, &drifted, &ds.labels);
    let adaptive_m = evaluate(&adaptive_rule, &drifted, &ds.labels);
    assert_eq!(adaptive_m.sybil_recall(), 1.0);
    assert!(
        static_m.sybil_recall() < adaptive_m.sybil_recall(),
        "{static_m:?}"
    );
    assert!(
        adaptive_rule.min_freq < static_rule.min_freq,
        "{adaptive_rule:?}"
    );
}
