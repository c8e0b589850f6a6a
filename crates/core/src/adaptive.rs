//! Adaptive threshold tuning.
//!
//! The deployed detector "uses an adaptive feedback scheme to dynamically
//! tune threshold parameters on the fly" (§2.3); the paper withholds the
//! scheme for confidentiality. This module is our documented
//! reconstruction: the verification team's confirmed labels stream back
//! into exponentially-weighted quantile estimates per class, and each
//! threshold is re-placed between the Sybil-side and normal-side
//! quantiles. When attackers drift (e.g. slow their request rate to duck
//! under the cut), the Sybil-side estimate follows and the threshold moves
//! with it.

use crate::threshold::ThresholdClassifier;
use crate::Classifier;
use serde::{Deserialize, Serialize};
use sybil_features::FeatureVector;

/// Exponentially-weighted quantile tracker (stochastic quantile
/// approximation): the estimate moves up by `step·q` when a sample exceeds
/// it and down by `step·(1−q)` otherwise, converging to the `q`-quantile
/// of the (possibly drifting) input stream.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QuantileTracker {
    /// Target quantile `q ∈ (0, 1)`.
    pub q: f64,
    /// Step size (relative to an adaptive scale).
    pub step: f64,
    estimate: f64,
    scale: f64,
    seen: u64,
}

impl QuantileTracker {
    /// New tracker starting at `initial`.
    pub fn new(q: f64, step: f64, initial: f64) -> Self {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "q must be in (0,1)");
        QuantileTracker {
            q,
            step,
            estimate: initial,
            scale: initial.abs().max(1.0),
            seen: 0,
        }
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.seen += 1;
        // Adaptive scale so step size matches the data's magnitude.
        self.scale = 0.99 * self.scale + 0.01 * x.abs().max(1e-6);
        let delta = self.step * self.scale;
        if x > self.estimate {
            self.estimate += delta * self.q;
        } else {
            self.estimate -= delta * (1.0 - self.q);
        }
    }

    /// Current estimate.
    pub fn value(&self) -> f64 {
        self.estimate
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Fold this tracker's full state into `d` (crash-replay recovery
    /// checks digest the private `estimate`/`scale`/`seen` fields too —
    /// two trackers that agree only on [`value`](Self::value) could still
    /// diverge on the next observation).
    pub fn digest_into(&self, d: &mut crate::digest::Digest64) {
        d.write_f64(self.q);
        d.write_f64(self.step);
        d.write_f64(self.estimate);
        d.write_f64(self.scale);
        d.write_u64(self.seen);
    }

    /// The tracker's full state as five words — the four floats as IEEE-754
    /// bit patterns plus the observation count, in
    /// [`digest_into`](Self::digest_into) order. The representation a
    /// checkpoint persists: bit patterns round-trip exactly where a decimal
    /// rendering would not.
    pub fn to_raw(&self) -> [u64; 5] {
        [
            self.q.to_bits(),
            self.step.to_bits(),
            self.estimate.to_bits(),
            self.scale.to_bits(),
            self.seen,
        ]
    }

    /// Rebuild a tracker from [`to_raw`](Self::to_raw) words. Trusted
    /// input: callers (the checkpoint loader) guard corruption with a
    /// digest over the containing frame, so no `q` range check here.
    pub fn from_raw(raw: [u64; 5]) -> Self {
        QuantileTracker {
            q: f64::from_bits(raw[0]),
            step: f64::from_bits(raw[1]),
            estimate: f64::from_bits(raw[2]),
            scale: f64::from_bits(raw[3]),
            seen: raw[4],
        }
    }
}

/// Adaptive version of the three-feature threshold rule.
///
/// Maintains per-class quantile trackers for each feature; the live
/// thresholds sit at the midpoint between the Sybil-side and normal-side
/// quantile estimates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptiveThresholds {
    // Sybil-side trackers estimate the "easy" quantile of the sybil
    // distribution (e.g. 10th percentile of sybil frequency); normal-side
    // trackers the matching guard quantile of the normal distribution.
    freq_sybil: QuantileTracker,
    freq_normal: QuantileTracker,
    ratio_sybil: QuantileTracker,
    ratio_normal: QuantileTracker,
    cc_sybil: QuantileTracker,
    cc_normal: QuantileTracker,
    /// Whether the clustering condition participates (see
    /// [`ThresholdClassifier::calibrate`] for why it may be disabled).
    pub use_cc: bool,
}

impl AdaptiveThresholds {
    /// Start from an initial rule (e.g. the calibrated one).
    pub fn from_rule(rule: &ThresholdClassifier, step: f64) -> Self {
        let cc0 = if rule.max_cc.is_finite() {
            rule.max_cc
        } else {
            0.05
        };
        // Guard quantiles are deliberately non-extreme (p10/p90 rather
        // than p1/p99): real populations contain degenerate members —
        // brand-new users with accept-ratio 0 — and an extreme guard lets
        // a handful of them drag the midpoint into sybil territory.
        AdaptiveThresholds {
            freq_sybil: QuantileTracker::new(0.10, step, rule.min_freq.max(1.0) * 1.5),
            freq_normal: QuantileTracker::new(0.95, step, rule.min_freq.max(1.0) * 0.5),
            ratio_sybil: QuantileTracker::new(0.90, step, rule.max_out_ratio.min(1.0) * 0.6),
            ratio_normal: QuantileTracker::new(0.10, step, rule.max_out_ratio.min(1.0) * 1.4),
            cc_sybil: QuantileTracker::new(0.90, step, cc0 * 0.5),
            cc_normal: QuantileTracker::new(0.10, step, cc0 * 1.5),
            use_cc: rule.max_cc.is_finite(),
        }
    }

    /// Feed one verified example back into the trackers.
    pub fn feedback(&mut self, features: &FeatureVector, confirmed_sybil: bool) {
        if confirmed_sybil {
            self.freq_sybil.observe(features.inv_freq_1h);
            self.ratio_sybil.observe(features.outgoing_accept_ratio);
            self.cc_sybil.observe(features.clustering_coefficient);
        } else {
            self.freq_normal.observe(features.inv_freq_1h);
            self.ratio_normal.observe(features.outgoing_accept_ratio);
            self.cc_normal.observe(features.clustering_coefficient);
        }
    }

    /// Fold the six trackers (in declaration order) plus the `use_cc`
    /// flag into `d`. Used by the serving engine's epoch journal to pin
    /// replicated adaptive state at barrier time.
    pub fn digest_into(&self, d: &mut crate::digest::Digest64) {
        for t in [
            &self.freq_sybil,
            &self.freq_normal,
            &self.ratio_sybil,
            &self.ratio_normal,
            &self.cc_sybil,
            &self.cc_normal,
        ] {
            t.digest_into(d);
        }
        d.write_bool(self.use_cc);
    }

    /// The full adaptive state as 31 words: the six trackers' raw words
    /// in declaration order followed by the `use_cc` flag — the same
    /// field order [`digest_into`](Self::digest_into) folds.
    pub fn to_raw(&self) -> [u64; 31] {
        let mut out = [0u64; 31];
        let trackers = [
            &self.freq_sybil,
            &self.freq_normal,
            &self.ratio_sybil,
            &self.ratio_normal,
            &self.cc_sybil,
            &self.cc_normal,
        ];
        let (words, flag) = out.split_at_mut(30);
        for (chunk, t) in words.chunks_exact_mut(5).zip(trackers) {
            chunk.copy_from_slice(&t.to_raw());
        }
        flag.copy_from_slice(&[u64::from(self.use_cc)]);
        out
    }

    /// Rebuild adaptive state from [`to_raw`](Self::to_raw) words.
    pub fn from_raw(raw: [u64; 31]) -> Self {
        let (body, flag) = raw.split_at(30);
        let mut words = [[0u64; 5]; 6];
        for (dst, src) in words.iter_mut().flat_map(|w| w.iter_mut()).zip(body) {
            *dst = *src;
        }
        let [freq_s, freq_n, ratio_s, ratio_n, cc_s, cc_n] = words;
        AdaptiveThresholds {
            freq_sybil: QuantileTracker::from_raw(freq_s),
            freq_normal: QuantileTracker::from_raw(freq_n),
            ratio_sybil: QuantileTracker::from_raw(ratio_s),
            ratio_normal: QuantileTracker::from_raw(ratio_n),
            cc_sybil: QuantileTracker::from_raw(cc_s),
            cc_normal: QuantileTracker::from_raw(cc_n),
            use_cc: flag.iter().copied().any(|w| w != 0),
        }
    }

    /// The current live rule.
    pub fn current_rule(&self) -> ThresholdClassifier {
        ThresholdClassifier {
            min_freq: 0.5 * (self.freq_sybil.value() + self.freq_normal.value()),
            max_out_ratio: 0.5 * (self.ratio_sybil.value() + self.ratio_normal.value()),
            max_cc: if self.use_cc {
                0.5 * (self.cc_sybil.value() + self.cc_normal.value())
            } else {
                f64::INFINITY
            },
        }
    }
}

impl Classifier for AdaptiveThresholds {
    fn is_sybil(&self, f: &FeatureVector) -> bool {
        self.current_rule().is_sybil(f)
    }

    fn score(&self, f: &FeatureVector) -> f64 {
        self.current_rule().score(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_converges_to_quantile() {
        let mut t = QuantileTracker::new(0.9, 0.05, 0.0);
        // Uniform 0..100 stream (deterministic scramble).
        for i in 0..20_000u64 {
            let x = ((i * 48_271) % 100) as f64;
            t.observe(x);
        }
        assert!(
            (t.value() - 90.0).abs() < 10.0,
            "p90 estimate {}",
            t.value()
        );
        assert_eq!(t.count(), 20_000);
    }

    #[test]
    #[should_panic(expected = "q must be in (0,1)")]
    fn tracker_rejects_bad_quantile() {
        QuantileTracker::new(0.0, 0.1, 0.0);
    }

    fn fv(freq: f64, ratio: f64, cc: f64) -> FeatureVector {
        FeatureVector {
            inv_freq_1h: freq,
            inv_freq_400h: 0.0,
            outgoing_accept_ratio: ratio,
            incoming_accept_ratio: 1.0,
            clustering_coefficient: cc,
        }
    }

    #[test]
    fn thresholds_follow_attacker_drift() {
        let base = ThresholdClassifier {
            min_freq: 20.0,
            max_out_ratio: 0.5,
            max_cc: f64::INFINITY,
        };
        let mut ad = AdaptiveThresholds::from_rule(&base, 0.05);
        // Phase 1: classic fast sybils at 40/h, normals at 2/h.
        for i in 0..3000 {
            let j = (i % 10) as f64 * 0.1;
            ad.feedback(&fv(40.0 + j, 0.2, 0.01), true);
            ad.feedback(&fv(2.0 + j, 0.8, 0.05), false);
        }
        let rule1 = ad.current_rule();
        assert!(rule1.min_freq > 2.0 && rule1.min_freq < 40.0);
        assert!(ad.is_sybil(&fv(40.0, 0.2, 0.0)));
        assert!(!ad.is_sybil(&fv(2.0, 0.8, 0.0)));
        // Phase 2: attackers slow to 12/h to duck under the cut.
        for i in 0..6000 {
            let j = (i % 10) as f64 * 0.05;
            ad.feedback(&fv(12.0 + j, 0.2, 0.01), true);
            ad.feedback(&fv(2.0 + j, 0.8, 0.05), false);
        }
        let rule2 = ad.current_rule();
        assert!(
            rule2.min_freq < rule1.min_freq,
            "threshold must drift down: {} -> {}",
            rule1.min_freq,
            rule2.min_freq
        );
        assert!(
            ad.is_sybil(&fv(12.0, 0.2, 0.0)),
            "slowed sybil still caught"
        );
        assert!(!ad.is_sybil(&fv(2.0, 0.8, 0.0)));
    }

    #[test]
    fn raw_round_trip_is_digest_identical() {
        let base = ThresholdClassifier {
            min_freq: 20.0,
            max_out_ratio: 0.5,
            max_cc: 0.1,
        };
        let mut ad = AdaptiveThresholds::from_rule(&base, 0.05);
        for i in 0..100 {
            ad.feedback(&fv(30.0 + i as f64, 0.2, 0.01), i % 2 == 0);
        }
        let back = AdaptiveThresholds::from_raw(ad.to_raw());
        let digest = |a: &AdaptiveThresholds| {
            let mut d = crate::digest::Digest64::new();
            a.digest_into(&mut d);
            d.finish()
        };
        assert_eq!(digest(&ad), digest(&back));

        let t = QuantileTracker::new(0.9, 0.05, -3.5);
        let tb = QuantileTracker::from_raw(t.to_raw());
        let tdigest = |t: &QuantileTracker| {
            let mut d = crate::digest::Digest64::new();
            t.digest_into(&mut d);
            d.finish()
        };
        assert_eq!(tdigest(&t), tdigest(&tb));
    }

    #[test]
    fn cc_disabled_rule_keeps_cc_disabled() {
        let base = ThresholdClassifier {
            min_freq: 20.0,
            max_out_ratio: 0.5,
            max_cc: f64::INFINITY,
        };
        let ad = AdaptiveThresholds::from_rule(&base, 0.05);
        assert!(ad.current_rule().max_cc.is_infinite());
    }
}
