//! Deployment replay — the §2.3 production story as an experiment.
//!
//! The paper's detector ran on Renren from August 2010 to February 2011
//! and banned ~100,000 Sybils. Here the simulated request stream is
//! replayed through the streaming detector (static and adaptive variants)
//! and the operational metrics an abuse team would track are reported:
//! catch rate, false positives, and detection latency.

use crate::fig1::ground_truth_sample;
use crate::runspec::RunSpec;
use crate::scenario::Ctx;
use crate::serve::fmt_catch_rate;
use crate::table::Table;
use serde::{Deserialize, Serialize};
use sybil_core::realtime::{replay, DeploymentReport, RealtimeConfig};
use sybil_core::ThresholdClassifier;
use sybil_serve::{ServeConfig, ServeSession};

/// Result of the deployment experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Deployment {
    /// The calibrated initial rule.
    pub rule: ThresholdClassifier,
    /// Static-rule replay.
    pub static_report: DeploymentReport,
    /// Adaptive-rule replay.
    pub adaptive_report: DeploymentReport,
    /// Sybils Renren's prior techniques banned during the run (context).
    pub prior_bans: usize,
    /// Adaptive-detector detections per 500-hour operations window — the
    /// "bans per month" chart an abuse team watches.
    pub detections_per_window: Vec<(u64, usize)>,
}

/// Run the experiment.
pub fn run(ctx: &Ctx, spec: &RunSpec) -> Deployment {
    let ds = ground_truth_sample(ctx, spec.per_class());
    let rule = ThresholdClassifier::calibrate(&ds);
    // The sharded engine produces the same report byte-for-byte (see the
    // `serve` experiment, which checks exactly that) but walks the stream
    // in parallel; the sequential replay stays as a fallback for configs
    // the engine rejects.
    let run_variant = |adaptive: bool| {
        let detect = RealtimeConfig {
            rule,
            adaptive,
            ..RealtimeConfig::default()
        };
        let mut cfg = ServeConfig::for_detect(detect);
        if spec.shards != 0 {
            cfg.shards = spec.shards;
        }
        ServeSession::new(cfg)
            .run(&ctx.out)
            .map(|o| o.report)
            .unwrap_or_else(|_| replay(&ctx.out, &detect))
    };
    let static_report = run_variant(false);
    let adaptive_report = run_variant(true);
    // Bucket adaptive detections into 500 h operations windows.
    let window_h = 500u64;
    let mut buckets: std::collections::BTreeMap<u64, usize> = Default::default();
    for d in &adaptive_report.detections {
        *buckets
            .entry(d.at.as_secs() / (window_h * 3600))
            .or_default() += 1;
    }
    let detections_per_window = buckets
        .into_iter()
        .map(|(b, c)| (b * window_h, c))
        .collect();
    Deployment {
        rule,
        static_report,
        adaptive_report,
        prior_bans: ctx.out.stats().banned,
        detections_per_window,
    }
}

impl Deployment {
    /// Render the ops dashboard.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "Variant",
            "Detections",
            "Sybils caught",
            "Catch rate",
            "False pos.",
            "Mean latency",
        ]);
        for (name, r) in [
            ("static", &self.static_report),
            ("adaptive", &self.adaptive_report),
        ] {
            t.add_row([
                name.to_string(),
                r.detections.len().to_string(),
                r.true_positives.to_string(),
                fmt_catch_rate(r.catch_rate()),
                r.false_positives.to_string(),
                format!("{:.0}h", r.mean_latency_h),
            ]);
        }
        let mut out = String::from(
            "Deployment replay — the §2.3 production detector on the simulated stream\n\n",
        );
        out.push_str(&t.render());
        out.push_str("\nadaptive detections per 500h ops window:\n");
        let peak = self
            .detections_per_window
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(start_h, count) in &self.detections_per_window {
            let bar = "#".repeat((count * 40).div_ceil(peak));
            out.push_str(&format!("  t={start_h:>5}h {count:>5} {bar}\n"));
        }
        out.push_str(&format!(
            "\ninitial rule: ratio < {:.2} ∧ freq > {:.1} ∧ cc < {}; Renren's prior \
             techniques banned {} Sybils over the same period (paper: our detector added \
             ~100k to their ~560k)\n",
            self.rule.max_out_ratio,
            self.rule.min_freq,
            if self.rule.max_cc.is_finite() {
                format!("{:.3}", self.rule.max_cc)
            } else {
                "(off)".into()
            },
            self.prior_bans
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn both_variants_catch_most_sybils_cheaply() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let d = run(ctx, &RunSpec::builder().scale(Scale::Tiny).build());
        assert!(!d.detections_per_window.is_empty());
        let total: usize = d.detections_per_window.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, d.adaptive_report.detections.len());
        for r in [&d.static_report, &d.adaptive_report] {
            assert!(r.catch_rate() > 0.5, "catch rate {:.2}", r.catch_rate());
            let fp = r.false_positives as f64 / ctx.normals.len() as f64;
            assert!(fp < 0.02, "fp rate {fp}");
            assert!(r.mean_latency_h >= 0.0);
        }
        assert!(d.render().contains("Deployment replay"));
    }
}
