//! Deployment rehearsal: replay a simulated request stream through the
//! streaming detector exactly the way the paper's system consumed Renren's
//! production events (§2.3, deployed August 2010, ~100k Sybils banned by
//! February 2011).
//!
//! Compares a static calibrated rule against the adaptive-feedback
//! variant, and reports catch rate, false positives, and detection
//! latency.
//!
//! ```sh
//! cargo run --release --example detector_deployment
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use renren_sybils::detect::realtime::{replay, RealtimeConfig};
use renren_sybils::detect::ThresholdClassifier;
use renren_sybils::features::dataset::GroundTruth;
use renren_sybils::features::FeatureExtractor;
use renren_sybils::sim::{simulate, SimConfig};

fn main() {
    println!("simulating six months of OSN traffic ...");
    let out = simulate(SimConfig::small(777));
    let stats = out.stats();
    println!(
        "{} accounts, {} requests, {} Sybils created, {} already banned by Renren's \
         prior techniques\n",
        out.accounts.len(),
        stats.requests,
        out.sybil_ids().len(),
        stats.banned
    );

    // Calibrate an initial rule on a small labeled sample, as the authors
    // did on their 1000+1000 ground truth before going live.
    let fx = FeatureExtractor::new(&out);
    let mut rng = StdRng::seed_from_u64(5);
    let ds = GroundTruth::sample(&fx, 150, &mut rng);
    let rule = ThresholdClassifier::calibrate(&ds);
    println!(
        "initial rule from ground truth: ratio < {:.2} ∧ freq > {:.1} ∧ cc < {}",
        rule.max_out_ratio,
        rule.min_freq,
        if rule.max_cc.is_finite() {
            format!("{:.3}", rule.max_cc)
        } else {
            "(disabled)".into()
        }
    );

    for adaptive in [false, true] {
        let cfg = RealtimeConfig {
            rule,
            adaptive,
            ..RealtimeConfig::default()
        };
        let report = replay(&out, &cfg);
        let label = if adaptive { "adaptive" } else { "static " };
        println!(
            "\n[{label}] detections {} | sybils caught {} ({:.0}% of eligible) | \
             false positives {} | mean latency {:.0}h",
            report.detections.len(),
            report.true_positives,
            100.0 * report.catch_rate(),
            report.false_positives,
            report.mean_latency_h
        );
        if adaptive {
            println!(
                "[{label}] final adaptive rule: ratio < {:.2} ∧ freq > {:.1}",
                report.final_rule.max_out_ratio, report.final_rule.min_freq
            );
        }
        // The first few detections, like an operator's dashboard.
        for d in report.detections.iter().take(5) {
            println!(
                "    t={:7.1}h  account {:>6}  {}",
                d.at.as_hours(),
                d.account.0,
                if d.correct {
                    "confirmed Sybil"
                } else {
                    "FALSE POSITIVE"
                }
            );
        }
    }
}
