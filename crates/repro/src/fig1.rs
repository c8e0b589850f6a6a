//! Figure 1 — average friend-invitation frequency over 1-hour and
//! 400-hour windows (CDFs for Sybils vs. normal users).
//!
//! Paper findings reproduced here: Sybil curves sit far right of normal
//! curves at both time scales; "accounts sending more than 20 invites per
//! time interval are Sybils"; a 40 requests/hour cut catches ≈70% of
//! Sybils with no false positives.

use crate::scenario::Ctx;
use crate::{ascii, cdf::Cdf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sybil_features::dataset::GroundTruth;
use sybil_features::FeatureExtractor;

/// Result of the Fig. 1 experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig1 {
    /// Sample size per class.
    pub per_class: usize,
    /// Sybil 1-hour frequencies.
    pub sybil_1h: Vec<f64>,
    /// Normal 1-hour frequencies.
    pub normal_1h: Vec<f64>,
    /// Sybil 400-hour frequencies.
    pub sybil_400h: Vec<f64>,
    /// Normal 400-hour frequencies.
    pub normal_400h: Vec<f64>,
    /// Fraction of Sybils above 40 invitations/hour.
    pub sybils_above_40_per_h: f64,
    /// Fraction of normal users above 40 invitations/hour (the paper
    /// reports zero — no false positives at that cut).
    pub normals_above_40_per_h: f64,
}

/// The ground-truth sample used by Figs. 1–4, Table 1 and the detector
/// experiments. A run asks for one size (`RunSpec::per_class`), so the
/// context keeps the first size drawn and hands out copies of it; any
/// other size is drawn afresh.
pub fn ground_truth_sample(ctx: &Ctx, per_class: usize) -> GroundTruth {
    let draw = |per_class| {
        let fx = FeatureExtractor::new(&ctx.out);
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xF16);
        GroundTruth::sample(&fx, per_class, &mut rng)
    };
    let (kept, sample) = ctx.sample.get_or_init(|| (per_class, draw(per_class)));
    if *kept == per_class {
        sample.clone()
    } else {
        draw(per_class)
    }
}

/// Run the experiment.
pub fn run(ctx: &Ctx, per_class: usize) -> Fig1 {
    let ds = ground_truth_sample(ctx, per_class);
    let mut r = Fig1 {
        per_class,
        sybil_1h: Vec::new(),
        normal_1h: Vec::new(),
        sybil_400h: Vec::new(),
        normal_400h: Vec::new(),
        sybils_above_40_per_h: 0.0,
        normals_above_40_per_h: 0.0,
    };
    for (f, &label) in ds.features.iter().zip(&ds.labels) {
        if label {
            r.sybil_1h.push(f.inv_freq_1h);
            r.sybil_400h.push(f.inv_freq_400h);
        } else {
            r.normal_1h.push(f.inv_freq_1h);
            r.normal_400h.push(f.inv_freq_400h);
        }
    }
    let above = |v: &[f64], cut: f64| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().filter(|&&x| x > cut).count() as f64 / v.len() as f64
        }
    };
    r.sybils_above_40_per_h = above(&r.sybil_1h, 40.0);
    r.normals_above_40_per_h = above(&r.normal_1h, 40.0);
    r
}

impl Fig1 {
    /// Render the two CDF charts and the threshold summary.
    pub fn render(&self) -> String {
        let s1 = Cdf::new(self.sybil_1h.clone());
        let n1 = Cdf::new(self.normal_1h.clone());
        let s4 = Cdf::new(self.sybil_400h.clone());
        let n4 = Cdf::new(self.normal_400h.clone());
        let mut out = String::new();
        out.push_str("Figure 1 — average invitations per active window\n\n");
        out.push_str("1-hour windows:\n");
        out.push_str(&ascii::plot_cdfs(
            &[("Normal 1h", &n1), ("Sybil 1h", &s1)],
            70,
            14,
            false,
        ));
        out.push_str("\n400-hour windows:\n");
        out.push_str(&ascii::plot_cdfs(
            &[("Normal 400h", &n4), ("Sybil 400h", &s4)],
            70,
            14,
            false,
        ));
        out.push_str(&format!(
            "\nmedians: normal 1h {:.1}, sybil 1h {:.1}; normal 400h {:.1}, sybil 400h {:.1}\n",
            n1.median().unwrap_or(0.0),
            s1.median().unwrap_or(0.0),
            n4.median().unwrap_or(0.0),
            s4.median().unwrap_or(0.0),
        ));
        out.push_str(&format!(
            "40/hour cut: catches {:.0}% of Sybils at {:.2}% normal false positives \
             (paper: ≈70% at 0%)\n",
            100.0 * self.sybils_above_40_per_h,
            100.0 * self.normals_above_40_per_h,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn frequency_shapes_hold_at_tiny_scale() {
        let ctx = Ctx::shared(Scale::Tiny, 11);
        let fig = run(ctx, 50);
        assert!(!fig.sybil_1h.is_empty() && !fig.normal_1h.is_empty());
        let med = |v: &[f64]| Cdf::new(v.to_vec()).median().unwrap_or(0.0);
        // Sybils invite far more per active window at both scales.
        assert!(
            med(&fig.sybil_1h) > 3.0 * med(&fig.normal_1h).max(0.5),
            "1h medians: sybil {} normal {}",
            med(&fig.sybil_1h),
            med(&fig.normal_1h)
        );
        assert!(med(&fig.sybil_400h) > med(&fig.normal_400h));
        // Normal users essentially never exceed 40/hour.
        assert!(fig.normals_above_40_per_h < 0.02);
        let text = fig.render();
        assert!(text.contains("Figure 1"));
        assert!(text.contains("40/hour cut"));
    }
}
