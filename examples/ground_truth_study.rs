//! The §2 pipeline end to end: build a verified ground-truth sample, look
//! at each behavioral feature's separation, then run the Table-1 bake-off
//! (RBF-SVM vs. calibrated threshold rule, 5-fold cross-validation).
//!
//! ```sh
//! cargo run --release --example ground_truth_study [-- tiny|small]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use renren_sybils::detect::eval::cross_validate;
use renren_sybils::detect::svm::kernel::KernelSvmParams;
use renren_sybils::detect::{KernelSvm, ThresholdClassifier};
use renren_sybils::features::dataset::GroundTruth;
use renren_sybils::features::{FeatureExtractor, FeatureVector};
use renren_sybils::repro::{ascii, cdf::Cdf};
use renren_sybils::sim::{simulate, SimConfig};

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let config = match scale.as_str() {
        "small" => SimConfig::small(2026),
        _ => SimConfig::tiny(2026),
    };
    let per_class = if scale == "small" { 250 } else { 50 };

    println!("simulating ({scale}) ...");
    let out = simulate(config);
    let fx = FeatureExtractor::new(&out);
    let mut rng = StdRng::seed_from_u64(99);
    let mut ds = GroundTruth::sample(&fx, per_class, &mut rng);
    println!(
        "ground truth: {} Sybils + {} normal users\n",
        ds.num_sybil(),
        ds.len() - ds.num_sybil()
    );

    // Feature separation, one CDF pair per feature.
    type FeatureView = (&'static str, fn(&FeatureVector) -> f64);
    let feature_views: [FeatureView; 4] = [
        ("invitations per active hour (Fig. 1)", |f| f.inv_freq_1h),
        ("outgoing accept ratio (Fig. 2)", |f| {
            f.outgoing_accept_ratio
        }),
        ("incoming accept ratio (Fig. 3)", |f| {
            f.incoming_accept_ratio
        }),
        ("first-50 clustering coefficient (Fig. 4)", |f| {
            f.clustering_coefficient
        }),
    ];
    for (name, get) in feature_views {
        let sybil = Cdf::from_iter(
            ds.features
                .iter()
                .zip(&ds.labels)
                .filter(|(_, &l)| l)
                .map(|(f, _)| get(f)),
        );
        let normal = Cdf::from_iter(
            ds.features
                .iter()
                .zip(&ds.labels)
                .filter(|(_, &l)| !l)
                .map(|(f, _)| get(f)),
        );
        println!("--- {name}");
        println!(
            "    medians: sybil {:.3}, normal {:.3}",
            sybil.median().unwrap_or(0.0),
            normal.median().unwrap_or(0.0)
        );
        print!(
            "{}",
            ascii::plot_cdfs(&[("Sybil", &sybil), ("Normal", &normal)], 60, 10, false)
        );
        println!();
    }

    // Table-1 style evaluation.
    ds.shuffle(&mut rng);
    let (svm, _) = cross_validate(&ds, 5, |train| {
        KernelSvm::train_features(&train.features, &train.labels, &KernelSvmParams::default())
    });
    let (thr, _) = cross_validate(&ds, 5, ThresholdClassifier::calibrate);
    println!("5-fold cross-validation (Table 1):");
    println!(
        "  SVM        sybil recall {:.1}%  normal recall {:.1}%  accuracy {:.1}%",
        100.0 * svm.sybil_recall(),
        100.0 * svm.normal_recall(),
        100.0 * svm.accuracy()
    );
    println!(
        "  threshold  sybil recall {:.1}%  normal recall {:.1}%  accuracy {:.1}%",
        100.0 * thr.sybil_recall(),
        100.0 * thr.normal_recall(),
        100.0 * thr.accuracy()
    );
    println!("\npaper: both ≈ 99%/99% — the cheap rule matches the SVM.");
}
