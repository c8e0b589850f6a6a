//! RBF-kernel SVM trained with simplified SMO (Platt 1998, simplified per
//! the Stanford CS229 variant): pick multiplier pairs violating the KKT
//! conditions and solve the two-variable sub-problem analytically.
//!
//! For the paper's 1600-example training folds an `O(n²)` kernel cache is
//! tiny. Convergence is slow: at `tiny` (80–100 rows) the quiet-pass rule
//! ends training after 70–200 passes, and at `small` (400–500 rows) 10 of
//! the 11 fits `repro table1 zoo` makes at seed 3 (and at seed 11) run to
//! the `max_passes` cap, with 70–100 non-zero multipliers. Each decision
//! value therefore sums over the non-zero multipliers only — the same
//! terms in the same order as a sweep over every row, so the trained
//! model is bit-identical to the dense loop's. Most rows update nothing
//! (Table 1's six fits at `small`/seed 3 sum 500k rows and make 10,178
//! updates), so a pass sums four consecutive rows (`ROWS`) per sweep of
//! that list, each row in its own accumulator with the same terms in the
//! same order, reading each term's four kernel values as one run of the
//! symmetric cache; an update changes the multipliers and the bias, so
//! it ends the batch. Moving the cap or the stopping rule changes the
//! trained models, so it is a change of results; the counts and AUCs
//! Table 1 and the zoo report are coarser (a cap of 150 leaves them
//! unchanged at tiny/seed 11 and small/seed 3).

use crate::svm::Scaler;
use crate::Classifier;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sybil_features::FeatureVector;

/// Rows whose decision values one sweep of the multipliers sums.
const ROWS: usize = 4;

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KernelSvmParams {
    /// Soft-margin penalty C.
    pub c: f64,
    /// RBF width γ: `K(a,b) = exp(-γ‖a−b‖²)`.
    pub gamma: f64,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Stop after this many consecutive passes without updates. At
    /// `small` scale this rarely fires before `max_passes` does.
    pub max_quiet_passes: usize,
    /// Hard cap on total passes; at `small` scale it ends most fits.
    pub max_passes: usize,
    /// Seed for partner selection.
    pub seed: u64,
}

impl Default for KernelSvmParams {
    fn default() -> Self {
        KernelSvmParams {
            c: 10.0,
            gamma: 0.5,
            tol: 1e-3,
            max_quiet_passes: 3,
            max_passes: 200,
            seed: 0xC0FFEE,
        }
    }
}

/// A trained RBF SVM: support vectors, multipliers, bias, and the scaler.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelSvm {
    scaler: Scaler,
    support: Vec<Vec<f64>>,
    alpha_y: Vec<f64>, // αᵢ yᵢ for each support vector
    bias: f64,
    gamma: f64,
}

impl KernelSvm {
    /// Train on raw feature rows and boolean labels (`true` = Sybil).
    pub fn train(rows: &[Vec<f64>], labels: &[bool], params: &KernelSvmParams) -> Self {
        assert_eq!(rows.len(), labels.len());
        assert!(!rows.is_empty(), "cannot train on no data");
        assert!(
            labels.iter().any(|&l| l) && labels.iter().any(|&l| !l),
            "need both classes to train"
        );
        let scaler = Scaler::fit(rows);
        let x = scaler.transform_all(rows);
        let y: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let n = x.len();
        // Kernel cache.
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = rbf(&x[i], &x[j], params.gamma);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        let mut alpha = vec![0.0f64; n];
        // `(j, alpha[j] * y[j])` for every `alpha[j] != 0.0`, by ascending
        // `j`: the only terms of the decision sum, added in the same order
        // a sweep over `0..n` adds them (and `alpha[j] * y[j] * k` is
        // `(alpha[j] * y[j]) * k`), so every `f(i)` is bit-equal to the
        // dense loop's.
        let mut nonzero: Vec<(usize, f64)> = Vec::new();
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let f = |nonzero: &[(usize, f64)], b: f64, i: usize| -> f64 {
            let row = &k[i * n..(i + 1) * n];
            let mut s = b;
            for &(j, ay) in nonzero {
                s += ay * row[j];
            }
            s
        };
        // `f` of rows `i..i + ROWS` in one sweep of the list: each row
        // keeps its own sum and adds the same terms in the same order, so
        // each is bit-equal to its `f`, and the sums do not wait on one
        // another. The cache is symmetric (both halves hold the same
        // bits), so a term's `ROWS` kernel values are one run of row `j`.
        let f_rows = |nonzero: &[(usize, f64)], b: f64, i: usize| -> [f64; ROWS] {
            let mut s = [b; ROWS];
            for &(j, ay) in nonzero {
                let run = &k[j * n + i..j * n + i + ROWS];
                for (s, &kji) in s.iter_mut().zip(run) {
                    *s += ay * kji;
                }
            }
            s
        };
        let mut quiet = 0usize;
        let mut passes = 0usize;
        while quiet < params.max_quiet_passes && passes < params.max_passes {
            passes += 1;
            let mut changed = 0usize;
            // `Some((at, sums))`: `sums[r]` is `f(at + r)` under the
            // current multipliers and bias. An update ends it.
            let mut batch: Option<(usize, [f64; ROWS])> = None;
            for i in 0..n {
                let fi = match batch {
                    Some((at, sums)) if i < at + ROWS => sums[i - at],
                    _ if i + ROWS <= n => {
                        let sums = f_rows(&nonzero, b, i);
                        batch = Some((i, sums));
                        sums[0]
                    }
                    _ => f(&nonzero, b, i),
                };
                let ei = fi - y[i];
                let violates = (y[i] * ei < -params.tol && alpha[i] < params.c)
                    || (y[i] * ei > params.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Random partner ≠ i.
                let mut j = rng.random_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&nonzero, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    (
                        (aj_old - ai_old).max(0.0),
                        (params.c + aj_old - ai_old).min(params.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - params.c).max(0.0),
                        (ai_old + aj_old).min(params.c),
                    )
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                track_nonzero(&mut nonzero, i, ai * y[i]);
                track_nonzero(&mut nonzero, j, aj * y[j]);
                let b1 = b
                    - ei
                    - y[i] * (ai - ai_old) * k[i * n + i]
                    - y[j] * (aj - aj_old) * k[i * n + j];
                let b2 = b
                    - ej
                    - y[i] * (ai - ai_old) * k[i * n + j]
                    - y[j] * (aj - aj_old) * k[j * n + j];
                b = if ai > 0.0 && ai < params.c {
                    b1
                } else if aj > 0.0 && aj < params.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                batch = None;
                changed += 1;
            }
            if changed == 0 {
                quiet += 1;
            } else {
                quiet = 0;
            }
        }
        // Keep only support vectors.
        let mut support = Vec::new();
        let mut alpha_y = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support.push(x[i].clone());
                alpha_y.push(alpha[i] * y[i]);
            }
        }
        KernelSvm {
            scaler,
            support,
            alpha_y,
            bias: b,
            gamma: params.gamma,
        }
    }

    /// Train directly from [`FeatureVector`]s.
    pub fn train_features(
        features: &[FeatureVector],
        labels: &[bool],
        params: &KernelSvmParams,
    ) -> Self {
        let rows: Vec<Vec<f64>> = features.iter().map(|f| f.as_array().to_vec()).collect();
        Self::train(&rows, labels, params)
    }

    /// Signed decision value for a raw feature row.
    pub fn decision(&self, row: &[f64]) -> f64 {
        let x = self.scaler.transform(row);
        let mut s = self.bias;
        for (sv, ay) in self.support.iter().zip(&self.alpha_y) {
            s += ay * rbf(sv, &x, self.gamma);
        }
        s
    }
}

/// Keep the `(index, alpha·y)` list of non-zero multipliers current after
/// `alpha[idx] * y[idx]` became `alpha_y` (zero exactly when the
/// multiplier is, since `y` is ±1).
fn track_nonzero(nonzero: &mut Vec<(usize, f64)>, idx: usize, alpha_y: f64) {
    match nonzero.binary_search_by_key(&idx, |&(j, _)| j) {
        Ok(at) if alpha_y == 0.0 => {
            nonzero.remove(at);
        }
        Ok(at) => nonzero[at].1 = alpha_y,
        Err(at) if alpha_y != 0.0 => nonzero.insert(at, (idx, alpha_y)),
        Err(_) => {}
    }
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

impl Classifier for KernelSvm {
    fn is_sybil(&self, f: &FeatureVector) -> bool {
        self.decision(&f.as_array()) > 0.0
    }

    fn score(&self, f: &FeatureVector) -> f64 {
        self.decision(&f.as_array())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference SMO: `train`'s loop with the decision sum over every row,
    /// skipping zero multipliers by test. Also reports whether any
    /// multiplier went back to zero.
    fn train_dense(
        rows: &[Vec<f64>],
        labels: &[bool],
        params: &KernelSvmParams,
    ) -> (KernelSvm, bool) {
        let scaler = Scaler::fit(rows);
        let x = scaler.transform_all(rows);
        let y: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let n = x.len();
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = rbf(&x[i], &x[j], params.gamma);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut back_to_zero = false;
        let f = |alpha: &[f64], b: f64, k: &[f64], y: &[f64], i: usize| -> f64 {
            let mut s = b;
            for j in 0..y.len() {
                if alpha[j] != 0.0 {
                    s += alpha[j] * y[j] * k[i * y.len() + j];
                }
            }
            s
        };
        let mut quiet = 0usize;
        let mut passes = 0usize;
        while quiet < params.max_quiet_passes && passes < params.max_passes {
            passes += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = f(&alpha, b, &k, &y, i) - y[i];
                let violates = (y[i] * ei < -params.tol && alpha[i] < params.c)
                    || (y[i] * ei > params.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = rng.random_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, b, &k, &y, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    (
                        (aj_old - ai_old).max(0.0),
                        (params.c + aj_old - ai_old).min(params.c),
                    )
                } else {
                    (
                        (ai_old + aj_old - params.c).max(0.0),
                        (ai_old + aj_old).min(params.c),
                    )
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                back_to_zero |= (ai_old != 0.0 && ai == 0.0) || (aj_old != 0.0 && aj == 0.0);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b
                    - ei
                    - y[i] * (ai - ai_old) * k[i * n + i]
                    - y[j] * (aj - aj_old) * k[i * n + j];
                let b2 = b
                    - ej
                    - y[i] * (ai - ai_old) * k[i * n + j]
                    - y[j] * (aj - aj_old) * k[j * n + j];
                b = if ai > 0.0 && ai < params.c {
                    b1
                } else if aj > 0.0 && aj < params.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                changed += 1;
            }
            if changed == 0 {
                quiet += 1;
            } else {
                quiet = 0;
            }
        }
        let mut support = Vec::new();
        let mut alpha_y = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support.push(x[i].clone());
                alpha_y.push(alpha[i] * y[i]);
            }
        }
        let svm = KernelSvm {
            scaler,
            support,
            alpha_y,
            bias: b,
            gamma: params.gamma,
        };
        (svm, back_to_zero)
    }

    /// A small random training set holding both classes, with random `c`,
    /// `gamma` and partner seed. Coordinates sit on a coarse grid so that
    /// duplicate rows (and with them `eta = 0` pairs) occur.
    fn random_problem(seed: u64) -> (Vec<Vec<f64>>, Vec<bool>, KernelSvmParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(4..40usize);
        let dim = rng.random_range(1..5usize);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| f64::from(rng.random_range(-8i32..8)) / 4.0)
                    .collect()
            })
            .collect();
        let mut labels: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
        labels[0] = true;
        labels[1] = false;
        let params = KernelSvmParams {
            c: [0.05, 0.5, 1.0, 10.0, 100.0][rng.random_range(0..5usize)],
            gamma: rng.random_range(0.05..4.0),
            seed: rng.next_u64(),
            ..KernelSvmParams::default()
        };
        (rows, labels, params)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Panics unless `train` and the dense oracle give the same model, bit
    /// for bit; returns whether a multiplier went back to zero.
    fn assert_matches_dense(seed: u64) -> bool {
        let (rows, labels, params) = random_problem(seed);
        let fast = KernelSvm::train(&rows, &labels, &params);
        let (dense, back_to_zero) = train_dense(&rows, &labels, &params);
        let support = |s: &KernelSvm| s.support.iter().map(|r| bits(r)).collect::<Vec<_>>();
        assert_eq!(support(&fast), support(&dense), "support, seed {seed}");
        assert_eq!(
            bits(&fast.alpha_y),
            bits(&dense.alpha_y),
            "alpha_y, seed {seed}"
        );
        assert_eq!(
            fast.bias.to_bits(),
            dense.bias.to_bits(),
            "bias, seed {seed}"
        );
        for r in &rows {
            assert_eq!(
                fast.decision(r).to_bits(),
                dense.decision(r).to_bits(),
                "decision at {r:?}, seed {seed}"
            );
        }
        back_to_zero
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Summing over the non-zero list trains the dense loop's model.
        #[test]
        fn nonzero_list_smo_is_bit_identical_to_the_dense_loop(seed in any::<u64>()) {
            assert_matches_dense(seed);
        }
    }

    #[test]
    fn oracle_covers_multipliers_returning_to_zero() {
        // The list must drop an index as well as add one; these problems
        // exercise both.
        let returned = (0..40u64).filter(|&s| assert_matches_dense(s)).count();
        assert!(
            returned > 0,
            "no multiplier returned to zero in 40 problems"
        );
    }

    #[test]
    fn linearly_separable_case() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let j = (i % 10) as f64 / 10.0;
            rows.push(vec![2.0 + j, 2.0 - j]);
            labels.push(true);
            rows.push(vec![-2.0 - j, -2.0 + j]);
            labels.push(false);
        }
        let svm = KernelSvm::train(&rows, &labels, &KernelSvmParams::default());
        for (r, &l) in rows.iter().zip(&labels) {
            assert_eq!(svm.decision(r) > 0.0, l, "row {r:?}");
        }
        assert!(!svm.support.is_empty());
    }

    #[test]
    fn xor_requires_kernel() {
        // XOR is not linearly separable; RBF handles it.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..25 {
            let j = (i % 5) as f64 * 0.02;
            for (sx, sy) in [(1.0, 1.0), (-1.0, -1.0)] {
                rows.push(vec![sx + j, sy - j]);
                labels.push(true);
            }
            for (sx, sy) in [(1.0, -1.0), (-1.0, 1.0)] {
                rows.push(vec![sx - j, sy + j]);
                labels.push(false);
            }
        }
        let svm = KernelSvm::train(
            &rows,
            &labels,
            &KernelSvmParams {
                gamma: 1.0,
                ..KernelSvmParams::default()
            },
        );
        let correct = rows
            .iter()
            .zip(&labels)
            .filter(|(r, &l)| (svm.decision(r) > 0.0) == l)
            .count();
        assert!(
            correct as f64 / rows.len() as f64 > 0.95,
            "XOR accuracy {correct}/{}",
            rows.len()
        );
    }

    #[test]
    fn deterministic_training() {
        let rows = vec![
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![-1.0, 0.0],
            vec![-0.9, -0.1],
        ];
        let labels = vec![true, true, false, false];
        let p = KernelSvmParams::default();
        let a = KernelSvm::train(&rows, &labels, &p);
        let b = KernelSvm::train(&rows, &labels, &p);
        assert_eq!(a.decision(&[0.5, 0.0]), b.decision(&[0.5, 0.0]));
    }

    #[test]
    #[should_panic(expected = "need both classes")]
    fn single_class_rejected() {
        KernelSvm::train(
            &[vec![1.0], vec![2.0]],
            &[false, false],
            &KernelSvmParams::default(),
        );
    }
}
