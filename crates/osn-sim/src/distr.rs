//! Small sampling helpers (exponential, log-normal, geometric, beta).
//!
//! The workspace's sanctioned dependency set includes `rand` but not
//! `rand_distr`, so the handful of distributions the simulator needs are
//! implemented here with standard transforms and tested for their moments.

use rand::prelude::*;

/// Exponential with the given mean (`mean = 1/λ`). Returns 0 for mean ≤ 0.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal with parameters µ and σ of the underlying normal.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Geometric-like count with the given mean (number of successes before
/// failure with success probability `mean / (1 + mean)`; support {0, 1, …}).
pub fn geometric_count<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let p = mean / (1.0 + mean); // continue probability
    let mut k = 0usize;
    while rng.random_range(0.0..1.0) < p && k < 10_000 {
        k += 1;
    }
    k
}

/// Beta(α, β) via two Gamma draws (Marsaglia–Tsang for shape ≥ 1, boosted
/// for shape < 1).
pub fn beta<R: Rng + ?Sized>(rng: &mut R, alpha: f64, b: f64) -> f64 {
    let x = gamma(rng, alpha);
    let y = gamma(rng, b);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Gamma(shape, 1) via Marsaglia–Tsang.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of<F: FnMut(&mut StdRng) -> f64>(seed: u64, n: usize, mut f: F) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| f(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let m = mean_of(1, 50_000, |r| exponential(r, 24.0));
        assert!((m - 24.0).abs() < 0.6, "mean {m}");
        assert_eq!(exponential(&mut StdRng::seed_from_u64(0), 0.0), 0.0);
    }

    #[test]
    fn normal_moments() {
        let m = mean_of(2, 50_000, standard_normal);
        assert!(m.abs() < 0.03, "mean {m}");
        let var = mean_of(3, 50_000, |r| standard_normal(r).powi(2));
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        // Median of LogNormal(mu, sigma) is e^mu.
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<f64> = (0..20_001)
            .map(|_| log_normal(&mut rng, 3.0, 0.7))
            .collect();
        v.sort_by(f64::total_cmp);
        let median = v[10_000];
        assert!((median - 3.0f64.exp()).abs() < 1.5, "median {median}");
    }

    #[test]
    fn geometric_mean_and_support() {
        let m = mean_of(5, 50_000, |r| geometric_count(r, 1.6) as f64);
        assert!((m - 1.6).abs() < 0.1, "mean {m}");
        assert_eq!(geometric_count(&mut StdRng::seed_from_u64(0), 0.0), 0);
    }

    #[test]
    fn beta_mean_and_range() {
        let m = mean_of(6, 30_000, |r| beta(r, 4.0, 1.6));
        let expect = 4.0 / 5.6;
        assert!((m - expect).abs() < 0.02, "mean {m} vs {expect}");
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = beta(&mut rng, 0.5, 0.5);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        for &shape in &[0.5, 1.0, 3.0, 9.0] {
            let m = mean_of(8, 40_000, |r| gamma(r, shape));
            assert!(
                (m - shape).abs() < 0.12 * shape.max(1.0),
                "shape {shape} mean {m}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "gamma shape must be positive")]
    fn gamma_rejects_nonpositive() {
        let mut rng = StdRng::seed_from_u64(9);
        gamma(&mut rng, 0.0);
    }
}
