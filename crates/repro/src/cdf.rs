//! Empirical cumulative distribution functions.

use serde::{Deserialize, Serialize};

/// An empirical CDF over `f64` samples.
///
/// Stores the sorted samples; evaluation and quantiles are `O(log n)`.
///
/// ```
/// use sybil_repro::cdf::Cdf;
///
/// let cdf: Cdf = (1..=100).map(f64::from).collect();
/// assert_eq!(cdf.eval(50.0), 0.5);
/// assert_eq!(cdf.quantile(0.9), Some(90.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaN values are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Build from any iterator of samples (also available through the
    /// standard [`FromIterator`] impl / `collect()`).
    #[allow(clippy::should_implement_trait)] // the trait IS implemented below
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were given.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`; 0.0 on an empty CDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Quantile `q ∈ [0, 1]` (nearest-rank). `None` on an empty CDF.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// Median, if any samples exist.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Mean of the samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Evenly-spaced `(x, P(X ≤ x))` points for plotting: `points` steps
    /// from min to max (linear). Empty CDF yields an empty vec.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        let (Some(lo), Some(hi)) = (self.min(), self.max()) else {
            return Vec::new();
        };
        let points = points.max(2);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_step_function() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::new(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.quantile(0.0), Some(10.0));
        assert_eq!(c.quantile(0.5), Some(30.0));
        assert_eq!(c.quantile(1.0), Some(50.0));
        assert_eq!(c.median(), Some(30.0));
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.mean(), 0.0);
        assert!(c.curve(10).is_empty());
    }

    #[test]
    fn collect_builds_cdf() {
        let c: Cdf = (1..=5).map(|i| i as f64).collect();
        assert_eq!(c.len(), 5);
        assert_eq!(c.median(), Some(3.0));
    }

    #[test]
    fn nan_dropped() {
        let c = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn unsorted_input() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(c.samples(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.mean(), 2.0);
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(3.0));
    }

    #[test]
    fn curve_monotone() {
        let c = Cdf::from_iter((1..=100).map(|i| i as f64));
        let pts = c.curve(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1, "CDF must be monotone");
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }
}
