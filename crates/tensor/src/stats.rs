//! Error statistics for the accuracy experiment (§6.2).
//!
//! The paper quantifies accuracy as the *average relative error* against an
//! FP64-CPU convolution, and Figure 10 plots the distribution of relative
//! errors. [`ErrorStats`] computes both from a result tensor and a ground
//! truth tensor.

use crate::{Scalar, Tensor4};

/// Summary statistics of `|got − want| / |want|` over all elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorStats {
    /// Mean relative error (the paper's Table 3 metric).
    pub mean: f64,
    /// Maximum relative error.
    pub max: f64,
    /// Root-mean-square relative error.
    pub rms: f64,
    /// Number of elements compared.
    pub count: usize,
}

impl ErrorStats {
    /// Compare a result against the ground truth element by element.
    ///
    /// Elements whose true value is exactly zero are compared by absolute
    /// error instead (they cannot occur in the paper's uniform-`[1,2]` setup,
    /// where every output is a sum of positive products, but the library
    /// should not divide by zero on other inputs).
    pub fn between<T: Scalar, U: Scalar>(got: &Tensor4<T>, want: &Tensor4<U>) -> ErrorStats {
        assert_eq!(got.dims(), want.dims(), "shape mismatch");
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max = 0.0f64;
        let n = got.len();
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            let g = g.to_f64();
            let w = w.to_f64();
            let rel = if w == 0.0 { (g - w).abs() } else { ((g - w) / w).abs() };
            sum += rel;
            sum_sq += rel * rel;
            if rel > max {
                max = rel;
            }
        }
        ErrorStats {
            mean: if n > 0 { sum / n as f64 } else { 0.0 },
            max,
            rms: if n > 0 { (sum_sq / n as f64).sqrt() } else { 0.0 },
            count: n,
        }
    }
}

/// Maximum *mixed* error `|got − want| / (|want| + 1)` over all elements —
/// robust to near-zero true values (where the pure relative error of a
/// correct f32 result is unbounded due to cancellation). Used by tests that
/// feed sign-varying inputs; the paper's Experiment 2 avoids the issue by
/// sampling inputs from `[1, 2)`.
pub fn max_mixed_error<T: Scalar, U: Scalar>(got: &Tensor4<T>, want: &Tensor4<U>) -> f64 {
    assert_eq!(got.dims(), want.dims(), "shape mismatch");
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(g, w)| {
            let (g, w) = (g.to_f64(), w.to_f64());
            (g - w).abs() / (w.abs() + 1.0)
        })
        .fold(0.0, f64::max)
}

/// Histogram of relative errors for Figure 10: `bins` equal-width buckets
/// over `[0, hi)`, returning the *percentage* of elements per bucket
/// (Figure 10's y-axis is %). Errors ≥ `hi` land in the last bucket.
pub fn relative_error_histogram<T: Scalar, U: Scalar>(
    got: &Tensor4<T>,
    want: &Tensor4<U>,
    bins: usize,
    hi: f64,
) -> Vec<f64> {
    assert_eq!(got.dims(), want.dims());
    assert!(bins > 0 && hi > 0.0);
    let mut counts = vec![0usize; bins];
    let n = got.len();
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let g = g.to_f64();
        let w = w.to_f64();
        let rel = if w == 0.0 { (g - w).abs() } else { ((g - w) / w).abs() };
        let b = ((rel / hi * bins as f64) as usize).min(bins - 1);
        counts[b] += 1;
    }
    counts.into_iter().map(|c| 100.0 * c as f64 / n.max(1) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_is_zero_error() {
        let a = Tensor4::<f32>::random([1, 2, 2, 2], 3, 1.0, 2.0);
        let s = ErrorStats::between(&a, &a);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn known_relative_errors() {
        let want = Tensor4::<f64>::from_vec([1, 1, 1, 2], vec![1.0, 2.0]);
        let got = Tensor4::<f64>::from_vec([1, 1, 1, 2], vec![1.1, 1.9]);
        let s = ErrorStats::between(&got, &want);
        assert!((s.mean - (0.1 + 0.05) / 2.0).abs() < 1e-12);
        assert!((s.max - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_truth_uses_absolute_error() {
        let want = Tensor4::<f64>::from_vec([1, 1, 1, 1], vec![0.0]);
        let got = Tensor4::<f64>::from_vec([1, 1, 1, 1], vec![0.25]);
        let s = ErrorStats::between(&got, &want);
        assert_eq!(s.mean, 0.25);
    }

    #[test]
    fn histogram_sums_to_100_percent() {
        let want = Tensor4::<f32>::random([1, 8, 8, 4], 5, 1.0, 2.0);
        let got = want.map(|v| v * 1.0001);
        let h = relative_error_histogram(&got, &want, 10, 1e-3);
        let total: f64 = h.iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
        // All errors ≈ 1e-4 land in the first couple of buckets of [0, 1e-3)
        // split into 10 (f32 rounding scatters them around the 1e-4 mark).
        assert!(h[0] + h[1] + h[2] > 99.0, "{h:?}");
        assert!(h[9] == 0.0, "{h:?}");
    }

    #[test]
    fn histogram_clamps_outliers_into_last_bin() {
        let want = Tensor4::<f64>::from_vec([1, 1, 1, 2], vec![1.0, 1.0]);
        let got = Tensor4::<f64>::from_vec([1, 1, 1, 2], vec![1.0, 3.0]);
        let h = relative_error_histogram(&got, &want, 4, 0.1);
        assert_eq!(h[0], 50.0);
        assert_eq!(h[3], 50.0);
    }
}
