//! 1-D convolution — the `Γα(n, r)` algorithm in its native habitat.
//!
//! A 1-D convolution is the `FH = 1` special case of the 2-D path, so this
//! module is a thin, allocation-free-as-possible wrapper that exposes the
//! natural signal-processing API (`[batch, width, channels]`).

use crate::conv::{conv2d, ConvOptions};
use crate::error::ConvError;
use iwino_tensor::{ConvShape, Tensor4};

/// Unit-stride 1-D convolution.
///
/// * `x`: input, `N×W×C` packed as a `Tensor4` of shape `[n, 1, w, c]`;
/// * `w`: filters, `OC×R×IC` packed as `[oc, 1, r, ic]`;
/// * `pad`: zero padding on both ends of the width axis.
///
/// Operands of any other shape return [`ConvError::ShapeMismatch`].
pub fn conv1d(x: &Tensor4<f32>, w: &Tensor4<f32>, pad: usize, opts: &ConvOptions) -> Result<Tensor4<f32>, ConvError> {
    let [n, _, iw, ic] = x.dims();
    let [oc, _, r, _] = w.dims();
    // The FH = 1 geometry these dims imply; conv2d rejects any operand
    // that does not match it (a height other than 1, a channel mismatch).
    let shape = ConvShape::unit(n, 1, iw, ic, oc, 1, r, 0, pad);
    conv2d(x, w, &shape, opts)
}

/// Helper: pack a flat `N×W×C` buffer into the `Tensor4` the 1-D API uses.
pub fn pack_1d(n: usize, w: usize, c: usize, data: Vec<f32>) -> Tensor4<f32> {
    Tensor4::from_vec([n, 1, w, c], data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_baselines::direct_conv;
    use iwino_tensor::max_mixed_error;

    #[test]
    fn matches_direct_correlation() {
        // Single channel: plain sliding dot product.
        let x = pack_1d(1, 8, 1, (1..=8).map(|v| v as f32).collect());
        let w = Tensor4::from_vec([1, 1, 3, 1], vec![1.0, 10.0, 100.0]);
        let y = conv1d(&x, &w, 0, &ConvOptions::default()).unwrap();
        assert_eq!(y.dims(), [1, 1, 6, 1]);
        // y_i = x_i + 10 x_{i+1} + 100 x_{i+2} (to f32 Winograd rounding).
        assert!((y.at(0, 0, 0, 0) - (1.0 + 20.0 + 300.0)).abs() < 1e-3);
        assert!((y.at(0, 0, 5, 0) - (6.0 + 70.0 + 800.0)).abs() < 1e-3);
    }

    #[test]
    fn multi_channel_against_direct() {
        for r in 2..=9usize {
            let (n, iw, ic, oc) = (2usize, 30usize, 6usize, 5usize);
            let x = Tensor4::<f32>::random([n, 1, iw, ic], 60 + r as u64, -1.0, 1.0);
            let w = Tensor4::<f32>::random([oc, 1, r, ic], 70 + r as u64, -1.0, 1.0);
            let pad = r / 2;
            let got = conv1d(&x, &w, pad, &ConvOptions::default()).unwrap();
            let shape = ConvShape::unit(n, 1, iw, ic, oc, 1, r, 0, pad);
            let want = direct_conv(&x, &w, &shape);
            let e = max_mixed_error(&got, &want);
            let tol = if r >= 8 { 1e-2 } else { 5e-4 };
            assert!(e < tol, "r = {r}: {e}");
        }
    }

    #[test]
    fn padding_grows_output() {
        let x = Tensor4::<f32>::random([1, 1, 10, 2], 80, -1.0, 1.0);
        let w = Tensor4::<f32>::random([3, 1, 3, 2], 81, -1.0, 1.0);
        assert_eq!(conv1d(&x, &w, 0, &ConvOptions::default()).unwrap().dims(), [1, 1, 8, 3]);
        assert_eq!(
            conv1d(&x, &w, 1, &ConvOptions::default()).unwrap().dims(),
            [1, 1, 10, 3]
        );
        assert_eq!(
            conv1d(&x, &w, 2, &ConvOptions::default()).unwrap().dims(),
            [1, 1, 12, 3]
        );
    }

    #[test]
    fn operands_that_are_not_1d_are_errors() {
        let x = Tensor4::<f32>::zeros([1, 2, 10, 2]);
        let w = Tensor4::<f32>::zeros([3, 1, 3, 2]);
        let e = conv1d(&x, &w, 0, &ConvOptions::default()).unwrap_err();
        assert!(matches!(e, ConvError::ShapeMismatch { what: "input", .. }), "{e}");
        let x = Tensor4::<f32>::zeros([1, 1, 10, 2]);
        let w = Tensor4::<f32>::zeros([3, 1, 3, 4]);
        let e = conv1d(&x, &w, 0, &ConvOptions::default()).unwrap_err();
        assert!(matches!(e, ConvError::ShapeMismatch { what: "filter", .. }), "{e}");
    }
}
