//! Adjointness identities across the forward / backward-data /
//! backward-filter triple — the property that makes gradient descent with
//! these kernels mathematically sound. The backward passes are the ones
//! training runs: `Engine::filter_grad` and `Engine::backward_data`.

use im2col_winograd::core::{conv2d, deconv2d, ConvOptions};
use im2col_winograd::engine::{Engine, Handle};
use im2col_winograd::tensor::{ConvShape, Tensor4};
use proptest::prelude::*;

fn dot(a: &Tensor4<f32>, b: &Tensor4<f32>) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn data_adjointness_winograd(
        hw in 8usize..16,
        c in 1usize..8,
        r in 2usize..8,
        seed in 0u64..1000,
    ) {
        let s = ConvShape::square(1, hw, c, c + 1, r);
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), seed + 2, -1.0, 1.0);
        let opts = ConvOptions::default();
        let lhs = dot(&conv2d(&x, &w, &s, &opts).unwrap(), &dy);
        let rhs = dot(&x, &deconv2d(&dy, &w, &s, &opts).unwrap());
        prop_assert!((lhs - rhs).abs() < 2e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn filter_adjointness(
        hw in 6usize..14,
        r in 2usize..6,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let s = ConvShape { sh: stride, sw: stride, ..ConvShape::square(2, hw, 3, 4, r) };
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), seed + 2, -1.0, 1.0);
        let y = im2col_winograd::baselines::direct_conv(&x, &w, &s);
        let dw = Engine::global().filter_grad(&x, &dy, &s).unwrap();
        let lhs = dot(&y, &dy);
        let rhs = dot(&w, &dw);
        prop_assert!((lhs - rhs).abs() < 2e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn strided_backward_data_adjointness(
        hw in 6usize..14,
        stride in 1usize..3,
        seed in 0u64..1000,
    ) {
        let s = ConvShape { sh: stride, sw: stride, ..ConvShape::square(1, hw, 2, 3, 3) };
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), seed + 2, -1.0, 1.0);
        let y = im2col_winograd::baselines::direct_conv(&x, &w, &s);
        let dx = Engine::global().backward_data(&Handle::default(), &dy, &w, &s).unwrap();
        let lhs = dot(&y, &dy);
        let rhs = dot(&x, &dx);
        prop_assert!((lhs - rhs).abs() < 2e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }
}

/// The fused-rotation deconvolution must equal the explicit
/// rotate-then-convolve composition.
#[test]
fn fused_rotation_equals_explicit_rotation() {
    for r in 2..=9usize {
        let s = ConvShape::square(1, 14, 3, 5, r);
        let dy = Tensor4::<f32>::random(s.y_dims(), 77 + r as u64, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 88 + r as u64, -1.0, 1.0);
        let fused = deconv2d(&dy, &w, &s, &ConvOptions::default()).unwrap();
        let wr = im2col_winograd::tensor::rotate_filter_180(&w);
        let bw = ConvShape::unit(s.n, s.oh(), s.ow(), s.oc, s.ic, r, r, r - 1 - s.ph, r - 1 - s.pw);
        let explicit = im2col_winograd::baselines::direct_conv(&dy, &wr, &bw);
        let e = im2col_winograd::tensor::max_mixed_error(&fused, &explicit);
        let tol = if r >= 8 { 1e-2 } else { 5e-4 };
        assert!(e < tol, "r = {r}: {e}");
    }
}
