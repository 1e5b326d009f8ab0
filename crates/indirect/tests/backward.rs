//! The training backward passes through the indirection table.
//!
//! * `filter_grad` is pinned **bitwise** against `sgemm_naive` over the
//!   transposed materialised patch matrix (`dWᵀ = im2colᵀ·dY`): the
//!   transposed-gather GEMM reduces every element over output pixels in
//!   ascending order with one rounded multiply and add per term, which is
//!   also the order the per-tap outer-product loop it replaced used.
//! * Finite differences, the adjoint identity (unit and strided) and the
//!   zero-`dy` case hold as they did for that loop, and non-finite
//!   activations propagate IEEE-style instead of vanishing.
//! * Backward-data (GEMM + col2im) satisfies the adjoint identity and
//!   agrees with the schoolbook `direct_backward_data`.
//!
//! check.sh runs this net on both dispatch lanes (native and
//! `IWINO_FORCE_SCALAR=1`).

mod common;

use iwino_baselines::{direct_backward_data, direct_conv, sgemm_naive};
use iwino_gemm::{AllocScratch, PackedB};
use iwino_indirect::{filter_grad, indirect_backward_data_packed, indirect_conv, IndirectTable};
use iwino_tensor::{max_mixed_error, ConvShape, Tensor4};
use proptest::prelude::*;

fn dot(a: &Tensor4<f32>, b: &Tensor4<f32>) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

/// `dW` from the materialised patch matrix: `im2colᵀ · dY` with
/// `sgemm_naive`, transposed from `K×OC` into the native `OC×K`.
fn patch_reference(x: &Tensor4<f32>, dy: &Tensor4<f32>, s: &ConvShape) -> Vec<f32> {
    let (rows, k) = (s.n * s.oh() * s.ow(), s.fh * s.fw * s.ic);
    let patch = common::im2col_patch(x, s);
    let mut patch_t = vec![0.0f32; k * rows];
    for (i, row) in patch.chunks_exact(k).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            patch_t[j * rows + i] = v;
        }
    }
    let mut ct = vec![0.0f32; k * s.oc];
    sgemm_naive(k, s.oc, rows, &patch_t, dy.as_slice(), &mut ct);
    (0..s.oc * k).map(|i| ct[(i % k) * s.oc + i / k]).collect()
}

fn assert_bitwise(s: &ConvShape, seed: u64) {
    let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
    let dy = Tensor4::<f32>::random(s.y_dims(), seed + 1, -1.0, 1.0);
    let got = filter_grad(&x, &dy, s);
    assert_eq!(got.dims(), s.w_dims());
    for (i, (a, b)) in got.as_slice().iter().zip(patch_reference(&x, &dy, s)).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{s:?} idx {i}: {a:?} vs patch {b:?}");
    }
}

/// Backward-data through the table, against the native filter.
fn indirect_backward_data(dy: &Tensor4<f32>, w: &Tensor4<f32>, s: &ConvShape) -> Tensor4<f32> {
    let pb = PackedB::pack(s.oc, s.fh * s.fw * s.ic, w.as_slice());
    indirect_backward_data_packed(dy, &pb, &IndirectTable::build(s), &AllocScratch)
}

fn strided(stride: usize, s: ConvShape) -> ConvShape {
    ConvShape {
        sh: stride,
        sw: stride,
        ..s
    }
}

#[test]
fn filter_grad_bitwise_matches_patch_reference_on_resnet_shapes() {
    // The ResNet18 width-16 layer kinds at reduced spatial size: the 3-channel
    // stem, IC = 16 (panels straddle taps since MR = 6 does not divide it),
    // 3×3 stride 2 and the 1×1 stride-2 shortcut, and IC past KC.
    for s in [
        ConvShape::square(2, 10, 3, 16, 3),
        ConvShape::square(2, 8, 16, 16, 3),
        strided(2, ConvShape::square(2, 8, 16, 32, 3)),
        strided(
            2,
            ConvShape {
                ph: 0,
                pw: 0,
                ..ConvShape::square(2, 8, 16, 32, 1)
            },
        ),
        ConvShape::square(1, 5, 64, 64, 3),
    ] {
        assert_bitwise(&s, 300);
    }
}

/// Finite-difference check: perturb one weight, the loss `Σ y²/2`
/// changes by `dW · ε` to first order.
#[test]
fn matches_finite_differences() {
    let s = ConvShape::square(1, 6, 2, 3, 3);
    let x = Tensor4::<f32>::random(s.x_dims(), 200, -1.0, 1.0);
    let mut w = Tensor4::<f32>::random(s.w_dims(), 201, -0.5, 0.5);
    // dL/dy = y for L = Σ y²/2 ⟹ dW = filter_grad(x, y).
    let y = direct_conv(&x, &w, &s);
    let dw = filter_grad(&x, &y, &s);
    let eps = 1e-3f32;
    for probe in [(0usize, 0usize, 0usize, 0usize), (2, 1, 2, 1), (1, 2, 0, 1)] {
        let (o, fh, fw, i) = probe;
        let orig = w.at(o, fh, fw, i);
        *w.at_mut(o, fh, fw, i) = orig + eps;
        let yp = direct_conv(&x, &w, &s);
        *w.at_mut(o, fh, fw, i) = orig - eps;
        let ym = direct_conv(&x, &w, &s);
        *w.at_mut(o, fh, fw, i) = orig;
        let lp: f64 = yp.as_slice().iter().map(|&v| (v as f64).powi(2) / 2.0).sum();
        let lm: f64 = ym.as_slice().iter().map(|&v| (v as f64).powi(2) / 2.0).sum();
        let fd = (lp - lm) / (2.0 * eps as f64);
        let an = dw.at(o, fh, fw, i) as f64;
        assert!(
            (fd - an).abs() < 1e-2 * an.abs().max(1.0),
            "probe {probe:?}: fd {fd} vs analytic {an}"
        );
    }
}

/// Adjointness in the filter argument:
/// ⟨conv(x, W), dy⟩ = ⟨W, filter_grad(x, dy)⟩.
#[test]
fn filter_adjointness() {
    let s = ConvShape::square(2, 7, 3, 4, 5);
    let x = Tensor4::<f32>::random(s.x_dims(), 210, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 211, -1.0, 1.0);
    let dy = Tensor4::<f32>::random(s.y_dims(), 212, -1.0, 1.0);
    let y = direct_conv(&x, &w, &s);
    let dw = filter_grad(&x, &dy, &s);
    let (lhs, rhs) = (dot(&y, &dy), dot(&w, &dw));
    assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
}

#[test]
fn strided_filter_grad_adjointness() {
    let s = strided(2, ConvShape::square(1, 8, 2, 3, 3));
    let x = Tensor4::<f32>::random(s.x_dims(), 220, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 221, -1.0, 1.0);
    let dy = Tensor4::<f32>::random(s.y_dims(), 222, -1.0, 1.0);
    let y = direct_conv(&x, &w, &s);
    let dw = filter_grad(&x, &dy, &s);
    let (lhs, rhs) = (dot(&y, &dy), dot(&w, &dw));
    assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
}

#[test]
fn zero_dy_gives_zero_grad() {
    let s = ConvShape::square(1, 5, 2, 2, 3);
    let x = Tensor4::<f32>::random(s.x_dims(), 230, -1.0, 1.0);
    let dy = Tensor4::<f32>::zeros(s.y_dims());
    let dw = filter_grad(&x, &dy, &s);
    assert!(dw.as_slice().iter().all(|&v| v == 0.0));
}

/// `0·∞` is NaN: an infinite activation under a zero gradient must reach
/// `dW` — the loop this replaced skipped zero gradients and dropped it —
/// just as the forward GEMM turns it into a NaN output under a zero filter.
#[test]
fn infinite_activation_under_zero_gradient_gives_nan() {
    let s = ConvShape::square(1, 5, 2, 3, 3);
    let mut x = Tensor4::<f32>::random(s.x_dims(), 240, -1.0, 1.0);
    *x.at_mut(0, 2, 2, 1) = f32::INFINITY;
    let dw = filter_grad(&x, &Tensor4::<f32>::zeros(s.y_dims()), &s);
    // Input pixel (2, 2) is read by every tap of the 3×3, pad-1 filter, on
    // channel 1 only.
    for o in 0..s.oc {
        for fh in 0..3 {
            for fw in 0..3 {
                assert!(
                    dw.at(o, fh, fw, 1).is_nan(),
                    "dW[{o},{fh},{fw},1] = {}",
                    dw.at(o, fh, fw, 1)
                );
                assert_eq!(dw.at(o, fh, fw, 0), 0.0);
            }
        }
    }
    let y = indirect_conv(&x, &Tensor4::<f32>::zeros(s.w_dims()), &s);
    assert!(
        y.as_slice().iter().any(|v| v.is_nan()),
        "forward GEMM propagates 0·∞ too"
    );
}

#[test]
fn backward_data_matches_direct_and_is_adjoint() {
    for s in [
        ConvShape::square(2, 9, 5, 7, 3),
        strided(2, ConvShape::square(2, 11, 16, 8, 3)),
        strided(
            2,
            ConvShape {
                ph: 0,
                pw: 0,
                ..ConvShape::square(1, 8, 7, 16, 1)
            },
        ),
        strided(3, ConvShape::square(1, 13, 3, 4, 5)),
    ] {
        let x = Tensor4::<f32>::random(s.x_dims(), 250, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 251, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), 252, -1.0, 1.0);
        let dx = indirect_backward_data(&dy, &w, &s);
        assert_eq!(dx.dims(), s.x_dims());
        let e = max_mixed_error(&dx, &direct_backward_data(&dy, &w, &s));
        assert!(e < 1e-4, "{s:?}: {e}");
        let (lhs, rhs) = (dot(&direct_conv(&x, &w, &s), &dy), dot(&x, &dx));
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{s:?}: {lhs} vs {rhs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn filter_grad_bitwise_matches_patch_reference_over_geometry(
        n in 1usize..3,
        ih in 4usize..12,
        iw in 4usize..12,
        ici in 0usize..4,
        oci in 0usize..3,
        ri in 0usize..3,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..500,
    ) {
        let ic = [1usize, 3, 16, 29][ici];
        let oc = [1usize, 5, 17][oci];
        let r = [1usize, 3, 5][ri];
        let s = ConvShape { n, ih, iw, ic, oc, fh: r, fw: r, ph: pad, pw: pad, sh: stride, sw: stride };
        prop_assume!(ih + 2 * pad >= r && iw + 2 * pad >= r);
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), seed + 1, -1.0, 1.0);
        let got = filter_grad(&x, &dy, &s);
        for (i, (a, b)) in got.as_slice().iter().zip(patch_reference(&x, &dy, &s)).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?} idx {}: {:?} vs patch {:?}", s, i, a, b);
        }
    }
}
