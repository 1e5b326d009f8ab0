//! Cross-crate correctness: every convolution algorithm in the workspace
//! must agree with the FP64 direct reference on the same inputs.

use im2col_winograd::baselines::{direct_conv_f64_ref, winograd2d_conv};
use im2col_winograd::core::{conv2d, ConvOptions, GammaSpec, Variant};
use im2col_winograd::indirect::indirect_conv;
use im2col_winograd::tensor::{max_mixed_error, ConvShape, Tensor4};
use proptest::prelude::*;

fn agree(shape: &ConvShape, opts: &ConvOptions, seed: u64, tol: f64) {
    let x = Tensor4::<f32>::random(shape.x_dims(), seed, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), seed + 1, -1.0, 1.0);
    let truth = direct_conv_f64_ref(&x, &w, shape);

    let wino = conv2d(&x, &w, shape, opts).unwrap();
    let e = max_mixed_error(&wino, &truth);
    assert!(e < tol, "winograd {shape:?}: {e}");

    let gemm = indirect_conv(&x, &w, shape);
    let e = max_mixed_error(&gemm, &truth);
    assert!(e < 1e-4, "gemm {shape:?}: {e}");
}

#[test]
fn every_figure8_kernel_runs_correctly_scaled_down() {
    // One small-but-faithful shape per Figure 8 panel, every variant.
    for (alpha, n, r, variants) in [
        (8usize, 4usize, 5usize, vec![Variant::Standard, Variant::Ruse]),
        (8, 5, 4, vec![Variant::Standard]),
        (8, 3, 6, vec![Variant::Standard, Variant::Ruse]),
        (8, 6, 3, vec![Variant::Standard]),
        (8, 2, 7, vec![Variant::Standard, Variant::Ruse]),
        (8, 7, 2, vec![Variant::Standard]),
        (16, 10, 7, vec![Variant::Standard, Variant::C64]),
        (16, 9, 8, vec![Variant::Standard, Variant::Ruse, Variant::C64]),
        (16, 8, 9, vec![Variant::Standard, Variant::Ruse, Variant::C64]),
    ] {
        for variant in variants {
            let spec = GammaSpec::new(alpha, n, r, variant);
            let opts = ConvOptions {
                force_kernels: Some(vec![spec]),
                ..Default::default()
            };
            // OW = 2n + 1 forces Γ + fallback + GEMM boundary segments.
            let hw = 2 * n + 1;
            let shape = ConvShape::unit(2, hw, hw, 8, 8, r, r, r / 2, r / 2);
            let tol = if alpha == 16 { 2e-2 } else { 3e-4 };
            agree(&shape, &opts, 7_000 + (alpha * 100 + n * 10 + r) as u64, tol);
        }
    }
}

#[test]
fn fused_2d_winograd_agrees_on_3x3() {
    let shape = ConvShape::square(2, 13, 8, 8, 3);
    let x = Tensor4::<f32>::random(shape.x_dims(), 1, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 2, -1.0, 1.0);
    let truth = direct_conv_f64_ref(&x, &w, &shape);
    for m in [2usize, 4] {
        let y = winograd2d_conv(&x, &w, &shape, m);
        let e = max_mixed_error(&y, &truth);
        assert!(e < 1e-3, "F({m}x{m},3x3): {e}");
    }
}

#[test]
fn winograd_vs_gemm_bitwise_class_agreement() {
    // Different algorithms, same math: results agree to f32 accumulation
    // noise even on a shape with all three boundary segment kinds.
    let shape = ConvShape::square(1, 23, 16, 24, 3);
    let x = Tensor4::<f32>::random(shape.x_dims(), 50, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 51, -1.0, 1.0);
    let a = conv2d(&x, &w, &shape, &ConvOptions::default()).unwrap();
    let b = indirect_conv(&x, &w, &shape);
    assert!(max_mixed_error(&a, &b) < 2e-4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn random_shapes_agree(
        n in 1usize..3,
        hw in 6usize..20,
        ic in 1usize..12,
        oc in 1usize..12,
        r in 2usize..8,
        pad_kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        prop_assume!(hw + 2 * (r / 2) >= r);
        let pw = match pad_kind {
            0 => 0,
            1 => r / 2,
            _ => (r - 1).min(3),
        };
        prop_assume!(hw + 2 * pw >= r);
        let shape = ConvShape::unit(n, hw, hw, ic, oc, r, r, pw, pw);
        agree(&shape, &ConvOptions::default(), seed, 5e-4);
    }

    #[test]
    fn random_non_square_filters(
        fh in 2usize..9,
        fw in 2usize..8,
        hw in 10usize..18,
        seed in 0u64..10_000,
    ) {
        let shape = ConvShape::unit(1, hw, hw, 4, 4, fh, fw, fh / 2, fw / 2);
        agree(&shape, &ConvOptions::default(), seed, 5e-4);
    }
}
