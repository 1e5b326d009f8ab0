//! End-to-end checks of the paper's headline experimental claims, at
//! CI-friendly scale. EXPERIMENTS.md records the full-size counterparts.

use im2col_winograd::baselines::direct_conv_f64_ref;
use im2col_winograd::core::{conv2d, ConvOptions, GammaSpec, Variant};
use im2col_winograd::gpu_sim::model::{Algorithm, Layout};
use im2col_winograd::gpu_sim::DeviceSpec;
use im2col_winograd::indirect::indirect_conv;
use im2col_winograd::tensor::{ConvShape, ErrorStats, Tensor4};

/// Table 3's error ordering: Γ8 ≈ 1e-7, Γ16 ≈ 1e-5, both beating the f32
/// GEMM, on the paper's uniform-[1,2) inputs.
#[test]
fn accuracy_orders_match_table3() {
    let check = |alpha: usize, n: usize, r: usize, bound: f64| {
        let spec = GammaSpec::new(alpha, n, r, Variant::Standard);
        let hw = 2 * n; // OW multiple of n: no boundary treatment (§6.2.1)
        let shape = ConvShape::square(2, hw, 32, 32, r);
        let x = Tensor4::<f32>::random(shape.x_dims(), 1, 1.0, 2.0);
        let w = Tensor4::<f32>::random(shape.w_dims(), 2, 1.0, 2.0);
        let truth = direct_conv_f64_ref(&x, &w, &shape);
        let opts = ConvOptions {
            force_kernels: Some(vec![spec]),
            ..Default::default()
        };
        let gamma_err = ErrorStats::between(&conv2d(&x, &w, &shape, &opts).unwrap(), &truth).mean;
        let gemm_err = ErrorStats::between(&indirect_conv(&x, &w, &shape), &truth).mean;
        assert!(gamma_err < bound, "Γ{alpha}({n},{r}) err {gamma_err}");
        // The paper's cuDNN GEMM carries 1e-5-class errors, so every Γ beats
        // it; our own indirect GEMM accumulates more tightly (~1e-7), so the
        // "beats GEMM" relation only holds for the Γ8 kernels here (see
        // EXPERIMENTS.md, Experiment 2 divergence note).
        if alpha == 8 {
            assert!(
                gamma_err < gemm_err,
                "Γ{alpha}({n},{r}): {gamma_err} !< gemm {gemm_err}"
            );
        }
        gamma_err
    };
    let g8 = check(8, 6, 3, 5e-6);
    let g16 = check(16, 8, 9, 1e-4);
    // "Γ16(n,r) has a lower accuracy compared to Γ8(n,r)" (§6.2.2).
    assert!(g16 > g8, "expected Γ16 ({g16}) less accurate than Γ8 ({g8})");
}

/// Table 2's qualitative content on the simulated devices: the Γ kernels
/// beat the NHWC GEMM on the bulk of shapes, and Γ16 posts the biggest
/// speedups.
#[test]
fn simulated_speedups_match_table2_shape() {
    let dev = DeviceSpec::rtx3060ti();
    let speedup = |alpha: usize, n: usize, r: usize, ofms: (usize, usize, usize, usize)| {
        let (b, oh, ow, oc) = ofms;
        let shape = ConvShape::from_ofms(b, oh, ow, oc, oc, r);
        let spec = GammaSpec::new(alpha, n, r, Variant::Standard);
        let g = im2col_winograd::gpu_sim::estimate(
            &dev,
            &shape,
            &Algorithm::Gamma {
                spec,
                include_transpose: true,
            },
        );
        let base = im2col_winograd::gpu_sim::estimate(&dev, &shape, &Algorithm::ImplicitGemm { layout: Layout::Nhwc });
        g.gflops / base.gflops
    };
    // Γ8(6,3) on a mid-size Figure 8 shape: paper reports 0.960–1.358×.
    let s63 = speedup(8, 6, 3, (128, 48, 48, 128));
    assert!(s63 > 0.9 && s63 < 3.0, "Γ8(6,3) speedup {s63}");
    // Γ16(9,8): the paper's best range, 1.445–2.233×. Must beat Γ8's.
    let s98 = speedup(16, 9, 8, (128, 36, 36, 64));
    assert!(s98 > s63, "Γ16(9,8) {s98} should beat Γ8(6,3) {s63}");
    // Γ8(7,2): the paper's weakest (0.788–1.034×) — allowed to lose.
    let s72 = speedup(8, 7, 2, (128, 56, 56, 128));
    assert!(s72 < s98, "Γ8(7,2) {s72} should be the weak one vs {s98}");
}

/// §6.1.2 symmetry: Γ8(n,r) and Γ8(r,n) have the same theoretical
/// acceleration; the memory-access-driven ordering puts Γ8(6,3) between the
/// ruse'd Γ8(3,6) and the plain Γ8(3,6).
#[test]
fn phi_symmetry_and_variant_ordering() {
    let phi = |n: usize, r: usize| GammaSpec::new(n + r - 1, n, r, Variant::Standard).phi();
    assert_eq!(phi(6, 3), phi(3, 6));
    assert_eq!(phi(4, 5), phi(5, 4));
    assert_eq!(phi(2, 7), phi(7, 2));
    use im2col_winograd::gpu_sim::model::arithmetic_intensity;
    // Γ8^ruse(3,6) loads less than Γ8(3,6): higher intensity.
    assert!(arithmetic_intensity(8, 6, 64, 32, true) > arithmetic_intensity(8, 6, 64, 32, false));
}

/// The CPU implementation's own headline: Winograd beats the GEMM baseline
/// on a representative Γ8(6,3) layer (measured, release-or-debug agnostic —
/// asserted loosely).
#[test]
fn cpu_winograd_not_slower_than_gemm_class() {
    let shape = ConvShape::square(2, 24, 32, 32, 3);
    let x = Tensor4::<f32>::random(shape.x_dims(), 3, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 4, -1.0, 1.0);
    use std::time::{Duration, Instant};
    let opts = ConvOptions::default();
    conv2d(&x, &w, &shape, &opts).unwrap();
    indirect_conv(&x, &w, &shape);
    // Interleaved reps, best of each: the other tests in this binary share
    // the thread pool, and back-to-back blocks would charge their load to
    // whichever algorithm happened to run first.
    let (mut wino, mut gemm) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        let t0 = Instant::now();
        conv2d(&x, &w, &shape, &opts).unwrap();
        wino = wino.min(t0.elapsed());
        let t0 = Instant::now();
        indirect_conv(&x, &w, &shape);
        gemm = gemm.min(t0.elapsed());
    }
    // Loose: don't fail CI on noise; winograd should be within 2x either way
    // and usually faster (the repro harness measures this properly).
    assert!(wino < gemm * 2, "winograd {wino:?} vs gemm {gemm:?}");
}

/// The boundary planner's promise: the GEMM remainder never exceeds the
/// smallest tile, so Winograd coverage approaches 1 for realistic widths.
#[test]
fn winograd_coverage_is_high_for_cnn_widths() {
    use im2col_winograd::core::{default_kernel_prefs, SegmentPlan};
    for r in 2..=9usize {
        let prefs = default_kernel_prefs(r, r >= 7);
        for ow in [7usize, 14, 28, 56, 112, 224] {
            let plan = SegmentPlan::build(ow, &prefs);
            let cov = plan.winograd_coverage();
            assert!(cov >= 0.5 || ow < 8, "r={r} ow={ow}: coverage {cov}");
        }
    }
}
