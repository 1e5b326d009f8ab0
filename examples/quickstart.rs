//! Quickstart: run an Im2col-Winograd convolution, check it against the
//! FP64 reference, and compare its speed with the indirect-GEMM baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use im2col_winograd::baselines::direct_conv_f64_ref;
use im2col_winograd::core::{conv2d, ConvError, ConvOptions};
use im2col_winograd::indirect::indirect_conv;
use im2col_winograd::tensor::{ConvShape, ErrorStats, Tensor4};
use std::time::Instant;

fn main() -> Result<(), ConvError> {
    // A Γ8(6,3)-friendly layer: 3×3 filter, padding 1, NHWC.
    // ofms: 8×48×48×128 with IC = 128.
    let shape = ConvShape::square(8, 48, 128, 128, 3);
    println!("convolution: {shape:?}");
    println!("standard-algorithm FLOPs: {:.2} Gflop", shape.flops() / 1e9);

    let x = Tensor4::<f32>::random(shape.x_dims(), 1, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 2, -1.0, 1.0);
    let opts = ConvOptions::default();

    // --- Im2col-Winograd (the paper's algorithm) ---
    let t0 = Instant::now();
    let y = conv2d(&x, &w, &shape, &opts)?;
    let warm = t0.elapsed();
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        conv2d(&x, &w, &shape, &opts)?;
    }
    let wino_dt = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "im2col-winograd: first call {warm:?}, steady {:.1} ms = {:.1} Gflop/s",
        wino_dt * 1e3,
        shape.flops() / wino_dt / 1e9
    );

    // --- indirect-GEMM baseline (the NHWC implicit-precomp GEMM) ---
    indirect_conv(&x, &w, &shape);
    let t0 = Instant::now();
    for _ in 0..reps {
        indirect_conv(&x, &w, &shape);
    }
    let gemm_dt = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "im2col-indirect: steady {:.1} ms = {:.1} Gflop/s",
        gemm_dt * 1e3,
        shape.flops() / gemm_dt / 1e9
    );
    println!("speedup: {:.2}x", gemm_dt / wino_dt);

    // --- accuracy vs the FP64 reference ---
    let truth = direct_conv_f64_ref(&x, &w, &shape);
    let stats = ErrorStats::between(&y, &truth);
    println!(
        "accuracy vs FP64 reference: mean rel err {:.2e}, max {:.2e}",
        stats.mean, stats.max
    );
    // Signed [-1,1) inputs put many outputs near zero, where *relative*
    // error is dominated by cancellation — Γ8 lands around 1e-5 mean here
    // (vs ~1e-7 on the positive [1,2) inputs Table 3 uses).
    assert!(stats.mean < 5e-5, "accuracy regression");
    println!("ok.");
    Ok(())
}
