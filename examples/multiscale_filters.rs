//! Multi-scale feature extraction — the paper's motivating use case for
//! flexible filter widths ("the more generalized acceleration offered by
//! Im2col-Winograd can be beneficial for extracting features at different
//! convolution scales", abstract).
//!
//! Runs the *same* feature map through r×r convolutions for every
//! r ∈ 2..=9, reports which Γα(n, r) kernel plan each width uses and its
//! throughput, and verifies every result against the FP64 reference.
//!
//! ```sh
//! cargo run --release --example multiscale_filters
//! ```

use im2col_winograd::baselines::direct_conv_f64_ref;
use im2col_winograd::core::plan::KernelChoice;
use im2col_winograd::core::{conv2d, default_kernel_prefs, ConvOptions, SegmentPlan};
use im2col_winograd::tensor::{ConvShape, ErrorStats, Tensor4};
use std::time::Instant;

fn main() {
    let (n, hw, c) = (4usize, 40usize, 64usize);
    println!("input: {n}x{hw}x{hw}x{c} NHWC; one r x r convolution per scale\n");
    println!(
        "{:<4} {:<44} {:>10} {:>12} {:>12}",
        "r", "width-axis plan", "Gflop/s", "mean err", "Φ = nr/α"
    );
    for r in 2..=9usize {
        let shape = ConvShape::square(n, hw, c, c, r);
        let x = Tensor4::<f32>::random(shape.x_dims(), 100 + r as u64, -1.0, 1.0);
        let w = Tensor4::<f32>::random(shape.w_dims(), 200 + r as u64, -1.0, 1.0);

        let opts = ConvOptions {
            prefer_alpha16: r >= 7,
            ..Default::default()
        };
        let prefs = default_kernel_prefs(r, r >= 7);
        let plan = SegmentPlan::build(shape.ow(), &prefs);
        let plan_str: Vec<String> = plan
            .segments
            .iter()
            .map(|s| match s.kernel {
                KernelChoice::Gamma(g) => format!("{}[{}..{}]", g, s.start, s.start + s.len),
                KernelChoice::Gemm => format!("GEMM[{}..{}]", s.start, s.start + s.len),
            })
            .collect();

        conv2d(&x, &w, &shape, &opts).unwrap(); // warm
        let reps = 3;
        let t0 = Instant::now();
        let mut y = None;
        for _ in 0..reps {
            y = Some(conv2d(&x, &w, &shape, &opts).unwrap());
        }
        let dt = t0.elapsed().as_secs_f64() / reps as f64;
        let y = y.unwrap();

        let truth = direct_conv_f64_ref(&x, &w, &shape);
        let err = ErrorStats::between(&y, &truth).mean;
        let phi = prefs.first().map(|p| p.phi()).unwrap_or(1.0);
        println!(
            "{:<4} {:<44} {:>10.1} {:>12.2e} {:>12.2}",
            r,
            plan_str.join(" + "),
            shape.flops() / dt / 1e9,
            err,
            phi
        );
    }
    println!("\nNote: 2-D fused Winograd at FP32 is restricted to 3x3 — every other");
    println!("row above is a width 2-D Winograd cannot cover with α ≤ 16 states (§4.2).");
}
