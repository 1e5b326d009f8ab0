//! Deconvolution (backward-data) with the fused 180°-rotation filter
//! transform — the path CNN training uses to propagate gradients through
//! convolution layers (§5.1).
//!
//! Demonstrates: (1) the adjoint identity that makes training correct,
//! (2) deconvolution speed vs forward convolution ("The backward kernels
//! have similar performance to the forward kernels"), and (3) a visual
//! gradient-routing check on a delta image.
//!
//! ```sh
//! cargo run --release --example deconv_upsampling
//! ```

use im2col_winograd::core::{conv2d, deconv2d, ConvError, ConvOptions};
use im2col_winograd::tensor::{ConvShape, Tensor4};
use std::time::Instant;

fn main() -> Result<(), ConvError> {
    let opts = ConvOptions::default();
    let shape = ConvShape::square(4, 32, 64, 64, 5);
    println!("layer: {shape:?} (Γ8(4,5) territory)\n");
    let x = Tensor4::<f32>::random(shape.x_dims(), 1, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 2, -1.0, 1.0);
    let dy = Tensor4::<f32>::random(shape.y_dims(), 3, -1.0, 1.0);

    // (1) adjointness: ⟨conv(x), dy⟩ == ⟨x, deconv(dy)⟩.
    let y = conv2d(&x, &w, &shape, &opts)?;
    let dx = deconv2d(&dy, &w, &shape, &opts)?;
    let lhs: f64 = y
        .as_slice()
        .iter()
        .zip(dy.as_slice())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum();
    let rhs: f64 = x
        .as_slice()
        .iter()
        .zip(dx.as_slice())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum();
    println!("adjoint identity: <conv(x), dy> = {lhs:.4} vs <x, deconv(dy)> = {rhs:.4}");
    assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));

    // (2) forward vs backward throughput.
    let reps = 5;
    let t0 = Instant::now();
    for _ in 0..reps {
        conv2d(&x, &w, &shape, &opts)?;
    }
    let fwd = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        deconv2d(&dy, &w, &shape, &opts)?;
    }
    let bwd = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "forward {:.1} Gflop/s, backward-data {:.1} Gflop/s (ratio {:.2})",
        shape.flops() / fwd / 1e9,
        shape.flops() / bwd / 1e9,
        fwd / bwd
    );

    // (3) gradient routing: a single delta in dy spreads over exactly the
    // filter's footprint in dx.
    let small = ConvShape::square(1, 9, 1, 1, 3);
    let mut delta = Tensor4::<f32>::zeros(small.y_dims());
    *delta.at_mut(0, 4, 4, 0) = 1.0;
    let w1 = Tensor4::<f32>::random(small.w_dims(), 9, 0.5, 1.0);
    let spread = deconv2d(&delta, &w1, &small, &opts)?;
    println!("\ndelta-gradient footprint (3x3 filter, delta at centre):");
    for iy in 0..9 {
        let row: String = (0..9)
            .map(|ix| {
                if spread.at(0, iy, ix, 0).abs() > 1e-9 {
                    " *"
                } else {
                    " ."
                }
            })
            .collect();
        println!("  {row}");
    }
    let nonzero = spread.as_slice().iter().filter(|v| v.abs() > 1e-9).count();
    assert_eq!(nonzero, 9, "3x3 footprint expected");
    println!("\nok: gradient lands on exactly the 3x3 input footprint.");
    Ok(())
}
