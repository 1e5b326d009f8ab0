//! **im2col-winograd** — a Rust reproduction of *"Im2col-Winograd: An
//! Efficient and Flexible Fused-Winograd Convolution for NHWC Format on
//! GPUs"* (ICPP '24).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] — the paper's algorithm: unit-stride `Γα(n, r)`
//!   convolution, deconvolution, the boundary planner, and the §4.2 ND
//!   extension;
//! * [`engine`] — the one dispatch surface: algorithm registry, per-shape
//!   plan cache (transformed-filter banks built once), arena-backed
//!   workspace pool, and the §5.7 selection policy (Γ or the indirect GEMM);
//! * [`baselines`] — direct / NCHW im2col-GEMM / fused 2-D Winograd / FFT
//!   comparators;
//! * [`gemm`] — the packed, register-blocked SGEMM behind every GEMM-class
//!   path (Goto-style cache blocking, ISA-dispatched 6×16 register tile);
//! * [`indirect`] — the indirect-convolution backend: per-shape offset
//!   tables (stride/padding-aware, batch-relocatable) gathered straight
//!   into the packed SGEMM's A-panels — the engine's one GEMM-class path,
//!   for strided, deep-K and extra-wide-filter shapes, and the training
//!   filter gradient and non-Γ backward-data;
//! * [`transforms`] — exact Cook–Toom transform generation;
//! * [`tensor`] — NHWC tensors and shapes;
//! * [`gpu_sim`] — the RTX 3060 Ti / RTX 4090 cost model;
//! * [`nn`] — the CNN training framework of Experiment 3;
//! * [`serve`] — shape-bucketed batch serving: bounded admission, deadline
//!   expiry, and a coalescer that amortizes plan lookup across requests;
//! * [`simd`] — runtime-dispatched AVX2/NEON/scalar microkernels for the
//!   Γ hot path (all paths bit-for-bit identical);
//! * [`parallel`] / [`rational`] — infrastructure.
//!
//! # Convolution in five lines
//!
//! ```
//! use im2col_winograd::prelude::*;
//!
//! let shape = ConvShape::square(1, 12, 8, 8, 3); // batch, h=w, ic, oc, r
//! let x = Tensor4::<f32>::random(shape.x_dims(), 1, -1.0, 1.0);
//! let w = Tensor4::<f32>::random(shape.w_dims(), 2, -1.0, 1.0);
//! let y = conv2d(&x, &w, &shape, &ConvOptions::default()).unwrap();
//! assert_eq!(y.dims(), shape.y_dims());
//! ```
//!
//! # It really is Winograd
//!
//! The `F(2,3)` transforms match the classic minimal-filtering matrices:
//!
//! ```
//! use im2col_winograd::transforms::WinogradTransform;
//!
//! let t = WinogradTransform::generate(2, 3);
//! assert_eq!(t.alpha, 4);
//! // Four multiplications for two outputs of a 3-tap filter: Φ = 6/4.
//! assert_eq!(t.theoretical_speedup(), 1.5);
//! ```
//!
//! # And it agrees with the direct reference
//!
//! ```
//! use im2col_winograd::prelude::*;
//! use im2col_winograd::baselines::direct_conv_f64_ref;
//!
//! let shape = ConvShape::square(1, 10, 4, 4, 5);
//! let x = Tensor4::<f32>::random(shape.x_dims(), 3, 1.0, 2.0);
//! let w = Tensor4::<f32>::random(shape.w_dims(), 4, 1.0, 2.0);
//! let fast = conv2d(&x, &w, &shape, &ConvOptions::default()).unwrap();
//! let exact = direct_conv_f64_ref(&x, &w, &shape);
//! let err = ErrorStats::between(&fast, &exact);
//! assert!(err.mean < 1e-5); // Table 3 territory
//! ```

#![forbid(unsafe_code)]

pub use iwino_baselines as baselines;
pub use iwino_core as core;
pub use iwino_engine as engine;
pub use iwino_gemm as gemm;
pub use iwino_gpu_sim as gpu_sim;
pub use iwino_indirect as indirect;
pub use iwino_nn as nn;
pub use iwino_obs as obs;
pub use iwino_parallel as parallel;
pub use iwino_rational as rational;
pub use iwino_serve as serve;
pub use iwino_simd as simd;
pub use iwino_tensor as tensor;
pub use iwino_transforms as transforms;

/// The handful of names almost every user needs.
pub mod prelude {
    pub use iwino_core::{auto_options, conv1d, conv2d, conv3d, deconv2d, ConvError, ConvOptions, GammaSpec, Variant};
    pub use iwino_indirect::filter_grad;
    pub use iwino_tensor::{Conv3dShape, ConvShape, ErrorStats, Tensor4, Tensor5};
}
