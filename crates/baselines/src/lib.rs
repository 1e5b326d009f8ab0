//! Baseline convolution algorithms the paper benchmarks against. None of
//! them is registered in the engine: they are test references and the
//! figure runner's comparator series, called directly.
//!
//! * [`direct`] — schoolbook convolution; the `f64`-accumulator variant is
//!   the ground truth of Experiment 2 ("The CPU convolution uses FP64
//!   accumulators, providing much higher accuracy", §6.2.1).
//! * [`gemm`] — the naive SGEMM reference the packed `iwino-gemm` kernel
//!   (and everything built on it) is tested against bitwise.
//! * [`im2col`] — im2col + GEMM convolution with precomputed gather indices
//!   in NCHW: the figure runner's NCHW `Implicit_Precomp_GEMM` stand-in.
//!   The NHWC stand-in is the engine's indirect GEMM (`iwino-indirect`).
//! * [`winograd2d`] — fused 2D Winograd `F(m×m, 3×3)`: the stand-in for
//!   cuDNN's `Fused_Winograd` (NCHW, 3×3-only — the restriction the paper
//!   calls out in §6.1.1).

#![forbid(unsafe_code)]

pub mod direct;
pub mod gemm;
pub mod im2col;
pub mod winograd2d;

pub use direct::{direct_backward_data, direct_conv, direct_conv_f64_ref};
pub use gemm::sgemm_naive;
pub use im2col::{im2col_conv_nchw, im2col_conv_nchw_scratch, Im2colPlan};
pub use winograd2d::winograd2d_conv;
