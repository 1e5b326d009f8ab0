//! **Im2col-Winograd** — an efficient and flexible fused-Winograd
//! convolution for NHWC tensors (Rust reproduction of the ICPP '24 paper).
//!
//! The algorithm `Γα(n, r)` decomposes a 2-D convolution into `FH`
//! independent 1-D convolutions along the width axis, runs 1-D Winograd
//! `F(n, r)` on each, and accumulates the element-wise products *in the
//! Winograd (transformed) domain* across both the filter-height axis and the
//! input channels. One output transform per `n`-wide tile then produces the
//! final NHWC outputs:
//!
//! ```text
//! Y[·, oy, ox0..ox0+n, oc] = Aᵀ · Σ_{fh, ic} (G·W[oc, fh, ·, ic]) ⊙ (Dᵀ·X[·, oy+fh−ph, ·, ic])
//! ```
//!
//! Compared with 2-D Winograd `F(n×n, r×r)` this needs `α = n + r − 1`
//! states per tile instead of `α²`, restricts only the filter *width*, and
//! keeps every data access contiguous along the channel axis — which is why
//! it suits NHWC (§3, §4.2).
//!
//! # What this crate provides
//!
//! * [`conv2d`] — unit-stride 2-D convolution, filter widths 2–9 (any
//!   `r ≤ 15` in principle), arbitrary padding. Strided shapes return
//!   [`ConvError::NonUnitStride`]; `iwino-engine` is the dispatcher that
//!   routes them to another algorithm (§5.7);
//! * [`deconv2d`] — the backward-data pass, with the 180° filter rotation
//!   fused into the filter transform (§5.1);
//! * [`PreparedConv`] — the same fused path split into plan + filter
//!   transform once, then execute many times with an optional fused
//!   epilogue (bias / activation);
//! * [`conv1d()`] and [`conv3d`] — the same fused path at rank 1 (the
//!   `FH = 1` case) and rank 3 (§4.2: a depth axis in the row plan, Stage 2
//!   unchanged); every entry point returns [`ConvError`] on bad operands;
//! * [`plan`] — the §5.5 boundary treatment: `OW` is split into segments,
//!   each covered exactly by a kernel, fastest kernel first, and a GEMM
//!   against the plan-time packed filter for the remainder (Figure 7);
//! * [`kernel`] — the cache-blocked `Γα(n, r)` row kernel with the paper's
//!   `BN×BM×BK` blocking and the `ruse`/`c64` variants (§5.4, §5.6);
//! * [`filter`] — fused filter transforms (forward, and rotated for deconv).
//!
//! The crate is Γ-only. The training filter gradient is not a Winograd pass
//! (the paper does not Winograd it either); it is a GEMM through the
//! indirection table, `iwino_engine::Engine::filter_grad`.
//!
//! # CPU adaptation
//!
//! The paper's kernels run on CUDA; this crate reproduces the identical
//! block workflow on CPU threads (one parallel task per `N×OH` output row —
//! the same task decomposition the paper assigns to thread blocks, §5.1).
//! Shared-memory tile buffers become per-task scratch ([`kernel::Scratch`]),
//! and the filter tiles — which the GPU kernels re-transform per block into
//! SMEM because they stay resident in the texture cache — are transformed
//! once per call into a `FH×α×IC×OC` buffer (the CPU cache hierarchy plays
//! the role of SMEM; the *input* side stays fully fused with no workspace,
//! which is the component that scales with the feature maps). See DESIGN.md.

#![forbid(unsafe_code)]

pub mod conv;
pub mod conv1d;
pub mod error;
pub mod filter;
pub mod kernel;
pub mod nd;
pub mod plan;
pub mod precision;
pub mod workspace;

pub use conv::{auto_options, conv2d, deconv2d, ConvOptions, Epilogue, PreparedConv};
pub use conv1d::conv1d;
pub use error::ConvError;
pub use filter::TransformedFilter;
pub use kernel::{GammaKernel, Variant};
pub use nd::conv3d;
pub use plan::{
    default_kernel_prefs, winograd2d_loads_per_output, GammaSpec, KernelChoice, Segment, SegmentPlan, BK, LANE,
};
pub use precision::{conv2d_f64, error_decomposition, ErrorDecomposition};
pub use workspace::{workspace_bytes, workspace_ratio, AlgorithmClass};
