//! The registered [`ConvAlgorithm`] implementations.
//!
//! One adapter per algorithm family the paper benchmarks (§6.1.1): the
//! fused Im2col-Winograd kernels, indirect convolution (Dukhan's
//! indirection-buffer GEMM — the NHWC `Implicit_Precomp_GEMM` stand-in and
//! the arbitrary-stride path), direct convolution, fused 2-D Winograd
//! (`Fused_Winograd`, 3×3-only) and FFT. Every adapter produces a
//! [`ConvPlan`] owning whatever per-shape state is expensive to rebuild —
//! transformed-filter banks, reshaped weights, indirection tables — so the
//! engine's cache turns repeat calls into pure execution.

use crate::arena::WorkspacePool;
use crate::{ConvAlgorithm, ConvPlan};
use iwino_baselines as baselines;
use iwino_core::error::expect_dims;
use iwino_core::{AlgorithmClass, ConvError, ConvOptions, Epilogue, PreparedConv};
use iwino_tensor::{transpose_filter_to_hwio, ConvShape, Tensor4};
use std::sync::Arc;

/// Registry names, in registration order. `Engine::algorithms` mirrors this.
pub const BACKEND_NAMES: [&str; 5] = ["im2col-winograd", "direct", "winograd2d", "fft", "im2col-indirect"];

pub(crate) fn all_backends() -> Vec<Arc<dyn ConvAlgorithm>> {
    vec![
        Arc::new(WinogradBackend::auto()),
        Arc::new(DirectBackend),
        Arc::new(Winograd2dBackend),
        Arc::new(FftBackend),
        Arc::new(IndirectBackend),
    ]
}

fn unsupported(algorithm: &'static str, reason: impl Into<String>) -> ConvError {
    ConvError::Unsupported {
        algorithm,
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------- winograd

/// The paper's fused Γα(n, r) path, wrapped as a registry backend. By
/// default each shape gets `auto_options`; bench sweeps that force a
/// specific kernel construct [`WinogradBackend::with_options`] directly.
pub struct WinogradBackend {
    opts: Option<ConvOptions>,
}

impl WinogradBackend {
    pub fn auto() -> Self {
        WinogradBackend { opts: None }
    }

    /// Fixed options (forced kernels, α preferences) instead of per-shape
    /// auto-selection. Used by forced-kernel benchmark sweeps, which hold
    /// the returned plan themselves rather than going through the cache.
    pub fn with_options(opts: ConvOptions) -> Self {
        WinogradBackend { opts: Some(opts) }
    }

    fn options_for(&self, s: &ConvShape) -> ConvOptions {
        match &self.opts {
            Some(o) => o.clone(),
            None => iwino_core::auto_options(s),
        }
    }
}

struct WinogradPlan {
    prep: PreparedConv,
    /// The *forward* geometry the caller asked about (for deconv plans the
    /// executed geometry differs; see [`PreparedConv::deconv`]).
    shape: ConvShape,
}

impl ConvAlgorithm for WinogradBackend {
    fn name(&self) -> &'static str {
        "im2col-winograd"
    }

    fn supports(&self, s: &ConvShape) -> bool {
        // Unit stride (§4); planning covers filter widths 2..=15.
        s.is_unit_stride() && (2..=15).contains(&s.fw)
    }

    fn workspace_class(&self, s: &ConvShape) -> AlgorithmClass {
        let opts = self.options_for(s);
        let plan = opts.plan_for(s.ow(), s.fw, s.oc);
        let alpha = plan.gamma_specs().first().map_or(s.fw, |spec| spec.alpha);
        AlgorithmClass::ImcolWinogradFused { alpha }
    }

    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError> {
        if !self.supports(s) {
            return Err(unsupported(self.name(), format!("unsupported shape {s:?}")));
        }
        let opts = self.options_for(s);
        let prep = if deconv {
            PreparedConv::deconv(w, s, &opts)?
        } else {
            PreparedConv::forward(w, s, &opts)?
        };
        Ok(Arc::new(WinogradPlan { prep, shape: *s }))
    }
}

impl ConvPlan for WinogradPlan {
    fn algorithm(&self) -> &'static str {
        "im2col-winograd"
    }

    fn shape(&self) -> &ConvShape {
        &self.shape
    }

    fn resident_bytes(&self) -> usize {
        self.prep.filter_bank_bytes()
    }

    fn run(&self, x: &Tensor4<f32>, epilogue: &Epilogue, arena: &WorkspacePool) -> Result<Tensor4<f32>, ConvError> {
        // The fused Γ path itself draws nothing (the §4.2 zero-workspace
        // property); only a boundary GEMM segment, when the plan has one,
        // checks its patch and panel buffers out of the arena.
        self.prep.execute_scratch(x, epilogue, arena)
    }
}

// ------------------------------------------------------------------ direct

/// Schoolbook convolution: supports everything, fast at nothing. Its
/// backward-data plan runs only when `direct` is forced by name.
pub struct DirectBackend;

struct DirectPlan {
    w: Tensor4<f32>,
    shape: ConvShape,
    deconv: bool,
}

impl ConvAlgorithm for DirectBackend {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn supports(&self, _s: &ConvShape) -> bool {
        true
    }

    fn workspace_class(&self, _s: &ConvShape) -> AlgorithmClass {
        AlgorithmClass::Direct
    }

    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError> {
        expect_dims("filter", w.dims(), s.w_dims())?;
        Ok(Arc::new(DirectPlan {
            w: w.clone(),
            shape: *s,
            deconv,
        }))
    }
}

impl ConvPlan for DirectPlan {
    fn algorithm(&self) -> &'static str {
        "direct"
    }

    fn shape(&self) -> &ConvShape {
        &self.shape
    }

    fn resident_bytes(&self) -> usize {
        self.w.len() * 4
    }

    fn run(&self, x: &Tensor4<f32>, epilogue: &Epilogue, _arena: &WorkspacePool) -> Result<Tensor4<f32>, ConvError> {
        let s = &self.shape;
        if self.deconv {
            expect_dims("dy", x.dims(), s.y_dims())?;
            let mut dx = baselines::direct_backward_data(x, &self.w, s);
            epilogue.apply(dx.as_mut_slice(), s.ic);
            Ok(dx)
        } else {
            expect_dims("input", x.dims(), s.x_dims())?;
            let mut y = baselines::direct_conv(x, &self.w, s);
            epilogue.apply(y.as_mut_slice(), s.oc);
            Ok(y)
        }
    }
}

// -------------------------------------------------------------- winograd2d

/// Fused 2-D Winograd `F(2×2, 3×3)` — the `Fused_Winograd` stand-in, with
/// exactly the 3×3/unit-stride restriction the paper calls out in §6.1.1.
pub struct Winograd2dBackend;

struct Winograd2dPlan {
    w: Tensor4<f32>,
    shape: ConvShape,
}

impl ConvAlgorithm for Winograd2dBackend {
    fn name(&self) -> &'static str {
        "winograd2d"
    }

    fn supports(&self, s: &ConvShape) -> bool {
        s.is_unit_stride() && s.fh == 3 && s.fw == 3
    }

    fn workspace_class(&self, _s: &ConvShape) -> AlgorithmClass {
        AlgorithmClass::Winograd2dNonFused { alpha: 4, n: 2 }
    }

    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError> {
        if deconv {
            return Err(unsupported(
                self.name(),
                "no backward-data path; it runs through `im2col-indirect`",
            ));
        }
        if !self.supports(s) {
            return Err(unsupported(self.name(), "3×3 unit-stride only (§6.1.1)"));
        }
        expect_dims("filter", w.dims(), s.w_dims())?;
        Ok(Arc::new(Winograd2dPlan {
            w: w.clone(),
            shape: *s,
        }))
    }
}

impl ConvPlan for Winograd2dPlan {
    fn algorithm(&self) -> &'static str {
        "winograd2d"
    }

    fn shape(&self) -> &ConvShape {
        &self.shape
    }

    fn resident_bytes(&self) -> usize {
        self.w.len() * 4
    }

    fn run(&self, x: &Tensor4<f32>, epilogue: &Epilogue, _arena: &WorkspacePool) -> Result<Tensor4<f32>, ConvError> {
        let s = &self.shape;
        expect_dims("input", x.dims(), s.x_dims())?;
        let mut y = baselines::winograd2d_conv(x, &self.w, s, 2);
        epilogue.apply(y.as_mut_slice(), s.oc);
        Ok(y)
    }
}

// --------------------------------------------------------------------- fft

/// FFT convolution (unit stride). Included for algorithm-coverage parity;
/// its frequency-domain filter bank is rebuilt per run, which the
/// `AlgorithmClass::Fft` workspace accounting already charges it for.
pub struct FftBackend;

struct FftPlan {
    w: Tensor4<f32>,
    shape: ConvShape,
}

impl ConvAlgorithm for FftBackend {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn supports(&self, s: &ConvShape) -> bool {
        s.is_unit_stride()
    }

    fn workspace_class(&self, _s: &ConvShape) -> AlgorithmClass {
        AlgorithmClass::Fft
    }

    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError> {
        if deconv {
            return Err(unsupported(
                self.name(),
                "no backward-data path; it runs through `im2col-indirect`",
            ));
        }
        if !self.supports(s) {
            return Err(ConvError::NonUnitStride {
                algorithm: "fft",
                sh: s.sh,
                sw: s.sw,
            });
        }
        expect_dims("filter", w.dims(), s.w_dims())?;
        Ok(Arc::new(FftPlan {
            w: w.clone(),
            shape: *s,
        }))
    }
}

impl ConvPlan for FftPlan {
    fn algorithm(&self) -> &'static str {
        "fft"
    }

    fn shape(&self) -> &ConvShape {
        &self.shape
    }

    fn resident_bytes(&self) -> usize {
        self.w.len() * 4
    }

    fn run(&self, x: &Tensor4<f32>, epilogue: &Epilogue, _arena: &WorkspacePool) -> Result<Tensor4<f32>, ConvError> {
        let s = &self.shape;
        expect_dims("input", x.dims(), s.x_dims())?;
        let mut y = baselines::fft_conv(x, &self.w, s);
        epilogue.apply(y.as_mut_slice(), s.oc);
        Ok(y)
    }
}

// ---------------------------------------------------------------- indirect

/// Indirect convolution (Dukhan): a shape-keyed indirection table of row
/// offsets replaces im2col's materialised patch matrix, and one blocked
/// GEMM over the gathered A-panels covers the whole batch. The plan caches
/// the table next to the pre-packed HWIO filter — both shape-keyed, both
/// batch-relocatable — and arbitrary stride falls out of the table build,
/// making this the engine's one GEMM-class path: deep-K, strided and
/// large-filter shapes all run here. A backward-data plan holds the same
/// table next to the native `OC×FH·FW·IC` filter matrix and scatters
/// `dY·W` back through the table (col2im).
pub struct IndirectBackend;

struct IndirectPlan {
    table: iwino_indirect::IndirectTable,
    w_packed: iwino_gemm::PackedB,
    deconv: bool,
}

impl ConvAlgorithm for IndirectBackend {
    fn name(&self) -> &'static str {
        "im2col-indirect"
    }

    fn supports(&self, _s: &ConvShape) -> bool {
        true
    }

    fn workspace_class(&self, _s: &ConvShape) -> AlgorithmClass {
        // Like cuDNN's precomp GEMM, the per-shape state is an index
        // structure whose size is independent of IC and batch; the A-panel
        // scratch is the GEMM's own and already accounted there.
        AlgorithmClass::ImplicitPrecompGemm
    }

    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError> {
        expect_dims("filter", w.dims(), s.w_dims())?;
        let k = s.fh * s.fw * s.ic;
        let w_packed = if deconv {
            // Native OHWI already is the row-major `OC×K` matrix `dY·W` needs.
            iwino_gemm::PackedB::pack(s.oc, k, w.as_slice())
        } else {
            iwino_gemm::PackedB::pack(k, s.oc, transpose_filter_to_hwio(w).as_slice())
        };
        Ok(Arc::new(IndirectPlan {
            table: iwino_indirect::IndirectTable::build(s),
            w_packed,
            deconv,
        }))
    }
}

impl ConvPlan for IndirectPlan {
    fn algorithm(&self) -> &'static str {
        "im2col-indirect"
    }

    fn shape(&self) -> &ConvShape {
        self.table.shape()
    }

    fn resident_bytes(&self) -> usize {
        self.table.resident_bytes() + self.w_packed.resident_bytes()
    }

    fn run(&self, x: &Tensor4<f32>, epilogue: &Epilogue, arena: &WorkspacePool) -> Result<Tensor4<f32>, ConvError> {
        let s = self.table.shape();
        if self.deconv {
            expect_dims("dy", x.dims(), s.y_dims())?;
            let mut dx = iwino_indirect::indirect_backward_data_packed(x, &self.w_packed, &self.table, arena);
            epilogue.apply(dx.as_mut_slice(), s.ic);
            Ok(dx)
        } else {
            expect_dims("input", x.dims(), s.x_dims())?;
            let mut y = iwino_indirect::indirect_conv_nhwc_packed(x, &self.w_packed, &self.table, arena);
            epilogue.apply(y.as_mut_slice(), s.oc);
            Ok(y)
        }
    }
}
