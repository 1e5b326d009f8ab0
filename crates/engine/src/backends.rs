//! The registered [`ConvAlgorithm`] implementations: exactly the two
//! outcomes of the §5.7 selector. The fused Im2col-Winograd kernels run
//! unit-stride shapes; indirect convolution (Dukhan's indirection-buffer
//! GEMM — the NHWC `Implicit_Precomp_GEMM` stand-in and the
//! arbitrary-stride path) runs everything else. Each adapter produces a
//! [`ConvPlan`] owning whatever per-shape state is expensive to rebuild —
//! transformed-filter banks, packed weights, indirection tables — so the
//! engine's cache turns repeat calls into pure execution. The comparators
//! the figures plot (`iwino_baselines`) are called directly, not
//! dispatched.

use crate::arena::WorkspacePool;
use crate::{ConvAlgorithm, ConvPlan};
use iwino_core::error::expect_dims;
use iwino_core::{AlgorithmClass, ConvError, Epilogue, PreparedConv};
use iwino_tensor::{transpose_filter_to_hwio, ConvShape, Tensor4};
use std::sync::Arc;

/// Registry names, in registration order. `Engine::algorithms` mirrors this.
pub const BACKEND_NAMES: [&str; 2] = ["im2col-winograd", "im2col-indirect"];

pub(crate) fn all_backends() -> Vec<Arc<dyn ConvAlgorithm>> {
    vec![Arc::new(WinogradBackend), Arc::new(IndirectBackend)]
}

// ---------------------------------------------------------------- winograd

/// Shapes the fused path can run: unit stride (§4), and filter widths the
/// Γ planner covers (2..=15).
pub(crate) fn gamma_supports(s: &ConvShape) -> bool {
    s.is_unit_stride() && (2..=15).contains(&s.fw)
}

/// The paper's fused Γα(n, r) path, wrapped as a registry backend; each
/// shape gets [`iwino_core::auto_options`].
pub struct WinogradBackend;

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
        gamma_supports(s)
    }

    fn workspace_class(&self, s: &ConvShape) -> AlgorithmClass {
        let opts = iwino_core::auto_options(s);
        let plan = opts.plan_for(s.ow(), s.fw, s.oc);
        let alpha = plan.gamma_specs().first().map_or(s.fw, |spec| spec.alpha);
        AlgorithmClass::ImcolWinogradFused { alpha }
    }

    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError> {
        let opts = iwino_core::auto_options(s);
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
