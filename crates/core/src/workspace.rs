//! Workspace accounting — the memory-efficiency claim.
//!
//! §2/§3: "Fused-Winograd integrates the last 3 stages into 1 kernel, while
//! the Non-Fused uses multiple kernels and requires a much larger workspace
//! to store intermediate variables … fused-Winograd needs a much smaller
//! workspace in global memory than the non-fused, which is beneficial for
//! large models." §6.1.1 picks the benchmark set by exactly this criterion,
//! and Tables 4/5's GPU-memory columns show the training-time consequence.
//!
//! This module quantifies the workspace (bytes of global memory beyond
//! inputs + outputs) each algorithm class needs for a given shape, so the
//! claim is checkable instead of rhetorical.

use iwino_tensor::ConvShape;

/// Workspace class of a convolution algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmClass {
    /// This library / the paper's kernels: all stages fused; the only
    /// auxiliary buffer is the transformed filter bank.
    ImcolWinogradFused { alpha: usize },
    /// Non-fused 1-D Winograd: transformed input tiles for the whole ifms
    /// must be materialised (`α/n` expansion), plus transformed filters,
    /// plus the Winograd-domain product buffer.
    Winograd1dNonFused { alpha: usize, n: usize },
    /// Non-fused 2-D Winograd: `(α/n)²` expansion of the ifms.
    Winograd2dNonFused { alpha: usize, n: usize },
    /// Explicit im2col + GEMM: the full `GM×GK` patch matrix
    /// (`GM = N·OH·OW`, `GK = IC·FH·FW`, §4.1's Stage-1 matrices).
    ExplicitIm2colGemm,
    /// Implicit-precomp GEMM: only the precomputed index maps.
    ImplicitPrecompGemm,
    /// Naive direct convolution: no auxiliary memory at all.
    Direct,
}

/// Bytes of auxiliary global memory the algorithm needs for `shape` (f32).
pub fn workspace_bytes(class: AlgorithmClass, s: &ConvShape) -> usize {
    let f32s = 4usize;
    let ifms = s.n * s.ih * s.iw * s.ic;
    let filter_bank = |alpha: usize| s.fh * alpha * s.ic * s.oc * f32s;
    match class {
        AlgorithmClass::ImcolWinogradFused { alpha } => filter_bank(alpha),
        AlgorithmClass::Winograd1dNonFused { alpha, n } => {
            // Transformed input tiles: every n input columns expand to α.
            let tx = ifms * alpha / n * f32s;
            // Winograd-domain products for the ofms: α states per n outputs.
            let prod = s.n * s.oh() * s.ow() * s.oc * alpha / n * f32s;
            tx + prod + filter_bank(alpha)
        }
        AlgorithmClass::Winograd2dNonFused { alpha, n } => {
            let exp = (alpha * alpha) / (n * n);
            let tx = ifms * exp * f32s;
            let prod = s.n * s.oh() * s.ow() * s.oc * exp * f32s;
            let filters = alpha * alpha * s.ic * s.oc * f32s;
            tx + prod + filters
        }
        AlgorithmClass::ExplicitIm2colGemm => s.n * s.oh() * s.ow() * s.ic * s.fh * s.fw * f32s,
        AlgorithmClass::ImplicitPrecompGemm => {
            // Index maps: one i32 per (oy, fh) and (ox, fw) pair.
            (s.oh() * s.fh + s.ow() * s.fw) * 4
        }
        AlgorithmClass::Direct => 0,
    }
}

/// Workspace relative to the ifms size (a scale-free comparison).
pub fn workspace_ratio(class: AlgorithmClass, s: &ConvShape) -> f64 {
    let ifms_bytes = (s.n * s.ih * s.iw * s.ic * 4) as f64;
    workspace_bytes(class, s) as f64 / ifms_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg_layer() -> ConvShape {
        // A mid-VGG layer: 128×28×28×256, 3×3.
        ConvShape::square(128, 28, 256, 256, 3)
    }

    #[test]
    fn fused_beats_non_fused_by_orders() {
        let s = vgg_layer();
        let fused = workspace_bytes(AlgorithmClass::ImcolWinogradFused { alpha: 8 }, &s);
        let nf1 = workspace_bytes(AlgorithmClass::Winograd1dNonFused { alpha: 8, n: 6 }, &s);
        let nf2 = workspace_bytes(AlgorithmClass::Winograd2dNonFused { alpha: 4, n: 2 }, &s);
        assert!(nf1 > 10 * fused, "1D non-fused {nf1} vs fused {fused}");
        assert!(nf2 > 10 * fused, "2D non-fused {nf2} vs fused {fused}");
    }

    #[test]
    fn fused_workspace_does_not_scale_with_batch() {
        // The transformed filter bank is batch-independent — the property
        // that lets fused kernels train "large models" (§3).
        let small = ConvShape::square(1, 28, 256, 256, 3);
        let big = ConvShape::square(256, 28, 256, 256, 3);
        let a = workspace_bytes(AlgorithmClass::ImcolWinogradFused { alpha: 8 }, &small);
        let b = workspace_bytes(AlgorithmClass::ImcolWinogradFused { alpha: 8 }, &big);
        assert_eq!(a, b);
        // Whereas the non-fused workspace scales linearly with the batch.
        let na = workspace_bytes(AlgorithmClass::Winograd1dNonFused { alpha: 8, n: 6 }, &small);
        let nb = workspace_bytes(AlgorithmClass::Winograd1dNonFused { alpha: 8, n: 6 }, &big);
        assert!(nb > 50 * na);
    }

    #[test]
    fn one_d_expansion_is_smaller_than_two_d() {
        // α/n = 8/6 ≈ 1.33× vs (α/n)² = (4/2)² = 4× for the same Φ = 2.25:
        // the §4.2 space-complexity advantage in workspace terms.
        let s = vgg_layer();
        let r1 = workspace_ratio(AlgorithmClass::Winograd1dNonFused { alpha: 8, n: 6 }, &s);
        let r2 = workspace_ratio(AlgorithmClass::Winograd2dNonFused { alpha: 4, n: 2 }, &s);
        assert!(r1 < r2, "1D ratio {r1:.2} vs 2D ratio {r2:.2}");
    }

    #[test]
    fn explicit_im2col_blows_up_with_filter_area() {
        let s3 = vgg_layer();
        let s9 = ConvShape::square(128, 28, 256, 256, 9);
        let w3 = workspace_bytes(AlgorithmClass::ExplicitIm2colGemm, &s3);
        let w9 = workspace_bytes(AlgorithmClass::ExplicitIm2colGemm, &s9);
        assert_eq!(w9 / w3, 81 / 9); // FH·FW scaling
                                     // Both dwarf the ifms.
        assert!(workspace_ratio(AlgorithmClass::ExplicitIm2colGemm, &s3) > 8.0);
    }

    #[test]
    fn implicit_gemm_workspace_is_negligible() {
        let s = vgg_layer();
        let r = workspace_ratio(AlgorithmClass::ImplicitPrecompGemm, &s);
        assert!(r < 1e-4, "{r}");
    }
}
