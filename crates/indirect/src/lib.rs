//! Indirect convolution (Dukhan, *The Indirect Convolution Algorithm*):
//! replace im2col's materialised patch matrix with a shape-keyed
//! **indirection table** of row offsets.
//!
//! The table holds one entry per (output pixel, filter tap): the
//! image-relative float offset of the `IC`-long channel vector that tap
//! reads, or [`GATHER_PAD`] when the tap falls in the padding. Offsets —
//! not raw pointers — keep the crate under `#![forbid(unsafe_code)]` and
//! make the table *batch-relocatable*: entries are relative to one image,
//! so a single `OH·OW × FH·FW` table serves every image in the batch (and
//! every request in a serve bucket). Its size is independent of both the
//! input-channel count and the batch, the constant memory overhead the
//! paper's im2col comparison lacks.
//!
//! Execution is one blocked GEMM: `iwino-gemm` gathers the indirected
//! A-panels straight into its packing buffers
//! ([`iwino_gemm::sgemm_gather_prepacked`]), multiplies against the
//! plan-time [`PackedB`] filter, and the row-major `C[N·OH·OW × OC]` *is*
//! the NHWC output — no copy-out. Because NHWC puts channels innermost,
//! every indirected row segment is a contiguous channel vector, and
//! arbitrary stride falls out of the table build for free.
//!
//! The same table drives both training backward passes, so they too run on
//! the packed GEMM at any stride:
//!
//! * **filter gradient** ([`filter_grad`]) — `dWᵀ = Âᵀ·dY`, one
//!   [`iwino_gemm::sgemm_gather_tn`] whose transposed-gather A panels are
//!   filled from `x` through the table;
//! * **backward-data** ([`indirect_backward_data_packed`]) — per image,
//!   `dCols = dY·W` against the native `OC×FH·FW·IC` filter, then a col2im
//!   scatter-add of each pixel's tap segments back through the table.

#![forbid(unsafe_code)]

use iwino_gemm::{
    sgemm_gather_prepacked, sgemm_gather_tn, sgemm_prepacked, GatherA, PackedB, ScratchProvider, GATHER_PAD,
};
use iwino_obs as obs;
use iwino_tensor::{transpose_filter_to_hwio, ConvShape, Tensor4};

/// The per-shape indirection table: `OH·OW` rows × `FH·FW` taps of
/// image-relative float offsets (or [`GATHER_PAD`]). Built once per shape
/// and cached in the engine's LRU plan next to the packed filter.
pub struct IndirectTable {
    shape: ConvShape,
    offsets: Vec<usize>,
}

impl IndirectTable {
    /// Build the table for `shape`. Reported to obs as an
    /// [`obs::Stage::IndirectSetup`] span plus an
    /// [`obs::Counter::IndirectTableBytes`] increment, so the plan-cache
    /// regression net can pin "built exactly once per shape".
    pub fn build(shape: &ConvShape) -> IndirectTable {
        let _t = obs::span(obs::Stage::IndirectSetup);
        let s = *shape;
        let (oh, ow) = (s.oh(), s.ow());
        let mut offsets = Vec::with_capacity(oh * ow * s.fh * s.fw);
        for oy in 0..oh {
            for ox in 0..ow {
                for fy in 0..s.fh {
                    let iy = (oy * s.sh + fy) as isize - s.ph as isize;
                    let row_ok = iy >= 0 && iy < s.ih as isize;
                    for fx in 0..s.fw {
                        let ix = (ox * s.sw + fx) as isize - s.pw as isize;
                        if row_ok && ix >= 0 && ix < s.iw as isize {
                            offsets.push((iy as usize * s.iw + ix as usize) * s.ic);
                        } else {
                            offsets.push(GATHER_PAD);
                        }
                    }
                }
            }
        }
        obs::add(
            obs::Counter::IndirectTableBytes,
            (offsets.len() * std::mem::size_of::<usize>()) as u64,
        );
        IndirectTable { shape: s, offsets }
    }

    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The raw table, row-major `(oy·OW + ox) · FH·FW + (fy·FW + fx)`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Resident size, for plan-cache accounting.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// The [`GatherA`] view of input `xs` (the whole NHWC batch slice).
    fn gather<'a>(&'a self, xs: &'a [f32]) -> GatherA<'a> {
        let s = &self.shape;
        GatherA {
            base: xs,
            offsets: &self.offsets,
            taps: s.fh * s.fw,
            seg: s.ic,
            rows_per_block: s.oh() * s.ow(),
            block_stride: s.ih * s.iw * s.ic,
        }
    }
}

/// Indirect convolution, NHWC, against a filter already packed into GEMM
/// panels — the serving-engine entry point: the engine's plan caches both
/// the [`IndirectTable`] and the [`PackedB`], and its arena recycles the
/// A-panel buffers, so steady-state calls do no heap allocation beyond the
/// output tensor. One blocked GEMM covers the whole batch; MC-row-block
/// parallelism comes from the GEMM driver's `SliceParts` split.
pub fn indirect_conv_nhwc_packed(
    x: &Tensor4<f32>,
    pb: &PackedB,
    table: &IndirectTable,
    scratch: &dyn ScratchProvider,
) -> Tensor4<f32> {
    let s = *table.shape();
    assert_eq!(x.dims(), s.x_dims());
    assert_eq!(pb.k(), s.fh * s.fw * s.ic, "packed filter K mismatch");
    assert_eq!(pb.n(), s.oc, "packed filter OC mismatch");
    let _b = obs::span(obs::Stage::Baseline);
    obs::add(obs::Counter::Flops, s.flops() as u64);
    let mut y = Tensor4::<f32>::zeros(s.y_dims());
    let g = table.gather(x.as_slice());
    // C[N·OH·OW × OC] row-major is exactly the NHWC output layout.
    sgemm_gather_prepacked(s.n * s.oh() * s.ow(), &g, pb, y.as_mut_slice(), false, scratch);
    y
}

/// One-shot indirect convolution: builds the table and packs the native
/// `OC×FH×FW×IC` filter per call. Library callers with repeated shapes
/// should go through the engine, which caches both in its LRU plan.
pub fn indirect_conv(x: &Tensor4<f32>, w: &Tensor4<f32>, shape: &ConvShape) -> Tensor4<f32> {
    assert_eq!(w.dims(), shape.w_dims(), "filter dims");
    let table = IndirectTable::build(shape);
    let wmat = transpose_filter_to_hwio(w);
    let pb = PackedB::pack(shape.fh * shape.fw * shape.ic, shape.oc, wmat.as_slice());
    indirect_conv_nhwc_packed(x, &pb, &table, &iwino_gemm::AllocScratch)
}

/// Backward-data (`dx` from `dy`) through the table, against the native
/// `OC×FH×FW×IC` filter packed as the row-major `OC × FH·FW·IC` matrix it
/// already is. Per image: one GEMM `dCols[OH·OW × K] = dY_img · W` into an
/// arena buffer, then a col2im scatter-add — every non-padding tap segment
/// of pixel `p` adds into the input channel vector the table says it read.
/// Working image by image bounds the transient at `OH·OW × K` floats.
pub fn indirect_backward_data_packed(
    dy: &Tensor4<f32>,
    pb: &PackedB,
    table: &IndirectTable,
    scratch: &dyn ScratchProvider,
) -> Tensor4<f32> {
    let s = *table.shape();
    let (rows, taps, k) = (s.oh() * s.ow(), s.fh * s.fw, s.fh * s.fw * s.ic);
    assert_eq!(dy.dims(), s.y_dims());
    assert_eq!(pb.k(), s.oc, "packed filter K mismatch");
    assert_eq!(pb.n(), k, "packed filter N mismatch");
    let _b = obs::span(obs::Stage::Baseline);
    let mut dx = Tensor4::<f32>::zeros(s.x_dims());
    if rows * s.oc == 0 || k == 0 {
        return dx;
    }
    let img = s.ih * s.iw * s.ic;
    let mut cols = scratch.checkout(rows * k);
    for (dy_img, dx_img) in dy
        .as_slice()
        .chunks_exact(rows * s.oc)
        .zip(dx.as_mut_slice().chunks_exact_mut(img))
    {
        sgemm_prepacked(rows, dy_img, pb, &mut cols, false, scratch);
        for (offs, col) in table.offsets.chunks_exact(taps).zip(cols.chunks_exact(k)) {
            for (&off, seg) in offs.iter().zip(col.chunks_exact(s.ic)) {
                if off != GATHER_PAD {
                    for (d, &v) in dx_img[off..off + s.ic].iter_mut().zip(seg) {
                        *d += v;
                    }
                }
            }
        }
    }
    scratch.give_back(cols);
    dx
}

/// The filter gradient `dW` (native `OC×FH×FW×IC`) of the convolution the
/// table describes: one transposed-gather GEMM `C[K×OC] = Âᵀ·dY` over all
/// `N·OH·OW` output pixels, with `Â` the implicit patch matrix of `x`, then
/// a `K×OC → OC×K` transpose into the native layout. Each element is
/// reduced over pixels in ascending order with IEEE multiply-then-add, so
/// an `inf`/`NaN` activation under a zero gradient reaches `dW` as `NaN`,
/// exactly as the forward GEMM propagates it.
pub fn filter_grad_with(
    x: &Tensor4<f32>,
    dy: &Tensor4<f32>,
    table: &IndirectTable,
    scratch: &dyn ScratchProvider,
) -> Tensor4<f32> {
    let s = *table.shape();
    assert_eq!(x.dims(), s.x_dims(), "x dims mismatch");
    assert_eq!(dy.dims(), s.y_dims(), "dy dims mismatch");
    let _b = obs::span(obs::Stage::Baseline);
    let k = s.fh * s.fw * s.ic;
    let mut ct = scratch.checkout(k * s.oc);
    let g = table.gather(x.as_slice());
    sgemm_gather_tn(s.n * s.oh() * s.ow(), &g, s.oc, dy.as_slice(), &mut ct, scratch);
    let mut dw = Tensor4::<f32>::zeros(s.w_dims());
    let dws = dw.as_mut_slice();
    for o in 0..s.oc {
        for j in 0..k {
            dws[o * k + j] = ct[j * s.oc + o];
        }
    }
    scratch.give_back(ct);
    dw
}

/// One-shot filter gradient: builds the table per call. Training goes
/// through `iwino_engine::Engine::filter_grad`, which draws its buffers
/// from the engine arena.
pub fn filter_grad(x: &Tensor4<f32>, dy: &Tensor4<f32>, shape: &ConvShape) -> Tensor4<f32> {
    filter_grad_with(x, dy, &IndirectTable::build(shape), &iwino_gemm::AllocScratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_geometry_marks_padding_and_maps_interior() {
        // 3×3 filter, pad 1, stride 2 on a 5×5 input: OH = OW = 3.
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 5, 2, 3, 3)
        };
        let t = IndirectTable::build(&s);
        let taps = s.fh * s.fw;
        assert_eq!(t.offsets().len(), s.oh() * s.ow() * taps);
        assert_eq!(t.resident_bytes(), std::mem::size_of_val(t.offsets()));
        // Output pixel (0,0), tap (0,0) reads input (-1,-1): padding.
        assert_eq!(t.offsets()[0], GATHER_PAD);
        // Output pixel (0,0), tap (1,1) reads input (0,0).
        assert_eq!(t.offsets()[s.fw + 1], 0);
        // Output pixel (1,1), tap (0,0) reads input (1,1) = offset (1·5+1)·IC.
        let px = (s.ow() + 1) * taps;
        assert_eq!(t.offsets()[px], (s.iw + 1) * s.ic);
        // Every non-PAD entry stays inside one image.
        let img = s.ih * s.iw * s.ic;
        assert!(t.offsets().iter().all(|&o| o == GATHER_PAD || o + s.ic <= img));
    }

    #[test]
    fn strided_shape_tracks_f64_direct_reference() {
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 10, 6, 4, 3)
        };
        let x = Tensor4::<f32>::random(s.x_dims(), 93, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 94, -1.0, 1.0);
        let got = indirect_conv(&x, &w, &s);
        let want = iwino_baselines::direct_conv_f64_ref(&x, &w, &s);
        let mut max = 0.0f64;
        for (&a, &b) in got.as_slice().iter().zip(want.as_slice()) {
            max = max.max((a as f64 - b).abs());
        }
        assert!(max < 1e-3, "max mixed-precision error {max}");
    }
}
