//! Convolution / deconvolution orchestration.
//!
//! [`conv2d`] plans the width axis (§5.5), transforms the filters once per
//! call (forward or rotated, §5.1), and then runs one parallel task per
//! `N×OH` output row — the same task decomposition the paper uses for
//! thread blocks, chosen because `feature-map size × channel size` is
//! roughly constant across CNN layers so the task count stays consistent
//! (§5.1).
//!
//! [`PreparedConv`]'s row pass is the only Γ execution loop. Its geometry carries a
//! depth axis, `(1, 1, 0)` for 2-D, so [`crate::nd::conv3d`] runs through
//! the same pass over `N×OD×OH` rows: the rank lives only in the row plan.

use crate::error::{expect_dims, ConvError};
use crate::filter::{filter_hwio, TransformedFilter};
use crate::kernel::{cached_kernel, GammaKernel, RowJob, Scratch, Variant};
use crate::plan::{default_kernel_prefs, GammaSpec, KernelChoice, SegmentPlan};
use iwino_gemm::{sgemm_prepacked, AllocScratch, PackedB, ScratchProvider};
use iwino_obs as obs;
use iwino_parallel as par;
use iwino_simd as simd;
use iwino_tensor::{ConvShape, Tensor4};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Output epilogue fused into the convolution's row pass (bias add and/or
/// activation applied while the freshly written row is still cache-hot —
/// the kind of operator fusion Dragon-Alpha's higher-level encapsulation
/// performs over these kernels, §5.7).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Epilogue {
    /// Plain convolution output.
    #[default]
    None,
    /// `y += bias[oc]`.
    Bias(Vec<f32>),
    /// `y = max(y, 0)`.
    Relu,
    /// `y = y > 0 ? y : slope·y`.
    LeakyRelu(f32),
    /// `y = act(y + bias[oc])` with LeakyReLU slope (0 = plain ReLU).
    BiasLeakyRelu(Vec<f32>, f32),
}

impl Epilogue {
    /// Apply the epilogue to a contiguous `…×OC` output slice (a row or the
    /// whole tensor — the layout is uniform along OC). Public so engine
    /// backends whose kernels cannot fuse the epilogue apply the identical
    /// arithmetic after the fact.
    pub fn apply(&self, out_row: &mut [f32], oc: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::Bias(b) => {
                debug_assert_eq!(b.len(), oc);
                for px in out_row.chunks_exact_mut(oc) {
                    for (v, &bv) in px.iter_mut().zip(b) {
                        *v += bv;
                    }
                }
            }
            Epilogue::Relu => {
                for v in out_row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            Epilogue::LeakyRelu(slope) => {
                for v in out_row.iter_mut() {
                    if *v < 0.0 {
                        *v *= slope;
                    }
                }
            }
            Epilogue::BiasLeakyRelu(b, slope) => {
                debug_assert_eq!(b.len(), oc);
                for px in out_row.chunks_exact_mut(oc) {
                    for (v, &bv) in px.iter_mut().zip(b) {
                        let t = *v + bv;
                        *v = if t >= 0.0 { t } else { slope * t };
                    }
                }
            }
        }
    }
}

/// Tuning and selection options for [`conv2d`] / [`deconv2d`].
#[derive(Clone, Debug, Default)]
pub struct ConvOptions {
    /// Force a specific primary kernel instead of the automatic choice
    /// (used by the benchmark harness to sweep `Γα(n, r)` variants).
    pub force_kernels: Option<Vec<GammaSpec>>,
    /// Prefer `α = 16` kernels where both α = 8 and α = 16 apply (r = 7).
    pub prefer_alpha16: bool,
    /// Upgrade α = 16 kernels to the `c64` cache-block variant (§5.6) when
    /// the output-channel count is a multiple of 64 ("many channel sizes in
    /// modern CNNs are multiples of 64").
    pub allow_c64: bool,
}

impl ConvOptions {
    /// The §5.5 segment plan these options produce for an `OW`-wide row
    /// with filter width `r`. Public so the engine's workspace accounting
    /// can see which α a shape resolves to.
    pub fn plan_for(&self, ow: usize, r: usize, oc: usize) -> SegmentPlan {
        let mut prefs = match &self.force_kernels {
            Some(k) => k.clone(),
            None => default_kernel_prefs(r, self.prefer_alpha16 || r >= 8),
        };
        if self.allow_c64 && oc.is_multiple_of(64) {
            for p in &mut prefs {
                if p.alpha == 16 && p.variant == Variant::Standard {
                    p.variant = Variant::C64;
                }
            }
        }
        SegmentPlan::build(ow, &prefs)
    }
}

/// Pick reasonable [`ConvOptions`] for a shape: α = 16 kernels where they
/// apply, and the `c64` cache-block variant when the channel count is a
/// multiple of 64 (§5.6's "many channel sizes in modern CNNs are multiples
/// of 64").
pub fn auto_options(shape: &ConvShape) -> ConvOptions {
    ConvOptions {
        force_kernels: None,
        prefer_alpha16: shape.fw >= 7,
        allow_c64: shape.oc.is_multiple_of(64),
    }
}

/// Unit-stride 2-D convolution through the fused Im2col-Winograd path.
/// `x` is `N×IH×IW×IC` NHWC; `w` is `OC×FH×FW×IC`; returns `N×OH×OW×OC`.
/// Strided shapes return [`ConvError::NonUnitStride`]: route them through
/// `iwino_engine::Engine`. For a fused epilogue, or to reuse the filter
/// transform across calls, use [`PreparedConv::forward`] and
/// [`PreparedConv::execute`] directly.
pub fn conv2d(
    x: &Tensor4<f32>,
    w: &Tensor4<f32>,
    shape: &ConvShape,
    opts: &ConvOptions,
) -> Result<Tensor4<f32>, ConvError> {
    PreparedConv::forward(w, shape, opts)?.execute(x, &Epilogue::None)
}

/// Deconvolution (backward-data): given `dy = N×OH×OW×OC` and the forward
/// filter `w = OC×FH×FW×IC`, returns `dx = N×IH×IW×IC` for the unit-stride
/// forward convolution described by `shape`. The 180° rotation and channel
/// swap are fused into the filter transform (§5.1).
pub fn deconv2d(
    dy: &Tensor4<f32>,
    w: &Tensor4<f32>,
    shape: &ConvShape,
    opts: &ConvOptions,
) -> Result<Tensor4<f32>, ConvError> {
    PreparedConv::deconv(w, shape, opts)?.execute(dy, &Epilogue::None)
}

/// Depth axis of a plan's geometry: input depth, filter depth and depth
/// padding. A 3-D filter `OC×FD×FH×FW×IC` is laid out like the 2-D filter
/// `OC×(FD·FH)×FW×IC`, so the depth axis only adds filter planes
/// `fd·FH + fh` to each output row's plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Depth {
    pub id: usize,
    pub fd: usize,
    pub pd: usize,
}

impl Depth {
    /// The depth axis of a 2-D convolution.
    pub const FLAT: Depth = Depth { id: 1, fd: 1, pd: 0 };

    fn od(&self) -> usize {
        self.id + 2 * self.pd + 1 - self.fd
    }
}

/// Filter taps `f < len` whose input coordinate `o + f − pad` lies inside
/// `0..size`; the rest read implicit zero padding.
fn taps(o: usize, len: usize, pad: usize, size: usize) -> Range<usize> {
    pad.saturating_sub(o)..len.min((size + pad).saturating_sub(o))
}

/// A planned convolution with its transformed-filter bank, reusable across
/// calls on same-shape inputs.
///
/// The original `conv2d` re-ran the §5.5 width planning and the §5.1 filter
/// transforms on every call. For the serving scenario — many forward passes
/// through fixed weights — that repeated filter transform is pure waste:
/// the bank depends only on `(w, shape, opts)`. `PreparedConv` splits the
/// call into [`PreparedConv::forward`]/[`PreparedConv::deconv`] (plan +
/// transform once) and [`PreparedConv::execute`] (the fused row pass), so a
/// plan cache (see `iwino-engine`) can amortise preparation across calls.
pub struct PreparedConv {
    /// Geometry this plan *executes* (for deconv this is the backward
    /// geometry whose input is `dy`).
    shape: ConvShape,
    /// Depth axis of the executed geometry; [`Depth::FLAT`] for 2-D.
    depth: Depth,
    plan: SegmentPlan,
    kernels: Vec<(GammaSpec, Arc<GammaKernel>, TransformedFilter)>,
    /// HWIO remainder filter pre-packed into GEMM panels (`K×OC`,
    /// `K = FD·FH·FW·IC`), built only when the plan has a GEMM segment.
    w_packed: Option<PackedB>,
    /// Segment → kernel index, resolved once instead of per row.
    seg_kernels: Vec<Option<usize>>,
}

impl PreparedConv {
    /// Plan a forward convolution and transform `w` into the Winograd
    /// domain. `shape` must be unit-stride and `w` must be `OC×FH×FW×IC`.
    pub fn forward(w: &Tensor4<f32>, shape: &ConvShape, opts: &ConvOptions) -> Result<PreparedConv, ConvError> {
        if !shape.is_unit_stride() {
            return Err(ConvError::NonUnitStride {
                algorithm: "Im2col-Winograd",
                sh: shape.sh,
                sw: shape.sw,
            });
        }
        expect_dims("filter", w.dims(), shape.w_dims())?;
        Ok(Self::build(w, *shape, Depth::FLAT, opts, false))
    }

    /// Plan the backward-data pass of the forward convolution described by
    /// `shape`. The returned plan's input is `dy = N×OH×OW×OC` and its
    /// output is `dx = N×IH×IW×IC`; the 180° rotation and channel swap are
    /// fused into the filter transform (§5.1).
    pub fn deconv(w: &Tensor4<f32>, shape: &ConvShape, opts: &ConvOptions) -> Result<PreparedConv, ConvError> {
        if !shape.is_unit_stride() {
            return Err(ConvError::NonUnitStride {
                algorithm: "Im2col-Winograd (deconv)",
                sh: shape.sh,
                sw: shape.sw,
            });
        }
        expect_dims("filter", w.dims(), shape.w_dims())?;
        // Backward-data of conv(pad p) is conv(dy, rot180(W), pad r−1−p):
        // the deconv is itself a unit-stride convolution with input dy and
        // output dx.
        let bw = ConvShape::unit(
            shape.n,
            shape.oh(),
            shape.ow(),
            shape.oc,
            shape.ic,
            shape.fh,
            shape.fw,
            shape.fh - 1 - shape.ph,
            shape.fw - 1 - shape.pw,
        );
        debug_assert_eq!(bw.oh(), shape.ih);
        debug_assert_eq!(bw.ow(), shape.iw);
        Ok(Self::build(w, bw, Depth::FLAT, opts, true))
    }

    /// Shared planning + filter-transform step. For deconv, `s` is already
    /// the backward geometry (input = dy) and `w` is the *forward* filter —
    /// the rotation happens inside the filter transforms. `w` holds
    /// `depth.fd · s.fh` filter planes.
    pub(crate) fn build(
        w: &Tensor4<f32>,
        s: ConvShape,
        depth: Depth,
        opts: &ConvOptions,
        rotate: bool,
    ) -> PreparedConv {
        let plan = opts.plan_for(s.ow(), s.fw, s.oc);
        // Each distinct Γ kernel (cached process-wide — transform generation
        // is exact rational arithmetic) plus its transformed filter bank.
        let ft_span = obs::span(obs::Stage::FilterTransform);
        let mut kernels: Vec<(GammaSpec, Arc<GammaKernel>, TransformedFilter)> = Vec::new();
        for spec in plan.gamma_specs() {
            let kernel = cached_kernel(spec.alpha, spec.n, spec.r, spec.variant);
            let t = kernel.transform();
            let tw = if rotate {
                TransformedFilter::deconv(w, &t)
            } else {
                TransformedFilter::forward(w, &t)
            };
            kernels.push((spec, kernel, tw));
        }
        // Untransformed HWIO filter for the GEMM remainder, flattened to
        // K×OC and pre-packed into GEMM panels at plan time (built only if
        // a segment uses it).
        let needs_direct = plan.segments.iter().any(|g| g.kernel == KernelChoice::Gemm);
        let w_packed = needs_direct.then(|| {
            let wd = filter_hwio(w, rotate);
            PackedB::pack(depth.fd * s.fh * s.fw * s.ic, s.oc, wd.as_slice())
        });
        drop(ft_span);
        let seg_kernels: Vec<Option<usize>> = plan
            .segments
            .iter()
            .map(|seg| match seg.kernel {
                KernelChoice::Gamma(spec) => Some(
                    kernels
                        .iter()
                        .position(|(ks, _, _)| *ks == spec)
                        .expect("planned kernel was built"),
                ),
                KernelChoice::Gemm => None,
            })
            .collect();
        PreparedConv {
            shape: s,
            depth,
            plan,
            kernels,
            w_packed,
            seg_kernels,
        }
    }

    /// The geometry this plan executes (for deconv plans: the backward
    /// geometry, so `x_dims()` is the `dy` shape and `y_dims()` the `dx`).
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Bytes held by the transformed-filter bank(s) plus the GEMM-remainder
    /// filter — the plan's resident workspace, matching the
    /// `AlgorithmClass::ImcolWinogradFused` accounting.
    pub fn filter_bank_bytes(&self) -> usize {
        let banks: usize = self.kernels.iter().map(|(_, _, tw)| tw.bytes()).sum();
        banks + self.w_packed.as_ref().map_or(0, |pb| pb.resident_bytes())
    }

    /// Run the fused row pass: transform input tiles, multiply against the
    /// prepared filter bank, accumulate over `FH×IC`, output-transform, and
    /// apply `epilogue` while the row is cache-hot. Temporaries come from
    /// plain allocations; serving paths use [`PreparedConv::execute_scratch`].
    pub fn execute(&self, x: &Tensor4<f32>, epilogue: &Epilogue) -> Result<Tensor4<f32>, ConvError> {
        self.execute_scratch(x, epilogue, &AllocScratch)
    }

    /// [`PreparedConv::execute`] with the GEMM-remainder patch and panel
    /// buffers drawn from `scratch`, so an arena-backed caller (the serving
    /// engine's workspace pool) runs allocation-free in steady state.
    pub fn execute_scratch(
        &self,
        x: &Tensor4<f32>,
        epilogue: &Epilogue,
        scratch: &dyn ScratchProvider,
    ) -> Result<Tensor4<f32>, ConvError> {
        expect_dims("input", x.dims(), self.shape.x_dims())?;
        let mut y = Tensor4::<f32>::zeros(self.shape.y_dims());
        self.run(x.as_slice(), y.as_mut_slice(), epilogue, scratch);
        Ok(y)
    }

    /// The row pass over flat NHWC (2-D) or NDHWC (3-D) slices whose sizes
    /// the caller has checked against the plan's geometry.
    pub(crate) fn run(&self, xs: &[f32], ys: &mut [f32], epilogue: &Epilogue, scratch: &dyn ScratchProvider) {
        let (s, depth) = (self.shape, self.depth);
        let (od, oh, ow) = (depth.od(), s.oh(), s.ow());
        let _total = obs::span(obs::Stage::Total);
        // The paper's GFLOP/s convention: count the FLOPs of the standard
        // convolution producing the same output, whatever kernel runs.
        obs::add(obs::Counter::Flops, (s.flops() * (od * depth.fd) as f64) as u64);

        let row_elems = ow * s.oc;
        let img_elems = depth.id * s.ih * s.iw * s.ic;

        // Per-worker scratch, reused across rows (thread-local because tasks
        // of many rows land on the same worker).
        thread_local! {
            static SCRATCH: RefCell<(Scratch, Vec<(usize, usize)>)> = RefCell::default();
        }

        // In-bounds depth and height taps of output coordinates `oz`, `oy`.
        // Their product, the row's in-bounds filter planes, is the dominant
        // per-row cost factor: rows near the image borders intersect fewer
        // filter planes and are proportionally cheaper.
        let fd_taps = move |oz: usize| taps(oz, depth.fd, depth.pd, depth.id);
        let fh_taps = move |oy: usize| taps(oy, s.fh, s.ph, s.ih);

        // GEMM-remainder geometry: patch rows are full-K im2col gathers
        // (zeros under padding) against the plan-time packed filter. The
        // patch buffer is checked out once per row range, not per row.
        let gemm_k = depth.fd * s.fh * s.fw * s.ic;
        let gemm_patch_max = self
            .plan
            .segments
            .iter()
            .zip(&self.seg_kernels)
            .filter_map(|(seg, k)| k.is_none().then_some(seg.len))
            .max()
            .unwrap_or(0)
            * gemm_k;

        let parts = par::SliceParts::new(ys, row_elems);
        // Per-row cost model in abstract vector-op units, aware of the
        // dispatched lane width: the outer-product FMA work vectorises along
        // OC at `vw` lanes while the im2col gather stays per-channel scalar
        // loads, so widening the ISA shrinks the FMA term relative to the
        // gather term and shifts how much border rows (fewer in-bounds
        // filter planes) are discounted. The fixed term covers the
        // output transform + epilogue, which run once per row regardless of
        // how many filter planes are in bounds.
        let vw = simd::kernels().lane_width;
        let per_plane = (s.ic * s.oc).div_ceil(vw) as u64 + s.ic as u64;
        let fixed = s.oc.div_ceil(vw) as u64 + 1;
        let row_weight =
            move |row: usize| (fd_taps(row / oh % od).len() * fh_taps(row % oh).len()) as u64 * per_plane + fixed;
        // Cost-aware row ranges (~equal total cost per piece) instead of one
        // task per row: boundary rows stop dragging the tail, and the
        // scratch borrow is amortised over the whole range.
        par::global().run_chunked_weighted(s.n * od * oh, &row_weight, &|range| {
            SCRATCH.with(|cell| {
                // Kernel scratch and the row-plan buffer (grown to the
                // plan's filter-plane count once, then reused).
                let (gamma_scratch, plan_rows) = &mut *cell.borrow_mut();
                let mut gemm_patch = (gemm_patch_max > 0).then(|| scratch.checkout(gemm_patch_max));
                for row in range {
                    let out_row = parts.take(row);
                    let (slice, oy) = (row / oh, row % oh);
                    let (b, oz) = (slice / od, slice % od);
                    // Row plan: one entry per in-bounds filter plane
                    // `fd·FH + fh`; planes falling outside the input are
                    // absent (implicit zero padding).
                    plan_rows.clear();
                    for fd in fd_taps(oz) {
                        let iz = oz + fd - depth.pd;
                        for fh in fh_taps(oy) {
                            let iy = oy + fh - s.ph;
                            plan_rows.push(((iz * s.ih + iy) * s.iw * s.ic, fd * s.fh + fh));
                        }
                    }
                    let job = RowJob {
                        x: &xs[b * img_elems..(b + 1) * img_elems],
                        rows: plan_rows,
                        iw: s.iw,
                        ic: s.ic,
                        pw: s.pw,
                        ow,
                        oc: s.oc,
                    };
                    for (seg, k_idx) in self.plan.segments.iter().zip(&self.seg_kernels) {
                        match k_idx {
                            Some(k) => {
                                let (spec, kernel, tw) = &self.kernels[*k];
                                kernel.run_segment(&job, tw, seg.start, seg.len / spec.n, out_row, gamma_scratch);
                            }
                            None => {
                                let pb = self.w_packed.as_ref().expect("packed remainder filter was built");
                                let _g = obs::span(obs::Stage::GemmRemainder);
                                obs::add(obs::Counter::GemmRemainderCols, seg.len as u64);
                                // Gather the seg.len × K patch (zeros under
                                // padding; K ordered (plane, fw, ic) to match
                                // the HWIO flattening) and run it against
                                // the plan-time packed filter.
                                let buf = gemm_patch.as_mut().expect("gemm patch buffer was checked out");
                                let patch = &mut buf[..seg.len * gemm_k];
                                patch.fill(0.0);
                                for (i_ox, p_row) in patch.chunks_exact_mut(gemm_k).enumerate() {
                                    let ox = seg.start + i_ox;
                                    for &(x_off, plane) in job.rows {
                                        let x_row = &job.x[x_off..x_off + s.iw * s.ic];
                                        for fx in 0..s.fw {
                                            let px = ox as isize + fx as isize - s.pw as isize;
                                            if px < 0 || px >= s.iw as isize {
                                                continue;
                                            }
                                            let src = &x_row[px as usize * s.ic..(px as usize + 1) * s.ic];
                                            let d0 = (plane * s.fw + fx) * s.ic;
                                            p_row[d0..d0 + s.ic].copy_from_slice(src);
                                        }
                                    }
                                }
                                let out_seg = &mut out_row[seg.start * s.oc..(seg.start + seg.len) * s.oc];
                                sgemm_prepacked(seg.len, patch, pb, out_seg, false, scratch);
                            }
                        }
                    }
                    let _e = (!matches!(epilogue, Epilogue::None)).then(|| obs::span(obs::Stage::Epilogue));
                    epilogue.apply(out_row, s.oc);
                }
                if let Some(buf) = gemm_patch {
                    scratch.give_back(buf);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_baselines::{direct_conv, direct_conv_f64_ref};
    use iwino_tensor::{max_mixed_error, rotate_filter_180};

    fn check_conv(s: &ConvShape, opts: &ConvOptions, seed: u64, tol: f64) {
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let want = direct_conv_f64_ref(&x, &w, s);
        let got = conv2d(&x, &w, s, opts).unwrap();
        let e = max_mixed_error(&got, &want);
        assert!(e < tol, "{s:?} {opts:?}: error {e}");
    }

    #[test]
    fn gamma8_6_3_exact_cover() {
        // OW = 24 divisible by 6: pure Γ8(6,3).
        check_conv(&ConvShape::square(2, 24, 8, 8, 3), &ConvOptions::default(), 60, 1e-4);
    }

    #[test]
    fn gamma8_6_3_with_boundary() {
        // OW = 23: Γ8(6,3) + Γ4(2,3) + GEMM.
        check_conv(&ConvShape::square(1, 23, 8, 8, 3), &ConvOptions::default(), 61, 1e-4);
    }

    #[test]
    fn all_filter_widths_2_to_9() {
        for r in 2..=9usize {
            let s = ConvShape::square(1, 20, 8, 8, r);
            // r ≥ 8 runs on Γ16 whose transform entries span ~10 orders of
            // magnitude; under sign-varying inputs the f32 mixed error grows
            // to ~1e-3 (the conditioning effect §6.2.2 describes).
            let tol = if r >= 8 { 1e-2 } else { 2e-4 };
            check_conv(&s, &ConvOptions::default(), 62 + r as u64, tol);
        }
    }

    #[test]
    fn ruse_variant_matches() {
        for r in [5usize, 6, 7] {
            let n = 9 - r;
            let opts = ConvOptions {
                force_kernels: Some(vec![GammaSpec::new(8, n, r, Variant::Ruse)]),
                ..Default::default()
            };
            check_conv(&ConvShape::square(1, 4 * n, 8, 8, r), &opts, 70 + r as u64, 2e-4);
        }
    }

    #[test]
    fn c64_variant_matches() {
        // Γ16(8,9) in f32 has percent-level worst-case error under
        // cancellation (κ ≈ 1e5 transform amplification), so this test uses
        // the paper's positive [1,2) distribution and additionally checks
        // the c64 variant agrees with the standard blocking bit-for-bit
        // (same summation order, different cache-block geometry).
        let s = ConvShape::square(1, 16, 64, 64, 9);
        let x = Tensor4::<f32>::random(s.x_dims(), 80, 1.0, 2.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 81, 1.0, 2.0);
        let want = direct_conv_f64_ref(&x, &w, &s);
        let std_opts = ConvOptions {
            prefer_alpha16: true,
            ..Default::default()
        };
        let c64_opts = ConvOptions {
            prefer_alpha16: true,
            allow_c64: true,
            ..Default::default()
        };
        let y_std = conv2d(&x, &w, &s, &std_opts).unwrap();
        let y_c64 = conv2d(&x, &w, &s, &c64_opts).unwrap();
        let stats = iwino_tensor::ErrorStats::between(&y_c64, &want);
        assert!(stats.mean < 1e-4, "{stats:?}");
        assert_eq!(y_std.as_slice(), y_c64.as_slice(), "c64 must be a pure blocking change");
    }

    #[test]
    fn alpha16_kernels() {
        for r in [7usize, 8, 9] {
            let opts = ConvOptions {
                prefer_alpha16: true,
                ..Default::default()
            };
            let s = ConvShape::square(1, 20, 8, 8, r);
            check_conv(&s, &opts, 90 + r as u64, 1e-2);
        }
    }

    #[test]
    fn channels_not_multiple_of_block() {
        // IC = 5, OC = 7: exercises ragged channel blocks.
        check_conv(&ConvShape::square(1, 12, 5, 7, 3), &ConvOptions::default(), 100, 1e-4);
    }

    #[test]
    fn zero_padding_variants() {
        // pw = 0 (valid convolution) and asymmetric-feeling sizes.
        check_conv(
            &ConvShape::unit(1, 10, 17, 4, 4, 3, 3, 0, 0),
            &ConvOptions::default(),
            101,
            1e-4,
        );
        check_conv(
            &ConvShape::unit(1, 10, 17, 4, 4, 5, 5, 0, 2),
            &ConvOptions::default(),
            102,
            2e-4,
        );
    }

    #[test]
    fn non_square_filters() {
        // FH ≠ FW: the 1-D decomposition only constrains FW (§4.2).
        check_conv(
            &ConvShape::unit(1, 12, 12, 4, 4, 5, 3, 2, 1),
            &ConvOptions::default(),
            103,
            1e-4,
        );
        check_conv(
            &ConvShape::unit(1, 12, 12, 4, 4, 2, 7, 0, 3),
            &ConvOptions::default(),
            104,
            2e-4,
        );
        // FH is unbounded: more filter rows than any fixed row-plan buffer.
        check_conv(
            &ConvShape::unit(1, 20, 12, 2, 2, 17, 3, 0, 1),
            &ConvOptions::default(),
            106,
            1e-4,
        );
    }

    #[test]
    fn tiny_output_goes_through_gemm_only() {
        // OW = 1 < every tile size: pure GEMM path.
        let s = ConvShape::unit(1, 6, 1, 3, 2, 3, 3, 1, 1);
        check_conv(&s, &ConvOptions::default(), 105, 1e-4);
    }

    #[test]
    fn one_wide_filters_plan_as_gemm() {
        // FW = 1 has no Γ kernel: the row plans as one GEMM segment, for
        // the forward pass and for backward-data alike.
        for fh in [1usize, 3] {
            let s = ConvShape::unit(1, 6, 20, 4, 4, fh, 1, fh / 2, 0);
            check_conv(&s, &ConvOptions::default(), 140 + fh as u64, 1e-4);
            let dy = Tensor4::<f32>::random(s.y_dims(), 142 + fh as u64, -1.0, 1.0);
            let w = Tensor4::<f32>::random(s.w_dims(), 144 + fh as u64, -1.0, 1.0);
            let got = deconv2d(&dy, &w, &s, &ConvOptions::default()).unwrap();
            let bw = ConvShape::unit(s.n, s.oh(), s.ow(), s.oc, s.ic, fh, 1, fh - 1 - s.ph, 0);
            let want = direct_conv_f64_ref(&dy, &rotate_filter_180(&w), &bw);
            let e = max_mixed_error(&got, &want);
            assert!(e < 1e-4, "FH = {fh}: deconv error {e}");
            assert_eq!(got.dims(), s.x_dims());
        }
    }

    #[test]
    fn deconv_matches_conv_of_rotated_filter() {
        let s = ConvShape::square(2, 12, 4, 6, 3);
        let dy = Tensor4::<f32>::random(s.y_dims(), 110, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 111, -1.0, 1.0);
        let got = deconv2d(&dy, &w, &s, &ConvOptions::default()).unwrap();
        // Reference: materialised rotated filter + direct convolution.
        let bw = ConvShape::unit(s.n, s.oh(), s.ow(), s.oc, s.ic, 3, 3, 2 - s.ph, 2 - s.pw);
        let wr = rotate_filter_180(&w);
        let want = direct_conv(&dy, &wr, &bw);
        let e = max_mixed_error(&got, &want);
        assert!(e < 1e-4, "deconv error {e}");
        assert_eq!(got.dims(), s.x_dims());
    }

    #[test]
    fn deconv_all_widths() {
        for r in 2..=9usize {
            let s = ConvShape::square(1, 16, 4, 4, r);
            let dy = Tensor4::<f32>::random(s.y_dims(), 120 + r as u64, -1.0, 1.0);
            let w = Tensor4::<f32>::random(s.w_dims(), 130 + r as u64, -1.0, 1.0);
            let got = deconv2d(&dy, &w, &s, &ConvOptions::default()).unwrap();
            let bw = ConvShape::unit(s.n, s.oh(), s.ow(), s.oc, s.ic, r, r, r - 1 - s.ph, r - 1 - s.pw);
            let wr = rotate_filter_180(&w);
            let want = direct_conv(&dy, &wr, &bw);
            let e = max_mixed_error(&got, &want);
            let tol = if r >= 8 { 1e-2 } else { 2e-4 };
            assert!(e < tol, "r = {r}: deconv error {e}");
        }
    }

    /// ⟨conv(x), y⟩ = ⟨x, deconv(y)⟩ — conv and backward-data are adjoint.
    #[test]
    fn conv_deconv_adjointness() {
        let s = ConvShape::square(1, 10, 3, 5, 3);
        let x = Tensor4::<f32>::random(s.x_dims(), 140, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 141, -1.0, 1.0);
        let yr = Tensor4::<f32>::random(s.y_dims(), 142, -1.0, 1.0);
        let cx = conv2d(&x, &w, &s, &ConvOptions::default()).unwrap();
        let dy = deconv2d(&yr, &w, &s, &ConvOptions::default()).unwrap();
        let lhs: f64 = cx
            .as_slice()
            .iter()
            .zip(yr.as_slice())
            .map(|(&a, &b)| (a as f64) * b as f64)
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(&a, &b)| (a as f64) * b as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn strided_shapes_are_rejected() {
        // The fused Γ path is unit-stride (§4); strided shapes belong to the
        // engine, and core says so with a typed error rather than a panic.
        let s = ConvShape {
            sw: 2,
            ..ConvShape::square(1, 8, 2, 2, 3)
        };
        let x = Tensor4::<f32>::random(s.x_dims(), 710, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 711, -1.0, 1.0);
        let opts = ConvOptions::default();
        for e in [
            conv2d(&x, &w, &s, &opts).unwrap_err(),
            deconv2d(&Tensor4::zeros(s.y_dims()), &w, &s, &opts).unwrap_err(),
        ] {
            assert!(matches!(e, ConvError::NonUnitStride { sh: 1, sw: 2, .. }), "{e}");
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused() {
        let s = ConvShape::square(1, 13, 6, 5, 3);
        let x = Tensor4::<f32>::random(s.x_dims(), 500, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 501, -1.0, 1.0);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.3 - 0.5).collect();
        let prep = PreparedConv::forward(&w, &s, &ConvOptions::default()).unwrap();
        let plain = prep.execute(&x, &Epilogue::None).unwrap();

        // Bias only.
        let got = prep.execute(&x, &Epilogue::Bias(bias.clone())).unwrap();
        for (px_g, px_p) in got.as_slice().chunks_exact(5).zip(plain.as_slice().chunks_exact(5)) {
            for o in 0..5 {
                assert!((px_g[o] - (px_p[o] + bias[o])).abs() < 1e-6);
            }
        }
        // ReLU.
        let got = prep.execute(&x, &Epilogue::Relu).unwrap();
        for (&g, &p) in got.as_slice().iter().zip(plain.as_slice()) {
            assert_eq!(g, p.max(0.0));
        }
        // LeakyReLU(0.1).
        let got = prep.execute(&x, &Epilogue::LeakyRelu(0.1)).unwrap();
        for (&g, &p) in got.as_slice().iter().zip(plain.as_slice()) {
            let want = if p >= 0.0 { p } else { 0.1 * p };
            assert!((g - want).abs() < 1e-7);
        }
        // Bias + LeakyReLU.
        let got = prep.execute(&x, &Epilogue::BiasLeakyRelu(bias.clone(), 0.2)).unwrap();
        for (px_g, px_p) in got.as_slice().chunks_exact(5).zip(plain.as_slice().chunks_exact(5)) {
            for o in 0..5 {
                let t = px_p[o] + bias[o];
                let want = if t >= 0.0 { t } else { 0.2 * t };
                assert!((px_g[o] - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gamma4_kernels_as_primary() {
        // The α = 4 family the paper's Figure 3 lists: Γ4(3,2) and Γ4(2,3).
        for (n, r, variant) in [
            (3usize, 2usize, Variant::Standard),
            (2, 3, Variant::Standard),
            (2, 3, Variant::Ruse),
        ] {
            let opts = ConvOptions {
                force_kernels: Some(vec![GammaSpec::new(4, n, r, variant)]),
                ..Default::default()
            };
            check_conv(
                &ConvShape::square(1, 3 * n + 1, 8, 8, r),
                &opts,
                300 + (n * 10 + r) as u64,
                1e-4,
            );
        }
    }

    #[test]
    fn filter_widths_beyond_nine() {
        // §4.2: "Im2col-Winograd can deal with 2-15 filter widths". Widths
        // 10–15 ride Γ16(17−r, r); f32 conditioning is rough out here, so the
        // test uses the positive [1,2) distribution and a mean-error budget.
        for r in [10usize, 12, 15] {
            let n = 17 - r;
            let opts = ConvOptions {
                force_kernels: Some(vec![GammaSpec::new(16, n, r, Variant::Standard)]),
                ..Default::default()
            };
            let s = ConvShape::square(1, 2 * n.max(r), 4, 4, r);
            let x = Tensor4::<f32>::random(s.x_dims(), 400 + r as u64, 1.0, 2.0);
            let w = Tensor4::<f32>::random(s.w_dims(), 410 + r as u64, 1.0, 2.0);
            let want = direct_conv_f64_ref(&x, &w, &s);
            let got = conv2d(&x, &w, &s, &opts).unwrap();
            let stats = iwino_tensor::ErrorStats::between(&got, &want);
            assert!(stats.mean < 1e-3, "r = {r}: {stats:?}");
        }
    }

    #[test]
    fn auto_options_heuristics() {
        let small = ConvShape::square(1, 16, 32, 48, 3);
        let o = auto_options(&small);
        assert!(!o.prefer_alpha16);
        assert!(!o.allow_c64);
        let wide = ConvShape::square(1, 16, 64, 128, 7);
        let o = auto_options(&wide);
        assert!(o.prefer_alpha16);
        assert!(o.allow_c64);
    }

    #[test]
    fn accuracy_on_paper_distribution() {
        // §6.2.1 setup: uniform [1, 2), OW a multiple of n. Γ8 should land
        // around 1e-7 mean relative error (Table 3).
        let s = ConvShape::square(1, 24, 32, 32, 3);
        let x = Tensor4::<f32>::random(s.x_dims(), 150, 1.0, 2.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 151, 1.0, 2.0);
        let want = direct_conv_f64_ref(&x, &w, &s);
        let got = conv2d(&x, &w, &s, &ConvOptions::default()).unwrap();
        let stats = iwino_tensor::ErrorStats::between(&got, &want);
        assert!(stats.mean < 5e-6, "mean relative error too large: {stats:?}");
    }
}

#[cfg(test)]
mod accuracy {
    use super::*;
    use iwino_baselines::direct_conv_f64_ref;

    #[test]
    fn gamma16_accuracy_paper_distribution() {
        // Γ16(8,9), uniform [1,2): paper Table 3 reports ~1e-5 mean rel err.
        let s = ConvShape::square(1, 16, 32, 32, 9);
        let x = Tensor4::<f32>::random(s.x_dims(), 300, 1.0, 2.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 301, 1.0, 2.0);
        let want = direct_conv_f64_ref(&x, &w, &s);
        let opts = ConvOptions {
            prefer_alpha16: true,
            ..Default::default()
        };
        let got = conv2d(&x, &w, &s, &opts).unwrap();
        let stats = iwino_tensor::ErrorStats::between(&got, &want);
        eprintln!("gamma16 stats: {stats:?}");
        assert!(stats.mean < 1e-4, "{stats:?}");
    }
}
