//! im2col + GEMM convolution with precomputed gather indices, NCHW — the
//! figure runner's stand-in for cuDNN's `Implicit_Precomp_GEMM` in the NCHW
//! layout. (The NHWC series runs the engine's indirect GEMM,
//! `iwino-indirect`, which replaces the materialised patch matrix with an
//! offset table.)
//!
//! The "precomp" part mirrors cuDNN: the mapping from patch coordinates to
//! input offsets (including the padding validity masks) is computed once per
//! shape ([`Im2colPlan`]) and reused across calls. The "implicit" part:
//! patches are materialised only row-block by row-block into a scratch
//! buffer, never as a full `GM×GK` matrix in memory, so the algorithm is as
//! memory-efficient as the fused kernels it is compared against (§6.1.1).

use iwino_gemm::{sgemm_scratch, AllocScratch, ScratchProvider};
use iwino_obs as obs;
use iwino_parallel as par;
use iwino_tensor::{ConvShape, Tensor4};

/// Precomputed index maps for one convolution shape.
///
/// `row_map[oy·FH + fh]` is the input row for output row `oy` and filter row
/// `fh` (or `None` under padding); `col_map[ox·FW + fw]` likewise along the
/// width axis.
pub struct Im2colPlan {
    shape: ConvShape,
    row_map: Vec<Option<usize>>,
    col_map: Vec<Option<usize>>,
}

impl Im2colPlan {
    pub fn new(shape: &ConvShape) -> Self {
        let (oh, ow) = (shape.oh(), shape.ow());
        let mut row_map = Vec::with_capacity(oh * shape.fh);
        for oy in 0..oh {
            for fh in 0..shape.fh {
                let iy = (oy * shape.sh + fh) as isize - shape.ph as isize;
                row_map.push((iy >= 0 && iy < shape.ih as isize).then_some(iy as usize));
            }
        }
        let mut col_map = Vec::with_capacity(ow * shape.fw);
        for ox in 0..ow {
            for fw in 0..shape.fw {
                let ix = (ox * shape.sw + fw) as isize - shape.pw as isize;
                col_map.push((ix >= 0 && ix < shape.iw as isize).then_some(ix as usize));
            }
        }
        Im2colPlan {
            shape: *shape,
            row_map,
            col_map,
        }
    }

    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }
}

/// im2col + GEMM convolution, NCHW. `x` is `N×IC×IH×IW`, `w` is `OC×IC×FH×FW`
/// (OIHW); output `N×OC×OH×OW`. Exists so the benchmark harness can compare
/// the two layouts' gather behaviour like the paper compares
/// `Implicit_Precomp_GEMM` in both formats.
pub fn im2col_conv_nchw(x: &Tensor4<f32>, w: &Tensor4<f32>, plan: &Im2colPlan) -> Tensor4<f32> {
    im2col_conv_nchw_scratch(x, w, plan, &AllocScratch)
}

/// [`im2col_conv_nchw`] with the per-worker patch and row buffers drawn
/// from `scratch`, so an arena-backed caller runs allocation-free in steady
/// state.
pub fn im2col_conv_nchw_scratch(
    x: &Tensor4<f32>,
    w: &Tensor4<f32>,
    plan: &Im2colPlan,
    scratch: &dyn ScratchProvider,
) -> Tensor4<f32> {
    let s = plan.shape;
    assert_eq!(x.dims(), [s.n, s.ic, s.ih, s.iw], "x must be NCHW");
    assert_eq!(w.dims(), [s.oc, s.ic, s.fh, s.fw], "w must be OIHW");
    let _b = obs::span(obs::Stage::Baseline);
    obs::add(obs::Counter::Flops, s.flops() as u64);
    let (oh, ow) = (s.oh(), s.ow());
    let k = s.ic * s.fh * s.fw;
    let xs = x.as_slice();
    let ws = w.as_slice(); // already OC × K row-major

    let mut y = Tensor4::<f32>::zeros([s.n, s.oc, oh, ow]);
    let y_dims = y.dims();
    let ys = y.as_mut_slice();
    // Parallelise over (batch, output row); each task writes a strided
    // OC × OW column set, gathered via a local buffer.
    let ys_parts = par::SliceParts::new(ys, y_dims[1] * y_dims[2] * y_dims[3]);
    par::parallel_for(s.n, &|b| {
        let y_img = ys_parts.take(b); // OC × OH × OW
        let x_img = &xs[b * s.ic * s.ih * s.iw..(b + 1) * s.ic * s.ih * s.iw];
        let mut patch = scratch.checkout(k * ow);
        let mut out_row = scratch.checkout(s.oc * ow);
        for oy in 0..oh {
            patch.fill(0.0);
            // patch[K × OW]: K index ordered (ic, fh, fw) to match OIHW.
            for ic in 0..s.ic {
                let x_ch = &x_img[ic * s.ih * s.iw..(ic + 1) * s.ih * s.iw];
                for fh in 0..s.fh {
                    let Some(iy) = plan.row_map[oy * s.fh + fh] else {
                        continue;
                    };
                    let x_row = &x_ch[iy * s.iw..(iy + 1) * s.iw];
                    for fw in 0..s.fw {
                        let krow = (ic * s.fh + fh) * s.fw + fw;
                        let dst = &mut patch[krow * ow..(krow + 1) * ow];
                        for (ox, slot) in dst.iter_mut().enumerate() {
                            if let Some(ix) = plan.col_map[ox * s.fw + fw] {
                                *slot = x_row[ix];
                            }
                        }
                    }
                }
            }
            // out_row[OC × OW] = W[OC × K] · patch[K × OW].
            sgemm_scratch(s.oc, ow, k, ws, &patch, &mut out_row, false, scratch);
            for o in 0..s.oc {
                let dst = &mut y_img[o * oh * ow + oy * ow..o * oh * ow + (oy + 1) * ow];
                dst.copy_from_slice(&out_row[o * ow..(o + 1) * ow]);
            }
        }
        scratch.give_back(patch);
        scratch.give_back(out_row);
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_conv;
    use iwino_tensor::{max_mixed_error, nhwc_to_nchw};

    fn check_nchw(s: &ConvShape, seed: u64) {
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let want = direct_conv(&x, &w, s);
        let plan = Im2colPlan::new(s);
        // OHWI → OIHW is the same axis permutation as NHWC → NCHW.
        let got_nchw = im2col_conv_nchw(&nhwc_to_nchw(&x), &nhwc_to_nchw(&w), &plan);
        let want_nchw = nhwc_to_nchw(&want);
        let e = max_mixed_error(&got_nchw, &want_nchw);
        assert!(e < 1e-4, "nchw {s:?}: {e}");
    }

    #[test]
    fn matches_direct_small() {
        check_nchw(&ConvShape::square(2, 8, 3, 5, 3), 10);
    }

    #[test]
    fn matches_direct_even_filter() {
        check_nchw(&ConvShape::square(1, 9, 4, 4, 2), 11);
        check_nchw(&ConvShape::square(1, 9, 4, 4, 4), 12);
    }

    #[test]
    fn matches_direct_large_filter() {
        check_nchw(&ConvShape::square(1, 12, 2, 3, 7), 13);
        check_nchw(&ConvShape::square(1, 12, 2, 3, 9), 14);
    }

    #[test]
    fn matches_direct_no_padding() {
        check_nchw(&ConvShape::unit(2, 6, 10, 3, 4, 3, 3, 0, 0), 15);
    }

    #[test]
    fn matches_direct_strided() {
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 11, 3, 4, 3)
        };
        check_nchw(&s, 16);
    }

    #[test]
    fn plan_reuse_across_batches() {
        let s = ConvShape::square(3, 6, 2, 2, 5);
        let plan = Im2colPlan::new(&s);
        for seed in [20, 21] {
            let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
            let w = Tensor4::<f32>::random(s.w_dims(), seed + 5, -1.0, 1.0);
            let got = im2col_conv_nchw(&nhwc_to_nchw(&x), &nhwc_to_nchw(&w), &plan);
            let want = nhwc_to_nchw(&direct_conv(&x, &w, &s));
            assert!(max_mixed_error(&got, &want) < 1e-4);
        }
    }
}
