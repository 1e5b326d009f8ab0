//! Filter transformation for `Γα(n, r)`.
//!
//! For every filter row `fh` and channel pair `(oc, ic)`, the `r` taps along
//! the width axis are lifted into the α-state Winograd domain:
//! `TW[fh, s, ic, oc] = Σ_fw G[s, fw] · W[oc, fh, fw, ic]`.
//!
//! The output layout keeps `oc` innermost so the element-wise multiply stage
//! FMAs along a contiguous `oc` run — the same reason the paper transposes
//! filters to `FH×FW×IC×OC` for forward convolution (§5.1).
//!
//! For deconvolution, the 180° spatial rotation and the `IC`/`OC` role swap
//! are **fused into this transform** (§5.1: "the 180-degree filter-rotation
//! is integrated into filter-transformation"): [`TransformedFilter::deconv`]
//! reads `W[oc, FH−1−fh, FW−1−fw, ic]` directly, so no rotated copy of the
//! filter is ever materialised.
//!
//! The ND extension (§4.2) needs no transform of its own: a 3-D filter
//! `OC×FD×FH×FW×IC` has the memory layout of the 2-D filter
//! `OC×(FD·FH)×FW×IC`, so the same transforms yield one plane per
//! `(fd, fh)` pair, plane index `fd·FH + fh`.

use iwino_parallel as par;
use iwino_tensor::Tensor4;
use iwino_transforms::WinogradTransform;

/// Winograd-domain filter bank: `data[((fh·α + s)·IC + ic)·OC + oc]`.
///
/// "IC"/"OC" here are the *contraction* and *output* channel counts of the
/// convolution being run — for deconvolution they are the forward filter's
/// OC and IC respectively.
pub struct TransformedFilter {
    pub fh: usize,
    pub alpha: usize,
    /// Contraction channels.
    pub ic: usize,
    /// Output channels.
    pub oc: usize,
    data: Vec<f32>,
}

impl TransformedFilter {
    /// Forward transform of `w` (`OC×FH×FW×IC`) for the given `F(n, r)`.
    pub fn forward(w: &Tensor4<f32>, t: &WinogradTransform) -> Self {
        let [oc, fh, fw, ic] = w.dims();
        assert_eq!(fw, t.r, "filter width must equal the kernel's r");
        Self::build(w, t, false, oc, fh, fw, ic)
    }

    /// Deconvolution transform: 180°-rotated, channel-swapped filter. The
    /// result contracts over the forward `oc` and produces the forward `ic`.
    pub fn deconv(w: &Tensor4<f32>, t: &WinogradTransform) -> Self {
        let [oc, fh, fw, ic] = w.dims();
        assert_eq!(fw, t.r, "filter width must equal the kernel's r");
        Self::build(w, t, true, oc, fh, fw, ic)
    }

    fn build(
        w: &Tensor4<f32>,
        t: &WinogradTransform,
        rotate: bool,
        oc: usize,
        fh: usize,
        fw: usize,
        ic: usize,
    ) -> Self {
        let alpha = t.alpha;
        let r = t.r;
        let g = t.g.to_f64();
        let ws = w.as_slice();
        // Contraction/output channel counts of the *resulting* convolution.
        let (cc, out_c) = if rotate { (oc, ic) } else { (ic, oc) };
        let mut data = vec![0.0f32; fh * alpha * cc * out_c];
        // One parallel task per filter row: each writes the contiguous
        // `α·cc·out_c` span of its planes.
        let parts = par::SliceParts::new(&mut data, alpha * cc * out_c);
        par::parallel_for(fh, &|h| {
            let row_planes = parts.take(h);
            // Source filter row (rotated filters read the mirrored row).
            let src_h = if rotate { fh - 1 - h } else { h };
            for s in 0..alpha {
                let g_row = &g[s * r..(s + 1) * r];
                let dst_plane = &mut row_planes[s * cc * out_c..(s + 1) * cc * out_c];
                for o in 0..oc {
                    for x in 0..fw {
                        // Rotated filters also mirror the width axis: tap x of
                        // the rotated filter is tap FW−1−x of the original.
                        let coeff = if rotate { g_row[fw - 1 - x] } else { g_row[x] } as f32;
                        if coeff == 0.0 {
                            continue;
                        }
                        let src = &ws[((o * fh + src_h) * fw + x) * ic..((o * fh + src_h) * fw + x + 1) * ic];
                        if rotate {
                            // dst[(contraction = o) · out_c + (out = i)]
                            let dst = &mut dst_plane[o * out_c..(o + 1) * out_c];
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d += coeff * v;
                            }
                        } else {
                            // dst[(contraction = i) · out_c + (out = o)]
                            for (i, &v) in src.iter().enumerate() {
                                dst_plane[i * out_c + o] += coeff * v;
                            }
                        }
                    }
                }
            }
        });
        drop(parts);
        TransformedFilter {
            fh,
            alpha,
            ic: cc,
            oc: out_c,
            data,
        }
    }

    /// The contiguous `oc` row for `(plane, state, contraction channel)`.
    /// For 2-D filters the plane is `fh`; for 3-D it is `fd·FH + fh`.
    #[inline]
    pub fn row(&self, fh: usize, s: usize, ic: usize) -> &[f32] {
        let base = ((fh * self.alpha + s) * self.ic + ic) * self.oc;
        &self.data[base..base + self.oc]
    }

    /// The contiguous `IC×OC` panel for `(plane, state)` — row `ic` of the
    /// panel is [`TransformedFilter::row`]`(plane, s, ic)`. The FMA
    /// microkernel walks this panel linearly, one bounds check per block
    /// instead of one per `(ic, state)` pair.
    #[inline]
    pub fn panel(&self, fh: usize, s: usize) -> &[f32] {
        let base = (fh * self.alpha + s) * self.ic * self.oc;
        &self.data[base..base + self.ic * self.oc]
    }

    /// Bytes held by the transformed bank (used by the memory accounting in
    /// the experiments).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Untransformed filter in the `FH×FW×IC×OC` layout, which the GEMM
/// boundary remainder packs at plan time. For deconvolution the rotation/swap is
/// fused here too: `rotate = true` yields `FH×FW×OC×IC` reading the mirrored
/// taps.
pub fn filter_hwio(w: &Tensor4<f32>, rotate: bool) -> Tensor4<f32> {
    let [oc, fh, fw, ic] = w.dims();
    let (cc, out_c) = if rotate { (oc, ic) } else { (ic, oc) };
    let mut out = Tensor4::zeros([fh, fw, cc, out_c]);
    for o in 0..oc {
        for h in 0..fh {
            for x in 0..fw {
                for i in 0..ic {
                    let v = w.at(o, h, x, i);
                    if rotate {
                        *out.at_mut(fh - 1 - h, fw - 1 - x, o, i) = v;
                    } else {
                        *out.at_mut(h, x, i, o) = v;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_tensor::rotate_filter_180;

    #[test]
    fn forward_matches_manual_transform() {
        let t = WinogradTransform::generate(2, 3);
        let g = t.g.to_f64();
        let w = Tensor4::<f32>::random([3, 2, 3, 4], 50, -1.0, 1.0);
        let tw = TransformedFilter::forward(&w, &t);
        assert_eq!((tw.fh, tw.alpha, tw.ic, tw.oc), (2, 4, 4, 3));
        for h in 0..2 {
            for s in 0..4 {
                for i in 0..4 {
                    let row = tw.row(h, s, i);
                    for (o, &got) in row.iter().enumerate().take(3) {
                        let want: f64 = (0..3).map(|x| g[s * 3 + x] * w.at(o, h, x, i) as f64).sum();
                        assert!((got as f64 - want).abs() < 1e-6, "h{h} s{s} i{i} o{o}");
                    }
                }
            }
        }
    }

    #[test]
    fn deconv_transform_equals_forward_of_rotated_filter() {
        let t = WinogradTransform::generate(4, 5);
        let w = Tensor4::<f32>::random([3, 5, 5, 2], 51, -1.0, 1.0);
        let fused = TransformedFilter::deconv(&w, &t);
        let rotated = rotate_filter_180(&w); // IC×FH×FW×OC
        let plain = TransformedFilter::forward(&rotated, &t);
        assert_eq!((fused.ic, fused.oc), (plain.ic, plain.oc));
        for h in 0..5 {
            for s in 0..t.alpha {
                for i in 0..fused.ic {
                    let a = fused.row(h, s, i);
                    let b = plain.row(h, s, i);
                    for (x, y) in a.iter().zip(b) {
                        assert!((x - y).abs() < 1e-6);
                    }
                }
            }
        }
    }

    #[test]
    fn hwio_rotate_matches_tensor_helper() {
        let w = Tensor4::<f32>::random([2, 3, 4, 5], 52, -1.0, 1.0);
        let got = filter_hwio(&w, true);
        let rot = rotate_filter_180(&w); // IC×FH×FW×OC
        let want = filter_hwio(&rot, false);
        assert_eq!(got.dims(), want.dims());
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn bytes_accounting() {
        let t = WinogradTransform::generate(6, 3);
        let w = Tensor4::<f32>::random([8, 3, 3, 4], 53, -1.0, 1.0);
        let tw = TransformedFilter::forward(&w, &t);
        assert_eq!(tw.bytes(), 3 * 8 * 4 * 8 * 4);
    }
}
