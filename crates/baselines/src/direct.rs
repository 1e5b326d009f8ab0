//! Direct (schoolbook) convolution.
//!
//! `Y[b, oh, ow, oc] = Σ_{fh, fw, ic} X[b, oh·sh + fh − ph, ow·sw + fw − pw, ic] · W[oc, fh, fw, ic]`
//!
//! Out-of-range input coordinates contribute zero (implicit zero padding).
//! This is the semantic reference every other algorithm in the workspace is
//! tested against.

use iwino_obs as obs;
use iwino_parallel as par;
use iwino_tensor::{ConvShape, Scalar, Tensor4};

/// Direct convolution in scalar type `T` with `T` accumulators. Filter `w`
/// is in the native `OC×FH×FW×IC` layout. Parallelises over `N×OH` rows.
pub fn direct_conv<T: Scalar>(x: &Tensor4<T>, w: &Tensor4<T>, shape: &ConvShape) -> Tensor4<T> {
    check_shapes(x, w, shape);
    let _b = obs::span(obs::Stage::Baseline);
    obs::add(obs::Counter::Flops, shape.flops() as u64);
    let (oh, ow) = (shape.oh(), shape.ow());
    let mut y = Tensor4::<T>::zeros(shape.y_dims());
    let row_elems = ow * shape.oc;
    let xs = x.as_slice();
    let ws = w.as_slice();
    let s = *shape;
    {
        let parts = par::SliceParts::new(y.as_mut_slice(), row_elems);
        par::parallel_for(s.n * oh, &|row| {
            let out = parts.take(row);
            let b = row / oh;
            let oy = row % oh;
            conv_row(xs, ws, &s, b, oy, out);
        });
    }
    y
}

fn conv_row<T: Scalar>(xs: &[T], ws: &[T], s: &ConvShape, b: usize, oy: usize, out: &mut [T]) {
    let (iw, ic, oc) = (s.iw, s.ic, s.oc);
    let x_row_stride = iw * ic;
    let x_img_stride = s.ih * x_row_stride;
    let w_f_stride = s.fh * s.fw * ic;
    for ox in 0..s.ow() {
        let out_px = &mut out[ox * oc..(ox + 1) * oc];
        for o in 0..oc {
            let mut acc = T::ZERO;
            let wf = &ws[o * w_f_stride..(o + 1) * w_f_stride];
            for fh in 0..s.fh {
                let iy = (oy * s.sh + fh) as isize - s.ph as isize;
                if iy < 0 || iy >= s.ih as isize {
                    continue;
                }
                for fw in 0..s.fw {
                    let ix = (ox * s.sw + fw) as isize - s.pw as isize;
                    if ix < 0 || ix >= iw as isize {
                        continue;
                    }
                    let x_base = b * x_img_stride + iy as usize * x_row_stride + ix as usize * ic;
                    let w_base = (fh * s.fw + fw) * ic;
                    for i in 0..ic {
                        acc = acc.mul_add_(xs[x_base + i], wf[w_base + i]);
                    }
                }
            }
            out_px[o] = acc;
        }
    }
}

/// Ground-truth convolution: casts f32 inputs to f64, convolves with f64
/// accumulators, and returns the f64 result (Experiment 2's reference).
pub fn direct_conv_f64_ref(x: &Tensor4<f32>, w: &Tensor4<f32>, shape: &ConvShape) -> Tensor4<f64> {
    let x64 = x.cast::<f64>();
    let w64 = w.cast::<f64>();
    direct_conv(&x64, &w64, shape)
}

/// Direct backward-data for arbitrary stride: scatter-free gather form —
/// `dx[b, iy, ix, ic] = Σ_{oc, fh, fw} dy[b, oy, ox, oc] · w[oc, fh, fw, ic]`
/// over the `(oy, ox)` that map onto `(iy, ix)`. The schoolbook reference
/// for backward-data; the engine runs it only when `direct` is forced.
pub fn direct_backward_data(dy: &Tensor4<f32>, w: &Tensor4<f32>, s: &ConvShape) -> Tensor4<f32> {
    let (oh, ow) = (s.oh(), s.ow());
    let _b = obs::span(obs::Stage::Baseline);
    let mut dx = Tensor4::<f32>::zeros(s.x_dims());
    let dys = dy.as_slice();
    let ws = w.as_slice();
    let row_elems = s.iw * s.ic;
    let parts = par::SliceParts::new(dx.as_mut_slice(), row_elems);
    par::parallel_for(s.n * s.ih, &|row| {
        let out = parts.take(row);
        let b = row / s.ih;
        let iy = row % s.ih;
        let dy_img = &dys[b * oh * ow * s.oc..(b + 1) * oh * ow * s.oc];
        for fh in 0..s.fh {
            // iy = oy·sh + fh − ph  ⟹  oy = (iy + ph − fh) / sh.
            let num = iy as isize + s.ph as isize - fh as isize;
            if num < 0 || !(num as usize).is_multiple_of(s.sh) {
                continue;
            }
            let oy = num as usize / s.sh;
            if oy >= oh {
                continue;
            }
            let dy_row = &dy_img[oy * ow * s.oc..(oy + 1) * ow * s.oc];
            for ix in 0..s.iw {
                let dst = &mut out[ix * s.ic..(ix + 1) * s.ic];
                for fw in 0..s.fw {
                    let num = ix as isize + s.pw as isize - fw as isize;
                    if num < 0 || !(num as usize).is_multiple_of(s.sw) {
                        continue;
                    }
                    let ox = num as usize / s.sw;
                    if ox >= ow {
                        continue;
                    }
                    let dy_px = &dy_row[ox * s.oc..(ox + 1) * s.oc];
                    for (o, &g) in dy_px.iter().enumerate() {
                        if g == 0.0 {
                            continue;
                        }
                        let wrow = &ws[((o * s.fh + fh) * s.fw + fw) * s.ic..((o * s.fh + fh) * s.fw + fw + 1) * s.ic];
                        for (d, &wv) in dst.iter_mut().zip(wrow) {
                            *d += g * wv;
                        }
                    }
                }
            }
        }
    });
    dx
}

fn check_shapes<T: Scalar>(x: &Tensor4<T>, w: &Tensor4<T>, s: &ConvShape) {
    assert_eq!(x.dims(), s.x_dims(), "input dims mismatch");
    assert_eq!(w.dims(), s.w_dims(), "filter dims mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1×1 image, 1×1 filter: conv is a dot product over channels.
    #[test]
    fn pointwise() {
        let s = ConvShape::unit(1, 1, 1, 3, 2, 1, 1, 0, 0);
        let x = Tensor4::from_vec(s.x_dims(), vec![1.0f32, 2.0, 3.0]);
        let w = Tensor4::from_vec(s.w_dims(), vec![1.0, 0.0, 0.0, 0.5, 0.5, 0.5]);
        let y = direct_conv(&x, &w, &s);
        assert_eq!(y.as_slice(), &[1.0, 3.0]);
    }

    /// Hand-computed 1D example embedded in 2D: F-like correlation.
    #[test]
    fn correlation_semantics() {
        // 1×4 input, 1×3 filter, no padding ⟹ 2 outputs: y_i = Σ g_j x_{i+j}.
        let s = ConvShape::unit(1, 1, 4, 1, 1, 1, 3, 0, 0);
        let x = Tensor4::from_vec(s.x_dims(), vec![1.0f32, 2.0, 3.0, 4.0]);
        let w = Tensor4::from_vec(s.w_dims(), vec![10.0, 20.0, 30.0]);
        let y = direct_conv(&x, &w, &s);
        assert_eq!(
            y.as_slice(),
            &[
                1.0 * 10.0 + 2.0 * 20.0 + 3.0 * 30.0,
                2.0 * 10.0 + 3.0 * 20.0 + 4.0 * 30.0
            ]
        );
    }

    #[test]
    fn padding_zeros_outside() {
        // 1×1 input, 1×3 filter, pw = 1 ⟹ output width 1, only centre tap hits.
        let s = ConvShape::unit(1, 1, 1, 1, 1, 1, 3, 0, 1);
        let x = Tensor4::from_vec(s.x_dims(), vec![5.0f32]);
        let w = Tensor4::from_vec(s.w_dims(), vec![100.0, 7.0, 100.0]);
        let y = direct_conv(&x, &w, &s);
        assert_eq!(y.as_slice(), &[35.0]);
    }

    #[test]
    fn stride_two_subsamples() {
        let s = ConvShape {
            sh: 1,
            sw: 2,
            ..ConvShape::unit(1, 1, 5, 1, 1, 1, 1, 0, 0)
        };
        let x = Tensor4::from_vec(s.x_dims(), vec![1.0f32, 2.0, 3.0, 4.0, 5.0]);
        let w = Tensor4::from_vec(s.w_dims(), vec![1.0]);
        let y = direct_conv(&x, &w, &s);
        assert_eq!(y.as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn f64_ref_matches_f32_closely_on_small_input() {
        let s = ConvShape::square(2, 8, 4, 4, 3);
        let x = Tensor4::<f32>::random(s.x_dims(), 1, 1.0, 2.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 2, 1.0, 2.0);
        let y32 = direct_conv(&x, &w, &s);
        let y64 = direct_conv_f64_ref(&x, &w, &s);
        let stats = iwino_tensor::ErrorStats::between(&y32, &y64);
        assert!(stats.mean < 1e-6, "{stats:?}");
        assert_eq!(y64.dims(), s.y_dims());
    }

    #[test]
    fn batch_entries_are_independent() {
        let s = ConvShape::square(2, 4, 2, 2, 3);
        let mut x = Tensor4::<f32>::zeros(s.x_dims());
        // Only batch 1 has data.
        *x.at_mut(1, 2, 2, 0) = 1.0;
        let w = Tensor4::<f32>::random(s.w_dims(), 3, 1.0, 2.0);
        let y = direct_conv(&x, &w, &s);
        for oy in 0..4 {
            for ox in 0..4 {
                for o in 0..2 {
                    assert_eq!(y.at(0, oy, ox, o), 0.0);
                }
            }
        }
        assert!(y.at(1, 2, 2, 0) != 0.0);
    }
}
