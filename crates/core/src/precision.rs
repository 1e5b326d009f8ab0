//! Precision study: an f64 execution of the Im2col-Winograd algorithm.
//!
//! §6.2.2 attributes `Γ16`'s ~1e-5 relative error to the *datatype*, not
//! the algorithm: "With the increase of α, the items in transform matrices
//! of F(n,r) exhibit a larger disparity in their magnitudes. Such disparity
//! can negatively impact accuracy, when it surpasses the precision of a
//! specific datatype."
//!
//! [`conv2d_f64`] runs the identical decomposition — 1-D Winograd along the
//! width, Winograd-domain accumulation over `(fh, ic)` — in f64, and
//! [`error_decomposition`] splits the observed f32 error into an
//! *algorithmic* component (f64-Winograd vs f64-direct: ≈ machine epsilon,
//! the algorithm is exact) and a *datatype* component (f32-Winograd vs
//! f64-Winograd: the Table 3 numbers). This is the cleanest evidence the
//! reproduction can give that the paper's accuracy analysis is right.

use crate::conv::{conv2d, ConvOptions};
use crate::plan::GammaSpec;
use iwino_tensor::{ConvShape, ErrorStats, Tensor4};
use iwino_transforms::WinogradTransform;

/// Im2col-Winograd convolution executed in f64 (reference-grade, unblocked;
/// for analysis, not speed). Uses a single `F(n, r)` across the width with
/// per-column direct fallback for the remainder.
pub fn conv2d_f64(x: &Tensor4<f64>, w: &Tensor4<f64>, shape: &ConvShape, spec: GammaSpec) -> Tensor4<f64> {
    let s = *shape;
    assert!(s.is_unit_stride());
    assert_eq!(x.dims(), s.x_dims());
    assert_eq!(w.dims(), s.w_dims());
    let (oh, ow) = (s.oh(), s.ow());
    let t = WinogradTransform::generate(spec.n, spec.r);
    assert_eq!(spec.r, s.fw, "kernel width must match filter width");
    let alpha = t.alpha;
    let n = t.n;
    let g = t.g.to_f64();
    let dt = t.dt.to_f64();
    let at = t.at.to_f64();

    // Transformed filters: TW[fh][s][ic][oc].
    let mut tw = vec![0.0f64; s.fh * alpha * s.ic * s.oc];
    for o in 0..s.oc {
        for fh in 0..s.fh {
            for st in 0..alpha {
                for i in 0..s.ic {
                    let mut acc = 0.0;
                    for fx in 0..s.fw {
                        acc += g[st * s.fw + fx] * w.at(o, fh, fx, i);
                    }
                    tw[((fh * alpha + st) * s.ic + i) * s.oc + o] = acc;
                }
            }
        }
    }

    let tiles = ow / n;
    let mut y = Tensor4::<f64>::zeros(s.y_dims());
    let mut xt = vec![0.0f64; alpha];
    let mut tx = vec![0.0f64; alpha];
    let mut acc = vec![0.0f64; alpha];
    for b in 0..s.n {
        for oy in 0..oh {
            for o in 0..s.oc {
                // Winograd-covered tiles.
                for tdx in 0..tiles {
                    acc.fill(0.0);
                    for fh in 0..s.fh {
                        let iy = oy as isize + fh as isize - s.ph as isize;
                        if iy < 0 || iy >= s.ih as isize {
                            continue;
                        }
                        for i in 0..s.ic {
                            for (k, slot) in xt.iter_mut().enumerate() {
                                let px = (tdx * n + k) as isize - s.pw as isize;
                                *slot = if px >= 0 && (px as usize) < s.iw {
                                    x.at(b, iy as usize, px as usize, i)
                                } else {
                                    0.0
                                };
                            }
                            for st in 0..alpha {
                                let mut v = 0.0;
                                for k in 0..alpha {
                                    v += dt[st * alpha + k] * xt[k];
                                }
                                tx[st] = v;
                            }
                            for st in 0..alpha {
                                acc[st] += tx[st] * tw[((fh * alpha + st) * s.ic + i) * s.oc + o];
                            }
                        }
                    }
                    for j in 0..n {
                        let mut v = 0.0;
                        for st in 0..alpha {
                            v += at[j * alpha + st] * acc[st];
                        }
                        *y.at_mut(b, oy, tdx * n + j, o) = v;
                    }
                }
                // Direct remainder columns.
                for ox in tiles * n..ow {
                    let mut v = 0.0;
                    for fh in 0..s.fh {
                        let iy = oy as isize + fh as isize - s.ph as isize;
                        if iy < 0 || iy >= s.ih as isize {
                            continue;
                        }
                        for fx in 0..s.fw {
                            let px = ox as isize + fx as isize - s.pw as isize;
                            if px < 0 || px >= s.iw as isize {
                                continue;
                            }
                            for i in 0..s.ic {
                                v += x.at(b, iy as usize, px as usize, i) * w.at(o, fh, fx, i);
                            }
                        }
                    }
                    *y.at_mut(b, oy, ox, o) = v;
                }
            }
        }
    }
    y
}

/// The two error components of the f32 kernel on one shape.
#[derive(Clone, Copy, Debug)]
pub struct ErrorDecomposition {
    /// f64-Winograd vs f64-direct: the algorithm's own error (≈ ulps).
    pub algorithmic: f64,
    /// f32-Winograd vs f64-Winograd: the datatype-induced error.
    pub datatype: f64,
    /// f32-Winograd vs f64-direct: the total (what Table 3 reports).
    pub total: f64,
}

/// Decompose the error of `spec` on a uniform-[1,2) workload of `shape`.
pub fn error_decomposition(shape: &ConvShape, spec: GammaSpec, seed: u64) -> ErrorDecomposition {
    let x32 = Tensor4::<f32>::random(shape.x_dims(), seed, 1.0, 2.0);
    let w32 = Tensor4::<f32>::random(shape.w_dims(), seed + 1, 1.0, 2.0);
    let x64 = x32.cast::<f64>();
    let w64 = w32.cast::<f64>();

    let direct64 = {
        // Direct f64 convolution (inline to avoid a baselines dependency).
        let s = *shape;
        let mut y = Tensor4::<f64>::zeros(s.y_dims());
        for b in 0..s.n {
            for oy in 0..s.oh() {
                for ox in 0..s.ow() {
                    for o in 0..s.oc {
                        let mut acc = 0.0f64;
                        for fh in 0..s.fh {
                            let iy = oy as isize + fh as isize - s.ph as isize;
                            if iy < 0 || iy >= s.ih as isize {
                                continue;
                            }
                            for fx in 0..s.fw {
                                let px = ox as isize + fx as isize - s.pw as isize;
                                if px < 0 || px >= s.iw as isize {
                                    continue;
                                }
                                for i in 0..s.ic {
                                    acc += x64.at(b, iy as usize, px as usize, i) * w64.at(o, fh, fx, i);
                                }
                            }
                        }
                        *y.at_mut(b, oy, ox, o) = acc;
                    }
                }
            }
        }
        y
    };
    let wino64 = conv2d_f64(&x64, &w64, shape, spec);
    let opts = ConvOptions {
        force_kernels: Some(vec![spec]),
        ..Default::default()
    };
    let wino32 = conv2d(&x32, &w32, shape, &opts).unwrap();

    ErrorDecomposition {
        algorithmic: ErrorStats::between(&wino64, &direct64).mean,
        datatype: ErrorStats::between(&wino32, &wino64).mean,
        total: ErrorStats::between(&wino32, &direct64).mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;

    #[test]
    fn f64_winograd_is_algorithmically_exact() {
        // Even Γ16's wild transform magnitudes are fine in f64: the
        // algorithm error sits ~7 orders below the f32 datatype error.
        for (alpha, n, r) in [(8usize, 6usize, 3usize), (16, 8, 9)] {
            let spec = GammaSpec::new(alpha, n, r, Variant::Standard);
            let shape = ConvShape::square(1, 2 * n, 8, 8, r);
            let d = error_decomposition(&shape, spec, 600 + alpha as u64);
            assert!(
                d.algorithmic < 1e-11,
                "Γ{alpha}({n},{r}): algo err {:.2e}",
                d.algorithmic
            );
            assert!(d.datatype > 100.0 * d.algorithmic, "{d:?}");
            assert!(
                (d.total - d.datatype).abs() < 0.5 * d.total.max(1e-12),
                "total ≈ datatype component: {d:?}"
            );
        }
    }

    #[test]
    fn datatype_error_grows_with_alpha() {
        // The §6.2.2 mechanism: same workload, bigger α ⟹ bigger f32 error.
        let d8 = error_decomposition(
            &ConvShape::square(1, 12, 8, 8, 3),
            GammaSpec::new(8, 6, 3, Variant::Standard),
            700,
        );
        let d16 = error_decomposition(
            &ConvShape::square(1, 16, 8, 8, 9),
            GammaSpec::new(16, 8, 9, Variant::Standard),
            701,
        );
        assert!(d16.datatype > 3.0 * d8.datatype, "Γ16 {d16:?} vs Γ8 {d8:?}");
    }

    #[test]
    fn f64_path_handles_boundary_remainder() {
        let spec = GammaSpec::new(8, 6, 3, Variant::Standard);
        // OW = 13: 2 tiles + 1 remainder column via the direct path.
        let shape = ConvShape::square(1, 13, 4, 4, 3);
        let x = Tensor4::<f64>::random(shape.x_dims(), 710, -1.0, 1.0);
        let w = Tensor4::<f64>::random(shape.w_dims(), 711, -1.0, 1.0);
        let y = conv2d_f64(&x, &w, &shape, spec);
        assert_eq!(y.dims(), shape.y_dims());
        // Spot-check one boundary column against a manual sum.
        let (b, oy, ox, o) = (0usize, 5usize, 12usize, 2usize);
        let mut want = 0.0f64;
        for fh in 0..3usize {
            let iy = oy + fh;
            let iy = iy as isize - 1;
            if !(0..13).contains(&iy) {
                continue;
            }
            for fx in 0..3usize {
                let px = ox as isize + fx as isize - 1;
                if !(0..13).contains(&px) {
                    continue;
                }
                for i in 0..4 {
                    want += x.at(b, iy as usize, px as usize, i) * w.at(o, fh, fx, i);
                }
            }
        }
        assert!((y.at(b, oy, ox, o) - want).abs() < 1e-12);
    }
}
