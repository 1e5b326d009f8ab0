//! The ND extension (§4.2): 3-D Im2col-Winograd convolution.
//!
//! "Im2col-Winograd can be applied to ND convolution, by expanding Stage1
//! Im2col to ND, while remaining Stage2 unchanged." Concretely: a 3-D
//! convolution decomposes into `FD × FH` 1-D convolutions along the width
//! axis, and the element-wise products accumulate in the Winograd domain
//! over `(fd, fh, ic)` before the single per-tile output transform.
//!
//! This module adds no row loop of its own. A 3-D filter `OC×FD×FH×FW×IC` is
//! laid out like the 2-D filter `OC×(FD·FH)×FW×IC`, so the 2-D filter
//! transforms and the plan-time packed GEMM remainder serve it unchanged,
//! and [`conv3d`] runs [`PreparedConv`]'s row pass with a depth axis: the
//! only ND code is that row plan (the ND im2col index mapping).
//!
//! 2-D Winograd cannot scale here at all: `F(n×n×n, r×r×r)` would need `α³`
//! states (4096 for α = 16).

use crate::conv::{Depth, PreparedConv};
use crate::error::{check_shape, expect_dims, ConvError};
use crate::{ConvOptions, Epilogue};
use iwino_gemm::AllocScratch;
use iwino_tensor::{Conv3dShape, ConvShape, Tensor4, Tensor5};

/// Unit-stride 3-D convolution: `x` is `N×ID×IH×IW×IC` NDHWC, `w` is
/// `OC×FD×FH×FW×IC`; returns `N×OD×OH×OW×OC`. Mismatched operand dims
/// return [`ConvError::ShapeMismatch`], and a filter larger than the padded
/// input on any axis [`ConvError::InvalidShape`] (naming the `H×W` slice).
pub fn conv3d(
    x: &Tensor5<f32>,
    w: &Tensor5<f32>,
    shape: &Conv3dShape,
    opts: &ConvOptions,
) -> Result<Tensor5<f32>, ConvError> {
    let s = *shape;
    let slice = ConvShape::unit(s.n, s.ih, s.iw, s.ic, s.oc, s.fh, s.fw, s.ph, s.pw);
    check_shape(&slice)?;
    if s.fd > s.id + 2 * s.pd {
        return Err(ConvError::InvalidShape {
            shape: Box::new(slice),
            reason: "filter deeper than padded input",
        });
    }
    expect_dims("input", x.dims(), s.x_dims())?;
    expect_dims("filter", w.dims(), s.w_dims())?;
    // The same bytes as the 2-D filter OC×(FD·FH)×FW×IC.
    let planes = Tensor4::from_vec([s.oc, s.fd * s.fh, s.fw, s.ic], w.as_slice().to_vec());
    let depth = Depth {
        id: s.id,
        fd: s.fd,
        pd: s.pd,
    };
    let prep = PreparedConv::build(&planes, slice, depth, opts, false);
    let mut y = Tensor5::<f32>::zeros(s.y_dims());
    prep.run(x.as_slice(), y.as_mut_slice(), &Epilogue::None, &AllocScratch);
    Ok(y)
}

/// Direct 3-D convolution reference (f64 accumulators over f32 inputs).
pub fn direct_conv3d_f64(x: &Tensor5<f32>, w: &Tensor5<f32>, s: &Conv3dShape) -> Tensor5<f64> {
    let (od, oh, ow) = (s.od(), s.oh(), s.ow());
    let mut y = Tensor5::<f64>::zeros(s.y_dims());
    for b in 0..s.n {
        for oz in 0..od {
            for oy in 0..oh {
                for ox in 0..ow {
                    for o in 0..s.oc {
                        let mut acc = 0.0f64;
                        for fd in 0..s.fd {
                            let iz = oz as isize + fd as isize - s.pd as isize;
                            if iz < 0 || iz >= s.id as isize {
                                continue;
                            }
                            for fh in 0..s.fh {
                                let iy = oy as isize + fh as isize - s.ph as isize;
                                if iy < 0 || iy >= s.ih as isize {
                                    continue;
                                }
                                for fx in 0..s.fw {
                                    let ix = ox as isize + fx as isize - s.pw as isize;
                                    if ix < 0 || ix >= s.iw as isize {
                                        continue;
                                    }
                                    for i in 0..s.ic {
                                        acc += x.at(b, iz as usize, iy as usize, ix as usize, i) as f64
                                            * w.at(o, fd, fh, fx, i) as f64;
                                    }
                                }
                            }
                        }
                        *y.at_mut(b, oz, oy, ox, o) = acc;
                    }
                }
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::GammaSpec;
    use crate::Variant;

    fn max_err(got: &Tensor5<f32>, want: &Tensor5<f64>) -> f64 {
        got.as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(&g, &w)| ((g as f64) - w).abs() / (w.abs() + 1.0))
            .fold(0.0, f64::max)
    }

    #[test]
    fn conv3d_matches_direct_r3() {
        let s = Conv3dShape::cube(1, 8, 3, 4, 3);
        let x = Tensor5::<f32>::random(s.x_dims(), 1, -1.0, 1.0);
        let w = Tensor5::<f32>::random(s.w_dims(), 2, -1.0, 1.0);
        let got = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap();
        let want = direct_conv3d_f64(&x, &w, &s);
        let e = max_err(&got, &want);
        assert!(e < 5e-4, "{e}");
        assert_eq!(got.dims(), s.y_dims());
    }

    #[test]
    fn conv3d_matches_direct_varied_widths() {
        for r in [2usize, 4, 5] {
            let s = Conv3dShape::cube(1, 7, 2, 3, r);
            let x = Tensor5::<f32>::random(s.x_dims(), 10 + r as u64, -1.0, 1.0);
            let w = Tensor5::<f32>::random(s.w_dims(), 20 + r as u64, -1.0, 1.0);
            let got = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap();
            let want = direct_conv3d_f64(&x, &w, &s);
            let e = max_err(&got, &want);
            assert!(e < 5e-4, "r = {r}: {e}");
        }
    }

    #[test]
    fn conv3d_anisotropic_filter() {
        // FD ≠ FH ≠ FW: only the width is constrained by the 1-D Winograd.
        let s = Conv3dShape {
            n: 1,
            id: 6,
            ih: 7,
            iw: 11,
            ic: 2,
            oc: 3,
            fd: 2,
            fh: 4,
            fw: 3,
            pd: 0,
            ph: 2,
            pw: 1,
        };
        let x = Tensor5::<f32>::random(s.x_dims(), 31, -1.0, 1.0);
        let w = Tensor5::<f32>::random(s.w_dims(), 32, -1.0, 1.0);
        let got = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap();
        let want = direct_conv3d_f64(&x, &w, &s);
        let e = max_err(&got, &want);
        assert!(e < 5e-4, "{e}");
    }

    #[test]
    fn conv3d_forced_kernel_with_boundary() {
        let spec = GammaSpec::new(8, 6, 3, Variant::Standard);
        let opts = ConvOptions {
            force_kernels: Some(vec![spec]),
            ..Default::default()
        };
        // OW = 13: Γ8(6,3) ×2 tiles + remainder.
        let s = Conv3dShape {
            iw: 13,
            ..Conv3dShape::cube(1, 8, 2, 2, 3)
        };
        let x = Tensor5::<f32>::random(s.x_dims(), 41, -1.0, 1.0);
        let w = Tensor5::<f32>::random(s.w_dims(), 42, -1.0, 1.0);
        let got = conv3d(&x, &w, &s, &opts).unwrap();
        let want = direct_conv3d_f64(&x, &w, &s);
        let e = max_err(&got, &want);
        assert!(e < 5e-4, "{e}");
    }

    #[test]
    fn conv3d_ruse_variant() {
        let spec = GammaSpec::new(8, 4, 5, Variant::Ruse);
        let opts = ConvOptions {
            force_kernels: Some(vec![spec]),
            ..Default::default()
        };
        let s = Conv3dShape::cube(1, 8, 3, 3, 5);
        let x = Tensor5::<f32>::random(s.x_dims(), 51, -1.0, 1.0);
        let w = Tensor5::<f32>::random(s.w_dims(), 52, -1.0, 1.0);
        let got = conv3d(&x, &w, &s, &opts).unwrap();
        let want = direct_conv3d_f64(&x, &w, &s);
        let e = max_err(&got, &want);
        assert!(e < 1e-3, "{e}");
    }
}
