//! Layout transformations: filter transposition (§5.1), 180° filter rotation
//! (deconvolution, §5.1), and NHWC ⇄ NCHW conversion (baseline comparisons).

use crate::{Scalar, Tensor4};

/// Transpose filters from the native `OC×FH×FW×IC` layout to the
/// `FH×FW×IC×OC` layout the forward kernels consume (§5.1: "filters are
/// transposed into FH×FW×IC×OC format, to achieve more vectorized and
/// continuous data loads").
pub fn transpose_filter_to_hwio<T: Scalar>(w: &Tensor4<T>) -> Tensor4<T> {
    let [oc, fh, fw, ic] = w.dims();
    let mut out = Tensor4::zeros([fh, fw, ic, oc]);
    for o in 0..oc {
        for h in 0..fh {
            for x in 0..fw {
                for i in 0..ic {
                    *out.at_mut(h, x, i, o) = w.at(o, h, x, i);
                }
            }
        }
    }
    out
}

/// Rotate a filter bank by 180° in the spatial axes and swap the channel
/// roles (`OC×FH×FW×IC → IC×FH×FW×OC` with reversed `fh`/`fw`). This is the
/// filter used by deconvolution / backward-data: the paper folds this
/// rotation into the filter transformation (§5.1); this standalone version
/// is the reference the fused path is tested against.
pub fn rotate_filter_180<T: Scalar>(w: &Tensor4<T>) -> Tensor4<T> {
    let [oc, fh, fw, ic] = w.dims();
    let mut out = Tensor4::zeros([ic, fh, fw, oc]);
    for o in 0..oc {
        for h in 0..fh {
            for x in 0..fw {
                for i in 0..ic {
                    *out.at_mut(i, fh - 1 - h, fw - 1 - x, o) = w.at(o, h, x, i);
                }
            }
        }
    }
    out
}

/// Convert a feature map from NHWC to NCHW.
pub fn nhwc_to_nchw<T: Scalar>(x: &Tensor4<T>) -> Tensor4<T> {
    let [n, h, w, c] = x.dims();
    let mut out = Tensor4::zeros([n, c, h, w]);
    for b in 0..n {
        for i in 0..h {
            for j in 0..w {
                for k in 0..c {
                    *out.at_mut(b, k, i, j) = x.at(b, i, j, k);
                }
            }
        }
    }
    out
}

/// Convert a feature map from NCHW to NHWC.
pub fn nchw_to_nhwc<T: Scalar>(x: &Tensor4<T>) -> Tensor4<T> {
    let [n, c, h, w] = x.dims();
    let mut out = Tensor4::zeros([n, h, w, c]);
    for b in 0..n {
        for k in 0..c {
            for i in 0..h {
                for j in 0..w {
                    *out.at_mut(b, i, j, k) = x.at(b, k, i, j);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_filter_moves_entries() {
        let mut w = Tensor4::<f32>::filter_ohwi(2, 3, 3, 4);
        *w.at_mut(1, 2, 0, 3) = 9.0;
        let t = transpose_filter_to_hwio(&w);
        assert_eq!(t.dims(), [3, 3, 4, 2]);
        assert_eq!(t.at(2, 0, 3, 1), 9.0);
    }

    #[test]
    fn rotate_180_twice_swaps_back() {
        let w = Tensor4::<f32>::random([3, 2, 5, 4], 7, -1.0, 1.0);
        let r = rotate_filter_180(&w);
        assert_eq!(r.dims(), [4, 2, 5, 3]);
        let rr = rotate_filter_180(&r);
        assert_eq!(rr, w);
    }

    #[test]
    fn rotate_180_entry_mapping() {
        let mut w = Tensor4::<f32>::filter_ohwi(1, 3, 3, 1);
        *w.at_mut(0, 0, 0, 0) = 5.0;
        let r = rotate_filter_180(&w);
        assert_eq!(r.at(0, 2, 2, 0), 5.0);
    }

    #[test]
    fn nhwc_nchw_roundtrip() {
        let x = Tensor4::<f32>::random([2, 3, 4, 5], 11, -2.0, 2.0);
        let nchw = nhwc_to_nchw(&x);
        assert_eq!(nchw.dims(), [2, 5, 3, 4]);
        assert_eq!(nchw_to_nhwc(&nchw), x);
        // Spot-check one entry.
        assert_eq!(nchw.at(1, 4, 2, 3), x.at(1, 2, 3, 4));
    }
}
