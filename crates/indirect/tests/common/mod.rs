//! The materialised im2col patch matrix both test binaries pin against.

use iwino_tensor::{ConvShape, Tensor4};

/// `im2col(x)`: one row per output pixel (`N·OH·OW` rows), `K = FH·FW·IC`
/// columns ordered `(fh, fw, ic)` to match the HWIO flattening, zeros
/// under padding.
pub fn im2col_patch(x: &Tensor4<f32>, s: &ConvShape) -> Vec<f32> {
    let (oh, ow, k) = (s.oh(), s.ow(), s.fh * s.fw * s.ic);
    let mut patch = vec![0.0f32; s.n * oh * ow * k];
    for (row, p) in patch.chunks_exact_mut(k).enumerate() {
        let (b, oy, ox) = (row / (oh * ow), row / ow % oh, row % ow);
        for fy in 0..s.fh {
            for fx in 0..s.fw {
                let iy = (oy * s.sh + fy) as isize - s.ph as isize;
                let ix = (ox * s.sw + fx) as isize - s.pw as isize;
                if iy < 0 || ix < 0 || iy >= s.ih as isize || ix >= s.iw as isize {
                    continue;
                }
                for i in 0..s.ic {
                    p[(fy * s.fw + fx) * s.ic + i] = x.at(b, iy as usize, ix as usize, i);
                }
            }
        }
    }
    patch
}
