//! Bitwise pins of the indirect GEMM against a materialised im2col
//! reference, over indirection-table geometry: padding rows hitting the
//! zero-row, `OW < NR` edge tiles, `K = FH·FW·IC` straddling the GEMM's KC
//! chunk, asymmetric strides and pads. The reference builds the full
//! `N·OH·OW × K` patch matrix and multiplies it by the HWIO filter with
//! `sgemm_naive`; the packed GEMM performs the same ascending-k operation
//! sequence per element, so the indirect output must match it **bitwise**.
//! check.sh runs this net on both dispatch lanes (native and
//! `IWINO_FORCE_SCALAR=1`).

mod common;

use iwino_baselines::sgemm_naive;
use iwino_indirect::indirect_conv;
use iwino_tensor::{transpose_filter_to_hwio, ConvShape, Tensor4};
use proptest::prelude::*;

/// `im2col(x) · W` with the HWIO-flattened filter.
fn im2col_reference(x: &Tensor4<f32>, w: &Tensor4<f32>, s: &ConvShape) -> Vec<f32> {
    let (rows, k) = (s.n * s.oh() * s.ow(), s.fh * s.fw * s.ic);
    let mut y = vec![0.0f32; rows * s.oc];
    sgemm_naive(
        rows,
        s.oc,
        k,
        &common::im2col_patch(x, s),
        transpose_filter_to_hwio(w).as_slice(),
        &mut y,
    );
    y
}

#[test]
fn matches_im2col_bitwise_across_strides() {
    for s in [
        ConvShape::square(2, 9, 3, 5, 3),
        ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 11, 4, 7, 3)
        },
        ConvShape {
            sh: 3,
            sw: 3,
            ..ConvShape::square(2, 13, 2, 4, 5)
        },
        ConvShape {
            sh: 2,
            sw: 3,
            ..ConvShape::square(1, 12, 3, 8, 3)
        },
    ] {
        let x = Tensor4::<f32>::random(s.x_dims(), 91, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 92, -1.0, 1.0);
        let got = indirect_conv(&x, &w, &s);
        let want = im2col_reference(&x, &w, &s);
        assert_eq!(got.dims(), s.y_dims());
        for (i, (a, b)) in got.as_slice().iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{s:?} idx {i}: {a:?} vs im2col {b:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn indirect_bitwise_matches_im2col_over_geometry(
        n in 1usize..3,
        ih in 5usize..14,
        iw in 5usize..14,
        // 29 and 64 push K = FH·FW·IC past KC = 256 for 3×3 and 5×5 taps.
        ici in 0usize..4,
        oci in 0usize..3,
        ri in 0usize..3,
        sh in 1usize..4,
        sw in 1usize..4,
        ph in 0usize..3,
        pw in 0usize..3,
        seed in 0u64..500,
    ) {
        let ic = [1usize, 3, 29, 64][ici];
        let oc = [1usize, 5, 17][oci];
        let r = [1usize, 3, 5][ri];
        let s = ConvShape { n, ih, iw, ic, oc, fh: r, fw: r, ph, pw, sh, sw };
        prop_assume!(ih + 2 * ph >= r && iw + 2 * pw >= r);
        let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let got = indirect_conv(&x, &w, &s);
        let want = im2col_reference(&x, &w, &s);
        prop_assert_eq!(got.dims(), s.y_dims());
        for (i, (a, b)) in got.as_slice().iter().zip(&want).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "{:?} idx {}: {:?} vs im2col {:?}", s, i, a, b
            );
        }
    }
}
