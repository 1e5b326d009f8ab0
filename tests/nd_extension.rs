//! Integration tests for the §4.2 ND extension: the 3-D path must reduce to
//! the 2-D path when the extra dimension is trivial, and hold up under the
//! same correctness regime.

use im2col_winograd::core::nd::{conv3d, direct_conv3d_f64};
use im2col_winograd::core::{conv2d, ConvError, ConvOptions, GammaSpec, Variant};
use im2col_winograd::tensor::{Conv3dShape, ConvShape, Tensor4, Tensor5};
use proptest::prelude::*;

/// `conv3d` with `FD = 1` and a single depth slice must equal `conv2d` bit
/// for bit: both run the same row pass over the same row plan.
#[test]
fn depth1_conv3d_equals_conv2d() {
    let (n, hw, ic, oc, r) = (2usize, 14usize, 5usize, 6usize, 3usize);
    let s2 = ConvShape::square(n, hw, ic, oc, r);
    let x2 = Tensor4::<f32>::random(s2.x_dims(), 900, -1.0, 1.0);
    let w2 = Tensor4::<f32>::random(s2.w_dims(), 901, -1.0, 1.0);
    let y2 = conv2d(&x2, &w2, &s2, &ConvOptions::default()).unwrap();

    // Same data viewed as a depth-1 volume with FD = 1 and pd = 0.
    let s3 = Conv3dShape {
        n,
        id: 1,
        ih: hw,
        iw: hw,
        ic,
        oc,
        fd: 1,
        fh: r,
        fw: r,
        pd: 0,
        ph: r / 2,
        pw: r / 2,
    };
    let x3 = Tensor5::from_vec(s3.x_dims(), x2.as_slice().to_vec());
    let w3 = Tensor5::from_vec(s3.w_dims(), w2.as_slice().to_vec());
    let y3 = conv3d(&x3, &w3, &s3, &ConvOptions::default()).unwrap();
    assert_eq!(y3.dims(), [n, 1, hw, hw, oc]);
    let differing = y3
        .as_slice()
        .iter()
        .zip(y2.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(differing, 0, "{differing} of {} outputs differ from conv2d", y2.len());
}

/// `0 · ∞ = NaN` must reach the output in every column, including the GEMM
/// remainder: OW = 3 is one Γ4(2,3) tile plus one remainder column.
#[test]
fn conv3d_inf_under_zero_input_is_nan() {
    let s = Conv3dShape {
        pd: 0,
        ph: 0,
        pw: 0,
        ..Conv3dShape::cube(1, 5, 2, 2, 3)
    };
    assert_eq!(s.ow(), 3);
    let x = Tensor5::<f32>::zeros(s.x_dims());
    let mut w = Tensor5::<f32>::zeros(s.w_dims());
    w.as_mut_slice()[0] = f32::INFINITY;
    let got = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap();
    let want = direct_conv3d_f64(&x, &w, &s);
    assert!(want.at(0, 0, 0, 2, 0).is_nan(), "the reference propagates 0·∞");
    for (i, (g, t)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.is_nan(), t.is_nan(), "output {i}: {g} vs reference {t}");
    }
}

/// Operands that disagree with the shape are typed errors, not panics.
#[test]
fn conv3d_wrong_filter_shape_is_an_error() {
    let s = Conv3dShape::cube(1, 6, 2, 3, 3);
    let x = Tensor5::<f32>::zeros(s.x_dims());
    let w = Tensor5::<f32>::zeros([3, 2, 3, 3, 2]);
    let e = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap_err();
    assert_eq!(
        e,
        ConvError::ShapeMismatch {
            what: "filter",
            got: vec![3, 2, 3, 3, 2],
            want: s.w_dims().to_vec(),
        }
    );
}

/// Energy check: zero input ⟹ zero output; delta input lights up exactly
/// the filter's 3-D footprint.
#[test]
fn conv3d_delta_footprint() {
    let s = Conv3dShape::cube(1, 7, 1, 1, 3);
    let mut x = Tensor5::<f32>::zeros(s.x_dims());
    *x.at_mut(0, 3, 3, 3, 0) = 1.0;
    let w = Tensor5::<f32>::random(s.w_dims(), 910, 0.5, 1.0);
    let y = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap();
    let mut nonzero = 0usize;
    for dz in 0..7 {
        for dy in 0..7 {
            for dx in 0..7 {
                let v = y.at(0, dz, dy, dx, 0);
                let inside = (2..=4).contains(&dz) && (2..=4).contains(&dy) && (2..=4).contains(&dx);
                if inside {
                    assert!(v.abs() > 1e-6, "expected energy at ({dz},{dy},{dx})");
                    nonzero += 1;
                } else {
                    assert!(v.abs() < 1e-6, "leakage at ({dz},{dy},{dx}): {v}");
                }
            }
        }
    }
    assert_eq!(nonzero, 27);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn random_volumes_match_direct(
        dhw in 4usize..9,
        ic in 1usize..5,
        oc in 1usize..5,
        r in 2usize..5,
        seed in 0u64..1000,
    ) {
        prop_assume!(dhw >= r);
        let s = Conv3dShape::cube(1, dhw, ic, oc, r);
        let x = Tensor5::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
        let w = Tensor5::<f32>::random(s.w_dims(), seed + 1, -1.0, 1.0);
        let got = conv3d(&x, &w, &s, &ConvOptions::default()).unwrap();
        let want = direct_conv3d_f64(&x, &w, &s);
        for (g, t) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!(((*g as f64) - t).abs() < 5e-4 * (t.abs() + 1.0), "{g} vs {t}");
        }
    }
}

/// Forcing an α = 16 kernel through the 3-D path works too.
#[test]
fn conv3d_alpha16_kernel() {
    let spec = GammaSpec::new(16, 8, 9, Variant::Standard);
    let opts = ConvOptions {
        force_kernels: Some(vec![spec]),
        ..Default::default()
    };
    let s = Conv3dShape {
        n: 1,
        id: 3,
        ih: 3,
        iw: 16,
        ic: 4,
        oc: 4,
        fd: 3,
        fh: 3,
        fw: 9,
        pd: 1,
        ph: 1,
        pw: 4,
    };
    let x = Tensor5::<f32>::random(s.x_dims(), 920, 1.0, 2.0);
    let w = Tensor5::<f32>::random(s.w_dims(), 921, 1.0, 2.0);
    let got = conv3d(&x, &w, &s, &opts).unwrap();
    let want = direct_conv3d_f64(&x, &w, &s);
    let mean: f64 = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(&g, &t)| ((g as f64) - t).abs() / t.abs().max(1e-12))
        .sum::<f64>()
        / want.len() as f64;
    assert!(mean < 1e-4, "mean rel err {mean}");
}
