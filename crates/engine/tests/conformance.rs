//! Shared conformance net: every registered backend, driven purely through
//! the registry, must agree with the f64 direct reference on every shape it
//! claims to support.

use iwino_core::Epilogue;
use iwino_engine::{Engine, FilterId, BACKEND_NAMES};
use iwino_tensor::{ConvShape, Tensor4};

fn shapes() -> Vec<ConvShape> {
    vec![
        // Unit-stride 3×3 — both backends are eligible here.
        ConvShape::square(2, 10, 3, 5, 3),
        // Unit-stride, wider filter.
        ConvShape::square(1, 12, 4, 3, 5),
        // Even filter width.
        ConvShape::square(1, 9, 2, 4, 2),
        // No padding.
        ConvShape::unit(1, 7, 11, 3, 4, 3, 3, 0, 0),
        // Strided: only the indirect GEMM remains.
        ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 11, 3, 4, 3)
        },
        // Stride 3 with a wider filter — exercises the indirection table's
        // sparser gather pattern.
        ConvShape {
            sh: 3,
            sw: 3,
            ..ConvShape::square(1, 13, 2, 4, 5)
        },
        // Asymmetric stride (2×3): OH ≠ OW, and the table's row/column
        // geometry diverge.
        ConvShape {
            sh: 2,
            sw: 3,
            ..ConvShape::square(2, 12, 3, 5, 3)
        },
    ]
}

#[test]
fn every_backend_matches_f64_direct_reference() {
    let eng = Engine::new();
    let mut covered = vec![0usize; BACKEND_NAMES.len()];
    for (si, s) in shapes().iter().enumerate() {
        let x = Tensor4::<f32>::random(s.x_dims(), 100 + si as u64, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 200 + si as u64, -1.0, 1.0);
        let want = iwino_baselines::direct_conv_f64_ref(&x, &w, s);
        for (bi, name) in BACKEND_NAMES.iter().enumerate() {
            let algo = eng.algorithm(name).unwrap();
            if !algo.supports(s) {
                continue;
            }
            let filter = FilterId {
                owner: 1,
                epoch: si as u64,
            };
            let y = eng
                .conv_with(&algo, filter, &x, &w, s, &Epilogue::None)
                .unwrap_or_else(|e| panic!("{name} on {s:?}: {e}"));
            let err = iwino_tensor::max_mixed_error(&y, &want);
            assert!(err < 1e-3, "{name} on {s:?}: max error {err}");
            covered[bi] += 1;
        }
    }
    // Every registered backend must have been exercised at least once —
    // a backend whose `supports` rejects everything would silently pass.
    for (name, n) in BACKEND_NAMES.iter().zip(&covered) {
        assert!(*n > 0, "backend {name} was never exercised");
    }
}

#[test]
fn fused_epilogue_matches_post_applied_reference() {
    // The winograd backend fuses the epilogue into the row pass; the
    // indirect GEMM applies it after. Both must compute the reference
    // convolution with the epilogue post-applied, on unit-stride and
    // strided shapes alike.
    let eng = Engine::new();
    let strided = ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, 9, 3, 6, 3)
    };
    let cases = [
        (
            ConvShape::square(1, 8, 3, 6, 3),
            &["im2col-winograd", "im2col-indirect"][..],
        ),
        (strided, &["im2col-indirect"][..]),
    ];
    for (si, (s, names)) in cases.iter().enumerate() {
        let x = Tensor4::<f32>::random(s.x_dims(), 7, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 8, -1.0, 1.0);
        let bias: Vec<f32> = (0..s.oc).map(|i| i as f32 * 0.25 - 0.5).collect();
        let epi = Epilogue::BiasLeakyRelu(bias.clone(), 0.1);
        let filter = FilterId {
            owner: 9,
            epoch: si as u64,
        };
        let mut reference = iwino_baselines::direct_conv(&x, &w, s);
        epi.apply(reference.as_mut_slice(), s.oc);
        for name in *names {
            let algo = eng.algorithm(name).unwrap();
            let y = eng.conv_with(&algo, filter, &x, &w, s, &epi).unwrap();
            // Fused or post-applied, the epilogue is the same arithmetic.
            let mut want = eng.conv_with(&algo, filter, &x, &w, s, &Epilogue::None).unwrap();
            epi.apply(want.as_mut_slice(), s.oc);
            assert_eq!(y.as_slice(), want.as_slice(), "{name} on {s:?}");
            let err = iwino_tensor::max_mixed_error(&y, &reference);
            assert!(err < 1e-4, "{name} epilogue disagreement on {s:?}: {err}");
        }
    }
}

#[test]
fn deconv_through_engine_matches_direct_backward() {
    // Unit stride runs the fused deconvolution; 3×3 stride 2 and the 1×1
    // stride-2 shortcut run the indirect GEMM + col2im.
    let eng = Engine::new();
    let h = iwino_engine::Handle::default();
    for s in [
        ConvShape::square(1, 9, 4, 3, 3),
        ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(2, 9, 4, 6, 3)
        },
        ConvShape {
            sh: 2,
            sw: 2,
            ph: 0,
            pw: 0,
            ..ConvShape::square(2, 8, 5, 8, 1)
        },
    ] {
        let w = Tensor4::<f32>::random(s.w_dims(), 31, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(s.y_dims(), 32, -1.0, 1.0);
        let dx = eng.backward_data(&h, &dy, &w, &s).unwrap();
        let want = iwino_baselines::direct_backward_data(&dy, &w, &s);
        let err = iwino_tensor::max_mixed_error(&dx, &want);
        assert!(err < 1e-3, "{s:?}: {err}");
    }
}
