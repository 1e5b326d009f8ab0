//! Selection-policy golden tests: the heuristic must mirror §5.7, the
//! registry must hold exactly its outcomes, and a cached plan refilled
//! after eviction must answer bit for bit as before.

use iwino_baselines::direct_conv_f64_ref;
use iwino_core::Epilogue;
use iwino_engine::{Engine, FilterId, Handle, SelectionPolicy};
use iwino_tensor::{max_mixed_error, ConvShape, Tensor4};
use std::collections::BTreeSet;

#[test]
fn heuristic_picks_winograd_for_unit_stride_r2_to_9() {
    let eng = Engine::new();
    for r in 2..=9 {
        let s = ConvShape::square(1, 16, 4, 8, r);
        assert!(s.is_unit_stride());
        assert_eq!(
            eng.heuristic_choice(&s),
            "im2col-winograd",
            "unit-stride r={r} must select the fused path (§5.7)"
        );
    }
}

#[test]
fn heuristic_picks_indirect_for_deep_k_small_filters() {
    // Measured frontier: 3×3-and-smaller filters over ≥ 256 input channels
    // run faster through the indirect GEMM's batch-wide panel reuse than
    // through short Γ tiles — measured on 12×12×512, 14×14×256, 7×7×512.
    let eng = Engine::new();
    for (hw, c) in [(12usize, 512usize), (14, 256), (7, 512)] {
        let s = ConvShape::square(1, hw, c, c, 3);
        assert!(s.is_unit_stride());
        assert_eq!(
            eng.heuristic_choice(&s),
            "im2col-indirect",
            "{hw}x{hw}x{c} r=3 sits on the GEMM side of the measured frontier"
        );
    }
    // The boundary respects both axes: wider filters or fewer channels
    // stay fused.
    assert_eq!(
        eng.heuristic_choice(&ConvShape::square(1, 16, 256, 256, 5)),
        "im2col-winograd"
    );
    assert_eq!(
        eng.heuristic_choice(&ConvShape::square(1, 28, 128, 128, 3)),
        "im2col-winograd"
    );
}

#[test]
fn heuristic_picks_indirect_for_strides_at_least_2() {
    // Strided shapes can't run the fused path; among the GEMM-class
    // backends the indirection-buffer GEMM owns this region — one
    // batch-wide GEMM instead of the im2col fallback's per-row B-panel
    // re-streaming.
    let eng = Engine::new();
    for stride in 2..=4 {
        let s = ConvShape {
            sh: stride,
            sw: stride,
            ..ConvShape::square(1, 17, 4, 8, 3)
        };
        assert_eq!(
            eng.heuristic_choice(&s),
            "im2col-indirect",
            "stride {stride} must fall back to the indirect GEMM (§5.7)"
        );
    }
}

/// Unit-stride r = 1…16, deep-K and strided shapes: both sides of every
/// edge of the §5.7 frontier.
fn frontier_shapes() -> Vec<ConvShape> {
    let strided = ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, 24, 32, 32, 3)
    };
    let unit = [1usize, 3, 5, 9, 16].map(|r| ConvShape::square(1, 20, 8, 8, r));
    let deep = [1usize, 2, 3].map(|r| ConvShape::square(1, 12, 256, 64, r));
    unit.into_iter().chain(deep).chain([strided]).collect()
}

#[test]
fn heuristic_has_exactly_two_outcomes() {
    // Every shape resolves to Γ or the indirect GEMM; pin both sides of
    // the frontier between them.
    let eng = Engine::new();
    // Strided ⇒ small OW: indirect.
    let strided = ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, 24, 32, 32, 3)
    };
    assert_eq!(eng.heuristic_choice(&strided), "im2col-indirect");
    // Large r beyond the Γ planner's 2..=15 width range: indirect.
    let large_r = ConvShape::square(1, 20, 4, 4, 16);
    assert!(large_r.fw > 15);
    assert_eq!(eng.heuristic_choice(&large_r), "im2col-indirect");
    // Deep-K r=3 unit stride: indirect; one channel step below: Γ.
    assert_eq!(
        eng.heuristic_choice(&ConvShape::square(1, 12, 512, 512, 3)),
        "im2col-indirect"
    );
    assert_eq!(
        eng.heuristic_choice(&ConvShape::square(1, 12, 255, 255, 3)),
        "im2col-winograd"
    );
    for s in frontier_shapes() {
        let choice = eng.heuristic_choice(&s);
        assert!(
            ["im2col-winograd", "im2col-indirect"].contains(&choice),
            "{s:?} resolved to {choice}"
        );
    }
}

#[test]
fn registry_is_exactly_the_heuristic_outcomes() {
    // A backend registered without a selector arm (or an arm naming an
    // unregistered backend) breaks this equality.
    let eng = Engine::new();
    let registered: BTreeSet<&str> = eng.algorithms().into_iter().collect();
    let selected: BTreeSet<&str> = frontier_shapes().iter().map(|s| eng.heuristic_choice(s)).collect();
    assert_eq!(registered, selected);
}

#[test]
fn tall_unit_stride_filters_run_the_fused_path() {
    // Filter height is not a Γ constraint (§4.2 only restricts the width):
    // a 17×3 filter resolves to the fused path and matches the reference.
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Heuristic);
    let s = ConvShape::unit(1, 20, 12, 2, 2, 17, 3, 0, 1);
    assert_eq!(eng.resolve(&h.policy, &s).unwrap().name(), "im2col-winograd");
    let x = Tensor4::<f32>::random(s.x_dims(), 3, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 4, -1.0, 1.0);
    let y = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    let e = max_mixed_error(&y, &direct_conv_f64_ref(&x, &w, &s));
    assert!(e < 1e-4, "17×3 through the engine: error {e}");
}

#[test]
fn heuristic_resolution_matches_what_conv_runs() {
    // `resolve` (the no-run query) and `conv` (the dispatcher) must agree.
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Heuristic);
    let s = ConvShape::square(1, 8, 3, 4, 3);
    let algo = eng.resolve(&h.policy, &s).unwrap();
    assert_eq!(algo.name(), "im2col-winograd");
    let x = Tensor4::<f32>::random(s.x_dims(), 1, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 2, -1.0, 1.0);
    let via_policy = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    let direct = eng
        .conv_with(&algo, h.filter_id(), &x, &w, &s, &Epilogue::None)
        .unwrap();
    assert_eq!(via_policy.as_slice(), direct.as_slice());
}

#[test]
fn force_policy_always_uses_the_named_backend() {
    // `nn::Backend::Gemm`'s control arm: indirect even where Γ would run.
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Force("im2col-indirect".into()));
    let s = ConvShape::square(1, 8, 3, 4, 3); // winograd-eligible shape
    assert_eq!(eng.heuristic_choice(&s), "im2col-winograd");
    assert_eq!(eng.resolve(&h.policy, &s).unwrap().name(), "im2col-indirect");
    let x = Tensor4::<f32>::random(s.x_dims(), 3, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 4, -1.0, 1.0);
    eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    let indirect = eng.algorithm("im2col-indirect").unwrap();
    eng.plan(&indirect, &w, &s, h.filter_id(), false).unwrap();
    assert_eq!(eng.stats().plan_hits, 1, "conv must have built the indirect plan");
}

#[test]
fn refilled_plan_after_eviction_is_bitwise_identical() {
    let eng = Engine::new();
    let h = Handle::new(SelectionPolicy::Heuristic);
    let s = ConvShape::square(1, 10, 3, 4, 3);
    let x = Tensor4::<f32>::random(s.x_dims(), 5, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 6, -1.0, 1.0);
    let y0 = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();

    // Flood the plan cache with other shapes until this shape's plan is
    // evicted; the refilled plan must agree bit for bit.
    let flood = eng.algorithm("im2col-indirect").unwrap();
    for i in 0..80 {
        let fs = ConvShape::square(1, 6 + i % 13, 1 + i % 3, 1 + (i + 1) % 3, 3);
        let fx = Tensor4::<f32>::random(fs.x_dims(), 1000 + i as u64, -1.0, 1.0);
        let fw = Tensor4::<f32>::random(fs.w_dims(), 2000 + i as u64, -1.0, 1.0);
        eng.conv_with(
            &flood,
            FilterId {
                owner: 7777,
                epoch: i as u64,
            },
            &fx,
            &fw,
            &fs,
            &Epilogue::None,
        )
        .unwrap();
    }
    let st = eng.stats();
    assert!(
        st.plan_evictions > 0,
        "flood must actually evict (cache bound exercised)"
    );
    let misses = st.plan_misses;
    let y = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
    assert_eq!(eng.stats().plan_misses, misses + 1, "the plan must have been rebuilt");
    let bits = |t: &Tensor4<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&y), bits(&y0), "refilled plan matches the original");
}
