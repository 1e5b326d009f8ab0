//! ISSUE-4 acceptance test: repeated same-shape `Conv2d` inference forwards
//! hit the engine's plan cache and never miss the arena after warmup.
//!
//! Lives in its own integration-test binary on purpose: the obs counters it
//! asserts on are process-global, and the library's unit tests run engine
//! convolutions concurrently — in a shared process their plan misses would
//! race these `== 0` assertions.

use iwino_nn::{Backend, Conv2d, Layer};
use iwino_obs as obs;
use iwino_tensor::Tensor4;

#[test]
fn inference_forwards_hit_plan_cache_with_no_arena_misses() {
    // After a warmup forward, repeated same-shape inference forwards must
    // (a) serve the transformed-filter bank from the engine's plan cache
    // (≥1 hit, 0 misses), (b) draw zero fresh arena buffers, and (c) cache
    // no activations.
    let mut layer = Conv2d::new(3, 8, 3, 1, 1, true, Backend::ImcolWinograd, 60);
    let x = Tensor4::<f32>::random([2, 12, 12, 3], 61, -1.0, 1.0);
    let warm = layer.forward(&x, false); // warmup: builds + caches the plan
    obs::set_enabled(true);
    obs::reset();
    for _ in 0..4 {
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), warm.as_slice());
    }
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert!(
        snap.counter(obs::Counter::EnginePlanHits) >= 1,
        "steady-state forwards must hit the plan cache"
    );
    assert_eq!(
        snap.counter(obs::Counter::EnginePlanMisses),
        0,
        "no plan rebuilds after warmup"
    );
    assert_eq!(
        snap.stage_ns(obs::Stage::FilterTransform),
        0,
        "plan-cached forwards must not re-transform the filter"
    );
    assert_eq!(
        snap.counter(obs::Counter::ArenaMisses),
        0,
        "the fused path allocates no workspace; nothing may miss the arena"
    );
    assert_eq!(layer.cached_bytes(), 0, "inference must not cache activations");
}

#[test]
fn strided_gemm_forwards_reuse_arena_after_warmup() {
    // The GEMM fallback draws patch buffers from the engine arena; after
    // the first call every worker's buffer should come off the free list.
    let mut layer = Conv2d::new(3, 4, 3, 2, 1, false, Backend::ImcolWinograd, 70);
    let x = Tensor4::<f32>::random([1, 16, 16, 3], 71, -1.0, 1.0);
    let warm = layer.forward(&x, false);
    let misses_after_warmup = iwino_engine::Engine::global().arena().stats().misses;
    for _ in 0..3 {
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), warm.as_slice());
    }
    let stats = iwino_engine::Engine::global().arena().stats();
    assert_eq!(
        stats.misses, misses_after_warmup,
        "steady-state GEMM forwards must recycle arena buffers"
    );
    assert!(stats.hits > 0, "repeat forwards should reuse pooled buffers");
}
