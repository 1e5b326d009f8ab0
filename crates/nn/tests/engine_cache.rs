//! ISSUE-4 acceptance test: repeated same-shape `Conv2d` inference forwards
//! hit the engine's plan cache and never miss the arena after warmup.
//!
//! Lives in its own integration-test binary on purpose: the global engine
//! and the obs stage timers it asserts on are process-wide, and the
//! library's unit tests run engine convolutions concurrently — in a shared
//! process their plan misses would race these `== 0` assertions.

use iwino_engine::Engine;
use iwino_nn::{Backend, Conv2d, Layer};
use iwino_obs as obs;
use iwino_tensor::Tensor4;
use std::sync::{Mutex, MutexGuard};

/// The two tests here read deltas of the one global engine's plan-cache
/// and arena counters, so they must not run each other's forwards inside
/// their measured windows.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn inference_forwards_hit_plan_cache_with_no_arena_misses() {
    // After a warmup forward, repeated same-shape inference forwards must
    // (a) serve the transformed-filter bank from the engine's plan cache
    // (≥1 hit, 0 misses), (b) draw zero fresh arena buffers, and (c) cache
    // no activations.
    let _g = guard();
    let mut layer = Conv2d::new(3, 8, 3, 1, 1, true, Backend::ImcolWinograd, 60);
    let x = Tensor4::<f32>::random([2, 12, 12, 3], 61, -1.0, 1.0);
    let warm = layer.forward(&x, false); // warmup: builds + caches the plan
    obs::set_enabled(true);
    obs::reset();
    let before = Engine::global().stats();
    for _ in 0..4 {
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), warm.as_slice());
    }
    let after = Engine::global().stats();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert!(
        after.plan_hits > before.plan_hits,
        "steady-state forwards must hit the plan cache"
    );
    assert_eq!(after.plan_misses, before.plan_misses, "no plan rebuilds after warmup");
    assert_eq!(
        snap.stage_ns(obs::Stage::FilterTransform),
        0,
        "plan-cached forwards must not re-transform the filter"
    );
    assert_eq!(
        after.arena.misses, before.arena.misses,
        "the fused path allocates no workspace; nothing may miss the arena"
    );
    assert_eq!(layer.cached_bytes(), 0, "inference must not cache activations");
}

#[test]
fn strided_gemm_forwards_reuse_arena_after_warmup() {
    // The GEMM fallback draws patch buffers from the engine arena; after
    // the first call every worker's buffer should come off the free list.
    let _g = guard();
    let mut layer = Conv2d::new(3, 4, 3, 2, 1, false, Backend::ImcolWinograd, 70);
    let x = Tensor4::<f32>::random([1, 16, 16, 3], 71, -1.0, 1.0);
    let warm = layer.forward(&x, false);
    let misses_after_warmup = Engine::global().arena().stats().misses;
    for _ in 0..3 {
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), warm.as_slice());
    }
    let stats = Engine::global().arena().stats();
    assert_eq!(
        stats.misses, misses_after_warmup,
        "steady-state GEMM forwards must recycle arena buffers"
    );
    assert!(stats.hits > 0, "repeat forwards should reuse pooled buffers");
}
