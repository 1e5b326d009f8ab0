//! ISSUE-10 acceptance test (mirror of `engine_cache.rs`): repeated
//! same-shape forwards through the `im2col-indirect` backend must build the
//! indirection table exactly once — it lives in the engine's LRU plan next
//! to the packed filter — and draw zero fresh arena buffers at steady
//! state.
//!
//! Lives in its own integration-test binary, as a single test fn, because
//! the global engine and the obs counters it asserts on are process-wide: a
//! concurrent engine convolution in the same process would race the `== 0`
//! assertions.

use iwino_engine::Engine;
use iwino_nn::{Backend, Conv2d, Layer};
use iwino_obs as obs;
use iwino_tensor::{ConvShape, Tensor4};

#[test]
fn indirect_table_builds_once_and_steady_state_misses_nothing() {
    // Stride 2 ⇒ the heuristic resolves to `im2col-indirect`.
    let mut layer = Conv2d::new(3, 8, 3, 2, 1, false, Backend::ImcolWinograd, 80);
    let x = Tensor4::<f32>::random([1, 16, 16, 3], 81, -1.0, 1.0);
    let s = ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, 16, 3, 8, 3)
    };

    // Cold phase: the first forward builds the plan — exactly one
    // indirection table, sized by the shape's (OH·OW × FH·FW) geometry.
    obs::set_enabled(true);
    obs::reset();
    let start = Engine::global().stats();
    let warm = layer.forward(&x, false);
    let cold = obs::snapshot();
    let warmed = Engine::global().stats();
    let table_bytes = (s.oh() * s.ow() * s.fh * s.fw * std::mem::size_of::<usize>()) as u64;
    assert_eq!(
        cold.counter(obs::Counter::IndirectTableBytes),
        table_bytes,
        "cold forward must build exactly one indirection table"
    );
    assert_eq!(warmed.plan_misses - start.plan_misses, 1);
    assert!(
        cold.stage_ns(obs::Stage::IndirectSetup) > 0 || cold.counter(obs::Counter::IndirectTableBytes) > 0,
        "table build must be attributed to the IndirectSetup stage"
    );

    // Steady state: same-shape forwards serve the cached plan — no table
    // rebuild, no plan miss, no fresh arena buffer.
    obs::reset();
    for _ in 0..4 {
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), warm.as_slice(), "cached plan must be bit-identical");
    }
    let steady = obs::snapshot();
    let after = Engine::global().stats();
    obs::set_enabled(false);
    assert_eq!(
        steady.counter(obs::Counter::IndirectTableBytes),
        0,
        "steady-state forwards must not rebuild the indirection table"
    );
    assert_eq!(after.plan_misses, warmed.plan_misses, "no plan rebuilds");
    assert!(
        after.plan_hits - warmed.plan_hits >= 4,
        "forwards must hit the plan cache"
    );
    assert_eq!(
        after.arena.misses, warmed.arena.misses,
        "steady-state A-panel scratch must come off the arena free list"
    );
    assert_eq!(layer.cached_bytes(), 0, "inference must not cache activations");
}
