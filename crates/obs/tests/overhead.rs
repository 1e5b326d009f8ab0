//! Satellite guard: with observability *disabled* — histograms included —
//! instrumented code must run within 5% of a build-time-uninstrumented
//! baseline.
//!
//! Why a synthetic kernel instead of `iwino-core`'s real one: `iwino-obs`
//! cannot dev-depend on `iwino-core` (the core crate depends on obs — that
//! would be a cycle), and cargo's feature unification means a single
//! workspace test run cannot build one copy of core with instrumentation
//! compiled out and one with it in. So this test compiles the same
//! conv-shaped loop twice in this file — once plain, once carrying
//! `obs::span` / `obs::add` calls at the density `iwino-core` uses (a span
//! per outer block, counter adds per block, a hoisted `enabled()` check per
//! run) — and compares medians. The disabled fast path is a single Relaxed
//! atomic load, so the two must time the same.

use iwino_obs as obs;
use std::hint::black_box;
use std::time::Instant;

const BLOCKS: usize = 64;
const TILES_PER_BLOCK: usize = 32;
const CHANNELS: usize = 48;

/// Plain copy: the workload with no instrumentation compiled in.
fn kernel_plain(input: &[f32], out: &mut [f32]) {
    for b in 0..BLOCKS {
        for t in 0..TILES_PER_BLOCK {
            let base = (b * TILES_PER_BLOCK + t) * CHANNELS;
            let mut acc = 0.0f32;
            for c in 0..CHANNELS {
                acc = input[base + c].mul_add(1.001, acc);
            }
            out[b * TILES_PER_BLOCK + t] = acc;
        }
    }
}

/// Instrumented copy: identical arithmetic, plus the obs calls `iwino-core`
/// makes per segment run (hoisted enabled check, per-block stage timing and
/// counter updates).
fn kernel_instrumented(input: &[f32], out: &mut [f32]) {
    let rec = obs::enabled();
    for b in 0..BLOCKS {
        let t0 = rec.then(Instant::now);
        for t in 0..TILES_PER_BLOCK {
            let base = (b * TILES_PER_BLOCK + t) * CHANNELS;
            let mut acc = 0.0f32;
            for c in 0..CHANNELS {
                acc = input[base + c].mul_add(1.001, acc);
            }
            out[b * TILES_PER_BLOCK + t] = acc;
        }
        if let Some(t0) = t0 {
            obs::add_stage_ns(obs::Stage::OuterProduct, t0.elapsed().as_nanos() as u64);
            obs::add(obs::Counter::Tiles, TILES_PER_BLOCK as u64);
            obs::add(obs::Counter::BytesLoaded, (TILES_PER_BLOCK * CHANNELS * 4) as u64);
        }
    }
}

/// Minimum wall time of `reps` runs of `f`. Timing noise on shared hardware
/// is one-sided (preemption and cache pollution only ever add time), so the
/// minimum is the least-biased estimator of the true cost of the loop.
fn min_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

#[test]
fn disabled_instrumentation_costs_under_five_percent() {
    // The contract covers the whole disabled surface: stage timers and
    // histograms (recorded by the same gated calls).
    obs::set_enabled(false);
    let input: Vec<f32> = (0..BLOCKS * TILES_PER_BLOCK * CHANNELS)
        .map(|i| (i % 251) as f32 * 0.004 - 0.5)
        .collect();
    let mut out = vec![0.0f32; BLOCKS * TILES_PER_BLOCK];

    // Warm up both paths (page in code, settle the allocator and clocks).
    for _ in 0..50 {
        kernel_plain(black_box(&input), black_box(&mut out));
        kernel_instrumented(black_box(&input), black_box(&mut out));
    }

    // The 5% claim is about optimized code, where the disabled path is one
    // Relaxed load plus a dead branch per block. Under `cargo test`'s debug
    // profile the per-block `Option` plumbing is real instructions (~10%
    // measured), so the debug gate only guards against gross regressions
    // (an un-hoisted enabled() check or an atomic RMW on the fast path
    // costs far more than 30%).
    const LIMIT: f64 = if cfg!(debug_assertions) { 1.30 } else { 1.05 };
    // Timing on shared CI hardware is noisy: compare best-of-many runs with
    // the two kernels interleaved (so clock drift and background load hit
    // both alike) and allow retries before declaring the overhead real. A
    // genuine regression past the limit fails all attempts.
    const REPS: usize = 31;
    const ATTEMPTS: usize = 8;
    let mut ratios = Vec::with_capacity(ATTEMPTS);
    for _ in 0..ATTEMPTS {
        let mut plain = u64::MAX;
        let mut inst = u64::MAX;
        for _ in 0..REPS {
            plain = plain.min(min_ns(1, || kernel_plain(black_box(&input), black_box(&mut out))));
            inst = inst.min(min_ns(1, || {
                kernel_instrumented(black_box(&input), black_box(&mut out))
            }));
        }
        let ratio = inst as f64 / plain.max(1) as f64;
        if ratio <= LIMIT {
            return;
        }
        ratios.push(ratio);
    }
    panic!("disabled-path overhead exceeded {LIMIT} in all {ATTEMPTS} attempts: ratios {ratios:?}");
}
