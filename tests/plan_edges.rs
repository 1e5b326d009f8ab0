//! Edge cases of the §5.5 boundary planner, plus the obs plan-decision
//! counter round-trip.
//!
//! This lives in its own integration-test binary on purpose: the obs
//! counters are process-global, and the round-trip test below needs to
//! observe exact counter deltas. Every test here serialises on one mutex so
//! plans built by a neighbouring test cannot leak into the deltas (other
//! test binaries are separate processes and cannot interfere).

use im2col_winograd::core::plan::{SegmentPlan, BK};
use im2col_winograd::core::{default_kernel_prefs, GammaSpec, KernelChoice, Segment, Variant};
use im2col_winograd::obs;
use im2col_winograd::simd::LANE;
use std::sync::{Mutex, MutexGuard};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn spec(alpha: usize, n: usize, r: usize) -> GammaSpec {
    GammaSpec::new(alpha, n, r, Variant::Standard)
}

#[test]
fn lane_width_divides_channel_panel() {
    // The microkernel contract: the channel panel is a whole number of
    // SIMD lanes, so only the final partial panel can hit the remainder
    // lane. plan.rs writes `BK` in lanes of `iwino_simd::LANE`; assert it
    // here too so the invariant shows up in test output if either constant
    // is ever edited.
    let _g = guard();
    let (bk, lane) = (BK, LANE);
    assert_eq!(bk % lane, 0, "BK must stay a multiple of the lane width");
    assert!(bk >= lane, "panel of {bk} cannot hold a {lane}-wide lane");
}

#[test]
fn ow_shorter_than_tile_is_pure_fallback() {
    let _g = guard();
    // OW = 5 < n = 6: Γ8(6,3) covers zero columns, so the plan must be a
    // single GEMM segment spanning the whole width — not an empty plan and
    // not a zero-length Γ segment.
    let plan = SegmentPlan::build(5, &[spec(8, 6, 3)]);
    assert_eq!(
        plan.segments,
        vec![Segment {
            start: 0,
            len: 5,
            kernel: KernelChoice::Gemm,
        }]
    );
    assert_eq!(plan.winograd_coverage(), 0.0);
    assert!(plan.gamma_specs().is_empty());

    // Same with the full default preference list for r = 3 (n_min = 2):
    // OW = 1 is below every tile size.
    let prefs = default_kernel_prefs(3, false);
    let plan = SegmentPlan::build(1, &prefs);
    assert_eq!(plan.segments.len(), 1);
    assert_eq!(plan.segments[0].kernel, KernelChoice::Gemm);
}

#[test]
fn ow_exactly_tile_multiples_plus_minus_one() {
    let _g = guard();
    let prefs = [spec(8, 6, 3), spec(4, 2, 3)];
    for k in 1..=4usize {
        // Exact cover: one Γ8 segment, nothing else.
        let plan = SegmentPlan::build(6 * k, &prefs);
        assert_eq!(plan.segments.len(), 1, "OW = {}: {:?}", 6 * k, plan.segments);
        assert_eq!(plan.segments[0].len, 6 * k);
        assert_eq!(plan.winograd_coverage(), 1.0);

        // n·k + 1: the +1 falls through Γ4(2,3) (2 ∤ 1) to GEMM.
        let plan = SegmentPlan::build(6 * k + 1, &prefs);
        assert_eq!(
            plan.segments,
            vec![
                Segment {
                    start: 0,
                    len: 6 * k,
                    kernel: KernelChoice::Gamma(spec(8, 6, 3)),
                },
                Segment {
                    start: 6 * k,
                    len: 1,
                    kernel: KernelChoice::Gemm,
                },
            ]
        );

        // n·k − 1: Γ8 drops to k−1 tiles, Γ4 takes 4 of the 5 leftover
        // columns, GEMM the last one (for k = 1, OW = 5 is the pure-GEMM
        // case covered above — with the Γ4 fallback it becomes 4 + 1).
        let plan = SegmentPlan::build(6 * k - 1, &prefs);
        let covered: usize = plan.segments.iter().map(|s| s.len).sum();
        assert_eq!(covered, 6 * k - 1, "segments must tile OW exactly: {:?}", plan.segments);
        let starts_ok = plan.segments.windows(2).all(|w| w[0].start + w[0].len == w[1].start);
        assert!(starts_ok, "segments must be contiguous: {:?}", plan.segments);
        assert_eq!(plan.segments.last().unwrap().kernel, KernelChoice::Gemm);
        assert_eq!(plan.segments.last().unwrap().len, 1);
    }
}

#[test]
fn plan_decisions_round_trip_through_obs_counters() {
    let _g = guard();
    let prefs = default_kernel_prefs(3, false); // Γ8(6,3), Γ4(2,3)
    let was = obs::enabled();
    obs::set_enabled(true);
    obs::reset();

    // Build a batch of plans with known compositions and tally what the
    // counters *should* say from the plans themselves.
    let mut want_calls = 0u64;
    let mut want_gamma = 0u64;
    let mut want_gemm = 0u64;
    for ow in [1usize, 5, 6, 7, 18, 23, 24, 25] {
        let plan = SegmentPlan::build(ow, &prefs);
        want_calls += 1;
        for s in &plan.segments {
            match s.kernel {
                KernelChoice::Gamma(_) => want_gamma += 1,
                KernelChoice::Gemm => want_gemm += 1,
            }
        }
    }

    let snap = obs::snapshot();
    obs::set_enabled(was);

    assert_eq!(snap.counter(obs::Counter::PlanCalls), want_calls);
    assert_eq!(snap.counter(obs::Counter::PlanGammaSegments), want_gamma);
    assert_eq!(snap.counter(obs::Counter::PlanGemmSegments), want_gemm);
    // Sanity on the tally itself: the OW list above mixes pure-GEMM,
    // exact-cover, and ragged widths, so both kinds of segment showed up.
    assert!(want_gamma >= 6, "expected several Γ segments, got {want_gamma}");
    assert!(want_gemm >= 3, "expected several GEMM segments, got {want_gemm}");
}
