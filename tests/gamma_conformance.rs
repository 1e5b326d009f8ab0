//! Property-test conformance net for every supported `Γα(n, r)` kernel.
//!
//! The channel-chunk microkernels in `iwino-core::kernel` walk IC/OC in
//! unrolled lanes of `LANE = 8` f32 with a remainder lane for the final
//! partial chunk. These tests force each kernel (no planner heuristics) on
//! channel counts deliberately *not* divisible by 8 — {3, 5, 7, 9, 17} —
//! so every case exercises the remainder lane (and 17 = 2·8 + 1 exercises
//! full lanes *plus* the remainder), and on output widths `OW ∈ [n, 3n]`
//! so exact covers, ±1 raggedness, and the GEMM remainder segment all come
//! up. Agreement is checked against the f64 direct reference.
//!
//! A second net pins the `iwino-simd` dispatch contract: the natively
//! dispatched microkernels (AVX2/NEON) must produce **bitwise identical**
//! outputs to the forced-scalar fallback for every `(n, r)` kernel and
//! every outer-product tail width `oc % LANE ∈ 0..LANE`. On hosts whose
//! native dispatch *is* scalar these tests pass trivially — the SIMD paths
//! are then covered by CI's AVX2 runners.
//!
//! The case budget honours `PROPTEST_CASES` (see `scripts/check.sh`).

use im2col_winograd::baselines::direct_conv_f64_ref;
use im2col_winograd::prelude::*;
use im2col_winograd::simd;
use im2col_winograd::tensor::{max_mixed_error, ErrorStats};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Channel counts that are all coprime-ish with the lane width 8: each one
/// forces the remainder lane, and 17 also runs two full lanes first.
const ODD_CHANNELS: [usize; 5] = [3, 5, 7, 9, 17];

/// Every `(n, r)` the `Γα` family supports for this `α` with `r ∈ 2..=9`:
/// `α = n + r − 1` and output tiles of at least 2.
fn combos(alpha: usize) -> Vec<(usize, usize)> {
    (2..=9)
        .filter_map(|r| {
            let n = (alpha + 1).checked_sub(r)?;
            (n >= 2).then_some((n, r))
        })
        .collect()
}

/// Run one forced-kernel conv against the f64 direct reference.
///
/// `lo..hi` is the input distribution: sign-varying `[-1, 1)` for the
/// well-conditioned α ∈ {4, 8} transforms, the paper's positive `[1, 2)`
/// for α = 16 whose transform entries span ~10 orders of magnitude
/// (§6.2.2 conditioning).
#[allow(clippy::too_many_arguments)]
fn check_forced(alpha: usize, n: usize, r: usize, variant: Variant, ic: usize, oc: usize, ow: usize, seed: u64) {
    let s = ConvShape::square(1, ow, ic, oc, r);
    let (lo, hi) = if alpha == 16 { (1.0, 2.0) } else { (-1.0, 1.0) };
    let x = Tensor4::<f32>::random(s.x_dims(), seed, lo, hi);
    let w = Tensor4::<f32>::random(s.w_dims(), seed ^ 0x9e3779b97f4a7c15, lo, hi);
    let want = direct_conv_f64_ref(&x, &w, &s);
    let opts = ConvOptions {
        force_kernels: Some(vec![GammaSpec::new(alpha, n, r, variant)]),
        ..Default::default()
    };
    let got = conv2d(&x, &w, &s, &opts).unwrap();
    if alpha == 16 {
        let stats = ErrorStats::between(&got, &want);
        assert!(
            stats.mean < 1e-3,
            "Γ{alpha}(n={n}, r={r}, {variant:?}) ic={ic} oc={oc} ow={ow}: {stats:?}"
        );
    } else {
        let e = max_mixed_error(&got, &want);
        assert!(
            e < 5e-4,
            "Γ{alpha}(n={n}, r={r}, {variant:?}) ic={ic} oc={oc} ow={ow}: error {e}"
        );
    }
}

/// Sweep every combo of one α family for a sampled channel/width/seed case.
fn check_family(alpha: usize, variant: Variant, ici: usize, oci: usize, oww: usize, seed: u64) {
    for (n, r) in combos(alpha) {
        // OW ∈ [n, 3n]: k·n exact covers, k·n ± 1, and GEMM remainders.
        let ow = n + oww % (2 * n + 1);
        check_forced(alpha, n, r, variant, ODD_CHANNELS[ici], ODD_CHANNELS[oci], ow, seed);
    }
}

/// Serialises tests that toggle the process-global microkernel dispatch,
/// and restores the environment-driven default when the guard drops.
fn dispatch_guard() -> (MutexGuard<'static, ()>, RestoreDispatch) {
    static LOCK: Mutex<()> = Mutex::new(());
    (LOCK.lock().unwrap_or_else(|e| e.into_inner()), RestoreDispatch)
}

struct RestoreDispatch;
impl Drop for RestoreDispatch {
    fn drop(&mut self) {
        simd::clear_force_override();
    }
}

/// One forced-kernel conv with the current dispatch, as raw f32 bits.
#[allow(clippy::too_many_arguments)]
fn conv_bits(
    alpha: usize,
    n: usize,
    r: usize,
    variant: Variant,
    ic: usize,
    oc: usize,
    ow: usize,
    seed: u64,
) -> Vec<u32> {
    let s = ConvShape::square(1, ow, ic, oc, r);
    let x = Tensor4::<f32>::random(s.x_dims(), seed, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), seed ^ 0x9e3779b97f4a7c15, -1.0, 1.0);
    let opts = ConvOptions {
        force_kernels: Some(vec![GammaSpec::new(alpha, n, r, variant)]),
        ..Default::default()
    };
    conv2d(&x, &w, &s, &opts)
        .unwrap()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Assert native-dispatch output is bitwise identical to forced-scalar, and
/// to every other variant of the same kernel: Ruse changes only the gather
/// and C64 only the cache block, never the per-element summation order.
#[allow(clippy::too_many_arguments)]
fn check_bitwise(alpha: usize, n: usize, r: usize, variant: Variant, ic: usize, oc: usize, ow: usize, seed: u64) {
    let _g = dispatch_guard();
    simd::set_force_scalar(false);
    let native = conv_bits(alpha, n, r, variant, ic, oc, ow, seed);
    let others = [Variant::Standard, Variant::Ruse, Variant::C64];
    for other in others
        .into_iter()
        .filter(|&v| v != variant && (v != Variant::C64 || alpha == 16))
    {
        assert!(
            conv_bits(alpha, n, r, other, ic, oc, ow, seed) == native,
            "Γ{alpha}(n={n}, r={r}) ic={ic} oc={oc} ow={ow}: {other:?} is not bit-for-bit identical to {variant:?}"
        );
    }
    simd::set_force_scalar(true);
    let scalar = conv_bits(alpha, n, r, variant, ic, oc, ow, seed);
    assert!(
        native == scalar,
        "Γ{alpha}(n={n}, r={r}, {variant:?}) ic={ic} oc={oc} ow={ow}: {} output is not \
         bit-for-bit identical to forced-scalar",
        simd::native_isa().name()
    );
}

/// Every `(n, r)` kernel × every outer-product tail width: `oc = 8 + t`
/// makes the per-row microkernel run one full lane plus a `t`-wide masked
/// tail (`t = 0` is the exact-lanes case), and `ow = n + 1` makes the
/// segment planner emit both a Γ tile and a ragged boundary.
#[test]
fn simd_matches_scalar_bitwise_every_kernel_and_tail() {
    for alpha in [4usize, 8, 16] {
        for (n, r) in combos(alpha) {
            for tail in 0..8usize {
                check_bitwise(alpha, n, r, Variant::Standard, 5, 8 + tail, n + 1, 7 + tail as u64);
            }
        }
    }
}

/// The ruse and C64 variants share the dispatched microkernels; pin their
/// bit-exactness too, on remainder-lane channel counts.
#[test]
fn simd_matches_scalar_bitwise_variants() {
    for (n, r) in combos(8) {
        check_bitwise(8, n, r, Variant::Ruse, 7, 13, 2 * n, 101);
    }
    for (n, r) in combos(16) {
        check_bitwise(16, n, r, Variant::C64, 7, 13, 2 * n, 103);
    }
}

/// The programmatic override and the dispatch report agree end to end
/// through the umbrella crate.
#[test]
fn dispatch_override_is_visible_in_dispatch_info() {
    let _g = dispatch_guard();
    simd::set_force_scalar(true);
    let forced = simd::dispatch_info();
    assert_eq!(forced.isa, "scalar");
    assert!(forced.forced_scalar);
    assert_eq!(forced.lane_width, 1);
    simd::set_force_scalar(false);
    let native = simd::dispatch_info();
    assert_eq!(native.isa, simd::native_isa().name());
    assert!(!native.forced_scalar);
}

proptest! {
    #[test]
    fn simd_matches_scalar_bitwise_sampled_shapes(
        ici in 0usize..5, oci in 0usize..5, oww in 0usize..64, seed in 0u64..1_000_000
    ) {
        // Random shapes over every family, mirroring the accuracy net: the
        // SIMD/scalar equivalence must hold wherever the kernels do.
        for alpha in [4usize, 8, 16] {
            for (n, r) in combos(alpha) {
                let ow = n + oww % (2 * n + 1);
                check_bitwise(alpha, n, r, Variant::Standard, ODD_CHANNELS[ici], ODD_CHANNELS[oci], ow, seed);
            }
        }
    }

    #[test]
    fn gamma4_standard_remainder_lanes(ici in 0usize..5, oci in 0usize..5, oww in 0usize..64, seed in 0u64..1_000_000) {
        check_family(4, Variant::Standard, ici, oci, oww, seed);
    }

    #[test]
    fn gamma8_standard_remainder_lanes(ici in 0usize..5, oci in 0usize..5, oww in 0usize..64, seed in 0u64..1_000_000) {
        check_family(8, Variant::Standard, ici, oci, oww, seed);
    }

    #[test]
    fn gamma16_standard_remainder_lanes(ici in 0usize..5, oci in 0usize..5, oww in 0usize..64, seed in 0u64..1_000_000) {
        check_family(16, Variant::Standard, ici, oci, oww, seed);
    }

    #[test]
    fn gamma_ruse_remainder_lanes(ici in 0usize..5, oci in 0usize..5, oww in 0usize..64, seed in 0u64..1_000_000) {
        // The §5.4 reuse variant shares the microkernel FMA path but gathers
        // one overlapping strip per block; sweep it across every family too.
        for alpha in [4usize, 8, 16] {
            check_family(alpha, Variant::Ruse, ici, oci, oww, seed);
        }
    }

    #[test]
    fn gamma16_c64_remainder_lanes(ici in 0usize..5, oci in 0usize..5, oww in 0usize..64, seed in 0u64..1_000_000) {
        // §5.6 enlarged cache block is only defined for α = 16.
        check_family(16, Variant::C64, ici, oci, oww, seed);
    }
}
