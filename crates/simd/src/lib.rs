//! Runtime-dispatched SIMD microkernels for the Γ hot path and the packed
//! GEMM — the one crate that knows which ISA runs.
//!
//! The paper's performance story (§5.2–§5.4) rests on every transform and
//! accumulation step vectorising along the contiguous NHWC channel axis.
//! The kernels in `iwino-core`, `iwino-transforms` and `iwino-gemm`
//! originally left that to LLVM's autovectorizer over safe scalar loops;
//! this crate provides explicit-intrinsic implementations of the
//! primitives those hot paths are built from, selected **once** at runtime
//! into a function-pointer table ([`Microkernels`]):
//!
//! * [`Microkernels::outer_product_row`] — one α-state row of the
//!   register-blocked outer product (`arow[k] += Σ_i txs[i] ·
//!   panel[i·oc + o0 + k]`), the paper's 8×(8×8) outer-product unit;
//! * [`Microkernels::outer_product_row2`] — the tile-paired variant: two
//!   rows accumulated in one pass over the shared filter panel, halving
//!   the stage's dominant memory stream (see [`OuterProductRow2Fn`]);
//! * [`Microkernels::transform_step`] — one channel block of one paired
//!   `Dᵀ`/`Aᵀ` plan step (§5.3 even/odd pairing), shared by the input
//!   transform and the fused output-transform epilogue;
//! * [`Microkernels::tile_6x16`] — the packed GEMM's [`MR`]×[`NR`]
//!   register tile (`C += Aᵖ·Bᵖ` over k-major micro-panels).
//!
//! Three paths exist: AVX2+FMA (x86-64, 8-lane `__m256` matching
//! [`LANE`]), AArch64 NEON (4-lane `float32x4_t`), and the original safe
//! scalar code (moved here verbatim into a private `scalar` module) as the
//! universal fallback. **Every path is bit-for-bit identical**: the SIMD
//! kernels use separate multiply and add ops (never a single-rounding
//! fused multiply-add) in the same per-element accumulation order as
//! scalar, so dispatch never changes results — the conformance net asserts
//! this bitwise across every `(n, r)` kernel and tail width. Callers always
//! go through the table; none picks a kernel by [`Microkernels::isa`].
//!
//! Dispatch is cached in one relaxed atomic byte and can be overridden to
//! the scalar fallback via the `IWINO_FORCE_SCALAR` environment variable
//! or programmatically with [`set_force_scalar`] (for A/B benches and the
//! CI force-scalar test lane).

use std::sync::atomic::{AtomicU8, Ordering};

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

/// Vector lane width the blocked kernels are sized for: 8 f32 = one
/// 256-bit register. The one lane constant of the workspace: `iwino-core`'s
/// channel panel, `iwino-transforms`' chunk and the GEMM tile width are all
/// written in terms of it.
pub const LANE: usize = 8;

/// Channel-chunk width of the strided transform executor (8 lanes). The
/// [`Microkernels::transform_step`] contract allows any `w` in
/// `1..=TRANSFORM_CHUNK`.
pub const TRANSFORM_CHUNK: usize = 8 * LANE;

/// GEMM register-tile rows: each packed A micro-panel holds `MR` rows,
/// k-major.
pub const MR: usize = 6;

/// GEMM register-tile columns: `2 · LANE`, fixed across ISAs so the packed
/// B layout is ISA-independent (NEON covers it with 4 q registers).
pub const NR: usize = 2 * LANE;

/// The instruction set a dispatched table entry is implemented with.
///
/// Discriminants start at 1 so `0` can serve as the "unresolved" sentinel
/// in the cached dispatch byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Isa {
    /// Safe-scalar fallback (autovectorised by LLVM, no intrinsics).
    Scalar = 1,
    /// x86-64 AVX2 with FMA present (FMA is *detected*, not used — see the
    /// crate docs on bit-exactness).
    Avx2Fma = 2,
    /// AArch64 Advanced SIMD.
    Neon = 3,
}

impl Isa {
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2Fma => "avx2+fma",
            Isa::Neon => "neon",
        }
    }

    fn from_u8(v: u8) -> Option<Isa> {
        match v {
            1 => Some(Isa::Scalar),
            2 => Some(Isa::Avx2Fma),
            3 => Some(Isa::Neon),
            _ => None,
        }
    }
}

/// `fn(arow, txs, panel, oc, o0)`: accumulate `arow[k] += Σ_i txs[i] ·
/// panel[i·oc + o0 + k]` for `k < arow.len()`. Output channels are
/// register-blocked down to a masked tail; per output element the
/// `i`-order summation is a plain nested loop's.
pub type OuterProductRowFn = fn(&mut [f32], &[f32], &[f32], usize, usize);

/// `fn(arow0, arow1, txs0, txs1, panel, oc, o0)`: two independent
/// [`OuterProductRowFn`] accumulations *sharing one pass over the filter
/// panel* — each panel row is loaded once and fed to both tiles'
/// accumulators, halving panel bandwidth per FLOP. The Winograd-domain
/// outer product is filter-bound on wide vectors (the panel stream is
/// `lane_width×` the tx stream), so this is the reuse axis that keeps
/// AVX2 fed from L2. Per output element the accumulation order is exactly
/// the single-row kernel's, so pairing never changes results.
pub type OuterProductRow2Fn = fn(&mut [f32], &mut [f32], &[f32], &[f32], &[f32], usize, usize);

/// `fn(coeffs, paired, x, x_stride, out, out_stride, row, c0, w)`: one
/// channel block of one paired-transform plan step — channels
/// `[c0, c0 + w)` of plan row `row` (and `row + 1` when `paired`). Per
/// output element the summation order is the plan's column order:
/// even/odd partial sums, then `e + o` / `e − o`.
pub type TransformStepFn = fn(&[f32], bool, &[f32], usize, &mut [f32], usize, usize, usize, usize);

/// `fn(kc, a, b, c, ldc)`: `C[MR×NR] += Aᵖ[kc×MR] · Bᵖ[kc×NR]`. `a` holds
/// `kc` groups of [`MR`] values (k-major A micro-panel), `b` holds `kc`
/// groups of [`NR`] values (k-major B micro-panel), and `c` is the tile
/// origin with row stride `ldc ≥ NR`. The accumulators initialize from C
/// and add each product in ascending `k`, so a blocked GEMM built on the
/// tile is bitwise equal to the naive left-to-right triple loop.
pub type Tile6x16Fn = fn(usize, &[f32], &[f32], &mut [f32], usize);

/// One dispatched microkernel set. Obtained from [`kernels`]; the entries
/// of every set produce bitwise-identical results.
#[derive(Clone, Copy)]
pub struct Microkernels {
    pub isa: Isa,
    /// f32 elements per explicit vector op: 8 (AVX2), 4 (NEON), 1 (scalar
    /// fallback — LLVM may still autovectorise, but nothing is guaranteed).
    pub lane_width: usize,
    pub outer_product_row: OuterProductRowFn,
    pub outer_product_row2: OuterProductRow2Fn,
    pub transform_step: TransformStepFn,
    pub tile_6x16: Tile6x16Fn,
}

static SCALAR_KERNELS: Microkernels = Microkernels {
    isa: Isa::Scalar,
    lane_width: 1,
    outer_product_row: scalar::outer_product_row,
    outer_product_row2: scalar::outer_product_row2,
    transform_step: scalar::transform_step,
    tile_6x16: scalar::tile_6x16,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Microkernels = Microkernels {
    isa: Isa::Avx2Fma,
    lane_width: LANE,
    outer_product_row: avx2::outer_product_row,
    outer_product_row2: avx2::outer_product_row2,
    transform_step: avx2::transform_step,
    tile_6x16: avx2::tile_6x16,
};

#[cfg(target_arch = "aarch64")]
static NEON_KERNELS: Microkernels = Microkernels {
    isa: Isa::Neon,
    lane_width: 4,
    outer_product_row: neon::outer_product_row,
    outer_product_row2: neon::outer_product_row2,
    transform_step: neon::transform_step,
    tile_6x16: neon::tile_6x16,
};

fn table(isa: Isa) -> &'static Microkernels {
    match isa {
        Isa::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => &AVX2_KERNELS,
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => &NEON_KERNELS,
        // A cached byte can only name an ISA `resolve` selected on this
        // arch, so this arm is for cfg-completeness, not a real fallback.
        _ => &SCALAR_KERNELS,
    }
}

/// Cached dispatch decision: `0` = unresolved, otherwise an [`Isa`]
/// discriminant written by `resolve`.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

/// Force-scalar override state: `0` = follow `IWINO_FORCE_SCALAR`,
/// `1` = forced scalar, `2` = forced native (env ignored).
static FORCE: AtomicU8 = AtomicU8::new(0);

/// The dispatched microkernel set: one relaxed load on the hot path after
/// the first call resolves CPU features.
#[inline]
pub fn kernels() -> &'static Microkernels {
    // ORDERING: Relaxed — the byte is a pure cache of `resolve()`, which is
    // deterministic for a given force-flag state, and every table entry is
    // bitwise-equivalent, so a reader racing a `set_force_scalar` toggle
    // merely re-runs detection or briefly uses another, numerically
    // identical path. No other data is published through this atomic.
    match Isa::from_u8(DISPATCH.load(Ordering::Relaxed)) {
        Some(isa) => table(isa),
        None => table(resolve()),
    }
}

#[cold]
fn resolve() -> Isa {
    let isa = if force_scalar_requested() {
        Isa::Scalar
    } else {
        native_isa()
    };
    // ORDERING: Relaxed — see `kernels()`; publishing the cached byte late
    // only makes another thread redo this cheap, deterministic detection.
    DISPATCH.store(isa as u8, Ordering::Relaxed);
    isa
}

/// Is the scalar fallback being forced? Programmatic override
/// ([`set_force_scalar`]) wins; otherwise a non-empty, non-`"0"`
/// `IWINO_FORCE_SCALAR` environment variable forces scalar.
pub fn force_scalar_requested() -> bool {
    // ORDERING: Relaxed — independent flag; see `kernels()` for why a
    // stale read is benign.
    match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => std::env::var_os("IWINO_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0"),
    }
}

/// Programmatic force-scalar knob: `true` routes all microkernels to the
/// scalar fallback, `false` restores native dispatch (both override the
/// environment variable). Invalidates the cached decision; threads mid-call
/// during a toggle finish on the old path, which is harmless because every
/// path is bit-for-bit identical.
pub fn set_force_scalar(on: bool) {
    // ORDERING: Relaxed for both stores — independent flag writes with no
    // data published through them; the worst outcome of reordering is one
    // extra `resolve()` of the previous state (see `kernels()`).
    FORCE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    DISPATCH.store(0, Ordering::Relaxed);
}

/// Clear any programmatic [`set_force_scalar`] override, returning to the
/// `IWINO_FORCE_SCALAR` environment policy, and invalidate the cached
/// dispatch. For tests and A/B harnesses that must leave the
/// process-global dispatch state as they found it.
pub fn clear_force_override() {
    // ORDERING: Relaxed — [flag] configuration store, same reasoning as
    // `set_force_scalar`: the worst outcome of reordering is one extra
    // `resolve()` of the previous state.
    FORCE.store(0, Ordering::Relaxed);
    DISPATCH.store(0, Ordering::Relaxed); // ORDERING: as above
}

/// The ISA `resolve` would pick with no force-scalar override.
pub fn native_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return Isa::Avx2Fma;
        }
        Isa::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Isa::Neon;
        }
        Isa::Scalar
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Isa::Scalar
    }
}

/// CPU features detected at runtime (reported regardless of which path is
/// dispatched, so metrics from a forced-scalar run still identify the
/// host).
pub fn detected_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse2", std::is_x86_feature_detected!("sse2")),
            ("sse4.1", std::is_x86_feature_detected!("sse4.1")),
            ("avx", std::is_x86_feature_detected!("avx")),
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("fma", std::is_x86_feature_detected!("fma")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                f.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            f.push("neon");
        }
    }
    f
}

/// Everything a metrics consumer needs to identify the dispatched path.
#[derive(Clone, Debug)]
pub struct DispatchInfo {
    /// Name of the dispatched ISA (`"avx2+fma"`, `"neon"`, `"scalar"`).
    pub isa: &'static str,
    /// [`Microkernels::lane_width`] of the dispatched set.
    pub lane_width: usize,
    /// Whether a force-scalar override (env or programmatic) is active.
    pub forced_scalar: bool,
    /// [`detected_features`] of the host, independent of dispatch.
    pub features: Vec<&'static str>,
}

pub fn dispatch_info() -> DispatchInfo {
    let mk = kernels();
    DispatchInfo {
        isa: mk.isa.name(),
        lane_width: mk.lane_width,
        forced_scalar: force_scalar_requested(),
        features: detected_features(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The dispatch cache and force flag are process-global; tests that
    /// toggle them serialize here and restore the default on drop.
    fn force_guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct RestoreDispatch;
    impl Drop for RestoreDispatch {
        fn drop(&mut self) {
            clear_force_override();
        }
    }

    #[test]
    fn force_scalar_routes_to_scalar_and_back() {
        let _g = force_guard();
        let _r = RestoreDispatch;
        set_force_scalar(true);
        assert_eq!(kernels().isa, Isa::Scalar);
        assert_eq!(kernels().lane_width, 1);
        assert!(force_scalar_requested());
        set_force_scalar(false);
        assert_eq!(kernels().isa, native_isa());
        assert!(!force_scalar_requested());
        // On a host with SIMD support the two dispatches must differ in the
        // actual function pointers, proving the knob switches code paths.
        if native_isa() != Isa::Scalar {
            let native = *kernels();
            set_force_scalar(true);
            let forced = *kernels();
            assert!(!std::ptr::fn_addr_eq(
                native.outer_product_row,
                forced.outer_product_row
            ));
            assert!(!std::ptr::fn_addr_eq(native.transform_step, forced.transform_step));
            assert!(!std::ptr::fn_addr_eq(native.tile_6x16, forced.tile_6x16));
        }
    }

    #[test]
    fn dispatch_info_names_a_known_isa() {
        let _g = force_guard();
        let _r = RestoreDispatch;
        set_force_scalar(false);
        let info = dispatch_info();
        assert!(["scalar", "avx2+fma", "neon"].contains(&info.isa));
        assert!(!info.forced_scalar);
        #[cfg(target_arch = "x86_64")]
        assert!(info.features.contains(&"sse2"), "x86-64 baseline always has sse2");
    }

    /// Deterministic pseudo-random fill, decorrelated by `seed`.
    fn fill(buf: &mut [f32], seed: u32) {
        let mut s = seed.wrapping_mul(2654435761).max(1);
        for v in buf {
            // xorshift32: cheap, deterministic, full-range sign/exponent mix.
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *v = (s as f32 / u32::MAX as f32) * 4.0 - 2.0;
        }
    }

    #[test]
    fn outer_product_row_matches_scalar_bitwise_for_every_tail() {
        let _g = force_guard();
        let _r = RestoreDispatch;
        set_force_scalar(false);
        let native = *kernels();
        let oc = 70usize;
        for icb in [1usize, 3, 8, 17, 32] {
            let mut txs = vec![0.0f32; icb];
            fill(&mut txs, 11 + icb as u32);
            let mut panel = vec![0.0f32; icb * oc];
            fill(&mut panel, 23 + icb as u32);
            // Sweep ocb across every `ocb % LANE` tail plus full 8×LANE blocks.
            for ocb in (1..=2 * LANE).chain([63, 64, oc]) {
                for o0 in [0usize, 3] {
                    if o0 + ocb > oc {
                        continue;
                    }
                    let mut a_scalar = vec![0.0f32; ocb];
                    fill(&mut a_scalar, 37 + ocb as u32);
                    let mut a_native = a_scalar.clone();
                    scalar::outer_product_row(&mut a_scalar, &txs, &panel, oc, o0);
                    (native.outer_product_row)(&mut a_native, &txs, &panel, oc, o0);
                    for (k, (s, n)) in a_scalar.iter().zip(&a_native).enumerate() {
                        assert_eq!(
                            s.to_bits(),
                            n.to_bits(),
                            "icb={icb} ocb={ocb} o0={o0} k={k}: scalar {s} vs {} {n}",
                            native.isa.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_6x16_matches_scalar_bitwise() {
        let _g = force_guard();
        let _r = RestoreDispatch;
        set_force_scalar(false);
        let native = *kernels();
        for kc in [1usize, 2, 7, 256] {
            let mut a = vec![0.0f32; kc * MR];
            let mut b = vec![0.0f32; kc * NR];
            fill(&mut a, 61 + kc as u32);
            fill(&mut b, 67 + kc as u32);
            // Non-finite entries: ∞·0 and NaN operands must reach C, and
            // ±∞ sums must agree with scalar to the NaN bit pattern.
            a[0] = f32::INFINITY;
            b[0] = 0.0;
            b[NR - 1] = f32::NEG_INFINITY;
            a[(kc - 1) * MR + MR - 1] = f32::NAN;
            for ldc in [NR, NR + 5] {
                // The whole buffer is compared, so a write into the
                // `ldc − NR` gap between tile rows is caught too.
                let mut c_scalar = vec![0.0f32; (MR - 1) * ldc + NR];
                fill(&mut c_scalar, 71 + (kc + ldc) as u32);
                c_scalar[ldc + 3] = f32::NEG_INFINITY;
                let mut c_native = c_scalar.clone();
                scalar::tile_6x16(kc, &a, &b, &mut c_scalar, ldc);
                (native.tile_6x16)(kc, &a, &b, &mut c_native, ldc);
                assert!(
                    c_scalar.iter().any(|v| v.is_nan()),
                    "the test must exercise a NaN product"
                );
                for (i, (s, n)) in c_scalar.iter().zip(&c_native).enumerate() {
                    assert_eq!(
                        s.to_bits(),
                        n.to_bits(),
                        "kc={kc} ldc={ldc} idx {i}: scalar {s} vs {} {n}",
                        native.isa.name()
                    );
                }
            }
        }
    }

    #[test]
    fn outer_product_row2_matches_single_rows_bitwise() {
        let _g = force_guard();
        let _r = RestoreDispatch;
        set_force_scalar(false);
        let native = *kernels();
        let oc = 70usize;
        for icb in [1usize, 7, 32] {
            let mut txs0 = vec![0.0f32; icb];
            let mut txs1 = vec![0.0f32; icb];
            fill(&mut txs0, 41 + icb as u32);
            fill(&mut txs1, 43 + icb as u32);
            let mut panel = vec![0.0f32; icb * oc];
            fill(&mut panel, 47 + icb as u32);
            // Sweep every tail width plus multi-block and offset cases.
            for ocb in (1..=2 * LANE).chain([33, 63, 64]) {
                for o0 in [0usize, 5] {
                    if o0 + ocb > oc {
                        continue;
                    }
                    let mut want0 = vec![0.0f32; ocb];
                    let mut want1 = vec![0.0f32; ocb];
                    fill(&mut want0, 53 + ocb as u32);
                    fill(&mut want1, 59 + ocb as u32);
                    let mut got0 = want0.clone();
                    let mut got1 = want1.clone();
                    scalar::outer_product_row(&mut want0, &txs0, &panel, oc, o0);
                    scalar::outer_product_row(&mut want1, &txs1, &panel, oc, o0);
                    (native.outer_product_row2)(&mut got0, &mut got1, &txs0, &txs1, &panel, oc, o0);
                    for (k, (w, g)) in want0.iter().chain(&want1).zip(got0.iter().chain(&got1)).enumerate() {
                        assert_eq!(
                            w.to_bits(),
                            g.to_bits(),
                            "icb={icb} ocb={ocb} o0={o0} k={k}: single-row scalar {w} vs paired {} {g}",
                            native.isa.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transform_step_matches_scalar_bitwise_for_every_width() {
        let _g = force_guard();
        let _r = RestoreDispatch;
        set_force_scalar(false);
        let native = *kernels();
        let stride = TRANSFORM_CHUNK + 5;
        for cols in [3usize, 8, 16] {
            let mut coeffs = vec![0.0f32; cols];
            fill(&mut coeffs, 5 + cols as u32);
            coeffs[cols / 2] = 0.0; // exercise the zero-skip branch
            let mut x = vec![0.0f32; cols * stride];
            fill(&mut x, 7 + cols as u32);
            for paired in [false, true] {
                for w in 1..=TRANSFORM_CHUNK {
                    for c0 in [0usize, 2] {
                        if c0 + w > stride {
                            continue;
                        }
                        let mut out_s = vec![9.0f32; 4 * stride];
                        let mut out_n = out_s.clone();
                        scalar::transform_step(&coeffs, paired, &x, stride, &mut out_s, stride, 1, c0, w);
                        (native.transform_step)(&coeffs, paired, &x, stride, &mut out_n, stride, 1, c0, w);
                        assert!(
                            out_s.iter().zip(&out_n).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "cols={cols} paired={paired} w={w} c0={c0}: {} differs from scalar \
                             (or wrote outside the block)",
                            native.isa.name()
                        );
                    }
                }
            }
        }
    }
}
