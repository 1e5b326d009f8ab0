//! AVX2 microkernels (x86-64, 8-lane `__m256`).
//!
//! Bit-exactness contract: the FMA unit's single-rounded fused
//! multiply-add is deliberately **not** used — `vmulps` + `vaddps` round
//! exactly like the scalar fallback's `a += v * w`, and every kernel keeps
//! the scalar code's per-element accumulation order, so results are
//! bitwise identical to [`crate::scalar`]. The speedup comes from issuing
//! 8 lanes per op with up to 8 live ymm accumulators, not from fusing.
//! (FMA is still *detected* at dispatch: `#[target_feature]` enables it so
//! LLVM may use it for address math, and requiring it keeps the dispatch
//! criterion aligned with hosts where this path is profitable.)
//!
//! Safety structure: the only public items are safe wrappers that assert
//! every bound the raw-pointer kernels rely on; the `unsafe` kernels are
//! private and only reachable through them. The wrappers are installed in
//! the dispatch table strictly after `is_x86_feature_detected!` confirms
//! AVX2+FMA (see `crate::resolve`).

use crate::{LANE, MR, NR};
use core::arch::x86_64::*;

/// Safe dispatch-table entry with [`crate::scalar::outer_product_row`]
/// semantics: `arow[k] += Σ_i txs[i] · panel[i·oc + o0 + k]`.
pub(crate) fn outer_product_row(arow: &mut [f32], txs: &[f32], panel: &[f32], oc: usize, o0: usize) {
    let ocb = arow.len();
    let Some(i_last) = txs.len().checked_sub(1) else {
        return; // no channels in this panel: nothing to accumulate
    };
    if ocb == 0 {
        return;
    }
    // The furthest filter element read is panel[i_last·oc + o0 + ocb − 1].
    assert!(
        panel.len() >= i_last * oc + o0 + ocb,
        "transformed-filter panel too short for outer-product row"
    );
    // SAFETY: this entry is dispatched only after runtime detection of
    // avx2+fma (crate::resolve); `arow[..ocb]` is a valid &mut slice, and
    // the assert above bounds every `panel` offset the kernel derives
    // (`i·oc + o0 + k` with `i ≤ i_last`, `k < ocb`).
    unsafe { outer_product_row_impl(arow.as_mut_ptr(), ocb, txs, panel.as_ptr(), oc, o0) }
}

// SAFETY: (caller contract) callers must ensure the CPU supports AVX2+FMA, that
// `arow[..ocb]` is writable, and that `panel[i*oc + o0 + k]` is readable
// for all `i < txs.len()`, `k < ocb` — asserted by the wrapper above.
#[target_feature(enable = "avx2,fma")]
unsafe fn outer_product_row_impl(arow: *mut f32, ocb: usize, txs: &[f32], panel: *const f32, oc: usize, o0: usize) {
    let mut o = 0usize;
    while o + 8 * LANE <= ocb {
        block8(arow.add(o), txs, panel.add(o0 + o), oc);
        o += 8 * LANE;
    }
    while o + 4 * LANE <= ocb {
        block4(arow.add(o), txs, panel.add(o0 + o), oc);
        o += 4 * LANE;
    }
    while o + LANE <= ocb {
        block1(arow.add(o), txs, panel.add(o0 + o), oc);
        o += LANE;
    }
    if o < ocb {
        tail(arow.add(o), ocb - o, txs, panel.add(o0 + o), oc);
    }
}

// SAFETY: (caller contract) AVX2 enabled; `arow[..64]` writable and
// `panel[i*oc ..][..64]` readable for every `i < txs.len()` — guaranteed
// by `outer_product_row_impl`'s blocking bounds.
#[target_feature(enable = "avx2,fma")]
unsafe fn block8(arow: *mut f32, txs: &[f32], panel: *const f32, oc: usize) {
    let mut a0 = _mm256_loadu_ps(arow);
    let mut a1 = _mm256_loadu_ps(arow.add(8));
    let mut a2 = _mm256_loadu_ps(arow.add(16));
    let mut a3 = _mm256_loadu_ps(arow.add(24));
    let mut a4 = _mm256_loadu_ps(arow.add(32));
    let mut a5 = _mm256_loadu_ps(arow.add(40));
    let mut a6 = _mm256_loadu_ps(arow.add(48));
    let mut a7 = _mm256_loadu_ps(arow.add(56));
    for (i, &v) in txs.iter().enumerate() {
        let w = panel.add(i * oc);
        let vv = _mm256_set1_ps(v);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(vv, _mm256_loadu_ps(w)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(8))));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(16))));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(24))));
        a4 = _mm256_add_ps(a4, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(32))));
        a5 = _mm256_add_ps(a5, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(40))));
        a6 = _mm256_add_ps(a6, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(48))));
        a7 = _mm256_add_ps(a7, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(56))));
    }
    _mm256_storeu_ps(arow, a0);
    _mm256_storeu_ps(arow.add(8), a1);
    _mm256_storeu_ps(arow.add(16), a2);
    _mm256_storeu_ps(arow.add(24), a3);
    _mm256_storeu_ps(arow.add(32), a4);
    _mm256_storeu_ps(arow.add(40), a5);
    _mm256_storeu_ps(arow.add(48), a6);
    _mm256_storeu_ps(arow.add(56), a7);
}

// SAFETY: (caller contract) AVX2 enabled; `arow[..32]` writable and
// `panel[i*oc ..][..32]` readable for every `i < txs.len()` — guaranteed
// by `outer_product_row_impl`'s blocking bounds.
#[target_feature(enable = "avx2,fma")]
unsafe fn block4(arow: *mut f32, txs: &[f32], panel: *const f32, oc: usize) {
    let mut a0 = _mm256_loadu_ps(arow);
    let mut a1 = _mm256_loadu_ps(arow.add(8));
    let mut a2 = _mm256_loadu_ps(arow.add(16));
    let mut a3 = _mm256_loadu_ps(arow.add(24));
    for (i, &v) in txs.iter().enumerate() {
        let w = panel.add(i * oc);
        let vv = _mm256_set1_ps(v);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(vv, _mm256_loadu_ps(w)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(8))));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(16))));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(vv, _mm256_loadu_ps(w.add(24))));
    }
    _mm256_storeu_ps(arow, a0);
    _mm256_storeu_ps(arow.add(8), a1);
    _mm256_storeu_ps(arow.add(16), a2);
    _mm256_storeu_ps(arow.add(24), a3);
}

// SAFETY: (caller contract) AVX2 enabled; `arow[..8]` writable and
// `panel[i*oc ..][..8]` readable for every `i < txs.len()` — guaranteed
// by `outer_product_row_impl`'s blocking bounds.
#[target_feature(enable = "avx2,fma")]
unsafe fn block1(arow: *mut f32, txs: &[f32], panel: *const f32, oc: usize) {
    let mut a0 = _mm256_loadu_ps(arow);
    for (i, &v) in txs.iter().enumerate() {
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(v), _mm256_loadu_ps(panel.add(i * oc))));
    }
    _mm256_storeu_ps(arow, a0);
}

// SAFETY: (caller contract) AVX2 enabled; `arow[..w]` writable and
// `panel[i*oc ..][..w]` readable for every `i < txs.len()`, with
// `0 < w < LANE` — the masked loads/stores below touch exactly the first
// `w` lanes, so nothing past the live prefix is read or written.
#[target_feature(enable = "avx2,fma")]
unsafe fn tail(arow: *mut f32, w: usize, txs: &[f32], panel: *const f32, oc: usize) {
    debug_assert!(0 < w && w < LANE);
    // Lane k is live iff k < w; masked-out lanes load as 0.0, accumulate
    // 0.0 · v, and are never stored — matching scalar fma_tail's masking.
    let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mut a0 = _mm256_maskload_ps(arow, live);
    for (i, &v) in txs.iter().enumerate() {
        let wrow = _mm256_maskload_ps(panel.add(i * oc), live);
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(v), wrow));
    }
    _mm256_maskstore_ps(arow, live, a0);
}

/// Safe dispatch-table entry with [`crate::scalar::outer_product_row2`]
/// semantics: two tiles accumulated in one pass over the shared filter
/// panel. Each panel row is loaded once and multiplied into both tiles'
/// accumulators — the single-row kernel at `ocb = 64` needs 32 B/cycle of
/// panel traffic to stay fed (right at sustained L2 bandwidth); pairing
/// halves that per FLOP, which is where the speedup over one-row calls
/// comes from.
pub(crate) fn outer_product_row2(
    arow0: &mut [f32],
    arow1: &mut [f32],
    txs0: &[f32],
    txs1: &[f32],
    panel: &[f32],
    oc: usize,
    o0: usize,
) {
    let ocb = arow0.len();
    assert_eq!(ocb, arow1.len(), "paired outer-product rows must have equal widths");
    assert_eq!(
        txs0.len(),
        txs1.len(),
        "paired outer-product tiles must share a channel count"
    );
    let Some(i_last) = txs0.len().checked_sub(1) else {
        return; // no channels in this panel: nothing to accumulate
    };
    if ocb == 0 {
        return;
    }
    // The furthest filter element read is panel[i_last·oc + o0 + ocb − 1].
    assert!(
        panel.len() >= i_last * oc + o0 + ocb,
        "transformed-filter panel too short for outer-product row pair"
    );
    // SAFETY: this entry is dispatched only after runtime detection of
    // avx2+fma (crate::resolve); `arow0`/`arow1` are distinct valid &mut
    // slices of equal length `ocb`, `txs1.len() == txs0.len()`, and the
    // assert above bounds every `panel` offset the kernel derives
    // (`i·oc + o0 + k` with `i ≤ i_last`, `k < ocb`).
    unsafe {
        outer_product_row2_impl(
            arow0.as_mut_ptr(),
            arow1.as_mut_ptr(),
            ocb,
            txs0,
            txs1,
            panel.as_ptr(),
            oc,
            o0,
        )
    }
}

// SAFETY: (caller contract) callers must ensure the CPU supports AVX2+FMA, that
// `arow0[..ocb]` and `arow1[..ocb]` are writable and disjoint, that
// `txs1.len() == txs0.len()`, and that `panel[i*oc + o0 + k]` is readable
// for all `i < txs0.len()`, `k < ocb` — asserted by the wrapper above.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn outer_product_row2_impl(
    a0: *mut f32,
    a1: *mut f32,
    ocb: usize,
    txs0: &[f32],
    txs1: &[f32],
    panel: *const f32,
    oc: usize,
    o0: usize,
) {
    let mut o = 0usize;
    while o + 4 * LANE <= ocb {
        block4x2(a0.add(o), a1.add(o), txs0, txs1, panel.add(o0 + o), oc);
        o += 4 * LANE;
    }
    while o + LANE <= ocb {
        block1x2(a0.add(o), a1.add(o), txs0, txs1, panel.add(o0 + o), oc);
        o += LANE;
    }
    if o < ocb {
        tail2(a0.add(o), a1.add(o), ocb - o, txs0, txs1, panel.add(o0 + o), oc);
    }
}

// SAFETY: (caller contract) AVX2 enabled; `a0[..32]` and `a1[..32]` writable and
// `panel[i*oc ..][..32]` readable for every `i < txs0.len()` — guaranteed
// by `outer_product_row2_impl`'s blocking bounds. 8 accumulators (4 per
// tile) + 2 broadcasts + 4 panel loads stay within the 16 ymm registers.
#[target_feature(enable = "avx2,fma")]
unsafe fn block4x2(a0p: *mut f32, a1p: *mut f32, txs0: &[f32], txs1: &[f32], panel: *const f32, oc: usize) {
    let mut x0 = _mm256_loadu_ps(a0p);
    let mut x1 = _mm256_loadu_ps(a0p.add(8));
    let mut x2 = _mm256_loadu_ps(a0p.add(16));
    let mut x3 = _mm256_loadu_ps(a0p.add(24));
    let mut y0 = _mm256_loadu_ps(a1p);
    let mut y1 = _mm256_loadu_ps(a1p.add(8));
    let mut y2 = _mm256_loadu_ps(a1p.add(16));
    let mut y3 = _mm256_loadu_ps(a1p.add(24));
    for (i, (&v0, &v1)) in txs0.iter().zip(txs1).enumerate() {
        let w = panel.add(i * oc);
        let vv0 = _mm256_set1_ps(v0);
        let vv1 = _mm256_set1_ps(v1);
        let l0 = _mm256_loadu_ps(w);
        let l1 = _mm256_loadu_ps(w.add(8));
        let l2 = _mm256_loadu_ps(w.add(16));
        let l3 = _mm256_loadu_ps(w.add(24));
        x0 = _mm256_add_ps(x0, _mm256_mul_ps(vv0, l0));
        x1 = _mm256_add_ps(x1, _mm256_mul_ps(vv0, l1));
        x2 = _mm256_add_ps(x2, _mm256_mul_ps(vv0, l2));
        x3 = _mm256_add_ps(x3, _mm256_mul_ps(vv0, l3));
        y0 = _mm256_add_ps(y0, _mm256_mul_ps(vv1, l0));
        y1 = _mm256_add_ps(y1, _mm256_mul_ps(vv1, l1));
        y2 = _mm256_add_ps(y2, _mm256_mul_ps(vv1, l2));
        y3 = _mm256_add_ps(y3, _mm256_mul_ps(vv1, l3));
    }
    _mm256_storeu_ps(a0p, x0);
    _mm256_storeu_ps(a0p.add(8), x1);
    _mm256_storeu_ps(a0p.add(16), x2);
    _mm256_storeu_ps(a0p.add(24), x3);
    _mm256_storeu_ps(a1p, y0);
    _mm256_storeu_ps(a1p.add(8), y1);
    _mm256_storeu_ps(a1p.add(16), y2);
    _mm256_storeu_ps(a1p.add(24), y3);
}

// SAFETY: (caller contract) AVX2 enabled; `a0[..8]` and `a1[..8]` writable and
// `panel[i*oc ..][..8]` readable for every `i < txs0.len()` — guaranteed
// by `outer_product_row2_impl`'s blocking bounds.
#[target_feature(enable = "avx2,fma")]
unsafe fn block1x2(a0p: *mut f32, a1p: *mut f32, txs0: &[f32], txs1: &[f32], panel: *const f32, oc: usize) {
    let mut x0 = _mm256_loadu_ps(a0p);
    let mut y0 = _mm256_loadu_ps(a1p);
    for (i, (&v0, &v1)) in txs0.iter().zip(txs1).enumerate() {
        let l0 = _mm256_loadu_ps(panel.add(i * oc));
        x0 = _mm256_add_ps(x0, _mm256_mul_ps(_mm256_set1_ps(v0), l0));
        y0 = _mm256_add_ps(y0, _mm256_mul_ps(_mm256_set1_ps(v1), l0));
    }
    _mm256_storeu_ps(a0p, x0);
    _mm256_storeu_ps(a1p, y0);
}

// SAFETY: (caller contract) AVX2 enabled; `a0[..w]` and `a1[..w]` writable and
// `panel[i*oc ..][..w]` readable for every `i < txs0.len()`, with
// `0 < w < LANE` — the masked loads/stores below touch exactly the first
// `w` lanes, so nothing past the live prefix is read or written.
#[target_feature(enable = "avx2,fma")]
unsafe fn tail2(a0p: *mut f32, a1p: *mut f32, w: usize, txs0: &[f32], txs1: &[f32], panel: *const f32, oc: usize) {
    debug_assert!(0 < w && w < LANE);
    let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let mut x0 = _mm256_maskload_ps(a0p, live);
    let mut y0 = _mm256_maskload_ps(a1p, live);
    for (i, (&v0, &v1)) in txs0.iter().zip(txs1).enumerate() {
        let wrow = _mm256_maskload_ps(panel.add(i * oc), live);
        x0 = _mm256_add_ps(x0, _mm256_mul_ps(_mm256_set1_ps(v0), wrow));
        y0 = _mm256_add_ps(y0, _mm256_mul_ps(_mm256_set1_ps(v1), wrow));
    }
    _mm256_maskstore_ps(a0p, live, x0);
    _mm256_maskstore_ps(a1p, live, y0);
}

/// Safe dispatch-table entry with [`crate::scalar::transform_step`]
/// semantics: one channel block (`w ≤ TRANSFORM_CHUNK`) of one paired
/// plan step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transform_step(
    coeffs: &[f32],
    paired: bool,
    x: &[f32],
    x_stride: usize,
    out: &mut [f32],
    out_stride: usize,
    row: usize,
    c0: usize,
    w: usize,
) {
    assert!((1..=crate::TRANSFORM_CHUNK).contains(&w));
    let Some(j_last) = coeffs.len().checked_sub(1) else {
        // No columns: both output rows are all-zero partial sums.
        out[row * out_stride + c0..row * out_stride + c0 + w].fill(0.0);
        if paired {
            out[(row + 1) * out_stride + c0..(row + 1) * out_stride + c0 + w].fill(0.0);
        }
        return;
    };
    assert!(x.len() >= j_last * x_stride + c0 + w, "transform input too short");
    let rows_written = row + usize::from(paired);
    assert!(
        out.len() >= rows_written * out_stride + c0 + w,
        "transform output too short"
    );
    // SAFETY: dispatched only after avx2+fma runtime detection
    // (crate::resolve); the asserts above cover every offset read
    // (`j·x_stride + c0 + k`, `j ≤ j_last`, `k < w`) and written
    // (rows `row`/`row + 1`, columns `[c0, c0 + w)`).
    unsafe {
        transform_step_impl(
            coeffs,
            paired,
            x.as_ptr(),
            x_stride,
            out.as_mut_ptr(),
            out_stride,
            row,
            c0,
            w,
        )
    }
}

// SAFETY: (caller contract) callers must ensure AVX2+FMA support, readability of
// `x[j*x_stride + c0 ..][..w]` for every `j < coeffs.len()`, and
// writability of output rows `row` (and `row + 1` when `paired`) at
// columns `[c0, c0 + w)` — asserted by the wrapper above.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn transform_step_impl(
    coeffs: &[f32],
    paired: bool,
    x: *const f32,
    x_stride: usize,
    out: *mut f32,
    out_stride: usize,
    row: usize,
    c0: usize,
    w: usize,
) {
    const NB: usize = crate::TRANSFORM_CHUNK / LANE;
    let nb = w / LANE;
    let rem = w % LANE;
    // Even/odd partial sums: up to 8 ymm blocks plus one scalar remainder
    // block, all on the stack. The coefficient loop stays outermost (its
    // zero-skip branch amortises over the whole block) and each element's
    // column-order accumulation matches scalar::transform_step exactly.
    let mut even = [_mm256_setzero_ps(); NB];
    let mut odd = [_mm256_setzero_ps(); NB];
    let mut even_r = [0.0f32; LANE];
    let mut odd_r = [0.0f32; LANE];
    for (j, &m) in coeffs.iter().enumerate() {
        if m == 0.0 {
            continue;
        }
        let src = x.add(j * x_stride + c0);
        let mv = _mm256_set1_ps(m);
        let is_odd = paired && j % 2 != 0;
        let acc = if is_odd { &mut odd } else { &mut even };
        for (b, a) in acc[..nb].iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_mul_ps(mv, _mm256_loadu_ps(src.add(b * LANE))));
        }
        if rem > 0 {
            let accr = if is_odd { &mut odd_r } else { &mut even_r };
            for (k, a) in accr[..rem].iter_mut().enumerate() {
                *a += m * *src.add(nb * LANE + k);
            }
        }
    }
    let dst0 = out.add(row * out_stride + c0);
    if !paired {
        for (b, a) in even[..nb].iter().enumerate() {
            _mm256_storeu_ps(dst0.add(b * LANE), *a);
        }
        for (k, a) in even_r[..rem].iter().enumerate() {
            *dst0.add(nb * LANE + k) = *a;
        }
        return;
    }
    let dst1 = out.add((row + 1) * out_stride + c0);
    for b in 0..nb {
        _mm256_storeu_ps(dst0.add(b * LANE), _mm256_add_ps(even[b], odd[b]));
        _mm256_storeu_ps(dst1.add(b * LANE), _mm256_sub_ps(even[b], odd[b]));
    }
    for k in 0..rem {
        *dst0.add(nb * LANE + k) = even_r[k] + odd_r[k];
        *dst1.add(nb * LANE + k) = even_r[k] - odd_r[k];
    }
}

/// Safe dispatch-table entry with [`crate::scalar::tile_6x16`] semantics:
/// `C[MR×NR] += Aᵖ[kc×MR] · Bᵖ[kc×NR]`, accumulators initialized from C.
///
/// Register budget: 6 rows × 2 ymm accumulators = 12, plus two B loads and
/// one A broadcast per k step — 15 of the 16 ymm registers. Packed panels
/// are always full `MR`/`NR` groups (the packers zero-pad edges), so no
/// masked tails are needed.
pub(crate) fn tile_6x16(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    assert!(a.len() >= kc * MR, "A micro-panel too short");
    assert!(b.len() >= kc * NR, "B micro-panel too short");
    assert!(ldc >= NR, "C row stride below tile width");
    assert!(c.len() >= (MR - 1) * ldc + NR, "C tile out of bounds");
    // SAFETY: this entry is dispatched only after runtime detection of
    // avx2+fma (crate::resolve); the asserts above bound every offset the
    // kernel derives — `a[kk·MR + r]` and `b[kk·NR + j]` for `kk < kc`,
    // and `c[r·ldc + j]` for `r < MR`, `j < NR`.
    unsafe { tile_6x16_impl(kc, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), ldc) }
}

// SAFETY: (caller contract) callers must ensure AVX2 support, readability
// of `a[..kc*MR]` and `b[..kc*NR]`, and writability of `c[r*ldc ..][..NR]`
// for every `r < MR` — asserted by the wrapper above.
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_6x16_impl(kc: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + LANE));
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(b.add(kk * NR));
        let b1 = _mm256_loadu_ps(b.add(kk * NR + LANE));
        let ak = a.add(kk * MR);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ak.add(r));
            row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(av, b0));
            row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(av, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + LANE), row[1]);
    }
}
