//! NEON microkernels (AArch64, 4-lane `float32x4_t`).
//!
//! Same bit-exactness contract as the AVX2 path: separate `fmul`/`fadd`
//! (never the fused `vfmaq_f32`) in the scalar fallback's per-element
//! accumulation order, so results are bitwise identical to
//! [`crate::scalar`]. NEON has no masked loads, so remainder lanes run the
//! scalar tail loops verbatim.
//!
//! Safety structure mirrors `avx2.rs`: public safe wrappers assert every
//! bound, private `unsafe` kernels do the pointer work, and the wrappers
//! enter the dispatch table only after `is_aarch64_feature_detected!`
//! confirms NEON (see `crate::resolve`).

use crate::{LANE, MR, NR};
use core::arch::aarch64::*;

/// NEON vector width in f32 lanes (one 128-bit q register).
const NL: usize = 4;

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
    // NEON (crate::resolve); `arow[..ocb]` is a valid &mut slice, and the
    // assert above bounds every `panel` offset the kernel derives
    // (`i·oc + o0 + k` with `i ≤ i_last`, `k < ocb`).
    unsafe { outer_product_row_impl(arow.as_mut_ptr(), ocb, txs, panel.as_ptr(), oc, o0) }
}

// SAFETY: (caller contract) callers must ensure NEON support, that `arow[..ocb]`
// is writable, and that `panel[i*oc + o0 + k]` is readable for all
// `i < txs.len()`, `k < ocb` — asserted by the wrapper above.
#[target_feature(enable = "neon")]
unsafe fn outer_product_row_impl(arow: *mut f32, ocb: usize, txs: &[f32], panel: *const f32, oc: usize, o0: usize) {
    let mut o = 0usize;
    while o + 4 * NL <= ocb {
        block4(arow.add(o), txs, panel.add(o0 + o), oc);
        o += 4 * NL;
    }
    while o + NL <= ocb {
        block1(arow.add(o), txs, panel.add(o0 + o), oc);
        o += NL;
    }
    if o < ocb {
        // Scalar masked tail (NEON has no masked loads): identical
        // accumulation order to scalar::fma_tail's live prefix.
        let w = ocb - o;
        let mut accv = [0.0f32; LANE];
        for (k, a) in accv[..w].iter_mut().enumerate() {
            *a = *arow.add(o + k);
        }
        for (i, &v) in txs.iter().enumerate() {
            for (k, a) in accv[..w].iter_mut().enumerate() {
                *a += v * *panel.add(i * oc + o0 + o + k);
            }
        }
        for (k, &a) in accv[..w].iter().enumerate() {
            *arow.add(o + k) = a;
        }
    }
}

// SAFETY: (caller contract) NEON enabled; `arow[..16]` writable and
// `panel[i*oc ..][..16]` readable for every `i < txs.len()` — guaranteed
// by `outer_product_row_impl`'s blocking bounds.
#[target_feature(enable = "neon")]
unsafe fn block4(arow: *mut f32, txs: &[f32], panel: *const f32, oc: usize) {
    let mut a0 = vld1q_f32(arow);
    let mut a1 = vld1q_f32(arow.add(4));
    let mut a2 = vld1q_f32(arow.add(8));
    let mut a3 = vld1q_f32(arow.add(12));
    for (i, &v) in txs.iter().enumerate() {
        let w = panel.add(i * oc);
        let vv = vdupq_n_f32(v);
        a0 = vaddq_f32(a0, vmulq_f32(vv, vld1q_f32(w)));
        a1 = vaddq_f32(a1, vmulq_f32(vv, vld1q_f32(w.add(4))));
        a2 = vaddq_f32(a2, vmulq_f32(vv, vld1q_f32(w.add(8))));
        a3 = vaddq_f32(a3, vmulq_f32(vv, vld1q_f32(w.add(12))));
    }
    vst1q_f32(arow, a0);
    vst1q_f32(arow.add(4), a1);
    vst1q_f32(arow.add(8), a2);
    vst1q_f32(arow.add(12), a3);
}

// SAFETY: (caller contract) NEON enabled; `arow[..4]` writable and
// `panel[i*oc ..][..4]` readable for every `i < txs.len()` — guaranteed
// by `outer_product_row_impl`'s blocking bounds.
#[target_feature(enable = "neon")]
unsafe fn block1(arow: *mut f32, txs: &[f32], panel: *const f32, oc: usize) {
    let mut a0 = vld1q_f32(arow);
    for (i, &v) in txs.iter().enumerate() {
        a0 = vaddq_f32(a0, vmulq_f32(vdupq_n_f32(v), vld1q_f32(panel.add(i * oc))));
    }
    vst1q_f32(arow, a0);
}

/// Safe dispatch-table entry with [`crate::scalar::outer_product_row2`]
/// semantics: two tiles accumulated in one pass over the shared filter
/// panel (each panel row loaded once, used twice — see `avx2.rs` for the
/// bandwidth argument).
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
    // NEON (crate::resolve); `arow0`/`arow1` are distinct valid &mut
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

// SAFETY: (caller contract) callers must ensure NEON support, that `a0[..ocb]`
// and `a1[..ocb]` are writable and disjoint, that `txs1.len() ==
// txs0.len()`, and that `panel[i*oc + o0 + k]` is readable for all
// `i < txs0.len()`, `k < ocb` — asserted by the wrapper above.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
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
    while o + 4 * NL <= ocb {
        block4x2(a0.add(o), a1.add(o), txs0, txs1, panel.add(o0 + o), oc);
        o += 4 * NL;
    }
    while o + NL <= ocb {
        block1x2(a0.add(o), a1.add(o), txs0, txs1, panel.add(o0 + o), oc);
        o += NL;
    }
    if o < ocb {
        // Scalar masked tail (NEON has no masked loads): identical
        // accumulation order to scalar's live prefix, one tile at a time.
        let w = ocb - o;
        for (tile, txs) in [(a0, txs0), (a1, txs1)] {
            let mut accv = [0.0f32; LANE];
            for (k, a) in accv[..w].iter_mut().enumerate() {
                *a = *tile.add(o + k);
            }
            for (i, &v) in txs.iter().enumerate() {
                for (k, a) in accv[..w].iter_mut().enumerate() {
                    *a += v * *panel.add(i * oc + o0 + o + k);
                }
            }
            for (k, &a) in accv[..w].iter().enumerate() {
                *tile.add(o + k) = a;
            }
        }
    }
}

// SAFETY: (caller contract) NEON enabled; `a0[..16]` and `a1[..16]` writable and
// `panel[i*oc ..][..16]` readable for every `i < txs0.len()` — guaranteed
// by `outer_product_row2_impl`'s blocking bounds.
#[target_feature(enable = "neon")]
unsafe fn block4x2(a0p: *mut f32, a1p: *mut f32, txs0: &[f32], txs1: &[f32], panel: *const f32, oc: usize) {
    let mut x0 = vld1q_f32(a0p);
    let mut x1 = vld1q_f32(a0p.add(4));
    let mut x2 = vld1q_f32(a0p.add(8));
    let mut x3 = vld1q_f32(a0p.add(12));
    let mut y0 = vld1q_f32(a1p);
    let mut y1 = vld1q_f32(a1p.add(4));
    let mut y2 = vld1q_f32(a1p.add(8));
    let mut y3 = vld1q_f32(a1p.add(12));
    for (i, (&v0, &v1)) in txs0.iter().zip(txs1).enumerate() {
        let w = panel.add(i * oc);
        let vv0 = vdupq_n_f32(v0);
        let vv1 = vdupq_n_f32(v1);
        let l0 = vld1q_f32(w);
        let l1 = vld1q_f32(w.add(4));
        let l2 = vld1q_f32(w.add(8));
        let l3 = vld1q_f32(w.add(12));
        x0 = vaddq_f32(x0, vmulq_f32(vv0, l0));
        x1 = vaddq_f32(x1, vmulq_f32(vv0, l1));
        x2 = vaddq_f32(x2, vmulq_f32(vv0, l2));
        x3 = vaddq_f32(x3, vmulq_f32(vv0, l3));
        y0 = vaddq_f32(y0, vmulq_f32(vv1, l0));
        y1 = vaddq_f32(y1, vmulq_f32(vv1, l1));
        y2 = vaddq_f32(y2, vmulq_f32(vv1, l2));
        y3 = vaddq_f32(y3, vmulq_f32(vv1, l3));
    }
    vst1q_f32(a0p, x0);
    vst1q_f32(a0p.add(4), x1);
    vst1q_f32(a0p.add(8), x2);
    vst1q_f32(a0p.add(12), x3);
    vst1q_f32(a1p, y0);
    vst1q_f32(a1p.add(4), y1);
    vst1q_f32(a1p.add(8), y2);
    vst1q_f32(a1p.add(12), y3);
}

// SAFETY: (caller contract) NEON enabled; `a0[..4]` and `a1[..4]` writable and
// `panel[i*oc ..][..4]` readable for every `i < txs0.len()` — guaranteed
// by `outer_product_row2_impl`'s blocking bounds.
#[target_feature(enable = "neon")]
unsafe fn block1x2(a0p: *mut f32, a1p: *mut f32, txs0: &[f32], txs1: &[f32], panel: *const f32, oc: usize) {
    let mut x0 = vld1q_f32(a0p);
    let mut y0 = vld1q_f32(a1p);
    for (i, (&v0, &v1)) in txs0.iter().zip(txs1).enumerate() {
        let l0 = vld1q_f32(panel.add(i * oc));
        x0 = vaddq_f32(x0, vmulq_f32(vdupq_n_f32(v0), l0));
        y0 = vaddq_f32(y0, vmulq_f32(vdupq_n_f32(v1), l0));
    }
    vst1q_f32(a0p, x0);
    vst1q_f32(a1p, y0);
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
    // SAFETY: dispatched only after NEON runtime detection
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

// SAFETY: (caller contract) callers must ensure NEON support, readability of
// `x[j*x_stride + c0 ..][..w]` for every `j < coeffs.len()`, and
// writability of output rows `row` (and `row + 1` when `paired`) at
// columns `[c0, c0 + w)` — asserted by the wrapper above.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
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
    const NB: usize = crate::TRANSFORM_CHUNK / NL;
    let nb = w / NL;
    let rem = w % NL;
    // Even/odd partial sums: up to 16 q-register blocks plus one scalar
    // remainder block, all on the stack; per-element column order matches
    // scalar::transform_step exactly.
    let mut even = [vdupq_n_f32(0.0); NB];
    let mut odd = [vdupq_n_f32(0.0); NB];
    let mut even_r = [0.0f32; NL];
    let mut odd_r = [0.0f32; NL];
    for (j, &m) in coeffs.iter().enumerate() {
        if m == 0.0 {
            continue;
        }
        let src = x.add(j * x_stride + c0);
        let mv = vdupq_n_f32(m);
        let is_odd = paired && j % 2 != 0;
        let acc = if is_odd { &mut odd } else { &mut even };
        for (b, a) in acc[..nb].iter_mut().enumerate() {
            *a = vaddq_f32(*a, vmulq_f32(mv, vld1q_f32(src.add(b * NL))));
        }
        if rem > 0 {
            let accr = if is_odd { &mut odd_r } else { &mut even_r };
            for (k, a) in accr[..rem].iter_mut().enumerate() {
                *a += m * *src.add(nb * NL + k);
            }
        }
    }
    let dst0 = out.add(row * out_stride + c0);
    if !paired {
        for (b, a) in even[..nb].iter().enumerate() {
            vst1q_f32(dst0.add(b * NL), *a);
        }
        for (k, a) in even_r[..rem].iter().enumerate() {
            *dst0.add(nb * NL + k) = *a;
        }
        return;
    }
    let dst1 = out.add((row + 1) * out_stride + c0);
    for b in 0..nb {
        vst1q_f32(dst0.add(b * NL), vaddq_f32(even[b], odd[b]));
        vst1q_f32(dst1.add(b * NL), vsubq_f32(even[b], odd[b]));
    }
    for k in 0..rem {
        *dst0.add(nb * NL + k) = even_r[k] + odd_r[k];
        *dst1.add(nb * NL + k) = even_r[k] - odd_r[k];
    }
}

/// Safe dispatch-table entry with [`crate::scalar::tile_6x16`] semantics:
/// `C[MR×NR] += Aᵖ[kc×MR] · Bᵖ[kc×NR]`, accumulators initialized from C.
///
/// Register budget: 6 rows × 4 q accumulators = 24, plus four B loads and
/// one A broadcast per k step — 29 of the 32 q registers. Packed panels are
/// always full `MR`/`NR` groups (the packers zero-pad edges), so no
/// remainder lanes are needed.
pub(crate) fn tile_6x16(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    assert!(a.len() >= kc * MR, "A micro-panel too short");
    assert!(b.len() >= kc * NR, "B micro-panel too short");
    assert!(ldc >= NR, "C row stride below tile width");
    assert!(c.len() >= (MR - 1) * ldc + NR, "C tile out of bounds");
    // SAFETY: this entry is dispatched only after runtime detection of NEON
    // (crate::resolve); the asserts above bound every offset the kernel
    // derives — `a[kk·MR + r]` and `b[kk·NR + j]` for `kk < kc`, and
    // `c[r·ldc + j]` for `r < MR`, `j < NR`.
    unsafe { tile_6x16_impl(kc, a.as_ptr(), b.as_ptr(), c.as_mut_ptr(), ldc) }
}

// SAFETY: (caller contract) callers must ensure NEON support, readability
// of `a[..kc*MR]` and `b[..kc*NR]`, and writability of `c[r*ldc ..][..NR]`
// for every `r < MR` — asserted by the wrapper above.
#[target_feature(enable = "neon")]
unsafe fn tile_6x16_impl(kc: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
    let mut acc = [[vdupq_n_f32(0.0); 4]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        let cr = c.add(r * ldc);
        row[0] = vld1q_f32(cr);
        row[1] = vld1q_f32(cr.add(4));
        row[2] = vld1q_f32(cr.add(8));
        row[3] = vld1q_f32(cr.add(12));
    }
    for kk in 0..kc {
        let bk = b.add(kk * NR);
        let b0 = vld1q_f32(bk);
        let b1 = vld1q_f32(bk.add(4));
        let b2 = vld1q_f32(bk.add(8));
        let b3 = vld1q_f32(bk.add(12));
        let ak = a.add(kk * MR);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = vdupq_n_f32(*ak.add(r));
            row[0] = vaddq_f32(row[0], vmulq_f32(av, b0));
            row[1] = vaddq_f32(row[1], vmulq_f32(av, b1));
            row[2] = vaddq_f32(row[2], vmulq_f32(av, b2));
            row[3] = vaddq_f32(row[3], vmulq_f32(av, b3));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let cr = c.add(r * ldc);
        vst1q_f32(cr, row[0]);
        vst1q_f32(cr.add(4), row[1]);
        vst1q_f32(cr.add(8), row[2]);
        vst1q_f32(cr.add(12), row[3]);
    }
}
