//! The safe-scalar fallback: the exact loops the Γ kernels ran before
//! explicit dispatch existed (moved verbatim from `iwino-core::kernel` and
//! `iwino-transforms::paired`), plus the packed GEMM's 6×16 register tile,
//! kept as the universal reference — every SIMD path in this crate must
//! reproduce these functions bit-for-bit. Nothing outside this crate calls
//! them directly: the forced-scalar lane reaches them through the
//! dispatch table like any other ISA.

use crate::{LANE, MR, NR, TRANSFORM_CHUNK};

/// One α-state row of the outer product: `arow[k] += Σ_i txs[i] ·
/// panel[i·oc + o0 + k]` for `k < arow.len()` — the element-wise multiply
/// stage of one tile state against the filter's contiguous `IC×OC` panel.
/// Output channels are register-blocked (4·[`LANE`], then [`LANE`], then a
/// masked tail) so each block's accumulators stay in registers across the
/// whole channel lane; per output element the `i`-order summation is
/// identical to a plain nested loop, keeping every path bitwise-comparable.
#[inline]
pub(crate) fn outer_product_row(arow: &mut [f32], txs: &[f32], panel: &[f32], oc: usize, o0: usize) {
    let ocb = arow.len();
    let mut o = 0usize;
    while o + 4 * LANE <= ocb {
        fma_block::<{ 4 * LANE }>(&mut arow[o..o + 4 * LANE], txs, panel, oc, o0 + o);
        o += 4 * LANE;
    }
    while o + LANE <= ocb {
        fma_block::<LANE>(&mut arow[o..o + LANE], txs, panel, oc, o0 + o);
        o += LANE;
    }
    if o < ocb {
        fma_tail(&mut arow[o..], txs, panel, oc, o0 + o);
    }
}

/// Paired-tile outer product, scalar reference: two independent
/// [`outer_product_row`] accumulations over the same panel slice. The SIMD
/// implementations fold both tiles into one pass over the panel (each
/// filter row loaded once, used twice); running the rows back-to-back here
/// is the same arithmetic in the same per-element order, so this *is* the
/// bitwise reference for the fused versions.
#[inline]
pub(crate) fn outer_product_row2(
    arow0: &mut [f32],
    arow1: &mut [f32],
    txs0: &[f32],
    txs1: &[f32],
    panel: &[f32],
    oc: usize,
    o0: usize,
) {
    outer_product_row(arow0, txs0, panel, oc, o0);
    outer_product_row(arow1, txs1, panel, oc, o0);
}

/// One register block of the outer product: `arow[k] += Σ_i txs[i] ·
/// panel[i·oc + o0 + k]` for `k < W`. The `W` accumulators live in an
/// `[f32; W]` stack array loaded once and stored once, so the filter rows
/// stream through while the partial sums never round-trip to memory.
#[inline]
fn fma_block<const W: usize>(arow: &mut [f32], txs: &[f32], panel: &[f32], oc: usize, o0: usize) {
    let mut accv = [0.0f32; W];
    accv.copy_from_slice(arow);
    for (i, &v) in txs.iter().enumerate() {
        let wrow = &panel[i * oc + o0..i * oc + o0 + W];
        for (a, &w) in accv.iter_mut().zip(wrow) {
            *a += v * w;
        }
    }
    arow.copy_from_slice(&accv);
}

/// Remainder lane: the final `ocb % LANE` output channels, masked to the
/// live prefix of one `[f32; LANE]` accumulator.
fn fma_tail(arow: &mut [f32], txs: &[f32], panel: &[f32], oc: usize, o0: usize) {
    let w = arow.len();
    debug_assert!(w < LANE);
    let mut accv = [0.0f32; LANE];
    accv[..w].copy_from_slice(arow);
    for (i, &v) in txs.iter().enumerate() {
        let wrow = &panel[i * oc + o0..i * oc + o0 + w];
        for (a, &s) in accv.iter_mut().zip(wrow) {
            *a += v * s;
        }
    }
    arow.copy_from_slice(&accv[..w]);
}

/// One channel block of one paired-transform plan step: channels
/// `[c0, c0 + w)`, `w ≤ TRANSFORM_CHUNK`, coefficients `coeffs` of plan row
/// `row` (and `row + 1` when `paired`). The accumulators are
/// `[f32; TRANSFORM_CHUNK]` stack arrays; each non-zero coefficient
/// contributes one `w`-long FMA pass. Per output element the summation
/// order is the plan's column order: even/odd partial sums, then
/// `e + o` / `e − o` — every SIMD implementation must keep exactly this
/// per-element order.
#[allow(clippy::too_many_arguments)]
#[inline]
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
    debug_assert!((1..=TRANSFORM_CHUNK).contains(&w));
    let mut even = [0.0f32; TRANSFORM_CHUNK];
    let mut odd = [0.0f32; TRANSFORM_CHUNK];
    for (j, &m) in coeffs.iter().enumerate() {
        if m == 0.0 {
            continue;
        }
        let src = &x[j * x_stride + c0..j * x_stride + c0 + w];
        let dst = if paired && j % 2 != 0 { &mut odd } else { &mut even };
        for (d, &s) in dst[..w].iter_mut().zip(src) {
            *d += m * s;
        }
    }
    let o0 = &mut out[row * out_stride + c0..row * out_stride + c0 + w];
    if !paired {
        o0.copy_from_slice(&even[..w]);
        return;
    }
    for (c, o) in o0.iter_mut().enumerate() {
        *o = even[c] + odd[c];
    }
    let o1 = &mut out[(row + 1) * out_stride + c0..(row + 1) * out_stride + c0 + w];
    for (c, o) in o1.iter_mut().enumerate() {
        *o = even[c] - odd[c];
    }
}

/// The packed GEMM's register tile: `C[MR×NR] += Aᵖ[kc×MR] · Bᵖ[kc×NR]`.
///
/// `a` holds `kc` groups of `MR` column values (k-major A micro-panel), `b`
/// holds `kc` groups of `NR` row values (k-major B micro-panel), and `c` is
/// the tile origin with row stride `ldc ≥ NR`. The accumulators initialize
/// from C, so the caller chooses overwrite-vs-accumulate by zeroing C first.
/// Each C element accumulates its `k` products in ascending-`k` order with
/// a separate multiply and add — the order the SIMD tiles reproduce.
pub(crate) fn tile_6x16(kc: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize) {
    assert!(a.len() >= kc * MR, "A micro-panel too short");
    assert!(b.len() >= kc * NR, "B micro-panel too short");
    assert!(ldc >= NR, "C row stride below tile width");
    assert!(c.len() >= (MR - 1) * ldc + NR, "C tile out of bounds");
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for kk in 0..kc {
        let av = &a[kk * MR..kk * MR + MR];
        let bv = &b[kk * NR..kk * NR + NR];
        for (row, &ar) in acc.iter_mut().zip(av) {
            for (slot, &bj) in row.iter_mut().zip(bv) {
                *slot += ar * bj;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}
