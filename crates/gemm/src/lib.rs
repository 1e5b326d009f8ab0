//! Packed, register-blocked single-precision GEMM: `C = A·B (+ C)`.
//!
//! Row-major everywhere. This is the one real GEMM behind every backend in
//! the tree — the im2col baselines (NHWC and NCHW) and Im2col-Winograd's
//! boundary-treatment segments (§5.5: "GEMM convolution processes the
//! final remaining segment") all route here.
//!
//! The structure is the classic Goto blocking:
//!
//! ```text
//! for jc in 0..n step NC            # B column block     (L3-resident)
//!   for pc in 0..k step KC          # K chunk            (packed panels in L2/L1)
//!     pack A[ic-block, pc-chunk] → MR-row micro-panels   (k-major, zero-padded)
//!     for q: NR-col panels of B[pc-chunk, jc-block]      (packed once per call/plan)
//!       for p: MR-row panels of the A block
//!         microkernel: C[6×16] += Aᵖ[kc×6] · Bᵖ[kc×16]
//! ```
//!
//! with the `ic` loop over `MC`-row blocks of `C` parallelized through
//! [`iwino_parallel::SliceParts`] — each task owns a disjoint row block of
//! `C`, so there is no row-level broadcast and no cross-task write overlap.
//!
//! The 6×16 register tile is `iwino_simd::kernels().tile_6x16`: the SIMD
//! crate owns the ISA decision and every lane of it, and this crate only
//! packs and blocks — it has no ISA branch and no `unsafe`. Every lane of
//! the tile accumulates each C element in ascending-`k` order with separate
//! (individually rounded) multiply and add, so the whole blocked GEMM is
//! bitwise equal to the naive left-to-right triple loop on every lane.
//!
//! Packing buffers come from a caller-provided [`ScratchProvider`], so the
//! serving engine's arena owns them and steady-state calls allocate
//! nothing; `B` can also be packed once at plan time ([`PackedB`]) and
//! reused across calls. The indirect-convolution backend (`iwino-indirect`)
//! rides that seam through [`sgemm_gather_prepacked`]: a [`GatherA`]
//! indirection buffer replaces the materialized patch matrix, and rows are
//! gathered straight into the A micro-panels. The training filter gradient
//! rides it transposed through [`sgemm_gather_tn`]: the same table feeds
//! `Âᵀ`'s panels, reducing over output pixels.

#![forbid(unsafe_code)]

use iwino_obs as obs;
use iwino_parallel as par;
use iwino_simd::{Tile6x16Fn, MR, NR};

mod scratch;

pub use scratch::{AllocScratch, ScratchProvider};

/// K chunk: one `KC×NR` B panel (16 KiB) stays L1-resident under the
/// streaming A panel.
pub const KC: usize = 256;
/// Row-block height of `C` owned by one parallel task: 12 MR-panels, so a
/// packed `MC×KC` A block is 72 KiB — comfortably L2-resident.
pub const MC: usize = 12 * MR;
/// Column block of `B` (a multiple of `NR`); at the matrix sizes the conv
/// backends produce this loop usually runs exactly once.
pub const NC: usize = 2048;

/// Length in floats of the packed image of a `k×n` B matrix.
fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Pack row-major `B[k×n]` into NR-column micro-panels, k-major: panel `q`
/// covers columns `[q·NR, (q+1)·NR)` and stores, for each `kk`, the `NR`
/// row values contiguously (`out[q·k·NR + kk·NR + c]`). Edge columns are
/// zero-padded so the microkernel never needs a masked tail; the `pc`-chunk
/// of a panel is the contiguous subslice `[q·k·NR + pc·NR ..][..kc·NR]`.
fn pack_b(k: usize, n: usize, b: &[f32], out: &mut [f32]) {
    assert_eq!(b.len(), k * n, "B shape");
    assert!(out.len() >= packed_b_len(k, n), "packed-B buffer too short");
    for q in 0..n.div_ceil(NR) {
        let j0 = q * NR;
        let w = NR.min(n - j0);
        let panel = &mut out[q * k * NR..(q + 1) * k * NR];
        for kk in 0..k {
            let dst = &mut panel[kk * NR..(kk + 1) * NR];
            dst[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            dst[w..].fill(0.0);
        }
    }
}

/// `B` packed once, reused across calls — the plan-time form the engine
/// caches next to its transformed filters (cuDNN's "precomp" covers the
/// filter too), and the conv plans hold for their HWIO filter matrices.
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Pack row-major `b[k×n]`.
    pub fn pack(k: usize, n: usize, b: &[f32]) -> Self {
        let _p = obs::span(obs::Stage::GemmPack);
        let mut data = vec![0.0f32; packed_b_len(k, n)];
        pack_b(k, n, b, &mut data);
        obs::add(obs::Counter::GemmPackedBBytes, (data.len() * 4) as u64);
        PackedB { k, n, data }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed panels: NR-column micro-panels, k-major, edge columns
    /// zero-padded.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Resident size, for plan-cache accounting.
    pub fn resident_bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Sentinel entry in a [`GatherA`] offset table: the whole tap reads the
/// zero row (an output pixel whose receptive field lies in the padding).
pub const GATHER_PAD: usize = usize::MAX;

/// An implicit `A[m×k]` described by an indirection table instead of a
/// materialized matrix — the indirect-convolution form (Dukhan): logical
/// row `i` is the concatenation of `taps` segments of `seg` contiguous
/// floats, segment `t` starting at
/// `base[(i / rows_per_block) · block_stride + offsets[(i % rows_per_block) · taps + t]]`
/// (or all zeros when the offset is [`GATHER_PAD`]). Offsets are
/// block-relative float indices, so one `rows_per_block × taps` table
/// serves every block — for NHWC convolution a block is one image,
/// `rows_per_block = OH·OW`, `block_stride = IH·IW·IC`, `seg = IC`, and
/// every segment is a contiguous channel vector.
pub struct GatherA<'a> {
    /// Backing storage the offsets index into (e.g. the whole NHWC input).
    pub base: &'a [f32],
    /// `rows_per_block × taps` block-relative float offsets, row-major.
    pub offsets: &'a [usize],
    /// Segments per logical row (`FH·FW` for convolution).
    pub taps: usize,
    /// Contiguous floats per segment (`IC`); `k = taps · seg`.
    pub seg: usize,
    /// Logical rows covered by one pass over the offset table (`OH·OW`).
    pub rows_per_block: usize,
    /// Float stride between consecutive blocks of `base` (`IH·IW·IC`).
    pub block_stride: usize,
}

impl GatherA<'_> {
    /// The K dimension of the implicit matrix.
    pub fn k(&self) -> usize {
        self.taps * self.seg
    }
}

/// The A operand of the blocked driver: a materialized row-major matrix,
/// an indirected [`GatherA`], or the transpose `Âᵀ` of one (`rows` logical
/// rows of `Â` become the K dimension). All three pack into identical
/// MR-row k-major micro-panels, so the microkernel loops downstream are
/// shared — the gathered paths are bitwise equal to running the dense path
/// on the materialized matrix by construction.
enum ASource<'a> {
    Dense { a: &'a [f32], k: usize },
    Gather(&'a GatherA<'a>),
    GatherT { g: &'a GatherA<'a>, rows: usize },
}

impl ASource<'_> {
    fn k(&self) -> usize {
        match self {
            ASource::Dense { k, .. } => *k,
            ASource::Gather(g) => g.k(),
            ASource::GatherT { rows, .. } => *rows,
        }
    }

    /// Pack the `[i0, i0+mb)` row slice, K chunk `[pc, pc+kc)`, into MR-row
    /// micro-panels, k-major: `out[p·kc·MR + kk·MR + r]`, with edge rows
    /// zero-padded.
    fn pack_block(&self, i0: usize, mb: usize, pc: usize, kc: usize, out: &mut [f32]) {
        match self {
            ASource::Dense { a, k } => pack_a_block(a, *k, i0, mb, pc, kc, out),
            ASource::Gather(g) => pack_gather_block(g, i0, mb, pc, kc, out),
            ASource::GatherT { g, .. } => pack_gather_t_block(g, i0, mb, pc, kc, out),
        }
    }
}

/// Pack the `[i0, i0+mb)` row slice of `A[·×k]`, K chunk `[pc, pc+kc)`,
/// into MR-row micro-panels, k-major: `out[p·kc·MR + kk·MR + r]`, with edge
/// rows zero-padded.
fn pack_a_block(a: &[f32], k: usize, i0: usize, mb: usize, pc: usize, kc: usize, out: &mut [f32]) {
    for p in 0..mb.div_ceil(MR) {
        let r0 = p * MR;
        let h = MR.min(mb - r0);
        let panel = &mut out[p * kc * MR..(p + 1) * kc * MR];
        if h < MR {
            panel.fill(0.0);
        }
        for r in 0..h {
            let row = i0 + r0 + r;
            let src = &a[row * k + pc..row * k + pc + kc];
            for (kk, &v) in src.iter().enumerate() {
                panel[kk * MR + r] = v;
            }
        }
    }
}

/// [`pack_a_block`] for a [`GatherA`]: walk the K chunk tap segment by tap
/// segment, copying each contiguous `seg`-float run (or zeros for
/// [`GATHER_PAD`]) into the k-major panel. The patch matrix is never
/// materialized — rows go straight from `base` into the micro-panels.
fn pack_gather_block(g: &GatherA<'_>, i0: usize, mb: usize, pc: usize, kc: usize, out: &mut [f32]) {
    let seg = g.seg;
    for p in 0..mb.div_ceil(MR) {
        let r0 = p * MR;
        let h = MR.min(mb - r0);
        let panel = &mut out[p * kc * MR..(p + 1) * kc * MR];
        if h < MR {
            panel.fill(0.0);
        }
        for r in 0..h {
            let row = i0 + r0 + r;
            let base = &g.base[(row / g.rows_per_block) * g.block_stride..];
            let offs = &g.offsets[(row % g.rows_per_block) * g.taps..][..g.taps];
            let mut kk = 0;
            let mut t = pc / seg;
            let mut c0 = pc % seg; // intra-segment start of the first tap
            while kk < kc {
                let take = (seg - c0).min(kc - kk);
                if offs[t] == GATHER_PAD {
                    for i in 0..take {
                        panel[(kk + i) * MR + r] = 0.0;
                    }
                } else {
                    let src = &base[offs[t] + c0..][..take];
                    for (i, &v) in src.iter().enumerate() {
                        panel[(kk + i) * MR + r] = v;
                    }
                }
                kk += take;
                t += 1;
                c0 = 0;
            }
        }
    }
}

/// One contiguous run of a transposed-gather micro-panel: rows
/// `[r, r+len)` of panel `p` hold channels `[c0, c0+len)` of tap `tap`;
/// `dst = p·kc·MR + r` is the run's offset in the packed block at `kk = 0`.
#[derive(Clone, Copy, Default)]
struct TapRun {
    dst: usize,
    tap: usize,
    c0: usize,
    len: usize,
}

/// [`pack_a_block`] for `Âᵀ`: rows `[i0, i0+mb)` of `Âᵀ` are `(tap, channel)`
/// columns of `Â`, and the K chunk `[pc, pc+kc)` is a range of `Â`'s logical
/// rows (output pixels). The block's columns are first cut into [`TapRun`]s
/// — at most `MR` contiguous channels of one tap, split where a panel
/// straddles a tap edge (`seg % MR ≠ 0`). Then, one tap at a time, each
/// pixel costs one offset lookup and, per run of that tap, one short
/// contiguous copy straight from `g.base` (a fixed-size array for full
/// `MR`-row runs) or a zero fill for [`GATHER_PAD`].
fn pack_gather_t_block(g: &GatherA<'_>, i0: usize, mb: usize, pc: usize, kc: usize, out: &mut [f32]) {
    let mut runs = [TapRun::default(); MC];
    let mut nruns = 0;
    for p in 0..mb.div_ceil(MR) {
        let (mut r, h) = (0, MR.min(mb - p * MR));
        while r < h {
            let col = i0 + p * MR + r;
            let (tap, c0) = (col / g.seg, col % g.seg);
            let len = (g.seg - c0).min(h - r);
            runs[nruns] = TapRun {
                dst: p * kc * MR + r,
                tap,
                c0,
                len,
            };
            nruns += 1;
            r += len;
        }
        if h < MR {
            out[p * kc * MR..(p + 1) * kc * MR].fill(0.0);
        }
    }
    // Per pixel of the chunk: its block's start in `base` and its row of
    // the offset table.
    let mut px = [(0usize, 0usize); KC];
    let (mut blk, mut row) = (pc / g.rows_per_block, pc % g.rows_per_block);
    for p in &mut px[..kc] {
        *p = (blk * g.block_stride, row * g.taps);
        row += 1;
        if row == g.rows_per_block {
            row = 0;
            blk += 1;
        }
    }
    for group in runs[..nruns].chunk_by(|a, b| a.tap == b.tap) {
        let tap = group[0].tap;
        for (kk, &(b0, o0)) in px[..kc].iter().enumerate() {
            let off = g.offsets[o0 + tap];
            for run in group {
                let d = run.dst + kk * MR;
                if off == GATHER_PAD {
                    out[d..d + run.len].fill(0.0);
                    continue;
                }
                let at = b0 + off + run.c0;
                if run.len == MR {
                    let dst: &mut [f32; MR] = (&mut out[d..d + MR]).try_into().unwrap();
                    *dst = g.base[at..at + MR].try_into().unwrap();
                } else {
                    out[d..d + run.len].copy_from_slice(&g.base[at..at + run.len]);
                }
            }
        }
    }
}

/// The per-task macro kernel: all of `C`'s columns for one `MC`-row block.
/// `cblk` is rows `[i0, i0+mb)` of `C` (`mb×n`, row-major); `a_buf` must
/// hold at least `ceil(mb/MR)·MR·min(KC, k)` floats.
#[allow(clippy::too_many_arguments)] // GEMM operands + block geometry, BLAS-style ordering
fn run_block(
    kern: Tile6x16Fn,
    n: usize,
    src: &ASource<'_>,
    bp: &[f32],
    i0: usize,
    mb: usize,
    cblk: &mut [f32],
    a_buf: &mut [f32],
) {
    let k = src.k();
    let m_panels = mb.div_ceil(MR);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        {
            let _p = obs::span(obs::Stage::GemmPack);
            src.pack_block(i0, mb, pc, kc, a_buf);
            obs::add(obs::Counter::GemmPackedABytes, (m_panels * MR * kc * 4) as u64);
        }
        let _g = obs::span(obs::Stage::GemmKernel);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            // NC is a multiple of NR, so panel boundaries align with jc.
            for q in jc / NR..(jc + nc).div_ceil(NR) {
                let j0 = q * NR;
                let w = NR.min(n - j0);
                let b_panel = &bp[q * k * NR + pc * NR..q * k * NR + (pc + kc) * NR];
                for p in 0..m_panels {
                    let r0 = p * MR;
                    let h = MR.min(mb - r0);
                    let a_panel = &a_buf[p * kc * MR..(p + 1) * kc * MR];
                    if h == MR && w == NR {
                        kern(kc, a_panel, b_panel, &mut cblk[r0 * n + j0..], n);
                    } else {
                        // Edge tile: stage through a full stack tile. Dead
                        // rows/columns multiply zero-padded panel entries,
                        // so the live `h×w` region is exactly what a full
                        // tile would have computed there.
                        let mut tile = [0.0f32; MR * NR];
                        for r in 0..h {
                            let c_row = &cblk[(r0 + r) * n + j0..(r0 + r) * n + j0 + w];
                            tile[r * NR..r * NR + w].copy_from_slice(c_row);
                        }
                        kern(kc, a_panel, b_panel, &mut tile, NR);
                        for r in 0..h {
                            let c_row = &mut cblk[(r0 + r) * n + j0..(r0 + r) * n + j0 + w];
                            c_row.copy_from_slice(&tile[r * NR..r * NR + w]);
                        }
                    }
                }
            }
        }
    }
}

/// Shared blocked driver over an already-packed `B` and a dense or
/// gathered A.
fn gemm_blocked(
    m: usize,
    n: usize,
    src: &ASource<'_>,
    bp: &[f32],
    c: &mut [f32],
    accumulate: bool,
    scratch: &dyn ScratchProvider,
) {
    if m == 0 || n == 0 {
        return;
    }
    let k = src.k();
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    let kern = iwino_simd::kernels().tile_6x16;
    let kc_max = KC.min(k);
    let parts = par::SliceParts::new(c, MC * n);
    // Disjoint MC-block ownership: each task claims one row block of C and
    // is the only writer of every column in it. Inside a pool worker (the
    // im2col / Γ-remainder call sites) this degrades to a serial loop.
    par::parallel_for(m.div_ceil(MC), &|blk| {
        let i0 = blk * MC;
        let mb = MC.min(m - i0);
        let cblk = parts.take(blk);
        if !accumulate {
            cblk.fill(0.0);
        }
        let mut a_buf = scratch.checkout(mb.div_ceil(MR) * MR * kc_max);
        run_block(kern, n, src, bp, i0, mb, cblk, &mut a_buf);
        scratch.give_back(a_buf);
    });
}

/// `C[m×n] += A[m×k] · B[k×n]` if `accumulate`, else `C = A·B`, with both
/// packing buffers drawn from `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm_scratch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
    scratch: &dyn ScratchProvider,
) {
    assert_eq!(a.len(), m * k, "A shape");
    assert_eq!(b.len(), k * n, "B shape");
    assert_eq!(c.len(), m * n, "C shape");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    let mut bp = scratch.checkout(packed_b_len(k, n));
    {
        let _p = obs::span(obs::Stage::GemmPack);
        pack_b(k, n, b, &mut bp);
        obs::add(obs::Counter::GemmPackedBBytes, (packed_b_len(k, n) * 4) as u64);
    }
    gemm_blocked(m, n, &ASource::Dense { a, k }, &bp, c, accumulate, scratch);
    scratch.give_back(bp);
}

/// [`sgemm_scratch`] against a plan-time [`PackedB`]; only the A panels
/// are packed here, drawn from `scratch`.
pub fn sgemm_prepacked(
    m: usize,
    a: &[f32],
    pb: &PackedB,
    c: &mut [f32],
    accumulate: bool,
    scratch: &dyn ScratchProvider,
) {
    assert_eq!(a.len(), m * pb.k, "A shape");
    assert_eq!(c.len(), m * pb.n, "C shape");
    gemm_blocked(
        m,
        pb.n,
        &ASource::Dense { a, k: pb.k },
        &pb.data,
        c,
        accumulate,
        scratch,
    );
}

/// [`sgemm_prepacked`] with the A operand described by an indirection
/// table instead of a materialized matrix: `C[m×n] (+)= Â[m×k] · B`, where
/// `Â` is the implicit matrix of `g` (see [`GatherA`]). Rows gather from
/// `g.base` straight into the A micro-panels — bitwise equal to
/// materializing `Â` and calling [`sgemm_prepacked`], at constant packing
/// overhead independent of the tap count.
pub fn sgemm_gather_prepacked(
    m: usize,
    g: &GatherA<'_>,
    pb: &PackedB,
    c: &mut [f32],
    accumulate: bool,
    scratch: &dyn ScratchProvider,
) {
    assert_eq!(g.k(), pb.k, "gather K vs packed-B K");
    assert_eq!(c.len(), m * pb.n, "C shape");
    if m > 0 {
        assert!(g.rows_per_block > 0, "gather rows_per_block");
        assert_eq!(g.offsets.len(), g.rows_per_block * g.taps, "gather offset-table shape");
        assert_eq!(m % g.rows_per_block, 0, "m must be whole gather blocks");
    }
    gemm_blocked(m, pb.n, &ASource::Gather(g), &pb.data, c, accumulate, scratch);
}

/// The transposed product `C[K×n] = Âᵀ · B`, where `Â` is the `rows×K`
/// implicit matrix of `g` (`K = g.k()`) and `B` is dense row-major
/// `rows×n`. For convolution this is the filter gradient `dWᵀ = Âᵀ·dY`: the
/// reduction runs over output pixels in ascending order, one individually
/// rounded multiply and add per term, and `Âᵀ`'s micro-panels are filled
/// straight from `g.base` — the patch matrix is never materialized. `B` is
/// packed per call into a buffer drawn from `scratch`.
pub fn sgemm_gather_tn(
    rows: usize,
    g: &GatherA<'_>,
    n: usize,
    b: &[f32],
    c: &mut [f32],
    scratch: &dyn ScratchProvider,
) {
    let m = g.k();
    assert_eq!(b.len(), rows * n, "B shape");
    assert_eq!(c.len(), m * n, "C shape");
    if rows > 0 {
        assert!(g.rows_per_block > 0, "gather rows_per_block");
        assert_eq!(g.offsets.len(), g.rows_per_block * g.taps, "gather offset-table shape");
        assert_eq!(rows % g.rows_per_block, 0, "rows must be whole gather blocks");
    }
    if m == 0 || n == 0 {
        return;
    }
    if rows == 0 {
        c.fill(0.0);
        return;
    }
    let mut bp = scratch.checkout(packed_b_len(rows, n));
    {
        let _p = obs::span(obs::Stage::GemmPack);
        pack_b(rows, n, b, &mut bp);
        obs::add(obs::Counter::GemmPackedBBytes, (packed_b_len(rows, n) * 4) as u64);
    }
    gemm_blocked(m, n, &ASource::GatherT { g, rows }, &bp, c, false, scratch);
    scratch.give_back(bp);
}

/// `C[m×n] += A[m×k] · B[k×n]` if `accumulate`, else `C = A·B`. Packing
/// buffers are plain allocations; serving paths use [`sgemm_scratch`].
pub fn sgemm_acc(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], accumulate: bool) {
    sgemm_scratch(m, n, k, a, b, c, accumulate, &AllocScratch)
}

/// `C = A·B` (row-major, overwrite).
pub fn sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    sgemm_acc(m, n, k, a, b, c, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive left-to-right triple loop — the bitwise reference: the packed
    /// kernels accumulate each C element in exactly this order with the
    /// same individually rounded multiply and add.
    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// Deterministic pseudo-random fill (xorshift32), values in [-2, 2].
    fn fill(buf: &mut [f32], seed: u32) {
        let mut s = seed.wrapping_mul(2654435761).max(1);
        for v in buf.iter_mut() {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *v = (s as f32 / u32::MAX as f32) * 4.0 - 2.0;
        }
    }

    fn check_bitwise(m: usize, n: usize, k: usize, seed: u32) {
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, seed);
        fill(&mut b, seed.wrapping_add(1));
        let mut c = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        sgemm(m, n, k, &a, &b, &mut c);
        naive(m, n, k, &a, &b, &mut want);
        for (i, (x, y)) in c.iter().zip(&want).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "({m}x{n}x{k}) idx {i}: {x:?} vs naive {y:?}"
            );
        }
    }

    #[test]
    fn identity_matrix() {
        let n = 16;
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let b: Vec<f32> = (0..n * n).map(|i| i as f32 * 0.1).collect();
        let mut c = vec![0.0f32; n * n];
        sgemm(n, n, n, &eye, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn accumulate_adds_on_top() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [10.0f32];
        sgemm_acc(1, 1, 2, &a, &b, &mut c, true);
        assert_eq!(c[0], 10.0 + 11.0);
        sgemm_acc(1, 1, 2, &a, &b, &mut c, false);
        assert_eq!(c[0], 11.0);
    }

    #[test]
    fn degenerate_dims() {
        let mut c = vec![7.0f32; 4];
        sgemm(2, 2, 0, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 4]);
        sgemm(0, 0, 5, &[], &[], &mut []);
    }

    #[test]
    fn bitwise_matches_naive_across_block_boundaries() {
        // m straddling MR and MC, n straddling NR, k straddling KC.
        check_bitwise(MC + MR + 1, NR + 3, KC + 5, 7);
        check_bitwise(MR - 1, 2 * NR, 2, 8);
        check_bitwise(1, 1, 1, 9);
    }

    #[test]
    fn prepacked_b_matches_per_call_packing() {
        let (m, n, k) = (2 * MR + 1, NR + 5, 33);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, 21);
        fill(&mut b, 22);
        let pb = PackedB::pack(k, n, &b);
        assert_eq!(pb.k(), k);
        assert_eq!(pb.n(), n);
        assert_eq!(pb.resident_bytes(), packed_b_len(k, n) * 4);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        sgemm(m, n, k, &a, &b, &mut c1);
        sgemm_prepacked(m, &a, &pb, &mut c2, false, &AllocScratch);
        assert_eq!(c1, c2);
        // Accumulation on top of an existing C: bitwise equal to folding
        // the products onto C in ascending-k order (not to `2·c1`, which
        // rounds differently).
        let mut c3 = c1.clone();
        sgemm_prepacked(m, &a, &pb, &mut c3, true, &AllocScratch);
        let mut want = c1.clone();
        for i in 0..m {
            for j in 0..n {
                let mut acc = want[i * n + j];
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                want[i * n + j] = acc;
            }
        }
        for (x, y) in c3.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Materialize the implicit matrix of a [`GatherA`] (the patch matrix
    /// im2col would have built) — the reference the gathered path must be
    /// bitwise equal to.
    fn materialize(g: &GatherA<'_>, m: usize) -> Vec<f32> {
        let k = g.k();
        let mut a = vec![0.0f32; m * k];
        for row in 0..m {
            let base = &g.base[(row / g.rows_per_block) * g.block_stride..];
            let offs = &g.offsets[(row % g.rows_per_block) * g.taps..][..g.taps];
            for (t, &off) in offs.iter().enumerate() {
                if off != GATHER_PAD {
                    a[row * k + t * g.seg..row * k + (t + 1) * g.seg].copy_from_slice(&base[off..off + g.seg]);
                }
            }
        }
        a
    }

    /// A gather geometry exercising the K-chunk walker: `seg` not dividing
    /// KC (chunks split mid-segment), PAD taps, multiple blocks, and edge
    /// `m`/`n` tiles.
    fn sample_gather(base: &[f32], offsets: &mut Vec<usize>, taps: usize, seg: usize, rows: usize) -> usize {
        offsets.clear();
        let block_stride = base.len() / 2; // two blocks
        for row in 0..rows {
            for t in 0..taps {
                if (row + t) % 5 == 0 {
                    offsets.push(GATHER_PAD);
                } else {
                    // Any in-bounds segment start; vary with row and tap.
                    offsets.push((row * 31 + t * 7) % (block_stride - seg));
                }
            }
        }
        block_stride
    }

    #[test]
    fn gather_bitwise_matches_materialized_dense() {
        // K straddles KC with seg not dividing KC, so chunk boundaries land
        // mid-segment; m straddles MR and the block boundary; n has an edge
        // panel.
        let (taps, seg, rows) = (9, 37, MR * 3 + 2); // k = 333 > KC
        let k = taps * seg;
        let n = NR + 5;
        let m = 2 * rows;
        let mut base = vec![0.0f32; 4096];
        fill(&mut base, 51);
        let mut offsets = Vec::new();
        let block_stride = sample_gather(&base, &mut offsets, taps, seg, rows);
        let g = GatherA {
            base: &base,
            offsets: &offsets,
            taps,
            seg,
            rows_per_block: rows,
            block_stride,
        };
        let mut b = vec![0.0f32; k * n];
        fill(&mut b, 52);
        let pb = PackedB::pack(k, n, &b);
        let a = materialize(&g, m);
        let mut want = vec![0.0f32; m * n];
        sgemm_prepacked(m, &a, &pb, &mut want, false, &AllocScratch);
        let mut got = vec![0.0f32; m * n];
        sgemm_gather_prepacked(m, &g, &pb, &mut got, false, &AllocScratch);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "idx {i}: {x:?} vs dense {y:?}");
        }
        // Accumulation folds onto C exactly like the dense path.
        sgemm_prepacked(m, &a, &pb, &mut want, true, &AllocScratch);
        sgemm_gather_prepacked(m, &g, &pb, &mut got, true, &AllocScratch);
        for (x, y) in got.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gather_all_pad_rows_yield_zero_output() {
        let (taps, seg, rows) = (4, 3, MR + 1);
        let k = taps * seg;
        let n = 7;
        let base = vec![1.5f32; 64];
        let offsets = vec![GATHER_PAD; rows * taps];
        let g = GatherA {
            base: &base,
            offsets: &offsets,
            taps,
            seg,
            rows_per_block: rows,
            block_stride: 0,
        };
        let mut b = vec![0.0f32; k * n];
        fill(&mut b, 53);
        let pb = PackedB::pack(k, n, &b);
        let mut c = vec![9.0f32; rows * n];
        sgemm_gather_prepacked(rows, &g, &pb, &mut c, false, &AllocScratch);
        assert!(c.iter().all(|&v| v == 0.0), "padded rows must read the zero row");
    }

    /// A convolution-geometry gather over an NHWC batch `base`
    /// (`batch×ih×iw×ic`, square `r×r` filter, symmetric stride and pad):
    /// the offset table `iwino-indirect` builds, restated test-locally.
    /// Returns `(offsets, rows_per_block, block_stride)`.
    fn conv_table(ih: usize, iw: usize, ic: usize, r: usize, stride: usize, pad: usize) -> (Vec<usize>, usize, usize) {
        let oh = (ih + 2 * pad - r) / stride + 1;
        let ow = (iw + 2 * pad - r) / stride + 1;
        let mut offsets = Vec::new();
        for oy in 0..oh {
            for ox in 0..ow {
                for fy in 0..r {
                    for fx in 0..r {
                        let iy = (oy * stride + fy) as isize - pad as isize;
                        let ix = (ox * stride + fx) as isize - pad as isize;
                        if iy < 0 || ix < 0 || iy >= ih as isize || ix >= iw as isize {
                            offsets.push(GATHER_PAD);
                        } else {
                            offsets.push((iy as usize * iw + ix as usize) * ic);
                        }
                    }
                }
            }
        }
        (offsets, oh * ow, ih * iw * ic)
    }

    /// `sgemm_gather_tn` against the naive triple loop on the materialized
    /// `Âᵀ`, bit for bit.
    fn check_gather_tn(g: &GatherA<'_>, rows: usize, n: usize, b: &[f32]) -> Result<(), String> {
        let k = g.k();
        let a = materialize(g, rows);
        let mut at = vec![0.0f32; k * rows];
        for i in 0..rows {
            for j in 0..k {
                at[j * rows + i] = a[i * k + j];
            }
        }
        let mut want = vec![0.0f32; k * n];
        naive(k, n, rows, &at, b, &mut want);
        let mut got = vec![7.0f32; k * n];
        sgemm_gather_tn(rows, g, n, b, &mut got, &AllocScratch);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!("k={k} n={n} rows={rows} idx {i}: {x:?} vs naive {y:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn gather_tn_degenerate_dims() {
        let base = [1.0f32; 8];
        let offsets = [0usize, 4];
        let g = GatherA {
            base: &base,
            offsets: &offsets,
            taps: 2,
            seg: 4,
            rows_per_block: 1,
            block_stride: 0,
        };
        let mut c = vec![3.0f32; 8 * 2];
        sgemm_gather_tn(0, &g, 2, &[], &mut c, &AllocScratch);
        assert!(c.iter().all(|&v| v == 0.0), "an empty reduction is zero");
        sgemm_gather_tn(1, &g, 0, &[], &mut [], &AllocScratch);
    }

    #[test]
    fn nonfinite_inputs_propagate_like_naive() {
        // 0·∞ and 0·NaN must reach C (the seed kernel's zero-skip dropped
        // them); the packed path performs the naive op sequence, so even
        // the NaN bit patterns agree.
        let (m, n, k) = (MR + 1, NR + 1, 4);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill(&mut a, 31);
        fill(&mut b, 32);
        a[0] = 0.0;
        b[0] = f32::INFINITY;
        a[k] = f32::NAN;
        b[n] = 0.0;
        a[2 * k + 1] = f32::NEG_INFINITY;
        let mut c = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        sgemm(m, n, k, &a, &b, &mut c);
        naive(m, n, k, &a, &b, &mut want);
        assert!(want.iter().any(|v| v.is_nan()), "test must exercise a NaN product");
        for (x, y) in c.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x:?} vs naive {y:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Edge-geometry net: m/n/k drawn to straddle the MR, NR, KC and MC
        /// boundaries (including m < MR and k = 1); every element must be
        /// bitwise equal to the naive reference.
        #[test]
        fn packed_panels_bitwise_match_naive(
            dm in 0usize..(2 * MR + 1),
            mi in 0usize..4,
            dn in 0usize..(NR + 1),
            ni in 0usize..3,
            dk in 0usize..3usize,
            ki in 0usize..3,
            seed in 0u32..1000,
        ) {
            let m = [1usize, MR, MC, MC + MR][mi] + dm;
            let n = [1usize, NR, 2 * NR][ni] + dn;
            let k = [1usize, KC - 1, KC][ki] + dk;
            let mut a = vec![0.0f32; m * k];
            let mut b = vec![0.0f32; k * n];
            fill(&mut a, seed);
            fill(&mut b, seed.wrapping_add(1));
            let mut c = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            sgemm(m, n, k, &a, &b, &mut c);
            naive(m, n, k, &a, &b, &mut want);
            for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "({}x{}x{}) idx {}", m, n, k, i);
            }
        }

        /// The transposed-gather operand over convolution tables: IC values
        /// that MR does not divide (panels straddle tap edges), padding taps,
        /// stride 2, 1×1 filters, `K` past MC, and pixel counts ragged
        /// against KC and spanning several images — bitwise equal to the
        /// naive loop on the materialized `Âᵀ`.
        #[test]
        fn gather_tn_bitwise_matches_naive_on_materialized_transpose(
            batch in 1usize..3,
            ih in 3usize..17,
            iw in 3usize..17,
            ici in 0usize..5,
            ri in 0usize..2,
            stride in 1usize..3,
            pad in 0usize..2,
            ni in 0usize..4,
            seed in 0u32..1000,
        ) {
            let ic = [1usize, 4, 7, 13, 16][ici];
            let r = [1usize, 3][ri];
            let n = [1usize, 5, NR, NR + 17][ni];
            prop_assume!(ih + 2 * pad >= r && iw + 2 * pad >= r);
            let (offsets, rpb, block_stride) = conv_table(ih, iw, ic, r, stride, pad);
            let mut base = vec![0.0f32; batch * block_stride];
            fill(&mut base, seed);
            let g = GatherA {
                base: &base,
                offsets: &offsets,
                taps: r * r,
                seg: ic,
                rows_per_block: rpb,
                block_stride,
            };
            let rows = batch * rpb;
            let mut b = vec![0.0f32; rows * n];
            fill(&mut b, seed.wrapping_add(1));
            prop_assert_eq!(check_gather_tn(&g, rows, n, &b), Ok(()));
        }
    }
}
