//! The cache-blocked `Γα(n, r)` row kernel (§5.1, Algorithms 1 & 2).
//!
//! One kernel invocation computes a *segment* of one output row
//! `Y[b, oy, seg_start .. seg_start + tiles·n, :]`. The work is blocked
//! exactly like the paper's thread blocks:
//!
//! * `BN` output channels × `BM` width-tiles per block, iterating
//!   `FH × (IC / BK)` times (the `fh`/`oic` loops of Algorithm 1);
//! * per iteration the input tiles are gathered from the NHWC row (implicit
//!   zero padding via bounds checks, §5), transformed with the *simplified*
//!   `Dᵀ` (§5.3 even/odd pairing) in [`crate::plan::LANE`]-wide channel
//!   chunks, and multiplied into the `α`-state accumulators by a
//!   register-blocked FMA microkernel that runs along the contiguous `oc`
//!   axis of the transformed filter — the CPU analogue of the 8×(8×8)
//!   outer products, dispatched at runtime to an explicit AVX2/NEON
//!   implementation or the scalar fallback via `iwino_simd::kernels()`
//!   (see `fma_tile`; all paths are bit-for-bit identical);
//! * accumulation stays in the Winograd domain across `fh` **and** `ic` —
//!   the defining trick of Im2col-Winograd — so a single output transform
//!   per tile finishes the block (Algorithm 1's `transformOutput`).
//!
//! Variants share one block loop and differ in one choice each:
//!
//! * [`Variant::Ruse`] — §5.4 input-tile overlap reuse, which changes only
//!   the gather: adjacent tiles of `F(n, r)` share `r − 1` input items, so
//!   the ruse kernel gathers one contiguous *strip* of `(tiles−1)·n + α`
//!   positions per `(plane, ic-block)` instead of `α` positions per tile,
//!   cutting gather traffic by the factor the paper derives
//!   (`α → α − (r−1)·(tiles−1)/tiles` per tile).
//! * [`Variant::C64`] — §5.6 enlarged cache block, which changes only the
//!   block geometry: `BN` doubled to 64 for `α = 16`, raising arithmetic
//!   intensity from `256/(α+r)` to `512/(α+2r)`.
//!
//! Neither choice touches the per-element summation order, so all three
//! variants produce bit-identical output.

use crate::filter::TransformedFilter;
use crate::plan::BK;
use iwino_obs as obs;
use iwino_simd as simd;
use iwino_transforms::{PairedTransform, WinogradTransform};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Kernel flavour (§5.4, §5.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    Standard,
    /// Input-tile overlap reuse (`Γα^ruse`).
    Ruse,
    /// Enlarged cache block (`Γα^c64`), meaningful for α = 16.
    C64,
}

// `BK` (channel panel) and `LANE` (microkernel vector width) live in
// `crate::plan` so the planner, the kernels, and the tests agree on the
// lane-width invariant (`BK % LANE == 0`); the microkernels themselves
// live in `iwino-simd` behind its runtime dispatch table.

/// A ready-to-run `Γα(n, r)` kernel: transform matrices in f32 with the
/// §5.3 pairing plans, plus the block geometry.
pub struct GammaKernel {
    pub n: usize,
    pub r: usize,
    pub alpha: usize,
    pub variant: Variant,
    /// Input transform `Dᵀ` (α×α) with even/odd pairing.
    dt: PairedTransform,
    /// Output transform `Aᵀ` (n×α) with pairing (mostly singles).
    at: PairedTransform,
    /// Output-channel block size (`BN`).
    pub bn: usize,
    /// Width-tile block size (`BM`).
    pub bm: usize,
}

/// Everything a kernel needs to know about the output row it is computing.
///
/// The job is expressed as a *row plan*: the list of input rows that
/// contribute to this output row, each paired with the transformed-filter
/// plane that multiplies it. For 2-D convolution the plan holds one entry
/// per in-bounds `fh` (plane = `fh`); for the 3-D extension (§4.2) it holds
/// one entry per in-bounds `(fd, fh)` pair (plane = `fd·FH + fh`) — Stage 2
/// of the algorithm is completely unchanged, exactly as the paper claims.
pub struct RowJob<'a> {
    /// The input image (any outer layout; rows are addressed by offset).
    pub x: &'a [f32],
    /// `(offset of the input row start within x, filter plane index)` for
    /// every contributing row. Out-of-bounds rows are simply absent
    /// (implicit zero padding along the outer axes).
    pub rows: &'a [(usize, usize)],
    /// Input row width (items) and channel count.
    pub iw: usize,
    pub ic: usize,
    /// Horizontal padding.
    pub pw: usize,
    /// Output row geometry.
    pub ow: usize,
    pub oc: usize,
}

/// Reusable per-task scratch buffers (the CPU's "shared memory"). One
/// `Scratch` per worker task; sized for the largest kernel in the plan.
#[derive(Default)]
pub struct Scratch {
    /// Gathered input strip/tiles: `α` (or strip length) rows × BK channels.
    gather: Vec<f32>,
    /// Transformed input tiles: `2 × α × BK` (the tile loops pair tiles so
    /// the outer product reuses each filter-panel pass across two tiles).
    tx: Vec<f32>,
    /// Winograd-domain accumulators: `BM × α × BN`.
    acc: Vec<f32>,
    /// Output tile staging: `n × BN`.
    ytile: Vec<f32>,
}

/// Hard size bound of the process-wide kernel cache. The supported
/// `(α, n, r, variant)` space is small — α ∈ {4, 8, 16} with `n + r = α + 1`,
/// `n, r ≥ 2`, ≤ 2 variants each — under 60 legitimate combinations, so the
/// bound is never hit by normal use; it exists so a caller generating
/// arbitrary specs cannot grow the cache without limit.
const KERNEL_CACHE_BOUND: usize = 64;

/// Keyed-cache insert with a hard size bound: a resident value is cloned
/// out; otherwise, if the map is full, an arbitrary resident entry is
/// evicted first (hits are homogeneous and the cache tiny, so LRU
/// bookkeeping would cost more than the rare regeneration it saves).
fn bounded_insert<K: Eq + Hash + Clone, V: Clone>(
    map: &mut HashMap<K, V>,
    bound: usize,
    key: K,
    make: impl FnOnce() -> V,
) -> V {
    if let Some(v) = map.get(&key) {
        return v.clone();
    }
    if map.len() >= bound.max(1) {
        if let Some(evict) = map.keys().next().cloned() {
            map.remove(&evict);
        }
    }
    let v = make();
    map.insert(key, v.clone());
    v
}

/// Process-wide kernel cache: generating the transform matrices runs exact
/// rational arithmetic (expensive for α = 16), and convolutions inside a
/// training loop would otherwise pay it on every call. Bounded to
/// [`KERNEL_CACHE_BOUND`] entries.
pub fn cached_kernel(alpha: usize, n: usize, r: usize, variant: Variant) -> Arc<GammaKernel> {
    type Cache = Mutex<HashMap<(usize, usize, usize, Variant), Arc<GammaKernel>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("kernel cache poisoned");
    bounded_insert(&mut map, KERNEL_CACHE_BOUND, (alpha, n, r, variant), || {
        Arc::new(GammaKernel::new(alpha, n, r, variant))
    })
}

impl GammaKernel {
    /// Build the kernel for one [`crate::plan::GammaSpec`]-equivalent triple.
    pub fn new(alpha: usize, n: usize, r: usize, variant: Variant) -> Self {
        assert_eq!(alpha, n + r - 1);
        let t = WinogradTransform::generate(n, r);
        // Block geometry per §5.1: BN×BM = 64×64 (α=4), 64×32 (α=8),
        // 32×32 (α=16); c64 doubles BN back to 64 (§5.6).
        let (bn, bm) = match alpha {
            4 => (64, 64),
            8 => (64, 32),
            16 if variant == Variant::C64 => (64, 32),
            _ => (32, 32),
        };
        GammaKernel {
            n,
            r,
            alpha,
            variant,
            dt: t.dt_paired(),
            at: t.at_paired(),
            bn,
            bm,
        }
    }

    /// The `WinogradTransform` this kernel was generated from (for tests and
    /// op counting).
    pub fn transform(&self) -> WinogradTransform {
        WinogradTransform::generate(self.n, self.r)
    }

    /// Compute the segment `[seg_start, seg_start + tiles·n)` of the row
    /// described by `job`, writing into `out_row` (the full `OW×OC` row).
    ///
    /// `tw` must have been built with the same `F(n, r)` transform.
    pub fn run_segment(
        &self,
        job: &RowJob<'_>,
        tw: &TransformedFilter,
        seg_start: usize,
        tiles: usize,
        out_row: &mut [f32],
        scratch: &mut Scratch,
    ) {
        debug_assert_eq!(tw.alpha, self.alpha);
        debug_assert_eq!(tw.ic, job.ic);
        debug_assert_eq!(tw.oc, job.oc);
        debug_assert_eq!(out_row.len(), job.ow * job.oc);
        debug_assert!(seg_start + tiles * self.n <= job.ow);
        // Flight-recorder span for the whole segment: one B/E pair per
        // `run_segment` call is cheap enough to leave unconditional (a
        // single relaxed load when tracing is off) and is the event the
        // worker-timeline view hangs the Γ work off.
        let _seg = obs::trace_span(obs::Stage::GammaSegment);
        let alpha = self.alpha;
        let n = self.n;
        let (bn, bm) = (self.bn, self.bm);
        // Hoisted once per segment so the disabled path costs one relaxed
        // load + predictable branches in the loops below.
        let rec = obs::enabled();

        // Ruse (§5.4) gathers one strip covering every tile of a block;
        // the other variants gather α positions per tile. That is the only
        // place the variants differ.
        let strip = self.variant == Variant::Ruse;

        // Disjoint borrows of the scratch fields for the loops below.
        let Scratch {
            gather,
            tx,
            acc: acc_buf,
            ytile,
        } = scratch;
        tx.resize(2 * alpha * BK, 0.0);
        acc_buf.resize(bm * alpha * bn, 0.0);
        ytile.resize(n * bn, 0.0);

        for oc0 in (0..job.oc).step_by(bn) {
            let ocb = bn.min(job.oc - oc0);
            for t0 in (0..tiles).step_by(bm) {
                let tb = bm.min(tiles - t0);
                let px0 = (seg_start + t0 * n) as isize - job.pw as isize;
                let gather_len = if strip { (tb - 1) * n + alpha } else { alpha };
                gather.resize(gather_len * BK, 0.0);
                let acc = &mut acc_buf[..tb * alpha * bn];
                acc.fill(0.0);
                // Stage clock, read only while recording.
                let mut lap = rec.then(Instant::now);
                let (mut it_ns, mut op_ns) = (0u64, 0u64);
                for &(x_off, plane) in job.rows {
                    let x_row = &job.x[x_off..x_off + job.iw * job.ic];
                    for ic0 in (0..job.ic).step_by(BK) {
                        let icb = BK.min(job.ic - ic0);
                        if strip {
                            gather_positions(x_row, job.iw, job.ic, ic0, icb, px0, gather_len, gather);
                        }
                        // Tiles run in pairs: both tiles' transformed inputs
                        // are staged in `tx` (`2 × α × BK`), then one paired
                        // FMA pass streams the filter panel once for both
                        // (see `fma_tile2`). An odd trailing tile takes the
                        // single-tile path.
                        let mut t = 0;
                        while t < tb {
                            let pair = (tb - t).min(2);
                            for k in 0..pair {
                                let from: &[f32] = if strip {
                                    &gather[(t + k) * n * BK..]
                                } else {
                                    let px = px0 + ((t + k) * n) as isize;
                                    gather_positions(x_row, job.iw, job.ic, ic0, icb, px, alpha, gather);
                                    &gather[..]
                                };
                                self.dt.apply_f32_strided(from, BK, &mut tx[k * alpha * BK..], BK, icb);
                            }
                            it_ns += lap_ns(&mut lap);
                            if pair == 2 {
                                fma_tile2(acc, t, alpha, bn, tx, icb, tw, plane, ic0, oc0, ocb);
                            } else {
                                fma_tile(acc, t, alpha, bn, tx, icb, tw, plane, ic0, oc0, ocb);
                            }
                            op_ns += lap_ns(&mut lap);
                            t += pair;
                        }
                    }
                }
                // Output transform: ytile(n×BN) = Aᵀ(n×α) · acc_t(α×BN).
                for t in 0..tb {
                    let acc_t = &acc_buf[t * alpha * bn..(t + 1) * alpha * bn];
                    self.at.apply_f32_strided(acc_t, bn, ytile, bn, ocb);
                    let ox0 = seg_start + (t0 + t) * n;
                    for j in 0..n {
                        let dst = &mut out_row[(ox0 + j) * job.oc + oc0..(ox0 + j) * job.oc + oc0 + ocb];
                        dst.copy_from_slice(&ytile[j * bn..j * bn + ocb]);
                    }
                }
                if rec {
                    // Stage times flush once per block to keep atomic
                    // traffic off the per-tile path.
                    obs::add_stage_ns(obs::Stage::InputTransform, it_ns);
                    obs::add_stage_ns(obs::Stage::OuterProduct, op_ns);
                    obs::add_stage_ns(obs::Stage::OutputTransform, lap_ns(&mut lap));
                    obs::add(obs::Counter::Tiles, tb as u64);
                    if strip {
                        obs::add(obs::Counter::RuseTiles, tb as u64);
                    }
                    // Gathered input items per (plane, channel) — one shared
                    // strip for ruse instead of tb·α positions, so the §5.4
                    // saving shows up here — plus the filter panel touched.
                    let gathered = if strip { gather_len } else { tb * alpha };
                    let loaded = job.rows.len() * job.ic * (gathered + alpha * ocb) * 4;
                    obs::add(obs::Counter::BytesLoaded, loaded as u64);
                    obs::add(obs::Counter::BytesStored, (tb * n * ocb * 4) as u64);
                }
            }
        }
    }
}

/// Nanoseconds since `*lap`, restarting it there; 0 when not recording.
#[inline(always)]
fn lap_ns(lap: &mut Option<Instant>) -> u64 {
    let Some(t) = lap else { return 0 };
    let now = Instant::now();
    let ns = (now - *t).as_nanos() as u64;
    *t = now;
    ns
}

/// Gather `count` consecutive width positions starting at (possibly
/// negative) `px0` for channels `[ic0, ic0 + icb)` into `dst[count × BK]`.
/// Out-of-range positions contribute zeros (implicit padding, §5).
#[allow(clippy::too_many_arguments)] // flat geometry args keep the hot path call-site cheap
fn gather_positions(
    x_row: &[f32],
    iw: usize,
    ic: usize,
    ic0: usize,
    icb: usize,
    px0: isize,
    count: usize,
    dst: &mut [f32],
) {
    for k in 0..count {
        let px = px0 + k as isize;
        let d = &mut dst[k * BK..k * BK + icb];
        if px >= 0 && (px as usize) < iw {
            let base = px as usize * ic + ic0;
            d.copy_from_slice(&x_row[base..base + icb]);
        } else {
            d.fill(0.0);
        }
    }
}

/// The element-wise multiply stage for one tile: for every state `s`, FMA
/// the transformed input scalars against the filter's contiguous `IC×OC`
/// panel — the paper's outer-product unit. The per-state row runs on the
/// dispatched `iwino-simd` microkernel (AVX2/NEON/scalar, all bit-for-bit
/// identical): output channels are register-blocked down to a masked tail
/// and per output element the `ic`-order summation is identical to a plain
/// nested loop, keeping variants and ISAs bitwise-comparable. When scalar
/// is dispatched the (inlinable) fallback is called directly instead of
/// through the table's function pointer, so the pre-dispatch codegen — and
/// its performance — is preserved exactly.
#[allow(clippy::too_many_arguments)]
fn fma_tile(
    acc: &mut [f32],
    t: usize,
    alpha: usize,
    bn: usize,
    tx: &[f32],
    icb: usize,
    tw: &TransformedFilter,
    plane: usize,
    ic0: usize,
    oc0: usize,
    ocb: usize,
) {
    let oc = tw.oc;
    let mk = simd::kernels();
    let use_scalar = mk.isa == simd::Isa::Scalar;
    for s in 0..alpha {
        let base = (t * alpha + s) * bn;
        let arow = &mut acc[base..base + ocb];
        let txs = &tx[s * BK..s * BK + icb];
        let panel = &tw.panel(plane, s)[ic0 * oc..];
        if use_scalar {
            simd::scalar::outer_product_row(arow, txs, panel, oc, oc0);
        } else {
            (mk.outer_product_row)(arow, txs, panel, oc, oc0);
        }
    }
}

/// Paired-tile variant of [`fma_tile`]: tiles `t` and `t + 1` accumulated
/// in one pass over each state's filter panel. The panel stream is the
/// outer product's dominant memory traffic (`ocb` floats per channel vs 1
/// for the tx stream), so reusing each panel row across two tiles halves
/// the stage's bandwidth demand — the difference between an L2-bound and
/// an FP-bound AVX2 kernel at `ocb = 64`. `tx` holds both tiles'
/// transformed inputs (`2 × α × BK`, tile `t` first). Per output element
/// the accumulation order is exactly [`fma_tile`]'s, so pairing is
/// bitwise-invisible.
#[allow(clippy::too_many_arguments)]
fn fma_tile2(
    acc: &mut [f32],
    t: usize,
    alpha: usize,
    bn: usize,
    tx: &[f32],
    icb: usize,
    tw: &TransformedFilter,
    plane: usize,
    ic0: usize,
    oc0: usize,
    ocb: usize,
) {
    let oc = tw.oc;
    let mk = simd::kernels();
    let use_scalar = mk.isa == simd::Isa::Scalar;
    // Disjoint accumulator views for the two tiles (`α·bn` apart).
    let (acc0, acc1) = acc.split_at_mut((t + 1) * alpha * bn);
    for s in 0..alpha {
        let base = (t * alpha + s) * bn;
        let arow0 = &mut acc0[base..base + ocb];
        let arow1 = &mut acc1[s * bn..s * bn + ocb];
        let txs0 = &tx[s * BK..s * BK + icb];
        let txs1 = &tx[(alpha + s) * BK..(alpha + s) * BK + icb];
        let panel = &tw.panel(plane, s)[ic0 * oc..];
        if use_scalar {
            simd::scalar::outer_product_row2(arow0, arow1, txs0, txs1, panel, oc, oc0);
        } else {
            (mk.outer_product_row2)(arow0, arow1, txs0, txs1, panel, oc, oc0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_block_geometry_follows_paper() {
        assert_eq!(
            {
                let k = GammaKernel::new(4, 3, 2, Variant::Standard);
                (k.bn, k.bm)
            },
            (64, 64)
        );
        assert_eq!(
            {
                let k = GammaKernel::new(8, 6, 3, Variant::Standard);
                (k.bn, k.bm)
            },
            (64, 32)
        );
        assert_eq!(
            {
                let k = GammaKernel::new(16, 8, 9, Variant::Standard);
                (k.bn, k.bm)
            },
            (32, 32)
        );
        assert_eq!(
            {
                let k = GammaKernel::new(16, 8, 9, Variant::C64);
                (k.bn, k.bm)
            },
            (64, 32)
        );
    }

    #[test]
    fn gather_handles_padding_on_both_sides() {
        // x row: 3 positions × 2 channels = [10,11, 20,21, 30,31]
        let x_row = [10.0f32, 11.0, 20.0, 21.0, 30.0, 31.0];
        let mut dst = vec![9.0f32; 5 * BK];
        gather_positions(&x_row, 3, 2, 0, 2, -1, 5, &mut dst);
        // px = -1 → zeros; px = 0,1,2 → data; px = 3 → zeros.
        assert_eq!(&dst[0..2], &[0.0, 0.0]);
        assert_eq!(&dst[BK..BK + 2], &[10.0, 11.0]);
        assert_eq!(&dst[2 * BK..2 * BK + 2], &[20.0, 21.0]);
        assert_eq!(&dst[3 * BK..3 * BK + 2], &[30.0, 31.0]);
        assert_eq!(&dst[4 * BK..4 * BK + 2], &[0.0, 0.0]);
    }

    #[test]
    fn gather_channel_offset() {
        // 1 position × 4 channels; take channels 2..4.
        let x_row = [1.0f32, 2.0, 3.0, 4.0];
        let mut dst = vec![0.0f32; BK];
        gather_positions(&x_row, 1, 4, 2, 2, 0, 1, &mut dst);
        assert_eq!(&dst[0..2], &[3.0, 4.0]);
    }

    #[test]
    fn bounded_insert_caps_len_and_reuses_residents() {
        let mut m: HashMap<usize, usize> = HashMap::new();
        for i in 0..100 {
            let v = bounded_insert(&mut m, 8, i, || i * 10);
            assert_eq!(v, i * 10);
            assert!(m.len() <= 8, "cache grew past its bound: {}", m.len());
        }
        assert_eq!(m.len(), 8);
        // A resident key is cloned out, never rebuilt (and never evicts).
        let k = *m.keys().next().unwrap();
        let v = bounded_insert(&mut m, 8, k, || panic!("resident key must not be rebuilt"));
        assert_eq!(v, k * 10);
        assert_eq!(m.len(), 8);
    }

    /// Reuse, bounding, and eviction safety of the real kernel cache live
    /// in ONE test: an eviction exercise in a parallel test could otherwise
    /// race the `Arc::ptr_eq` check (the cache is process-global).
    #[test]
    fn cached_kernel_reuses_across_calls() {
        let a = cached_kernel(8, 6, 3, Variant::Standard);
        let b = cached_kernel(8, 6, 3, Variant::Standard);
        assert!(
            Arc::ptr_eq(&a, &b),
            "repeated conv2d calls must share one generated kernel"
        );
        // Legitimate spec space fits the bound with headroom: α ∈ {4, 8, 16},
        // n + r = α + 1, n, r ≥ 2, ≤ 2 variants each.
        let combos: usize = [4usize, 8, 16].iter().map(|&a| (a - 2) * 2).sum();
        assert!(combos <= KERNEL_CACHE_BOUND, "{combos} legit combos exceed the bound");

        // Regression: eviction at the bound drops only the cache's OWN
        // reference — an Arc handed out before the flood keeps computing
        // mid-conv. (conv2d holds its kernels across the whole call, so a
        // concurrent caller flooding the cache with other specs must never
        // invalidate them.)
        let held = a;
        let (job_x, w) = eviction_fixture();
        let rows = [(0usize, 0usize), (12 * 3, 1), (2 * 12 * 3, 2)];
        let job = RowJob {
            x: &job_x,
            rows: &rows,
            iw: 12,
            ic: 3,
            pw: 1,
            ow: 12,
            oc: 4,
        };
        let tw = TransformedFilter::forward(&w, &held.transform());
        let mut scratch = Scratch::default();
        let mut before = vec![0.0f32; 12 * 4];
        held.run_segment(&job, &tw, 0, 2, &mut before, &mut scratch);

        // Flood: every (α, n, r) triple for α ∈ {4, 8, 16} in all three
        // variants is 66 distinct keys — strictly more than the bound, so
        // inserts evict residents (very likely including `held`'s entry).
        let mut flooded = 0usize;
        for alpha in [4usize, 8, 16] {
            for n in 2..alpha {
                let r = alpha + 1 - n;
                for variant in [Variant::Standard, Variant::Ruse, Variant::C64] {
                    let k = cached_kernel(alpha, n, r, variant);
                    assert_eq!((k.alpha, k.n, k.r), (alpha, n, r));
                    flooded += 1;
                }
            }
        }
        assert!(flooded > KERNEL_CACHE_BOUND, "flood too small: {flooded}");

        // The held Arc still produces the identical segment, and a fresh
        // fetch (rebuilt if evicted) agrees bitwise.
        let mut after = vec![0.0f32; 12 * 4];
        held.run_segment(&job, &tw, 0, 2, &mut after, &mut scratch);
        assert_eq!(before, after, "held kernel changed behaviour after cache flood");
        let fresh = cached_kernel(8, 6, 3, Variant::Standard);
        let mut fresh_out = vec![0.0f32; 12 * 4];
        fresh.run_segment(&job, &tw, 0, 2, &mut fresh_out, &mut scratch);
        assert_eq!(before, fresh_out, "refetched kernel disagrees with held one");

        // And both match the direct reference within fp tolerance: the job
        // is the single output row of a valid 3×3 convolution (pad 1 along
        // the width) over the 3-row slab.
        let slab = iwino_tensor::ConvShape::unit(1, 3, 12, 3, 4, 3, 3, 0, 1);
        let x = iwino_tensor::Tensor4::from_vec(slab.x_dims(), job_x.clone());
        let reference = iwino_baselines::direct_conv(&x, &w, &slab);
        for (i, (&got, &want)) in before.iter().zip(reference.as_slice()).enumerate() {
            assert!(
                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                "output {i}: {got} vs direct {want}"
            );
        }
    }

    /// Deterministic Γ8(6,3) single-row workload: a 3-row image slab
    /// (`IW = 12, IC = 3`) and an `OC = 4` filter in OHWI.
    fn eviction_fixture() -> (Vec<f32>, iwino_tensor::Tensor4<f32>) {
        let (iw, ic, oc, fh, fw) = (12usize, 3usize, 4usize, 3usize, 3usize);
        let x: Vec<f32> = (0..3 * iw * ic)
            .map(|i| ((i * 37 + 11) % 23) as f32 * 0.25 - 2.0)
            .collect();
        let mut w = iwino_tensor::Tensor4::<f32>::filter_ohwi(oc, fh, fw, ic);
        for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 29 + 5) % 19) as f32 * 0.125 - 1.0;
        }
        (x, w)
    }
}
