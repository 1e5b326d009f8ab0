//! The analytic timing model.
//!
//! For every algorithm the model computes a compute leg and a memory leg
//! and takes the max (roofline), with three effects layered on top:
//!
//! * **occupancy** — resident warps must be sufficient to hide latency; the
//!   compute rate is scaled by `min(1, warp_occupancy / 0.25)`;
//! * **bank efficiency** — the §5.2 transaction counts scale the compute
//!   leg (SMEM traffic is on the critical path of the outer products);
//! * **wave quantisation** — the block grid executes in waves of
//!   `SMs × blocks_per_SM`; a ragged final wave wastes the idle SMs. This
//!   term produces the instability the paper reports for cuDNN's
//!   Fused_Winograd on extreme feature-map/channel ratios, and the
//!   consistency advantage of Im2col-Winograd's `OC/BN × (N·OH·OW/n)/BM`
//!   grid (§5.1, §6.1.2).
//!
//! Γ kernels additionally go through the §5.5 segment plan, so shapes with
//! `OW % n ≠ 0` pay for their boundary columns at the slower segment rates —
//! the fluctuation §6.1.2 describes.

use crate::device::DeviceSpec;
use crate::occupancy::{occupancy, BlockResources};
use crate::smem::{ds_store_gamma8, gs_load_gamma8, transactions_and_ideal, ys_store_gamma8};
use iwino_core::plan::{default_kernel_prefs, GammaSpec, KernelChoice, SegmentPlan};
use iwino_core::Variant;
use iwino_tensor::ConvShape;

/// Tensor layout of a baseline algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    Nhwc,
    Nchw,
}

/// The algorithms Figures 8/9 compare.
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// `Γα(n, r)` with the §5.5 boundary plan. `include_transpose` charges
    /// the one-off filter transposition (§5.1) — the series without `*` in
    /// the figures.
    Gamma { spec: GammaSpec, include_transpose: bool },
    /// cuDNN-style `Implicit_Precomp_GEMM`.
    ImplicitGemm { layout: Layout },
    /// cuDNN-style fused 2-D Winograd `F(2×2, 3×3)` (NCHW, r = 3 only).
    FusedWinograd2d,
}

impl Algorithm {
    pub fn label(&self) -> String {
        match self {
            Algorithm::Gamma {
                spec,
                include_transpose,
            } => {
                format!("Im2col-Winograd-{spec}{}", if *include_transpose { "" } else { "*" })
            }
            Algorithm::ImplicitGemm { layout: Layout::Nhwc } => "cuDNN-Implicit-Precomp-GEMM-NHWC".into(),
            Algorithm::ImplicitGemm { layout: Layout::Nchw } => "cuDNN-Implicit-Precomp-GEMM-NCHW".into(),
            Algorithm::FusedWinograd2d => "cuDNN-Fused-Winograd".into(),
        }
    }
}

/// Model output for one (device, shape, algorithm) triple.
#[derive(Clone, Copy, Debug)]
pub struct SimResult {
    /// Standard-convolution FLOPs divided by modelled time — the paper's
    /// Gflop/s metric (§6.1.1), which is why Winograd kernels can exceed
    /// the device's arithmetic peak utilisation.
    pub gflops: f64,
    pub time_s: f64,
    pub compute_s: f64,
    pub mem_s: f64,
    pub warp_occupancy: f64,
    /// Modelled arithmetic intensity (op/byte) of the dominant kernel.
    pub intensity: f64,
}

/// §5.6 arithmetic intensity: `I = α·BN·BM / (2·(BM·L_in + BN·r))` op/byte,
/// with `L_in = α` for the standard kernel and `α − (r−1)/2` under overlap
/// reuse. Reproduces the paper's 10.24 / 12.19 / 15.06 exactly (see tests).
pub fn arithmetic_intensity(alpha: usize, r: usize, bn: usize, bm: usize, ruse: bool) -> f64 {
    let l_in = if ruse {
        alpha as f64 - (r as f64 - 1.0) / 2.0
    } else {
        alpha as f64
    };
    (alpha * bn * bm) as f64 / (2.0 * (bm as f64 * l_in + (bn * r) as f64))
}

/// Block geometry for a Γ spec (§5.1 / §5.6).
fn gamma_geometry(spec: &GammaSpec) -> (usize, usize) {
    match (spec.alpha, spec.variant) {
        (4, _) => (64, 64),
        (8, _) => (64, 32),
        (16, Variant::C64) => (64, 32),
        (16, _) => (32, 32),
        _ => (32, 32),
    }
}

/// Fraction of compute throughput surviving occupancy starvation. `ilp`
/// scales the effective latency-hiding capacity: the ruse kernel halves the
/// thread count but each thread carries two tiles' worth of independent
/// FMA chains (§5.4's trade-off — "higher data-reuse" vs "lower
/// parallelism"), so its warps hide roughly twice the latency each.
fn occupancy_factor(warp_occ: f64, ilp: f64) -> f64 {
    (warp_occ * ilp / 0.25).min(1.0)
}

/// Transform-overhead penalty of a Γ kernel: per input tile and BK-channel
/// slice the kernel spends ≈ α²/2 transform multiplies (§5.3, paired)
/// against α·BN element-wise FMAs, so larger α converts Φ less perfectly —
/// the reason the measured Γ16 speedups (Table 2: ≤ 2.23×) sit well below
/// the ideal Φ = 4.5.
fn transform_penalty(alpha: usize, bn: usize) -> f64 {
    1.0 / (1.0 + alpha as f64 / (2.0 * bn as f64) + 0.02 * alpha as f64)
}

/// Load-issue overhead: tile loads compete with FMAs for issue slots, so a
/// kernel moving more bytes per op (lower intensity) sustains a slightly
/// lower FMA rate even when compute-bound. This is the term that gives the
/// `ruse` variant its measured few-percent edge over the standard kernel
/// in the compute-bound regime (§5.4's "higher data-reuse ... raising the
/// computing intensity").
fn issue_efficiency(intensity: f64) -> f64 {
    intensity / (intensity + 2.0)
}

/// cuDNN's shipped kernels are tuned at the SASS level; the paper's kernels
/// are portable C++ ("this approach may not achieve the max hardware
/// efficiency", §4.1). The baselines get this factor on top of
/// `achievable_fp32`.
const CUDNN_TUNING_BONUS: f64 = 1.25;

/// Effective bandwidth of the tile-load stream: interpolates between L2 and
/// DRAM bandwidth by the fraction of a wave's working set that fits in L2.
/// Large-channel shapes spill ("more robust to L2 cache miss ... in cases
/// with large channels", §6.1.2), which is where the higher-intensity ruse
/// and c64 variants pull ahead.
fn tile_stream_bw(dev: &DeviceSpec, bytes_per_wave: f64) -> f64 {
    let hit = if bytes_per_wave <= 0.0 {
        1.0
    } else {
        (dev.l2_bytes as f64 / bytes_per_wave).min(1.0)
    };
    dev.mem_bw + (dev.l2_bw - dev.mem_bw) * hit
}

/// Wave quantisation: utilisation of the last (partial) wave.
fn wave_utilisation(total_blocks: f64, wave: f64) -> f64 {
    if total_blocks <= 0.0 || wave <= 0.0 {
        return 1.0;
    }
    let waves = (total_blocks / wave).ceil();
    (total_blocks / (waves * wave)).min(1.0)
}

/// Bank-conflict efficiency of the Γ kernels with the §5.2 fixes in place
/// (= 1.0, they are conflict-free) and without.
pub fn gamma_bank_efficiency(mitigated: bool) -> f64 {
    let patterns: Vec<_> = ys_store_gamma8(mitigated)
        .into_iter()
        .chain(ds_store_gamma8(mitigated))
        .chain(gs_load_gamma8(mitigated))
        .collect();
    let (actual, ideal) = transactions_and_ideal(&patterns);
    ideal as f64 / actual as f64
}

/// Estimate the performance of `algo` on `dev` for `shape`.
pub fn estimate(dev: &DeviceSpec, shape: &ConvShape, algo: &Algorithm) -> SimResult {
    let std_flops = shape.flops();
    match algo {
        Algorithm::Gamma {
            spec,
            include_transpose,
        } => estimate_gamma(dev, shape, spec, *include_transpose, std_flops),
        Algorithm::ImplicitGemm { layout } => estimate_gemm(dev, shape, *layout, std_flops),
        Algorithm::FusedWinograd2d => estimate_fused2d(dev, shape, std_flops),
    }
}

fn estimate_gamma(
    dev: &DeviceSpec,
    shape: &ConvShape,
    primary: &GammaSpec,
    include_transpose: bool,
    std_flops: f64,
) -> SimResult {
    let ow = shape.ow();
    // Primary spec first, then the default remainder kernels, then GEMM.
    let mut prefs = vec![*primary];
    for p in default_kernel_prefs(primary.r, primary.alpha == 16) {
        if !prefs.iter().any(|q| q.alpha == p.alpha && q.n == p.n) {
            prefs.push(p);
        }
    }
    let plan = SegmentPlan::build(ow, &prefs);

    let mut time = 0.0f64;
    let mut compute_total = 0.0f64;
    let mut mem_total = 0.0f64;
    let mut primary_intensity = 0.0f64;
    let mut primary_occ = 0.0f64;
    let bank_eff = gamma_bank_efficiency(true); // the paper's kernels are fixed

    for seg in &plan.segments {
        let frac = seg.len as f64 / ow as f64;
        let seg_flops = std_flops * frac;
        match seg.kernel {
            KernelChoice::Gamma(g) => {
                let (bn, bm) = gamma_geometry(&g);
                let phi = g.phi();
                let eff_flops = seg_flops / phi;
                let intensity = arithmetic_intensity(g.alpha, g.r, bn, bm, g.variant == Variant::Ruse);
                let block = BlockResources::gamma(g.alpha, bn, bm, g.variant == Variant::Ruse);
                let occ = occupancy(dev, &block);
                // Grid: OC/BN × (N·OH·OW_seg/n)/BM blocks (§5.1).
                let tiles = (shape.n * shape.oh()) as f64 * (seg.len as f64 / g.n as f64);
                let blocks = (shape.oc as f64 / bn as f64).ceil() * (tiles / bm as f64).ceil();
                let wave = (dev.sms * occ.blocks_per_sm.max(1)) as f64;
                let util = wave_utilisation(blocks, wave);
                let ilp = if g.variant == Variant::Ruse { 2.0 } else { 1.0 };
                let rate = dev.peak_flops()
                    * dev.achievable_fp32
                    * occupancy_factor(occ.warp_occupancy, ilp)
                    * bank_eff
                    * util
                    * transform_penalty(g.alpha, bn)
                    * issue_efficiency(intensity);
                let compute = eff_flops / rate;
                // On-chip leg: the tile-load stream the §5.6 intensity counts
                // is served from L2 while the wave's working set fits — the
                // 1-D tiles keep block working sets adjacent, so "data stays
                // in L2 for a longer period" (§4.2) — and degrades towards
                // DRAM bandwidth when it spills.
                let waves = (blocks / wave).ceil().max(1.0);
                let bytes_per_wave = frac * unique_dram_bytes(shape) / waves;
                let l2 = (eff_flops / intensity) / tile_stream_bw(dev, bytes_per_wave);
                // DRAM leg: each unique byte of ifms/filters/ofms crosses the
                // memory bus about once.
                let dram = frac * unique_dram_bytes(shape) / dev.mem_bw;
                let mem = l2.max(dram);
                if seg.kernel == KernelChoice::Gamma(*primary) {
                    primary_intensity = intensity;
                    primary_occ = occ.warp_occupancy;
                }
                compute_total += compute;
                mem_total += mem;
                time += compute.max(mem) + dev.launch_overhead;
            }
            KernelChoice::Gemm => {
                let r = estimate_gemm_leg(dev, shape, seg_flops, Layout::Nhwc, 0.8);
                compute_total += r.0;
                mem_total += r.1;
                time += r.0.max(r.1) + dev.launch_overhead;
            }
        }
    }

    if include_transpose {
        // One pass read + write over the filter bank (§5.1).
        let filter_bytes = (shape.oc * shape.fh * shape.fw * shape.ic * 4) as f64;
        time += 2.0 * filter_bytes / dev.mem_bw + dev.launch_overhead;
    }

    SimResult {
        gflops: std_flops / time / 1e9,
        time_s: time,
        compute_s: compute_total,
        mem_s: mem_total,
        warp_occupancy: primary_occ,
        intensity: primary_intensity,
    }
}

/// Predicted fraction of a Γ run's work landing in each pipeline stage,
/// derived from scalar operation counts. Stage names match the labels the
/// `iwino-obs` runtime profiler reports, so `repro validate-model` can put
/// the two side by side.
///
/// The accounting mirrors the CPU kernels: the paired §5.3 transforms cost
/// ≈ α²/2 multiplies per input tile and channel (`dt`) and ≈ α·n/2 per
/// output tile and channel (`at`) — the same counts behind
/// `transform_penalty` — the outer products cost α FMAs per (tile, ic,
/// oc), the one-off filter transform α·r multiplies per (oc, ic), and the
/// §5.5 GEMM remainder pays full direct-convolution MACs on its columns.
#[derive(Clone, Debug, Default)]
pub struct StageShares {
    pub filter_transform: f64,
    pub input_transform: f64,
    pub outer_product: f64,
    pub output_transform: f64,
    pub gemm_remainder: f64,
}

impl StageShares {
    /// `(stage name, share)` pairs in pipeline order. Names match
    /// `iwino_obs::Stage::name()`.
    pub fn as_pairs(&self) -> [(&'static str, f64); 5] {
        [
            ("filter_transform", self.filter_transform),
            ("input_transform", self.input_transform),
            ("outer_product", self.outer_product),
            ("output_transform", self.output_transform),
            ("gemm_remainder", self.gemm_remainder),
        ]
    }
}

/// Predict the stage shares of running `primary` (plus the default remainder
/// kernels and the GEMM fallback, via the §5.5 plan) over `shape`.
pub fn predicted_stage_shares(shape: &ConvShape, primary: &GammaSpec) -> StageShares {
    let ow = shape.ow();
    let mut prefs = vec![*primary];
    for p in default_kernel_prefs(primary.r, primary.alpha == 16) {
        if !prefs.iter().any(|q| q.alpha == p.alpha && q.n == p.n) {
            prefs.push(p);
        }
    }
    let plan = SegmentPlan::build(ow, &prefs);

    let rows = (shape.n * shape.oh()) as f64;
    let (ic, oc) = (shape.ic as f64, shape.oc as f64);
    let mut s = StageShares::default();
    for seg in &plan.segments {
        match seg.kernel {
            KernelChoice::Gamma(g) => {
                let tiles = rows * (seg.len as f64 / g.n as f64);
                let alpha = g.alpha as f64;
                s.input_transform += tiles * ic * alpha * alpha / 2.0;
                s.outer_product += tiles * ic * oc * alpha;
                s.output_transform += tiles * oc * alpha * g.n as f64 / 2.0;
            }
            KernelChoice::Gemm => {
                s.gemm_remainder += rows * seg.len as f64 * ic * oc * (shape.fh * shape.fw) as f64;
            }
        }
    }
    s.filter_transform = oc * ic * primary.alpha as f64 * primary.r as f64;
    let total = s.filter_transform + s.input_transform + s.outer_product + s.output_transform + s.gemm_remainder;
    if total > 0.0 {
        s.filter_transform /= total;
        s.input_transform /= total;
        s.outer_product /= total;
        s.output_transform /= total;
        s.gemm_remainder /= total;
    }
    s
}

/// Unique DRAM traffic of one convolution: ifms + filters + ofms, f32.
fn unique_dram_bytes(shape: &ConvShape) -> f64 {
    let ifms = shape.n * shape.ih * shape.iw * shape.ic;
    let filt = shape.oc * shape.fh * shape.fw * shape.ic;
    let ofms = shape.n * shape.oh() * shape.ow() * shape.oc;
    (4 * (ifms + filt + ofms)) as f64
}

/// Compute and memory legs of a GEMM-style convolution covering
/// `seg_flops` of standard-convolution work. `quality` derates the boundary
/// GEMM ("our GEMM convolution used for boundary treatment is slower than
/// cuDNN's", §6.1.2).
fn estimate_gemm_leg(dev: &DeviceSpec, shape: &ConvShape, seg_flops: f64, layout: Layout, quality: f64) -> (f64, f64) {
    let block = BlockResources::gemm();
    let occ = occupancy(dev, &block);
    // Classic 64×64×8 tiling: I = 2·64·64·8 / (4·8·(64+64)) = 16 op/byte.
    let intensity = 16.0;
    // Coalescing: NHWC gathers are contiguous over IC (fine once IC ≥ 32);
    // NCHW gathers are contiguous over W.
    let coalesce = match layout {
        Layout::Nhwc => (shape.ic as f64 / 32.0).min(1.0),
        Layout::Nchw => (shape.ow() as f64 / 32.0).min(1.0),
    };
    let rate = dev.peak_flops()
        * dev.achievable_fp32
        * CUDNN_TUNING_BONUS
        * occupancy_factor(occ.warp_occupancy, 1.0)
        * issue_efficiency(intensity)
        * quality;
    let compute = seg_flops / rate;
    let l2 = (seg_flops / intensity) / (dev.l2_bw * coalesce);
    let frac = seg_flops / shape.flops();
    let dram = frac * unique_dram_bytes(shape) / (dev.mem_bw * coalesce);
    (compute, l2.max(dram))
}

fn estimate_gemm(dev: &DeviceSpec, shape: &ConvShape, layout: Layout, std_flops: f64) -> SimResult {
    let block = BlockResources::gemm();
    let occ = occupancy(dev, &block);
    // Wave quantisation over the implicit GEMM grid (GM/64 × GN/64).
    let gm = (shape.n * shape.oh() * shape.ow()) as f64;
    let blocks = (gm / 64.0).ceil() * (shape.oc as f64 / 64.0).ceil();
    let wave = (dev.sms * occ.blocks_per_sm.max(1)) as f64;
    let util = wave_utilisation(blocks, wave);
    let (compute, mem) = estimate_gemm_leg(dev, shape, std_flops, layout, 1.0);
    let compute = compute / util;
    let time = compute.max(mem) + dev.launch_overhead;
    SimResult {
        gflops: std_flops / time / 1e9,
        time_s: time,
        compute_s: compute,
        mem_s: mem,
        warp_occupancy: occ.warp_occupancy,
        intensity: 16.0,
    }
}

fn estimate_fused2d(dev: &DeviceSpec, shape: &ConvShape, std_flops: f64) -> SimResult {
    assert_eq!(shape.fh, 3, "cuDNN Fused_Winograd is 3×3 only (§6.1.1)");
    assert_eq!(shape.fw, 3);
    let alpha = 4usize; // F(2×2, 3×3) per axis
    let phi = (2.0 * 2.0 * 3.0 * 3.0) / (alpha * alpha) as f64; // 2.25
    let eff_flops = std_flops / phi;
    // Intensity analog of §5.6 with 2-D tiles: α² input items per tile,
    // r² filter taps: I = α²·BN·BM / (2·(BM·α² + BN·r²)).
    let (bn, bm) = (32.0, 32.0);
    let intensity = (alpha * alpha) as f64 * bn * bm / (2.0 * (bm * (alpha * alpha) as f64 + bn * 9.0));
    let block = BlockResources::winograd2d(alpha, 32, 32);
    let occ = occupancy(dev, &block);
    // Grid: 2-D tiles × OC/BN. Small feature maps ⟹ few tile rows ⟹ ragged
    // waves: the instability the paper contrasts its blocking against.
    let tiles = (shape.n as f64) * (shape.oh() as f64 / 2.0).ceil() * (shape.ow() as f64 / 2.0).ceil();
    let blocks = (tiles / bm).ceil() * (shape.oc as f64 / bn).ceil();
    let wave = (dev.sms * occ.blocks_per_sm.max(1)) as f64;
    let util = wave_utilisation(blocks, wave);
    let rate = dev.peak_flops()
        * dev.achievable_fp32
        * CUDNN_TUNING_BONUS
        * occupancy_factor(occ.warp_occupancy, 1.0)
        * util
        * transform_penalty(alpha * alpha, bn as usize)
        * issue_efficiency(intensity);
    let compute = eff_flops / rate;
    let l2 = (eff_flops / intensity) / dev.l2_bw;
    let dram = unique_dram_bytes(shape) / dev.mem_bw;
    let mem = l2.max(dram);
    let time = compute.max(mem) + dev.launch_overhead;
    SimResult {
        gflops: std_flops / time / 1e9,
        time_s: time,
        compute_s: compute,
        mem_s: mem,
        warp_occupancy: occ.warp_occupancy,
        intensity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(alpha: usize, n: usize, r: usize, v: Variant) -> GammaSpec {
        GammaSpec::new(alpha, n, r, v)
    }

    #[test]
    fn intensity_pins_from_section_5_6() {
        // Γ16(8,9): 10.24; Γ16^ruse(8,9): 12.19; Γ16^c64(8,9): 15.06.
        let i_std = arithmetic_intensity(16, 9, 32, 32, false);
        assert!((i_std - 10.24).abs() < 0.01, "{i_std}");
        let i_ruse = arithmetic_intensity(16, 9, 32, 32, true);
        assert!((i_ruse - 12.19).abs() < 0.01, "{i_ruse}");
        let i_c64 = arithmetic_intensity(16, 9, 64, 32, false);
        assert!((i_c64 - 15.06).abs() < 0.01, "{i_c64}");
    }

    #[test]
    fn c64_intensity_beats_ruse_beats_standard() {
        // §5.6's ordering for Γ16(8,9).
        let s = arithmetic_intensity(16, 9, 32, 32, false);
        let r = arithmetic_intensity(16, 9, 32, 32, true);
        let c = arithmetic_intensity(16, 9, 64, 32, false);
        assert!(c > r && r > s);
    }

    #[test]
    fn gamma_banks_are_conflict_free_after_fixes() {
        assert_eq!(gamma_bank_efficiency(true), 1.0);
        assert!(gamma_bank_efficiency(false) < 0.5);
    }

    #[test]
    fn winograd_beats_gemm_on_benchmark_shapes() {
        // The headline claim: Γ kernels outrun implicit GEMM for the bulk of
        // the Figure 8 shapes.
        let dev = DeviceSpec::rtx3060ti();
        let s = ConvShape::from_ofms(128, 48, 48, 128, 128, 3);
        let g = estimate(
            &dev,
            &s,
            &Algorithm::Gamma {
                spec: spec(8, 6, 3, Variant::Standard),
                include_transpose: false,
            },
        );
        let base = estimate(&dev, &s, &Algorithm::ImplicitGemm { layout: Layout::Nhwc });
        assert!(g.gflops > base.gflops, "Γ8(6,3) {} vs GEMM {}", g.gflops, base.gflops);
    }

    #[test]
    fn gamma16_outruns_gamma8_like_the_paper() {
        // §6.1.2: "Γ16(n,r) are generally faster than Γ8(n,r)" (higher Φ).
        let dev = DeviceSpec::rtx3060ti();
        let s9 = ConvShape::from_ofms(128, 64, 64, 64, 64, 9);
        let g16 = estimate(
            &dev,
            &s9,
            &Algorithm::Gamma {
                spec: spec(16, 8, 9, Variant::Standard),
                include_transpose: false,
            },
        );
        let s3 = ConvShape::from_ofms(128, 64, 64, 64, 64, 3);
        let g8 = estimate(
            &dev,
            &s3,
            &Algorithm::Gamma {
                spec: spec(8, 6, 3, Variant::Standard),
                include_transpose: false,
            },
        );
        assert!(g16.gflops > g8.gflops, "{} vs {}", g16.gflops, g8.gflops);
    }

    #[test]
    fn gamma8_speed_levels_follow_phi() {
        // §6.1.2's three levels: (4,5)/(5,4) > (6,3)/(3,6) > (7,2)/(2,7).
        let dev = DeviceSpec::rtx4090();
        // One common ofms shape, OW = 84 divisible by n ∈ {4, 6, 7}.
        let gf = |n: usize, r: usize, v: Variant| {
            let s = ConvShape::from_ofms(64, 84, 84, 128, 128, r);
            estimate(
                &dev,
                &s,
                &Algorithm::Gamma {
                    spec: spec(8, n, r, v),
                    include_transpose: false,
                },
            )
            .gflops
        };
        let fast = gf(4, 5, Variant::Ruse);
        let mid = gf(6, 3, Variant::Standard);
        let slow = gf(7, 2, Variant::Standard);
        assert!(fast > mid && mid > slow, "{fast} {mid} {slow}");
    }

    #[test]
    fn boundary_fluctuation() {
        // OW % n ≠ 0 costs performance (§6.1.2).
        let dev = DeviceSpec::rtx3060ti();
        let algo = Algorithm::Gamma {
            spec: spec(8, 6, 3, Variant::Standard),
            include_transpose: false,
        };
        let clean = estimate(&dev, &ConvShape::from_ofms(128, 48, 48, 128, 128, 3), &algo);
        let ragged = estimate(&dev, &ConvShape::from_ofms(128, 48, 47, 128, 128, 3), &algo);
        assert!(clean.gflops > ragged.gflops, "{} vs {}", clean.gflops, ragged.gflops);
    }

    #[test]
    fn transpose_charge_lowers_gflops() {
        let dev = DeviceSpec::rtx3060ti();
        let s = ConvShape::from_ofms(32, 64, 64, 128, 128, 5);
        let with = estimate(
            &dev,
            &s,
            &Algorithm::Gamma {
                spec: spec(8, 4, 5, Variant::Standard),
                include_transpose: true,
            },
        );
        let without = estimate(
            &dev,
            &s,
            &Algorithm::Gamma {
                spec: spec(8, 4, 5, Variant::Standard),
                include_transpose: false,
            },
        );
        assert!(without.gflops > with.gflops);
    }

    #[test]
    fn the_4090_is_faster_than_the_3060ti() {
        let s = ConvShape::from_ofms(128, 64, 64, 128, 128, 3);
        let algo = Algorithm::Gamma {
            spec: spec(8, 6, 3, Variant::Standard),
            include_transpose: false,
        };
        let a = estimate(&DeviceSpec::rtx3060ti(), &s, &algo);
        let b = estimate(&DeviceSpec::rtx4090(), &s, &algo);
        assert!(b.gflops > 2.0 * a.gflops);
    }

    #[test]
    fn stage_shares_sum_to_one_and_outer_product_dominates() {
        // Deep-channel shape: the α FMAs per (tile, ic, oc) swamp the
        // per-channel transforms, as §5.3's amortisation argument requires.
        let s = ConvShape::from_ofms(8, 48, 48, 128, 128, 3);
        let sh = predicted_stage_shares(&s, &spec(8, 6, 3, Variant::Standard));
        let total: f64 = sh.as_pairs().iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        for (name, v) in sh.as_pairs() {
            assert!(v >= 0.0, "{name}: {v}");
            assert!(sh.outer_product >= v, "{name} {v} > outer_product {}", sh.outer_product);
        }
        assert_eq!(sh.gemm_remainder, 0.0, "OW = 48 divides n = 6: no GEMM boundary");
    }

    #[test]
    fn ragged_width_shows_up_as_gemm_share() {
        let clean = predicted_stage_shares(
            &ConvShape::from_ofms(8, 48, 48, 64, 64, 3),
            &spec(8, 6, 3, Variant::Standard),
        );
        let ragged = predicted_stage_shares(
            &ConvShape::from_ofms(8, 48, 47, 64, 64, 3),
            &spec(8, 6, 3, Variant::Standard),
        );
        assert_eq!(clean.gemm_remainder, 0.0);
        // OW = 47 = 7·6 + 5: the plan covers the tail with remainder kernels
        // and possibly GEMM; whatever lands in GEMM must cost more per
        // column than the Γ columns (no Φ saving).
        assert!(ragged.gemm_remainder >= 0.0);
        let sum: f64 = ragged.as_pairs().iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shallow_channels_inflate_transform_shares() {
        // ic = oc = 8 vs 128: transforms amortise over channels, so thin
        // shapes spend relatively more time transforming.
        let thin = predicted_stage_shares(
            &ConvShape::from_ofms(8, 48, 48, 8, 8, 3),
            &spec(8, 6, 3, Variant::Standard),
        );
        let deep = predicted_stage_shares(
            &ConvShape::from_ofms(8, 48, 48, 128, 128, 3),
            &spec(8, 6, 3, Variant::Standard),
        );
        assert!(thin.input_transform > deep.input_transform);
        assert!(thin.output_transform > deep.output_transform);
        assert!(thin.outer_product < deep.outer_product);
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(
            Algorithm::Gamma {
                spec: spec(8, 6, 3, Variant::Standard),
                include_transpose: true
            }
            .label(),
            "Im2col-Winograd-Γ8(6,3)"
        );
        assert_eq!(
            Algorithm::Gamma {
                spec: spec(16, 8, 9, Variant::C64),
                include_transpose: false
            }
            .label(),
            "Im2col-Winograd-Γ16^c64(8,9)*"
        );
        assert_eq!(Algorithm::FusedWinograd2d.label(), "cuDNN-Fused-Winograd");
    }
}
