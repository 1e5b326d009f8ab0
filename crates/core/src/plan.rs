//! Boundary treatment (§5.5, Figure 7).
//!
//! Each `Γα(n, r)` output tile covers `n` items along the width axis; when
//! `OW % n ≠ 0` the tiles cannot exactly cover the ofms. Instead of
//! conditional stores (extra registers, redundant computation — see the
//! `Γ8(6,3)`, `OW = 7` example in §5.5 where 5/6 of the second tile would be
//! wasted), the ofms are divided into non-overlapping segments along `OW`:
//! the fastest kernel takes the largest prefix it divides exactly, smaller
//! kernels take the largest parts of the remainder they divide, and a
//! GEMM-style direct convolution takes whatever is left. "There is no
//! overlap between segments, and the variety of kernels is minimized."

use crate::kernel::Variant;
use iwino_simd::LANE;
use std::fmt;

/// Channel-panel size `BK`: channels gathered/transformed per inner kernel
/// block. The paper's `BK = 8` is sized for SMEM ports; on CPU a panel of
/// four `iwino_simd::LANE`s fills cache lines while staying small enough
/// that the `α×BK` transformed tile lives in L1. A whole number of lanes —
/// the microkernels split `BK` into exact lanes and only the *final*
/// partial panel (`IC % BK`) may engage the remainder lane.
pub const BK: usize = 4 * LANE;

/// A `Γα(n, r)` kernel selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GammaSpec {
    pub alpha: usize,
    pub n: usize,
    pub r: usize,
    pub variant: Variant,
}

impl GammaSpec {
    pub fn new(alpha: usize, n: usize, r: usize, variant: Variant) -> Self {
        assert_eq!(alpha, n + r - 1, "Γα(n,r) requires α = n + r − 1");
        assert!(n >= 2, "Γα(n,r) output tiles shorter than 2 are GEMM's job");
        assert!(r >= 2);
        GammaSpec { alpha, n, r, variant }
    }

    /// Theoretical multiplication reduction `Φ = n·r/α` — the planner's
    /// speed-priority key (§6.1.2).
    pub fn phi(&self) -> f64 {
        (self.n * self.r) as f64 / self.alpha as f64
    }

    /// State count per output tile — `α` for Im2col-Winograd, vs `α²` for
    /// the 2-D Winograd it replaces (§4.2's space-complexity argument).
    pub fn states(&self) -> usize {
        self.alpha
    }

    /// Items loaded per output for an `r×r` filter processed as `FH = r`
    /// 1-D convolutions: `(r·α + r²)/n`. §4.2 compares `Γ8(6,3)`'s `33/6`
    /// against `F(2×2, 3×3)`'s `25/4`.
    pub fn loads_per_output_2d(&self) -> f64 {
        (self.r * self.alpha + self.r * self.r) as f64 / self.n as f64
    }
}

/// Items loaded per output of a 2-D Winograd `F(m×m, r×r)`:
/// `((m+r−1)² + r²)/m²` — `25/4` for the classic `F(2×2, 3×3)` (§4.2).
pub fn winograd2d_loads_per_output(m: usize, r: usize) -> f64 {
    let a = m + r - 1;
    ((a * a + r * r) as f64) / ((m * m) as f64)
}

impl fmt::Display for GammaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let suffix = match self.variant {
            Variant::Standard => "",
            Variant::Ruse => "^ruse",
            Variant::C64 => "^c64",
        };
        write!(f, "Γ{}{}({},{})", self.alpha, suffix, self.n, self.r)
    }
}

/// What covers one segment of the output width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    Gamma(GammaSpec),
    /// GEMM-style direct convolution (the final remainder).
    Gemm,
}

/// A half-open range `[start, start + len)` of output columns and the kernel
/// that computes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    pub start: usize,
    pub len: usize,
    pub kernel: KernelChoice,
}

/// The per-shape execution plan along the width axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPlan {
    pub ow: usize,
    pub segments: Vec<Segment>,
}

impl SegmentPlan {
    /// Greedy planner: walk `prefs` in priority order; each kernel takes the
    /// largest prefix of the remaining width divisible by its tile size `n`;
    /// GEMM takes the rest. Kernels that would cover zero columns are
    /// skipped ("the variety of kernels is minimized").
    pub fn build(ow: usize, prefs: &[GammaSpec]) -> Self {
        let mut segments = Vec::new();
        let mut start = 0usize;
        let mut remaining = ow;
        for &spec in prefs {
            if remaining == 0 {
                break;
            }
            let cover = remaining - remaining % spec.n;
            if cover == 0 {
                continue;
            }
            segments.push(Segment {
                start,
                len: cover,
                kernel: KernelChoice::Gamma(spec),
            });
            start += cover;
            remaining -= cover;
        }
        if remaining > 0 {
            segments.push(Segment {
                start,
                len: remaining,
                kernel: KernelChoice::Gemm,
            });
        }
        if iwino_obs::enabled() {
            use iwino_obs::Counter;
            let gemm = segments.iter().filter(|s| s.kernel == KernelChoice::Gemm).count();
            iwino_obs::add(Counter::PlanCalls, 1);
            iwino_obs::add(Counter::PlanGammaSegments, (segments.len() - gemm) as u64);
            iwino_obs::add(Counter::PlanGemmSegments, gemm as u64);
        }
        SegmentPlan { ow, segments }
    }

    /// Every distinct Γ spec used by this plan.
    pub fn gamma_specs(&self) -> Vec<GammaSpec> {
        let mut out: Vec<GammaSpec> = Vec::new();
        for seg in &self.segments {
            if let KernelChoice::Gamma(g) = seg.kernel {
                if !out.contains(&g) {
                    out.push(g);
                }
            }
        }
        out
    }

    /// Fraction of output columns covered by Winograd kernels (vs GEMM).
    pub fn winograd_coverage(&self) -> f64 {
        if self.ow == 0 {
            return 1.0;
        }
        let wino: usize = self
            .segments
            .iter()
            .filter(|s| matches!(s.kernel, KernelChoice::Gamma(_)))
            .map(|s| s.len)
            .sum();
        wino as f64 / self.ow as f64
    }
}

/// The §5.4 rule: the data-reuse variant wins when `(r − 1)/α ≥ 0.4375`
/// ("the benefits surpass the drawbacks when (r−1)/α ≥ 0.4375. Concretely,
/// Γ8^ruse(4,5), Γ8^ruse(3,6), Γ8^ruse(2,7), Γ16^ruse(9,8), Γ16^ruse(8,9)").
pub fn ruse_wins(alpha: usize, r: usize) -> bool {
    (r as f64 - 1.0) / alpha as f64 >= 0.4375
}

/// Default kernel preference order for filter width `r`, mirroring the
/// paper's Figure 7 example (`FW = 3`: `Γ8(6,3)`, `Γ4^ruse(2,3)`, `Γ4(2,3)`,
/// GEMM) and its variant-selection rules:
///
/// * primary kernel: the largest supported α whose tile size `n = α+1−r` is
///   at least 2 — α = 16 for r ∈ {8, 9} (and optionally 7), α = 8 for
///   r ∈ {2..7}; `ruse` when `(r−1)/α ≥ 0.4375`, `c64` for the big-α kernels
///   when channels allow (selected at run time, see `ConvOptions`);
/// * remainder kernels: successively smaller α (with `ruse` preferred, as in
///   Figure 7), so the leftover width is still mostly Winograd-covered;
/// * GEMM for the final `< n_min` columns (implicit — the planner appends it).
///
/// A 1-wide filter has no Winograd transform (`Γα(n, 1)` multiplies nothing
/// away), so `r < 2` gets no Γ kernel and plans as one GEMM segment, like
/// `r ≥ 16`.
pub fn default_kernel_prefs(r: usize, prefer_alpha16: bool) -> Vec<GammaSpec> {
    let mut prefs = Vec::new();
    let mut push_alpha = |alpha: usize| {
        if (2..alpha).contains(&r) {
            let n = alpha + 1 - r;
            if n >= 2 {
                let variant = if ruse_wins(alpha, r) {
                    Variant::Ruse
                } else {
                    Variant::Standard
                };
                prefs.push(GammaSpec::new(alpha, n, r, variant));
            }
        }
    };
    if prefer_alpha16 || r >= 8 {
        push_alpha(16);
    }
    push_alpha(8);
    push_alpha(4);
    prefs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(alpha: usize, n: usize, r: usize) -> GammaSpec {
        GammaSpec::new(alpha, n, r, Variant::Standard)
    }

    #[test]
    fn figure7_example_fw3() {
        // FW = 3: Γ8(6,3) then Γ4(2,3) then GEMM; OW = 23 ⟹ 18 + 4 + 1.
        let prefs = [spec(8, 6, 3), spec(4, 2, 3)];
        let plan = SegmentPlan::build(23, &prefs);
        assert_eq!(
            plan.segments,
            vec![
                Segment {
                    start: 0,
                    len: 18,
                    kernel: KernelChoice::Gamma(prefs[0])
                },
                Segment {
                    start: 18,
                    len: 4,
                    kernel: KernelChoice::Gamma(prefs[1])
                },
                Segment {
                    start: 22,
                    len: 1,
                    kernel: KernelChoice::Gemm
                },
            ]
        );
    }

    #[test]
    fn exact_cover_uses_one_kernel() {
        let prefs = [spec(8, 6, 3), spec(4, 2, 3)];
        let plan = SegmentPlan::build(24, &prefs);
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].len, 24);
        assert_eq!(plan.winograd_coverage(), 1.0);
    }

    #[test]
    fn paper_example_ow7_n6() {
        // §5.5: Γ8(6,3) with OW = 7 would waste 5/6 of a second tile; the
        // planner instead gives 6 columns to Γ8(6,3) and 1 to GEMM
        // (no Γ4 here to show the GEMM fallback).
        let plan = SegmentPlan::build(7, &[spec(8, 6, 3)]);
        assert_eq!(plan.segments.len(), 2);
        assert_eq!(
            plan.segments[1],
            Segment {
                start: 6,
                len: 1,
                kernel: KernelChoice::Gemm
            }
        );
        assert!((plan.winograd_coverage() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_width_plan_is_empty() {
        let plan = SegmentPlan::build(0, &[spec(8, 6, 3)]);
        assert!(plan.segments.is_empty());
    }

    #[test]
    fn tiny_width_goes_straight_to_gemm() {
        let plan = SegmentPlan::build(1, &[spec(8, 6, 3), spec(4, 2, 3)]);
        assert_eq!(
            plan.segments,
            vec![Segment {
                start: 0,
                len: 1,
                kernel: KernelChoice::Gemm
            }]
        );
    }

    #[test]
    fn width_smaller_than_every_preferred_tile() {
        // ow = 3 < n for both Γ8(6,3) (n = 6) and Γ16(9,8)-style prefs with
        // n = 4: every kernel covers zero columns, GEMM takes the whole row.
        let prefs = [spec(8, 6, 3), spec(8, 4, 5)];
        let plan = SegmentPlan::build(3, &prefs);
        assert_eq!(
            plan.segments,
            vec![Segment {
                start: 0,
                len: 3,
                kernel: KernelChoice::Gemm
            }]
        );
        assert_eq!(plan.winograd_coverage(), 0.0);
        assert!(plan.gamma_specs().is_empty());
    }

    #[test]
    fn zero_width_plan_is_empty_with_many_prefs() {
        let prefs = [spec(16, 8, 9), spec(8, 6, 3), spec(4, 2, 3)];
        let plan = SegmentPlan::build(0, &prefs);
        assert!(plan.segments.is_empty());
        assert_eq!(plan.ow, 0);
        // Vacuously fully covered: nothing falls to GEMM.
        assert_eq!(plan.winograd_coverage(), 1.0);
    }

    #[test]
    fn ruse_filter_rejecting_all_variants_still_covers_the_row() {
        // A caller that keeps only ruse-winning variants ends up with an
        // empty prefs list for r = 2 (no (α, 2) pair satisfies §5.4's
        // (r−1)/α ≥ 0.4375). The planner must still cover the row via GEMM.
        let r = 2usize;
        let candidates = [spec(16, 15, 2), spec(8, 7, 2), spec(4, 3, 2)];
        let prefs: Vec<GammaSpec> = candidates
            .into_iter()
            .filter(|g| ruse_wins(g.alpha, r))
            .map(|g| GammaSpec {
                variant: Variant::Ruse,
                ..g
            })
            .collect();
        assert!(prefs.is_empty(), "no ruse winner exists for r = 2");
        for ow in [1usize, 5, 64, 223] {
            let plan = SegmentPlan::build(ow, &prefs);
            assert_eq!(
                plan.segments,
                vec![Segment {
                    start: 0,
                    len: ow,
                    kernel: KernelChoice::Gemm
                }],
                "ow = {ow}"
            );
        }
    }

    #[test]
    fn ruse_rule_matches_paper_list() {
        // §5.4's winners:
        assert!(ruse_wins(8, 5)); // Γ8^ruse(4,5)
        assert!(ruse_wins(8, 6)); // Γ8^ruse(3,6)
        assert!(ruse_wins(8, 7)); // Γ8^ruse(2,7)
        assert!(ruse_wins(16, 8)); // Γ16^ruse(9,8)
        assert!(ruse_wins(16, 9)); // Γ16^ruse(8,9)
                                   // And the non-winners:
        assert!(!ruse_wins(8, 2));
        assert!(!ruse_wins(8, 3)); // Γ8(6,3) stays standard
        assert!(!ruse_wins(8, 4));
        assert!(!ruse_wins(16, 7)); // Γ16(10,7) gets c64, not ruse
        assert!(!ruse_wins(4, 2));
        // (3−1)/4 = 0.5 ≥ 0.4375: Figure 7 indeed prioritises Γ4^ruse(2,3).
        assert!(ruse_wins(4, 3));
    }

    #[test]
    fn default_prefs_shapes() {
        // r = 3: α = 8 primary (n = 6), α = 4 fallback (n = 2).
        let p = default_kernel_prefs(3, false);
        assert_eq!(p[0].alpha, 8);
        assert_eq!(p[0].n, 6);
        assert_eq!(p[0].variant, Variant::Standard);
        assert!(p.iter().any(|s| s.alpha == 4 && s.n == 2));
        // r = 9: only α = 16 works (n = 8), then GEMM.
        let p = default_kernel_prefs(9, false);
        assert_eq!(p.len(), 1);
        assert_eq!((p[0].alpha, p[0].n), (16, 8));
        assert_eq!(p[0].variant, Variant::Ruse);
        // r = 7 with α16 preferred: Γ16(10,7) first, then Γ8^ruse(2,7).
        let p = default_kernel_prefs(7, true);
        assert_eq!((p[0].alpha, p[0].n, p[0].variant), (16, 10, Variant::Standard));
        assert_eq!((p[1].alpha, p[1].n, p[1].variant), (8, 2, Variant::Ruse));
        // r = 5: Γ8^ruse(4,5) primary.
        let p = default_kernel_prefs(5, false);
        assert_eq!((p[0].alpha, p[0].n, p[0].variant), (8, 4, Variant::Ruse));
    }

    #[test]
    fn section_4_2_space_comparison() {
        // "F(2×2,3×3) uses 4²/2 states and loads 25/4 items per output,
        //  while Γ8(6,3) only uses 8 states and loads 33/6 items per output."
        let g = spec(8, 6, 3);
        assert_eq!(g.states(), 8);
        assert!((g.loads_per_output_2d() - 33.0 / 6.0).abs() < 1e-12);
        assert!((winograd2d_loads_per_output(2, 3) - 25.0 / 4.0).abs() < 1e-12);
        // Same multiplication reduction (both 1/2.25), lighter state count.
        assert_eq!(g.phi(), 2.25);
        assert!(g.loads_per_output_2d() < winograd2d_loads_per_output(2, 3));
        assert!(g.states() < 4 * 4);
    }

    #[test]
    fn lane_width_invariant() {
        // The planner's channel panel is a whole number of microkernel
        // lanes (the dispatch table's widest vector is one LANE of f32).
        assert_eq!(BK % LANE, 0);
        assert!(iwino_simd::kernels().lane_width <= LANE);
    }

    #[test]
    fn phi_priority_values() {
        assert_eq!(spec(8, 4, 5).phi(), 2.5);
        assert_eq!(spec(8, 6, 3).phi(), 2.25);
        assert_eq!(spec(16, 8, 9).phi(), 4.5);
    }

    #[test]
    #[should_panic]
    fn rejects_inconsistent_alpha() {
        let _ = GammaSpec::new(8, 5, 5, Variant::Standard);
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_tiles() {
        let _ = GammaSpec::new(8, 1, 8, Variant::Standard);
    }

    proptest! {
        #[test]
        fn plan_exactly_tiles_the_width(ow in 0usize..300, r in 2usize..10) {
            let prefs = default_kernel_prefs(r, r >= 7);
            let plan = SegmentPlan::build(ow, &prefs);
            // Exact cover, in order, no overlap.
            let mut cursor = 0usize;
            for seg in &plan.segments {
                prop_assert_eq!(seg.start, cursor);
                prop_assert!(seg.len > 0);
                if let KernelChoice::Gamma(g) = seg.kernel {
                    prop_assert_eq!(seg.len % g.n, 0, "segment must be tile-divisible");
                }
                cursor += seg.len;
            }
            prop_assert_eq!(cursor, ow);
            // At most one GEMM segment, and only at the end.
            let gemm_count = plan.segments.iter().filter(|s| s.kernel == KernelChoice::Gemm).count();
            prop_assert!(gemm_count <= 1);
            if gemm_count == 1 {
                prop_assert_eq!(plan.segments.last().unwrap().kernel, KernelChoice::Gemm);
                // GEMM remainder is shorter than the smallest Γ tile.
                let min_n = prefs.iter().map(|p| p.n).min().unwrap_or(usize::MAX);
                prop_assert!(plan.segments.last().unwrap().len < min_n);
            }
        }
    }
}
