//! Shape tables lifted from the paper's Figures 8/9 and Table 3.
//!
//! Ofms shapes are in the paper's `N×OH×OW×OC` format with `IC = OC`
//! (§6: "For all test cases, the input-channel size IC equals the
//! output-channel size OC"). Filters are `r×r` with `⌊r/2⌋` padding.

use iwino_core::{GammaSpec, Variant};
use iwino_tensor::ConvShape;

/// An ofms shape `N×OH×OW×OC`.
pub type Ofms = (usize, usize, usize, usize);

/// One figure panel: the Γ kernel it sweeps and the ten ofms shapes.
pub struct Panel {
    pub alpha: usize,
    pub n: usize,
    pub r: usize,
    /// Extra variants the figure plots for this panel.
    pub variants: &'static [Variant],
    /// Whether the panel includes the cuDNN Fused-Winograd series (r = 3).
    pub fused_winograd: bool,
    pub shapes: &'static [Ofms],
}

impl Panel {
    pub fn spec(&self, variant: Variant) -> GammaSpec {
        GammaSpec::new(self.alpha, self.n, self.r, variant)
    }

    pub fn conv_shape(&self, ofms: Ofms) -> ConvShape {
        let (n, oh, ow, oc) = ofms;
        ConvShape::from_ofms(n, oh, ow, oc, oc, self.r)
    }

    pub fn label(&self) -> String {
        format!("Γ{}({},{})", self.alpha, self.n, self.r)
    }
}

const STD: &[Variant] = &[Variant::Standard];
const STD_RUSE: &[Variant] = &[Variant::Standard, Variant::Ruse];
const STD_C64: &[Variant] = &[Variant::Standard, Variant::C64];
const STD_RUSE_C64: &[Variant] = &[Variant::Standard, Variant::Ruse, Variant::C64];

/// Figure 8 — RTX 3060 Ti, nine panels.
pub const FIG8: &[Panel] = &[
    Panel {
        alpha: 8,
        n: 4,
        r: 5,
        variants: STD_RUSE,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 66, 66, 128),
            (32, 64, 64, 128),
            (128, 48, 48, 128),
            (128, 34, 34, 128),
            (128, 32, 32, 128),
            (128, 18, 18, 256),
            (128, 16, 16, 256),
            (128, 10, 10, 512),
            (128, 8, 8, 512),
        ],
    },
    Panel {
        alpha: 8,
        n: 5,
        r: 4,
        variants: STD,
        fused_winograd: false,
        shapes: &[
            (32, 160, 160, 64),
            (32, 128, 128, 64),
            (128, 80, 80, 64),
            (128, 64, 64, 64),
            (128, 40, 40, 128),
            (128, 32, 32, 128),
            (128, 20, 20, 256),
            (128, 16, 16, 256),
            (128, 10, 10, 512),
            (128, 8, 8, 512),
        ],
    },
    Panel {
        alpha: 8,
        n: 3,
        r: 6,
        variants: STD_RUSE,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 96, 96, 64),
            (128, 64, 64, 64),
            (128, 48, 48, 64),
            (128, 32, 32, 128),
            (128, 24, 24, 128),
            (128, 16, 16, 256),
            (128, 12, 12, 256),
            (128, 8, 8, 512),
            (128, 6, 6, 512),
        ],
    },
    Panel {
        alpha: 8,
        n: 6,
        r: 3,
        variants: STD,
        fused_winograd: true,
        shapes: &[
            (64, 128, 128, 64),
            (128, 96, 96, 64),
            (256, 64, 64, 64),
            (128, 48, 48, 128),
            (256, 32, 32, 128),
            (128, 24, 24, 256),
            (256, 16, 16, 256),
            (128, 12, 12, 512),
            (256, 8, 8, 512),
            (128, 6, 6, 1024),
        ],
    },
    Panel {
        alpha: 8,
        n: 2,
        r: 7,
        variants: STD_RUSE,
        fused_winograd: false,
        shapes: &[
            (16, 128, 128, 64),
            (64, 66, 66, 64),
            (64, 64, 64, 64),
            (64, 40, 40, 128),
            (64, 34, 34, 128),
            (64, 32, 32, 128),
            (64, 18, 18, 256),
            (64, 16, 16, 256),
            (64, 10, 10, 512),
            (64, 8, 8, 512),
        ],
    },
    Panel {
        alpha: 8,
        n: 7,
        r: 2,
        variants: STD,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 128),
            (128, 112, 112, 64),
            (128, 64, 64, 128),
            (128, 56, 56, 128),
            (128, 32, 32, 256),
            (128, 28, 28, 256),
            (128, 16, 16, 512),
            (128, 14, 14, 512),
            (128, 8, 8, 1024),
            (128, 7, 7, 1024),
        ],
    },
    Panel {
        alpha: 16,
        n: 10,
        r: 7,
        variants: STD_C64,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 120, 120, 64),
            (64, 112, 112, 64),
            (64, 80, 80, 64),
            (128, 64, 64, 64),
            (64, 40, 40, 128),
            (128, 32, 32, 128),
            (64, 20, 20, 256),
            (128, 16, 16, 256),
            (64, 10, 10, 512),
        ],
    },
    Panel {
        alpha: 16,
        n: 9,
        r: 8,
        variants: STD_RUSE_C64,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 112, 112, 64),
            (64, 72, 72, 64),
            (128, 64, 64, 64),
            (128, 56, 56, 64),
            (128, 36, 36, 64),
            (128, 32, 32, 128),
            (128, 28, 28, 128),
            (64, 18, 18, 256),
            (64, 9, 9, 512),
        ],
    },
    Panel {
        alpha: 16,
        n: 8,
        r: 9,
        variants: STD_RUSE_C64,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 124, 124, 64),
            (32, 96, 96, 64),
            (128, 64, 64, 64),
            (128, 60, 60, 64),
            (128, 48, 48, 64),
            (128, 32, 32, 128),
            (128, 28, 28, 128),
            (128, 16, 16, 256),
            (128, 8, 8, 512),
        ],
    },
];

/// Figure 9 — RTX 4090, nine panels.
pub const FIG9: &[Panel] = &[
    Panel {
        alpha: 8,
        n: 4,
        r: 5,
        variants: STD_RUSE,
        fused_winograd: false,
        shapes: &[
            (128, 128, 128, 64),
            (128, 66, 66, 128),
            (128, 64, 64, 128),
            (128, 48, 48, 128),
            (128, 34, 34, 256),
            (128, 32, 32, 256),
            (128, 18, 18, 512),
            (128, 16, 16, 512),
            (128, 10, 10, 1024),
            (128, 8, 8, 1024),
        ],
    },
    Panel {
        alpha: 8,
        n: 5,
        r: 4,
        variants: STD,
        fused_winograd: false,
        shapes: &[
            (64, 160, 160, 64),
            (64, 128, 128, 64),
            (64, 80, 80, 128),
            (128, 64, 64, 128),
            (128, 40, 40, 256),
            (128, 32, 32, 256),
            (128, 20, 20, 512),
            (128, 16, 16, 512),
            (128, 10, 10, 1024),
            (128, 8, 8, 1024),
        ],
    },
    Panel {
        alpha: 8,
        n: 3,
        r: 6,
        variants: STD_RUSE,
        fused_winograd: false,
        shapes: &[
            (128, 128, 128, 64),
            (128, 96, 96, 64),
            (128, 64, 64, 128),
            (256, 48, 48, 128),
            (256, 32, 32, 128),
            (256, 24, 24, 256),
            (256, 16, 16, 256),
            (256, 12, 12, 256),
            (256, 8, 8, 512),
            (256, 6, 6, 512),
        ],
    },
    Panel {
        alpha: 8,
        n: 6,
        r: 3,
        variants: STD,
        fused_winograd: true,
        shapes: &[
            (128, 128, 128, 64),
            (128, 96, 96, 64),
            (128, 64, 64, 128),
            (128, 48, 48, 128),
            (128, 32, 32, 256),
            (128, 24, 24, 256),
            (128, 16, 16, 512),
            (128, 12, 12, 512),
            (128, 8, 8, 1024),
            (128, 6, 6, 1024),
        ],
    },
    Panel {
        alpha: 8,
        n: 2,
        r: 7,
        variants: STD_RUSE,
        fused_winograd: false,
        shapes: &[
            (64, 128, 128, 64),
            (64, 66, 66, 128),
            (64, 64, 64, 128),
            (128, 40, 40, 128),
            (128, 34, 34, 128),
            (128, 32, 32, 128),
            (128, 18, 18, 256),
            (128, 16, 16, 256),
            (128, 10, 10, 512),
            (128, 8, 8, 512),
        ],
    },
    Panel {
        alpha: 8,
        n: 7,
        r: 2,
        variants: STD,
        fused_winograd: false,
        shapes: &[
            (256, 128, 128, 64),
            (256, 112, 112, 64),
            (256, 64, 64, 128),
            (256, 56, 56, 128),
            (256, 32, 32, 256),
            (256, 28, 28, 256),
            (256, 16, 16, 512),
            (256, 14, 14, 512),
            (256, 8, 8, 1024),
            (256, 7, 7, 1024),
        ],
    },
    Panel {
        alpha: 16,
        n: 10,
        r: 7,
        variants: STD_C64,
        fused_winograd: false,
        shapes: &[
            (64, 128, 128, 64),
            (64, 120, 120, 64),
            (64, 112, 112, 64),
            (64, 80, 80, 128),
            (64, 64, 64, 128),
            (128, 40, 40, 128),
            (128, 32, 32, 256),
            (128, 20, 20, 256),
            (128, 16, 16, 512),
            (128, 10, 10, 512),
        ],
    },
    Panel {
        alpha: 16,
        n: 9,
        r: 8,
        variants: STD_RUSE_C64,
        fused_winograd: false,
        shapes: &[
            (64, 128, 128, 64),
            (64, 112, 112, 64),
            (64, 72, 72, 128),
            (64, 64, 64, 128),
            (64, 56, 56, 128),
            (128, 36, 36, 128),
            (128, 32, 32, 128),
            (128, 28, 28, 256),
            (256, 18, 18, 256),
            (256, 9, 9, 512),
        ],
    },
    Panel {
        alpha: 16,
        n: 8,
        r: 9,
        variants: STD_RUSE_C64,
        fused_winograd: false,
        shapes: &[
            (64, 128, 128, 64),
            (64, 124, 124, 64),
            (128, 96, 96, 64),
            (128, 64, 64, 128),
            (128, 60, 60, 128),
            (128, 48, 48, 128),
            (128, 32, 32, 256),
            (128, 28, 28, 256),
            (128, 16, 16, 512),
            (256, 8, 8, 512),
        ],
    },
];

/// Table 3 — accuracy sub-tables: `(Γ kernel, four ofms shapes)`. OW is a
/// multiple of `n` "to avoid the boundary treatment" (§6.2.1).
pub struct AccuracyTable {
    pub alpha: usize,
    pub n: usize,
    pub r: usize,
    /// Include the cuDNN-Fused-Winograd column (the Γ8(6,3) sub-table).
    pub fused_winograd: bool,
    pub shapes: &'static [Ofms],
}

pub const TABLE3: &[AccuracyTable] = &[
    AccuracyTable {
        alpha: 8,
        n: 7,
        r: 2,
        fused_winograd: false,
        shapes: &[
            (128, 112, 112, 64),
            (128, 56, 56, 128),
            (128, 28, 28, 256),
            (128, 14, 14, 512),
        ],
    },
    AccuracyTable {
        alpha: 8,
        n: 5,
        r: 4,
        fused_winograd: false,
        shapes: &[
            (128, 80, 80, 64),
            (128, 40, 40, 128),
            (128, 20, 20, 256),
            (128, 10, 10, 512),
        ],
    },
    AccuracyTable {
        alpha: 8,
        n: 6,
        r: 3,
        fused_winograd: true,
        shapes: &[
            (128, 96, 96, 64),
            (128, 48, 48, 128),
            (128, 24, 24, 256),
            (128, 12, 12, 512),
        ],
    },
    AccuracyTable {
        alpha: 8,
        n: 2,
        r: 7,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 64, 64, 128),
            (32, 32, 32, 256),
            (32, 16, 16, 512),
        ],
    },
    AccuracyTable {
        alpha: 8,
        n: 4,
        r: 5,
        fused_winograd: false,
        shapes: &[
            (64, 128, 128, 64),
            (64, 64, 64, 128),
            (64, 32, 32, 256),
            (64, 16, 16, 512),
        ],
    },
    AccuracyTable {
        alpha: 8,
        n: 3,
        r: 6,
        fused_winograd: false,
        shapes: &[
            (64, 96, 96, 64),
            (64, 48, 48, 128),
            (64, 24, 24, 256),
            (64, 12, 12, 512),
        ],
    },
    AccuracyTable {
        alpha: 16,
        n: 10,
        r: 7,
        fused_winograd: false,
        shapes: &[
            (64, 80, 80, 64),
            (64, 40, 40, 128),
            (64, 20, 20, 256),
            (64, 10, 10, 512),
        ],
    },
    AccuracyTable {
        alpha: 16,
        n: 9,
        r: 8,
        fused_winograd: false,
        shapes: &[
            (32, 144, 144, 64),
            (32, 72, 72, 128),
            (32, 36, 36, 256),
            (32, 18, 18, 512),
        ],
    },
    AccuracyTable {
        alpha: 16,
        n: 8,
        r: 9,
        fused_winograd: false,
        shapes: &[
            (32, 128, 128, 64),
            (32, 64, 64, 128),
            (32, 32, 32, 256),
            (32, 16, 16, 512),
        ],
    },
];

impl AccuracyTable {
    pub fn conv_shape(&self, ofms: Ofms) -> ConvShape {
        let (n, oh, ow, oc) = ofms;
        ConvShape::from_ofms(n, oh, ow, oc, oc, self.r)
    }

    pub fn spec(&self) -> GammaSpec {
        GammaSpec::new(self.alpha, self.n, self.r, Variant::Standard)
    }

    pub fn label(&self) -> String {
        format!("Γ{}({},{})", self.alpha, self.n, self.r)
    }
}

/// Scale an ofms batch size so the measured workload stays near
/// `target_gflop` (quick mode). Returns `(scaled N, scale factor)`.
pub fn scale_batch(ofms: Ofms, r: usize, target_gflop: f64) -> (usize, f64) {
    let (n, oh, ow, oc) = ofms;
    let shape = ConvShape::from_ofms(n, oh, ow, oc, oc, r);
    let gf = shape.flops() / 1e9;
    if gf <= target_gflop {
        return (n, 1.0);
    }
    // Floor at 4: below that, per-call costs that the paper's batch sizes
    // amortise (the filter-transform pass at large IC·OC) dominate the
    // measurement and misrepresent the kernels.
    let scaled = (((n as f64) * target_gflop / gf).ceil().max(1.0) as usize)
        .clamp(1, n)
        .max(4.min(n));
    (scaled, scaled as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_panels_each() {
        assert_eq!(FIG8.len(), 9);
        assert_eq!(FIG9.len(), 9);
        assert_eq!(TABLE3.len(), 9);
        for p in FIG8.iter().chain(FIG9) {
            assert_eq!(p.shapes.len(), 10, "{}", p.label());
            assert_eq!(p.alpha, p.n + p.r - 1);
        }
    }

    #[test]
    fn table3_widths_are_tile_multiples() {
        // §6.2.1: "The widths of ofms are multiples of n to avoid the
        // boundary treatment."
        for t in TABLE3 {
            for &(_, _, ow, _) in t.shapes {
                assert_eq!(ow % t.n, 0, "{} ow {}", t.label(), ow);
            }
        }
    }

    #[test]
    fn conv_shapes_roundtrip_ofms() {
        for p in FIG8 {
            for &ofms in p.shapes {
                let s = p.conv_shape(ofms);
                assert_eq!((s.n, s.oh(), s.ow(), s.oc), ofms, "{}", p.label());
                assert_eq!(s.ic, s.oc);
            }
        }
    }

    #[test]
    fn scale_batch_bounds_work() {
        let ((n, _), r) = ((128usize, 112usize), 2usize);
        let _ = (n, r);
        let (scaled, factor) = scale_batch((128, 112, 112, 64), 2, 2.0);
        assert!((4..=128).contains(&scaled));
        assert!(factor <= 1.0);
        let (unscaled, f1) = scale_batch((1, 8, 8, 16), 3, 2.0);
        assert_eq!(unscaled, 1);
        assert_eq!(f1, 1.0);
    }
}
