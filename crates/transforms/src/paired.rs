//! The §5.3 "simplified data transformation".
//!
//! For the paper's interpolation-point ordering, the rows of `G` and `Dᵀ`
//! associated with points `+p` and `−p` are adjacent and satisfy: equal
//! entries at even column positions, opposite entries at odd positions
//! (powers of `−p` flip sign exactly at odd exponents, and the Lagrange
//! numerator polynomials over a symmetric point set inherit the same
//! even/odd structure). Both rows can therefore be produced from one even
//! partial sum `e` and one odd partial sum `o` as `e + o` / `e − o`,
//! reusing every multiplication — "reducing the number of necessary
//! multiplications by nearly half" (§5.3).
//!
//! [`PairedTransform`] detects the pairing from an arbitrary rational
//! matrix, provides f32/f64 executors, and reports the multiplication count
//! used by the `ablation-transforms` experiment.

use crate::Matrix;
use iwino_simd as simd;

/// Upper bound on the transform dimension `α` the strided executor's stack
/// coefficient buffer holds. Every kernel in this repo has `α ≤ 16`; the
/// headroom keeps the bound out of the way of experiments.
const MAX_COLS: usize = 64;

/// Channel-chunk width of the strided executor: the dispatched
/// `transform_step`'s widest block, 8 lanes. The microkernel's accumulators
/// are chunk-sized stack arrays, so the per-coefficient loop overhead
/// (zero-skip branch, slice bounds) amortises over a long vectorised inner
/// loop — at lane-sized chunks that overhead is paid once per 256-bit op
/// and dominates the transform.
const CHUNK: usize = simd::TRANSFORM_CHUNK;

/// One step of a paired transform plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanStep {
    /// Rows `row` and `row + 1` are produced together from shared partial sums.
    Pair { row: usize },
    /// Row `row` is produced by a plain dot product.
    Single { row: usize },
}

/// A transform matrix together with its even/odd row-pairing plan.
#[derive(Clone, Debug)]
pub struct PairedTransform {
    rows: usize,
    cols: usize,
    /// Row-major f64 copy of the source matrix (exact for all paper entries).
    data: Vec<f64>,
    plan: Vec<PlanStep>,
}

impl PairedTransform {
    /// Detect adjacent row pairs with the even/odd mirror structure.
    pub fn from_matrix(m: &Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut plan = Vec::new();
        let mut i = 0;
        while i < rows {
            if i + 1 < rows && Self::is_mirror_pair(m, i) {
                plan.push(PlanStep::Pair { row: i });
                i += 2;
            } else {
                plan.push(PlanStep::Single { row: i });
                i += 1;
            }
        }
        PairedTransform {
            rows,
            cols,
            data: m.to_f64(),
            plan,
        }
    }

    fn is_mirror_pair(m: &Matrix, i: usize) -> bool {
        (0..m.cols()).all(|j| {
            let a = m[(i, j)];
            let b = m[(i + 1, j)];
            if j % 2 == 0 {
                a == b
            } else {
                a == -b
            }
        })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn plan(&self) -> &[PlanStep] {
        &self.plan
    }

    /// Number of row pairs found.
    pub fn pair_count(&self) -> usize {
        self.plan.iter().filter(|s| matches!(s, PlanStep::Pair { .. })).count()
    }

    #[inline]
    fn coeff(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Multiplications performed per transformed vector when using the plan:
    /// paired rows pay for their non-trivial coefficients once.
    pub fn mul_count(&self) -> usize {
        let is_trivial = |c: f64| c == 0.0 || c == 1.0 || c == -1.0;
        self.plan
            .iter()
            .map(|step| match *step {
                PlanStep::Pair { row } => (0..self.cols).filter(|&j| !is_trivial(self.coeff(row, j))).count(),
                PlanStep::Single { row } => (0..self.cols).filter(|&j| !is_trivial(self.coeff(row, j))).count(),
            })
            .sum()
    }

    /// Apply the transform to a single f32 vector: `out = M · x`.
    pub fn apply_f32(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        for step in &self.plan {
            match *step {
                PlanStep::Pair { row } => {
                    let mut even = 0.0f32;
                    let mut odd = 0.0f32;
                    for (j, &xj) in x.iter().enumerate() {
                        let term = self.coeff(row, j) as f32 * xj;
                        if j % 2 == 0 {
                            even += term;
                        } else {
                            odd += term;
                        }
                    }
                    out[row] = even + odd;
                    out[row + 1] = even - odd;
                }
                PlanStep::Single { row } => {
                    let mut acc = 0.0f32;
                    for (j, &xj) in x.iter().enumerate() {
                        acc += self.coeff(row, j) as f32 * xj;
                    }
                    out[row] = acc;
                }
            }
        }
    }

    /// Apply the transform to `width` interleaved vectors at once:
    /// `x[j*stride + c]` holds component `j` of lane `c`, `c < width`.
    ///
    /// This is the NHWC-friendly layout: the lanes are contiguous channels,
    /// so the inner loops vectorise along the channel axis, exactly the
    /// access-continuity argument of §3/§4.2. Channels are swept in
    /// `CHUNK`-wide blocks (8 SIMD lanes) held in stack accumulators — no
    /// heap traffic on this hot path — with one remainder block for
    /// `width % CHUNK`; each block runs on the runtime-dispatched
    /// `iwino_simd` `transform_step` microkernel (AVX2/NEON/scalar, all
    /// bit-for-bit identical), in which the coefficient loop is outermost
    /// so its zero-skip branch amortises over a long vectorised inner loop.
    /// Per output element the summation order is identical to the scalar
    /// executor: even/odd partial sums in column order, then `e + o` /
    /// `e − o`.
    pub fn apply_f32_strided(&self, x: &[f32], x_stride: usize, out: &mut [f32], out_stride: usize, width: usize) {
        assert!(x_stride >= width && out_stride >= width);
        assert!(x.len() >= (self.cols - 1) * x_stride + width);
        assert!(out.len() >= (self.rows - 1) * out_stride + width);
        assert!(
            self.cols <= MAX_COLS,
            "transform dimension {} exceeds the lane executor's coefficient buffer ({MAX_COLS}); \
             every Γα(n,r) kernel has α ≤ 16",
            self.cols
        );
        // One dispatch lookup per call; the per-chunk work below runs on
        // the selected microkernel.
        let step_fn = simd::kernels().transform_step;
        let mut mbuf = [0.0f32; MAX_COLS];
        for c0 in (0..width).step_by(CHUNK) {
            let w = CHUNK.min(width - c0);
            for step in &self.plan {
                let row = match *step {
                    PlanStep::Pair { row } | PlanStep::Single { row } => row,
                };
                for (j, m) in mbuf[..self.cols].iter_mut().enumerate() {
                    *m = self.coeff(row, j) as f32;
                }
                let paired = matches!(*step, PlanStep::Pair { .. });
                step_fn(&mbuf[..self.cols], paired, x, x_stride, out, out_stride, row, c0, w);
            }
        }
    }

    /// f64 single-vector application (reference kernels).
    pub fn apply_f64(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        for step in &self.plan {
            match *step {
                PlanStep::Pair { row } => {
                    let mut even = 0.0f64;
                    let mut odd = 0.0f64;
                    for (j, &xj) in x.iter().enumerate() {
                        let term = self.coeff(row, j) * xj;
                        if j % 2 == 0 {
                            even += term;
                        } else {
                            odd += term;
                        }
                    }
                    out[row] = even + odd;
                    out[row + 1] = even - odd;
                }
                PlanStep::Single { row } => {
                    out[row] = (0..self.cols).map(|j| self.coeff(row, j) * x[j]).sum();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WinogradTransform;

    #[test]
    fn detects_pairs_in_dt8() {
        // F(6,3): α = 8, points 0, ±1, ±2, ±1/2, ∞ ⟹ pairs at rows (1,2), (3,4), (5,6).
        let t = WinogradTransform::generate(6, 3);
        let p = t.dt_paired();
        assert_eq!(
            p.plan(),
            &[
                PlanStep::Single { row: 0 },
                PlanStep::Pair { row: 1 },
                PlanStep::Pair { row: 3 },
                PlanStep::Pair { row: 5 },
                PlanStep::Single { row: 7 },
            ]
        );
        assert_eq!(p.pair_count(), 3);
    }

    #[test]
    fn paired_apply_matches_dense() {
        for (n, r) in [(2usize, 3usize), (6, 3), (4, 5), (2, 7), (8, 9), (10, 7)] {
            let t = WinogradTransform::generate(n, r);
            let dt = t.dt_paired();
            let dense = t.dt.to_f64();
            let alpha = t.alpha;
            let x: Vec<f64> = (0..alpha).map(|i| (i as f64 * 0.37 - 1.1).sin()).collect();
            let mut got = vec![0.0f64; alpha];
            dt.apply_f64(&x, &mut got);
            for i in 0..alpha {
                let want: f64 = (0..alpha).map(|j| dense[i * alpha + j] * x[j]).sum();
                assert!(
                    (got[i] - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "F({n},{r}) row {i}: {} vs {}",
                    got[i],
                    want
                );
            }
        }
    }

    #[test]
    fn strided_apply_matches_per_lane() {
        let t = WinogradTransform::generate(6, 3);
        let dt = t.dt_paired();
        let alpha = t.alpha;
        let width = 5;
        let stride = 7;
        let x: Vec<f32> = (0..alpha * stride).map(|i| (i as f32 * 0.13).cos()).collect();
        let mut out = vec![0.0f32; alpha * stride];
        dt.apply_f32_strided(&x, stride, &mut out, stride, width);
        for c in 0..width {
            let lane: Vec<f32> = (0..alpha).map(|j| x[j * stride + c]).collect();
            let mut want = vec![0.0f32; alpha];
            dt.apply_f32(&lane, &mut want);
            for i in 0..alpha {
                assert!((out[i * stride + c] - want[i]).abs() <= 1e-5, "lane {c} row {i}");
            }
        }
    }

    #[test]
    fn mul_count_nearly_halved() {
        // §5.3: pairing should cut the multiply count roughly in half for the
        // big transforms.
        for (n, r) in [(6usize, 3usize), (8, 9), (10, 7)] {
            let t = WinogradTransform::generate(n, r);
            let dense = t.dt.mul_count();
            let paired = t.dt_paired().mul_count();
            assert!(
                (paired as f64) <= 0.62 * dense as f64,
                "F({n},{r}): paired {paired} vs dense {dense}"
            );
        }
    }
}
