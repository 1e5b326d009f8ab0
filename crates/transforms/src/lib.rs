//! Winograd minimal-filtering transform matrices for `F(n, r)`.
//!
//! The 1D Winograd algorithm computes the `n` outputs of a correlation of an
//! `α = n + r − 1` long input `d` with an `r`-tap filter `g` as
//!
//! ```text
//! y = Aᵀ [ (G·g) ⊙ (Dᵀ·d) ]
//! ```
//!
//! using only `α` element-wise multiplications instead of `n·r`. This crate
//! generates `Aᵀ`, `G` and `Dᵀ` **exactly** (rational arithmetic) using the
//! Cook–Toom construction at the interpolation points the paper lists in
//! §5.3: `{0, 1, −1, 2, −2, ½, −½, 3, −3, ⅓, −⅓, 4, −4, ¼, −¼}` plus the
//! point at infinity, with the paper's normalisation convention (the filter
//! transform `G` absorbs the Lagrange denominators; the first rows of `G`
//! and `Dᵀ` are sign-fixed to be positive).
//!
//! It also implements the §5.3 "simplified data transformations": rows of
//! the transform matrices for points `+p` / `−p` agree at even columns and
//! differ only in sign at odd columns, so both rows can be produced from one
//! set of multiplications. [`PairedTransform`] precomputes that pairing and
//! nearly halves the multiplication count (see
//! [`PairedTransform::mul_count`] vs [`Matrix::mul_count`]).

#![forbid(unsafe_code)]

pub mod matrix;
pub mod opcount;
pub mod paired;

pub use matrix::Matrix;
pub use opcount::{effective_phi, gamma_op_count, standard_op_count, OpCount};
pub use paired::PairedTransform;

use iwino_rational::{Poly, Rational};

/// Maximum supported state count. `α ≤ 16` per the paper (SMEM constraint:
/// `4α(32+32)·8 ≤ 49152` ⟹ `α ≤ 24`, powers of two preferred ⟹ 4/8/16).
pub const MAX_ALPHA: usize = 16;

/// The paper's interpolation points, in order. The first `α − 1` of these are
/// used for `F(n, r)` with `α = n + r − 1`; the `α`-th point is ∞.
pub fn interpolation_points(count: usize) -> Vec<Rational> {
    const SEQ: [(i128, i128); 15] = [
        (0, 1),
        (1, 1),
        (-1, 1),
        (2, 1),
        (-2, 1),
        (1, 2),
        (-1, 2),
        (3, 1),
        (-3, 1),
        (1, 3),
        (-1, 3),
        (4, 1),
        (-4, 1),
        (1, 4),
        (-1, 4),
    ];
    assert!(
        count <= SEQ.len(),
        "at most {} finite interpolation points are defined (requested {count})",
        SEQ.len()
    );
    SEQ[..count].iter().map(|&(n, d)| Rational::new(n, d)).collect()
}

/// The complete transform set for a 1D Winograd algorithm `F(n, r)`.
///
/// Shapes: `at` is `n × α`, `g` is `α × r`, `dt` is `α × α`.
#[derive(Clone, Debug)]
pub struct WinogradTransform {
    /// Number of outputs produced per tile.
    pub n: usize,
    /// Filter width.
    pub r: usize,
    /// State count `α = n + r − 1`.
    pub alpha: usize,
    /// Output transform, `n × α`.
    pub at: Matrix,
    /// Filter transform, `α × r`.
    pub g: Matrix,
    /// Input transform, `α × α`.
    pub dt: Matrix,
}

impl WinogradTransform {
    /// Generate the transforms for `F(n, r)`.
    ///
    /// # Panics
    /// If `n < 1`, `r < 2`, or `n + r − 1 > MAX_ALPHA`.
    pub fn generate(n: usize, r: usize) -> Self {
        assert!(n >= 1, "F(n,r) needs n >= 1");
        assert!(r >= 2, "F(n,r) needs r >= 2 (r = 1 is a pointwise product)");
        let alpha = n + r - 1;
        assert!(
            alpha <= MAX_ALPHA,
            "alpha = n + r - 1 = {alpha} exceeds MAX_ALPHA = {MAX_ALPHA}"
        );
        let points = interpolation_points(alpha - 1);

        // m(x) = Π (x − p_k) over the finite points; ℓ_k numerator = m/(x−p_k).
        let m = Poly::from_roots(&points);

        // N_k = Π_{j≠k} (p_k − p_j): the Lagrange denominator for point k.
        let denoms: Vec<Rational> = (0..points.len())
            .map(|k| {
                points
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != k)
                    .fold(Rational::ONE, |acc, (_, &pj)| acc * (points[k] - pj))
            })
            .collect();

        // --- G (α × r): row k = [1, p, …, p^{r−1}] / N_k; ∞ row = e_{r−1}. ---
        let mut g = Matrix::zeros(alpha, r);
        for (k, &p) in points.iter().enumerate() {
            let inv = denoms[k].recip();
            let mut pw = Rational::ONE;
            for j in 0..r {
                g[(k, j)] = pw * inv;
                pw *= p;
            }
        }
        g[(alpha - 1, r - 1)] = Rational::ONE;

        // --- Dᵀ (α × α): row k = coefficients of Π_{j≠k}(x − p_j)
        //     (= N_k · ℓ_k(x)), padded with 0 at degree α−1.
        //     ∞ row: the product polynomial c(x) = g(x)·h(x) has its leading
        //     coefficient equal to the evaluation at ∞; interpolation of the
        //     remaining part gives row_∞ = e_{α−1} − Σ_k p_k^{α−1} ℓ_k. ---
        let mut dt = Matrix::zeros(alpha, alpha);
        let mut ell_coeffs: Vec<Vec<Rational>> = Vec::with_capacity(points.len());
        for (k, &p) in points.iter().enumerate() {
            let num = m.divide_by_linear_root(p);
            let mut row = vec![Rational::ZERO; alpha];
            for (j, item) in row.iter_mut().enumerate().take(alpha - 1) {
                *item = num.coeff(j);
            }
            for (j, item) in row.iter().enumerate() {
                dt[(k, j)] = *item;
            }
            // ℓ_k = row / N_k (unscaled Lagrange basis coefficients).
            let inv = denoms[k].recip();
            ell_coeffs.push(row.iter().map(|&c| c * inv).collect());
        }
        {
            let top = alpha - 1;
            dt[(top, top)] = Rational::ONE;
            for (k, &p) in points.iter().enumerate() {
                let w = p.pow(top as i32);
                if w.is_zero() {
                    continue;
                }
                for j in 0..alpha {
                    let delta = w * ell_coeffs[k][j];
                    dt[(top, j)] -= delta;
                }
            }
        }

        // --- Aᵀ (n × α): column j = [1, p_j, …, p_j^{n−1}]; ∞ column = e_{n−1}. ---
        let mut at = Matrix::zeros(n, alpha);
        for (j, &p) in points.iter().enumerate() {
            let mut pw = Rational::ONE;
            for i in 0..n {
                at[(i, j)] = pw;
                pw *= p;
            }
        }
        at[(n - 1, alpha - 1)] = Rational::ONE;

        // Sign fix (wincnn convention, matches the paper's Figure 5): if the
        // leading entry of G's first row is negative, negate the first rows
        // of both G and Dᵀ. Their product f_0 is unchanged.
        if g[(0, 0)].is_negative() {
            for j in 0..r {
                g[(0, j)] = -g[(0, j)];
            }
            for j in 0..alpha {
                dt[(0, j)] = -dt[(0, j)];
            }
        }

        WinogradTransform { n, r, alpha, at, g, dt }
    }

    /// Apply the full 1D algorithm exactly (rational arithmetic):
    /// `y = Aᵀ[(G g) ⊙ (Dᵀ d)]`. Used for testing and for generating
    /// reference vectors; the f32 kernels live in `iwino-core`.
    pub fn apply_exact(&self, g: &[Rational], d: &[Rational]) -> Vec<Rational> {
        assert_eq!(g.len(), self.r);
        assert_eq!(d.len(), self.alpha);
        let tg = self.g.mat_vec(g);
        let td = self.dt.mat_vec(d);
        let prod: Vec<Rational> = tg.iter().zip(&td).map(|(&a, &b)| a * b).collect();
        self.at.mat_vec(&prod)
    }

    /// The theoretical multiplication reduction `Φ = n·r / α` (§6.1.2).
    pub fn theoretical_speedup(&self) -> f64 {
        (self.n * self.r) as f64 / self.alpha as f64
    }

    /// Largest absolute coefficient across `Aᵀ`, `G` and `Dᵀ`.
    pub fn max_abs_coeff(&self) -> Rational {
        self.at.max_abs().max(self.g.max_abs()).max(self.dt.max_abs())
    }

    /// Worst-case error-amplification bound `‖Aᵀ‖∞ · ‖G‖∞ · ‖Dᵀ‖∞`
    /// (DWM, arXiv:2002.00552 uses the same product-of-norms shape): a
    /// relative perturbation of the inputs is magnified by at most this
    /// factor through the transform→product→inverse-transform pipeline.
    /// Growing α drives it up — the quantitative face of the Table 3 /
    /// Figure 10 accuracy degradation at large tiles.
    pub fn error_amplification(&self) -> Rational {
        self.at.inf_norm() * self.g.inf_norm() * self.dt.inf_norm()
    }

    /// Input transform as a [`PairedTransform`] (simplified transformation).
    pub fn dt_paired(&self) -> PairedTransform {
        PairedTransform::from_matrix(&self.dt)
    }

    /// Output transform as a [`PairedTransform`]. (`Aᵀ` columns — not rows —
    /// carry the ±p pairing, so gains here are smaller; the paper applies the
    /// simplification to `A`, `G`, `Dᵀ` row-wise where present.)
    pub fn at_paired(&self) -> PairedTransform {
        PairedTransform::from_matrix(&self.at)
    }
}

/// Convenience: the `Γα(n, r)` naming from the paper. Returns the `F(n, r)`
/// transform checked against the requested state count.
pub fn gamma(alpha: usize, n: usize, r: usize) -> WinogradTransform {
    assert_eq!(alpha, n + r - 1, "Γα(n,r) requires α = n + r − 1");
    WinogradTransform::generate(n, r)
}

/// Direct (schoolbook) correlation used as the semantic reference:
/// `y_i = Σ_j g_j · d_{i+j}`.
pub fn direct_correlation(g: &[Rational], d: &[Rational]) -> Vec<Rational> {
    let n = d.len() + 1 - g.len();
    (0..n)
        .map(|i| {
            g.iter()
                .enumerate()
                .fold(Rational::ZERO, |acc, (j, &gj)| acc + gj * d[i + j])
        })
        .collect()
}

#[cfg(test)]
mod tests;
