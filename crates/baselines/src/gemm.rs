//! The SGEMM test reference. The blocked kernel itself is the packed,
//! register-blocked Goto-style GEMM in `iwino-gemm`, shared by the baseline
//! convolutions, the indirect GEMM and core's Γ-boundary remainder; only
//! [`sgemm_naive`] lives here.
//!
//! The packed kernel fixed a semantic bug the old broadcast-row loop had:
//! it skipped `a[i][k] == 0.0` terms, silently dropping `0·∞ = NaN` and
//! `0·NaN = NaN` contributions (and flipping signed-zero results). The
//! `nonfinite_inputs_match_naive` proptest below pins the agreement.

/// Naive reference for testing: left-to-right ascending-`k` accumulation,
/// one rounding per multiply and per add. The packed GEMM performs exactly
/// this operation sequence per element, so the agreement is bitwise.
pub fn sgemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_gemm::{sgemm, sgemm_acc};
    use proptest::prelude::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * y.abs().max(1.0), "idx {i}: {x} vs {y}");
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
        assert_close(&c, &b, 0.0);
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
    fn large_block_boundary_sizes() {
        // Exercise m and k beyond the packed kernel's MC/KC block sizes.
        let (m, n, k) = (iwino_gemm::MC + 3, 17, iwino_gemm::KC + 5);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let mut c = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        sgemm(m, n, k, &a, &b, &mut c);
        sgemm_naive(m, n, k, &a, &b, &mut want);
        assert_close(&c, &want, 1e-4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn matches_naive(m in 1usize..20, n in 1usize..20, k in 1usize..40, seed in 0u64..1000) {
            let gen = |len: usize, s: u64| -> Vec<f32> {
                (0..len).map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(s * 97) % 1000) as f32 / 500.0) - 1.0).collect()
            };
            let a = gen(m * k, seed);
            let b = gen(k * n, seed + 1);
            let mut c = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            sgemm(m, n, k, &a, &b, &mut c);
            sgemm_naive(m, n, k, &a, &b, &mut want);
            assert_close(&c, &want, 1e-4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Inject ∞/NaN (and plant zeros opposite them) and require the
        /// blocked GEMM to agree with the naive reference bitwise — the old
        /// `av == 0.0` skip dropped `0·∞` / `0·NaN`, turning NaN outputs
        /// into finite ones.
        #[test]
        fn nonfinite_inputs_match_naive(
            m in 1usize..15, n in 1usize..20, k in 1usize..12,
            ai in 0usize..1000, bi in 0usize..1000, kind in 0usize..3, seed in 0u64..1000,
        ) {
            let gen = |len: usize, s: u64| -> Vec<f32> {
                (0..len).map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(s * 97) % 1000) as f32 / 500.0) - 1.0).collect()
            };
            let mut a = gen(m * k, seed);
            let mut b = gen(k * n, seed + 1);
            let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][kind];
            // A zero in A against a non-finite B entry in the same k row,
            // and vice versa: both products must reach C as NaN.
            let (i0, kk0) = (ai % m, ai % k);
            a[i0 * k + kk0] = 0.0;
            b[kk0 * n + bi % n] = special;
            let (kk1, j1) = (bi % k, bi % n);
            b[kk1 * n + j1] = 0.0;
            a[(ai % m) * k + kk1] = special;
            let mut c = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            sgemm(m, n, k, &a, &b, &mut c);
            sgemm_naive(m, n, k, &a, &b, &mut want);
            prop_assert!(want.iter().any(|v| !v.is_finite()), "case must produce a non-finite output");
            for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "idx {}: {:?} vs naive {:?}", i, x, y);
            }
        }
    }
}
