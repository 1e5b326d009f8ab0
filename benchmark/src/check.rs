//! Output checks: the FP64 reference every workload's convolution results
//! are held against, and the comparison served outputs must pass.

use crate::stats::Rng;
use iwino_tensor::{ConvShape, Tensor4};

/// A run fails when a shape's mean relative error exceeds this.
pub const MAX_REL_ERR: f64 = 1e-4;

/// Output positions sampled per checked tensor.
pub const CHECK_POINTS: usize = 512;

/// Table 3's metric: mean relative error of `y` against an FP64 direct
/// convolution, at `points` output positions drawn from `rng`. Infinite when
/// `y` has the wrong dims or a sampled value is not finite.
pub fn sampled_rel_err(
    x: &Tensor4<f32>,
    w: &Tensor4<f32>,
    s: &ConvShape,
    y: &Tensor4<f32>,
    rng: &mut Rng,
    points: usize,
) -> f64 {
    let [n, oh, ow, oc] = s.y_dims();
    if y.dims() != s.y_dims() || points == 0 {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    for _ in 0..points {
        let (b, oy, ox, o) = (rng.below(n), rng.below(oh), rng.below(ow), rng.below(oc));
        let got = y.at(b, oy, ox, o) as f64;
        if !got.is_finite() {
            return f64::INFINITY;
        }
        let want = reference_at(x, w, s, b, oy, ox, o);
        sum += (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
    }
    sum / points as f64
}

/// One output element of the convolution, accumulated in f64.
fn reference_at(x: &Tensor4<f32>, w: &Tensor4<f32>, s: &ConvShape, b: usize, oy: usize, ox: usize, o: usize) -> f64 {
    let mut acc = 0.0f64;
    for fy in 0..s.fh {
        let iy = (oy * s.sh + fy) as isize - s.ph as isize;
        if iy < 0 || iy >= s.ih as isize {
            continue;
        }
        for fx in 0..s.fw {
            let ix = (ox * s.sw + fx) as isize - s.pw as isize;
            if ix < 0 || ix >= s.iw as isize {
                continue;
            }
            for c in 0..s.ic {
                acc += x.at(b, iy as usize, ix as usize, c) as f64 * w.at(o, fy, fx, c) as f64;
            }
        }
    }
    acc
}

/// Whether `got` equals the checked `want` to within `1e-6·max|want|`
/// everywhere, with no non-finite element.
pub fn matches(got: &Tensor4<f32>, want: &Tensor4<f32>) -> bool {
    if got.dims() != want.dims() {
        return false;
    }
    let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let tol = 1e-6 * scale;
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .all(|(a, b)| a.is_finite() && (a - b).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> (ConvShape, Tensor4<f32>, Tensor4<f32>, Tensor4<f32>) {
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 9, 3, 4, 3)
        };
        let x = Tensor4::<f32>::random(s.x_dims(), 1, 1.0, 2.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 2, 1.0, 2.0);
        let mut y = Tensor4::<f32>::zeros(s.y_dims());
        let [n, oh, ow, oc] = s.y_dims();
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for o in 0..oc {
                        *y.at_mut(b, oy, ox, o) = reference_at(&x, &w, &s, b, oy, ox, o) as f32;
                    }
                }
            }
        }
        (s, x, w, y)
    }

    #[test]
    fn exact_output_has_rounding_level_error() {
        let (s, x, w, y) = case();
        let e = sampled_rel_err(&x, &w, &s, &y, &mut Rng::new(1), CHECK_POINTS);
        assert!(e < 1e-7, "{e}");
    }

    #[test]
    fn perturbed_or_misshapen_output_fails() {
        let (s, x, w, mut y) = case();
        // Perturb every element so any sample sees it.
        y.as_mut_slice().iter_mut().for_each(|v| *v *= 1.001);
        assert!(sampled_rel_err(&x, &w, &s, &y, &mut Rng::new(1), 64) > MAX_REL_ERR);
        let wrong = Tensor4::<f32>::zeros([1, 4, 4, 4]);
        assert_eq!(sampled_rel_err(&x, &w, &s, &wrong, &mut Rng::new(1), 64), f64::INFINITY);
    }

    #[test]
    fn one_perturbed_element_breaks_a_match() {
        let (_, _, _, y) = case();
        assert!(matches(&y, &y));
        let mut bad = y.clone();
        bad.as_mut_slice()[17] += 1e-3;
        assert!(!matches(&bad, &y));
        let mut nan = y.clone();
        nan.as_mut_slice()[3] = f32::NAN;
        assert!(!matches(&nan, &y));
        assert!(!matches(&Tensor4::<f32>::zeros([1, 1, 1, 1]), &y));
    }
}
