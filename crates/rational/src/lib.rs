//! Exact rational arithmetic over `i128` plus dense univariate polynomials.
//!
//! This crate is the numeric substrate for generating Winograd transform
//! matrices (`iwino-transforms`). Those matrices must be produced *exactly* —
//! the paper's accuracy experiment (Table 3) depends on the transform entries
//! being the true rationals (e.g. `-21/4`, `539803/576`, `1/160810650`) rather
//! than floating-point approximations of intermediate computations.
//!
//! All arithmetic is overflow-checked: every operation normalises by the gcd
//! and panics (in debug and release alike) on `i128` overflow instead of
//! silently wrapping. For the paper's point set (|p| ≤ 4, α ≤ 16) every
//! intermediate fits comfortably in `i128`.

#![forbid(unsafe_code)]

pub mod mpoly;
pub mod poly;

pub use mpoly::MPoly;
pub use poly::Poly;

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of the absolute values (Euclid). `gcd(0, 0) == 0`.
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple; panics on overflow.
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).checked_mul(b).expect("lcm overflow").abs()
}

impl Rational {
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct `num/den`, normalising sign and gcd. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rational { num, den }
    }

    /// Construct from an integer.
    pub const fn from_int(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }

    pub fn numer(&self) -> i128 {
        self.num
    }

    pub fn denom(&self) -> i128 {
        self.den
    }

    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    pub fn abs(&self) -> Self {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Exact integer power (negative exponents allowed for nonzero values).
    pub fn pow(&self, exp: i32) -> Self {
        if exp == 0 {
            return Rational::ONE;
        }
        let base = if exp < 0 { self.recip() } else { *self };
        let mut acc = Rational::ONE;
        for _ in 0..exp.unsigned_abs() {
            acc *= base;
        }
        acc
    }

    /// Lossy conversion to `f64` (exact when both parts are exactly
    /// representable, which holds for every entry of the paper's matrices).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Lossy conversion to `f32`.
    pub fn to_f32(&self) -> f32 {
        self.to_f64() as f32
    }

    fn checked_add(self, rhs: Self) -> Option<Self> {
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
        let l = lcm(self.den, rhs.den);
        let left = self.num.checked_mul(l / self.den)?;
        let right = rhs.num.checked_mul(l / rhs.den)?;
        Some(Rational::new(left.checked_add(right)?, l))
    }

    fn checked_mul_impl(self, rhs: Self) -> Option<Self> {
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational::new(num, den))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational::from_int(v)
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v as i128)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational::from_int(v as i128)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Self) -> Self {
        self.checked_add(rhs).expect("rational add overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Self) -> Self {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Self) -> Self {
        self.checked_mul_impl(rhs).expect("rational mul overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    // Division by a rational IS multiplication by its reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Self {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d with b, d > 0  ⟺  a*d vs c*b.
        let left = self.num.checked_mul(other.den).expect("cmp overflow");
        let right = other.num.checked_mul(self.den).expect("cmp overflow");
        left.cmp(&right)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Parse helpers used by tests: `"3"`, `"-21/4"`.
impl std::str::FromStr for Rational {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s.split_once('/') {
            Some((n, d)) => {
                let n: i128 = n.trim().parse().map_err(|e| format!("{e}"))?;
                let d: i128 = d.trim().parse().map_err(|e| format!("{e}"))?;
                if d == 0 {
                    return Err("zero denominator".into());
                }
                Ok(Rational::new(n, d))
            }
            None => {
                let n: i128 = s.parse().map_err(|e| format!("{e}"))?;
                Ok(Rational::from_int(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalisation() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(1, 2).denom(), 2);
        assert!(Rational::new(-1, 3).is_negative());
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn pow_and_recip() {
        let two = Rational::from_int(2);
        assert_eq!(two.pow(10), Rational::from_int(1024));
        assert_eq!(two.pow(-3), Rational::new(1, 8));
        assert_eq!(two.pow(0), Rational::ONE);
        assert_eq!(Rational::new(-1, 2).pow(2), Rational::new(1, 4));
        assert_eq!(Rational::new(3, 7).recip(), Rational::new(7, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert_eq!(Rational::new(2, 6).cmp(&Rational::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn conversion_to_floats() {
        assert_eq!(Rational::new(-21, 4).to_f64(), -5.25);
        assert_eq!(Rational::new(1, 1024).to_f32(), 0.0009765625);
    }

    #[test]
    fn parsing() {
        assert_eq!("-21/4".parse::<Rational>().unwrap(), Rational::new(-21, 4));
        assert_eq!("7".parse::<Rational>().unwrap(), Rational::from_int(7));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
    }

    #[test]
    fn display_roundtrip() {
        for s in ["0", "1", "-1", "1/2", "-21/4", "539803/576"] {
            let r: Rational = s.parse().unwrap();
            assert_eq!(format!("{r}"), s);
        }
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
    }

    fn small_rational() -> impl Strategy<Value = Rational> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rational::new(n, d))
    }

    proptest! {
        #[test]
        fn field_axioms(a in small_rational(), b in small_rational(), c in small_rational()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a + Rational::ZERO, a);
            prop_assert_eq!(a * Rational::ONE, a);
            prop_assert_eq!(a - a, Rational::ZERO);
        }

        #[test]
        fn division_inverts_multiplication(a in small_rational(), b in small_rational()) {
            prop_assume!(!b.is_zero());
            prop_assert_eq!(a * b / b, a);
        }

        #[test]
        fn float_conversion_tracks_value(a in small_rational()) {
            let f = a.to_f64();
            let expected = a.numer() as f64 / a.denom() as f64;
            prop_assert_eq!(f, expected);
        }
    }
}
