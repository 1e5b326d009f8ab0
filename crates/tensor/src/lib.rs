//! 4-D tensors in NHWC layout plus the filter layouts, shape bookkeeping,
//! layout conversion and error statistics used throughout the
//! Im2col-Winograd reproduction.
//!
//! Terminology follows the paper (Table 1):
//!
//! * ifms `X ∈ R^{N×IH×IW×IC}` — input feature maps, NHWC;
//! * filters `W ∈ R^{OC×FH×FW×IC}` — and the transposed `FH×FW×IC×OC`
//!   layout used by forward convolution (§5.1);
//! * ofms `Y ∈ R^{N×OH×OW×OC}`.

#![forbid(unsafe_code)]

pub mod layout;
pub mod shape;
pub mod stats;
pub mod tensor5;

pub use layout::{nchw_to_nhwc, nhwc_to_nchw, rotate_filter_180, transpose_filter_to_hwio};
pub use shape::ConvShape;
pub use stats::{max_mixed_error, relative_error_histogram, ErrorStats};
pub use tensor5::{Conv3dShape, Tensor5};

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Element scalar for tensors: `f32` for the production kernels, `f64` for
/// the reference convolution used as ground truth in Experiment 2.
pub trait Scalar: Copy + Default + PartialOrd + Send + Sync + 'static {
    const ZERO: Self;
    const ONE: Self;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn mul_add_(self, a: Self, b: Self) -> Self;
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn mul_add_(self, a: f32, b: f32) -> f32 {
        a.mul_add(b, self)
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    fn from_f64(v: f64) -> f64 {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn mul_add_(self, a: f64, b: f64) -> f64 {
        a.mul_add(b, self)
    }
}

/// A dense 4-D tensor. The axis meaning is by convention of the caller
/// (NHWC for feature maps, OC·FH·FW·IC or FH·FW·IC·OC for filters); helper
/// constructors make the intent explicit.
#[derive(Clone, PartialEq)]
pub struct Tensor4<T: Scalar = f32> {
    dims: [usize; 4],
    data: Vec<T>,
}

impl<T: Scalar> Tensor4<T> {
    /// Zero-filled tensor of shape `dims`.
    pub fn zeros(dims: [usize; 4]) -> Self {
        let len = dims.iter().product();
        Tensor4 {
            dims,
            data: vec![T::ZERO; len],
        }
    }

    /// Build from an existing buffer; `data.len()` must equal the volume.
    pub fn from_vec(dims: [usize; 4], data: Vec<T>) -> Self {
        assert_eq!(data.len(), dims.iter().product::<usize>(), "shape/volume mismatch");
        Tensor4 { dims, data }
    }

    /// NHWC feature-map constructor (documentation aid).
    pub fn nhwc(n: usize, h: usize, w: usize, c: usize) -> Self {
        Self::zeros([n, h, w, c])
    }

    /// Filter in the paper's native `OC×FH×FW×IC` layout.
    pub fn filter_ohwi(oc: usize, fh: usize, fw: usize, ic: usize) -> Self {
        Self::zeros([oc, fh, fw, ic])
    }

    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major strides for the current dims.
    pub fn strides(&self) -> [usize; 4] {
        let d = self.dims;
        [d[1] * d[2] * d[3], d[2] * d[3], d[3], 1]
    }

    #[inline]
    pub fn offset(&self, i: usize, j: usize, k: usize, l: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2] && l < self.dims[3]);
        ((i * self.dims[1] + j) * self.dims[2] + k) * self.dims[3] + l
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize, l: usize) -> T {
        self.data[self.offset(i, j, k, l)]
    }

    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize, l: usize) -> &mut T {
        let o = self.offset(i, j, k, l);
        &mut self.data[o]
    }

    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Fill with i.i.d. uniform values in `[lo, hi)` from a seeded RNG.
    /// Experiment 2 uses `[1, 2)` exactly as §6.2.1 specifies.
    pub fn fill_uniform(&mut self, seed: u64, lo: f64, hi: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(lo, hi);
        for v in &mut self.data {
            *v = T::from_f64(dist.sample(&mut rng));
        }
    }

    /// Constructor convenience: `zeros` then `fill_uniform`.
    pub fn random(dims: [usize; 4], seed: u64, lo: f64, hi: f64) -> Self {
        let mut t = Self::zeros(dims);
        t.fill_uniform(seed, lo, hi);
        t
    }

    /// Elementwise conversion to another scalar type.
    pub fn cast<U: Scalar>(&self) -> Tensor4<U> {
        Tensor4 {
            dims: self.dims,
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Map every element.
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Tensor4 {
            dims: self.dims,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl<T: Scalar> std::fmt::Debug for Tensor4<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor4{:?} ({} elems)", self.dims, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor4::<f32>::zeros([2, 3, 4, 5]);
        *t.at_mut(1, 2, 3, 4) = 7.0;
        assert_eq!(t.at(1, 2, 3, 4), 7.0);
        assert_eq!(t.offset(0, 0, 0, 1), 1);
        assert_eq!(t.offset(0, 0, 1, 0), 5);
        assert_eq!(t.offset(0, 1, 0, 0), 20);
        assert_eq!(t.offset(1, 0, 0, 0), 60);
        assert_eq!(t.strides(), [60, 20, 5, 1]);
    }

    #[test]
    fn fill_uniform_is_deterministic_and_in_range() {
        let a = Tensor4::<f32>::random([1, 4, 4, 3], 42, 1.0, 2.0);
        let b = Tensor4::<f32>::random([1, 4, 4, 3], 42, 1.0, 2.0);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (1.0..2.0).contains(&v)));
        let c = Tensor4::<f32>::random([1, 4, 4, 3], 43, 1.0, 2.0);
        assert_ne!(a, c);
    }

    #[test]
    fn cast_preserves_values() {
        let a = Tensor4::<f32>::random([1, 2, 2, 2], 1, -1.0, 1.0);
        let d = a.cast::<f64>();
        for (x, y) in a.as_slice().iter().zip(d.as_slice()) {
            assert_eq!(*x as f64, *y);
        }
        let back = d.cast::<f32>();
        assert_eq!(a, back);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_volume() {
        let _ = Tensor4::<f32>::from_vec([2, 2, 2, 2], vec![0.0; 15]);
    }
}
