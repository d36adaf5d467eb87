//! Dense row-major N-dimensional tensors.

use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::transpose;
use crate::{Error, Result};
use rand::Rng;

/// A dense tensor with row-major contiguous storage.
#[derive(Clone, PartialEq)]
pub struct DenseTensor<T: Scalar = f64> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Scalar> std::fmt::Debug for DenseTensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseTensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} elements]", self.data.len())
        }
    }
}

impl<T: Scalar> DenseTensor<T> {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Self {
            shape,
            data: vec![T::zero(); n],
        }
    }

    /// Tensor from existing data (row-major). Length must match the shape;
    /// a shape whose dims multiply past `usize` is refused, not wrapped.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Result<Self> {
        let shape = shape.into();
        let len = shape
            .dims()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d));
        if len != Some(data.len()) {
            return Err(Error::ShapeMismatch(match len {
                Some(len) => format!("shape {shape:?} wants {len} elements, got {}", data.len()),
                None => format!("shape {shape:?} has more elements than usize can count"),
            }));
        }
        Ok(Self { shape, data })
    }

    /// Tensor whose element at multi-index `idx` is `f(idx)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.len());
        for idx in shape.index_iter() {
            data.push(f(&idx));
        }
        // order-0 scalar: index_iter yields one empty index, so data has 1 elt
        Self { shape, data }
    }

    /// Uniform random tensor with entries in `[-1, 1]`.
    pub fn random(shape: impl Into<Shape>, rng: &mut (impl Rng + ?Sized)) -> Self {
        let shape = shape.into();
        let n = shape.len();
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(T::sample_uniform(rng));
        }
        Self { shape, data }
    }

    /// Order-0 tensor holding a single value.
    pub fn scalar(v: T) -> Self {
        Self {
            shape: Shape(Vec::new()),
            data: vec![v],
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = T::one();
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Mode dimensions.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Tensor order (number of modes).
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw data, row-major.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the raw data vector.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx).expect("index in bounds")]
    }

    /// Set the element at a multi-index.
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.shape.offset(idx).expect("index in bounds");
        self.data[off] = v;
    }

    /// Checked element access.
    pub fn get(&self, idx: &[usize]) -> Result<T> {
        Ok(self.data[self.shape.offset(idx)?])
    }

    /// Reinterpret with a new shape of identical volume (no data movement).
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(Error::ShapeMismatch(format!(
                "reshape {:?} -> {:?} changes volume",
                self.shape, shape
            )));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Permute modes: `out[i0,..] = self[i_perm[0],..]`; see [`transpose::permute`].
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        transpose::permute(self, perm)
    }

    /// Matricize: permute modes so `row_modes` (in order) form the row index
    /// and `col_modes` the column index, then reshape to 2-D.
    pub fn matricize(&self, row_modes: &[usize], col_modes: &[usize]) -> Result<Self> {
        let mut perm = Vec::with_capacity(self.order());
        perm.extend_from_slice(row_modes);
        perm.extend_from_slice(col_modes);
        let permuted = self.permute(&perm)?;
        let rows: usize = row_modes.iter().map(|&m| self.shape.dim(m)).product();
        let cols: usize = col_modes.iter().map(|&m| self.shape.dim(m)).product();
        permuted.reshape([rows, cols])
    }

    /// In-place scale by a scalar.
    pub fn scale_mut(&mut self, s: T) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Scaled copy.
    pub fn scaled(&self, s: T) -> Self {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: T, other: &Self) -> Result<()> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch(format!(
                "axpy {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        for (x, &y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
        crate::counter::add_flops(2 * self.data.len() as u64);
        Ok(())
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Self) -> Result<Self> {
        let mut out = self.clone();
        out.axpy(T::one(), other)?;
        Ok(out)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        let mut out = self.clone();
        out.axpy(-T::one(), other)?;
        Ok(out)
    }

    /// Conjugated inner product `<self, other> = sum conj(self_i) * other_i`.
    pub fn dot(&self, other: &Self) -> Result<T> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch(format!(
                "dot {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        crate::counter::add_flops(2 * self.data.len() as u64);
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a.conj() * b)
            .sum())
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x.abs2()).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x.abs2()).sum::<f64>()
    }

    /// Largest modulus entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Elementwise complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|x| x.conj()).collect(),
        }
    }

    /// Maximum absolute elementwise difference (shape-checked).
    pub fn max_diff(&self, other: &Self) -> Result<f64> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch(format!(
                "max_diff {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// Approximate equality within absolute tolerance `tol`.
    pub fn allclose(&self, other: &Self, tol: f64) -> bool {
        self.shape == other.shape && self.max_diff(other).unwrap() <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let mut t = DenseTensor::<f64>::zeros([2, 3]);
        assert_eq!(t.len(), 6);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn from_fn_row_major() {
        let t = DenseTensor::<f64>::from_fn([2, 2], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(DenseTensor::<f64>::from_vec([2, 2], vec![1.0; 3]).is_err());
        assert!(DenseTensor::<f64>::from_vec([2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_vec_rejects_overflowing_shapes() {
        // 2^33 · 2^31 wraps to 0 elements: an empty vector must not pass
        let err = DenseTensor::<f64>::from_vec([1 << 33, 1 << 31], vec![]).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch(_)), "{err}");
        assert!(DenseTensor::<f64>::from_vec([usize::MAX, 2], vec![]).is_err());
    }

    #[test]
    fn eye_is_identity() {
        let i = DenseTensor::<f64>::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn axpy_and_norms() {
        let a = DenseTensor::<f64>::from_vec([3], vec![1.0, 2.0, 2.0]).unwrap();
        let mut b = DenseTensor::<f64>::zeros([3]);
        b.axpy(2.0, &a).unwrap();
        assert_eq!(b.data(), &[2.0, 4.0, 4.0]);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.norm2(), 9.0);
        assert_eq!(a.max_abs(), 2.0);
    }

    #[test]
    fn dot_conjugates_left() {
        use crate::Complex64 as C;
        let a = DenseTensor::from_vec([2], vec![C::new(0.0, 1.0), C::new(1.0, 0.0)]).unwrap();
        let d = a.dot(&a).unwrap();
        assert!((d - C::new(2.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = DenseTensor::<f64>::from_fn([2, 3], |i| (i[0] * 3 + i[1]) as f64);
        let r = t.clone().reshape([3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.clone().reshape([4, 2]).is_err());
    }

    #[test]
    fn matricize_groups_modes() {
        // t[i,j,k] with dims 2,3,4 -> rows (k,i) cols (j)
        let t = DenseTensor::<f64>::from_fn([2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let m = t.matricize(&[2, 0], &[1]).unwrap();
        assert_eq!(m.dims(), &[8, 3]);
        // element (k=3,i=1),(j=2) == t[1,2,3]
        assert_eq!(m.at(&[3 * 2 + 1, 2]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn random_is_bounded_and_seeded() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = DenseTensor::<f64>::random([4, 4], &mut rng);
        assert!(t.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
        let mut rng2 = StdRng::seed_from_u64(42);
        let t2 = DenseTensor::<f64>::random([4, 4], &mut rng2);
        assert_eq!(t.data(), t2.data());
    }

    #[test]
    fn allclose_tolerance() {
        let a = DenseTensor::<f64>::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = DenseTensor::<f64>::from_vec([2], vec![1.0 + 1e-12, 2.0]).unwrap();
        assert!(a.allclose(&b, 1e-10));
        assert!(!a.allclose(&b, 1e-14));
        let c = DenseTensor::<f64>::from_vec([1, 2], vec![1.0, 2.0]).unwrap();
        assert!(!a.allclose(&c, 1.0)); // different shape
    }

    #[test]
    fn scalar_tensor() {
        let s = DenseTensor::<f64>::scalar(3.5);
        assert_eq!(s.order(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.at(&[]), 3.5);
    }
}
