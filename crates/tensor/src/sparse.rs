//! Coordinate-format sparse tensors.
//!
//! The storage of the paper's *sparse-dense* and *sparse-sparse*
//! algorithms (Section IV-A): quantum-number block tensors are flattened
//! into one large sparse tensor, and contractions run as a single sparse
//! operation instead of a loop over block pairs. The contraction kernels
//! live elsewhere: the sorted-run merge of sparse × sparse in
//! [`crate::ssmerge`], whose slot accumulator takes the output sparsity the
//! quantum numbers pre-compute (the paper's "knowledge of quantum number
//! labels allows for pre-computation of the output sparsity"), and the
//! row-chunked contractions of the distributed executor built on it.

use crate::dense::DenseTensor;
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::{Error, Result};

/// A sparse tensor storing `(linear offset, value)` pairs sorted by offset.
///
/// Offsets are row-major with respect to [`SparseTensor::shape`]. Explicit
/// zeros are permitted (they arise from cancellation) but constructors prune
/// entries below a tolerance when asked.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseTensor<T: Scalar = f64> {
    shape: Shape,
    /// Sorted, unique linear offsets.
    offsets: Vec<u64>,
    values: Vec<T>,
}

impl<T: Scalar> SparseTensor<T> {
    /// Empty sparse tensor of a given shape.
    pub fn empty(shape: impl Into<Shape>) -> Self {
        Self {
            shape: shape.into(),
            offsets: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from unsorted `(offset, value)` pairs; duplicates are summed.
    pub fn from_entries(shape: impl Into<Shape>, mut entries: Vec<(u64, T)>) -> Result<Self> {
        let shape = shape.into();
        let vol = shape.len() as u64;
        entries.sort_unstable_by_key(|e| e.0);
        let mut offsets = Vec::with_capacity(entries.len());
        let mut values: Vec<T> = Vec::with_capacity(entries.len());
        for (off, v) in entries {
            if off >= vol {
                return Err(Error::BadIndex(format!(
                    "offset {off} out of bounds for volume {vol}"
                )));
            }
            if offsets.last() == Some(&off) {
                *values.last_mut().expect("non-empty") += v;
            } else {
                offsets.push(off);
                values.push(v);
            }
        }
        Ok(Self {
            shape,
            offsets,
            values,
        })
    }

    /// Build from offsets that are already strictly ascending (checked),
    /// skipping [`SparseTensor::from_entries`]' pair buffer and sort.
    pub fn from_sorted(shape: impl Into<Shape>, offsets: Vec<u64>, values: Vec<T>) -> Result<Self> {
        let shape = shape.into();
        if offsets.len() != values.len() {
            return Err(Error::BadIndex(format!(
                "{} offsets for {} values",
                offsets.len(),
                values.len()
            )));
        }
        if !offsets.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::BadIndex("offsets are not strictly ascending".into()));
        }
        let vol = shape.len() as u64;
        if let Some(&off) = offsets.last().filter(|&&off| off >= vol) {
            return Err(Error::BadIndex(format!(
                "offset {off} out of bounds for volume {vol}"
            )));
        }
        Ok(Self {
            shape,
            offsets,
            values,
        })
    }

    /// Sparsify a dense tensor, keeping entries with `|x| > tol`.
    pub fn from_dense(t: &DenseTensor<T>, tol: f64) -> Self {
        let mut offsets = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in t.data().iter().enumerate() {
            if v.abs() > tol {
                offsets.push(i as u64);
                values.push(v);
            }
        }
        Self {
            shape: t.shape().clone(),
            offsets,
            values,
        }
    }

    /// Densify.
    pub fn to_dense(&self) -> DenseTensor<T> {
        let mut out = DenseTensor::zeros(self.shape.clone());
        let data = out.data_mut();
        for (&off, &v) in self.offsets.iter().zip(&self.values) {
            data[off as usize] += v;
        }
        out
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Mode dimensions.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.offsets.len()
    }

    /// Fraction of stored entries relative to the dense volume
    /// (the quantity plotted in the paper's Fig. 2b).
    pub fn sparsity(&self) -> f64 {
        if self.shape.is_empty() {
            0.0
        } else {
            self.nnz() as f64 / self.shape.len() as f64
        }
    }

    /// Stored `(offset, value)` pairs, sorted by offset.
    pub fn entries(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.offsets
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Value at a multi-index (zero when absent).
    pub fn at(&self, idx: &[usize]) -> T {
        let off = self.shape.offset(idx).expect("index in bounds") as u64;
        match self.offsets.binary_search(&off) {
            Ok(i) => self.values[i],
            Err(_) => T::zero(),
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.values.iter().map(|v| v.abs2()).sum::<f64>().sqrt()
    }

    /// In-place scale.
    pub fn scale_mut(&mut self, s: T) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Sparse sum `self + alpha * other` (union of patterns).
    pub fn axpy(&self, alpha: T, other: &Self) -> Result<Self> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch(format!(
                "sparse axpy {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        let mut entries: Vec<(u64, T)> = self.entries().collect();
        entries.extend(other.entries().map(|(o, v)| (o, alpha * v)));
        crate::counter::add_flops(2 * other.nnz() as u64);
        Self::from_entries(self.shape.clone(), entries)
    }

    /// Drop stored entries with `|x| <= tol`.
    pub fn prune(&mut self, tol: f64) {
        let mut keep_off = Vec::with_capacity(self.offsets.len());
        let mut keep_val = Vec::with_capacity(self.values.len());
        for (&o, &v) in self.offsets.iter().zip(&self.values) {
            if v.abs() > tol {
                keep_off.push(o);
                keep_val.push(v);
            }
        }
        self.offsets = keep_off;
        self.values = keep_val;
    }

    /// Permute modes (relabels coordinates; no dense buffer is formed).
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        let out_shape = self.shape.permuted(perm)?;
        let mut entries = Vec::with_capacity(self.nnz());
        for (off, v) in self.entries() {
            let idx = self.shape.unoffset(off as usize);
            let out_idx: Vec<usize> = perm.iter().map(|&p| idx[p]).collect();
            entries.push((out_shape.offset(&out_idx)? as u64, v));
        }
        Self::from_entries(out_shape, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_sparse(shape: &[usize], density: f64, seed: u64) -> SparseTensor<f64> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = DenseTensor::<f64>::from_fn(shape, |_| {
            if rng.gen_bool(density) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        SparseTensor::from_dense(&dense, 0.0)
    }

    #[test]
    fn dense_roundtrip() {
        let t = DenseTensor::<f64>::from_vec([2, 3], vec![0.0, 1.0, 0.0, 2.0, 0.0, 3.0]).unwrap();
        let s = SparseTensor::from_dense(&t, 0.0);
        assert_eq!(s.nnz(), 3);
        assert!((s.sparsity() - 0.5).abs() < 1e-15);
        assert!(s.to_dense().allclose(&t, 0.0));
        assert_eq!(s.at(&[0, 1]), 1.0);
        assert_eq!(s.at(&[0, 0]), 0.0);
    }

    #[test]
    fn from_entries_sums_duplicates() {
        let s = SparseTensor::from_entries([4], vec![(1, 2.0), (1, 3.0), (0, 1.0)]).unwrap();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.at(&[1]), 5.0);
        assert!(SparseTensor::<f64>::from_entries([2], vec![(5, 1.0)]).is_err());
    }

    #[test]
    fn sparse_permute_matches_dense() {
        let s = random_sparse(&[3, 4, 5], 0.3, 1);
        let d = s.to_dense();
        let sp = s.permute(&[2, 0, 1]).unwrap();
        let dp = d.permute(&[2, 0, 1]).unwrap();
        assert!(sp.to_dense().allclose(&dp, 0.0));
    }

    #[test]
    fn axpy_and_prune() {
        let a = SparseTensor::from_entries([4], vec![(0, 1.0), (2, 2.0)]).unwrap();
        let b = SparseTensor::from_entries([4], vec![(2, -1.0), (3, 4.0)]).unwrap();
        let mut c = a.axpy(2.0, &b).unwrap();
        assert_eq!(c.at(&[0]), 1.0);
        assert_eq!(c.at(&[2]), 0.0);
        assert_eq!(c.at(&[3]), 8.0);
        c.prune(1e-14);
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn norm_matches_dense() {
        let s = random_sparse(&[5, 5], 0.5, 12);
        assert!((s.norm() - s.to_dense().norm()).abs() < 1e-12);
    }
}
