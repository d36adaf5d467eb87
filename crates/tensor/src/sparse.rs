//! Coordinate-format sparse tensors and sparse contraction kernels.
//!
//! These are the local pieces of the paper's *sparse-dense* and
//! *sparse-sparse* algorithms (Section IV-A): quantum-number block tensors
//! are flattened into one large sparse tensor, and contractions run as a
//! single sparse operation instead of a loop over block pairs. The paper
//! notes that "knowledge of quantum number labels allows for pre-computation
//! of the output sparsity, which can be provided to Cyclops to control
//! memory consumption" — [`SparseTensor::contract_sparse_masked`] implements
//! exactly that interface.

use crate::dense::DenseTensor;
use crate::einsum::ContractPlan;
use crate::scalar::Scalar;
use crate::shape::Shape;
use crate::{Error, Result};
use std::collections::HashSet;

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

    /// Split each entry's multi-index into a fused `(row, col)` pair given
    /// row-mode and col-mode position lists.
    fn to_matrix_coords(&self, row_modes: &[usize], col_modes: &[usize]) -> Vec<(u64, u64, T)> {
        let dims = self.shape.dims();
        let mut out = Vec::with_capacity(self.nnz());
        for (off, v) in self.entries() {
            let idx = self.shape.unoffset(off as usize);
            let mut row = 0u64;
            for &m in row_modes {
                row = row * dims[m] as u64 + idx[m] as u64;
            }
            let mut col = 0u64;
            for &m in col_modes {
                col = col * dims[m] as u64 + idx[m] as u64;
            }
            out.push((row, col, v));
        }
        out
    }

    /// Sparse × dense contraction producing a dense tensor.
    ///
    /// `spec` follows [`crate::einsum()`] grammar with `self` as the first
    /// operand. This is the kernel under the *sparse-dense* algorithm.
    pub fn contract_dense(&self, spec: &str, b: &DenseTensor<T>) -> Result<DenseTensor<T>> {
        let plan = ContractPlan::parse(spec)?;
        let out_dims = plan.output_dims(self.dims(), b.dims())?;

        // B fused to (ctr, free) dense matrix, ctr modes aligned with A's.
        let mut perm_b: Vec<usize> = plan.ctr_b_positions().to_vec();
        perm_b.extend_from_slice(plan.free_b_positions());
        let k: usize = plan
            .ctr_b_positions()
            .iter()
            .map(|&m| b.dims()[m])
            .product();
        let n: usize = plan
            .free_b_positions()
            .iter()
            .map(|&m| b.dims()[m])
            .product();
        let b_mat = crate::transpose::permute(b, &perm_b)?;
        let b_data = b_mat.data();

        let m: usize = plan
            .free_a_positions()
            .iter()
            .map(|&m| self.dims()[m])
            .product();
        let coords = self.to_matrix_coords(plan.free_a_positions(), plan.ctr_a_positions());

        let mut c = vec![T::zero(); m * n];
        for (row, col, v) in coords {
            debug_assert!((col as usize) < k);
            let brow = &b_data[col as usize * n..(col as usize + 1) * n];
            let crow = &mut c[row as usize * n..(row as usize + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                *cj += v * bj;
            }
        }
        crate::counter::add_flops(2 * self.nnz() as u64 * n as u64);

        let natural_dims: Vec<usize> = plan
            .free_a_positions()
            .iter()
            .map(|&i| self.dims()[i])
            .chain(plan.free_b_positions().iter().map(|&j| b.dims()[j]))
            .collect();
        let c = DenseTensor::from_vec(natural_dims, c)?;
        let c = crate::transpose::permute(&c, plan.output_permutation())?;
        debug_assert_eq!(c.dims(), &out_dims[..]);
        Ok(c)
    }

    /// Sparse × sparse contraction producing a sparse tensor.
    ///
    /// The kernel under the *sparse-sparse* algorithm: both operands are
    /// fused to sparse matrices, key-sorted once, joined by a two-pointer
    /// merge over contracted-key runs, and accumulated in a dense panel
    /// ([`crate::ssmerge`]).
    pub fn contract_sparse(&self, spec: &str, b: &Self) -> Result<Self> {
        self.contract_sparse_impl(spec, b, None)
    }

    /// Sparse × sparse contraction with pre-computed output sparsity: only
    /// offsets present in `mask` (output linear offsets, any order) are
    /// accumulated; everything else is discarded on the fly.
    pub fn contract_sparse_masked(&self, spec: &str, b: &Self, mask: &[u64]) -> Result<Self> {
        self.contract_sparse_impl(spec, b, Some(mask))
    }

    fn contract_sparse_impl(&self, spec: &str, b: &Self, mask: Option<&[u64]>) -> Result<Self> {
        let plan = ContractPlan::parse(spec)?;
        let out_dims = plan.output_dims(self.dims(), b.dims())?;
        let out_shape = Shape::from(out_dims.clone());

        let m: u64 = plan
            .free_a_positions()
            .iter()
            .map(|&m| self.dims()[m] as u64)
            .product();
        let n: u64 = plan
            .free_b_positions()
            .iter()
            .map(|&m| b.dims()[m] as u64)
            .product();

        // A as (row, ctr) triples, stably key-sorted; B grouped by key
        let mut a_coords = self.to_matrix_coords(plan.free_a_positions(), plan.ctr_a_positions());
        a_coords.sort_by_key(|e| e.1);
        let btab = crate::ssmerge::SsBTable::build(
            b.to_matrix_coords(plan.ctr_b_positions(), plan.free_b_positions()),
        );

        let (triples, flops) = crate::ssmerge::merge_chunk(&a_coords, &btab, 0, m.max(1), n);
        crate::counter::add_flops(flops);

        // natural-order output strides: (free_a fused) * n + (free_b fused)
        // then convert to requested output order via permutation of indices.
        let natural_dims: Vec<usize> = plan
            .free_a_positions()
            .iter()
            .map(|&i| self.dims()[i])
            .chain(plan.free_b_positions().iter().map(|&j| b.dims()[j]))
            .collect();
        let natural_shape = Shape::from(natural_dims);
        let out_perm = plan.output_permutation();

        let natural_to_out = |nat_off: u64| -> u64 {
            let idx = natural_shape.unoffset(nat_off as usize);
            let out_idx: Vec<usize> = out_perm.iter().map(|&p| idx[p]).collect();
            out_shape.offset(&out_idx).expect("in bounds") as u64
        };

        // masking filters at extraction: each output element accumulates
        // independently, so this is value-identical to per-product masking
        let mask_set: Option<HashSet<u64>> = mask.map(|m| m.iter().copied().collect());
        let mut entries = Vec::with_capacity(triples.len());
        for (row, col, v) in triples {
            let out_off = natural_to_out(row * n + col);
            if let Some(ref ms) = mask_set {
                if !ms.contains(&out_off) {
                    continue;
                }
            }
            entries.push((out_off, v));
        }

        Self::from_entries(out_shape, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::einsum::einsum;
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
    fn sparse_dense_contraction_matches_einsum() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = random_sparse(&[4, 3, 5], 0.4, 3);
        let b = DenseTensor::<f64>::random([5, 3, 2], &mut rng);
        let c = s.contract_dense("ajk,kjc->ac", &b).unwrap();
        let c_ref = einsum("ajk,kjc->ac", &s.to_dense(), &b).unwrap();
        assert!(c.allclose(&c_ref, 1e-12));
    }

    #[test]
    fn sparse_dense_with_output_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = random_sparse(&[4, 3], 0.5, 5);
        let b = DenseTensor::<f64>::random([3, 6], &mut rng);
        let c = s.contract_dense("ik,kj->ji", &b).unwrap();
        let c_ref = einsum("ik,kj->ji", &s.to_dense(), &b).unwrap();
        assert!(c.allclose(&c_ref, 1e-12));
    }

    #[test]
    fn sparse_sparse_contraction_matches_einsum() {
        let a = random_sparse(&[4, 6], 0.4, 6);
        let b = random_sparse(&[6, 5], 0.4, 7);
        let c = a.contract_sparse("ik,kj->ij", &b).unwrap();
        let c_ref = einsum("ik,kj->ij", &a.to_dense(), &b.to_dense()).unwrap();
        assert!(c.to_dense().allclose(&c_ref, 1e-12));
    }

    #[test]
    fn sparse_sparse_higher_order() {
        let a = random_sparse(&[2, 3, 4], 0.5, 8);
        let b = random_sparse(&[4, 3, 5], 0.5, 9);
        let c = a.contract_sparse("ajk,kjc->ca", &b).unwrap();
        let c_ref = einsum("ajk,kjc->ca", &a.to_dense(), &b.to_dense()).unwrap();
        assert!(c.to_dense().allclose(&c_ref, 1e-12));
    }

    #[test]
    fn masked_contraction_restricts_output() {
        let a = random_sparse(&[4, 6], 0.8, 10);
        let b = random_sparse(&[6, 4], 0.8, 11);
        let full = a.contract_sparse("ik,kj->ij", &b).unwrap();
        // mask = diagonal offsets only
        let mask: Vec<u64> = (0..4).map(|i| (i * 4 + i) as u64).collect();
        let masked = a.contract_sparse_masked("ik,kj->ij", &b, &mask).unwrap();
        for (off, v) in masked.entries() {
            assert!(mask.contains(&off));
            assert!((v - full.to_dense().data()[off as usize]).abs() < 1e-12);
        }
        // every diagonal entry of full must be present in masked
        for &off in &mask {
            let fv = full.to_dense().data()[off as usize];
            if fv.abs() > 1e-12 {
                assert!((masked.to_dense().data()[off as usize] - fv).abs() < 1e-12);
            }
        }
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
