//! Shapes, strides and multi-index arithmetic for row-major tensors.

use crate::{Error, Result};

/// The shape (mode dimensions) of a tensor.
///
/// An order-0 shape (no modes) denotes a scalar tensor with one element.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

impl Shape {
    /// Number of modes (tensor order).
    pub fn order(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for order 0).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True if any mode has zero extent.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension of mode `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major strides (last mode fastest).
    pub fn strides(&self) -> Vec<usize> {
        let n = self.0.len();
        let mut s = vec![1usize; n];
        for i in (0..n.saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Flatten a multi-index to a linear (row-major) offset.
    pub fn offset(&self, idx: &[usize]) -> Result<usize> {
        if idx.len() != self.0.len() {
            return Err(Error::BadIndex(format!(
                "index order {} != tensor order {}",
                idx.len(),
                self.0.len()
            )));
        }
        let mut off = 0usize;
        for (k, (&i, &d)) in idx.iter().zip(self.0.iter()).enumerate() {
            if i >= d {
                return Err(Error::BadIndex(format!(
                    "index {i} out of bounds for mode {k} (dim {d})"
                )));
            }
            off = off * d + i;
        }
        Ok(off)
    }

    /// Inverse of [`Shape::offset`]: linear offset to multi-index.
    pub fn unoffset(&self, mut off: usize) -> Vec<usize> {
        let n = self.0.len();
        let mut idx = vec![0usize; n];
        for i in (0..n).rev() {
            let d = self.0[i];
            idx[i] = off % d;
            off /= d;
        }
        idx
    }

    /// Shape obtained by permuting modes: `result.dim(i) == self.dim(perm[i])`.
    pub fn permuted(&self, perm: &[usize]) -> Result<Shape> {
        if !is_permutation(perm, self.order()) {
            return Err(Error::BadIndex(format!(
                "{perm:?} is not a permutation of 0..{}",
                self.order()
            )));
        }
        Ok(Shape(perm.iter().map(|&p| self.0[p]).collect()))
    }

    /// Iterate all multi-indices in row-major order.
    pub fn index_iter(&self) -> IndexIter {
        IndexIter {
            shape: self.0.clone(),
            next: if self.is_empty() {
                None
            } else {
                Some(vec![0; self.0.len()])
            },
        }
    }
}

/// Check that `perm` is a permutation of `0..n`. Allocation-free: tensor
/// orders are a handful of modes and this runs in front of every permute.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    perm.len() == n
        && perm
            .iter()
            .enumerate()
            .all(|(i, &p)| p < n && !perm[..i].contains(&p))
}

/// Row-major iterator over all multi-indices of a shape.
pub struct IndexIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.next.take()?;
        // compute successor (odometer increment, last mode fastest)
        let mut succ = cur.clone();
        let mut i = self.shape.len();
        loop {
            if i == 0 {
                // order-0 tensor: single index, no successor
                self.next = None;
                break;
            }
            i -= 1;
            succ[i] += 1;
            if succ[i] < self.shape[i] {
                self.next = Some(succ);
                break;
            }
            succ[i] = 0;
            if i == 0 {
                self.next = None;
                break;
            }
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.order(), 3);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::from([3, 4, 5]);
        for off in 0..s.len() {
            let idx = s.unoffset(off);
            assert_eq!(s.offset(&idx).unwrap(), off);
        }
    }

    #[test]
    fn offset_bounds_checked() {
        let s = Shape::from([2, 2]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[1, 1]).is_ok());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::from(Vec::new());
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]).unwrap(), 0);
        let all: Vec<_> = s.index_iter().collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn index_iter_visits_all_in_order() {
        let s = Shape::from([2, 3]);
        let all: Vec<_> = s.index_iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![0, 1]);
        assert_eq!(all[5], vec![1, 2]);
        for (k, idx) in all.iter().enumerate() {
            assert_eq!(s.offset(idx).unwrap(), k);
        }
    }

    #[test]
    fn empty_dim_iterates_nothing() {
        let s = Shape::from([2, 0, 3]);
        assert!(s.is_empty());
        assert_eq!(s.index_iter().count(), 0);
    }

    #[test]
    fn permuted_shape() {
        let s = Shape::from([2, 3, 4]);
        let p = s.permuted(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert!(s.permuted(&[0, 0, 1]).is_err());
    }

    #[test]
    fn permutation_check() {
        assert!(is_permutation(&[1, 0, 2], 3));
        assert!(!is_permutation(&[1, 1, 2], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 3, 1], 3));
    }
}
