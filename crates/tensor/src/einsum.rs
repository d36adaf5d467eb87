//! Pairwise Einstein-summation contraction, lowered to GEMM.
//!
//! CTF maps every tensor contraction onto matrix multiplication by fusing
//! free and contracted modes (the "transpose-transpose-GEMM-transpose"
//! strategy); [`einsum`] does the same. The spec grammar is the familiar
//! `"ijk,kl->ijl"`: lower- or upper-case ASCII letters label modes, labels
//! shared between the two inputs are contracted, and the output lists the
//! surviving labels in the desired order.
//!
//! Restrictions (sufficient for DMRG and enforced with errors):
//! * no label may repeat within a single operand (no internal traces),
//! * every shared label is contracted (no batched/Hadamard modes),
//! * every output label must come from exactly one input.

use crate::dense::DenseTensor;
use crate::gemm::gemm_acc_slices;
use crate::scalar::Scalar;
use crate::transpose::permute;
use crate::{Error, Result};

/// A parsed, shape-agnostic contraction plan.
///
/// Parsing a spec once and reusing the plan avoids repeated string work in
/// inner loops (the list algorithm contracts thousands of block pairs with
/// the same spec).
#[derive(Clone, Debug)]
pub struct ContractPlan {
    a_labels: Vec<u8>,
    b_labels: Vec<u8>,
    /// positions of contracted labels in A and B (aligned pairwise)
    ctr_a: Vec<usize>,
    ctr_b: Vec<usize>,
    /// positions of free labels in A and B, in operand order
    free_a: Vec<usize>,
    free_b: Vec<usize>,
    /// permutation taking (free_a ++ free_b) order to out order
    out_perm: Vec<usize>,
    /// TTGT operand permutations: A to (free, contracted), B to
    /// (contracted, free)
    perm_a: Vec<usize>,
    perm_b: Vec<usize>,
}

impl ContractPlan {
    /// Parse a two-operand einsum spec such as `"aik,kjb->aijb"`.
    pub fn parse(spec: &str) -> Result<Self> {
        let (inputs, out) = spec
            .split_once("->")
            .ok_or_else(|| Error::BadSpec(format!("missing '->' in {spec:?}")))?;
        let (a_str, b_str) = inputs
            .split_once(',')
            .ok_or_else(|| Error::BadSpec(format!("need two operands in {spec:?}")))?;
        let a_labels: Vec<u8> = a_str.trim().bytes().collect();
        let b_labels: Vec<u8> = b_str.trim().bytes().collect();
        let out_labels: Vec<u8> = out.trim().bytes().collect();
        for &l in a_labels.iter().chain(&b_labels).chain(&out_labels) {
            if !l.is_ascii_alphabetic() {
                return Err(Error::BadSpec(format!(
                    "label {:?} is not an ASCII letter",
                    l as char
                )));
            }
        }
        let dup = |ls: &[u8]| -> bool {
            let mut seen = [false; 128];
            ls.iter()
                .any(|&l| std::mem::replace(&mut seen[l as usize], true))
        };
        if dup(&a_labels) || dup(&b_labels) || dup(&out_labels) {
            return Err(Error::BadSpec(format!(
                "repeated label within operand in {spec:?}"
            )));
        }

        let mut ctr_a = Vec::new();
        let mut ctr_b = Vec::new();
        let mut free_a = Vec::new();
        let mut free_b = Vec::new();
        for (i, &l) in a_labels.iter().enumerate() {
            if let Some(j) = b_labels.iter().position(|&m| m == l) {
                if out_labels.contains(&l) {
                    return Err(Error::BadSpec(format!(
                        "label {:?} shared by both inputs may not appear in output",
                        l as char
                    )));
                }
                ctr_a.push(i);
                ctr_b.push(j);
            } else {
                if !out_labels.contains(&l) {
                    return Err(Error::BadSpec(format!(
                        "label {:?} appears only in first operand but not in output",
                        l as char
                    )));
                }
                free_a.push(i);
            }
        }
        for (j, &l) in b_labels.iter().enumerate() {
            if !a_labels.contains(&l) {
                if !out_labels.contains(&l) {
                    return Err(Error::BadSpec(format!(
                        "label {:?} appears only in second operand but not in output",
                        l as char
                    )));
                }
                free_b.push(j);
            }
        }
        if out_labels.len() != free_a.len() + free_b.len() {
            return Err(Error::BadSpec(format!(
                "output labels of {spec:?} must be exactly the free labels"
            )));
        }

        // natural order = free_a labels then free_b labels; out_perm maps
        // output mode i -> position in natural order
        let natural: Vec<u8> = free_a
            .iter()
            .map(|&i| a_labels[i])
            .chain(free_b.iter().map(|&j| b_labels[j]))
            .collect();
        let mut out_perm = Vec::with_capacity(out_labels.len());
        for &l in &out_labels {
            let p = natural
                .iter()
                .position(|&m| m == l)
                .ok_or_else(|| Error::BadSpec(format!("output label {:?} not free", l as char)))?;
            out_perm.push(p);
        }

        let perm_a = free_a.iter().chain(&ctr_a).copied().collect();
        let perm_b = ctr_b.iter().chain(&free_b).copied().collect();
        Ok(Self {
            a_labels,
            b_labels,
            ctr_a,
            ctr_b,
            free_a,
            free_b,
            out_perm,
            perm_a,
            perm_b,
        })
    }

    /// Orders expected of the two operands.
    pub fn operand_orders(&self) -> (usize, usize) {
        (self.a_labels.len(), self.b_labels.len())
    }

    /// Positions of the contracted modes in operand A (aligned pairwise with
    /// [`ContractPlan::ctr_b_positions`]).
    pub fn ctr_a_positions(&self) -> &[usize] {
        &self.ctr_a
    }

    /// Positions of the contracted modes in operand B.
    pub fn ctr_b_positions(&self) -> &[usize] {
        &self.ctr_b
    }

    /// Positions of the free (surviving) modes in operand A, operand order.
    pub fn free_a_positions(&self) -> &[usize] {
        &self.free_a
    }

    /// Positions of the free modes in operand B, operand order.
    pub fn free_b_positions(&self) -> &[usize] {
        &self.free_b
    }

    /// Permutation from the natural result order (A-free then B-free) to the
    /// requested output order.
    pub fn output_permutation(&self) -> &[usize] {
        &self.out_perm
    }

    /// The TTGT operand permutations: `A` to `(free, contracted)` and `B`
    /// to `(contracted, free)` order — the matrices the GEMM reads.
    pub fn operand_permutations(&self) -> (&[usize], &[usize]) {
        (&self.perm_a, &self.perm_b)
    }

    /// Predict the output shape for given operand shapes (validates
    /// contracted-dimension agreement).
    pub fn output_dims(&self, a_dims: &[usize], b_dims: &[usize]) -> Result<Vec<usize>> {
        if a_dims.len() != self.a_labels.len() || b_dims.len() != self.b_labels.len() {
            return Err(Error::ShapeMismatch(format!(
                "operand orders {}/{} don't match plan {}/{}",
                a_dims.len(),
                b_dims.len(),
                self.a_labels.len(),
                self.b_labels.len()
            )));
        }
        for (&ia, &ib) in self.ctr_a.iter().zip(&self.ctr_b) {
            if a_dims[ia] != b_dims[ib] {
                return Err(Error::ShapeMismatch(format!(
                    "contracted dims {} != {} for label {:?}",
                    a_dims[ia], b_dims[ib], self.a_labels[ia] as char
                )));
            }
        }
        let natural: Vec<usize> = self
            .free_a
            .iter()
            .map(|&i| a_dims[i])
            .chain(self.free_b.iter().map(|&j| b_dims[j]))
            .collect();
        Ok(self.out_perm.iter().map(|&p| natural[p]).collect())
    }

    /// Number of flops the contraction will execute (classical algorithm).
    pub fn flop_count(&self, a_dims: &[usize], b_dims: &[usize]) -> u64 {
        let m: u64 = self.free_a.iter().map(|&i| a_dims[i] as u64).product();
        let n: u64 = self.free_b.iter().map(|&j| b_dims[j] as u64).product();
        let k: u64 = self.ctr_a.iter().map(|&i| a_dims[i] as u64).product();
        2 * m * n * k
    }

    /// Execute the contraction.
    pub fn execute<T: Scalar>(
        &self,
        a: &DenseTensor<T>,
        b: &DenseTensor<T>,
    ) -> Result<DenseTensor<T>> {
        let out_dims = self.output_dims(a.dims(), b.dims())?;

        // Fuse A to (free, ctr) and B to (ctr, free) matrices.
        let m: usize = self.free_a.iter().map(|&i| a.dims()[i]).product();
        let k: usize = self.ctr_a.iter().map(|&i| a.dims()[i]).product();
        let n: usize = self.free_b.iter().map(|&j| b.dims()[j]).product();

        let a_mat = permute(a, &self.perm_a)?;
        let b_mat = permute(b, &self.perm_b)?;

        let mut c = vec![T::zero(); m * n];
        gemm_acc_slices(m, k, n, a_mat.data(), b_mat.data(), &mut c);

        // natural shape = free_a dims ++ free_b dims, then permute to out order
        let natural_dims: Vec<usize> = self
            .free_a
            .iter()
            .map(|&i| a.dims()[i])
            .chain(self.free_b.iter().map(|&j| b.dims()[j]))
            .collect();
        let c = DenseTensor::from_vec(natural_dims, c)?;
        let c = permute(&c, &self.out_perm)?;
        debug_assert_eq!(c.dims(), &out_dims[..]);
        Ok(c)
    }
}

/// Contract two tensors: `einsum("ik,kj->ij", &a, &b)`.
pub fn einsum<T: Scalar>(
    spec: &str,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
) -> Result<DenseTensor<T>> {
    ContractPlan::parse(spec)?.execute(a, b)
}

/// Contract and accumulate into an existing tensor: `out += einsum(spec, a, b)`.
pub fn einsum_into<T: Scalar>(
    spec: &str,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
    out: &mut DenseTensor<T>,
) -> Result<()> {
    let r = einsum(spec, a, b)?;
    out.axpy(T::one(), &r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_via_einsum() {
        let a = DenseTensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseTensor::from_vec([2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = einsum("ik,kj->ij", &a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn output_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = DenseTensor::<f64>::random([3, 4], &mut rng);
        let b = DenseTensor::<f64>::random([4, 5], &mut rng);
        let c = einsum("ik,kj->ji", &a, &b).unwrap();
        let c2 = einsum("ik,kj->ij", &a, &b).unwrap();
        assert!(c.allclose(&c2.permute(&[1, 0]).unwrap(), 1e-13));
    }

    #[test]
    fn outer_product() {
        let a = DenseTensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = DenseTensor::from_vec([3], vec![1.0, 10.0, 100.0]).unwrap();
        let c = einsum("i,j->ij", &a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.at(&[1, 2]), 200.0);
    }

    #[test]
    fn full_contraction_to_scalar() {
        let a = DenseTensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let c = einsum("ij,ij->", &a, &a).unwrap();
        assert_eq!(c.order(), 0);
        assert_eq!(c.at(&[]), 30.0);
    }

    #[test]
    fn order3_contraction_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = DenseTensor::<f64>::random([2, 3, 4], &mut rng);
        let b = DenseTensor::<f64>::random([4, 3, 5], &mut rng);
        // contract j (dim 3) and k (dim 4): c[a,c'] = sum_{jk} A[a,j,k] B[k,j,c']
        let c = einsum("ajk,kjc->ac", &a, &b).unwrap();
        let mut naive = DenseTensor::<f64>::zeros([2, 5]);
        for ia in 0..2 {
            for ic in 0..5 {
                let mut s = 0.0;
                for j in 0..3 {
                    for k in 0..4 {
                        s += a.at(&[ia, j, k]) * b.at(&[k, j, ic]);
                    }
                }
                naive.set(&[ia, ic], s);
            }
        }
        assert!(c.allclose(&naive, 1e-12));
    }

    #[test]
    fn mps_style_contraction() {
        // environment update shape test: L[i,k,j], T[j,s,j2] -> X[i,k,s,j2]
        let mut rng = StdRng::seed_from_u64(3);
        let l = DenseTensor::<f64>::random([3, 2, 3], &mut rng);
        let t = DenseTensor::<f64>::random([3, 2, 4], &mut rng);
        let x = einsum("ikj,jsm->iksm", &l, &t).unwrap();
        assert_eq!(x.dims(), &[3, 2, 2, 4]);
        // spot check one element
        let mut s = 0.0;
        for j in 0..3 {
            s += l.at(&[1, 0, j]) * t.at(&[j, 1, 2]);
        }
        assert!((x.at(&[1, 0, 1, 2]) - s).abs() < 1e-12);
    }

    #[test]
    fn spec_errors() {
        let a = DenseTensor::<f64>::zeros([2, 2]);
        assert!(einsum("ij,jk", &a, &a).is_err()); // no arrow
        assert!(einsum("ii,jk->ijk", &a, &a).is_err()); // repeated label in operand
        assert!(einsum("ij,jk->ijk", &a, &a).is_err()); // contracted label in output
        assert!(einsum("ij,jk->i", &a, &a).is_err()); // free label k dropped
        assert!(einsum("ij,kl->ijkl", &a, &DenseTensor::<f64>::zeros([2])).is_err());
        // order mismatch
    }

    #[test]
    fn contracted_dim_mismatch() {
        let a = DenseTensor::<f64>::zeros([2, 3]);
        let b = DenseTensor::<f64>::zeros([4, 2]);
        assert!(einsum("ik,kj->ij", &a, &b).is_err());
    }

    #[test]
    fn plan_reuse_and_flop_count() {
        let plan = ContractPlan::parse("ik,kj->ij").unwrap();
        assert_eq!(plan.operand_orders(), (2, 2));
        assert_eq!(plan.flop_count(&[8, 4], &[4, 16]), 2 * 8 * 4 * 16);
        assert_eq!(plan.output_dims(&[8, 4], &[4, 16]).unwrap(), vec![8, 16]);
        let mut rng = StdRng::seed_from_u64(4);
        let a = DenseTensor::<f64>::random([8, 4], &mut rng);
        let b = DenseTensor::<f64>::random([4, 16], &mut rng);
        let c1 = plan.execute(&a, &b).unwrap();
        let c2 = einsum("ik,kj->ij", &a, &b).unwrap();
        assert!(c1.allclose(&c2, 0.0));
    }

    #[test]
    fn einsum_into_accumulates() {
        let a = DenseTensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let mut out = DenseTensor::from_vec([2, 2], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        einsum_into("ik,kj->ij", &a, &a, &mut out).unwrap();
        assert_eq!(out.data(), &[2.0, 1.0, 1.0, 2.0]);
    }
}
