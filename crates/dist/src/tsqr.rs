//! Communication-avoiding tall-skinny QR (TSQR) on the simulated runtime.
//!
//! Rows are split into one contiguous slab per rank; each slab is factored
//! with [`tt_linalg::qr_thin`], then the `R` factors are merged pairwise up
//! a binary tree — the classic TSQR butterfly. Per tree level the tracker
//! is charged one superstep moving a single `R` (at most `n × n` values),
//! which is what makes TSQR latency-optimal compared to gathering the
//! whole panel.

use crate::cost::CostTracker;
use crate::Result;
use parking_lot::Mutex;
use tt_linalg::qr_thin;
use tt_tensor::gemm::gemm_acc_slices;
use tt_tensor::DenseTensor;

/// TSQR of an `m × n` matrix over `ranks` simulated ranks, the merge tree
/// charged to `tracker`: returns `(Q, R)` with `Q` of size `m × min(m, n)`
/// having orthonormal columns.
///
/// Numerically this is a genuine tree QR (not a gathered factorization),
/// so `Q`/`R` match [`qr_thin`] only up to per-column sign.
pub fn tsqr(
    a: &DenseTensor<f64>,
    ranks: usize,
    tracker: &Mutex<CostTracker>,
) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
    if a.order() != 2 {
        return Err(crate::Error::Runtime(format!(
            "tsqr wants a matrix, got order {}",
            a.order()
        )));
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let p = ranks.clamp(1, m.max(1));
    if p == 1 {
        return Ok(qr_thin(a)?);
    }

    // Local slab factorizations (one per simulated rank).
    let rows_per = m.div_ceil(p);
    let data = a.data();
    let mut factors: Vec<(DenseTensor<f64>, DenseTensor<f64>)> = Vec::new();
    let mut r0 = 0usize;
    while r0 < m {
        let r1 = (r0 + rows_per).min(m);
        let slab = DenseTensor::from_vec([r1 - r0, n], data[r0 * n..r1 * n].to_vec())?;
        factors.push(qr_thin(&slab)?);
        r0 = r1;
    }
    merge_tree(factors, n, tracker)
}

/// Merge slab `(Q, R)` factors pairwise up the binary tree; one superstep
/// per level, critical path carries one `R` factor (≤ `n×n` words).
fn merge_tree(
    mut factors: Vec<(DenseTensor<f64>, DenseTensor<f64>)>,
    n: usize,
    tracker: &Mutex<CostTracker>,
) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
    while factors.len() > 1 {
        let mut next = Vec::with_capacity(factors.len().div_ceil(2));
        let mut max_r_words = 0usize;
        let mut pairs = factors.into_iter();
        while let Some((q1, r1)) = pairs.next() {
            match pairs.next() {
                Some((q2, r2)) => {
                    let k1 = r1.dims()[0];
                    let k2 = r2.dims()[0];
                    max_r_words = max_r_words.max(k2 * n);
                    // Stack [R1; R2] and factor again.
                    let mut stacked = Vec::with_capacity((k1 + k2) * n);
                    stacked.extend_from_slice(r1.data());
                    stacked.extend_from_slice(r2.data());
                    let s = DenseTensor::from_vec([k1 + k2, n], stacked)?;
                    let (qs, r) = qr_thin(&s)?;
                    let kk = qs.dims()[1];
                    // Propagate: Q ← [Q1·Qs_top ; Q2·Qs_bot]. Qs is
                    // row-major, so the two row blocks are contiguous.
                    let qs_data = qs.data();
                    let top = &qs_data[..k1 * kk];
                    let bot = &qs_data[k1 * kk..(k1 + k2) * kk];
                    let m1 = q1.dims()[0];
                    let m2 = q2.dims()[0];
                    let mut q = vec![0.0f64; (m1 + m2) * kk];
                    gemm_acc_slices(m1, k1, kk, q1.data(), top, &mut q[..m1 * kk]);
                    gemm_acc_slices(m2, k2, kk, q2.data(), bot, &mut q[m1 * kk..]);
                    next.push((DenseTensor::from_vec([m1 + m2, kk], q)?, r));
                }
                None => next.push((q1, r1)), // odd leftover rides up a level
            }
        }
        CostTracker::charge_p2p(tracker, 8 * max_r_words as u64);
        factors = next;
    }
    let (q, r) = factors.pop().expect("non-empty tree");
    Ok((q, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tt_tensor::{gemm, gemm_f64, Layout};

    fn tracker(p: usize) -> Mutex<CostTracker> {
        Mutex::new(CostTracker::new(Machine::blue_waters(16), p))
    }

    #[test]
    fn reconstructs_and_is_orthonormal() {
        let mut rng = StdRng::seed_from_u64(51);
        let a = DenseTensor::<f64>::random([96, 7], &mut rng);
        for p in [2usize, 3, 4, 8] {
            let c = tracker(p);
            let (q, r) = tsqr(&a, p, &c).unwrap();
            assert_eq!(q.dims(), &[96, 7]);
            assert_eq!(r.dims(), &[7, 7]);
            assert!(gemm_f64(&q, &r).unwrap().allclose(&a, 1e-10), "p={p}");
            let qtq = gemm(&q, Layout::Transposed, &q, Layout::Normal).unwrap();
            assert!(qtq.allclose(&DenseTensor::eye(7), 1e-10), "p={p}");
            let t = c.lock();
            assert!(t.supersteps >= (p as f64).log2().ceil() as u64);
            assert!(t.bytes_critical > 0);
        }
    }

    #[test]
    fn matches_qr_thin_up_to_sign() {
        let mut rng = StdRng::seed_from_u64(52);
        let a = DenseTensor::<f64>::random([64, 5], &mut rng);
        let (q_ref, r_ref) = qr_thin(&a).unwrap();
        let c = tracker(4);
        let (q, r) = tsqr(&a, 4, &c).unwrap();
        for j in 0..5 {
            // Column sign fixed by comparing the leading R entries.
            let sign = (r.at(&[j, j]) * r_ref.at(&[j, j])).signum();
            for i in 0..64 {
                assert!(
                    (q.at(&[i, j]) - sign * q_ref.at(&[i, j])).abs() < 1e-9,
                    "Q column {j} differs beyond sign"
                );
            }
            for jj in j..5 {
                assert!((r.at(&[j, jj]) - sign * r_ref.at(&[j, jj])).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_rank_degenerates_to_qr_thin() {
        let mut rng = StdRng::seed_from_u64(53);
        let a = DenseTensor::<f64>::random([20, 4], &mut rng);
        let c = tracker(1);
        let (q, r) = tsqr(&a, 1, &c).unwrap();
        let (q2, r2) = qr_thin(&a).unwrap();
        assert_eq!(q.data(), q2.data());
        assert_eq!(r.data(), r2.data());
        assert_eq!(c.lock().supersteps, 0);
    }

    #[test]
    fn wide_matrix_still_factors() {
        let mut rng = StdRng::seed_from_u64(54);
        let a = DenseTensor::<f64>::random([6, 10], &mut rng);
        let c = tracker(3);
        let (q, r) = tsqr(&a, 3, &c).unwrap();
        assert!(gemm_f64(&q, &r).unwrap().allclose(&a, 1e-10));
    }
}
