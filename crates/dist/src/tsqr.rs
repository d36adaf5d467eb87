//! Communication-avoiding tall-skinny QR (TSQR) on the simulated runtime.
//!
//! Rows are split into one contiguous slab per rank; each slab is factored
//! with [`tt_linalg::qr_thin`], then the `R` factors are merged pairwise up
//! a binary tree — the classic TSQR butterfly. Per tree level the tracker
//! is charged one superstep moving a single `R` (at most `n × n` values),
//! which is what makes TSQR latency-optimal compared to gathering the
//! whole panel.

use crate::cost::CostTracker;
use crate::exec::{decode_qr, keys, DenseOp, Superstep};
use crate::transport::worker::{Op, Request};
use crate::{Executor, Result};
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

/// TSQR over the executor's own ranks and tracker, with the slab
/// factorizations executed on its worker ranks (one `qr_thin`
/// task per slab, round-robin) and the `R`-merge tree run on the driver.
/// Slab boundaries and merge order are identical to [`tsqr`], so the
/// factors are bitwise-identical to the in-process run — which is also
/// what an executor without worker processes falls back to.
///
/// The panel is taken by value or by resident handle. A handle's row
/// slabs are stored on the worker ranks at first use (same lifecycle as
/// every other operand handle — [`Executor::free`] releases them), so
/// repeated factorizations of the same panel ship zero operand bytes; the
/// one-time upload is charged on first use on every backend, so the
/// counters stay backend-identical.
pub fn tsqr_on<'a>(
    exec: &Executor,
    a: impl Into<DenseOp<'a>>,
) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
    let (ranks, tracker) = (exec.ranks(), exec.tracker());
    let a = a.into();
    let (h, a) = (a.handle(), a.tensor()?);
    if a.order() != 2 {
        return Err(crate::Error::Runtime(format!(
            "tsqr wants a matrix, got order {}",
            a.order()
        )));
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let p = ranks.clamp(1, m.max(1));
    if let Some(h) = h {
        let lkey = keys::tsqr_slabs(h, p).logical();
        if exec.residency().lock().observe(h.key(), lkey) {
            CostTracker::charge_p2p(tracker, 8 * (m * n) as u64);
        }
    }
    let factors = exec.with_cluster(|cluster| -> Result<_> {
        let rows_per = m.div_ceil(p);
        let nslabs = m.div_ceil(rows_per.max(1));
        let workers = cluster.ranks();
        let slab = |i: usize| (i * rows_per, ((i + 1) * rows_per).min(m));
        let data = |i: usize| a.data()[slab(i).0 * n..slab(i).1 * n].to_vec();
        let mut step = Superstep::default();
        let mut fields = Vec::with_capacity(nslabs);
        {
            let mut res = exec.residency().lock();
            for i in 0..nslabs {
                fields.push(match h {
                    None => Op::Inline(data(i)),
                    Some(h) => {
                        let key = keys::tsqr_slabs(h, p).chunk(nslabs, i);
                        step.ensure(&mut res, h.key(), key, i % workers, || {
                            Ok(Request::Upload { key, data: data(i) })
                        })?;
                        Op::Key(key)
                    }
                });
            }
        }
        for (i, a) in fields.into_iter().enumerate() {
            let (rows, cols) = (slab(i).1 - slab(i).0, n);
            step.task(i % workers, Request::QrThin { rows, cols, a });
        }
        step.run(cluster)?.into_iter().map(decode_qr).collect()
    });
    match factors {
        Some(factors) => merge_tree(factors?, n, tracker),
        None => tsqr(a, ranks, tracker),
    }
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

    /// `workers` worker processes simulating `p` ranks.
    #[cfg(unix)]
    fn mp_executor(p: usize, workers: usize) -> Executor {
        let spawn = crate::transport::SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        Executor::multi_process(Machine::blue_waters(1), p, workers, spawn).unwrap()
    }

    #[cfg(unix)]
    #[test]
    fn tsqr_on_cluster_is_bitwise_identical() {
        let mut rng = StdRng::seed_from_u64(55);
        let a = DenseTensor::<f64>::random([96, 7], &mut rng);
        for p in [1usize, 2, 4, 5] {
            let c_ref = tracker(p);
            let (q_ref, r_ref) = tsqr(&a, p, &c_ref).unwrap();
            let mp = mp_executor(p, 3);
            let (q, r) = tsqr_on(&mp, &a).unwrap();
            assert_eq!(q.data(), q_ref.data(), "p={p}");
            assert_eq!(r.data(), r_ref.data(), "p={p}");
            assert_eq!(mp.supersteps(), c_ref.lock().supersteps);
        }
    }

    #[cfg(unix)]
    #[test]
    fn tsqr_on_real_processes_is_bitwise() {
        let mut rng = StdRng::seed_from_u64(56);
        let a = DenseTensor::<f64>::random([64, 5], &mut rng);
        let (q_ref, r_ref) = tsqr(&a, 4, &tracker(4)).unwrap();
        let (q, r) = tsqr_on(&mp_executor(4, 2), &a).unwrap();
        assert_eq!(q.data(), q_ref.data());
        assert_eq!(r.data(), r_ref.data());
    }

    #[test]
    fn tsqr_on_handle_in_process_matches_tsqr_bitwise() {
        use crate::exec::ExecMode;
        let mut rng = StdRng::seed_from_u64(57);
        let a = DenseTensor::<f64>::random([80, 6], &mut rng);
        let exec = crate::Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let h = exec.upload(&a);
        let (q_ref, r_ref) = tsqr(&a, 4, &tracker(4)).unwrap();
        let (q, r) = tsqr_on(&exec, &h).unwrap();
        assert_eq!(q.data(), q_ref.data());
        assert_eq!(r.data(), r_ref.data());
        // the first use charges the one-time panel upload on top of the
        // merge-tree supersteps; the second (cache hit) does not
        let first = exec.tracker().lock().bytes_critical;
        let (q2, _) = tsqr_on(&exec, &h).unwrap();
        assert_eq!(q2.data(), q_ref.data());
        let second = exec.tracker().lock().bytes_critical - first;
        assert!(second < first, "hit must charge less: {second} vs {first}");
        exec.free(&h).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn tsqr_on_handle_over_processes_reuses_resident_slabs() {
        let mut rng = StdRng::seed_from_u64(58);
        let a = DenseTensor::<f64>::random([72, 5], &mut rng);
        let (q_ref, r_ref) = tsqr(&a, 4, &tracker(4)).unwrap();
        let mp = mp_executor(4, 2);
        let h = mp.upload(&a);
        let (q, r) = tsqr_on(&mp, &h).unwrap();
        assert_eq!(q.data(), q_ref.data());
        assert_eq!(r.data(), r_ref.data());
        let first = mp.operand_bytes();
        let (q2, r2) = tsqr_on(&mp, &h).unwrap();
        let repeat = mp.operand_bytes() - first;
        assert_eq!(q2.data(), q_ref.data());
        assert_eq!(r2.data(), r_ref.data());
        // the repeat ships only task headers against the resident slabs
        assert!(
            repeat * 4 < first,
            "resident panel must not re-ship: first {first}, repeat {repeat}"
        );
        mp.free(&h).unwrap();
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
