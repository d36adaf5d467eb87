//! Property-based tests for the linear-algebra layer.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tt_linalg::{eigh, qr_thin, svd, svd_trunc, TruncSpec};
use tt_tensor::{gemm_f64, DenseTensor, Layout};

fn random_matrix(m: usize, n: usize, seed: u64) -> DenseTensor<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseTensor::random([m, n], &mut rng)
}

/// The spectra the SVD oracle builds matrices from, `k` values, descending,
/// `σ_max = 1`: exponential decay over ten decades; clusters of three equal
/// values; decay over the first half and exact zeros after it.
fn spectrum(kind: usize, k: usize) -> Vec<f64> {
    (0..k)
        .map(|j| match kind {
            0 => 10f64.powf(-10.0 * j as f64 / k as f64),
            1 => 0.5f64.powi((j / 3) as i32),
            _ if 2 * j < k => (-(j as f64)).exp(),
            _ => 0.0,
        })
        .collect()
}

/// The SVD of `A = Q₁·diag(σ)·Q₂ᵀ`, with `Q₁`, `Q₂` orthonormal columns
/// from random QRs, against `σ` itself: no second SVD is consulted. The
/// values must match to `1e-12·σ_max`, `U` and `Vᵀ` be orthonormal to
/// `1e-13` (the vectors of zero and repeated values included), and
/// `U·diag(s)·Vᵀ` reproduce `A` to `1e-12·σ_max`, entry by entry.
fn svd_oracle(m: usize, n: usize, kind: usize, seed: u64) -> Result<(), TestCaseError> {
    let k = m.min(n);
    let sigma = spectrum(kind, k);
    let (q1, _) = qr_thin(&random_matrix(m, k, seed)).unwrap();
    let (q2, _) = qr_thin(&random_matrix(n, k, seed + 1)).unwrap();
    let mut q1s = q1;
    for row in q1s.data_mut().chunks_exact_mut(k) {
        for (x, s) in row.iter_mut().zip(&sigma) {
            *x *= s;
        }
    }
    let a = tt_tensor::gemm(&q1s, Layout::Normal, &q2, Layout::Transposed).unwrap();
    let r = svd(&a).unwrap();
    let what = format!("{m}x{n} spectrum {kind} seed {seed}");
    prop_assert_eq!(r.s.len(), k);
    let ds =
        r.s.iter()
            .zip(&sigma)
            .fold(0.0f64, |d, (x, y)| d.max((x - y).abs()));
    prop_assert!(ds <= 1e-12, "{what}: |s - σ| = {ds:e}");
    let utu = tt_tensor::gemm(&r.u, Layout::Transposed, &r.u, Layout::Normal).unwrap();
    let vvt = tt_tensor::gemm(&r.vt, Layout::Normal, &r.vt, Layout::Transposed).unwrap();
    let eye = DenseTensor::eye(k);
    let (du, dv) = (utu.max_diff(&eye).unwrap(), vvt.max_diff(&eye).unwrap());
    prop_assert!(
        du <= 1e-13 && dv <= 1e-13,
        "{what}: |UᵀU - I| = {du:e}, |VᵀV - I| = {dv:e}"
    );
    let mut us = r.u.clone();
    for row in us.data_mut().chunks_exact_mut(k) {
        for (x, s) in row.iter_mut().zip(&r.s) {
            *x *= s;
        }
    }
    let da = gemm_f64(&us, &r.vt).unwrap().max_diff(&a).unwrap();
    prop_assert!(da <= 1e-12, "{what}: |U S Vᵀ - A| = {da:e}");
    Ok(())
}

/// [`svd_oracle`] at the sizes of the largest sweep sectors and beyond, in
/// release: every spectrum, square.
#[test]
#[ignore = "n = 128 and 256: run in release"]
fn svd_oracle_at_large_sizes() {
    for n in [128, 256] {
        for kind in 0..3 {
            svd_oracle(n, n, kind, 7 + kind as u64).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// QR: reconstruction + orthonormal Q + upper-triangular R, any shape.
    #[test]
    fn qr_invariants(m in 1usize..12, n in 1usize..12, seed in 0u64..10_000) {
        let a = random_matrix(m, n, seed);
        let (q, r) = qr_thin(&a).unwrap();
        let k = m.min(n);
        prop_assert_eq!(q.dims(), &[m, k]);
        prop_assert_eq!(r.dims(), &[k, n]);
        prop_assert!(gemm_f64(&q, &r).unwrap().allclose(&a, 1e-9));
        let qtq = tt_tensor::gemm(&q, Layout::Transposed, &q, Layout::Normal).unwrap();
        prop_assert!(qtq.allclose(&DenseTensor::eye(k), 1e-9));
        for i in 0..k {
            for j in 0..i.min(n) {
                prop_assert!(r.at(&[i, j]).abs() < 1e-10);
            }
        }
    }

    /// SVD: reconstruction, descending spectrum, Frobenius identity.
    #[test]
    fn svd_invariants(m in 1usize..10, n in 1usize..10, seed in 0u64..10_000) {
        let a = random_matrix(m, n, seed);
        let r = svd(&a).unwrap();
        // reconstruct
        let mut us = r.u.clone();
        for i in 0..m {
            for j in 0..r.s.len() {
                us.set(&[i, j], us.at(&[i, j]) * r.s[j]);
            }
        }
        prop_assert!(gemm_f64(&us, &r.vt).unwrap().allclose(&a, 1e-8));
        for w in r.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        let s2: f64 = r.s.iter().map(|x| x * x).sum();
        prop_assert!((s2 - a.norm2()).abs() < 1e-8 * a.norm2().max(1.0));
    }

    /// [`svd_oracle`] at every shape up to 96×96, every spectrum.
    #[test]
    fn svd_matches_a_constructed_spectrum(
        m in 1usize..97,
        n in 1usize..97,
        kind in 0usize..3,
        seed in 0u64..10_000,
    ) {
        svd_oracle(m, n, kind, seed)?;
    }

    /// Eckart–Young: rank-k truncation error equals the discarded weight,
    /// and equals the squared Frobenius distance of the reconstruction.
    #[test]
    fn truncation_optimality(seed in 0u64..10_000, keep in 1usize..5) {
        let a = random_matrix(7, 6, seed);
        let full = svd(&a).unwrap();
        prop_assume!(full.s.len() > keep);
        let t = svd_trunc(&a, TruncSpec { max_rank: keep, cutoff: 0.0, min_keep: 1 }).unwrap();
        prop_assert_eq!(t.s.len(), keep);
        let expect: f64 = full.s[keep..].iter().map(|x| x * x).sum();
        prop_assert!((t.trunc_err - expect).abs() < 1e-9 * expect.max(1.0));
        let mut us = t.u.clone();
        for i in 0..7 {
            for j in 0..keep {
                us.set(&[i, j], us.at(&[i, j]) * t.s[j]);
            }
        }
        let diff = a.sub(&gemm_f64(&us, &t.vt).unwrap()).unwrap();
        prop_assert!((diff.norm2() - t.trunc_err).abs() < 1e-7 * t.trunc_err.max(1.0));
    }

    /// eigh: A·V = V·Λ, orthonormal V, trace identity.
    #[test]
    fn eigh_invariants(n in 1usize..9, seed in 0u64..10_000) {
        let b = random_matrix(n, n, seed);
        let a = b.add(&b.permute(&[1, 0]).unwrap()).unwrap().scaled(0.5);
        let (w, v) = eigh(&a).unwrap();
        let av = gemm_f64(&a, &v).unwrap();
        let mut vl = v.clone();
        for i in 0..n {
            for (j, &wj) in w.iter().enumerate() {
                vl.set(&[i, j], v.at(&[i, j]) * wj);
            }
        }
        prop_assert!(av.allclose(&vl, 1e-7));
        let vtv = tt_tensor::gemm(&v, Layout::Transposed, &v, Layout::Normal).unwrap();
        prop_assert!(vtv.allclose(&DenseTensor::eye(n), 1e-8));
        let tr: f64 = (0..n).map(|i| a.at(&[i, i])).sum();
        prop_assert!((w.iter().sum::<f64>() - tr).abs() < 1e-8 * tr.abs().max(1.0));
    }

    /// SVD of an orthogonal-column matrix has unit singular values.
    #[test]
    fn svd_of_isometry(m in 3usize..10, seed in 0u64..10_000) {
        let a = random_matrix(m, 3.min(m), seed);
        let (q, _) = qr_thin(&a).unwrap();
        // skip rank-deficient random draws
        let r = svd(&q).unwrap();
        prop_assume!(r.s.iter().all(|&s| s > 1e-8));
        for &s in &r.s {
            prop_assert!((s - 1.0).abs() < 1e-8);
        }
    }
}
