//! Singular value decomposition by Golub–Kahan–Reinsch: Householder
//! bidiagonalization, then implicit-shift QR on the bidiagonal.
//!
//! The paper truncates DMRG bonds with ScaLAPACK's `pdgesvd`, which runs
//! the same two phases distributed; here they run unblocked on one core,
//! on the small-to-medium blocks a quantum-number sector produces.
//! [`svd_trunc`] is the one body and [`svd`] is it with nothing dropped.
//! An `m×n` matrix with `m ≥ n` is copied column-major; a wide one is
//! factored as `Aᵀ`, whose column-major copy is `A`'s row-major data. The
//! reflectors are accumulated into `U` (`m×n`) and `V` (`n×n`), and every
//! Givens rotation of the QR iteration — Wilkinson-shifted steps, and the
//! rotations that chase a zero diagonal entry off the bidiagonal — updates
//! two contiguous columns of one of them. Only the kept columns reach the
//! result, copied by slices.

use crate::qr::{householder, reflect};
use crate::{Error, Result};
use tt_tensor::DenseTensor;

/// Truncation policy for [`svd_trunc`].
#[derive(Debug, Clone, Copy)]
pub struct TruncSpec {
    /// Keep at most this many singular values (`usize::MAX` = no cap).
    pub max_rank: usize,
    /// Discard singular values `<= cutoff` (absolute). The paper uses
    /// `1e-12` during sweeps and `1e-13` for MPO compression.
    pub cutoff: f64,
    /// Keep at least this many values (even below cutoff), when available.
    pub min_keep: usize,
}

impl Default for TruncSpec {
    fn default() -> Self {
        Self {
            max_rank: usize::MAX,
            cutoff: 1e-12,
            min_keep: 1,
        }
    }
}

impl TruncSpec {
    /// Cap the rank.
    pub fn with_max_rank(mut self, r: usize) -> Self {
        self.max_rank = r;
        self
    }
}

/// Result of a (truncated) SVD: `A ≈ U · diag(s) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// Left vectors `m×r` (orthonormal columns).
    pub u: DenseTensor<f64>,
    /// Kept singular values, descending.
    pub s: Vec<f64>,
    /// Right vectors `r×n` (orthonormal rows).
    pub vt: DenseTensor<f64>,
    /// Sum of squares of the discarded singular values (the DMRG
    /// truncation error).
    pub trunc_err: f64,
    /// Number of singular values discarded.
    pub n_discarded: usize,
}

impl TruncatedSvd {
    /// Fix the sign gauge of every kept triple: the largest-magnitude entry
    /// of `u_k` (the first one on ties) becomes positive, and row `k` of
    /// `Vᵀ` flips with it. Two factorizations of the same matrix then agree
    /// on their vectors up to rotations inside degenerate subspaces,
    /// whatever algorithm produced them. Idempotent.
    pub fn fix_signs(&mut self) {
        let r = self.s.len();
        if r == 0 {
            return;
        }
        let mut best = vec![0.0f64; r];
        let mut flip = vec![false; r];
        for row in self.u.data().chunks_exact(r) {
            for ((b, f), &x) in best.iter_mut().zip(&mut flip).zip(row) {
                if x.abs() > *b {
                    *b = x.abs();
                    *f = x < 0.0;
                }
            }
        }
        for row in self.u.data_mut().chunks_exact_mut(r) {
            for (x, _) in row.iter_mut().zip(&flip).filter(|(_, &f)| f) {
                *x = -*x;
            }
        }
        let n = self.vt.dims()[1];
        for (row, _) in self
            .vt
            .data_mut()
            .chunks_exact_mut(n.max(1))
            .zip(&flip)
            .filter(|(_, &f)| f)
        {
            row.iter_mut().for_each(|x| *x = -*x);
        }
    }
}

/// Implicit QR steps the bidiagonal may take per singular value before
/// [`svd_trunc`] gives up with [`Error::NoConvergence`]. Wilkinson-shifted
/// steps converge cubically and take about two per value; only a matrix
/// holding a NaN or an infinity spends the budget.
const QR_STEPS_PER_VALUE: usize = 30;

/// Full SVD of an `m×n` matrix: [`svd_trunc`] keeping all `min(m, n)`
/// triples.
pub fn svd(a: &DenseTensor<f64>) -> Result<TruncatedSvd> {
    let keep_all = TruncSpec {
        max_rank: usize::MAX,
        cutoff: 0.0,
        min_keep: usize::MAX,
    };
    svd_trunc(a, keep_all)
}

/// Truncated SVD according to a [`TruncSpec`]; reports the discarded weight.
pub fn svd_trunc(a: &DenseTensor<f64>, spec: TruncSpec) -> Result<TruncatedSvd> {
    let &[m, n] = a.dims() else {
        return Err(Error::Shape("svd wants a matrix".into()));
    };
    if m == 0 || n == 0 {
        return Ok(TruncatedSvd {
            u: DenseTensor::zeros([m, 0]),
            s: vec![],
            vt: DenseTensor::zeros([0, n]),
            trunc_err: 0.0,
            n_discarded: 0,
        });
    }
    // Aᵀ = U'·Σ·V'ᵀ gives A = V'·Σ·U'ᵀ: for a wide A the factor with
    // columns of length m is V', the one with columns of length n is U'
    let wide = m < n;
    let work = if wide {
        a.data().to_vec()
    } else {
        let mut w = vec![0.0f64; m * n];
        for (i, row) in a.data().chunks_exact(n).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                w[i + j * m] = x;
            }
        }
        w
    };
    let (rows, cols) = if wide { (n, m) } else { (m, n) };
    let f = gkr(rows, cols, work)?;
    let (left, right) = if wide { (&f.v, &f.u) } else { (&f.u, &f.v) };

    let mut keep = 0usize;
    for (i, &sv) in f.s.iter().enumerate() {
        if i < spec.min_keep || (sv > spec.cutoff && i < spec.max_rank) {
            keep = i + 1;
        } else {
            break;
        }
    }
    keep = keep.min(spec.max_rank.max(spec.min_keep));
    let trunc_err: f64 = f.s[keep..].iter().map(|x| x * x).sum();

    let mut u = vec![0.0f64; m * keep];
    if keep > 0 {
        for (i, row) in u.chunks_exact_mut(keep).enumerate() {
            for (x, &c) in row.iter_mut().zip(&f.order) {
                *x = left[i + c * m];
            }
        }
    }
    let mut vt = vec![0.0f64; keep * n];
    for (row, &c) in vt.chunks_exact_mut(n).zip(&f.order) {
        row.copy_from_slice(&right[c * n..(c + 1) * n]);
    }
    Ok(TruncatedSvd {
        u: DenseTensor::from_vec([m, keep], u)?,
        s: f.s[..keep].to_vec(),
        vt: DenseTensor::from_vec([keep, n], vt)?,
        trunc_err,
        n_discarded: cols - keep,
    })
}

/// `A = U·diag(σ)·Vᵀ` of a column-major `m×n` matrix, `m ≥ n`: `U` is
/// `m×n` and `V` is `n×n`, both column-major, their columns in the order
/// the values converged. `s` holds the values descending, and `order[k]`
/// is the column of `U` and `V` that belongs to `s[k]`.
struct Factors {
    u: Vec<f64>,
    v: Vec<f64>,
    s: Vec<f64>,
    order: Vec<usize>,
}

/// Golub–Kahan–Reinsch on a column-major `m×n` working copy, `m ≥ n ≥ 1`.
fn gkr(m: usize, n: usize, mut a: Vec<f64>) -> Result<Factors> {
    debug_assert!(m >= n && n >= 1 && a.len() == m * n);
    // --- Householder bidiagonalization: A = Q_U · B · Q_Vᵀ -------------------
    // Left reflector k stays in column k of `a` below the diagonal; right
    // reflector k (acting on rows k+1..n of V) goes to column k of `rv`.
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    let mut beta_u = vec![0.0f64; n];
    let mut beta_v = vec![0.0f64; n];
    let mut rv = vec![0.0f64; n * n];
    let mut z = vec![0.0f64; m];
    let mut flops = 0u64;
    for k in 0..n {
        let (head, rest) = a.split_at_mut((k + 1) * m);
        let col = &mut head[k * m + k..];
        let (beta, alpha) = householder(col);
        (d[k], beta_u[k]) = (alpha, beta);
        if beta != 0.0 {
            for c in rest.chunks_exact_mut(m) {
                reflect(&col[1..], beta, &mut c[k..]);
            }
        }
        flops += 4 * ((m - k) * (n - k)) as u64;
        if k + 1 == n {
            break;
        }
        // row k right of the superdiagonal, gathered into rv's column k
        let x = &mut rv[k * n + k + 1..(k + 1) * n];
        for (xj, c) in x.iter_mut().zip(rest.chunks_exact(m)) {
            *xj = c[k];
        }
        let (beta, alpha) = householder(x);
        (e[k], beta_v[k]) = (alpha, beta);
        x[0] = 1.0;
        if beta != 0.0 {
            // rows k+1..m: A ← A − β·(A·v)·vᵀ, one column at a time
            let z = &mut z[..m - k - 1];
            z.fill(0.0);
            for (c, &vj) in rest.chunks_exact(m).zip(x.iter()) {
                for (zi, &ai) in z.iter_mut().zip(&c[k + 1..]) {
                    *zi += vj * ai;
                }
            }
            for (c, &vj) in rest.chunks_exact_mut(m).zip(x.iter()) {
                let w = beta * vj;
                for (ai, &zi) in c[k + 1..].iter_mut().zip(z.iter()) {
                    *ai -= w * zi;
                }
            }
        }
        flops += 4 * ((m - k - 1) * (n - k - 1)) as u64;
    }

    // --- accumulate the reflectors, last first -------------------------------
    let mut u = vec![0.0f64; m * n];
    for j in 0..n {
        u[j + j * m] = 1.0;
    }
    for k in (0..n).rev() {
        if beta_u[k] != 0.0 {
            let tail = &a[k * m + k + 1..(k + 1) * m];
            for c in u[k * m..].chunks_exact_mut(m) {
                reflect(tail, beta_u[k], &mut c[k..]);
            }
        }
        flops += 4 * ((m - k) * (n - k)) as u64;
    }
    let mut v = vec![0.0f64; n * n];
    for j in 0..n {
        v[j + j * n] = 1.0;
    }
    for k in (0..n - 1).rev() {
        if beta_v[k] != 0.0 {
            let tail = &rv[k * n + k + 2..(k + 1) * n];
            for c in v[(k + 1) * n..].chunks_exact_mut(n) {
                reflect(tail, beta_v[k], &mut c[k + 1..]);
            }
        }
        flops += 4 * ((n - k - 1) * (n - k - 1)) as u64;
    }

    // --- implicit-shift QR on the bidiagonal (d, e) --------------------------
    // `p` is one past the last unconverged value; each pass finds the
    // unreduced block lo..p at the bottom (e[lo-1] negligible or lo = 0).
    // Negligible is LINPACK `dsvdc`'s test: below `eps` relative to the
    // neighbouring entries, or below 2⁻⁹⁶⁶ outright.
    let eps = f64::EPSILON;
    let tiny = 2f64.powi(-966);
    let mut budget = QR_STEPS_PER_VALUE * n;
    let mut rotations = (0u64, 0u64); // (on U, on V)
    let mut p = n;
    while p > 0 {
        let mut lo = p - 1;
        while lo > 0 {
            let j = lo - 1;
            if e[j].abs() <= tiny + eps * (d[j].abs() + d[j + 1].abs()) {
                e[j] = 0.0;
                break;
            }
            lo -= 1;
        }
        if lo == p - 1 {
            // d[p-1] has converged: make it non-negative
            if d[lo] <= 0.0 {
                d[lo] = if d[lo] < 0.0 { -d[lo] } else { 0.0 };
                v[lo * n..(lo + 1) * n].iter_mut().for_each(|x| *x = -*x);
            }
            p -= 1;
            continue;
        }
        // a negligible diagonal entry inside the block, bottom first
        let zero = (lo..p).rev().find(|&j| {
            let t = e[j].abs() + if j > lo { e[j - 1].abs() } else { 0.0 };
            d[j].abs() <= tiny + eps * t
        });
        match zero {
            Some(j) if j == p - 1 => {
                // d[p-1] = 0: chase e[p-2] up the block with rotations
                // from the right, which leaves row p-1 zero
                d[j] = 0.0;
                let mut f = e[p - 2];
                e[p - 2] = 0.0;
                for j in (lo..p - 1).rev() {
                    let t = f64::hypot(d[j], f);
                    let (cs, sn) = (d[j] / t, f / t);
                    d[j] = t;
                    if j > lo {
                        f = -sn * e[j - 1];
                        e[j - 1] *= cs;
                    }
                    rotate(&mut v, n, j, p - 1, cs, sn);
                    rotations.1 += 1;
                }
            }
            Some(j) => {
                // d[j] = 0 inside: chase e[j] down the block with rotations
                // from the left, which splits the bidiagonal at j
                d[j] = 0.0;
                let mut f = e[j];
                e[j] = 0.0;
                for i in j + 1..p {
                    let t = f64::hypot(d[i], f);
                    let (cs, sn) = (d[i] / t, f / t);
                    d[i] = t;
                    f = -sn * e[i];
                    e[i] *= cs;
                    rotate(&mut u, m, i, j, cs, sn);
                    rotations.0 += 1;
                }
            }
            None => {
                if budget == 0 {
                    return Err(Error::NoConvergence(format!(
                        "svd of a {m}x{n} matrix: the bidiagonal QR did not converge in {} steps",
                        QR_STEPS_PER_VALUE * n
                    )));
                }
                budget -= 1;
                qr_step(&mut d, &mut e, lo, p, &mut u, &mut v);
                rotations.0 += (p - 1 - lo) as u64;
                rotations.1 += (p - 1 - lo) as u64;
            }
        }
    }
    flops += 6 * (rotations.0 * m as u64 + rotations.1 * n as u64);
    tt_tensor::counter::add_flops(flops);
    if let Some(x) = d.iter().find(|x| !x.is_finite()) {
        return Err(Error::NoConvergence(format!(
            "svd of a {m}x{n} matrix: singular value {x}"
        )));
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[y].total_cmp(&d[x]));
    let s = order.iter().map(|&k| d[k]).collect();
    Ok(Factors { u, v, s, order })
}

/// One Wilkinson-shifted implicit QR step on the unreduced block `lo..p`
/// of the bidiagonal, its rotations applied to the columns of `U`
/// (`m×n`) and `V` (`n×n`), `n = d.len()`.
fn qr_step(d: &mut [f64], e: &mut [f64], lo: usize, p: usize, u: &mut [f64], v: &mut [f64]) {
    let n = d.len();
    let m = u.len() / n;
    // the shift: the eigenvalue of the trailing 2×2 of BᵀB nearer its
    // last diagonal entry, computed on scaled entries
    let scale = [d[p - 1], d[p - 2], e[p - 2], d[lo], e[lo]]
        .iter()
        .fold(0.0f64, |s, x| s.max(x.abs()));
    let (sp, spm1, epm1) = (d[p - 1] / scale, d[p - 2] / scale, e[p - 2] / scale);
    let (sk, ek) = (d[lo] / scale, e[lo] / scale);
    let b = ((spm1 + sp) * (spm1 - sp) + epm1 * epm1) / 2.0;
    let c = (sp * epm1) * (sp * epm1);
    let mut shift = 0.0;
    if b != 0.0 || c != 0.0 {
        shift = (b * b + c).sqrt();
        if b < 0.0 {
            shift = -shift;
        }
        shift = c / (b + shift);
    }
    let mut f = (sk + sp) * (sk - sp) + shift;
    let mut g = sk * ek;
    // chase the bulge down the block
    for j in lo..p - 1 {
        let t = f64::hypot(f, g);
        let (cs, sn) = (f / t, g / t);
        if j > lo {
            e[j - 1] = t;
        }
        f = cs * d[j] + sn * e[j];
        e[j] = cs * e[j] - sn * d[j];
        g = sn * d[j + 1];
        d[j + 1] *= cs;
        rotate(v, n, j, j + 1, cs, sn);
        let t = f64::hypot(f, g);
        let (cs, sn) = (f / t, g / t);
        d[j] = t;
        f = cs * e[j] + sn * d[j + 1];
        d[j + 1] = -sn * e[j] + cs * d[j + 1];
        g = sn * e[j + 1];
        e[j + 1] *= cs;
        rotate(u, m, j, j + 1, cs, sn);
    }
    e[p - 2] = f;
}

/// Rotate columns `i` and `j` (each `len` long) of a column-major matrix:
/// `(xᵢ, xⱼ) ← (c·xᵢ + s·xⱼ, c·xⱼ − s·xᵢ)`.
fn rotate(w: &mut [f64], len: usize, i: usize, j: usize, c: f64, s: f64) {
    let (lo, hi) = (i.min(j), i.max(j));
    let (head, tail) = w.split_at_mut(hi * len);
    let (a, b) = (&mut head[lo * len..(lo + 1) * len], &mut tail[..len]);
    let (x, y) = if i < j { (a, b) } else { (b, a) };
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let t = c * *xi + s * *yi;
        *yi = c * *yi - s * *xi;
        *xi = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tt_tensor::{gemm_f64, Layout};

    fn reconstruct(r: &TruncatedSvd) -> DenseTensor<f64> {
        let rk = r.s.len();
        let mut us = r.u.clone();
        for i in 0..us.dims()[0] {
            for j in 0..rk {
                us.set(&[i, j], us.at(&[i, j]) * r.s[j]);
            }
        }
        gemm_f64(&us, &r.vt).unwrap()
    }

    fn check_svd(a: &DenseTensor<f64>, tol: f64) {
        let r = svd(a).unwrap();
        assert_eq!(r.s.len(), a.dims()[0].min(a.dims()[1]));
        assert!(reconstruct(&r).allclose(a, tol), "A != U S V^T");
        // descending
        for w in r.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        check_orthonormal(&r, 1e-13);
    }

    /// `U` and `Vᵀ` orthonormal to `tol`, every column of `U` included
    /// (those of zero singular values too).
    fn check_orthonormal(r: &TruncatedSvd, tol: f64) {
        let eye = DenseTensor::eye(r.s.len());
        let utu = tt_tensor::gemm(&r.u, Layout::Transposed, &r.u, Layout::Normal).unwrap();
        let vvt = tt_tensor::gemm(&r.vt, Layout::Normal, &r.vt, Layout::Transposed).unwrap();
        assert!(utu.max_diff(&eye).unwrap() < tol, "UᵀU = {utu:?}");
        assert!(vvt.max_diff(&eye).unwrap() < tol, "VVᵀ = {vvt:?}");
    }

    #[test]
    fn shapes_tall_square_wide() {
        let mut rng = StdRng::seed_from_u64(21);
        for (m, n) in [(5, 5), (8, 3), (3, 8), (1, 4), (4, 1), (16, 11), (11, 16)] {
            let a = DenseTensor::<f64>::random([m, n], &mut rng);
            check_svd(&a, 1e-9);
        }
    }

    #[test]
    fn known_singular_values() {
        // diag(3, 2, 1) embedded in 3x3
        let a = DenseTensor::from_vec([3, 3], vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0])
            .unwrap();
        let r = svd(&a).unwrap();
        assert!((r.s[0] - 3.0).abs() < 1e-12);
        assert!((r.s[1] - 2.0).abs() < 1e-12);
        assert!((r.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_one_matrix() {
        // outer product: single nonzero singular value = |u||v|
        let u = [1.0, 2.0, 2.0]; // norm 3
        let v = [3.0, 4.0]; // norm 5
        let a = DenseTensor::from_fn([3, 2], |i| u[i[0]] * v[i[1]]);
        let r = svd(&a).unwrap();
        assert!((r.s[0] - 15.0).abs() < 1e-10);
        assert!(r.s[1].abs() < 1e-10);
    }

    #[test]
    fn frobenius_identity() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = DenseTensor::<f64>::random([7, 9], &mut rng);
        let r = svd(&a).unwrap();
        let s2: f64 = r.s.iter().map(|x| x * x).sum();
        assert!((s2 - a.norm2()).abs() < 1e-9);
    }

    #[test]
    fn truncation_by_rank_and_cutoff() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = DenseTensor::<f64>::random([10, 10], &mut rng);
        let full = svd(&a).unwrap();
        let t = svd_trunc(&a, TruncSpec::default().with_max_rank(4)).unwrap();
        assert_eq!(t.s.len(), 4);
        assert_eq!(t.n_discarded, 6);
        let expect_err: f64 = full.s[4..].iter().map(|x| x * x).sum();
        assert!((t.trunc_err - expect_err).abs() < 1e-9);
        // cutoff larger than everything keeps min_keep
        let t2 = svd_trunc(
            &a,
            TruncSpec {
                max_rank: usize::MAX,
                cutoff: 1e9,
                min_keep: 1,
            },
        )
        .unwrap();
        assert_eq!(t2.s.len(), 1);
    }

    #[test]
    fn truncated_reconstruction_error_is_optimal() {
        // Eckart–Young: rank-k truncation error equals sum of discarded s^2
        let mut rng = StdRng::seed_from_u64(24);
        let a = DenseTensor::<f64>::random([8, 6], &mut rng);
        let t = svd_trunc(&a, TruncSpec::default().with_max_rank(3)).unwrap();
        let mut us = t.u.clone();
        for i in 0..8 {
            for j in 0..t.s.len() {
                us.set(&[i, j], us.at(&[i, j]) * t.s[j]);
            }
        }
        let approx = gemm_f64(&us, &t.vt).unwrap();
        let diff = a.sub(&approx).unwrap();
        assert!((diff.norm2() - t.trunc_err).abs() < 1e-8);
    }

    #[test]
    fn fix_signs_makes_the_largest_entry_of_each_u_column_positive() {
        let mut rng = StdRng::seed_from_u64(25);
        let a = DenseTensor::<f64>::random([6, 5], &mut rng);
        let mut t = svd_trunc(&a, TruncSpec::default()).unwrap();
        t.fix_signs();
        for k in 0..t.s.len() {
            let col: Vec<f64> = (0..6).map(|i| t.u.at(&[i, k])).collect();
            let top = col.iter().fold(0.0f64, |b, x| b.max(x.abs()));
            let first = col.iter().find(|x| x.abs() == top).unwrap();
            assert!(*first > 0.0, "column {k}: {col:?}");
        }
        // still a factorization of A, and a second call changes nothing
        let mut us = t.u.clone();
        for i in 0..6 {
            for j in 0..t.s.len() {
                us.set(&[i, j], us.at(&[i, j]) * t.s[j]);
            }
        }
        assert!(gemm_f64(&us, &t.vt).unwrap().allclose(&a, 1e-10));
        let again = {
            let mut c = t.clone();
            c.fix_signs();
            c
        };
        assert_eq!(again.u.data(), t.u.data());
        assert_eq!(again.vt.data(), t.vt.data());
    }

    #[test]
    fn zero_matrix_svd() {
        let a = DenseTensor::<f64>::zeros([4, 4]);
        let r = svd(&a).unwrap();
        assert!(r.s.iter().all(|&x| x == 0.0));
        check_orthonormal(&r, 1e-15);
        assert!(reconstruct(&r).allclose(&a, 0.0));
    }

    /// The rank-deficient shapes a sweep's sectors produce converge to
    /// full orthonormal factors: two equal columns, zero rows, and the
    /// one-row and one-column extremes.
    #[test]
    fn rank_deficient_and_thin_shapes_converge() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut twin = DenseTensor::<f64>::random([4, 4], &mut rng);
        for i in 0..4 {
            twin.set(&[i, 3], twin.at(&[i, 1]));
        }
        let mut zero_rows = DenseTensor::<f64>::random([6, 4], &mut rng);
        for j in 0..4 {
            zero_rows.set(&[1, j], 0.0);
            zero_rows.set(&[4, j], 0.0);
        }
        let zero_cols = zero_rows.permute(&[1, 0]).unwrap();
        let mut cases = vec![twin, zero_rows, zero_cols];
        for (m, n) in [(1, 1), (1, 7), (7, 1), (1, 64), (64, 1)] {
            cases.push(DenseTensor::<f64>::random([m, n], &mut rng));
        }
        for a in &cases {
            check_svd(a, 1e-12);
        }
        // two equal columns: rank 3
        let r = svd(&cases[0]).unwrap();
        assert!(r.s[2] > 1e-3 && r.s[3] < 1e-14 * r.s[0], "{:?}", r.s);
    }

    /// An upper-bidiagonal matrix passes the Householder phase untouched,
    /// so an exact zero on its diagonal reaches the QR iteration: at the
    /// bottom of a block it is chased up by rotations from the right, above
    /// it down by rotations from the left.
    #[test]
    fn zero_diagonal_entries_are_chased_off_the_bidiagonal() {
        for d in [
            [1.0, 2.0, 3.0, 0.0],
            [1.0, 0.0, 2.0, 3.0],
            [0.0, 1.0, 2.0, 3.0],
            [2.0, 0.0, 0.0, 1.0],
        ] {
            let a = DenseTensor::from_fn([5, 4], |ij| match ij[1] as i64 - ij[0] as i64 {
                0 => d[ij[0]],
                1 => 1.0 + ij[0] as f64,
                _ => 0.0,
            });
            check_svd(&a, 1e-13);
            // a zero on the diagonal makes the matrix singular
            let r = svd(&a).unwrap();
            assert!(r.s[3] < 1e-15, "{d:?}: {:?}", r.s);
        }
    }

    /// A NaN or an infinity never converges: the QR iteration spends its
    /// budget (or finds a non-finite value) and says so, typed.
    #[test]
    fn non_finite_input_is_no_convergence() {
        let mut rng = StdRng::seed_from_u64(27);
        for (dims, at, x) in [
            ([5, 5], [2, 3], f64::NAN),
            ([6, 3], [0, 0], f64::INFINITY),
            ([3, 6], [2, 5], f64::NAN),
            ([1, 1], [0, 0], f64::NAN),
        ] {
            let mut a = DenseTensor::<f64>::random(dims, &mut rng);
            a.set(&at, x);
            let err = svd_trunc(&a, TruncSpec::default()).unwrap_err();
            assert!(matches!(err, Error::NoConvergence(_)), "{dims:?}: {err}");
        }
    }
}
