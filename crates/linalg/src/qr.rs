//! Householder QR factorization.

use crate::{Error, Result};
use tt_tensor::DenseTensor;

/// Thin QR factorization of an `m×n` matrix: `A = Q·R` with `Q` of size
/// `m×min(m,n)` having orthonormal columns and `R` upper-triangular of size
/// `min(m,n)×n`.
pub fn qr_thin(a: &DenseTensor<f64>) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
    if a.order() != 2 {
        return Err(Error::Shape("qr wants a matrix".into()));
    }
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let k = m.min(n);
    // Work on a column-major copy of A for contiguous column access.
    let mut r = vec![0.0f64; m * n]; // column major: r[i + j*m]
    for i in 0..m {
        for j in 0..n {
            r[i + j * m] = a.at(&[i, j]);
        }
    }
    // Householder vectors stored below the diagonal; betas separately.
    let mut betas = vec![0.0f64; k];
    for j in 0..k {
        let (head, rest) = r.split_at_mut((j + 1) * m);
        let col = &mut head[j * m + j..];
        let (beta, tau) = householder(col);
        betas[j] = beta;
        if beta != 0.0 {
            for c in rest.chunks_exact_mut(m) {
                reflect(&col[1..], beta, &mut c[j..]);
            }
        }
        col[0] = tau;
        tt_tensor::counter::add_flops(4 * ((m - j) as u64) * ((n - j) as u64));
    }

    // Build thin Q by applying reflectors to the first k columns of I;
    // reflector j leaves columns before j (still e_c) alone.
    let mut q = vec![0.0f64; m * k]; // column major
    for j in 0..k {
        q[j + j * m] = 1.0;
    }
    for j in (0..k).rev() {
        if betas[j] == 0.0 {
            continue;
        }
        let tail = &r[j * m + j + 1..(j + 1) * m];
        for c in q[j * m..].chunks_exact_mut(m) {
            reflect(tail, betas[j], &mut c[j..]);
        }
    }

    // Materialize row-major outputs; zero the sub-diagonal of R.
    let mut qo = DenseTensor::zeros([m, k]);
    for i in 0..m {
        for j in 0..k {
            qo.set(&[i, j], q[i + j * m]);
        }
    }
    let mut ro = DenseTensor::zeros([k, n]);
    for i in 0..k {
        for j in i..n {
            ro.set(&[i, j], r[i + j * m]);
        }
    }
    Ok((qo, ro))
}

/// Householder reflector of `x`: on return `x[1..]` holds the tail of `v`
/// (`v[0] = 1` implied) and the result is `(β, α)` with
/// `(I − β·v·vᵀ)·x = α·e₁`, `α ≥ 0` unless `x[1..]` was already zero
/// (then `β = 0` and `α = x[0]`). `x[0]` itself is left as it was.
pub(crate) fn householder(x: &mut [f64]) -> (f64, f64) {
    let alpha = x[0];
    let sigma = dot(&x[1..], &x[1..]);
    if sigma == 0.0 {
        // no off-diagonal mass: nothing to reflect
        return (0.0, alpha);
    }
    let mu = (alpha * alpha + sigma).sqrt();
    // v = x − μ·e₁ with the cancellation-free form for α > 0
    let v0 = if alpha <= 0.0 {
        alpha - mu
    } else {
        -sigma / (alpha + mu)
    };
    let v0sq = v0 * v0;
    let beta = 2.0 * v0sq / (sigma + v0sq);
    for t in x[1..].iter_mut() {
        *t /= v0;
    }
    (beta, mu)
}

/// `y ← (I − β·v·vᵀ)·y` for `v = (1, tail)`.
pub(crate) fn reflect(tail: &[f64], beta: f64, y: &mut [f64]) {
    let (y0, ys) = y
        .split_first_mut()
        .expect("a reflector acts on at least one row");
    let w = beta * (*y0 + dot(tail, ys));
    *y0 -= w;
    for (yi, &vi) in ys.iter_mut().zip(tail) {
        *yi -= w * vi;
    }
}

/// `Σ xᵢ·yᵢ` in four interleaved partial sums (lane `i mod 4`) added as
/// `(s₀ + s₁) + (s₂ + s₃)`, then the remainder in order: a fixed order the
/// compiler may vectorize without changing a bit.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let split = x.len().min(y.len()) / 4 * 4;
    let mut acc = [0.0f64; 4];
    for (a, b) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
        for l in 0..4 {
            acc[l] += a[l] * b[l];
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (a, b) in x[split..].iter().zip(&y[split..]) {
        s += a * b;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tt_tensor::gemm_f64;

    fn check_qr(a: &DenseTensor<f64>) {
        let (q, r) = qr_thin(a).unwrap();
        let (m, n) = (a.dims()[0], a.dims()[1]);
        let k = m.min(n);
        assert_eq!(q.dims(), &[m, k]);
        assert_eq!(r.dims(), &[k, n]);
        // A = QR
        let qr = gemm_f64(&q, &r).unwrap();
        assert!(qr.allclose(a, 1e-10), "reconstruction failed");
        // Q^T Q = I
        let qtq = tt_tensor::gemm(
            &q,
            tt_tensor::Layout::Transposed,
            &q,
            tt_tensor::Layout::Normal,
        )
        .unwrap();
        assert!(
            qtq.allclose(&DenseTensor::eye(k), 1e-10),
            "Q not orthonormal"
        );
        // R upper triangular
        for i in 0..k {
            for j in 0..i.min(n) {
                assert!(r.at(&[i, j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tall_square_wide() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, n) in [(6, 3), (4, 4), (3, 7), (1, 1), (8, 1), (1, 5), (20, 13)] {
            let a = DenseTensor::<f64>::random([m, n], &mut rng);
            check_qr(&a);
        }
    }

    #[test]
    fn rank_deficient() {
        // two identical columns
        let a = DenseTensor::from_vec([3, 2], vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        let (q, r) = qr_thin(&a).unwrap();
        let qr = gemm_f64(&q, &r).unwrap();
        assert!(qr.allclose(&a, 1e-10));
    }

    #[test]
    fn zero_matrix() {
        let a = DenseTensor::<f64>::zeros([4, 3]);
        let (q, r) = qr_thin(&a).unwrap();
        let qr = gemm_f64(&q, &r).unwrap();
        assert!(qr.allclose(&a, 1e-12));
    }
}
