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
        // compute reflector for column j, rows j..m
        let (beta, tau) = {
            let col = &mut r[j * m..(j + 1) * m];
            let alpha = col[j];
            let sigma: f64 = col[j + 1..m].iter().map(|x| x * x).sum();
            if sigma == 0.0 {
                // no off-diagonal mass: the column is already triangular
                (0.0, alpha)
            } else {
                let mu = (alpha * alpha + sigma).sqrt();
                // v = x - mu*e1 with the cancellation-free form for alpha > 0
                let v0 = if alpha <= 0.0 {
                    alpha - mu
                } else {
                    -sigma / (alpha + mu)
                };
                let v0sq = v0 * v0;
                let beta = 2.0 * v0sq / (sigma + v0sq);
                // normalize so v[j] = 1
                for x in col[j + 1..m].iter_mut() {
                    *x /= v0;
                }
                (beta, mu)
            }
        };
        betas[j] = beta;
        // apply reflector to remaining columns
        if beta != 0.0 {
            for c in (j + 1)..n {
                // w = v^T * col_c  (v[j]=1 implicit)
                let mut w = r[j + c * m];
                for i in (j + 1)..m {
                    w += r[i + j * m] * r[i + c * m];
                }
                w *= beta;
                r[j + c * m] -= w;
                for i in (j + 1)..m {
                    let vij = r[i + j * m];
                    r[i + c * m] -= w * vij;
                }
            }
        }
        r[j + j * m] = tau;
        tt_tensor::counter::add_flops(4 * ((m - j) as u64) * ((n - j) as u64));
    }

    // Build thin Q by applying reflectors to the first k columns of I.
    let mut q = vec![0.0f64; m * k]; // column major
    for j in 0..k {
        q[j + j * m] = 1.0;
    }
    for j in (0..k).rev() {
        if betas[j] == 0.0 {
            continue;
        }
        for c in 0..k {
            let mut w = q[j + c * m];
            for i in (j + 1)..m {
                w += r[i + j * m] * q[i + c * m];
            }
            w *= betas[j];
            q[j + c * m] -= w;
            for i in (j + 1)..m {
                let vij = r[i + j * m];
                q[i + c * m] -= w * vij;
            }
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
