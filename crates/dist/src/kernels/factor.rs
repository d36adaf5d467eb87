//! The truncated-SVD kernel: one rule for the panel shape, run by the
//! in-process leg and by a worker's `SvdTrunc` alike.

use tt_linalg::{qr_thin, TruncSpec, TruncatedSvd};
use tt_tensor::{gemm_f64, DenseTensor};

/// Rows below which no panel counts as tall.
const TALL_MIN_ROWS: usize = 32;

/// Aspect ratio (rows / cols) from which a panel counts as tall.
const TALL_MIN_ASPECT: usize = 8;

/// Truncated SVD of a matrix. A tall panel — at least 32 rows, and 8× as
/// many rows as columns — is QR-factored first: the small `R` is what
/// gets the SVD, and `U = Q · U_R`. The decision reads the dims only, so
/// every backend and mode factors a matrix the same way, bit for bit.
/// The result's sign gauge is fixed last ([`TruncatedSvd::fix_signs`]),
/// on the `U` the caller gets.
pub(crate) fn svd_trunc(a: &DenseTensor<f64>, spec: TruncSpec) -> tt_linalg::Result<TruncatedSvd> {
    let tall =
        matches!(*a.dims(), [m, n] if n > 0 && m >= TALL_MIN_ROWS && m >= TALL_MIN_ASPECT * n);
    let mut t = if tall {
        let (q, r) = qr_thin(a)?;
        let t = tt_linalg::svd_trunc(&r, spec)?;
        TruncatedSvd {
            u: gemm_f64(&q, &t.u)?,
            ..t
        }
    } else {
        tt_linalg::svd_trunc(a, spec)?
    };
    t.fix_signs();
    Ok(t)
}
