//! N-dimensional tensor transposition — the HPTT stand-in.
//!
//! CTF lowers every contraction to matrix multiplication by transposing
//! (permuting) operands into a fused matrix layout; the paper reports this
//! under the "CTF transposition" time category (Fig. 7). [`permute`] plays
//! the same role locally, and like HPTT it first shrinks the problem:
//!
//! 1. **Fusion.** Unit modes are dropped and output-adjacent modes that are
//!    also adjacent (in the same order) in the input are fused into one,
//!    so `(b,k,q,w,f) → (k,q,b,w,f)` is a three-mode problem
//!    `(kq, b, wf)` and anything that fuses to a single mode is the
//!    identity — one slice copy, no element walk.
//! 2. **Run copies.** When the fused output's innermost mode is also the
//!    input's innermost mode (stride 1), an odometer over the *remaining*
//!    modes moves one contiguous run per step with `copy_from_slice`.
//! 3. **Tiled inner transpose.** Otherwise the output-innermost and the
//!    input-innermost mode differ; the odometer runs over the other modes
//!    and each step is a 32×32-tiled 2-D transpose between those two,
//!    so both the reads and the writes of a tile stay cache-resident.
//!
//! [`motion`] exposes the result of step 1 so that callers which can read
//! an operand in place (borrowing an identity, handing a plain matrix
//! transpose to a packer as strides) never call [`permute`] at all.
//! [`crate::counter::add_mem_traffic`] is charged by the code that copies:
//! `2·len·size_of::<T>()` per executed [`permute`], nothing for a
//! permutation a caller elided.

use crate::dense::DenseTensor;
use crate::scalar::Scalar;
use crate::shape::{is_permutation, Shape};
use crate::{Error, Result};

/// Tile edge of the inner 2-D transpose (elements): a 32×32 `f64` tile is
/// 8 KiB on the read side and 8 KiB on the write side.
const TILE: usize = 32;

/// Fused-mode lists up to this order live on the stack (DMRG tensors have
/// order ≤ 6); higher orders spill to one heap allocation.
const INLINE_MODES: usize = 8;

/// One output mode after fusion: its extent, its stride in the input and
/// its stride in the (row-major) output.
#[derive(Copy, Clone, Default)]
struct Mode {
    dim: usize,
    src: usize,
    dst: usize,
}

/// What executing a permutation amounts to once unit modes are dropped and
/// modes that stay adjacent are fused.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Motion {
    /// No element changes position: the permuted tensor is the input
    /// buffer under the permuted dims (also any zero-volume tensor).
    Identity,
    /// A plain matrix transpose: the output is the `rows × cols` row-major
    /// matrix whose element `(i, j)` is input element `j·rows + i`.
    Transpose {
        /// Rows of the output matrix.
        rows: usize,
        /// Columns of the output matrix.
        cols: usize,
    },
    /// Three or more fused modes.
    General,
}

fn check_permutation(perm: &[usize], n: usize) -> Result<()> {
    if is_permutation(perm, n) {
        Ok(())
    } else {
        Err(Error::BadIndex(format!(
            "{perm:?} is not a permutation of 0..{n}"
        )))
    }
}

/// Fuse the output modes of `dims` permuted by `perm` (a valid
/// permutation, no zero extent) and hand them, in output order with both
/// strides filled in, to `f`.
fn with_fused<R>(dims: &[usize], perm: &[usize], f: impl FnOnce(&mut [Mode]) -> R) -> R {
    let mut inline = [Mode::default(); INLINE_MODES];
    let mut heap = Vec::new();
    let modes: &mut [Mode] = if perm.len() <= INLINE_MODES {
        &mut inline
    } else {
        heap.resize(perm.len(), Mode::default());
        &mut heap
    };
    let mut k = 0;
    for &p in perm {
        let dim = dims[p];
        if dim == 1 {
            continue;
        }
        let src: usize = dims[p + 1..].iter().product();
        if k > 0 && modes[k - 1].src == dim * src {
            // adjacent in the output and in the input: one mode
            modes[k - 1].dim *= dim;
            modes[k - 1].src = src;
        } else {
            modes[k] = Mode { dim, src, dst: 0 };
            k += 1;
        }
    }
    let mut dst = 1;
    for m in modes[..k].iter_mut().rev() {
        m.dst = dst;
        dst *= m.dim;
    }
    f(&mut modes[..k])
}

/// Classify the data movement of permuting a tensor of shape `dims` by
/// `perm` (same convention as [`permute`]) without moving anything.
pub fn motion(dims: &[usize], perm: &[usize]) -> Result<Motion> {
    check_permutation(perm, dims.len())?;
    if dims.contains(&0) {
        return Ok(Motion::Identity);
    }
    Ok(with_fused(dims, perm, |modes| match modes {
        [] | [_] => Motion::Identity,
        // two fused modes that are not the identity can only be swapped
        [rows, cols] => Motion::Transpose {
            rows: rows.dim,
            cols: cols.dim,
        },
        _ => Motion::General,
    }))
}

/// Call `f(src, dst)` with the input and output offsets of every index
/// combination of `modes`, in row-major (output) order.
fn walk(modes: &[Mode], src: usize, dst: usize, f: &mut impl FnMut(usize, usize)) {
    match modes {
        [] => f(src, dst),
        [m] => {
            for i in 0..m.dim {
                f(src + i * m.src, dst + i * m.dst);
            }
        }
        [m, rest @ ..] => {
            for i in 0..m.dim {
                walk(rest, src + i * m.src, dst + i * m.dst, f);
            }
        }
    }
}

/// Permute the modes of a tensor.
///
/// `perm[i]` gives the *input* mode that becomes output mode `i`, i.e.
/// `out[j_0, …, j_{n-1}] = t[j_{inv(0)}, …]` with
/// `out.dim(i) == t.dim(perm[i])` — the NumPy `transpose(perm)` convention.
pub fn permute<T: Scalar>(t: &DenseTensor<T>, perm: &[usize]) -> Result<DenseTensor<T>> {
    let out = permute_data(t.data(), t.dims(), perm)?;
    DenseTensor::from_vec(Shape(perm.iter().map(|&p| t.dims()[p]).collect()), out)
}

/// [`permute`] on a bare row-major buffer of shape `dims`: the permuted
/// elements, for callers that hold an operand as a slice. Allocates the
/// result and fills it with [`permute_data_into`].
pub fn permute_data<T: Scalar>(data: &[T], dims: &[usize], perm: &[usize]) -> Result<Vec<T>> {
    let mut out = Vec::new();
    permute_data_into(data, dims, perm, &mut out)?;
    Ok(out)
}

/// [`permute_data`] into a buffer the caller brings: on return `out` holds
/// the permuted elements, in its own allocation when that is large enough
/// (whatever it held is overwritten, and a buffer that already has the
/// right length is not cleared first), in a fresh one otherwise.
pub fn permute_data_into<T: Scalar>(
    data: &[T],
    dims: &[usize],
    perm: &[usize],
    out: &mut Vec<T>,
) -> Result<()> {
    check_permutation(perm, dims.len())?;
    if data.len() != dims.iter().product::<usize>() {
        return Err(Error::ShapeMismatch(format!(
            "shape {dims:?} does not hold {} elements",
            data.len()
        )));
    }
    if data.is_empty() {
        out.clear();
        return Ok(());
    }
    crate::counter::add_mem_traffic(2 * std::mem::size_of_val(data) as u64);
    with_fused(dims, perm, |modes| {
        let n = modes.len();
        if n <= 1 {
            // identity after fusion: one slice copy
            out.clear();
            out.extend_from_slice(data);
            return;
        }
        if modes[n - 1].src == 1 {
            let (outer, run) = (&modes[..n - 1], modes[n - 1].dim);
            out.clear();
            out.reserve_exact(data.len());
            walk(outer, 0, 0, &mut |src, _| {
                out.extend_from_slice(&data[src..src + run]);
            });
            return;
        }
        // tiles are written by index: the buffer needs its length first,
        // and zeroed pages straight from the allocator are the cheapest
        // way to get a new one
        if out.capacity() < data.len() {
            *out = vec![T::zero(); data.len()];
        } else {
            out.resize(data.len(), T::zero());
        }
        // the fused mode holding the input's innermost mode has stride 1
        // there and is not the output's innermost: move it next to that
        // one, transpose the pair in tiles, walk the rest
        let q = modes
            .iter()
            .position(|m| m.src == 1)
            .expect("a non-empty tensor has a unit-stride mode");
        modes[q..n - 1].rotate_left(1);
        let (outer, row, col) = (&modes[..n - 2], modes[n - 2], modes[n - 1]);
        walk(outer, 0, 0, &mut |src, dst| {
            transpose_tiled(
                &data[src..],
                col.src,
                &mut out[dst..],
                row.dst,
                (row.dim, col.dim),
            );
        });
    });
    Ok(())
}

/// `out[a·out_rs + b] = data[a + b·data_cs]` for `a < rows`, `b < cols`,
/// in [`TILE`]-square blocks: a tile reads at most `TILE` runs of the
/// input and writes at most `TILE` runs of the output.
fn transpose_tiled<T: Scalar>(
    data: &[T],
    data_cs: usize,
    out: &mut [T],
    out_rs: usize,
    (rows, cols): (usize, usize),
) {
    for a0 in (0..rows).step_by(TILE) {
        let a1 = (a0 + TILE).min(rows);
        for b0 in (0..cols).step_by(TILE) {
            let b1 = (b0 + TILE).min(cols);
            for a in a0..a1 {
                let orow = &mut out[a * out_rs + b0..a * out_rs + b1];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = data[a + (b0 + j) * data_cs];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The oracle: one element at a time through multi-indices.
    fn naive_permute<T: Scalar>(t: &DenseTensor<T>, perm: &[usize]) -> DenseTensor<T> {
        let out_shape = t.shape().permuted(perm).unwrap();
        let mut out = DenseTensor::zeros(out_shape.clone());
        for out_idx in out_shape.index_iter() {
            let mut in_idx = vec![0usize; t.order()];
            for (i, &p) in perm.iter().enumerate() {
                in_idx[p] = out_idx[i];
            }
            out.set(&out_idx, t.at(&in_idx));
        }
        out
    }

    /// `(dim, src stride)` of the fused output modes.
    fn fused(dims: &[usize], perm: &[usize]) -> Vec<(usize, usize)> {
        with_fused(dims, perm, |modes| {
            modes.iter().map(|m| (m.dim, m.src)).collect()
        })
    }

    #[test]
    fn matrix_transpose() {
        let t = DenseTensor::<f64>::from_fn([2, 3], |i| (i[0] * 3 + i[1]) as f64);
        let tt = permute(&t, &[1, 0]).unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(tt.at(&[j, i]), t.at(&[i, j]));
            }
        }
    }

    #[test]
    fn identity_after_fusion_is_one_slice_copy() {
        // a unit mode changes place and (c, d) stay adjacent: nothing moves
        let mut rng = StdRng::seed_from_u64(2);
        let t = DenseTensor::<f64>::random([2, 1, 3, 4], &mut rng);
        for perm in [[0usize, 1, 2, 3], [1, 0, 2, 3], [0, 2, 3, 1], [0, 2, 1, 3]] {
            assert_eq!(motion(t.dims(), &perm).unwrap(), Motion::Identity);
            assert_eq!(fused(t.dims(), &perm), [(24, 1)], "perm {perm:?}");
            let p = permute(&t, &perm).unwrap();
            assert_eq!(p.data(), t.data());
            assert_ne!(p.data().as_ptr(), t.data().as_ptr(), "a copy, not a view");
            assert_eq!(p, naive_permute(&t, &perm));
        }
        // every extent 1: no fused mode at all
        let one = DenseTensor::<f64>::from_vec([1, 1], vec![3.5]).unwrap();
        assert_eq!(fused(one.dims(), &[1, 0]), []);
        assert_eq!(permute(&one, &[1, 0]).unwrap().data(), &[3.5]);
    }

    #[test]
    fn run_copy_branch_moves_trailing_runs() {
        // the H_eff step-2 operand: (b,k,q,w,f) → (k,q,b,w,f) fuses to
        // (kq, b, wf) with the trailing run contiguous in the input
        let mut rng = StdRng::seed_from_u64(3);
        let t = DenseTensor::<f64>::random([5, 3, 2, 4, 6], &mut rng);
        let perm = [1usize, 2, 0, 3, 4];
        assert_eq!(fused(t.dims(), &perm), [(6, 24), (5, 144), (24, 1)]);
        assert_eq!(motion(t.dims(), &perm).unwrap(), Motion::General);
        assert_eq!(permute(&t, &perm).unwrap(), naive_permute(&t, &perm));
    }

    #[test]
    fn tiled_branch_handles_ragged_tiles() {
        let mut rng = StdRng::seed_from_u64(4);
        // the H_eff step-4 operand: (b,p,s,h,f) → (h,f,b,p,s) is a plain
        // 231 × 30 matrix transpose, neither extent a tile multiple
        let t = DenseTensor::<f64>::random([3, 2, 5, 33, 7], &mut rng);
        let perm = [3usize, 4, 0, 1, 2];
        assert_eq!(fused(t.dims(), &perm), [(231, 1), (30, 231)]);
        assert_eq!(
            motion(t.dims(), &perm).unwrap(),
            Motion::Transpose {
                rows: 231,
                cols: 30
            }
        );
        assert_eq!(permute(&t, &perm).unwrap(), naive_permute(&t, &perm));

        // three fused modes, output-innermost ≠ input-innermost: a tiled
        // transpose of the outer pair under a walk over the middle mode
        let t = DenseTensor::<Complex64>::random([37, 3, 41], &mut rng);
        let perm = [2usize, 1, 0];
        assert_eq!(fused(t.dims(), &perm), [(41, 1), (3, 41), (37, 123)]);
        assert_eq!(permute(&t, &perm).unwrap(), naive_permute(&t, &perm));
        // and with the unit-stride mode in the middle of the output
        let perm = [1usize, 2, 0];
        let t = DenseTensor::<f64>::random([35, 4, 34], &mut rng);
        assert_eq!(fused(t.dims(), &[1, 2, 0]), [(136, 1), (35, 136)]);
        assert_eq!(permute(&t, &perm).unwrap(), naive_permute(&t, &perm));
        let t4 = DenseTensor::<f64>::random([3, 34, 2, 33], &mut rng);
        let perm = [2usize, 3, 0, 1];
        assert_eq!(fused(t4.dims(), &perm), [(66, 1), (102, 66)]);
        let perm = [0usize, 3, 2, 1];
        assert_eq!(
            fused(t4.dims(), &perm),
            [(3, 2244), (33, 1), (2, 33), (34, 66)]
        );
        assert_eq!(permute(&t4, &perm).unwrap(), naive_permute(&t4, &perm));
    }

    #[test]
    fn large_matrix_transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = DenseTensor::<f64>::random([67, 129], &mut rng);
        let tt = permute(&t, &[1, 0]).unwrap();
        assert_eq!(tt, naive_permute(&t, &[1, 0]));
        let back = permute(&tt, &[1, 0]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn order3_permutations_match_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = DenseTensor::<f64>::random([3, 4, 5], &mut rng);
        for perm in [[0usize, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let fast = permute(&t, &perm).unwrap();
            let slow = naive_permute(&t, &perm);
            assert_eq!(fast, slow, "perm {perm:?}");
        }
    }

    #[test]
    fn order4_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = DenseTensor::<f64>::random([2, 3, 4, 5], &mut rng);
        let p = permute(&t, &[3, 1, 0, 2]).unwrap();
        assert_eq!(p.dims(), &[5, 3, 2, 4]);
        // invert: output mode i holds input mode perm[i]
        let inv = [2usize, 1, 3, 0];
        let back = permute(&p, &inv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn orders_beyond_the_inline_buffer() {
        // order 10 spills the fused-mode list to the heap
        let dims = [2usize, 1, 2, 2, 1, 2, 2, 2, 1, 2];
        let mut rng = StdRng::seed_from_u64(10);
        let t = DenseTensor::<f64>::random(dims, &mut rng);
        let perm = [9usize, 0, 8, 2, 7, 3, 5, 4, 6, 1];
        assert_eq!(permute(&t, &perm).unwrap(), naive_permute(&t, &perm));
    }

    #[test]
    fn rejects_bad_permutation() {
        let t = DenseTensor::<f64>::zeros([2, 2]);
        assert!(permute(&t, &[0, 0]).is_err());
        assert!(permute(&t, &[0]).is_err());
        assert!(permute(&t, &[0, 2]).is_err());
        assert!(motion(t.dims(), &[1, 1]).is_err());
    }

    #[test]
    fn zero_volume_and_scalar_tensors() {
        let t = DenseTensor::<f64>::zeros([2, 0, 3]);
        let p = permute(&t, &[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[3, 2, 0]);
        assert_eq!(p.len(), 0);
        assert_eq!(motion(t.dims(), &[2, 0, 1]).unwrap(), Motion::Identity);
        let s = DenseTensor::<f64>::scalar(2.5);
        assert_eq!(permute(&s, &[]).unwrap().data(), &[2.5]);
    }

    #[test]
    fn permute_into_overwrites_whatever_the_buffer_held() {
        // one case per branch: identity, run copies, tiled transpose
        let mut rng = StdRng::seed_from_u64(11);
        let t = DenseTensor::<f64>::random([5, 3, 2, 36], &mut rng);
        for perm in [[0usize, 1, 2, 3], [1, 0, 2, 3], [3, 2, 0, 1]] {
            let expect = naive_permute(&t, &perm);
            // a buffer of the right length, a longer one, none at all
            for stale in [t.len(), t.len() + 7, 0] {
                let mut out = vec![f64::NAN; stale];
                let at = out.as_ptr();
                permute_data_into(t.data(), t.dims(), &perm, &mut out).unwrap();
                assert_eq!(out, expect.data(), "perm {perm:?} into {stale}");
                assert!(stale == 0 || out.as_ptr() == at, "the allocation is reused");
            }
        }
    }

    #[test]
    fn traffic_is_charged_per_executed_copy() {
        // other tests permute concurrently, so only a lower bound holds
        let t = DenseTensor::<f64>::zeros([4, 8]);
        let before = crate::counter::mem_traffic();
        permute(&t, &[1, 0]).unwrap();
        assert!(crate::counter::mem_traffic() >= before + 2 * 32 * 8);
    }
}
