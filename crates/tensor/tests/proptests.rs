//! Property-based tests for the local tensor kernels.

use proptest::prelude::*;
use tt_tensor::ssmerge::{merge_slots, SlotChunk, SlotMap, SsBTable};
use tt_tensor::{einsum, gemm, Complex64, DenseTensor, Layout, Scalar};

/// Raw `(row, key, val)` / `(key, col, val)` entry lists for the sparse
/// merge kernel — duplicates (same coordinates twice) and absent keys
/// (empty runs on either side) arise naturally from the generator.
fn ss_raw_entries(
    rows: u64,
    keys: u64,
    max_len: usize,
) -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0..rows, 0..keys, -1.0f64..1.0), 0..max_len)
}

/// Entry lists like [`ss_raw_entries`] whose values are multiples of ½ in
/// `[-2, 2]` — zeros and exact cancellations are common.
fn ss_grid_entries(
    rows: u64,
    keys: u64,
    max_len: usize,
) -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0..rows, 0..keys, -4i32..=4), 0..max_len).prop_map(|v| {
        v.into_iter()
            .map(|(r, k, h)| (r, k, 0.5 * h as f64))
            .collect()
    })
}

/// The grouped table of `entries`, keyed up to their largest key.
fn ss_table<T: Scalar>(entries: &[(u64, u64, T)]) -> SsBTable<T> {
    let range = entries.iter().map(|e| e.0 as usize + 1).max().unwrap_or(0);
    SsBTable::from_keyed(entries, range)
}

/// [`merge_slots`] of rows `r0..r1` under the one-class mask of `n`
/// columns, which allows every element: every touched element as
/// `(row, col, value)` in `(row, col)` order, and the flops.
fn ss_unmasked<T: Scalar>(
    a: &[(u64, u64, T)],
    btab: &SsBTable<T>,
    (r0, r1): (u64, u64),
    n: u64,
) -> (Vec<(u64, u64, T)>, u64) {
    let map = SlotMap::new(vec![0; r1 as usize], &vec![0; n as usize]);
    let chunk = merge_slots(a, btab, &map, r0 as usize, r1 as usize);
    let elems = (r0..r1).flat_map(|r| (0..n).map(move |c| (r, c)));
    let touched = elems
        .zip(chunk.touched.iter().zip(&chunk.vals))
        .filter(|(_, (&t, _))| t)
        .map(|((r, c), (_, &v))| (r, c, v))
        .collect();
    (touched, chunk.flops)
}

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_with_shape(dims: Vec<usize>) -> impl Strategy<Value = DenseTensor<f64>> {
    let n: usize = dims.iter().product();
    prop::collection::vec(-1.0f64..1.0, n)
        .prop_map(move |data| DenseTensor::from_vec(dims.clone(), data).unwrap())
}

/// Every permutation of `0..n`, by insertion.
fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut perms = vec![Vec::new()];
    for i in 0..n {
        perms = perms
            .into_iter()
            .flat_map(|p| {
                (0..=p.len()).map(move |at| {
                    let mut q = p.clone();
                    q.insert(at, i);
                    q
                })
            })
            .collect();
    }
    perms
}

/// `permute` against the one-element-at-a-time oracle, and back through
/// the inverse permutation.
fn check_permute<T: Scalar>(
    t: &DenseTensor<T>,
    perm: &[usize],
) -> std::result::Result<(), proptest::TestCaseError> {
    let p = t.permute(perm).unwrap();
    let out_dims: Vec<usize> = perm.iter().map(|&m| t.dims()[m]).collect();
    prop_assert_eq!(p.dims(), &out_dims[..]);
    let mut naive = DenseTensor::<T>::zeros(out_dims.clone());
    for out_idx in naive.shape().clone().index_iter() {
        let mut in_idx = vec![0usize; perm.len()];
        for (i, &m) in perm.iter().enumerate() {
            in_idx[m] = out_idx[i];
        }
        naive.set(&out_idx, t.at(&in_idx));
    }
    prop_assert!(p == naive, "dims {:?} perm {:?}", t.dims(), perm);
    let mut inv = vec![0usize; perm.len()];
    for (i, &m) in perm.iter().enumerate() {
        inv[m] = i;
    }
    prop_assert!(&p.permute(&inv).unwrap() == t, "roundtrip, perm {:?}", perm);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `permute` equals the element-by-element oracle and a permutation
    /// followed by its inverse is the identity — over orders 1–6 with
    /// unit modes, fusable groups and zero extents, for both scalar
    /// types; every permutation up to order 4, random ones above.
    #[test]
    fn permute_matches_naive_and_roundtrips(
        picks in prop::collection::vec(0usize..8, 1..7),
        seed in 0u64..1000,
    ) {
        use rand::prelude::*;
        // extent palette: unit modes are common, a zero extent is rare
        const EXTENTS: [usize; 8] = [1, 1, 2, 2, 3, 4, 5, 0];
        let dims: Vec<usize> = picks.iter().map(|&i| EXTENTS[i]).collect();
        let n = dims.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let perms: Vec<Vec<usize>> = if n <= 4 {
            all_permutations(n)
        } else {
            (0..4)
                .map(|_| {
                    let mut p: Vec<usize> = (0..n).collect();
                    p.shuffle(&mut rng);
                    p
                })
                .collect()
        };
        let t = DenseTensor::<f64>::random(dims.clone(), &mut rng);
        let tc = DenseTensor::<Complex64>::random(dims.clone(), &mut rng);
        for perm in &perms {
            check_permute(&t, perm)?;
            check_permute(&tc, perm)?;
        }
    }

    /// Matrix multiplication is associative: (AB)C == A(BC).
    #[test]
    fn gemm_associative(
        a in tensor_with_shape(vec![3, 4]),
        b in tensor_with_shape(vec![4, 2]),
        c in tensor_with_shape(vec![2, 5]),
    ) {
        let ab_c = einsum("ik,kj->ij", &einsum("ik,kj->ij", &a, &b).unwrap(), &c).unwrap();
        let a_bc = einsum("ik,kj->ij", &a, &einsum("ik,kj->ij", &b, &c).unwrap()).unwrap();
        prop_assert!(ab_c.allclose(&a_bc, 1e-10));
    }

    /// Contraction is bilinear in the first argument.
    #[test]
    fn einsum_linear(
        a1 in tensor_with_shape(vec![2, 3, 2]),
        a2 in tensor_with_shape(vec![2, 3, 2]),
        b in tensor_with_shape(vec![2, 3, 4]),
        alpha in -2.0f64..2.0,
    ) {
        let spec = "isj,jsm->im";
        let lhs = {
            let mut s = a1.clone();
            s.axpy(alpha, &a2).unwrap();
            einsum(spec, &s, &b).unwrap()
        };
        let mut rhs = einsum(spec, &a1, &b).unwrap();
        rhs.axpy(alpha, &einsum(spec, &a2, &b).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-10));
    }

    /// einsum reduces to reference triple loop for matrices.
    #[test]
    fn gemm_matches_reference(
        a in tensor_with_shape(vec![4, 3]),
        b in tensor_with_shape(vec![3, 5]),
    ) {
        let c = einsum("ik,kj->ij", &a, &b).unwrap();
        for i in 0..4 {
            for j in 0..5 {
                let mut s = 0.0;
                for k in 0..3 { s += a.at(&[i, k]) * b.at(&[k, j]); }
                prop_assert!((c.at(&[i, j]) - s).abs() < 1e-12);
            }
        }
    }

    /// The packed register-tiled GEMM agrees with the naive triple loop on
    /// arbitrary (odd, degenerate, tile-straddling) shapes and layouts.
    #[test]
    fn packed_gemm_matches_naive_all_layouts(
        m in 1usize..70,
        k in 1usize..300,
        n in 1usize..70,
        seed in 0u64..1000,
        ta in any::<bool>(),
        tb in any::<bool>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        // stored shapes so that op(A) is m×k and op(B) is k×n
        let a = DenseTensor::<f64>::random(if ta { vec![k, m] } else { vec![m, k] }, &mut rng);
        let b = DenseTensor::<f64>::random(if tb { vec![n, k] } else { vec![k, n] }, &mut rng);
        let la = if ta { Layout::Transposed } else { Layout::Normal };
        let lb = if tb { Layout::Transposed } else { Layout::Normal };
        let c = gemm(&a, la, &b, lb).unwrap();
        prop_assert_eq!(c.dims(), &[m, n][..]);
        let at = |i: usize, l: usize| if ta { a.at(&[l, i]) } else { a.at(&[i, l]) };
        let bt = |l: usize, j: usize| if tb { b.at(&[j, l]) } else { b.at(&[l, j]) };
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k { s += at(i, l) * bt(l, j); }
                prop_assert!((c.at(&[i, j]) - s).abs() < 1e-10 * (k as f64).max(1.0),
                    "({}, {}) of {}x{}x{} ta={} tb={}", i, j, m, k, n, ta, tb);
            }
        }
    }

    /// The same property over Complex64 (the generic-Scalar fallback).
    #[test]
    fn packed_gemm_matches_naive_complex(
        m in 1usize..20,
        k in 1usize..200,
        n in 1usize..40,
        seed in 0u64..1000,
        ta in any::<bool>(),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseTensor::<Complex64>::random(if ta { vec![k, m] } else { vec![m, k] }, &mut rng);
        let b = DenseTensor::<Complex64>::random(vec![k, n], &mut rng);
        let la = if ta { Layout::Transposed } else { Layout::Normal };
        let c = gemm(&a, la, &b, Layout::Normal).unwrap();
        let at = |i: usize, l: usize| if ta { a.at(&[l, i]) } else { a.at(&[i, l]) };
        for i in 0..m {
            for j in 0..n {
                let mut s = Complex64::new(0.0, 0.0);
                for l in 0..k { s += at(i, l) * b.at(&[l, j]); }
                prop_assert!((c.at(&[i, j]) - s).abs() < 1e-10 * (k as f64).max(1.0),
                    "({}, {}) of {}x{}x{} ta={}", i, j, m, k, n, ta);
            }
        }
    }

    /// Fused width-1 outputs (the Davidson matvec shape) take the gemv
    /// path; it must agree with the general kernel.
    #[test]
    fn gemv_path_matches_naive(
        m in 1usize..80,
        k in 1usize..2500,
        seed in 0u64..1000,
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseTensor::<f64>::random(vec![m, k], &mut rng);
        let x = DenseTensor::<f64>::random(vec![k, 1], &mut rng);
        let y = gemm(&a, Layout::Normal, &x, Layout::Normal).unwrap();
        for i in 0..m {
            let mut s = 0.0;
            for l in 0..k { s += a.at(&[i, l]) * x.at(&[l, 0]); }
            prop_assert!((y.at(&[i, 0]) - s).abs() < 1e-10 * (k as f64).max(1.0));
        }
    }

    /// dot(x, x) equals ||x||^2 and the norm is permutation invariant.
    #[test]
    fn norm_invariants(dims in small_dims(), seed in 0u64..1000) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = DenseTensor::<f64>::random(dims.clone(), &mut rng);
        prop_assert!((t.dot(&t).unwrap() - t.norm2()).abs() < 1e-10);
        let n = dims.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        prop_assert!((t.permute(&perm).unwrap().norm() - t.norm()).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The row-panel kernels agree bit for bit on `k ≤ KC`: the unpacked
    /// register tile, the packed microkernel, `gemm_acc_slices` on the
    /// panel's rows (the scalar loop when the multiply is tagged `Scalar`)
    /// and (for `n = 1`) the GEMV loop, each run whole and cut into row
    /// bands at arbitrary boundaries, storing through the identity view,
    /// all equal to a plain ascending-`l` reference loop on a zeroed `C` —
    /// over zero extents, `m < TM`, `n < TN`, `A` read transposed through
    /// strides, and ±0, ±inf and NaN entries. Every NaN compares equal to
    /// every other: IEEE leaves the payload of a NaN result to the
    /// hardware. On a non-zero `C` the unpacked tile adds that sum once.
    #[test]
    fn gemm_small_kernels_agree_bitwise(
        m in 0usize..11,
        k_pick in 0usize..40,
        n in 0usize..37,
        ta in any::<bool>(),
        seed in 0u64..1000,
        splits in prop::collection::vec(0usize..12, 0..4),
    ) {
        use rand::prelude::*;
        use tt_tensor::gemm::{
            gemm_acc_slices, gemm_packed_into, gemm_small_into, gemv_into, PackedB, KC,
        };
        use tt_tensor::view::{Epilogue, RunView, ViewMut};
        // mostly shallow; sometimes KC − 1, KC (the deepest unpacked
        // panel) or 100
        let k = match k_pick {
            0..=36 => k_pick,
            37 => KC - 1,
            38 => KC,
            _ => 100,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let value = |rng: &mut StdRng| {
            if rng.gen_bool(0.08) {
                special[rng.gen_range(0..special.len())]
            } else {
                rng.gen_range(-1.0..1.0)
            }
        };
        let a: Vec<f64> = (0..m * k).map(|_| value(&mut rng)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| value(&mut rng)).collect();
        // `a` is row-major (the GEMV kernel's contiguous `A`); `stored`
        // is what the other kernels read, element (i, l) at
        // stored[i·a_rs + l·a_cs]
        let (a_rs, a_cs) = if ta { (1, m) } else { (k, 1) };
        let stored: Vec<f64> = if ta {
            (0..k * m).map(|q| a[(q % m) * k + q / m]).collect()
        } else {
            a.clone()
        };
        let bits = |c: &[f64]| -> Vec<u64> {
            c.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
        };
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (m + 1)).collect();
        cuts.extend([0, m]);
        cuts.sort_unstable();
        // the reference order: each element's products in ascending l,
        // added onto C
        let reference = |c: &mut [f64]| {
            for i in 0..m {
                for l in 0..k {
                    for j in 0..n {
                        c[i * n + j] += a[i * k + l] * b[l * n + j];
                    }
                }
            }
        };
        let pb = PackedB::pack(k, n, &b, n, 1);
        let view = RunView::matrix(m, n, n);
        // one kernel over the row bands between `cuts`, into a zeroed C
        let run = |kernel: &str, cuts: &[usize]| -> Vec<f64> {
            let mut c = vec![0.0; m * n];
            let ranges: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
            if kernel == "slices" {
                for &(r0, r1) in &ranges {
                    gemm_acc_slices(r1 - r0, k, n, &a[r0 * k..r1 * k], &b, &mut c[r0 * n..r1 * n]);
                }
                return c;
            }
            let bands = ViewMut::bands(&view, &mut c, &ranges).unwrap();
            for (mut out, (r0, r1)) in bands.into_iter().zip(ranges) {
                let (out, how) = (&mut out, Epilogue::Store);
                match kernel {
                    "small" => gemm_small_into(r0, r1, k, n, &stored, a_rs, a_cs, &b, out, how),
                    "packed" => gemm_packed_into(r0, r1, &stored, a_rs, a_cs, &pb, out, how),
                    _ => gemv_into(r0, r1, k, &a, &b, 1, out, how),
                }
            }
            c
        };
        let mut want = vec![0.0; m * n];
        reference(&mut want);
        let kernels = ["small", "slices", "packed", "gemv"];
        for kernel in &kernels[..if n == 1 { 4 } else { 3 }] {
            prop_assert!(bits(&run(kernel, &[0, m])) == bits(&want),
                "kernel {} whole, {}x{}x{} ta={}", kernel, m, k, n, ta);
            prop_assert!(bits(&run(kernel, &cuts)) == bits(&want),
                "kernel {} split at {:?}, {}x{}x{} ta={}", kernel, cuts, m, k, n, ta);
        }
        let c0: Vec<f64> = (0..m * n).map(|_| value(&mut rng)).collect();
        let mut small = c0.clone();
        let out = &mut ViewMut::whole(&view, &mut small).unwrap();
        gemm_small_into(0, m, k, n, &stored, a_rs, a_cs, &b, out, Epilogue::Add);
        let added: Vec<f64> = c0.iter().zip(&want).map(|(c, w)| c + w).collect();
        prop_assert!(bits(&small) == bits(&added), "non-zero C, {}x{}x{}", m, k, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted-merge ss kernel under the one-class mask (every element
    /// allowed) agrees with a naive quadratic reference
    /// on raw entry lists — including duplicate `(row, key)` entries and
    /// keys with empty runs on either side — and reports exactly
    /// `2 · (matched A×B pairs)` flops. The output must come back sorted
    /// by `(row, col)` with the touched pattern matching the reference.
    #[test]
    fn ss_merge_matches_naive(
        m in 1u64..10,
        kk in 1u64..8,
        n in 1u64..9,
        a_raw in ss_raw_entries(10, 8, 40),
        b_raw in ss_raw_entries(8, 9, 40),
    ) {
        let a_raw: Vec<_> = a_raw.into_iter()
            .filter(|e| e.0 < m && e.1 < kk).collect();
        let b_raw: Vec<_> = b_raw.into_iter()
            .filter(|e| e.0 < kk && e.1 < n).collect();
        let mut a = a_raw.clone();
        a.sort_by_key(|e| e.1);
        let btab = ss_table(&b_raw);
        let (got, flops) = ss_unmasked(&a, &btab, (0, m), n);

        let mut pairs = 0u64;
        for &(_, ka, _) in &a_raw {
            pairs += b_raw.iter().filter(|e| e.0 == ka).count() as u64;
        }
        prop_assert_eq!(flops, 2 * pairs);

        prop_assert!(got.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "output not sorted by (row, col)");

        let mut acc = vec![0.0f64; (m * n) as usize];
        let mut touched = vec![false; (m * n) as usize];
        for &(r, ka, va) in &a_raw {
            for &(kb, c, vb) in &b_raw {
                if ka == kb {
                    let idx = (r * n + c) as usize;
                    acc[idx] += va * vb;
                    touched[idx] = true;
                }
            }
        }
        let got_map: std::collections::HashMap<(u64, u64), f64> =
            got.iter().map(|&(r, c, v)| ((r, c), v)).collect();
        prop_assert_eq!(got_map.len(), got.len());
        for r in 0..m {
            for c in 0..n {
                let idx = (r * n + c) as usize;
                match got_map.get(&(r, c)) {
                    Some(&v) => {
                        prop_assert!(touched[idx], "spurious entry at ({}, {})", r, c);
                        prop_assert!((v - acc[idx]).abs() < 1e-9);
                    }
                    None => prop_assert!(!touched[idx], "missing entry at ({}, {})", r, c),
                }
            }
        }
    }

    /// Splitting the row range at arbitrary points and stitching the chunk
    /// results of the unmasked (one-class) merge is *bitwise* identical to
    /// one whole-range merge — the invariant the threaded backend rests
    /// on — for both f64 and Complex64.
    #[test]
    fn ss_merge_chunking_bitwise(
        m in 1u64..12,
        a_raw in ss_raw_entries(12, 8, 48),
        b_raw in ss_raw_entries(8, 9, 48),
        splits in prop::collection::vec(0u64..13, 0..4),
    ) {
        let n = 9u64;
        let a_raw: Vec<_> = a_raw.into_iter().filter(|e| e.0 < m).collect();
        let mut cuts: Vec<u64> = splits.into_iter().map(|s| s % (m + 1)).collect();
        cuts.push(0);
        cuts.push(m);
        cuts.sort_unstable();
        cuts.dedup();

        // f64
        let mut a = a_raw.clone();
        a.sort_by_key(|e| e.1);
        let btab = ss_table(&b_raw);
        let (whole, _) = ss_unmasked(&a, &btab, (0, m), n);
        let mut stitched = Vec::new();
        for w in cuts.windows(2) {
            let part: Vec<_> = a.iter().copied()
                .filter(|e| e.0 >= w[0] && e.0 < w[1]).collect();
            let (res, _) = ss_unmasked(&part, &btab, (w[0], w[1]), n);
            stitched.extend(res);
        }
        prop_assert_eq!(whole.len(), stitched.len());
        for (x, y) in whole.iter().zip(&stitched) {
            prop_assert_eq!((x.0, x.1, x.2.to_bits()), (y.0, y.1, y.2.to_bits()));
        }

        // Complex64 over the same coordinates (im is a distinct function
        // of the value so both lanes are exercised)
        let lift = |e: &(u64, u64, f64)| (e.0, e.1, Complex64::new(e.2, -0.5 * e.2 + 0.125));
        let mut ac: Vec<_> = a_raw.iter().map(lift).collect();
        ac.sort_by_key(|e| e.1);
        let btab_c = ss_table(&b_raw.iter().map(lift).collect::<Vec<_>>());
        let (whole_c, _) = ss_unmasked(&ac, &btab_c, (0, m), n);
        let mut stitched_c = Vec::new();
        for w in cuts.windows(2) {
            let part: Vec<_> = ac.iter().copied()
                .filter(|e| e.0 >= w[0] && e.0 < w[1]).collect();
            let (res, _) = ss_unmasked(&part, &btab_c, (w[0], w[1]), n);
            stitched_c.extend(res);
        }
        prop_assert_eq!(whole_c.len(), stitched_c.len());
        for (x, y) in whole_c.iter().zip(&stitched_c) {
            prop_assert_eq!(
                (x.0, x.1, x.2.re.to_bits(), x.2.im.to_bits()),
                (y.0, y.1, y.2.re.to_bits(), y.2.im.to_bits())
            );
        }
    }

    /// A masked merge against the unmasked (one-class) merge filtered to
    /// the mask: random classes (rows whose class no column has, classes
    /// nobody uses), products outside the mask, cancelled zeros, and
    /// arbitrary row-chunk splits. Every touched slot holds the bits the unmasked
    /// merge holds at its element, the touched count equals its allowed
    /// entries, the flops are equal, and the chunks concatenate to the
    /// whole.
    #[test]
    fn ss_slots_equal_masked_panel(
        m in 1usize..10,
        n in 1usize..9,
        classes in prop::collection::vec(0usize..5, 18),
        a_raw in ss_grid_entries(10, 6, 40),
        b_raw in ss_grid_entries(6, 9, 40),
        splits in prop::collection::vec(0usize..11, 0..4),
    ) {
        // rows draw from classes 0..5, columns from 1..4: class 0 and 4
        // rows get no column, and some class may have neither
        let row_class: Vec<u32> = classes[..m].iter().map(|&k| k as u32).collect();
        let col_class: Vec<u32> = classes[9..9 + n].iter().map(|&k| 1 + (k % 3) as u32).collect();
        let map = SlotMap::new(row_class, &col_class);
        let mut a: Vec<_> = a_raw.into_iter().filter(|e| (e.0 as usize) < m).collect();
        a.sort_by_key(|e| e.1);
        let b: Vec<_> = b_raw.into_iter().filter(|e| (e.1 as usize) < n).collect();
        let btab = ss_table(&b);

        let (panel, flops) = ss_unmasked(&a, &btab, (0, m as u64), n as u64);
        let want: Vec<(usize, u64)> = panel
            .iter()
            .filter_map(|&(r, c, v)| Some((map.slot(r as usize, c as usize)?, v.to_bits())))
            .collect();
        let whole = merge_slots(&a, &btab, &map, 0, m);
        prop_assert_eq!(whole.vals.len(), map.n_slots());
        prop_assert_eq!(whole.flops, flops);
        let got: Vec<(usize, u64)> = (0..map.n_slots())
            .filter(|&s| whole.touched[s])
            .map(|s| (s, whole.vals[s].to_bits()))
            .collect();
        prop_assert_eq!(got, want);
        // an untouched slot stays an exact +0.0
        for s in (0..map.n_slots()).filter(|&s| !whole.touched[s]) {
            prop_assert_eq!(whole.vals[s].to_bits(), 0.0f64.to_bits());
        }

        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (m + 1)).collect();
        cuts.extend([0, m]);
        cuts.sort_unstable();
        let parts: Vec<SlotChunk<f64>> = cuts
            .windows(2)
            .map(|w| {
                let part: Vec<_> = a.iter().copied()
                    .filter(|e| (w[0]..w[1]).contains(&(e.0 as usize))).collect();
                merge_slots(&part, &btab, &map, w[0], w[1])
            })
            .collect();
        prop_assert_eq!(SlotChunk::concat(parts), whole);
    }
}
