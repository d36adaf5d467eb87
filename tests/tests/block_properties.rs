//! Property-based integration tests on the block-sparse layer: the three
//! contraction algorithms agree on random symmetric tensors, the block
//! SVD satisfies its invariants, and the run-based block↔flat conversions
//! agree with index-by-index oracles, under randomized sector structures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tt_blocks::{block_svd, contract, Algorithm, Arrow, BlockSparseTensor, Error, QnIndex, QN};
use tt_dist::Executor;
use tt_linalg::TruncSpec;
use tt_tensor::{DenseTensor, Shape, SparseTensor};

/// Random graded index with 1-3 sectors of dim 1-3 and charges in ±2.
fn arb_sectors() -> impl Strategy<Value = Vec<(i32, usize)>> {
    prop::collection::vec((-2i32..=2, 1usize..=3), 1..=3).prop_map(|mut v| {
        v.sort();
        v.dedup_by_key(|e| e.0);
        v
    })
}

fn mk_index(arrow: Arrow, sectors: &[(i32, usize)]) -> QnIndex {
    QnIndex::new(
        arrow,
        sectors.iter().map(|&(q, d)| (QN::one(q), d)).collect(),
    )
}

// ---- oracles for the block↔flat conversions ---------------------------
//
// One element at a time through multi-indices and the public accessors —
// nothing here knows about strides or runs, which is the point.

/// A random graded index: 1–3 sectors of extent 1–3 (unit sectors are the
/// common case; `QnIndex::new` refuses zero-extent ones, so there are
/// none to convert) with distinct charges of the given arity.
fn random_index(rng: &mut StdRng, arity: u8) -> QnIndex {
    let arrow = if rng.gen_bool(0.5) {
        Arrow::In
    } else {
        Arrow::Out
    };
    let mut sectors: Vec<(QN, usize)> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let q = match arity {
            1 => QN::one(rng.gen_range(-1..2)),
            _ => QN::two(rng.gen_range(-1..2), rng.gen_range(-1..2)),
        };
        if sectors.iter().all(|&(p, _)| p != q) {
            sectors.push((q, rng.gen_range(1..4usize)));
        }
    }
    QnIndex::new(arrow, sectors)
}

/// Random indices of the given order and a flux that at least one sector
/// combination conserves.
fn random_structure(rng: &mut StdRng, order: usize, arity: u8) -> (Vec<QnIndex>, QN) {
    let indices: Vec<QnIndex> = (0..order).map(|_| random_index(rng, arity)).collect();
    let key: Vec<u16> = indices
        .iter()
        .map(|i| rng.gen_range(0..i.n_sectors()) as u16)
        .collect();
    let flux = BlockSparseTensor::new(indices.clone(), QN::zero(arity)).residual(&key);
    (indices, flux)
}

/// A tensor over `(indices, flux)` with roughly half the allowed blocks
/// absent, explicit zeros sprinkled into the stored ones, and now and
/// then a stored block that is zero throughout.
fn random_tensor(rng: &mut StdRng, indices: &[QnIndex], flux: QN) -> BlockSparseTensor {
    let mut t = BlockSparseTensor::new(indices.to_vec(), flux);
    for key in t.allowed_keys() {
        if rng.gen_bool(0.5) {
            continue;
        }
        let all_zero = rng.gen_bool(0.15);
        let block = DenseTensor::from_fn(t.block_dims(&key), |_| {
            if all_zero || rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        });
        t.insert_block(key, block).unwrap();
    }
    t
}

/// Global multi-index of element `idx` of block `key`.
fn global_index(indices: &[QnIndex], key: &[u16], idx: &[usize]) -> Vec<usize> {
    idx.iter()
        .zip(key)
        .zip(indices)
        .map(|((&i, &s), index)| index.sector_offset(s as usize) + i)
        .collect()
}

fn dense_shape(indices: &[QnIndex]) -> Shape {
    Shape::from(indices.iter().map(|i| i.dim()).collect::<Vec<_>>())
}

fn oracle_to_dense(t: &BlockSparseTensor) -> DenseTensor<f64> {
    let mut out = DenseTensor::zeros(dense_shape(t.indices()));
    for (key, block) in t.blocks() {
        for idx in block.shape().index_iter() {
            out.set(&global_index(t.indices(), key, &idx), block.at(&idx));
        }
    }
    out
}

fn oracle_from_dense(
    indices: &[QnIndex],
    flux: QN,
    dense: &DenseTensor<f64>,
    tol: f64,
) -> BlockSparseTensor {
    let mut t = BlockSparseTensor::new(indices.to_vec(), flux);
    for key in t.allowed_keys() {
        let block = DenseTensor::from_fn(t.block_dims(&key), |idx| {
            dense.at(&global_index(indices, &key, idx))
        });
        // kept when some entry is not |x| <= tol: a NaN keeps its block
        if block.data().iter().any(|x| x.abs() > tol || x.is_nan()) {
            t.insert_block(key, block).unwrap();
        }
    }
    t
}

/// `(offset, value)` of every stored nonzero, ascending by offset.
fn oracle_to_flat(t: &BlockSparseTensor) -> Vec<(u64, f64)> {
    let shape = dense_shape(t.indices());
    let mut entries = Vec::new();
    for (key, block) in t.blocks() {
        for idx in block.shape().index_iter() {
            let v = block.at(&idx);
            if v != 0.0 {
                let off = shape.offset(&global_index(t.indices(), key, &idx)).unwrap();
                entries.push((off as u64, v));
            }
        }
    }
    entries.sort_by_key(|e| e.0);
    entries
}

/// Every offset inside an allowed block, ascending.
fn oracle_mask(indices: &[QnIndex], flux: QN) -> Vec<u64> {
    let probe = BlockSparseTensor::new(indices.to_vec(), flux);
    let shape = dense_shape(indices);
    let mut mask = Vec::new();
    for key in probe.allowed_keys() {
        for idx in Shape::from(probe.block_dims(&key)).index_iter() {
            mask.push(shape.offset(&global_index(indices, &key, &idx)).unwrap() as u64);
        }
    }
    mask.sort_unstable();
    mask
}

/// Entry by entry: locate each index's sector, check the flux, create the
/// block on its first nonzero.
fn oracle_from_flat(
    indices: &[QnIndex],
    flux: QN,
    sp: &SparseTensor<f64>,
) -> Result<BlockSparseTensor, Error> {
    let mut t = BlockSparseTensor::new(indices.to_vec(), flux);
    let mut blocks: std::collections::BTreeMap<Vec<u16>, DenseTensor<f64>> = Default::default();
    for (off, v) in sp.entries() {
        if v == 0.0 {
            continue;
        }
        let gidx = sp.shape().unoffset(off as usize);
        let (key, within): (Vec<u16>, Vec<usize>) = gidx
            .iter()
            .zip(indices)
            .map(|(&g, index)| {
                let (s, w) = index.locate(g);
                (s as u16, w)
            })
            .unzip();
        if !t.is_allowed(&key) {
            return Err(Error::Symmetry(format!("entry at {gidx:?}")));
        }
        let dims = t.block_dims(&key);
        blocks
            .entry(key)
            .or_insert_with(|| DenseTensor::zeros(dims))
            .set(&within, v);
    }
    for (key, block) in blocks {
        t.insert_block(key, block).unwrap();
    }
    Ok(t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `to_dense`, `from_dense` (with and without a pruning tolerance),
    /// `to_flat_sparse`, `from_flat_sparse` and `flat_mask` against the
    /// oracles, over orders 1–5 and one- and two-charge quantum numbers.
    #[test]
    fn conversions_match_index_by_index_oracles(
        order in 1usize..=5,
        arity in 1u8..=2,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (indices, flux) = random_structure(&mut rng, order, arity);
        let t = random_tensor(&mut rng, &indices, flux);

        let dense = t.to_dense();
        prop_assert_eq!(&dense, &oracle_to_dense(&t));

        // tol 0 drops the all-zero blocks; 0.5 drops whichever blocks
        // happen to hold nothing larger
        for tol in [0.0, 0.5] {
            let back = BlockSparseTensor::from_dense(indices.clone(), flux, &dense, tol).unwrap();
            prop_assert_eq!(&back, &oracle_from_dense(&indices, flux, &dense, tol));
        }
        // a dense tensor with weight outside the allowed blocks: only the
        // allowed part is extracted
        let full = DenseTensor::random(dense_shape(&indices), &mut rng);
        let cut = BlockSparseTensor::from_dense(indices.clone(), flux, &full, 0.0).unwrap();
        prop_assert_eq!(&cut, &oracle_from_dense(&indices, flux, &full, 0.0));

        let flat = t.to_flat_sparse();
        let entries: Vec<(u64, f64)> = flat.entries().collect();
        prop_assert_eq!(&entries, &oracle_to_flat(&t));
        prop_assert_eq!(flat.dims(), dense.dims());

        // stored zeros in the sparse input — one in a forbidden position,
        // one in an allowed position nothing else occupies — are skipped
        // and create no block
        let mask = oracle_mask(&indices, flux);
        let forbidden: Vec<u64> = (0..dense.len() as u64)
            .filter(|o| mask.binary_search(o).is_err())
            .collect();
        let vacant = mask
            .iter()
            .find(|&&o| entries.binary_search_by_key(&o, |e| e.0).is_err());
        let mut with_zeros = entries.clone();
        with_zeros.extend(forbidden.first().into_iter().chain(vacant).map(|&o| (o, 0.0)));
        let sp = SparseTensor::from_entries(dense_shape(&indices), with_zeros).unwrap();
        let reblocked = BlockSparseTensor::from_flat_sparse(indices.clone(), flux, &sp).unwrap();
        prop_assert_eq!(&reblocked, &oracle_from_flat(&indices, flux, &sp).unwrap());
        // the round trip keeps exactly the blocks holding a nonzero
        prop_assert_eq!(&reblocked, &oracle_from_dense(&indices, flux, &dense, 0.0));

        // one nonzero in a forbidden position is a symmetry error
        if let Some(&o) = forbidden.get(rng.gen_range(0..forbidden.len().max(1))) {
            let mut bad = entries.clone();
            bad.push((o, 1.0));
            let sp = SparseTensor::from_entries(dense_shape(&indices), bad).unwrap();
            let got = BlockSparseTensor::from_flat_sparse(indices.clone(), flux, &sp);
            prop_assert!(matches!(got, Err(Error::Symmetry(_))), "{got:?}");
            prop_assert!(oracle_from_flat(&indices, flux, &sp).is_err());
        }

        // the mask ascends and is exactly the element set of a tensor
        // storing every allowed block
        let got = BlockSparseTensor::flat_mask(&indices, flux);
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(&got, &mask);
        let everything = BlockSparseTensor::random(indices.clone(), flux, &mut rng);
        let stored: Vec<u64> = everything.to_flat_sparse().entries().map(|e| e.0).collect();
        prop_assert_eq!(&got, &stored);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// list ≡ sparse-dense ≡ sparse-sparse on random block tensors.
    #[test]
    fn algorithms_agree(
        s1 in arb_sectors(),
        s2 in arb_sectors(),
        s3 in arb_sectors(),
        s4 in arb_sectors(),
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = mk_index(Arrow::Out, &s2);
        let a = BlockSparseTensor::random(
            vec![mk_index(Arrow::In, &s1), shared.clone()],
            QN::zero(1),
            &mut rng,
        );
        let b = BlockSparseTensor::random(
            vec![shared.dual(), mk_index(Arrow::In, &s3), mk_index(Arrow::Out, &s4)],
            QN::zero(1),
            &mut rng,
        );
        // skip degenerate empty-tensor cases
        prop_assume!(a.n_blocks() > 0 && b.n_blocks() > 0);
        let exec = Executor::local();
        let spec = "ij,jkl->ikl";
        let c_list = contract(&exec, Algorithm::List, spec, &a, &b).unwrap();
        let c_sd = contract(&exec, Algorithm::SparseDense, spec, &a, &b).unwrap();
        let c_ss = contract(&exec, Algorithm::SparseSparse, spec, &a, &b).unwrap();
        let d = c_list.to_dense();
        prop_assert!(c_sd.to_dense().allclose(&d, 1e-10));
        prop_assert!(c_ss.to_dense().allclose(&d, 1e-10));
        // and against the plain dense einsum
        let reference = tt_tensor::einsum(spec, &a.to_dense(), &b.to_dense()).unwrap();
        prop_assert!(d.allclose(&reference, 1e-10));
    }

    /// Block SVD: reconstruction, isometry and Frobenius identity.
    #[test]
    fn block_svd_invariants(
        s1 in arb_sectors(),
        s2 in arb_sectors(),
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = BlockSparseTensor::random(
            vec![
                mk_index(Arrow::In, &s1),
                mk_index(Arrow::In, &[(1, 1), (-1, 1)]),
                mk_index(Arrow::Out, &s2),
            ],
            QN::zero(1),
            &mut rng,
        );
        prop_assume!(t.n_blocks() > 0);
        let exec = Executor::local();
        let svd = block_svd(
            &exec,
            &t,
            &[0, 1],
            &[2],
            TruncSpec { max_rank: usize::MAX, cutoff: 0.0, min_keep: 1 },
        )
        .unwrap();
        // Frobenius identity
        let s2sum: f64 = svd.s.norm2();
        prop_assert!((s2sum - t.norm() * t.norm()).abs() < 1e-8 * t.norm().max(1.0).powi(2));
        // reconstruction
        let mut us = svd.u.clone();
        tt_blocks::scale_bond(&mut us, 2, &svd.s, false).unwrap();
        let rec = contract(&exec, Algorithm::List, "abk,kc->abc", &us, &svd.vt).unwrap();
        prop_assert!(rec.to_dense().allclose(&t.to_dense(), 1e-9));
    }

    /// Truncated SVD error equals the discarded spectral weight.
    #[test]
    fn truncation_error_identity(
        s1 in arb_sectors(),
        seed in 0u64..10_000,
        keep in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = BlockSparseTensor::random(
            vec![mk_index(Arrow::In, &s1), mk_index(Arrow::Out, &s1)],
            QN::zero(1),
            &mut rng,
        );
        prop_assume!(t.n_blocks() > 0);
        let exec = Executor::local();
        let full = block_svd(
            &exec, &t, &[0], &[1],
            TruncSpec { max_rank: usize::MAX, cutoff: 0.0, min_keep: 1 },
        ).unwrap();
        let all = full.s.all_values();
        prop_assume!(all.len() > keep);
        let trunc = block_svd(
            &exec, &t, &[0], &[1],
            TruncSpec { max_rank: keep, cutoff: 0.0, min_keep: 1 },
        ).unwrap();
        let expect: f64 = all[keep..].iter().map(|x| x * x).sum();
        prop_assert!((trunc.trunc_err - expect).abs() < 1e-9 * expect.max(1.0));
    }
}
