use super::sd::SdLayout;
use super::ss::ss_slots_chunked;
use super::*;
use crate::exec::Workspace;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Arc;
use tt_tensor::gemm::{gemm_acc_slices, gemm_path};
use tt_tensor::ssmerge::{SlotMap, SsBTable};
use tt_tensor::transpose::permute_data;
use tt_tensor::DenseTensor;

fn random_sparse(dims: &[usize], density: f64, seed: u64) -> SparseTensor<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = DenseTensor::<f64>::from_fn(dims, |_| {
        if rng.gen_bool(density) {
            rng.gen_range(-1.0..1.0)
        } else {
            0.0
        }
    });
    SparseTensor::from_dense(&dense, 0.0)
}

/// [`sd::sd_contract`] on freshly fused coords and a workspace of its own.
fn sd_contract(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
) -> Result<(DenseTensor<f64>, u64)> {
    plan.output_dims(a.dims(), b.dims())?;
    let coords = sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions());
    let ws = Workspace::default();
    sd::sd_contract(plan, a.dims(), Cow::Owned(coords), b, pool, &ws)
}

/// [`sd_contract`] cut into one chunk per pool thread, whatever
/// [`sparse_chunks`] would say of the work size.
fn sd_forced(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: &ThreadPool,
) -> DenseTensor<f64> {
    let coords = sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions());
    let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());
    let g = SdGeometry {
        m,
        n,
        b_dims: b.dims(),
        perm_b: plan.operand_permutations().1,
        nat_dims: &natural_dims(plan, a.dims(), b.dims()),
        out_perm: plan.output_permutation(),
    };
    let ws = Workspace::default();
    sd_apply(
        &g,
        b.data(),
        Cow::Owned(coords),
        pool.threads(),
        Some(pool),
        &ws,
    )
    .unwrap()
}

/// A sparse-sparse contraction as a chain step runs it: `a`'s key-sorted
/// coords merged against `b`'s table into the slots of `mask` (one class,
/// every element allowed, when `None`) over `chunks` row chunks, read
/// back as a sparse tensor with cancelled zeros dropped.
fn ss_contract(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &SparseTensor<f64>,
    mask: Option<&SlotMap>,
    (chunks, pool): (usize, Option<&ThreadPool>),
) -> SparseTensor<f64> {
    let (m, k, n) = fused_dims(plan, a.dims(), b.dims());
    let mut coords = sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions());
    coords.sort_by_key(|c| c.1);
    let btab = SsBTable::from_keyed(
        &sparse_coords(b, plan.ctr_b_positions(), plan.free_b_positions()),
        k,
    );
    let map = mask
        .cloned()
        .unwrap_or_else(|| SlotMap::new(vec![0; m], &vec![0; n]));
    let result = SsSlots {
        slots: ss_slots_chunked(&coords, &btab, &map, chunks, pool),
        map: Arc::new(map),
        axes: ss_axes(plan, a.dims(), b.dims()).unwrap(),
    };
    let (offs, vals) = result.entries();
    let dims = plan.output_dims(a.dims(), b.dims()).unwrap();
    SparseTensor::from_sorted(dims, offs, vals).unwrap()
}

/// [`ss_contract`] cut into one chunk per pool thread.
fn ss_forced(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &SparseTensor<f64>,
    mask: Option<&SlotMap>,
    pool: &ThreadPool,
) -> SparseTensor<f64> {
    ss_contract(plan, a, b, mask, (pool.threads(), Some(pool)))
}

#[test]
fn dense_kernel_matches_einsum_any_chunking() {
    let mut rng = StdRng::seed_from_u64(5);
    let a = DenseTensor::<f64>::random([7, 3, 9], &mut rng);
    let b = DenseTensor::<f64>::random([9, 3, 5], &mut rng);
    let plan = ContractPlan::parse("ajk,kjc->ca").unwrap();
    let seq = dense_contract(&plan, &a, &b, None, &Workspace::default()).unwrap();
    let pool = ThreadPool::new(3);
    let par = dense_contract(&plan, &a, &b, Some(&pool), &Workspace::default()).unwrap();
    assert_eq!(seq.data(), par.data(), "threaded must be bitwise identical");
    let reference = tt_tensor::einsum("ajk,kjc->ca", &a, &b).unwrap();
    assert_eq!(seq.data(), reference.data());
}

#[test]
fn dense_kernel_packed_path_bitwise_across_chunkings() {
    // large enough for GemmPath::Packed, with m spanning several MC
    // panels: pool-parallel GEMM must equal sequential bit for bit
    let mut rng = StdRng::seed_from_u64(51);
    let a = DenseTensor::<f64>::random([2 * MC + 37, 65], &mut rng);
    let b = DenseTensor::<f64>::random([65, 70], &mut rng);
    assert_eq!(gemm_path(65, 70), GemmPath::Packed);
    let plan = ContractPlan::parse("ik,kj->ij").unwrap();
    let seq = dense_contract(&plan, &a, &b, None, &Workspace::default()).unwrap();
    for threads in [2, 3, 5, 8] {
        let pool = ThreadPool::new(threads);
        let par = dense_contract(&plan, &a, &b, Some(&pool), &Workspace::default()).unwrap();
        assert_eq!(seq.data(), par.data(), "threads={threads}");
    }
    let reference = tt_tensor::einsum("ik,kj->ij", &a, &b).unwrap();
    assert_eq!(seq.data(), reference.data());
}

#[test]
fn dense_kernel_mixed_panel_kernels_bitwise() {
    // k = n = 200: a whole MC panel packs B, the 44-row tail runs the
    // unpacked tile; sequential is one packed panel. Both operands stored
    // transposed, so A is strided and B — read in place by the tile — is
    // executed, then packed from the executed copy
    use tt_tensor::gemm::{panel_kernel, PanelKernel};
    let (m, k, n) = (2 * MC + 44, 200, 200);
    assert_eq!(
        panel_kernel(GemmPath::Packed, MC, k, n),
        PanelKernel::Packed
    );
    assert_eq!(panel_kernel(GemmPath::Packed, 44, k, n), PanelKernel::Small);
    check_dense("ki,jk->ij", &[k, m], &[n, k], 8);
}

#[test]
fn dense_kernel_gemv_path_used_and_bitwise() {
    // fused n == 1 (Davidson matvec shape)
    let mut rng = StdRng::seed_from_u64(52);
    let a = DenseTensor::<f64>::random([40, 30], &mut rng);
    let x = DenseTensor::<f64>::random([30, 1], &mut rng);
    assert_eq!(gemm_path(30, 1), GemmPath::Gemv);
    let plan = ContractPlan::parse("ik,kj->ij").unwrap();
    let seq = dense_contract(&plan, &a, &x, None, &Workspace::default()).unwrap();
    let pool = ThreadPool::new(4);
    let par = dense_contract(&plan, &a, &x, Some(&pool), &Workspace::default()).unwrap();
    assert_eq!(seq.data(), par.data());
    let reference = tt_tensor::einsum("ik,kj->ij", &a, &x).unwrap();
    assert_eq!(seq.data(), reference.data());
}

#[test]
fn mc_ranges_cover_and_align() {
    for (m, chunks) in [(1, 4), (MC, 2), (3 * MC + 7, 4), (10 * MC, 3)] {
        let ranges = mc_aligned_ranges(m, chunks);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, m);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        for &(r0, _) in &ranges {
            assert_eq!(r0 % MC, 0, "start must be MC-aligned");
        }
    }
}

#[test]
fn fan_out_rule_table() {
    // the sparse rule: one chunk below 16 MFlop, one per lane from there
    const GATE: u64 = 16_000_000;
    for lanes in [1usize, 2, 8] {
        assert_eq!(sparse_chunks(0, lanes), 1);
        assert_eq!(sparse_chunks(GATE - 1, lanes), 1);
        assert_eq!(sparse_chunks(GATE, lanes), lanes);
        assert_eq!(sparse_chunks(u64::MAX, lanes), lanes);
    }
    // the dense rule, as the cut points of the ranges: whole MC panels
    // on the packed path, uniform rows otherwise, never more ranges
    // than lanes (or panels, or rows) and no gate on work size
    let every = |step: usize, m: usize| -> Vec<usize> { (0..m).step_by(step).chain([m]).collect() };
    let table: [(GemmPath, usize, [Vec<usize>; 3]); 10] = [
        (GemmPath::Packed, 0, [vec![0, 0], vec![0, 0], vec![0, 0]]),
        (GemmPath::Packed, 1, [vec![0, 1], vec![0, 1], vec![0, 1]]),
        (
            GemmPath::Packed,
            MC - 1,
            [every(MC, MC - 1), every(MC, MC - 1), every(MC, MC - 1)],
        ),
        (
            GemmPath::Packed,
            MC,
            [vec![0, MC], vec![0, MC], vec![0, MC]],
        ),
        (
            GemmPath::Packed,
            3 * MC + 1,
            [
                vec![0, 3 * MC + 1],
                vec![0, 2 * MC, 3 * MC + 1],
                every(MC, 3 * MC + 1),
            ],
        ),
        (GemmPath::Scalar, 0, [vec![0, 0], vec![0, 0], vec![0, 0]]),
        (GemmPath::Gemv, 1, [vec![0, 1], vec![0, 1], vec![0, 1]]),
        (
            GemmPath::Scalar,
            MC - 1,
            [
                vec![0, MC - 1],
                every(MC / 2, MC - 1),
                every(MC / 8, MC - 1),
            ],
        ),
        (
            GemmPath::Gemv,
            MC,
            [vec![0, MC], every(MC / 2, MC), every(MC / 8, MC)],
        ),
        (
            GemmPath::Scalar,
            3 * MC + 1,
            [
                vec![0, 3 * MC + 1],
                vec![0, 193, 3 * MC + 1],
                every(49, 3 * MC + 1),
            ],
        ),
    ];
    for (path, m, by_lanes) in table {
        for (lanes, cuts) in [1usize, 2, 8].into_iter().zip(by_lanes) {
            let ranges = dense_ranges(path, m, lanes);
            let got: Vec<usize> = ranges
                .iter()
                .map(|r| r.0)
                .chain(ranges.last().map(|r| r.1))
                .collect();
            assert_eq!(got, cuts, "{path:?} m={m} lanes={lanes}");
            assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0), "contiguous");
        }
    }
}

#[test]
fn volume_ranges_balance_skewed_rows() {
    // first row carries almost all the work; uniform splitting would
    // put rows [0, m/2) on one chunk
    let mut weights = vec![1u64; 64];
    weights[0] = 10_000;
    let ranges = volume_ranges(&weights, 4);
    assert_eq!(ranges.first().unwrap().0, 0);
    assert_eq!(ranges.last().unwrap().1, 64);
    // the heavy row must be alone in its range
    assert_eq!(ranges[0], (0, 1), "heavy row isolated: {ranges:?}");
    // and ranges are non-uniform in width (the latent bug trigger)
    let widths: Vec<usize> = ranges.iter().map(|&(a, b)| b - a).collect();
    assert!(widths.windows(2).any(|w| w[0] != w[1]), "{widths:?}");
}

#[test]
fn volume_buckets_respect_nonuniform_ranges() {
    // rows with equal nnz except one giant row → uneven ranges; every
    // coord must land in the bucket whose range contains its row
    let m = 32;
    let mut coords: Vec<Coord> = Vec::new();
    for r in 0..m as u64 {
        coords.push((r, 0, 1.0));
    }
    for _ in 0..100 {
        coords.push((3, 1, 2.0)); // row 3 is hot
    }
    let (ranges, buckets) = bucket_by_volume(coords, m, 4, |_| 1);
    for (range, bucket) in ranges.iter().zip(&buckets) {
        for c in bucket {
            assert!(
                (c.0 as usize) >= range.0 && (c.0 as usize) < range.1,
                "coord row {} outside range {range:?}",
                c.0
            );
        }
    }
    // scan order within each bucket is preserved per row
    for bucket in &buckets {
        let rows3: Vec<f64> = bucket.iter().filter(|c| c.0 == 3).map(|c| c.2).collect();
        if !rows3.is_empty() {
            assert_eq!(rows3[0], 1.0, "stored-order first");
        }
    }
}

#[test]
fn sd_kernel_matches_dense_reference() {
    let mut rng = StdRng::seed_from_u64(6);
    let a = random_sparse(&[6, 4, 5], 0.4, 7);
    let b = DenseTensor::<f64>::random([5, 4, 3], &mut rng);
    let plan = ContractPlan::parse("ajk,kjc->ac").unwrap();
    let (seq, flops) = sd_contract(&plan, &a, &b, None).unwrap();
    assert!(flops > 0);
    let pool = ThreadPool::new(4);
    let par = sd_forced(&plan, &a, &b, &pool);
    assert_eq!(seq.data(), par.data());
    let reference = tt_tensor::einsum("ajk,kjc->ac", &a.to_dense(), &b).unwrap();
    assert!(seq.allclose(&reference, 1e-12));
}

#[test]
fn sd_kernel_skewed_rows_bitwise() {
    // highly rectangular + row-skewed sparse operand: the shape that
    // used to land entirely in one uniform bucket
    let dense = DenseTensor::<f64>::from_fn([80, 12], |idx| {
        if idx[0] < 3 || idx[1] == 0 {
            (idx[0] * 13 + idx[1]) as f64 * 0.01 - 0.3
        } else {
            0.0
        }
    });
    let a = SparseTensor::from_dense(&dense, 0.0);
    let mut rng = StdRng::seed_from_u64(8);
    let b = DenseTensor::<f64>::random([12, 7], &mut rng);
    let plan = ContractPlan::parse("ik,kj->ij").unwrap();
    let (seq, _) = sd_contract(&plan, &a, &b, None).unwrap();
    for threads in [2, 3, 8] {
        let pool = ThreadPool::new(threads);
        let par = sd_forced(&plan, &a, &b, &pool);
        assert_eq!(seq.data(), par.data(), "threads={threads}");
    }
    let reference = tt_tensor::einsum("ik,kj->ij", &a.to_dense(), &b).unwrap();
    assert!(seq.allclose(&reference, 1e-12));
}

// -- the TTGT boundary: in-place operands vs executed permutations ------

/// The reference the layout shortcuts must reproduce bit for bit:
/// permute both operands to matrices, run the contiguous GEMM, permute
/// the natural-order result to output order.
fn dense_reference(
    plan: &ContractPlan,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
) -> DenseTensor<f64> {
    let (m, k, n) = fused_dims(plan, a.dims(), b.dims());
    let (perm_a, perm_b) = plan.operand_permutations();
    let a_mat = a.permute(perm_a).unwrap().into_data();
    let b_mat = b.permute(perm_b).unwrap().into_data();
    let mut c = vec![0.0; m * n];
    gemm_acc_slices(m, k, n, &a_mat, &b_mat, &mut c);
    DenseTensor::from_vec(natural_dims(plan, a.dims(), b.dims()), c)
        .unwrap()
        .permute(plan.output_permutation())
        .unwrap()
}

/// Same for sparse × dense: permute `B`, accumulate every stored
/// entry's full-width axpy in stored order, permute the result.
fn sd_reference(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &DenseTensor<f64>,
) -> DenseTensor<f64> {
    let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());
    let b_mat = b
        .permute(plan.operand_permutations().1)
        .unwrap()
        .into_data();
    let mut c = vec![0.0f64; m * n];
    for (row, col, v) in sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions()) {
        for j in 0..n {
            c[row as usize * n + j] += v * b_mat[col as usize * n + j];
        }
    }
    DenseTensor::from_vec(natural_dims(plan, a.dims(), b.dims()), c)
        .unwrap()
        .permute(plan.output_permutation())
        .unwrap()
}

fn check_dense(spec: &str, a_dims: &[usize], b_dims: &[usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = DenseTensor::<f64>::random(a_dims, &mut rng);
    let b = DenseTensor::<f64>::random(b_dims, &mut rng);
    let plan = ContractPlan::parse(spec).unwrap();
    let reference = dense_reference(&plan, &a, &b);
    let seq = dense_contract(&plan, &a, &b, None, &Workspace::default()).unwrap();
    assert_eq!(seq, reference, "{spec} {a_dims:?} {b_dims:?} inline");
    let pool = ThreadPool::new(3);
    let par = dense_contract(&plan, &a, &b, Some(&pool), &Workspace::default()).unwrap();
    assert_eq!(par, reference, "{spec} {a_dims:?} {b_dims:?} pool");
}

/// `a ·plan· b` by definition: permute both operands to matrices, sum
/// every natural-order element from `+0.0` in ascending `l` — per `KC`
/// block, the block sums then added in order, when the packed kernel runs
/// the product — and permute the result to output order.
fn epilogue_reference(plan: &ContractPlan, a: &DenseTensor<f64>, b: &DenseTensor<f64>) -> Vec<f64> {
    use tt_tensor::gemm::{panel_kernel, PanelKernel, KC};
    let (m, k, n) = fused_dims(plan, a.dims(), b.dims());
    let (perm_a, perm_b) = plan.operand_permutations();
    let a_mat = permute_data(a.data(), a.dims(), perm_a).unwrap();
    let b_mat = permute_data(b.data(), b.dims(), perm_b).unwrap();
    let packed = panel_kernel(gemm_path(k, n), m, k, n) == PanelKernel::Packed;
    let depth = if packed { KC } else { k.max(1) };
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            for l0 in (0..k).step_by(depth) {
                let mut part = 0.0;
                for l in l0..(l0 + depth).min(k) {
                    part += a_mat[i * k + l] * b_mat[l * n + j];
                }
                c[i * n + j] = if l0 == 0 { part } else { c[i * n + j] + part };
            }
        }
    }
    let nat_dims = natural_dims(plan, a.dims(), b.dims());
    permute_data(&c, &nat_dims, plan.output_permutation()).unwrap()
}

/// Every order of `labels`.
fn orders(labels: &str) -> Vec<String> {
    if labels.len() <= 1 {
        return vec![labels.to_string()];
    }
    let mut out = Vec::new();
    for (i, c) in labels.char_indices() {
        let rest = format!("{}{}", &labels[..i], &labels[i + 1..]);
        out.extend(orders(&rest).into_iter().map(|o| format!("{c}{o}")));
    }
    out
}

#[test]
fn dense_epilogue_stores_and_adds_through_the_output_permutation() {
    use tt_tensor::gemm::KC;
    use tt_tensor::view::Epilogue;
    // (A, its dims, B, its dims, the free labels): every output order of
    // a 2 + 2 and a 3 + 2 mode contraction, then unit dims, k = 0, the
    // packed kernel over several KC blocks, GEMV, and MC-aligned row bands
    let cases = [
        ("akb", vec![5, 7, 3], "ckd", vec![9, 7, 4], "abcd"),
        ("akbe", vec![2, 6, 3, 4], "ckd", vec![5, 6, 3], "abecd"),
        ("akb", vec![1, 3, 6], "ckd", vec![10, 3, 1], "abcd"),
        ("ak", vec![4, 0], "kc", vec![0, 9], "ac"),
        (
            "ak",
            vec![5, 2 * KC + 9],
            "kcd",
            vec![2 * KC + 9, 4, 5],
            "acd",
        ),
        ("akb", vec![3, 11, 4], "k", vec![11], "ab"),
        ("ak", vec![MC + 5, 40], "kc", vec![40, 64], "ac"),
    ];
    let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let bits = |v: &[f64]| -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
            .collect()
    };
    let pool = ThreadPool::new(3);
    let mut rng = StdRng::seed_from_u64(80);
    for (a_labels, a_dims, b_labels, b_dims, free) in cases {
        let a = DenseTensor::<f64>::random(&a_dims[..], &mut rng);
        let b = DenseTensor::<f64>::random(&b_dims[..], &mut rng);
        for out in orders(free) {
            let spec = format!("{a_labels},{b_labels}->{out}");
            let plan = ContractPlan::parse(&spec).unwrap();
            let want = epilogue_reference(&plan, &a, &b);
            // a target holding ±0, ±inf and NaN between ordinary values
            let target: Vec<f64> = (0..want.len())
                .map(|i| {
                    if i % 3 == 0 {
                        special[i / 3 % 5]
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect();
            let added: Vec<f64> = target.iter().zip(&want).map(|(t, w)| t + w).collect();
            for pool in [None, Some(&pool)] {
                for (how, expect) in [(Epilogue::Store, &want), (Epilogue::Add, &added)] {
                    let mut got = target.clone();
                    dense_into(&plan, &a, &b, pool, &mut got, how).unwrap();
                    let at = format!("{spec} {how:?} pool={}", pool.is_some());
                    assert_eq!(bits(&got), bits(expect), "{at}");
                }
            }
            // a target of the wrong length is refused and left as it was
            let mut short = target[..target.len().saturating_sub(1)].to_vec();
            let before = bits(&short);
            if !target.is_empty() {
                let refused = dense_into(&plan, &a, &b, None, &mut short, Epilogue::Add);
                assert!(refused.is_err(), "{spec}");
                assert_eq!(bits(&short), before, "{spec}");
            }
        }
    }
}

/// A store epilogue writes every element of its target, whatever the
/// target held: the product stored into a NaN-filled target is the one
/// stored into a zeroed target, bit for bit, on every panel kernel, with
/// the output in place and permuted, on one lane and on three — and so a
/// fresh output may be taken unzeroed from a workspace, as
/// [`dense_contract`] and the in-process chain take theirs.
#[test]
fn dense_store_overwrites_a_poisoned_target() {
    use tt_tensor::gemm::{panel_kernel, PanelKernel, KC};
    use tt_tensor::view::Epilogue;
    // (A, its dims, B, its dims, output in place, permuted, the kernel)
    let cases = [
        (
            "akb",
            vec![3, 11, 4],
            "k",
            vec![11],
            "ab",
            "ba",
            PanelKernel::Gemv,
        ),
        (
            "ak",
            vec![9, 7],
            "kc",
            vec![7, 5],
            "ac",
            "ca",
            PanelKernel::Small,
        ),
        (
            "ak",
            vec![MC + 5, KC + 9],
            "kc",
            vec![KC + 9, 128],
            "ac",
            "ca",
            PanelKernel::Packed,
        ),
        // zero extents: k = 0 stores zeros everywhere, m = 0 stores nothing
        (
            "ak",
            vec![4, 0],
            "kc",
            vec![0, 9],
            "ac",
            "ca",
            PanelKernel::Small,
        ),
        (
            "ak",
            vec![0, 5],
            "kc",
            vec![5, 3],
            "ac",
            "ca",
            PanelKernel::Small,
        ),
    ];
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    let pool = ThreadPool::new(3);
    let mut rng = StdRng::seed_from_u64(81);
    for (a_labels, a_dims, b_labels, b_dims, in_place, permuted, kernel) in cases {
        let a = DenseTensor::<f64>::random(&a_dims[..], &mut rng);
        let b = DenseTensor::<f64>::random(&b_dims[..], &mut rng);
        for out in [in_place, permuted] {
            let spec = format!("{a_labels},{b_labels}->{out}");
            let plan = ContractPlan::parse(&spec).unwrap();
            let (m, k, n) = fused_dims(&plan, a.dims(), b.dims());
            assert_eq!(panel_kernel(gemm_path(k, n), m, k, n), kernel, "{spec}");
            let len = m * n;
            let mut zeroed = vec![0.0; len];
            dense_into(&plan, &a, &b, None, &mut zeroed, Epilogue::Store).unwrap();
            assert_eq!(
                bits(&zeroed),
                bits(&epilogue_reference(&plan, &a, &b)),
                "{spec}"
            );
            if k == 0 {
                assert!(zeroed.iter().all(|v| v.to_bits() == 0), "{spec}");
            }
            for pool in [None, Some(&pool)] {
                let mut poisoned = vec![f64::NAN; len];
                dense_into(&plan, &a, &b, pool, &mut poisoned, Epilogue::Store).unwrap();
                let at = format!("{spec} pool={}", pool.is_some());
                assert_eq!(bits(&poisoned), bits(&zeroed), "{at}");
                // a retired buffer comes back poisoned: the packed output
                // is large enough to be served one
                let ws = Workspace::default();
                let fresh = ws.call(|| {
                    ws.give(vec![0.0; len]);
                    dense_contract(&plan, &a, &b, pool, &ws).unwrap()
                });
                assert_eq!(bits(fresh.data()), bits(&zeroed), "{at} workspace");
                let served = len * 8 >= WORKSPACE_MIN_BYTES;
                assert_eq!(ws.stats().reuses, served as u64, "{at}");
                assert_eq!(served, kernel == PanelKernel::Packed, "{at}");
            }
        }
    }
}

fn check_sd(spec: &str, a_dims: &[usize], b_dims: &[usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_sparse(a_dims, 0.3, seed);
    let b = DenseTensor::<f64>::random(b_dims, &mut rng);
    let plan = ContractPlan::parse(spec).unwrap();
    let reference = sd_reference(&plan, &a, &b);
    let (seq, flops) = sd_contract(&plan, &a, &b, None).unwrap();
    assert_eq!(seq, reference, "{spec} {a_dims:?} {b_dims:?} inline");
    let n = fused_dims(&plan, a_dims, b_dims).2;
    assert_eq!(flops, 2 * (a.nnz() * n) as u64);
    let pool = ThreadPool::new(3);
    // forced fan-out, and the production rule (these sizes sit below
    // the gate: one chunk despite the pool)
    let forced = sd_forced(&plan, &a, &b, &pool);
    assert_eq!(forced, reference, "{spec} {a_dims:?} {b_dims:?} forced");
    let (par, _) = sd_contract(&plan, &a, &b, Some(&pool)).unwrap();
    assert_eq!(par, reference, "{spec} {a_dims:?} {b_dims:?} pool");
}

/// The four H_eff steps `(spec, A dims, B dims)` at bond dimension
/// `bond`, MPO bond 5, physical dimension 2.
pub(crate) fn heff_steps(bond: usize) -> [(&'static str, Vec<usize>, Vec<usize>); 4] {
    let (m, w, d) = (bond, 5, 2);
    [
        ("bkc,cqwf->bkqwf", vec![m, w, m], vec![m, d, d, m]),
        ("kpqg,bkqwf->bpgwf", vec![w, d, d, w], vec![m, w, d, d, m]),
        ("gswh,bpgwf->bpshf", vec![w, d, d, w], vec![m, d, w, d, m]),
        ("rhf,bpshf->bpsr", vec![m, w, m], vec![m, d, d, w, m]),
    ]
}

#[test]
fn heff_chain_layouts_are_what_the_profile_asked_for() {
    // at a DMRG bond dimension: step 1 moves nothing, steps 2–3 gather
    // and scatter runs, step 4 has no contiguous free run in B and
    // scatters C only
    let layouts: Vec<(bool, bool, usize)> = heff_steps(40)
        .iter()
        .map(|(spec, a_dims, b_dims)| {
            let plan = ContractPlan::parse(spec).unwrap();
            let (m, _k, n) = fused_dims(&plan, a_dims, b_dims);
            let g = SdGeometry {
                m,
                n,
                b_dims,
                perm_b: plan.operand_permutations().1,
                nat_dims: &natural_dims(&plan, a_dims, b_dims),
                out_perm: plan.output_permutation(),
            };
            let out_dims = plan.output_dims(a_dims, b_dims).unwrap();
            let l = SdLayout::choose(&g, &out_dims, true).unwrap();
            (l.b_in_place, l.c_in_place, l.b.run())
        })
        .collect();
    assert_eq!(
        layouts,
        [
            (true, true, 2 * 2 * 40),
            (true, true, 2 * 40),
            (true, true, 40),
            (false, false, 40 * 2 * 2),
        ]
    );
}

#[test]
fn heff_steps_bitwise_equal_permute_kernel_permute() {
    // bond 40: run views engage; bond 6: every run is below
    // SD_MIN_RUN and the operands are really transposed
    for bond in [40, 6] {
        for (i, (spec, a_dims, b_dims)) in heff_steps(bond).iter().enumerate() {
            let seed = 100 + i as u64;
            check_sd(spec, a_dims, b_dims, seed);
            check_dense(spec, a_dims, b_dims, seed);
        }
    }
}

#[test]
fn strided_and_gemv_operands_bitwise_equal_reference() {
    // A stored k×m and B stored n×k on the packed path: both reach
    // the packer as strides
    assert_eq!(gemm_path(70, 300), GemmPath::Packed);
    check_dense("ki,jk->ij", &[70, 300], &[300, 70], 1);
    // … and transposed output on top
    check_dense("ki,jk->ji", &[70, 2 * MC + 5], &[90, 70], 3);
    // a transpose that does not split at the row/column boundary must
    // be executed: A (x,y,z) with rows y and cols (z,x)
    check_dense("xyz,zxc->yc", &[9, 40, 8], &[8, 9, 50], 4);
    // same transposes on the scalar path, which runs the unpacked tile:
    // A strided, B executed (the tile reads B rows in place)
    assert_eq!(gemm_path(7, 9), GemmPath::Scalar);
    check_dense("ki,jk->ij", &[7, 11], &[9, 7], 5);
    // gemv: B fully contracted, its modes in another order than A's
    assert_eq!(gemm_path(35, 1), GemmPath::Gemv);
    check_dense("ajk,kj->a", &[40, 5, 7], &[7, 5], 6);
    check_dense("jak,kj->a", &[5, 40, 7], &[7, 5], 7);
}

/// A random two-operand spec: `(spec, A dims, B dims)` with 1–2
/// contracted modes at random positions, extents 1–5 and a random
/// output order.
fn random_spec(rng: &mut StdRng) -> (String, Vec<usize>, Vec<usize>) {
    use rand::SliceRandom;
    let (free_a, free_b, ctr) = (
        rng.gen_range(1..4usize),
        rng.gen_range(0..4usize),
        rng.gen_range(1..3usize),
    );
    let mut labels = (b'a'..=b'z').map(|c| (c, rng.gen_range(1..6usize)));
    let mut take = |n: usize| labels.by_ref().take(n).collect::<Vec<_>>();
    let (fa, fb, ct) = (take(free_a), take(free_b), take(ctr));
    let mut a: Vec<(u8, usize)> = fa.iter().chain(&ct).copied().collect();
    let mut b: Vec<(u8, usize)> = fb.iter().chain(&ct).copied().collect();
    let mut out: Vec<(u8, usize)> = fa.iter().chain(&fb).copied().collect();
    a.shuffle(rng);
    b.shuffle(rng);
    out.shuffle(rng);
    let text = |ls: &[(u8, usize)]| ls.iter().map(|&(c, _)| c as char).collect::<String>();
    let dims = |ls: &[(u8, usize)]| ls.iter().map(|&(_, d)| d).collect::<Vec<_>>();
    (
        format!("{},{}->{}", text(&a), text(&b), text(&out)),
        dims(&a),
        dims(&b),
    )
}

#[test]
fn random_specs_bitwise_equal_permute_kernel_permute() {
    let mut rng = StdRng::seed_from_u64(77);
    for case in 0..60u64 {
        let (spec, a_dims, b_dims) = random_spec(&mut rng);
        check_dense(&spec, &a_dims, &b_dims, case);
        check_sd(&spec, &a_dims, &b_dims, case);
    }
}

#[test]
fn sd_views_engage_on_long_runs_of_random_specs() {
    // random specs with one long trailing free mode of B, so the run
    // views (not just the permute fallback) see arbitrary geometry
    let mut rng = StdRng::seed_from_u64(78);
    for case in 0..30u64 {
        let (spec, a_dims, mut b_dims) = random_spec(&mut rng);
        let (lhs, out) = spec.split_once("->").unwrap();
        let (a_txt, b_txt) = lhs.split_once(',').unwrap();
        // append a fresh long mode to B, and to the output at a
        // random-ish position: last on even cases, first on odd
        b_dims.push(33 + case as usize % 4);
        let out = if case % 2 == 0 {
            format!("{out}Z")
        } else {
            format!("Z{out}")
        };
        check_sd(&format!("{a_txt},{b_txt}Z->{out}"), &a_dims, &b_dims, case);
    }
}

/// What a target holds before a kernel writes it: a quiet NaN with a
/// payload no arithmetic produces from the operands below.
const UNWRITTEN: u64 = 0x7ff8_dead_beef_0001;

/// Result bits, every NaN but [`UNWRITTEN`] read as one.
fn sd_bits(v: &[f64]) -> Vec<u64> {
    v.iter()
        .map(|x| match x.to_bits() {
            UNWRITTEN => UNWRITTEN,
            _ if x.is_nan() => u64::MAX,
            bits => bits,
        })
        .collect()
}

/// ±0, ±inf and NaN: every seventh stored entry of `A` and every
/// thirteenth element of `B` is one of them.
const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// A sparse operand for `plan` whose stored entries sit where `keep`
/// says of their fused `(row, col)`, in stored (offset) order.
fn sd_operand(
    plan: &ContractPlan,
    dims: &[usize],
    keep: impl Fn(usize, usize) -> bool,
    seed: u64,
) -> SparseTensor<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let fuse = |idx: &[usize], modes: &[usize]| modes.iter().fold(0, |f, &p| f * dims[p] + idx[p]);
    let (mut offsets, mut values) = (Vec::new(), Vec::new());
    let mut idx = vec![0usize; dims.len()];
    for off in 0..dims.iter().product::<usize>() {
        let mut rest = off;
        for (i, &d) in dims.iter().enumerate().rev() {
            idx[i] = rest % d;
            rest /= d;
        }
        let (row, col) = (
            fuse(&idx, plan.free_a_positions()),
            fuse(&idx, plan.ctr_a_positions()),
        );
        if keep(row, col) {
            let t = values.len();
            values.push(if t % 7 == 3 {
                SPECIAL[t / 7 % 5]
            } else {
                rng.gen_range(-1.0..1.0)
            });
            offsets.push(off as u64);
        }
    }
    SparseTensor::from_sorted(dims, offsets, values).unwrap()
}

#[test]
fn sd_row_pass_writes_every_element_with_the_reference_bits() {
    use super::sd::sd_chunk;
    // (spec, A dims, B dims): whole-row runs of n = 1, 3, 17, 33 and 69
    // in place; C permuted; B transposed for real; runs of 33 over two
    // run offsets in place; runs of 69 where B's own run is 138 and C's
    // is scattered; A stored with its contracted mode leading, so its
    // rows are scattered in stored order (as W's are); a larger one
    // whose output buffer comes back from the workspace poisoned
    let cases: [(&str, &[usize], &[usize]); 12] = [
        ("ik,kj->ij", &[12, 5], &[5, 1]),
        ("ik,kj->ij", &[12, 5], &[5, 3]),
        ("ik,kj->ij", &[12, 5], &[5, 17]),
        ("ik,kj->ij", &[12, 5], &[5, 33]),
        ("ik,kj->ij", &[12, 5], &[5, 69]),
        ("ik,kj->ji", &[12, 5], &[5, 17]),
        ("ik,jk->ij", &[12, 5], &[69, 5]),
        ("ik,kxj->ixj", &[12, 5], &[5, 2, 33]),
        ("ik,kxj->xij", &[12, 5], &[5, 2, 69]),
        ("ki,kj->ij", &[5, 12], &[5, 33]),
        ("kiq,kxqj->xij", &[3, 12, 2], &[3, 2, 2, 17]),
        ("ik,kj->ij", &[300, 5], &[5, 69]),
    ];
    // pairs of rows share one column list, except where one row of a
    // pair differs in its first column; every fifth row has no entries
    let keep = |row: usize, col: usize| {
        let shared = (row / 2 * 7 + col * 3) % 5 < 2;
        row % 5 != 4 && (shared != (row % 6 == 3 && col == 0))
    };
    let pool = ThreadPool::new(3);
    let mut layouts = Vec::new();
    let (mut equal_pairs, mut differing_pairs) = (0, 0);
    for (case, &(spec, a_dims, b_dims)) in cases.iter().enumerate() {
        let plan = ContractPlan::parse(spec).unwrap();
        let a = sd_operand(&plan, a_dims, keep, case as u64);
        let mut rng = StdRng::seed_from_u64(50 + case as u64);
        let b = DenseTensor::<f64>::from_fn(b_dims, |_| {
            if rng.gen_range(0..13usize) == 0 {
                SPECIAL[rng.gen_range(0..5usize)]
            } else {
                rng.gen_range(-1.0..1.0)
            }
        });
        let want = sd_bits(sd_reference(&plan, &a, &b).data());
        let (m, _k, n) = fused_dims(&plan, a_dims, b_dims);
        let coords = sparse_coords(&a, plan.free_a_positions(), plan.ctr_a_positions());
        let ascending = coords.windows(2).all(|w| w[0].0 <= w[1].0);
        assert_eq!(ascending, !spec.starts_with('k'), "{spec}");
        let cols =
            |r: u64| -> Vec<u64> { coords.iter().filter(|e| e.0 == r).map(|e| e.1).collect() };
        for r in 0..m as u64 - 1 {
            let (this, next) = (cols(r), cols(r + 1));
            if !this.is_empty() && !next.is_empty() {
                *if this == next {
                    &mut equal_pairs
                } else {
                    &mut differing_pairs
                } += 1;
            }
        }
        let nat_dims = natural_dims(&plan, a_dims, b_dims);
        let g = SdGeometry {
            m,
            n,
            b_dims,
            perm_b: plan.operand_permutations().1,
            nat_dims: &nat_dims,
            out_perm: plan.output_permutation(),
        };
        // the chunk body itself, through both layouts, into a poisoned
        // target: every element is written, with the reference's bits …
        let out_dims = plan.output_dims(a_dims, b_dims).unwrap();
        for scatter in [true, false] {
            let layout = SdLayout::choose(&g, &out_dims, scatter).unwrap();
            layouts.push((layout.b_in_place, layout.c_in_place, layout.b.run()));
            let b_data = if layout.b_in_place {
                b.data().to_vec()
            } else {
                permute_data(b.data(), b_dims, g.perm_b).unwrap()
            };
            // … and into zeros it is told of, where empty rows stay
            for (fill, zeroed) in [(f64::from_bits(UNWRITTEN), false), (0.0, true)] {
                let mut c = vec![fill; m * n];
                sd_chunk(0, &coords, &layout.b, &b_data, (&layout.c, zeroed), &mut c);
                if !layout.c_in_place {
                    c = permute_data(&c, &nat_dims, g.out_perm).unwrap();
                }
                assert_eq!(sd_bits(&c), want, "{spec} scatter={scatter} {zeroed}");
            }
        }
        // sd_apply in one chunk, then again into the first result's
        // buffer, which the workspace hands back NaN-filled once it is
        // large enough to be kept
        let ws = Workspace::default();
        let apply = || sd_apply(&g, b.data(), Cow::Borrowed(&coords), 1, None, &ws).unwrap();
        let one = apply();
        assert_eq!(sd_bits(one.data()), want, "{spec} one chunk");
        ws.give(one.into_data());
        let again = apply();
        assert_eq!(sd_bits(again.data()), want, "{spec} reused target");
        if m * n * 8 >= WORKSPACE_MIN_BYTES {
            assert_eq!(ws.stats().reuses, 1, "{spec}");
        }
        // forced pool chunking over 3 threads
        let forced = sd_forced(&plan, &a, &b, &pool);
        assert_eq!(sd_bits(forced.data()), want, "{spec} 3 chunks");
    }
    // the cases cover what they say
    for run in [1, 3, 17, 33, 69] {
        assert!(layouts.iter().any(|l| l.2 == run), "a run of {run}");
    }
    for (b_in_place, c_in_place) in [(true, true), (true, false), (false, true), (false, false)] {
        assert!(
            layouts
                .iter()
                .any(|l| (l.0, l.1) == (b_in_place, c_in_place)),
            "B in place {b_in_place}, C in place {c_in_place}"
        );
    }
    assert!(equal_pairs > 0 && differing_pairs > 0);
}

#[test]
fn sd_apply_rejects_inconsistent_geometry() {
    let b = vec![0.0f64; 24];
    let g = |perm_b: &'static [usize], n: usize| SdGeometry {
        m: 2,
        n,
        b_dims: &[2, 3, 4],
        perm_b,
        nat_dims: &[2, 3, 4],
        out_perm: &[0, 1, 2],
    };
    let ws = Workspace::default();
    let apply = |g: SdGeometry, b: &[f64]| sd_apply(&g, b, Cow::Owned(vec![]), 1, None, &ws);
    assert!(apply(g(&[0, 1, 2], 12), &b).is_ok());
    // not a permutation; n no product of trailing modes
    assert!(apply(g(&[0, 1, 1], 12), &b).is_err());
    assert!(apply(g(&[0, 1, 2], 8), &b).is_err());
    // operand shorter than its dims
    assert!(apply(g(&[0, 1, 2], 12), &b[..20]).is_err());
}

#[test]
fn zero_extent_outputs_do_not_panic() {
    // A zero-dimension free mode gives an empty output; the sparse
    // kernels must flow through the chunked path instead of panicking.
    let a = SparseTensor::<f64>::from_dense(&DenseTensor::zeros([0, 3]), 0.0);
    let b = DenseTensor::<f64>::zeros([3, 2]);
    let plan = ContractPlan::parse("ik,kj->ij").unwrap();
    let (c, flops) = sd_contract(&plan, &a, &b, None).unwrap();
    assert_eq!(c.dims(), &[0, 2]);
    assert_eq!(flops, 0);
    let sb = SparseTensor::<f64>::from_dense(&b, 0.0);
    let cs = ss_contract(&plan, &a, &sb, None, (1, None));
    assert_eq!(cs.dims(), &[0, 2]);
    assert_eq!(cs.nnz(), 0);
}

#[test]
fn ss_kernel_matches_dense_reference_and_respects_mask() {
    let a = random_sparse(&[5, 6], 0.5, 8);
    let b = random_sparse(&[6, 4], 0.5, 9);
    let plan = ContractPlan::parse("ik,kj->ji").unwrap();
    let seq = ss_contract(&plan, &a, &b, None, (1, None));
    let pool = ThreadPool::new(4);
    let par = ss_forced(&plan, &a, &b, None, &pool);
    assert_eq!(seq.to_dense().data(), par.to_dense().data());
    let reference = tt_tensor::einsum("ik,kj->ji", &a.to_dense(), &b.to_dense()).unwrap();
    assert!(seq.to_dense().allclose(&reference, 1e-12));

    // mask restricts the output pattern: row i's class i, column j's
    // class j, so it allows the diagonal of the 4 × 5 output `ji`
    let (rows, cols): (Vec<u32>, Vec<u32>) = ((0..5).collect(), (0..4).collect());
    let map = SlotMap::new(rows, &cols);
    let masked = ss_contract(&plan, &a, &b, Some(&map), (1, None));
    let diagonal: Vec<u64> = (0..4).map(|i| i * 5 + i).collect();
    for (off, _) in masked.entries() {
        assert!(diagonal.contains(&off));
    }
}

/// A planned chain step's slot merge, cut into 1…5 work-balanced row
/// chunks over a pool, is bitwise the single-chunk merge: every chunk
/// owns its slot range, and the ranges concatenate in row order.
#[test]
fn ss_slots_any_chunking_is_one_chunk() {
    let (spec, a_dims, b_dims) = &heff_steps(12)[1];
    let plan = ContractPlan::parse(spec).unwrap();
    let a = random_sparse(a_dims, 0.4, 21);
    let b = random_sparse(b_dims, 0.3, 22);
    let (m, k, n) = fused_dims(&plan, a_dims, b_dims);
    let mut coords = sparse_coords(&a, plan.free_a_positions(), plan.ctr_a_positions());
    coords.sort_by_key(|c| c.1);
    let btab = SsBTable::from_keyed(
        &sparse_coords(&b, plan.ctr_b_positions(), plan.free_b_positions()),
        k,
    );
    let map = SlotMap::new(
        (0..m as u32).map(|r| r % 3).collect(),
        &(0..n as u32).map(|c| (c / 7) % 3).collect::<Vec<_>>(),
    );
    let one = ss_slots_chunked(&coords, &btab, &map, 1, None);
    assert!(one.touched.iter().any(|&t| t) && one.flops > 0);
    let pool = ThreadPool::new(3);
    for chunks in 2..=5 {
        let cut = ss_slots_chunked(&coords, &btab, &map, chunks, Some(&pool));
        assert_eq!(cut.flops, one.flops, "{chunks} chunks");
        assert_eq!(cut.touched, one.touched, "{chunks} chunks");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cut.vals), bits(&one.vals), "{chunks} chunks");
    }
}

mod ss_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The merge-join ss kernel agrees with the dense einsum
        /// reference on arbitrary odd shapes/densities, every chunk
        /// count is bitwise identical to sequential, and a mask is
        /// exactly an extraction-time filter of the unmasked result.
        #[test]
        fn ss_contract_matches_naive_any_chunking(
            m in 1usize..10,
            kk in 1usize..8,
            n in 1usize..9,
            da in 0.1f64..0.9,
            db in 0.1f64..0.9,
            seed in 0u64..10_000,
        ) {
            let a = random_sparse(&[m, kk], da, seed);
            let b = random_sparse(&[kk, n], db, seed.wrapping_add(1));
            let plan = ContractPlan::parse("ik,kj->ji").unwrap();
            let seq = ss_contract(&plan, &a, &b, None, (1, None));
            let seq_dense = seq.to_dense();
            for threads in [2usize, 5] {
                let pool = ThreadPool::new(threads);
                let par = ss_forced(&plan, &a, &b, None, &pool);
                let par_dense = par.to_dense();
                prop_assert_eq!(seq_dense.data(), par_dense.data());
            }
            let reference =
                tt_tensor::einsum("ik,kj->ji", &a.to_dense(), &b.to_dense()).unwrap();
            prop_assert!(seq.to_dense().allclose(&reference, 1e-12));

            // masked run (threaded) == unmasked result filtered to the
            // mask pattern, value for value: output (j, i) is allowed
            // iff row i's class equals column j's
            let rows: Vec<u32> = (0..m as u32).map(|i| i % 2).collect();
            let cols: Vec<u32> = (0..n as u32).map(|j| (j / 2) % 2).collect();
            let allowed = |off: u64| rows[off as usize % m] == cols[off as usize / m];
            let pool = ThreadPool::new(3);
            let map = SlotMap::new(rows.clone(), &cols);
            let masked = ss_forced(&plan, &a, &b, Some(&map), &pool);
            let expect: Vec<(u64, f64)> = seq
                .entries()
                .filter(|&(off, _)| allowed(off))
                .collect();
            let got: Vec<(u64, f64)> = masked.entries().collect();
            prop_assert_eq!(got, expect);
        }
    }
}

#[test]
fn ss_kernel_rectangular_skewed_bitwise() {
    // tall-skinny output with clustered rows — exercises the exact
    // per-entry work weights and non-uniform chunk boundaries
    let dense = DenseTensor::<f64>::from_fn([120, 6], |idx| {
        if idx[0] % 17 == 0 || idx[0] < 2 {
            0.3 - (idx[0] + 2 * idx[1]) as f64 * 0.007
        } else {
            0.0
        }
    });
    let a = SparseTensor::from_dense(&dense, 0.0);
    let b = random_sparse(&[6, 9], 0.6, 11);
    let plan = ContractPlan::parse("ik,kj->ij").unwrap();
    let seq = ss_contract(&plan, &a, &b, None, (1, None));
    for threads in [2, 5, 8] {
        let pool = ThreadPool::new(threads);
        let par = ss_forced(&plan, &a, &b, None, &pool);
        assert_eq!(
            seq.to_dense().data(),
            par.to_dense().data(),
            "threads={threads}"
        );
    }
}
