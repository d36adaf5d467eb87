//! Block-sparse SVD via the list method.
//!
//! "For all algorithms, the SVD portion of DMRG is performed via the list
//! method": the order-r tensor is wrapped into an effective matrix, blocks
//! are grouped by the fused quantum number along the row index, each group
//! is decomposed independently (through the executor's distributed SVD),
//! and the singular values of *all* groups compete globally for the kept
//! bond dimension — exactly the procedure of Section IV-A.

use crate::block::{BlockKey, BlockSparseTensor};
use crate::index::QnIndex;
use crate::qn::{signed, Arrow, QN};
use crate::{Error, Result};
use std::collections::BTreeMap;
use tt_dist::{DenseOp, Executor};
use tt_linalg::TruncSpec;
use tt_tensor::DenseTensor;

/// Block-diagonal singular values: one vector per bond sector.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDiag {
    /// `(bond sector QN, descending singular values)`.
    pub sectors: Vec<(QN, Vec<f64>)>,
}

impl BlockDiag {
    /// All values across sectors, descending.
    pub fn all_values(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .sectors
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        v.sort_by(|a, b| b.partial_cmp(a).expect("no NaN"));
        v
    }

    /// Total kept bond dimension.
    pub fn bond_dim(&self) -> usize {
        self.sectors.iter().map(|(_, s)| s.len()).sum()
    }

    /// Squared norm (Σ σ²).
    pub fn norm2(&self) -> f64 {
        self.sectors
            .iter()
            .flat_map(|(_, s)| s.iter())
            .map(|x| x * x)
            .sum()
    }

    /// Von Neumann entanglement entropy of the normalized spectrum.
    pub fn entanglement_entropy(&self) -> f64 {
        let n2 = self.norm2();
        if n2 <= 0.0 {
            return 0.0;
        }
        -self
            .sectors
            .iter()
            .flat_map(|(_, s)| s.iter())
            .map(|&s| {
                let p = s * s / n2;
                if p > 1e-300 {
                    p * p.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>()
    }
}

/// Result of a truncated block SVD.
#[derive(Debug, Clone)]
pub struct BlockSvd {
    /// Left factor: original row indices plus a new bond index (`Out`).
    pub u: BlockSparseTensor,
    /// Block-diagonal singular values.
    pub s: BlockDiag,
    /// Right factor: new bond index (`In`) plus original column indices.
    pub vt: BlockSparseTensor,
    /// Sum of squares of globally discarded singular values.
    pub trunc_err: f64,
}

struct SectorGroup {
    /// fused row charge `g` (signed sum over row modes)
    g: QN,
    /// row block-key parts with their dense offsets and dims
    rows: Vec<(Vec<u16>, usize, usize)>,
    /// col block-key parts with their dense offsets and dims
    cols: Vec<(Vec<u16>, usize, usize)>,
}

/// Group the blocks of `t` by fused row charge and assemble per-group
/// matrices. `row_modes`/`col_modes` partition the tensor's modes. The
/// matrices come back in a separate vector (index-aligned with the group
/// metadata) so they can move into the executor's batch decompositions.
fn build_groups(
    t: &BlockSparseTensor,
    row_modes: &[usize],
    col_modes: &[usize],
) -> Result<(Vec<SectorGroup>, Vec<DenseTensor<f64>>)> {
    let mut seen = vec![false; t.order()];
    for &m in row_modes.iter().chain(col_modes) {
        if m >= t.order() || seen[m] {
            return Err(Error::Key(format!(
                "row/col modes must partition 0..{}",
                t.order()
            )));
        }
        seen[m] = true;
    }
    if !seen.iter().all(|&x| x) {
        return Err(Error::Key("row/col modes must cover all modes".into()));
    }

    let row_charge = |key: &BlockKey| -> QN {
        let mut g = QN::zero(t.flux().n_charges());
        for &m in row_modes {
            g = g.add(signed(
                t.indices()[m].qn(key[m] as usize),
                t.indices()[m].arrow(),
            ));
        }
        g
    };
    let part =
        |modes: &[usize], key: &BlockKey| -> Vec<u16> { modes.iter().map(|&m| key[m]).collect() };
    let part_dim = |modes: &[usize], part: &[u16]| -> usize {
        modes
            .iter()
            .zip(part)
            .map(|(&m, &s)| t.indices()[m].sector_dim(s as usize))
            .product()
    };

    // one pass over the blocks: each one's group and key parts, computed
    // once; a key part maps to its (offset, dim) in the group's matrix
    #[derive(Default)]
    struct Partial<'a> {
        rows: BTreeMap<Vec<u16>, (usize, usize)>,
        cols: BTreeMap<Vec<u16>, (usize, usize)>,
        blocks: Vec<(Vec<u16>, Vec<u16>, &'a DenseTensor<f64>)>,
    }
    let mut partials: BTreeMap<QN, Partial> = BTreeMap::new();
    for (key, block) in t.blocks() {
        let p = partials.entry(row_charge(key)).or_default();
        let (rk, ck) = (part(row_modes, key), part(col_modes, key));
        p.rows.insert(rk.clone(), (0, part_dim(row_modes, &rk)));
        p.cols.insert(ck.clone(), (0, part_dim(col_modes, &ck)));
        p.blocks.push((rk, ck, block));
    }
    // offsets in key order; the total is the matrix dimension
    let lay_out = |parts: &mut BTreeMap<Vec<u16>, (usize, usize)>| -> usize {
        parts.values_mut().fold(0, |off, (o, d)| {
            *o = off;
            off + *d
        })
    };

    let mut groups = Vec::with_capacity(partials.len());
    let mut mats = Vec::with_capacity(partials.len());
    for (g, mut p) in partials {
        let total_rows = lay_out(&mut p.rows);
        let total_cols = lay_out(&mut p.cols);
        let mut mat = DenseTensor::zeros([total_rows, total_cols]);
        for (rk, ck, block) in &p.blocks {
            let (ro, rd) = p.rows[rk];
            let (co, cd) = p.cols[ck];
            // the block matricized to (row_modes, col_modes), row by row
            let bm = block.matricize(row_modes, col_modes)?;
            debug_assert_eq!(bm.dims(), [rd, cd]);
            for (i, src) in bm.data().chunks_exact(cd.max(1)).enumerate() {
                let at = (ro + i) * total_cols + co;
                mat.data_mut()[at..at + cd].copy_from_slice(src);
            }
        }
        let flat = |parts: BTreeMap<Vec<u16>, (usize, usize)>| {
            parts.into_iter().map(|(k, (o, d))| (k, o, d)).collect()
        };
        groups.push(SectorGroup {
            g,
            rows: flat(p.rows),
            cols: flat(p.cols),
        });
        mats.push(mat);
    }
    Ok((groups, mats))
}

/// Truncated SVD of a block tensor matricized as `(row_modes ; col_modes)`.
///
/// The bond index between `U` and `Vᵀ` carries charge `−g` per group with
/// arrow `Out` on `U` (so `U` blocks conserve flux 0) and arrow `In` on
/// `Vᵀ` (which inherits the original flux).
pub fn block_svd(
    exec: &Executor,
    t: &BlockSparseTensor,
    row_modes: &[usize],
    col_modes: &[usize],
    spec: TruncSpec,
) -> Result<BlockSvd> {
    let (groups, mats) = build_groups(t, row_modes, col_modes)?;
    if groups.is_empty() {
        return Err(Error::Key(
            "block_svd of a tensor with no stored blocks".into(),
        ));
    }

    // full SVD per group — the groups are independent, so the executor
    // fans them out over its pool in Threaded mode (results and costs
    // return in group order: deterministic either way)
    let full_spec = TruncSpec {
        max_rank: usize::MAX,
        cutoff: 0.0,
        min_keep: 1,
    };
    let ops: Vec<DenseOp> = mats.iter().map(DenseOp::from).collect();
    let svds = exec.svd_trunc_batch(&ops, full_spec)?;

    // global truncation across groups
    let mut all: Vec<(f64, usize)> = Vec::new(); // (σ, group)
    for (gi, s) in svds.iter().enumerate() {
        for &sv in &s.s {
            all.push((sv, gi));
        }
    }
    all.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN"));
    let mut keep_per_group = vec![0usize; groups.len()];
    let mut kept = 0usize;
    let mut trunc_err = 0.0f64;
    for (rank, &(sv, gi)) in all.iter().enumerate() {
        let keep = (rank < spec.min_keep) || (sv > spec.cutoff && kept < spec.max_rank);
        if keep && kept < spec.max_rank.max(spec.min_keep) {
            keep_per_group[gi] += 1;
            kept += 1;
        } else {
            trunc_err += sv * sv;
        }
    }

    // new bond index sectors (only groups that kept values), ordered by QN
    let mut bond_sectors: Vec<(QN, usize)> = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        if keep_per_group[gi] > 0 {
            bond_sectors.push((g.g.neg(), keep_per_group[gi]));
        }
    }
    bond_sectors.sort();
    let bond_out = QnIndex::new(Arrow::Out, bond_sectors.clone());
    let bond_in = bond_out.dual();

    // U: row indices + bond(Out), flux 0
    let arity = t.flux().n_charges();
    let mut u_indices: Vec<QnIndex> = row_modes.iter().map(|&m| t.indices()[m].clone()).collect();
    u_indices.push(bond_out);
    let mut u = BlockSparseTensor::new(u_indices, QN::zero(arity));

    // Vt: bond(In) + col indices, flux = t.flux()
    let mut v_indices: Vec<QnIndex> = vec![bond_in];
    v_indices.extend(col_modes.iter().map(|&m| t.indices()[m].clone()));
    let mut vt = BlockSparseTensor::new(v_indices, t.flux());

    let mut s_sectors: Vec<(QN, Vec<f64>)> = Vec::new();

    for (gi, g) in groups.iter().enumerate() {
        let r = keep_per_group[gi];
        if r == 0 {
            continue;
        }
        let svd = &svds[gi];
        let bond_sector_id = bond_sectors
            .iter()
            .position(|&(q, _)| q == g.g.neg())
            .expect("sector present") as u16;
        s_sectors.push((g.g.neg(), svd.s[..r].to_vec()));

        // U blocks: slice rows belonging to each row key-part
        for (rk, ro, rd) in &g.rows {
            let mut dims: Vec<usize> = rk
                .iter()
                .zip(row_modes)
                .map(|(&s, &m)| t.indices()[m].sector_dim(s as usize))
                .collect();
            dims.push(r);
            let rank = svd.s.len();
            let flat: Vec<f64> = svd.u.data()[ro * rank..(ro + rd) * rank]
                .chunks_exact(rank)
                .flat_map(|row| &row[..r])
                .copied()
                .collect();
            let block = DenseTensor::from_vec(dims, flat)?;
            let mut key: BlockKey = rk.clone();
            key.push(bond_sector_id);
            let norm = block.max_abs();
            if norm > 0.0 {
                u.insert_block(key, block)?;
            }
        }
        // Vt blocks
        for (ck, co, cd) in &g.cols {
            let mut dims: Vec<usize> = vec![r];
            dims.extend(
                ck.iter()
                    .zip(col_modes)
                    .map(|(&s, &m)| t.indices()[m].sector_dim(s as usize)),
            );
            let n = svd.vt.dims()[1];
            let flat: Vec<f64> = svd.vt.data()[..r * n]
                .chunks_exact(n)
                .flat_map(|row| &row[*co..co + cd])
                .copied()
                .collect();
            let block = DenseTensor::from_vec(dims, flat)?;
            let mut key: BlockKey = vec![bond_sector_id];
            key.extend_from_slice(ck);
            if block.max_abs() > 0.0 {
                vt.insert_block(key, block)?;
            }
        }
    }
    s_sectors.sort_by_key(|a| a.0);

    Ok(BlockSvd {
        u,
        s: BlockDiag { sectors: s_sectors },
        vt,
        trunc_err,
    })
}

/// Multiply `t` along its mode `mode` (a bond index) by per-sector diagonal
/// values — used to absorb singular values into `U` or `Vᵀ`.
pub fn scale_bond(
    t: &mut BlockSparseTensor,
    mode: usize,
    diag: &BlockDiag,
    invert: bool,
) -> Result<()> {
    let idx = t.indices()[mode].clone();
    let keys: Vec<BlockKey> = t.blocks().map(|(k, _)| k.clone()).collect();
    for key in keys {
        let sector = key[mode] as usize;
        let qn = idx.qn(sector);
        let Some((_, vals)) = diag.sectors.iter().find(|(q, _)| *q == qn) else {
            return Err(Error::Symmetry(format!(
                "bond sector {qn} missing from BlockDiag"
            )));
        };
        let block = t.block(&key).expect("from iteration").clone();
        let dims = block.dims().to_vec();
        if dims[mode] != vals.len() {
            return Err(Error::Key(format!(
                "bond dim {} != diag len {}",
                dims[mode],
                vals.len()
            )));
        }
        // scale along `mode`
        let mut out = block.clone();
        let shape = out.shape().clone();
        let data = out.data_mut();
        for (lin, v) in data.iter_mut().enumerate() {
            let idx_m = shape.unoffset(lin)[mode];
            let s = vals[idx_m];
            *v = if invert {
                if s.abs() > 1e-300 {
                    *v / s
                } else {
                    0.0
                }
            } else {
                *v * s
            };
        }
        t.insert_block(key, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract_list, Algorithm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bond(arrow: Arrow, dims: &[(i32, usize)]) -> QnIndex {
        QnIndex::new(arrow, dims.iter().map(|&(q, d)| (QN::one(q), d)).collect())
    }

    fn two_site_like() -> BlockSparseTensor {
        // X(il In, σ1 In, σ2 In, ir Out), flux 0 — the DMRG two-site tensor
        let il = bond(Arrow::In, &[(-1, 2), (1, 2)]);
        let s = bond(Arrow::In, &[(1, 1), (-1, 1)]);
        let ir = bond(Arrow::Out, &[(-3, 1), (-1, 2), (1, 2), (3, 1)]);
        let mut rng = StdRng::seed_from_u64(111);
        BlockSparseTensor::random(vec![il, s.clone(), s, ir], QN::zero(1), &mut rng)
    }

    #[test]
    fn svd_reconstructs() {
        let t = two_site_like();
        let exec = Executor::local();
        let svd = block_svd(
            &exec,
            &t,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: usize::MAX,
                cutoff: 0.0,
                min_keep: 1,
            },
        )
        .unwrap();
        assert!(svd.trunc_err < 1e-20);
        // reconstruct: U * diag(S) * Vt
        let mut us = svd.u.clone();
        scale_bond(&mut us, 2, &svd.s, false).unwrap();
        let rec = contract_list(&exec, "abk,kcd->abcd", &us, &svd.vt).unwrap();
        assert!(rec.to_dense().allclose(&t.to_dense(), 1e-9));
    }

    #[test]
    fn svd_u_is_isometry() {
        let t = two_site_like();
        let exec = Executor::local();
        let svd = block_svd(
            &exec,
            &t,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: usize::MAX,
                cutoff: 0.0,
                min_keep: 1,
            },
        )
        .unwrap();
        // U† U = I on the bond
        let udag = svd.u.conj();
        let gram = contract_list(&exec, "abk,abl->kl", &udag, &svd.u).unwrap();
        let g = gram.to_dense();
        let n = g.dims()[0];
        assert!(g.allclose(&DenseTensor::eye(n), 1e-9));
        // Vt Vt† = I
        let vdag = svd.vt.conj();
        let gram_v = contract_list(&exec, "kcd,lcd->kl", &svd.vt, &vdag).unwrap();
        let gv = gram_v.to_dense();
        assert!(gv.allclose(&DenseTensor::eye(gv.dims()[0]), 1e-9));
    }

    #[test]
    fn svd_truncation_error_reported() {
        let t = two_site_like();
        let exec = Executor::local();
        let full = block_svd(
            &exec,
            &t,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: usize::MAX,
                cutoff: 0.0,
                min_keep: 1,
            },
        )
        .unwrap();
        let all = full.s.all_values();
        let cap = all.len() / 2;
        let trunc = block_svd(
            &exec,
            &t,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: cap,
                cutoff: 0.0,
                min_keep: 1,
            },
        )
        .unwrap();
        assert_eq!(trunc.s.bond_dim(), cap);
        let expect: f64 = all[cap..].iter().map(|x| x * x).sum();
        assert!((trunc.trunc_err - expect).abs() < 1e-9 * expect.max(1.0));
        // truncated reconstruction error ≈ trunc_err (Eckart–Young per block)
        let mut us = trunc.u.clone();
        scale_bond(&mut us, 2, &trunc.s, false).unwrap();
        let rec = contract_list(&exec, "abk,kcd->abcd", &us, &trunc.vt).unwrap();
        let diff = rec.to_dense().sub(&t.to_dense()).unwrap();
        assert!((diff.norm2() - trunc.trunc_err).abs() / trunc.trunc_err.max(1e-30) < 1e-6);
    }

    #[test]
    fn svd_frobenius_identity() {
        let t = two_site_like();
        let exec = Executor::local();
        let svd = block_svd(
            &exec,
            &t,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: usize::MAX,
                cutoff: 0.0,
                min_keep: 1,
            },
        )
        .unwrap();
        assert!((svd.s.norm2() - t.norm() * t.norm()).abs() < 1e-8);
        // entropy of a random state is positive
        assert!(svd.s.entanglement_entropy() > 0.0);
    }

    #[test]
    fn svd_with_duplicate_charge_sectors() {
        // indices produced by MPS direct sums carry repeated QN values in
        // separate sectors; the SVD must group them into one charge sector
        let dup = QnIndex::new(
            Arrow::In,
            vec![(QN::one(0), 2), (QN::one(0), 3), (QN::one(2), 2)],
        );
        let out = QnIndex::new(
            Arrow::Out,
            vec![(QN::one(0), 3), (QN::one(2), 2), (QN::one(2), 1)],
        );
        let mut rng = StdRng::seed_from_u64(117);
        let t = BlockSparseTensor::random(vec![dup, out], QN::zero(1), &mut rng);
        assert!(t.n_blocks() > 0);
        let exec = Executor::local();
        let svd = block_svd(
            &exec,
            &t,
            &[0],
            &[1],
            TruncSpec {
                max_rank: usize::MAX,
                cutoff: 0.0,
                min_keep: 1,
            },
        )
        .unwrap();
        assert!((svd.s.norm2() - t.norm() * t.norm()).abs() < 1e-9);
        let mut us = svd.u.clone();
        scale_bond(&mut us, 1, &svd.s, false).unwrap();
        let rec = contract_list(&exec, "ak,kb->ab", &us, &svd.vt).unwrap();
        assert!(rec.to_dense().allclose(&t.to_dense(), 1e-9));
    }

    #[test]
    fn svd_of_empty_tensor_errors() {
        let i = QnIndex::new(Arrow::In, vec![(QN::one(1), 2)]);
        let o = QnIndex::new(Arrow::Out, vec![(QN::one(-1), 2)]);
        // flux 0 is unsatisfiable: In(+1) − (−1)?? residual = −1 −1... no
        // allowed blocks exist ⇒ no stored blocks ⇒ clean error
        let t = BlockSparseTensor::new(vec![i, o], QN::zero(1));
        assert_eq!(t.allowed_keys().len(), 0);
        let exec = Executor::local();
        assert!(block_svd(&exec, &t, &[0], &[1], TruncSpec::default()).is_err());
    }

    #[test]
    fn bond_qns_allow_contraction() {
        // after SVD the U and Vt must contract back legally (arrow/sector
        // compatibility), verified implicitly by reconstruction tests; here
        // check flux bookkeeping explicitly
        let t = two_site_like();
        let exec = Executor::local();
        let svd = block_svd(&exec, &t, &[0, 1], &[2, 3], TruncSpec::default()).unwrap();
        assert!(svd.u.flux().is_zero());
        assert_eq!(svd.vt.flux(), t.flux());
        assert!(svd.u.indices()[2].contractable_with(&svd.vt.indices()[0]));
        let _ = Algorithm::List;
    }
}
