//! AutoMPO: build a matrix product operator from a sum of operator strings.
//!
//! The paper encodes both Hamiltonians "exactly the same MPO ITensor
//! generates by directly using their AutoMPO functionality". This module
//! reimplements that pipeline:
//!
//! 1. terms are added as `coef · Op(site₁) · Op(site₂) …`,
//! 2. fermionic operators are Jordan-Wigner expanded — operators are
//!    reordered by site (tracking the anticommutation sign), dressed with
//!    the local parity `F` where an odd number of fermionic operators sits
//!    to their right, and `F` strings fill the gaps,
//! 3. a finite-state machine allocates one MPO bond state per in-flight
//!    term and emits order-4 site tensors,
//! 4. parallel/zero bond states are removed (deparallelization), the
//!    compression step that gives the Hubbard MPO its small `k` (the paper
//!    reports `k = 26` after an SVD cutoff of 1e-13).

use crate::mpo::Mpo;
use crate::sites::SiteType;
use crate::{Error, Result};
use tt_blocks::{Arrow, BlockSparseTensor, QnIndex, QN};
use tt_tensor::{gemm_f64, DenseTensor};

/// One operator string: `coef · Π Op(site)`.
#[derive(Debug, Clone)]
pub struct OpTerm {
    /// Scalar coefficient.
    pub coef: f64,
    /// `(site, operator name)` factors in *operator order* (right-most acts
    /// first); sites may repeat.
    pub ops: Vec<(usize, String)>,
}

impl OpTerm {
    /// Convenience constructor.
    pub fn new(coef: f64, ops: &[(usize, &str)]) -> Self {
        OpTerm {
            coef,
            ops: ops.iter().map(|&(s, n)| (s, n.to_string())).collect(),
        }
    }
}

/// A term expanded to one local matrix per touched site (Jordan-Wigner
/// strings included), ready for both the MPO FSM and exact diagonalization.
#[derive(Debug, Clone)]
pub struct ExpandedTerm {
    /// Coefficient including reordering signs.
    pub coef: f64,
    /// `(site, matrix)` in ascending site order, covering every site in
    /// `[first, last]` (gaps carry `F` or `Id`).
    pub factors: Vec<(usize, DenseTensor<f64>)>,
}

impl ExpandedTerm {
    /// First touched site.
    pub fn first(&self) -> usize {
        self.factors.first().expect("non-empty").0
    }
    /// Last touched site.
    pub fn last(&self) -> usize {
        self.factors.last().expect("non-empty").0
    }
}

/// Jordan-Wigner expand a term on `n` sites.
pub fn expand_term<S: SiteType>(site: &S, n: usize, term: &OpTerm) -> Result<ExpandedTerm> {
    if term.ops.is_empty() {
        return Err(Error::Term("empty operator string".into()));
    }
    for &(s, _) in &term.ops {
        if s >= n {
            return Err(Error::Term(format!("site {s} out of range (n={n})")));
        }
    }
    // stable reorder by site, counting fermionic transpositions
    let mut ops: Vec<(usize, String, bool)> = term
        .ops
        .iter()
        .map(|(s, o)| (*s, o.clone(), site.is_fermionic(o)))
        .collect();
    let mut sign = 1.0f64;
    // bubble sort to count adjacent transpositions of fermionic pairs
    let len = ops.len();
    for i in 0..len {
        for j in 0..len - 1 - i {
            if ops[j].0 > ops[j + 1].0 {
                if ops[j].2 && ops[j + 1].2 {
                    sign = -sign;
                }
                ops.swap(j, j + 1);
            }
        }
    }

    // per position: parity of fermionic ops strictly to the right
    let total_fermi: usize = ops.iter().filter(|o| o.2).count();
    if !total_fermi.is_multiple_of(2) {
        return Err(Error::Term("odd number of fermionic operators".into()));
    }
    let mut right_parity = vec![0usize; ops.len() + 1];
    for i in (0..ops.len()).rev() {
        right_parity[i] = right_parity[i + 1] + usize::from(ops[i].2);
    }

    // build per-site matrices over the span
    let first = ops.first().expect("non-empty").0;
    let last = ops.last().expect("non-empty").0;
    let f_mat = site.op(site.parity_op())?;
    let id = site.op("Id")?;

    let mut factors: Vec<(usize, DenseTensor<f64>)> = Vec::new();
    let mut k = 0usize; // next operator to place
    for s in first..=last {
        let mut m: Option<DenseTensor<f64>> = None;
        // multiply all ops on this site (operator order was preserved for
        // equal sites by the stable sort)
        while k < ops.len() && ops[k].0 == s {
            let mut om = site.op(&ops[k].1)?;
            // dress with F when an odd number of fermionic ops remains to
            // the right: O → O·F (F applied first)
            if right_parity[k + 1] % 2 == 1 {
                om = gemm_f64(&om, &f_mat)?;
            }
            m = Some(match m {
                // operator order: earlier entry acts *later* ⇒ multiply on
                // the left
                Some(prev) => gemm_f64(&prev, &om)?,
                None => om,
            });
            k += 1;
        }
        let mat = match m {
            Some(m) => m,
            None => {
                // gap site: F string when an odd number of fermionic ops
                // remains to the right
                if right_parity[k] % 2 == 1 {
                    f_mat.clone()
                } else {
                    id.clone()
                }
            }
        };
        factors.push((s, mat));
    }
    Ok(ExpandedTerm {
        coef: term.coef * sign,
        factors,
    })
}

/// AutoMPO builder over a uniform site type.
#[derive(Debug, Clone)]
pub struct AutoMpo<S: SiteType> {
    site: S,
    n: usize,
    terms: Vec<OpTerm>,
}

impl<S: SiteType> AutoMpo<S> {
    /// New builder for `n` sites of type `site`.
    pub fn new(site: S, n: usize) -> Self {
        Self {
            site,
            n,
            terms: Vec::new(),
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.n
    }

    /// Add `coef · Op₁(s₁) · Op₂(s₂) …`.
    pub fn add(&mut self, coef: f64, ops: &[(usize, &str)]) -> &mut Self {
        self.terms.push(OpTerm::new(coef, ops));
        self
    }

    /// The accumulated terms.
    pub fn terms(&self) -> &[OpTerm] {
        &self.terms
    }

    /// Jordan-Wigner expand all terms (shared by MPO build and ED).
    pub fn expanded(&self) -> Result<Vec<ExpandedTerm>> {
        self.terms
            .iter()
            .map(|t| expand_term(&self.site, self.n, t))
            .collect()
    }

    /// Build the MPO via the finite-state machine + deparallelization.
    pub fn build(&self) -> Result<Mpo> {
        let expanded: Vec<ExpandedTerm> = self
            .expanded()?
            .into_iter()
            .filter(|t| t.coef != 0.0)
            .collect();
        let d = self.site.d();
        let arity = self.site.arity();
        let n = self.n;
        if expanded.is_empty() {
            // the zero operator: bond dimension 1, no stored blocks
            let tensors: Vec<BlockSparseTensor> = (0..n)
                .map(|_| {
                    BlockSparseTensor::new(
                        vec![
                            QnIndex::trivial(Arrow::In, 1, arity),
                            self.site.physical_index(Arrow::In),
                            self.site.physical_index(Arrow::Out),
                            QnIndex::trivial(Arrow::Out, 1, arity),
                        ],
                        QN::zero(arity),
                    )
                })
                .collect();
            return Mpo::from_tensors(tensors);
        }

        // --- FSM state allocation -------------------------------------
        // bond b sits between sites b and b+1 (b in 0..n-1); states:
        //   0 = "ready" (identity to the left), 1 = "done"; term states
        //   allocated for spans crossing the bond. Each state carries the
        //   accumulated charge of the operators placed so far.
        #[derive(Clone)]
        struct BondStates {
            /// charge of each state (state ids are indices)
            charges: Vec<QN>,
        }
        let zero = QN::zero(arity);
        let mut bonds: Vec<BondStates> = (0..n + 1)
            .map(|_| BondStates {
                charges: vec![zero, zero],
            })
            .collect();
        // per term, per crossed bond: state id
        let mut term_states: Vec<Vec<(usize, usize)>> = Vec::new(); // (bond, state)
        for term in &expanded {
            let mut states = Vec::new();
            let mut acc = zero;
            for (s, mat) in &term.factors {
                // charge of this factor
                let delta = matrix_charge(&self.site, mat)?;
                // bond to the right of site s
                acc = acc.add(delta);
                let b = s + 1;
                if *s < term.last() {
                    // bond charge convention: q(right bond) = q(left) + Δ
                    // (with W = (kl In, σ' In, σ Out, kr Out), conservation
                    // reads q(kr) = q(kl) + q(σ') − q(σ))
                    let id = bonds[b].charges.len();
                    bonds[b].charges.push(acc);
                    states.push((b, id));
                }
            }
            term_states.push(states);
        }

        // --- emit dense site tensors [Dl, σ', σ, Dr] --------------------
        let mut ws: Vec<DenseTensor<f64>> = Vec::with_capacity(n);
        for j in 0..n {
            let dl = bonds[j].charges.len();
            let dr = bonds[j + 1].charges.len();
            let mut w = DenseTensor::<f64>::zeros([dl, d, d, dr]);
            // identity chains
            add_op(&mut w, 0, 0, &self.site.op("Id")?, 1.0);
            add_op(&mut w, 1, 1, &self.site.op("Id")?, 1.0);
            for (term, states) in expanded.iter().zip(&term_states) {
                let first = term.first();
                let last = term.last();
                if j < first || j > last {
                    continue;
                }
                let (_, mat) = term
                    .factors
                    .iter()
                    .find(|(s, _)| *s == j)
                    .expect("span covered");
                let lstate = if j == first {
                    0
                } else {
                    states
                        .iter()
                        .find(|(b, _)| *b == j)
                        .map(|&(_, id)| id)
                        .expect("crossing state")
                };
                let rstate = if j == last {
                    1
                } else {
                    states
                        .iter()
                        .find(|(b, _)| *b == j + 1)
                        .map(|&(_, id)| id)
                        .expect("crossing state")
                };
                // absorb the coefficient at the first site
                let c = if j == first { term.coef } else { 1.0 };
                add_op(&mut w, lstate, rstate, mat, c);
            }
            ws.push(w);
        }
        let mut charges: Vec<Vec<QN>> = bonds.into_iter().map(|b| b.charges).collect();

        // boundary projection: first bond keeps state 0, last keeps state 1
        project_boundary(&mut ws, &mut charges)?;

        // deparallelization compression
        deparallelize(&mut ws, &mut charges)?;

        // --- convert to block-sparse site tensors -----------------------
        let tensors = to_block_tensors(&self.site, &ws, &charges)?;
        Mpo::from_tensors(tensors)
    }
}

/// Charge shift of a local matrix (like `SiteType::op_charge` but from the
/// matrix itself, so products of named ops work too).
fn matrix_charge<S: SiteType>(site: &S, m: &DenseTensor<f64>) -> Result<QN> {
    let d = site.d();
    let mut delta: Option<QN> = None;
    for r in 0..d {
        for c in 0..d {
            if m.at(&[r, c]).abs() > 0.0 {
                let dd = site.state_qn(r).sub(site.state_qn(c));
                match delta {
                    None => delta = Some(dd),
                    Some(p) if p == dd => {}
                    Some(p) => {
                        return Err(Error::Term(format!(
                            "factor mixes charge shifts {p} and {dd}"
                        )))
                    }
                }
            }
        }
    }
    Ok(delta.unwrap_or_else(|| QN::zero(site.arity())))
}

fn add_op(w: &mut DenseTensor<f64>, l: usize, r: usize, m: &DenseTensor<f64>, coef: f64) {
    let d = m.dims()[0];
    for a in 0..d {
        for b in 0..d {
            let v = w.at(&[l, a, b, r]) + coef * m.at(&[a, b]);
            w.set(&[l, a, b, r], v);
        }
    }
}

/// Slice the first tensor to left state 0 and the last to right state 1.
fn project_boundary(ws: &mut [DenseTensor<f64>], charges: &mut [Vec<QN>]) -> Result<()> {
    let n = ws.len();
    if n == 0 {
        return Ok(());
    }
    // left boundary
    {
        let w = &ws[0];
        let (_, d, _, dr) = dims4(w);
        let mut out = DenseTensor::zeros([1, d, d, dr]);
        for a in 0..d {
            for b in 0..d {
                for r in 0..dr {
                    out.set(&[0, a, b, r], w.at(&[0, a, b, r]));
                }
            }
        }
        ws[0] = out;
        charges[0] = vec![charges[0][0]];
    }
    // right boundary
    {
        let w = &ws[n - 1];
        let (dl, d, _, _) = dims4(w);
        let mut out = DenseTensor::zeros([dl, d, d, 1]);
        for l in 0..dl {
            for a in 0..d {
                for b in 0..d {
                    out.set(&[l, a, b, 0], w.at(&[l, a, b, 1]));
                }
            }
        }
        ws[n - 1] = out;
        charges[n] = vec![charges[n][1]];
    }
    Ok(())
}

fn dims4(w: &DenseTensor<f64>) -> (usize, usize, usize, usize) {
    let d = w.dims();
    (d[0], d[1], d[2], d[3])
}

/// Remove zero columns and merge parallel columns (left→right), then the
/// mirror pass on rows (right→left). Repeats until fixed point.
fn deparallelize(ws: &mut [DenseTensor<f64>], charges: &mut [Vec<QN>]) -> Result<()> {
    let n = ws.len();
    loop {
        let mut changed = false;
        // forward: compress columns of W_j, push transfer into W_{j+1}
        for j in 0..n - 1 {
            let (dl, d, _, dr) = dims4(&ws[j]);
            // matricize (dl·d·d) × dr
            let mat = ws[j].clone().reshape([dl * d * d, dr])?;
            let (keep, transfer) = column_depar(&mat, &charges[j + 1]);
            if keep.len() == dr {
                continue;
            }
            changed = true;
            // rebuild W_j with kept columns
            let mut njw = DenseTensor::zeros([dl, d, d, keep.len()]);
            for (nc, &(oc, _)) in keep.iter().enumerate() {
                for l in 0..dl {
                    for a in 0..d {
                        for b in 0..d {
                            njw.set(&[l, a, b, nc], ws[j].at(&[l, a, b, oc]));
                        }
                    }
                }
            }
            // transfer matrix T (keep.len() × dr): col oc = Σ T[nc,oc]·kept nc
            // fold into W_{j+1}: new W_{j+1}[nc,...] = Σ_oc T[nc,oc]·W_{j+1}[oc,...]
            let (dl2, d2, _, dr2) = dims4(&ws[j + 1]);
            debug_assert_eq!(dl2, dr);
            let mut njw2 = DenseTensor::zeros([keep.len(), d2, d2, dr2]);
            for (oc, row) in transfer.iter().enumerate() {
                for &(nc, c) in row {
                    for a in 0..d2 {
                        for b in 0..d2 {
                            for r in 0..dr2 {
                                let v = njw2.at(&[nc, a, b, r]) + c * ws[j + 1].at(&[oc, a, b, r]);
                                njw2.set(&[nc, a, b, r], v);
                            }
                        }
                    }
                }
            }
            ws[j] = njw;
            ws[j + 1] = njw2;
            charges[j + 1] = keep.iter().map(|&(_, q)| q).collect();
        }
        // backward: compress rows of W_j, push transfer into W_{j-1}
        for j in (1..n).rev() {
            let (dl, d, _, dr) = dims4(&ws[j]);
            // matricize dl × (d·d·dr): rows
            let mat = ws[j].clone().reshape([dl, d * d * dr])?;
            let matt = mat.permute(&[1, 0])?;
            let (keep, transfer) = column_depar(&matt, &charges[j]);
            if keep.len() == dl {
                continue;
            }
            changed = true;
            let mut njw = DenseTensor::zeros([keep.len(), d, d, dr]);
            for (nr, &(or, _)) in keep.iter().enumerate() {
                for a in 0..d {
                    for b in 0..d {
                        for r in 0..dr {
                            njw.set(&[nr, a, b, r], ws[j].at(&[or, a, b, r]));
                        }
                    }
                }
            }
            let (dl1, d1, _, dr1) = dims4(&ws[j - 1]);
            debug_assert_eq!(dr1, dl);
            let mut njw1 = DenseTensor::zeros([dl1, d1, d1, keep.len()]);
            for (or, row) in transfer.iter().enumerate() {
                for &(nr, c) in row {
                    for l in 0..dl1 {
                        for a in 0..d1 {
                            for b in 0..d1 {
                                let v = njw1.at(&[l, a, b, nr]) + c * ws[j - 1].at(&[l, a, b, or]);
                                njw1.set(&[l, a, b, nr], v);
                            }
                        }
                    }
                }
            }
            ws[j] = njw;
            ws[j - 1] = njw1;
            charges[j] = keep.iter().map(|&(_, q)| q).collect();
        }
        if !changed {
            break;
        }
    }
    Ok(())
}

/// Column deparallelization of an `r×c` matrix whose columns carry charges:
/// returns kept columns `(old index, charge)` and, per old column, its
/// expansion `[(kept index, coefficient)]`.
#[allow(clippy::type_complexity)]
fn column_depar(
    mat: &DenseTensor<f64>,
    col_charges: &[QN],
) -> (Vec<(usize, QN)>, Vec<Vec<(usize, f64)>>) {
    let (r, c) = (mat.dims()[0], mat.dims()[1]);
    let mut keep: Vec<(usize, QN)> = Vec::new();
    let mut transfer: Vec<Vec<(usize, f64)>> = vec![Vec::new(); c];
    let col = |j: usize| -> Vec<f64> { (0..r).map(|i| mat.at(&[i, j])).collect() };
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    for j in 0..c {
        let vj = col(j);
        let nj = norm(&vj);
        if nj <= 1e-14 {
            continue; // zero column: drop entirely
        }
        // parallel to an already-kept column of the same charge?
        let mut matched = false;
        for (ki, &(kc, kq)) in keep.iter().enumerate() {
            if kq != col_charges[j] {
                continue;
            }
            let vk = col(kc);
            let nk = norm(&vk);
            let dot: f64 = vj.iter().zip(&vk).map(|(a, b)| a * b).sum();
            let ratio = dot / (nk * nk);
            // parallel iff vj == ratio·vk
            let mut dist2 = 0.0;
            for (a, b) in vj.iter().zip(&vk) {
                let dd = a - ratio * b;
                dist2 += dd * dd;
            }
            if dist2.sqrt() <= 1e-12 * nj.max(1.0) {
                transfer[j].push((ki, ratio));
                matched = true;
                break;
            }
        }
        if !matched {
            transfer[j].push((keep.len(), 1.0));
            keep.push((j, col_charges[j]));
        }
    }
    (keep, transfer)
}

/// Convert dense MPO site tensors + bond charges to block-sparse tensors.
fn to_block_tensors<S: SiteType>(
    site: &S,
    ws: &[DenseTensor<f64>],
    charges: &[Vec<QN>],
) -> Result<Vec<BlockSparseTensor>> {
    let n = ws.len();
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        // bond states must be grouped by charge for the graded index: build
        // a permutation sorting states by charge (stable)
        let sort_perm = |ch: &[QN]| -> (Vec<usize>, QnIndex, QnIndex) {
            let mut order: Vec<usize> = (0..ch.len()).collect();
            order.sort_by_key(|&i| ch[i]);
            let mut sectors: Vec<(QN, usize)> = Vec::new();
            for &i in &order {
                match sectors.last_mut() {
                    Some((q, d)) if *q == ch[i] => *d += 1,
                    _ => sectors.push((ch[i], 1)),
                }
            }
            (
                order,
                QnIndex::new(Arrow::In, sectors.clone()),
                QnIndex::new(Arrow::Out, sectors),
            )
        };
        let (lorder, lidx, _) = sort_perm(&charges[j]);
        let (rorder, _, ridx) = sort_perm(&charges[j + 1]);
        let (dl, d, _, dr) = dims4(&ws[j]);
        // permuted dense tensor
        let mut dense = DenseTensor::zeros([dl, d, d, dr]);
        for (nl, &ol) in lorder.iter().enumerate() {
            for a in 0..d {
                for b in 0..d {
                    for (nr, &or) in rorder.iter().enumerate() {
                        dense.set(&[nl, a, b, nr], ws[j].at(&[ol, a, b, or]));
                    }
                }
            }
        }
        // MPO site tensor W(kl In, σ' In, σ Out, kr Out): the ket-side
        // physical index points Out so it contracts with an MPS tensor's
        // In, and the bra-side In contracts with a conjugated MPS tensor.
        let indices = vec![
            lidx,
            site.physical_index(Arrow::In),
            site.physical_index(Arrow::Out),
            ridx,
        ];
        let t = BlockSparseTensor::from_dense(indices, QN::zero(site.arity()), &dense, 0.0)?;
        // verify nothing was lost to symmetry filtering
        let diff = t.to_dense().max_diff(&dense)?;
        if diff > 1e-12 {
            return Err(Error::Term(format!(
                "MPO site {j} has symmetry-forbidden entries (max {diff:.2e}); \
                 charge propagation is inconsistent"
            )));
        }
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{Electron, SpinHalf};

    #[test]
    fn expand_plain_term() {
        let t = OpTerm::new(2.0, &[(1, "Sz"), (3, "Sz")]);
        let e = expand_term(&SpinHalf, 5, &t).unwrap();
        assert_eq!(e.coef, 2.0);
        assert_eq!(e.first(), 1);
        assert_eq!(e.last(), 3);
        assert_eq!(e.factors.len(), 3); // sites 1,2,3 with Id gap
        let gap = &e.factors[1].1;
        assert!(gap.allclose(&SpinHalf.op("Id").unwrap(), 0.0));
    }

    #[test]
    fn expand_fermion_pair_forward() {
        // c†_0 c_2: site0 = Cdagup·F, site1 = F, site2 = Cup
        let t = OpTerm::new(1.0, &[(0, "Cdagup"), (2, "Cup")]);
        let e = expand_term(&Electron, 3, &t).unwrap();
        assert_eq!(e.coef, 1.0);
        let f = Electron.op("F").unwrap();
        let expect0 = gemm_f64(&Electron.op("Cdagup").unwrap(), &f).unwrap();
        assert!(e.factors[0].1.allclose(&expect0, 1e-14));
        assert!(e.factors[1].1.allclose(&f, 1e-14));
        assert!(e.factors[2].1.allclose(&Electron.op("Cup").unwrap(), 1e-14));
    }

    #[test]
    fn expand_fermion_pair_reversed() {
        // c†_2 c_0 = −c_0 c†_2 → site0 = −(Cup·F)?? the sign and F dressing
        // combine to F·Cup at site 0 and Cdagup at site 2 (see derivation in
        // the module docs); verify against a 2-site dense construction
        let t = OpTerm::new(1.0, &[(2, "Cdagup"), (0, "Cup")]);
        let e = expand_term(&Electron, 3, &t).unwrap();
        // reorder sign: swapping two fermionic ops = −1
        assert_eq!(e.coef, -1.0);
        // factor at site 0 is Cup·F (dressed), which equals −F·Cup
        let f = Electron.op("F").unwrap();
        let cupf = gemm_f64(&Electron.op("Cup").unwrap(), &f).unwrap();
        assert!(e.factors[0].1.allclose(&cupf, 1e-14));
        assert!(e.factors[2]
            .1
            .allclose(&Electron.op("Cdagup").unwrap(), 1e-14));
    }

    #[test]
    fn odd_fermion_count_rejected() {
        let t = OpTerm::new(1.0, &[(0, "Cup")]);
        assert!(expand_term(&Electron, 2, &t).is_err());
    }

    #[test]
    fn heisenberg_chain_mpo_bond_dim() {
        // nearest-neighbour Heisenberg: canonical MPO bond dimension is 5
        let n = 6;
        let mut b = AutoMpo::new(SpinHalf, n);
        for i in 0..n - 1 {
            b.add(1.0, &[(i, "Sz"), (i + 1, "Sz")]);
            b.add(0.5, &[(i, "S+"), (i + 1, "S-")]);
            b.add(0.5, &[(i, "S-"), (i + 1, "S+")]);
        }
        let mpo = b.build().unwrap();
        assert_eq!(mpo.n_sites(), n);
        let k = mpo.max_bond_dim();
        assert_eq!(k, 5, "NN Heisenberg compresses to k=5");
    }

    #[test]
    fn single_site_field_mpo() {
        let n = 4;
        let mut b = AutoMpo::new(SpinHalf, n);
        for i in 0..n {
            b.add(-0.7, &[(i, "Sz")]);
        }
        let mpo = b.build().unwrap();
        assert_eq!(mpo.max_bond_dim(), 2);
    }

    #[test]
    fn hubbard_chain_mpo_builds() {
        let n = 4;
        let mut b = AutoMpo::new(Electron, n);
        for i in 0..n - 1 {
            for (cd, c) in [("Cdagup", "Cup"), ("Cdagdn", "Cdn")] {
                b.add(-1.0, &[(i, cd), (i + 1, c)]);
                b.add(-1.0, &[(i + 1, cd), (i, c)]);
            }
        }
        for i in 0..n {
            b.add(8.5, &[(i, "Nupdn")]);
        }
        let mpo = b.build().unwrap();
        // canonical Hubbard NN MPO bond dimension is 6
        assert_eq!(mpo.max_bond_dim(), 6);
    }

    #[test]
    fn mpo_matrix_matches_direct_sum_spins() {
        // materialize the MPO as a full 2^n × 2^n matrix and compare to the
        // direct Kronecker construction
        let n = 4;
        let mut b = AutoMpo::new(SpinHalf, n);
        for i in 0..n - 1 {
            b.add(1.0, &[(i, "Sz"), (i + 1, "Sz")]);
            b.add(0.5, &[(i, "S+"), (i + 1, "S-")]);
            b.add(0.5, &[(i, "S-"), (i + 1, "S+")]);
        }
        b.add(0.3, &[(1, "Sz")]);
        let mpo = b.build().unwrap();
        let dense_h = mpo.to_dense_matrix().unwrap();
        let reference = crate::mpo::dense_from_terms(&SpinHalf, n, &b.expanded().unwrap());
        assert!(dense_h.allclose(&reference, 1e-10));
    }

    #[test]
    fn mpo_matrix_matches_direct_sum_hubbard() {
        let n = 3;
        let mut b = AutoMpo::new(Electron, n);
        for i in 0..n - 1 {
            for (cd, c) in [("Cdagup", "Cup"), ("Cdagdn", "Cdn")] {
                b.add(-1.0, &[(i, cd), (i + 1, c)]);
                b.add(-1.0, &[(i + 1, cd), (i, c)]);
            }
        }
        for i in 0..n {
            b.add(4.0, &[(i, "Nupdn")]);
        }
        let mpo = b.build().unwrap();
        let dense_h = mpo.to_dense_matrix().unwrap();
        let reference = crate::mpo::dense_from_terms(&Electron, n, &b.expanded().unwrap());
        assert!(dense_h.allclose(&reference, 1e-10));
    }

    #[test]
    fn long_range_fermion_term_with_string() {
        // c†_0 c_3 hopping across two string sites: MPO == dense reference
        let n = 4;
        let mut b = AutoMpo::new(Electron, n);
        b.add(-1.3, &[(0, "Cdagup"), (3, "Cup")]);
        b.add(-1.3, &[(3, "Cdagup"), (0, "Cup")]);
        let mpo = b.build().unwrap();
        let dense_h = mpo.to_dense_matrix().unwrap();
        let reference = crate::mpo::dense_from_terms(&Electron, n, &b.expanded().unwrap());
        assert!(dense_h.allclose(&reference, 1e-10));
        // hermiticity
        let ht = dense_h.permute(&[1, 0]).unwrap();
        assert!(dense_h.allclose(&ht, 1e-10));
    }
}
