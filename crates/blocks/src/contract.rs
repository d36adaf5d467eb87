//! The paper's three block-sparsity contraction algorithms (Section IV-A).
//!
//! * [`Algorithm::List`] — Algorithm 2 of the paper: loop over all pairs of
//!   quantum-number blocks, contract pairs whose labels match along the
//!   contracted indices, and accumulate into the result block keyed by the
//!   surviving labels. Each pairwise contraction is dispatched through the
//!   executor (a distributed dense contraction when ranks > 1).
//! * [`Algorithm::SparseDense`] — flatten the first (sparse-stored) operand
//!   into one big sparse tensor, densify the second, contract once.
//! * [`Algorithm::SparseSparse`] — flatten both operands into sparse
//!   tensors and contract once, with the output sparsity pre-computed from
//!   the quantum-number structure and passed as a mask.
//!
//! All three produce identical results; they differ in supersteps, memory
//! and communication exactly as Table II quantifies.

use crate::block::{BlockKey, BlockSparseTensor};
use crate::index::QnIndex;
use crate::qn::QN;
use crate::{Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use tt_dist::{DenseOp, Executor, OpHandle};
use tt_tensor::einsum::ContractPlan;
use tt_tensor::SparseTensor;

/// Which block-sparsity strategy to contract with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Per-block-pair contraction (paper Alg. 2).
    List,
    /// One sparse × dense contraction over the flattened tensors.
    SparseDense,
    /// One sparse × sparse contraction with pre-computed output sparsity.
    SparseSparse,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::List => write!(f, "list"),
            Algorithm::SparseDense => write!(f, "sparse-dense"),
            Algorithm::SparseSparse => write!(f, "sparse-sparse"),
        }
    }
}

/// Validate operands against the plan and compute the output indices/flux.
fn output_structure(
    plan: &ContractPlan,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<(Vec<QnIndex>, QN)> {
    output_structure_parts(plan, a.indices(), a.flux(), b.indices(), b.flux())
}

/// [`output_structure`] from operands given only as structure (indices +
/// flux) — the form a [`ResidentOperand`] carries, and all a chain step
/// needs to plan its output symbolically.
fn output_structure_parts(
    plan: &ContractPlan,
    a_indices: &[QnIndex],
    a_flux: QN,
    b_indices: &[QnIndex],
    b_flux: QN,
) -> Result<(Vec<QnIndex>, QN)> {
    let (oa, ob) = plan.operand_orders();
    if oa != a_indices.len() || ob != b_indices.len() {
        return Err(Error::Key(format!(
            "spec orders {oa}/{ob} don't match tensors {}/{}",
            a_indices.len(),
            b_indices.len()
        )));
    }
    for (&ia, &ib) in plan.ctr_a_positions().iter().zip(plan.ctr_b_positions()) {
        if !a_indices[ia].contractable_with(&b_indices[ib]) {
            return Err(Error::Symmetry(format!(
                "contracted index pair ({ia},{ib}) has mismatched sectors or arrows"
            )));
        }
    }
    let natural: Vec<QnIndex> = plan
        .free_a_positions()
        .iter()
        .map(|&i| a_indices[i].clone())
        .chain(
            plan.free_b_positions()
                .iter()
                .map(|&j| b_indices[j].clone()),
        )
        .collect();
    let out_indices: Vec<QnIndex> = plan
        .output_permutation()
        .iter()
        .map(|&p| natural[p].clone())
        .collect();
    Ok((out_indices, a_flux.add(b_flux)))
}

/// Every matching block pair of a contraction, in the one order all list
/// paths share: `A`'s blocks as given, and for each the `B` blocks with the
/// same contracted labels, as given. `emit` receives the two payloads and
/// the pair's output block key. Partials accumulate into an output block in
/// this order, so sharing it is what makes [`contract_list`],
/// [`contract_resident`] and [`chain_apply`] bitwise-equal to each other.
fn for_each_block_pair<'a, 'b, A: Copy, B: Copy>(
    plan: &ContractPlan,
    a: impl IntoIterator<Item = (&'a BlockKey, A)>,
    b: impl IntoIterator<Item = (&'b BlockKey, B)>,
    mut emit: impl FnMut(A, B, BlockKey),
) {
    let (ctr_a, ctr_b) = (plan.ctr_a_positions(), plan.ctr_b_positions());
    let (free_a, free_b) = (plan.free_a_positions(), plan.free_b_positions());
    let out_perm = plan.output_permutation();
    // index B's blocks by contracted-label tuple for O(|A|+|B|+matches)
    let mut b_by_ctr: HashMap<Vec<u16>, Vec<(&BlockKey, B)>> = HashMap::new();
    for (kb, pb) in b {
        let ctr_key = ctr_b.iter().map(|&i| kb[i]).collect();
        b_by_ctr.entry(ctr_key).or_default().push((kb, pb));
    }
    let mut natural: Vec<u16> = Vec::with_capacity(free_a.len() + free_b.len());
    for (ka, pa) in a {
        let ctr_key: Vec<u16> = ctr_a.iter().map(|&i| ka[i]).collect();
        let Some(matches) = b_by_ctr.get(&ctr_key) else {
            continue;
        };
        for &(kb, pb) in matches {
            // natural result key: free_a labels then free_b labels
            natural.clear();
            natural.extend(free_a.iter().map(|&i| ka[i]));
            natural.extend(free_b.iter().map(|&j| kb[j]));
            emit(pa, pb, out_perm.iter().map(|&p| natural[p]).collect());
        }
    }
}

/// Contract two block-sparse tensors with the chosen algorithm.
pub fn contract(
    exec: &Executor,
    algo: Algorithm,
    spec: &str,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    match algo {
        Algorithm::List => contract_list(exec, spec, a, b),
        Algorithm::SparseDense => contract_sparse_dense(exec, spec, a, b),
        Algorithm::SparseSparse => contract_sparse_sparse(exec, spec, a, b),
    }
}

/// Paper Algorithm 2: loop over block pairs, match contracted labels,
/// accumulate result blocks.
///
/// The independent per-pair GEMMs are dispatched through
/// [`Executor::contract_batch`] — pool-parallel in `ExecMode::Threaded` —
/// and the partial results are accumulated into output blocks afterwards
/// in pair-enumeration order, so the floating-point accumulation order
/// (and therefore the result, bit for bit) never depends on the mode.
pub fn contract_list(
    exec: &Executor,
    spec: &str,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
    let (out_indices, out_flux) = output_structure(&plan, a, b)?;
    let mut c = BlockSparseTensor::new(out_indices, out_flux);

    let mut out_keys: Vec<BlockKey> = Vec::new();
    let mut pairs: Vec<(DenseOp, DenseOp)> = Vec::new();
    for_each_block_pair(&plan, a.blocks(), b.blocks(), |ablock, bblock, kc| {
        out_keys.push(kc);
        pairs.push((ablock.into(), bblock.into()));
    });

    if exec.mode() == tt_dist::ExecMode::Threaded {
        // pair-level fan-out over the pool; partials return in pair order
        let partials = exec.contract_batch(spec, &pairs)?;
        for (kc, partial) in out_keys.into_iter().zip(partials) {
            absorb(&mut c, kc, partial)?;
        }
    } else {
        // sequential: stream one partial at a time (no operand copies, no
        // materialized partial list) — bitwise identical to the batch path
        for (kc, (ablock, bblock)) in out_keys.into_iter().zip(pairs) {
            let partial = exec.contract(spec, ablock, bblock)?;
            absorb(&mut c, kc, partial)?;
        }
    }
    Ok(c)
}

/// Accumulate a partial into its output block (always called in pair
/// order, so the floating-point accumulation order is fixed). The
/// `Arc`-backed storage accumulates in place — no clone per partial.
fn absorb(
    c: &mut BlockSparseTensor,
    kc: BlockKey,
    partial: tt_tensor::DenseTensor<f64>,
) -> Result<()> {
    c.axpy_block(kc, partial)
}

/// A block-sparse operand uploaded onto the executor for reuse across
/// many contractions (the paper's operand-residency discipline: the
/// environment and MPO tensors of a Davidson solve stay put, only the
/// iteration vector moves).
///
/// The uploaded form follows the algorithm that will consume it: one
/// [`OpHandle`] per quantum-number block for [`Algorithm::List`]
/// (block-pair tasks reference resident blocks by key and are routed to
/// the rank that holds them), or one flattened-sparse handle for the
/// sparse-dense / sparse-sparse algorithms (resident coordinate buckets
/// and grouped tables). Free with [`free_operand`] when the reuse window
/// closes.
pub struct ResidentOperand {
    indices: Vec<QnIndex>,
    flux: QN,
    form: ResidentForm,
}

enum ResidentForm {
    List {
        keys: Vec<BlockKey>,
        handles: Vec<OpHandle>,
    },
    Flat(OpHandle),
}

impl ResidentOperand {
    /// The operand's index structure.
    pub fn indices(&self) -> &[QnIndex] {
        &self.indices
    }

    /// The operand's flux.
    pub fn flux(&self) -> QN {
        self.flux
    }
}

/// Upload `t` in the form `algo` consumes (see [`ResidentOperand`]).
pub fn upload_operand(exec: &Executor, algo: Algorithm, t: &BlockSparseTensor) -> ResidentOperand {
    let form = match algo {
        Algorithm::List => {
            let mut keys = Vec::with_capacity(t.n_blocks());
            let mut handles = Vec::with_capacity(t.n_blocks());
            for (k, block) in t.blocks_shared() {
                keys.push(k.clone());
                handles.push(exec.upload_shared(block));
            }
            ResidentForm::List { keys, handles }
        }
        Algorithm::SparseDense | Algorithm::SparseSparse => {
            ResidentForm::Flat(exec.upload_sparse(&t.to_flat_sparse()))
        }
    };
    ResidentOperand {
        indices: t.indices().to_vec(),
        flux: t.flux(),
        form,
    }
}

/// Free every handle behind `op` (the derived worker buffers are dropped
/// once the last upload of each content is freed).
pub fn free_operand(exec: &Executor, op: &ResidentOperand) -> Result<()> {
    match &op.form {
        ResidentForm::List { handles, .. } => {
            for h in handles {
                exec.free(h).map_err(Error::from)?;
            }
        }
        ResidentForm::Flat(h) => exec.free(h).map_err(Error::from)?,
    }
    Ok(())
}

/// Contract a resident operand `a` against a by-value operand `b` —
/// bitwise-identical to [`contract`] on the same tensors, on every
/// backend and in every mode. One step with a block-form result: `b` is
/// converted on the way in and the result re-blocked on the way out, so a
/// sequence of steps that feed each other belongs in [`chain_apply`],
/// which this function is the per-step reference of.
///
/// For [`Algorithm::List`] the per-pair `B` blocks are themselves
/// uploaded transiently (each distinct block ships at most once per rank
/// per call instead of once per pair) and freed before returning; the
/// resident `A` blocks ship nothing after their first use, which is
/// where the Davidson matvec reuse pays.
///
/// The transient uploads cost one content hash per distinct `B` block on
/// every call (the `Arc`-backed block storage makes the upload itself
/// clone-free) — on `Backend::InProcess` that is overhead with no
/// shipping to save, but it is paid uniformly on purpose: the α–β charge
/// sequence depends on the registry's hit/miss bookkeeping, and keeping
/// it identical on every backend is what makes the cost counters
/// bitwise-equal across backends (a tested invariant).
pub fn contract_resident(
    exec: &Executor,
    algo: Algorithm,
    spec: &str,
    a: &ResidentOperand,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
    let (out_indices, out_flux) =
        output_structure_parts(&plan, &a.indices, a.flux, b.indices(), b.flux())?;
    match &a.form {
        ResidentForm::Flat(h) => match algo {
            Algorithm::SparseDense => {
                let b_dense = b.to_dense();
                let c_dense = exec.contract_sd(spec, h, &b_dense)?;
                BlockSparseTensor::from_dense(out_indices, out_flux, &c_dense, 0.0)
            }
            Algorithm::SparseSparse => {
                let b_flat = b.to_flat_sparse();
                let mask = BlockSparseTensor::flat_mask(&out_indices, out_flux);
                let c_sparse = exec.contract_ss(spec, h, &b_flat, Some(&mask))?;
                BlockSparseTensor::from_flat_sparse(out_indices, out_flux, &c_sparse)
            }
            Algorithm::List => Err(Error::Key(
                "operand was uploaded in flattened form; contract with the algorithm it was \
                 uploaded for"
                    .into(),
            )),
        },
        ResidentForm::List { keys, handles } => {
            if algo != Algorithm::List {
                return Err(Error::Key(
                    "operand was uploaded per-block for the list algorithm".into(),
                ));
            }
            let mut c = BlockSparseTensor::new(out_indices, out_flux);

            // pass 1: enumerate the pairs, uploading each used B block
            // once (first-use order — deterministic; Arc-shared, so the
            // upload hashes the block but does not clone its storage), to
            // be freed on return
            let mut b_handles: HashMap<&BlockKey, OpHandle> = HashMap::new();
            let mut out_keys: Vec<BlockKey> = Vec::new();
            let mut pair_refs: Vec<(usize, &BlockKey)> = Vec::new();
            for_each_block_pair(
                &plan,
                keys.iter().zip(0..),
                b.blocks_shared().map(|(kb, block)| (kb, (kb, block))),
                |ai, (kb, block), kc| {
                    b_handles
                        .entry(kb)
                        .or_insert_with(|| exec.upload_shared(block));
                    out_keys.push(kc);
                    pair_refs.push((ai, kb));
                },
            );
            // pass 2: assemble handle pairs (immutable borrows only)
            let ops: Vec<(DenseOp, DenseOp)> = pair_refs
                .iter()
                .map(|&(ai, kb)| {
                    (
                        (&handles[ai]).into(),
                        b_handles.get(kb).expect("uploaded above").into(),
                    )
                })
                .collect();
            let partials = exec.contract_batch(spec, &ops);
            // release the transient uploads before surfacing any batch
            // error — a failed matvec must not leave buffers behind on the
            // workers (nothing there would ever evict them)
            drop(ops);
            let mut free_err: Option<tt_dist::Error> = None;
            for h in b_handles.values() {
                if let Err(e) = exec.free(h) {
                    free_err.get_or_insert(e);
                }
            }
            let partials = partials?;
            if let Some(e) = free_err {
                return Err(e.into());
            }
            for (kc, partial) in out_keys.into_iter().zip(partials) {
                absorb(&mut c, kc, partial)?;
            }
            Ok(c)
        }
    }
}

/// Apply an ordered chain of contractions — each step's structural `A`
/// operand resident, its `B` operand the previous step's output (`x` for
/// step 0) — without bringing any intermediate back into block form.
/// Bitwise-identical to folding [`contract_resident`] over the same steps
/// (and therefore to the value path) on every backend, cost counters
/// included.
///
/// [`Algorithm::List`] and [`Algorithm::SparseDense`] run as **worker-side
/// chain supersteps**: every intermediate stays in the worker
/// stores under driver-issued keys and only the final result downloads, so
/// on the multi-process backend the driver's *result* traffic collapses
/// from one payload per block pair per step to one download per output
/// block of the last step. List chains per-block results (accumulate steps
/// fold partials in the exact enumeration order of [`contract_list`]);
/// sparse-dense chains the whole flattened contractions.
///
/// [`Algorithm::SparseSparse`] stays flat on the driver: `x` is flattened
/// once, each step's sparse result is the next step's `B` operand as it
/// comes back from [`Executor::contract_ss`], and only `y` is re-blocked.
/// The steps are still one superstep each (a worker-side sparse-sparse
/// chain is an open ROADMAP item), but the boundary between block and flat
/// form is crossed once per application, not twice per step.
///
/// `state` carries what the chain derives from structure alone between
/// applications (see [`ChainState`]); pass the same one for as long as the
/// operands live.
pub fn chain_apply(
    exec: &Executor,
    algo: Algorithm,
    steps: &[(&str, &ResidentOperand)],
    x: &BlockSparseTensor,
    state: &ChainState,
) -> Result<BlockSparseTensor> {
    if steps.is_empty() {
        return Err(Error::Key("empty contraction chain".into()));
    }
    match algo {
        Algorithm::List => chain_apply_list(exec, steps, x),
        Algorithm::SparseDense => chain_apply_sd(exec, steps, x),
        Algorithm::SparseSparse => chain_apply_ss(exec, steps, x, state),
    }
}

/// What a chain works out from the *structure* of its operands and input —
/// indices and fluxes, never values — kept between applications so that a
/// Davidson solve pays for it once per bond instead of once per step per
/// matvec. Owned by whoever owns the resident operands and dropped with
/// them; a chain applied to other operands or a differently graded `x`
/// finds the state stale and derives it afresh.
///
/// Today only the sparse-sparse chain keeps anything here: each step's
/// output indices and flux and its output-sparsity mask.
#[derive(Default)]
pub struct ChainState {
    ss: Mutex<Option<Arc<SsChainPlan>>>,
}

/// One sparse-sparse step's output: graded indices, flux, and every dense
/// offset the symmetry allows, ascending ([`BlockSparseTensor::flat_mask`]).
struct SsStepOutput {
    indices: Vec<QnIndex>,
    flux: QN,
    mask: Vec<u64>,
}

/// The structural plan of a sparse-sparse chain, with the structure it
/// was derived from.
struct SsChainPlan {
    x_indices: Vec<QnIndex>,
    x_flux: QN,
    /// Each step's spec and operand structure.
    operands: Vec<(String, Vec<QnIndex>, QN)>,
    outputs: Vec<SsStepOutput>,
}

impl SsChainPlan {
    fn derive(steps: &[(&str, &ResidentOperand)], x: &BlockSparseTensor) -> Result<Self> {
        let mut outputs: Vec<SsStepOutput> = Vec::with_capacity(steps.len());
        for (spec, a) in steps {
            let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
            let (b_indices, b_flux) = match outputs.last() {
                Some(prev) => (&prev.indices[..], prev.flux),
                None => (x.indices(), x.flux()),
            };
            let (indices, flux) =
                output_structure_parts(&plan, &a.indices, a.flux, b_indices, b_flux)?;
            let mask = BlockSparseTensor::flat_mask(&indices, flux);
            outputs.push(SsStepOutput {
                indices,
                flux,
                mask,
            });
        }
        Ok(Self {
            x_indices: x.indices().to_vec(),
            x_flux: x.flux(),
            operands: steps
                .iter()
                .map(|(spec, a)| (spec.to_string(), a.indices.clone(), a.flux))
                .collect(),
            outputs,
        })
    }

    fn derived_from(&self, steps: &[(&str, &ResidentOperand)], x: &BlockSparseTensor) -> bool {
        self.x_indices == x.indices()
            && self.x_flux == x.flux()
            && self.operands.len() == steps.len()
            && self
                .operands
                .iter()
                .zip(steps)
                .all(|((spec, indices, flux), (s, a))| {
                    spec == s && *indices == a.indices && *flux == a.flux
                })
    }
}

impl ChainState {
    /// The sparse-sparse plan for `steps` on `x`: the kept one when it was
    /// derived from this very structure, a fresh one (kept from now on)
    /// otherwise.
    fn ss_plan(
        &self,
        steps: &[(&str, &ResidentOperand)],
        x: &BlockSparseTensor,
    ) -> Result<Arc<SsChainPlan>> {
        let mut slot = self
            .ss
            .lock()
            .expect("the plan slot is only ever assigned whole");
        if let Some(plan) = slot.as_ref().filter(|p| p.derived_from(steps, x)) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(SsChainPlan::derive(steps, x)?);
        *slot = Some(Arc::clone(&plan));
        Ok(plan)
    }
}

/// The sparse-sparse chain (see [`chain_apply`]). A step's flat result
/// may hold explicit zeros where products cancelled; block form never
/// stores them back into a flattened operand
/// ([`BlockSparseTensor::to_flat_sparse`] skips zeros), so dropping them
/// here hands the next step bit for bit the operand the per-step path
/// ([`contract_resident`]) builds — and with it the same flop count.
fn chain_apply_ss(
    exec: &Executor,
    steps: &[(&str, &ResidentOperand)],
    x: &BlockSparseTensor,
    state: &ChainState,
) -> Result<BlockSparseTensor> {
    let plan = state.ss_plan(steps, x)?;
    let mut cur = x.to_flat_sparse();
    for ((spec, a), out) in steps.iter().zip(&plan.outputs) {
        let ResidentForm::Flat(h) = &a.form else {
            return Err(Error::Key(
                "operand was uploaded per-block for the list algorithm".into(),
            ));
        };
        let c = exec.contract_ss(spec, h, &cur, Some(&out.mask))?;
        cur = without_zeros(c);
    }
    let y = plan.outputs.last().expect("non-empty chain");
    BlockSparseTensor::from_flat_sparse(y.indices.clone(), y.flux, &cur)
}

/// `c` minus its stored zeros — by `v != 0.0`, the test
/// `to_flat_sparse` applies (`SparseTensor::prune(0.0)` would drop NaN too
/// and hide a diverged matvec).
fn without_zeros(c: SparseTensor<f64>) -> SparseTensor<f64> {
    if c.entries().all(|(_, v)| v != 0.0) {
        return c;
    }
    let (offsets, values) = c.entries().filter(|&(_, v)| v != 0.0).unzip();
    SparseTensor::from_sorted(c.shape().clone(), offsets, values)
        .expect("a subsequence of sorted entries is sorted")
}

/// Which resident buffer backs one `B` operand of a block chain step.
#[derive(Clone, Copy)]
enum BRef {
    /// A transiently uploaded block of the chain input `x`.
    X(usize),
    /// The resident output of an earlier chain step.
    Step(usize),
}

/// The list-algorithm chain: propagate the block structure symbolically
/// (the driver knows every intermediate's block keys without seeing its
/// values), emit one chain step per block pair with accumulate steps in
/// [`contract_list`]'s exact enumeration order, and download only the
/// last contraction's blocks.
fn chain_apply_list(
    exec: &Executor,
    steps: &[(&str, &ResidentOperand)],
    x: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    use tt_dist::{ChainSrc, ChainStep};

    // upload the chain input's blocks once (Arc-shared — hash, no clone);
    // released before returning
    let x_keys: Vec<BlockKey> = x.blocks().map(|(k, _)| k.clone()).collect();
    let x_handles: Vec<OpHandle> = x
        .blocks_shared()
        .map(|(_, b)| exec.upload_shared(b))
        .collect();

    struct Desc {
        s: usize,
        ai: usize,
        b: BRef,
        acc: Option<usize>,
    }
    let mut descs: Vec<Desc> = Vec::new();
    let mut cur_indices = x.indices().to_vec();
    let mut cur_flux = x.flux();
    let mut cur: BTreeMap<BlockKey, BRef> = x_keys
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, k)| (k, BRef::X(i)))
        .collect();
    for (s, (spec, a)) in steps.iter().enumerate() {
        let ResidentForm::List { keys: a_keys, .. } = &a.form else {
            return Err(Error::Key(
                "operand was uploaded in flattened form; chain with the algorithm it was \
                 uploaded for"
                    .into(),
            ));
        };
        let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
        let (out_indices, out_flux) =
            output_structure_parts(&plan, &a.indices, a.flux, &cur_indices, cur_flux)?;
        // out block key -> desc index of its creating (non-acc) step
        let mut made: BTreeMap<BlockKey, usize> = BTreeMap::new();
        for_each_block_pair(&plan, a_keys.iter().zip(0..), &cur, |ai, &b, kc| {
            let acc = made.get(&kc).copied();
            if acc.is_none() {
                made.insert(kc, descs.len());
            }
            descs.push(Desc { s, ai, b, acc });
        });
        cur = made.into_iter().map(|(k, i)| (k, BRef::Step(i))).collect();
        cur_indices = out_indices;
        cur_flux = out_flux;
    }

    // assemble the executor chain against stable handle storage
    let chain_steps: Vec<ChainStep> = descs
        .iter()
        .map(|d| {
            let ResidentForm::List { handles, .. } = &steps[d.s].1.form else {
                unreachable!("validated above");
            };
            ChainStep {
                spec: steps[d.s].0,
                a: ChainSrc::Dense((&handles[d.ai]).into()),
                b: match d.b {
                    BRef::X(i) => ChainSrc::Dense((&x_handles[i]).into()),
                    BRef::Step(j) => ChainSrc::Prev(j),
                },
                acc: d.acc,
            }
        })
        .collect();
    let chained = exec.chain(&chain_steps);
    // release the transient x uploads before surfacing any chain error —
    // a failed matvec must not leave buffers behind
    let mut free_err: Option<tt_dist::Error> = None;
    for h in &x_handles {
        if let Err(e) = exec.free(h) {
            free_err.get_or_insert(e);
        }
    }
    let mut results = chained.map_err(Error::from)?;
    if let Some(e) = free_err {
        return Err(e.into());
    }

    // download the final step's blocks (in sorted key order); free every
    // other resident intermediate in place
    let mut dl_keys: Vec<BlockKey> = Vec::new();
    let mut to_download: Vec<tt_dist::ResultHandle> = Vec::new();
    for (k, bref) in &cur {
        if let BRef::Step(j) = bref {
            dl_keys.push(k.clone());
            to_download.push(results[*j].take().expect("creating step owns its result"));
        }
    }
    let rest: Vec<tt_dist::ResultHandle> = results.into_iter().flatten().collect();
    let downloaded = exec.download_many(to_download);
    let freed = exec.free_results(rest);
    let downloaded = downloaded.map_err(Error::from)?;
    freed.map_err(Error::from)?;
    let mut c = BlockSparseTensor::new(cur_indices, cur_flux);
    for (k, t) in dl_keys.into_iter().zip(downloaded) {
        c.insert_block(k, t)?;
    }
    Ok(c)
}

/// The sparse-dense chain: one sd chain step per contraction, each
/// consuming the previous step's resident dense output directly (exact:
/// symmetric contractions put no weight outside allowed blocks, so
/// skipping the driver-side re-blocking between steps is bitwise-neutral).
fn chain_apply_sd(
    exec: &Executor,
    steps: &[(&str, &ResidentOperand)],
    x: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    use tt_dist::{ChainSrc, ChainStep};
    let b_dense = x.to_dense();
    let mut cur_indices = x.indices().to_vec();
    let mut cur_flux = x.flux();
    let mut chain_steps: Vec<ChainStep> = Vec::with_capacity(steps.len());
    for (s, (spec, a)) in steps.iter().enumerate() {
        let ResidentForm::Flat(h) = &a.form else {
            return Err(Error::Key(
                "operand was uploaded per-block for the list algorithm".into(),
            ));
        };
        let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
        let (out_indices, out_flux) =
            output_structure_parts(&plan, &a.indices, a.flux, &cur_indices, cur_flux)?;
        chain_steps.push(ChainStep {
            spec,
            a: ChainSrc::Sparse(h.into()),
            b: if s == 0 {
                ChainSrc::Dense((&b_dense).into())
            } else {
                ChainSrc::Prev(s - 1)
            },
            acc: None,
        });
        cur_indices = out_indices;
        cur_flux = out_flux;
    }
    let mut results = exec.chain(&chain_steps).map_err(Error::from)?;
    let last = results
        .pop()
        .expect("non-empty chain")
        .expect("final step is not an accumulate");
    let rest: Vec<tt_dist::ResultHandle> = results.into_iter().flatten().collect();
    let y = exec.download(last);
    exec.free_results(rest).map_err(Error::from)?;
    BlockSparseTensor::from_dense(cur_indices, cur_flux, &y.map_err(Error::from)?, 0.0)
}

/// The sparse-dense algorithm: flattened-sparse A times densified B.
pub fn contract_sparse_dense(
    exec: &Executor,
    spec: &str,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
    let (out_indices, out_flux) = output_structure(&plan, a, b)?;
    let a_flat = a.to_flat_sparse();
    let b_dense = b.to_dense();
    let c_dense = exec.contract_sd(spec, &a_flat, &b_dense)?;
    BlockSparseTensor::from_dense(out_indices, out_flux, &c_dense, 0.0)
}

/// The sparse-sparse algorithm: both operands flattened, output sparsity
/// pre-computed from the quantum numbers and passed as a contraction mask.
pub fn contract_sparse_sparse(
    exec: &Executor,
    spec: &str,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let plan = ContractPlan::parse(spec).map_err(tt_dist::Error::from)?;
    let (out_indices, out_flux) = output_structure(&plan, a, b)?;
    let a_flat = a.to_flat_sparse();
    let b_flat = b.to_flat_sparse();
    let mask = BlockSparseTensor::flat_mask(&out_indices, out_flux);
    let c_sparse = exec.contract_ss(spec, &a_flat, &b_flat, Some(&mask))?;
    BlockSparseTensor::from_flat_sparse(out_indices, out_flux, &c_sparse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qn::{Arrow, QN};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bond(arrow: Arrow, dims: &[(i32, usize)]) -> QnIndex {
        QnIndex::new(arrow, dims.iter().map(|&(q, d)| (QN::one(q), d)).collect())
    }

    fn spin(arrow: Arrow) -> QnIndex {
        bond(arrow, &[(1, 1), (-1, 1)])
    }

    /// Two MPS-like tensors sharing a contractable bond.
    fn pair() -> (BlockSparseTensor, BlockSparseTensor) {
        let mut rng = StdRng::seed_from_u64(101);
        let il = bond(Arrow::In, &[(-1, 2), (1, 2)]);
        let mid = bond(Arrow::Out, &[(-2, 2), (0, 3), (2, 2)]);
        let a = BlockSparseTensor::random(
            vec![il, spin(Arrow::In), mid.clone()],
            QN::zero(1),
            &mut rng,
        );
        let ir = bond(Arrow::Out, &[(-3, 1), (-1, 3), (1, 3), (3, 1)]);
        let b =
            BlockSparseTensor::random(vec![mid.dual(), spin(Arrow::In), ir], QN::zero(1), &mut rng);
        (a, b)
    }

    #[test]
    fn list_matches_dense_reference() {
        let (a, b) = pair();
        let exec = Executor::local();
        let c = contract_list(&exec, "isj,jtk->istk", &a, &b).unwrap();
        let reference = tt_tensor::einsum("isj,jtk->istk", &a.to_dense(), &b.to_dense()).unwrap();
        assert!(c.to_dense().allclose(&reference, 1e-11));
        // result conserves flux
        for (k, _) in c.blocks() {
            assert!(c.is_allowed(k));
        }
    }

    #[test]
    fn all_three_algorithms_agree() {
        let (a, b) = pair();
        let exec = Executor::local();
        let spec = "isj,jtk->istk";
        let c_list = contract(&exec, Algorithm::List, spec, &a, &b).unwrap();
        let c_sd = contract(&exec, Algorithm::SparseDense, spec, &a, &b).unwrap();
        let c_ss = contract(&exec, Algorithm::SparseSparse, spec, &a, &b).unwrap();
        let d = c_list.to_dense();
        assert!(c_sd.to_dense().allclose(&d, 1e-11));
        assert!(c_ss.to_dense().allclose(&d, 1e-11));
    }

    #[test]
    fn algorithms_agree_distributed() {
        let (a, b) = pair();
        let spec = "isj,jtk->istk";
        let local = Executor::local();
        let reference = contract(&local, Algorithm::List, spec, &a, &b)
            .unwrap()
            .to_dense();
        let dist = Executor::with_machine(
            tt_dist::Machine::blue_waters(4),
            1,
            tt_dist::ExecMode::Sequential,
        );
        for algo in [
            Algorithm::List,
            Algorithm::SparseDense,
            Algorithm::SparseSparse,
        ] {
            let c = contract(&dist, algo, spec, &a, &b).unwrap();
            assert!(c.to_dense().allclose(&reference, 1e-10), "{algo}");
        }
    }

    #[test]
    fn output_permutation_respected() {
        let (a, b) = pair();
        let exec = Executor::local();
        let c = contract_list(&exec, "isj,jtk->tkis", &a, &b).unwrap();
        let reference = tt_tensor::einsum("isj,jtk->tkis", &a.to_dense(), &b.to_dense()).unwrap();
        assert!(c.to_dense().allclose(&reference, 1e-11));
    }

    #[test]
    fn contraction_to_scalar_like() {
        // contract all of A's indices with B† ⇒ order-0 is not supported by
        // QnIndex (min 1 index); contract down to the bond instead
        let (a, _) = pair();
        let exec = Executor::local();
        let adag = a.conj();
        // <A|A> via two-index contraction: sum over il, s leaving (j, j')
        let c = contract_list(&exec, "isj,isk->jk", &adag, &a).unwrap();
        let d = c.to_dense();
        // must be symmetric positive semidefinite gram matrix
        for i in 0..d.dims()[0] {
            for j in 0..d.dims()[1] {
                assert!((d.at(&[i, j]) - d.at(&[j, i])).abs() < 1e-10);
            }
        }
        let trace: f64 = (0..d.dims()[0]).map(|i| d.at(&[i, i])).sum();
        assert!((trace - a.norm() * a.norm()) / trace < 1e-10);
    }

    #[test]
    fn mismatched_sectors_rejected() {
        let mut rng = StdRng::seed_from_u64(102);
        let i1 = bond(Arrow::Out, &[(0, 2)]);
        let i2 = bond(Arrow::In, &[(0, 3)]);
        let a = BlockSparseTensor::random(vec![i1.clone(), i1.dual()], QN::zero(1), &mut rng);
        let b = BlockSparseTensor::random(vec![i2.clone(), i2.dual()], QN::zero(1), &mut rng);
        let exec = Executor::local();
        assert!(contract_list(&exec, "ij,jk->ik", &a, &b).is_err());
        // same-direction arrows also rejected: a's index 1 is In and b2's
        // index 0 is In as well
        let b2 = BlockSparseTensor::random(vec![i1.dual(), i1.clone()], QN::zero(1), &mut rng);
        assert!(contract_list(&exec, "ij,jk->ik", &a, &b2).is_err());
    }
}
