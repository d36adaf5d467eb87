//! The paper's three block-sparsity contraction algorithms (Section IV-A).
//!
//! * [`Algorithm::List`] — Algorithm 2 of the paper: loop over all pairs of
//!   quantum-number blocks, contract pairs whose labels match along the
//!   contracted indices, and accumulate into the result block keyed by the
//!   surviving labels. Each matching pair is one step of an
//!   [`Executor::chain`], accumulating into its output block's first pair.
//! * [`Algorithm::SparseDense`] — flatten the first (sparse-stored) operand
//!   into one big sparse tensor, densify the second, contract once.
//! * [`Algorithm::SparseSparse`] — flatten both operands into sparse
//!   tensors and contract once, with the output sparsity pre-computed from
//!   the quantum numbers and passed as a mask.
//!
//! All three produce identical results; they differ in supersteps, memory
//! and communication exactly as Table II quantifies.
//!
//! Every contraction here is a *chain*: a run of contractions in which each
//! step contracts a structural operand with the previous step's output,
//! no intermediate coming back into block form, and a single contraction
//! is a chain of one step. [`contract`] (and [`contract_list`], its list
//! case) is [`contract_chain`] of one step; [`contract_chain`] applies a
//! run once with every operand by value (an environment extension): an
//! operand used once gains nothing from an upload, which would hash it
//! and, on a service fleet, retain it. A [`ResidentChain`] keeps the
//! structural operands resident and applies the run to many moving
//! operands (a Davidson matvec); it is the one place a block-sparse
//! operand is uploaded, and the one owner that frees it. The algorithm
//! fixes every operand's form when the chain is built: per-block for list,
//! flattened for the other two. All of them derive one structural plan and
//! hand [`Executor::chain`] their steps over value-or-handle operands —
//! per-block steps for list, one step per contraction for the flattened
//! algorithms: sparse-dense, or sparse-sparse under each step's output
//! mask, which the quantum numbers give as classes of fused rows and
//! columns, the intermediates staying in the merge kernel's format.
//! Runtime and kernel errors travel up by `?` as [`Error::Dist`], typed.

use crate::block::{BlockKey, BlockSparseTensor};
use crate::index::QnIndex;
use crate::qn::{signed, QN};
use crate::{Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use tt_dist::{ChainSrc, ChainStep, DenseOp, Executor, OpHandle, ResultHandle, SparseOp};
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::SlotMap;
use tt_tensor::{DenseTensor, SparseTensor};

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

/// An operand as structure alone: its graded indices and its flux.
type Structure<'a> = (&'a [QnIndex], QN);

fn structure(t: &BlockSparseTensor) -> Structure<'_> {
    (t.indices(), t.flux())
}

/// What one contraction is from structure alone — indices and fluxes,
/// never values: each step of a chain's plan starts from one.
struct StepPlan {
    contract: ContractPlan,
    out_indices: Vec<QnIndex>,
    out_flux: QN,
}

impl StepPlan {
    /// Parse `spec`, validate the operands' structures against it and
    /// derive the output's.
    fn derive(
        spec: &str,
        (a_indices, a_flux): Structure,
        (b_indices, b_flux): Structure,
    ) -> Result<Self> {
        let contract = ContractPlan::parse(spec)?;
        let (oa, ob) = contract.operand_orders();
        if oa != a_indices.len() || ob != b_indices.len() {
            return Err(Error::Key(format!(
                "spec orders {oa}/{ob} don't match tensors {}/{}",
                a_indices.len(),
                b_indices.len()
            )));
        }
        for (&ia, &ib) in contract
            .ctr_a_positions()
            .iter()
            .zip(contract.ctr_b_positions())
        {
            if !a_indices[ia].contractable_with(&b_indices[ib]) {
                return Err(Error::Symmetry(format!(
                    "contracted index pair ({ia},{ib}) has mismatched sectors or arrows"
                )));
            }
        }
        let natural: Vec<&QnIndex> = contract
            .free_a_positions()
            .iter()
            .map(|&i| &a_indices[i])
            .chain(contract.free_b_positions().iter().map(|&j| &b_indices[j]))
            .collect();
        let out_indices: Vec<QnIndex> = contract
            .output_permutation()
            .iter()
            .map(|&p| natural[p].clone())
            .collect();
        Ok(Self {
            contract,
            out_indices,
            out_flux: a_flux.add(b_flux),
        })
    }

    /// The classes of the output mask ([`StepPlan::mask`]): the class of
    /// `flux − q(row)` for every fused row of `a`'s free modes and of
    /// `q(col)` for every fused column of `b`'s, `q` the arrow-signed charge
    /// sum. An output element conserves the flux exactly when its row's and
    /// its column's classes are equal.
    fn mask_classes(&self, a_indices: &[QnIndex], b_indices: &[QnIndex]) -> (Vec<u32>, Vec<u32>) {
        let mut ids: HashMap<QN, u32> = HashMap::new();
        let mut class = |q: QN| {
            let fresh = ids.len() as u32;
            *ids.entry(q).or_insert(fresh)
        };
        let arity = self.out_flux.n_charges();
        let rows = fused_charges(
            self.contract
                .free_a_positions()
                .iter()
                .map(|&i| &a_indices[i]),
            arity,
        );
        let cols = fused_charges(
            self.contract
                .free_b_positions()
                .iter()
                .map(|&j| &b_indices[j]),
            arity,
        );
        let row_class = rows
            .into_iter()
            .map(|q| class(self.out_flux.sub(q)))
            .collect();
        let col_class = cols.into_iter().map(class).collect();
        (row_class, col_class)
    }

    /// The output mask, as a sparse-sparse [`ChainStep`] takes it.
    fn mask(&self, a_indices: &[QnIndex], b_indices: &[QnIndex]) -> SlotMap {
        let (rows, cols) = self.mask_classes(a_indices, b_indices);
        SlotMap::new(rows, &cols)
    }
}

/// The arrow-signed charge of every element of the row-major fusion of
/// `modes` (one zero charge for no modes).
fn fused_charges<'i>(modes: impl Iterator<Item = &'i QnIndex>, arity: u8) -> Vec<QN> {
    let mut charges = vec![QN::zero(arity)];
    for ix in modes {
        let digit: Vec<QN> = ix
            .sectors()
            .iter()
            .flat_map(|&(q, d)| std::iter::repeat_n(signed(q, ix.arrow()), d))
            .collect();
        charges = charges
            .iter()
            .flat_map(|&c| digit.iter().map(move |&q| c.add(q)))
            .collect();
    }
    charges
}

/// The specs of a list chain as the chain runs them, every intermediate
/// stored in the order its consumer reads it. Step `s` of `specs` reads
/// step `s − 1`'s output as its `B`; each step but the last writes its
/// output in the order the next step's GEMM reads `B` — first the
/// contracted modes, in the next step's `A` order, then the free `B` modes
/// in their original order — and the next step names its `B` labels in
/// that same order, so it reads `B` in place. Only labels move: every
/// step's fused `m × k × n` product, flop count and output block keys are
/// those of the original spec, and the last step keeps the caller's output
/// order. For the two-site matvec's four steps this turns six
/// intermediate-sized permutes per block-pair chain into four.
pub fn consumer_order(specs: &[&str]) -> Result<Vec<String>> {
    let mut plans: Vec<ContractPlan> = Vec::with_capacity(specs.len());
    let mut labels: Vec<[Vec<char>; 3]> = Vec::with_capacity(specs.len());
    for spec in specs {
        plans.push(ContractPlan::parse(spec)?);
        // a parsed spec has one "->" and one ","
        let (inputs, out) = spec.split_once("->").expect("parsed");
        let (a, b) = inputs.split_once(',').expect("parsed");
        labels.push([a, b, out].map(|part| part.trim().chars().collect()));
    }
    for (s, plan) in plans.iter().enumerate().skip(1) {
        let perm_b = plan.operand_permutations().1;
        if labels[s - 1][2].len() != perm_b.len() {
            return Err(Error::Key(format!(
                "step {s} of the chain reads a {}-mode B from a {}-mode output",
                perm_b.len(),
                labels[s - 1][2].len()
            )));
        }
        let reorder = |ls: &[char]| -> Vec<char> { perm_b.iter().map(|&j| ls[j]).collect() };
        labels[s - 1][2] = reorder(&labels[s - 1][2]);
        labels[s][1] = reorder(&labels[s][1]);
    }
    Ok(labels
        .iter()
        .map(|[a, b, out]| {
            let [a, b, out] = [a, b, out].map(|ls| ls.iter().collect::<String>());
            format!("{a},{b}->{out}")
        })
        .collect())
}

/// Every matching block pair of a contraction, in the one order every list
/// chain enumerates: `A`'s blocks as given, and for each the `B` blocks
/// with the same contracted labels, as given. `emit` receives the two
/// payloads and the pair's output block key. Partials accumulate into an
/// output block in this order, so a chain applied at once
/// ([`ResidentChain::apply`], [`contract_chain`]) is bitwise-equal to the
/// fold of its steps ([`contract_list`]).
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

/// Contract two block-sparse tensors with the chosen algorithm: a one-step
/// [`contract_chain`] — the list algorithm's block pairs, or sparse `A`
/// times densified `B`, or sparse `A` times sparse `B` with the output
/// sparsity pre-computed from the quantum numbers.
pub fn contract(
    exec: &Executor,
    algo: Algorithm,
    spec: &str,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    contract_chain(exec, algo, &[(spec, a)], b)
}

/// Paper Algorithm 2: loop over block pairs, match contracted labels,
/// accumulate result blocks — [`contract`] with [`Algorithm::List`].
///
/// The block pair is the unit of work: each matching pair is one step of
/// the contraction's list chain ([`Executor::chain`]), the first pair of an
/// output block storing it and every later one adding into it in
/// pair-enumeration order, so the floating-point accumulation order (and
/// therefore the result, bit for bit) never depends on the backend. A
/// contraction with no matching pair is a chain of no steps: its result
/// stores no block, and nothing is sent.
pub fn contract_list(
    exec: &Executor,
    spec: &str,
    a: &BlockSparseTensor,
    b: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    contract(exec, Algorithm::List, spec, a, b)
}

/// The structural operands of a chain's steps, in step order, in the one
/// form the chain's algorithm consumes — fixed when the chain is built,
/// so no body meets an operand in the other form.
enum Operands<'t> {
    /// For [`Algorithm::List`]: every block's key and operand, in stored
    /// order.
    Blocks(Vec<Vec<(&'t BlockKey, DenseOp<'t>)>>),
    /// For the sparse-dense and sparse-sparse algorithms: the flattened
    /// operand.
    Flat(Vec<SparseOp<'t>>),
}

/// What a [`ResidentChain`] keeps resident, in step order and in the form
/// its algorithm consumes: one [`OpHandle`] per quantum-number block for
/// [`Algorithm::List`] (block-pair tasks reference resident blocks by key
/// and are routed to the rank that holds them), or one flattened-sparse
/// handle per step for the sparse-dense and sparse-sparse algorithms
/// (resident coordinate buckets and grouped tables).
enum Resident {
    Blocks(Vec<Vec<(BlockKey, OpHandle)>>),
    Flat(Vec<OpHandle>),
}

impl Resident {
    /// Upload each step's operand, in step order, in the form `algo`
    /// consumes.
    fn upload(exec: &Executor, algo: Algorithm, steps: &[(&str, &BlockSparseTensor)]) -> Self {
        match algo {
            Algorithm::List => Resident::Blocks(
                steps
                    .iter()
                    .map(|(_, t)| {
                        let upload = |(k, b): (&BlockKey, _)| (k.clone(), exec.upload_shared(b));
                        t.blocks_shared().map(upload).collect()
                    })
                    .collect(),
            ),
            Algorithm::SparseDense | Algorithm::SparseSparse => Resident::Flat(
                steps
                    .iter()
                    .map(|(_, t)| exec.upload_sparse(&t.to_flat_sparse()))
                    .collect(),
            ),
        }
    }

    /// The operands as the chain's steps read them: its handles.
    fn operands(&self) -> Operands<'_> {
        match self {
            Resident::Blocks(steps) => Operands::Blocks(
                steps
                    .iter()
                    .map(|blocks| blocks.iter().map(|(k, h)| (k, h.into())).collect())
                    .collect(),
            ),
            Resident::Flat(handles) => Operands::Flat(handles.iter().map(Into::into).collect()),
        }
    }

    /// Every handle, in upload order.
    fn handles(&self) -> Vec<&OpHandle> {
        match self {
            Resident::Blocks(steps) => steps.iter().flatten().map(|(_, h)| h).collect(),
            Resident::Flat(handles) => handles.iter().collect(),
        }
    }
}

/// Free every one of `handles`, whatever fails on the way, and report the
/// first error. A worker store never evicts, so a handle skipped here
/// would stay resident until the executor drops.
fn free_all<'h>(
    exec: &Executor,
    handles: impl IntoIterator<Item = &'h OpHandle>,
) -> tt_dist::Result<()> {
    // every free runs before the first error is looked for
    let freed: Vec<tt_dist::Result<()>> = handles.into_iter().map(|h| exec.free(h)).collect();
    freed.into_iter().collect()
}

/// Run `run` against uploads of `blocks` that live for this call only
/// (`Arc`-shared: an upload hashes its block, it does not clone it), then
/// free every one, in upload order, before surfacing `run`'s outcome — its
/// own error first, else the first failed free. A failed matvec must not
/// leave buffers behind on the workers.
fn with_transient<'b, T>(
    exec: &Executor,
    blocks: impl IntoIterator<Item = &'b Arc<DenseTensor<f64>>>,
    run: impl FnOnce(&[OpHandle]) -> tt_dist::Result<T>,
) -> Result<T> {
    let handles: Vec<OpHandle> = blocks.into_iter().map(|b| exec.upload_shared(b)).collect();
    let out = run(&handles);
    let freed = free_all(exec, &handles);
    let out = out?;
    freed?;
    Ok(out)
}

/// An ordered chain of contractions whose structural `A` operands are
/// **resident** — step `s` contracts its operand with the previous step's
/// output (`x` for step 0) — and the owner of what residency needs an owner
/// for (the paper's operand-residency discipline: the environment and MPO
/// tensors of a Davidson solve stay put, only the iteration vector moves).
/// *The operands*: [`ResidentChain::upload`] uploads them in step order,
/// in the form the chain's algorithm consumes; [`ResidentChain::release`]
/// frees **every** handle whatever fails on the way and reports the first
/// error; dropping the chain does the same and has nobody to report to.
/// *The plan*: one `StepPlan` per step — for sparse-sparse also each
/// step's output mask, for list the specs in [`consumer_order`] and the
/// block-pair schedule of the stored keys of `x` — derived by the first
/// [`ResidentChain::apply`] and kept for the later ones. The operands
/// cannot change under the chain, so the plan is stale only when `x`'s
/// indices or flux are not the ones it was derived for, or, for list,
/// its stored keys; it goes with the chain. A run applied once is
/// [`contract_chain`]: the same plan and bodies, every operand by value.
pub struct ResidentChain<'e> {
    exec: &'e Executor,
    algo: Algorithm,
    /// Each step's spec and its operand's indices and flux, in step order.
    steps: Vec<(String, Vec<QnIndex>, QN)>,
    resident: Resident,
    plan: Mutex<Option<Arc<ChainPlan>>>,
}

/// The structural plan of a chain, with the input it serves.
struct ChainPlan {
    x_indices: Vec<QnIndex>,
    x_flux: QN,
    steps: Vec<StepPlan>,
    /// Each step's spec as the chain runs it: for [`Algorithm::List`]
    /// intermediates in [`consumer_order`], as given otherwise.
    specs: Vec<String>,
    /// For [`Algorithm::List`], and only then: the pair schedule of `x`'s
    /// stored block keys.
    schedule: Option<ListSchedule>,
    /// For [`Algorithm::SparseSparse`], and only then: each step's output
    /// mask.
    masks: Vec<Arc<SlotMap>>,
}

/// The error of a chain without steps.
fn empty_chain() -> Error {
    Error::Key("empty contraction chain".into())
}

impl ChainPlan {
    /// The plan of `steps` (each step's spec and operand structure) over
    /// `operands`, applied to `x`.
    fn derive(
        algo: Algorithm,
        steps: &[(&str, Structure)],
        operands: &Operands,
        x: &BlockSparseTensor,
    ) -> Result<Self> {
        if steps.is_empty() {
            return Err(empty_chain());
        }
        let mut planned: Vec<StepPlan> = Vec::with_capacity(steps.len());
        let mut masks = Vec::new();
        for &(spec, a) in steps {
            let b = match planned.last() {
                Some(prev) => (&prev.out_indices[..], prev.out_flux),
                None => structure(x),
            };
            let step = StepPlan::derive(spec, a, b)?;
            if algo == Algorithm::SparseSparse {
                masks.push(Arc::new(step.mask(a.0, b.0)));
            }
            planned.push(step);
        }
        let given: Vec<&str> = steps.iter().map(|&(spec, _)| spec).collect();
        let (specs, schedule) = match operands {
            Operands::Blocks(a) => (
                consumer_order(&given)?,
                Some(ListSchedule::derive(a, &planned, x)),
            ),
            Operands::Flat(_) => (given.iter().map(|s| s.to_string()).collect(), None),
        };
        Ok(Self {
            x_indices: x.indices().to_vec(),
            x_flux: x.flux(),
            steps: planned,
            specs,
            schedule,
            masks,
        })
    }

    /// Whether the plan was derived for `x`'s indices and flux and, for
    /// [`Algorithm::List`], its stored keys.
    fn serves(&self, x: &BlockSparseTensor) -> bool {
        let keys = || x.blocks().map(|(k, _)| k);
        self.x_indices == x.indices()
            && self.x_flux == x.flux()
            && self
                .schedule
                .as_ref()
                .is_none_or(|s| s.x_keys.iter().eq(keys()))
    }

    /// Indices and flux of the chain's result.
    fn output(&self) -> (Vec<QnIndex>, QN) {
        let last = self.steps.last().expect("a chain has at least one step");
        (last.out_indices.clone(), last.out_flux)
    }
}

/// How a list chain passes the blocks of its input `x`.
enum ListInput {
    /// Uploaded for the length of the chain, each block shipping at most
    /// once per rank (a matvec's ψ, used by many pairs of every step).
    Transient,
    /// By value, as [`contract_chain`] passes every operand.
    Value,
}

/// Which buffer backs one `B` operand of a list chain step.
#[derive(Clone, Copy)]
enum BRef {
    /// Block `i` of the chain input `x`.
    X(usize),
    /// The resident output of an earlier chain step.
    Step(usize),
}

/// One block pair of a list chain: chain step by chain step, what
/// [`Executor::chain`] is handed.
struct PairStep {
    /// The contraction it belongs to.
    s: usize,
    /// Its `A` block, by position among that contraction's operand blocks.
    a: usize,
    b: BRef,
    /// The chain step whose output it accumulates into.
    acc: Option<usize>,
}

/// The block-pair schedule of a list chain for one set of stored keys of
/// `x`: the block structure propagated symbolically (the driver knows
/// every intermediate's block keys without seeing its values), in the
/// original specs' key space, so partials accumulate in
/// [`contract_list`]'s exact enumeration order whatever order the
/// intermediates are stored in.
struct ListSchedule {
    /// The stored keys of `x` it was derived for, in stored order.
    x_keys: Vec<BlockKey>,
    pairs: Vec<PairStep>,
    /// The last contraction's output blocks, in sorted key order, each with
    /// the chain step that creates it.
    outputs: Vec<(BlockKey, usize)>,
}

impl ListSchedule {
    fn derive(
        a: &[Vec<(&BlockKey, DenseOp)>],
        planned: &[StepPlan],
        x: &BlockSparseTensor,
    ) -> Self {
        let mut pairs: Vec<PairStep> = Vec::new();
        let mut cur: BTreeMap<BlockKey, BRef> = x
            .blocks()
            .enumerate()
            .map(|(i, (k, _))| (k.clone(), BRef::X(i)))
            .collect();
        for (s, (a, step)) in a.iter().zip(planned).enumerate() {
            // out block key -> chain step of its creating (non-acc) pair
            let mut made: BTreeMap<BlockKey, usize> = BTreeMap::new();
            let a_blocks = a.iter().enumerate().map(|(i, &(k, _))| (k, i));
            for_each_block_pair(&step.contract, a_blocks, &cur, |a, &b, kc| {
                let acc = made.get(&kc).copied();
                if acc.is_none() {
                    made.insert(kc, pairs.len());
                }
                pairs.push(PairStep { s, a, b, acc });
            });
            cur = made.into_iter().map(|(k, i)| (k, BRef::Step(i))).collect();
        }
        let outputs = cur
            .into_iter()
            .filter_map(|(k, b)| match b {
                BRef::Step(j) => Some((k, j)),
                BRef::X(_) => None,
            })
            .collect();
        Self {
            x_keys: x.blocks().map(|(k, _)| k.clone()).collect(),
            pairs,
            outputs,
        }
    }
}

impl<'e> ResidentChain<'e> {
    /// Upload each step's operand, in step order, in the form `algo`
    /// consumes. Nothing ships yet: residency is lazy, the first
    /// [`ResidentChain::apply`] stores what it needs on the workers.
    pub fn upload(
        exec: &'e Executor,
        algo: Algorithm,
        steps: &[(&str, &BlockSparseTensor)],
    ) -> Result<Self> {
        if steps.is_empty() {
            return Err(empty_chain());
        }
        Ok(Self {
            exec,
            algo,
            steps: steps
                .iter()
                .map(|&(spec, t)| (spec.to_string(), t.indices().to_vec(), t.flux()))
                .collect(),
            resident: Resident::upload(exec, algo, steps),
            plan: Mutex::new(None),
        })
    }

    /// Free every resident handle of every step, in step order — all of
    /// them even when one fails — and report the first error. After this
    /// the next resident period of the same tensors starts from nothing,
    /// as on a fresh executor.
    pub fn release(mut self) -> Result<()> {
        self.free_handles()
    }

    fn free_handles(&mut self) -> Result<()> {
        let resident = std::mem::replace(&mut self.resident, Resident::Flat(Vec::new()));
        Ok(free_all(self.exec, resident.handles())?)
    }

    /// Apply the chain to `x` without bringing any intermediate back into
    /// block form. Bitwise-identical to folding one-step chains over the
    /// same steps (and therefore to the value path) on every backend,
    /// flops included.
    ///
    /// Every algorithm runs as **worker-side chain supersteps**: every
    /// intermediate stays in the worker stores under driver-issued keys and
    /// only the final result downloads, so on the multi-process backend the
    /// driver's *result* traffic collapses from one payload per block pair
    /// (or per step) to one download per output block of the last step.
    /// List chains per-block results (accumulate steps fold partials in the
    /// exact enumeration order of [`contract_list`], each intermediate
    /// stored in the order its consumer reads it); sparse-dense chains the
    /// whole flattened contractions; sparse-sparse too, each step merging
    /// into the slots its output mask allows and handing its touched slots
    /// on as the next step's sorted-run table — no intermediate is a sparse
    /// tensor, and cancelled zeros are dropped between steps as block form
    /// would drop them. The masks are built once per structure of `x`.
    ///
    /// For [`Algorithm::List`] the blocks of `x` are themselves uploaded
    /// for the length of the call and freed, in stored order, before
    /// returning: each block a pair uses ships at most once per rank
    /// instead of once per pair. The transient uploads cost one content
    /// hash per block of `x` on every backend alike, so the α–β charges,
    /// which follow the registry's hit/miss bookkeeping, stay
    /// bitwise-equal across backends.
    pub fn apply(&self, x: &BlockSparseTensor) -> Result<BlockSparseTensor> {
        let operands = self.resident.operands();
        let plan = self.plan_for(&operands, x)?;
        apply_chain(self.exec, &operands, &plan, x, ListInput::Transient)
    }

    /// The kept plan when it serves `x`, a fresh one (kept from now on)
    /// otherwise.
    fn plan_for(&self, operands: &Operands, x: &BlockSparseTensor) -> Result<Arc<ChainPlan>> {
        let mut slot = self
            .plan
            .lock()
            .expect("the plan slot is only ever assigned whole");
        if let Some(plan) = slot.as_ref().filter(|p| p.serves(x)) {
            return Ok(Arc::clone(plan));
        }
        let steps: Vec<(&str, Structure)> = self
            .steps
            .iter()
            .map(|(spec, indices, flux)| (&spec[..], (&indices[..], *flux)))
            .collect();
        let plan = Arc::new(ChainPlan::derive(self.algo, &steps, operands, x)?);
        *slot = Some(Arc::clone(&plan));
        Ok(plan)
    }
}

/// Apply a chain of contractions once — step `s` contracts the tensor of
/// `steps[s]`, its structural operand, with step `s − 1`'s output (`x` for
/// step 0) — without bringing any intermediate back into block form.
/// Result bits and `total_flops` are those of folding [`contract`] over
/// the steps, on every backend; each intermediate is charged as a
/// chain-resident input instead of a shipped value, so the simulated
/// seconds are lower.
///
/// The one-shot counterpart of [`ResidentChain::apply`], through the same
/// structural plan and the same bodies, with every operand by value: an
/// operand contracted once gains nothing from being uploaded. List steps
/// pass each block as a value (on the multi-process backend content-keyed
/// through the retention cache when that is on — the rule of
/// [`Executor::chain`]) and sparse steps the flattened operand inline.
pub fn contract_chain(
    exec: &Executor,
    algo: Algorithm,
    steps: &[(&str, &BlockSparseTensor)],
    x: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let flat: Vec<SparseTensor<f64>> = match algo {
        Algorithm::List => Vec::new(),
        _ => steps.iter().map(|(_, t)| t.to_flat_sparse()).collect(),
    };
    let operands = match algo {
        Algorithm::List => Operands::Blocks(
            steps
                .iter()
                .map(|(_, t)| t.blocks().map(|(k, b)| (k, b.into())).collect())
                .collect(),
        ),
        _ => Operands::Flat(flat.iter().map(Into::into).collect()),
    };
    let structures: Vec<(&str, Structure)> = steps
        .iter()
        .map(|&(spec, t)| (spec, structure(t)))
        .collect();
    let plan = ChainPlan::derive(algo, &structures, &operands, x)?;
    apply_chain(exec, &operands, &plan, x, ListInput::Value)
}

/// The body every contraction runs through: run the planned chain of
/// `operands` on `x`. An `x` that stores no block yields a result that
/// stores none, and nothing runs.
fn apply_chain(
    exec: &Executor,
    operands: &Operands,
    plan: &ChainPlan,
    x: &BlockSparseTensor,
    input: ListInput,
) -> Result<BlockSparseTensor> {
    if x.n_blocks() == 0 {
        let (indices, flux) = plan.output();
        return Ok(BlockSparseTensor::new(indices, flux));
    }
    match operands {
        Operands::Blocks(a) => apply_list(exec, a, plan, x, input),
        Operands::Flat(a) => apply_flat(exec, a, plan, x),
    }
}

/// The flattened chains: one chain step per contraction, its flattened
/// operand against the previous step's resident output, which never
/// comes back into block form. Sparse-dense steps take `x` and every
/// intermediate dense (exact: symmetric contractions put no weight outside
/// allowed blocks, so skipping the re-blocking between steps is
/// bitwise-neutral). Sparse-sparse steps take `x` flattened and hand their
/// slots on under each step's mask; a product that cancels leaves a
/// touched slot holding zero, which block form would never store back into
/// a flattened operand ([`BlockSparseTensor::to_flat_sparse`] skips
/// zeros) and the chain does not hand on either, so each step meets bit
/// for bit the operand a fold of one-step chains builds — and with it the
/// same flop count.
fn apply_flat(
    exec: &Executor,
    a: &[SparseOp],
    plan: &ChainPlan,
    x: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let sparse = !plan.masks.is_empty();
    let x_flat = sparse.then(|| x.to_flat_sparse());
    let x_dense = (!sparse).then(|| x.to_dense());
    let x_src = match (&x_flat, &x_dense) {
        (Some(x), _) => ChainSrc::Sparse(x.into()),
        (_, x) => ChainSrc::Dense(x.as_ref().expect("x dense unless sparse").into()),
    };
    let chain_steps: Vec<ChainStep> = a
        .iter()
        .enumerate()
        .map(|(s, &a)| ChainStep {
            spec: &plan.specs[s],
            a: ChainSrc::Sparse(a),
            b: s.checked_sub(1).map_or(x_src, ChainSrc::Prev),
            acc: None,
            mask: plan.masks.get(s),
        })
        .collect();
    // every step but the last is consumed by the next: the chain
    // releases those itself and hands out the last alone
    let last = exec
        .chain(&chain_steps)?
        .pop()
        .expect("non-empty chain")
        .expect("final step is not an accumulate");
    let (indices, flux) = plan.output();
    let Some(x_dense) = x_dense else {
        return BlockSparseTensor::from_flat_sparse(indices, flux, &exec.download_sparse(last)?);
    };
    let y = exec.download(last)?;
    let blocks = BlockSparseTensor::from_dense(indices, flux, &y, 0.0);
    // both dense ends are spent: their buffers serve the next chain's
    exec.recycle(y);
    exec.recycle(x_dense);
    blocks
}

/// The list chain: one chain step per block pair of the kept schedule of
/// `x`'s stored keys ([`ListSchedule`]), accumulate steps in
/// [`contract_list`]'s exact enumeration order, intermediates stored in
/// their consumer's order ([`consumer_order`]), and only the last
/// contraction's blocks downloaded.
fn apply_list(
    exec: &Executor,
    a: &[Vec<(&BlockKey, DenseOp)>],
    plan: &ChainPlan,
    x: &BlockSparseTensor,
    input: ListInput,
) -> Result<BlockSparseTensor> {
    let schedule = plan
        .schedule
        .as_ref()
        .expect("a plan over blocks schedules their pairs");
    let run = |x_ops: &[DenseOp]| {
        let chain_steps: Vec<ChainStep> = schedule
            .pairs
            .iter()
            .map(|p| ChainStep {
                spec: &plan.specs[p.s],
                a: ChainSrc::Dense(a[p.s][p.a].1),
                b: match p.b {
                    BRef::X(i) => ChainSrc::Dense(x_ops[i]),
                    BRef::Step(j) => ChainSrc::Prev(j),
                },
                acc: p.acc,
                mask: None,
            })
            .collect();
        exec.chain(&chain_steps)
    };
    let mut results = match input {
        // x's blocks upload in stored order, for the length of the chain
        ListInput::Transient => with_transient(exec, x.blocks_shared().map(|(_, b)| b), |hs| {
            run(&hs.iter().map(DenseOp::from).collect::<Vec<_>>())
        })?,
        ListInput::Value => run(&x.blocks().map(|(_, b)| b.into()).collect::<Vec<_>>())?,
    };

    // download the final step's blocks (in sorted key order); free the
    // blocks of earlier steps that nothing consumed (the chain released
    // the consumed ones itself)
    let to_download: Vec<ResultHandle> = schedule
        .outputs
        .iter()
        .map(|&(_, j)| results[j].take().expect("creating step owns its result"))
        .collect();
    let rest: Vec<ResultHandle> = results.into_iter().flatten().collect();
    let downloaded = exec.download_many(to_download);
    let freed = exec.free_results(rest);
    let downloaded = downloaded?;
    freed?;
    let (indices, flux) = plan.output();
    let mut c = BlockSparseTensor::new(indices, flux);
    for ((k, _), t) in schedule.outputs.iter().zip(downloaded) {
        c.insert_block(k.clone(), t)?;
    }
    Ok(c)
}

impl Drop for ResidentChain<'_> {
    fn drop(&mut self) {
        // nobody to report to: `release` is the exit that does
        let _ = self.free_handles();
    }
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

    const ALGOS: [Algorithm; 3] = [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ];

    /// The satellite bug: freeing a per-block operand stopped at the first
    /// free that failed, leaving every later block registered — and, on
    /// workers, resident — with nobody told. `release` frees them all.
    #[test]
    fn release_frees_every_block_after_a_failed_free() {
        let (a, b) = pair();
        assert!(
            a.n_blocks() >= 3,
            "the fixture needs blocks after the first"
        );
        let spec = "isj,jtk->istk";
        let machine = || {
            Executor::with_machine(
                tt_dist::Machine::blue_waters(4),
                1,
                tt_dist::ExecMode::Sequential,
            )
        };
        // what one resident period of `a` charges, from upload to release
        let period = |exec: &Executor| {
            exec.reset_costs();
            let chain = ResidentChain::upload(exec, Algorithm::List, &[(spec, &a)]).unwrap();
            chain.apply(&b).unwrap();
            chain.release().unwrap();
            (exec.supersteps(), exec.sim_time().total().to_bits())
        };
        let fresh = period(&machine());

        let exec = machine();
        assert!(exec.ranks() > 1);
        let chain = ResidentChain::upload(&exec, Algorithm::List, &[(spec, &a)]).unwrap();
        chain.apply(&b).unwrap();
        // behind the owner's back: its first free is now a double free
        exec.free(chain.resident.handles()[0]).unwrap();
        let err = chain.release().expect_err("the first free fails");
        assert!(
            matches!(err, Error::Dist(tt_dist::Error::Runtime(_))),
            "{err}"
        );
        // every later block was freed all the same: the next resident
        // period charges each one's upload again, as on a fresh executor
        assert_eq!(period(&exec), fresh);
    }

    /// A chain keeps its structural plan between applications and must
    /// notice when the input's structure is no longer the one it planned
    /// for: ψ, then a ψ′ with other sectors, then ψ again, on one chain,
    /// equals three fresh chains bit for bit.
    #[test]
    fn kept_plan_follows_the_input_structure() {
        let mut rng = StdRng::seed_from_u64(103);
        let (a, psi) = pair();
        // a second step, so the plan also carries structure between steps
        let il = a.indices()[0].clone();
        let w = BlockSparseTensor::random(
            vec![bond(Arrow::In, &[(-1, 2), (1, 3)]), il.dual()],
            QN::zero(1),
            &mut rng,
        );
        let steps = [("isj,jtk->istk", &a), ("ui,istk->ustk", &w)];
        // same contracted bond as ψ, other sectors on the free one
        let psi2 = BlockSparseTensor::random(
            vec![
                psi.indices()[0].clone(),
                spin(Arrow::In),
                bond(Arrow::Out, &[(-1, 2), (1, 1)]),
            ],
            QN::zero(1),
            &mut rng,
        );
        let exec = Executor::local();
        for algo in ALGOS {
            let kept = ResidentChain::upload(&exec, algo, &steps).unwrap();
            for x in [&psi, &psi2, &psi] {
                let fresh = ResidentChain::upload(&exec, algo, &steps).unwrap();
                assert_eq!(kept.apply(x).unwrap(), fresh.apply(x).unwrap(), "{algo}");
                fresh.release().unwrap();
            }
            kept.release().unwrap();
        }
    }

    /// Self-exec worker hook: when the multi-process backend re-executes
    /// this test binary with the `spawned_worker_entry` filter, this test
    /// becomes the worker serve loop; in a normal run it is a no-op pass.
    #[test]
    fn spawned_worker_entry() {
        tt_dist::maybe_serve();
    }

    /// `t` with only the blocks `keep` admits.
    fn only(t: &BlockSparseTensor, keep: impl Fn(&BlockKey) -> bool) -> BlockSparseTensor {
        let mut out = BlockSparseTensor::new(t.indices().to_vec(), t.flux());
        for (k, b) in t.blocks().filter(|(k, _)| keep(k)) {
            out.insert_block(k.clone(), b.clone()).unwrap();
        }
        out
    }

    /// A contraction with nothing to contract: an `x` that stores no
    /// block, under every algorithm, and for the list algorithm an `A`
    /// that stores none or no matching block pair — a chain of no steps.
    /// On Sequential, Threaded and two worker processes each result stores
    /// no block and has the indices and flux of the contraction, and no
    /// frame is sent: both workers are set to die at the first frame they
    /// receive, and nothing has been recovered until a contraction with
    /// work, which comes back with the right bits after the recovery.
    #[cfg(unix)]
    #[test]
    fn zero_pair_contractions_are_empty_and_send_nothing() {
        let (a, b) = pair();
        let spec = "isj,jtk->istk";
        let want = contract_list(&Executor::local(), spec, &a, &b).unwrap();
        assert!(want.n_blocks() > 0);
        let none = |t: &BlockSparseTensor| only(t, |_| false);
        // A's contracted sector 0 only, B's every other one
        let (a0, b_rest) = (only(&a, |k| k[2] == 0), only(&b, |k| k[0] != 0));
        assert!(a0.n_blocks() > 0 && b_rest.n_blocks() > 0);
        let mut cases = ALGOS.map(|algo| (algo, a.clone(), none(&b))).to_vec();
        cases.push((Algorithm::List, none(&a), b.clone()));
        cases.push((Algorithm::List, a0, b_rest));

        let machine = || tt_dist::Machine::blue_waters(2);
        let opts = tt_dist::ProcOptions {
            plan: Some(tt_dist::FaultPlan::parse("kill:0@1,kill:1@1").unwrap()),
            deadline: Some(std::time::Duration::from_secs(60)),
        };
        let spawn = tt_dist::SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let execs = [
            Executor::with_machine(machine(), 1, tt_dist::ExecMode::Sequential),
            Executor::with_machine(machine(), 1, tt_dist::ExecMode::Threaded),
            Executor::multi_process_opts(machine(), 1, 2, spawn, opts).unwrap(),
        ];
        for exec in &execs {
            let on = format!("on {:?}", exec.backend());
            for (algo, a, b) in &cases {
                let (na, nb) = (a.n_blocks(), b.n_blocks());
                let what = format!("{algo} of {na} × {nb} blocks {on}");
                let c = contract(exec, *algo, spec, a, b).expect(&what);
                assert_eq!(c.n_blocks(), 0, "{what}");
                assert_eq!(c.indices(), want.indices(), "{what}");
                assert_eq!(c.flux(), want.flux(), "{what}");
            }
            assert_eq!(exec.total_flops(), 0, "{on}");
            assert_eq!(exec.recovery_bytes(), 0, "{on}");
        }
        let mp = &execs[2];
        let c = contract(mp, Algorithm::List, spec, &a, &b).unwrap();
        assert!(mp.recovery_bytes() > 0, "the first frame killed its worker");
        assert_eq!(bits(&c), bits(&want));
    }

    /// A tensor as its stored keys and the bits of every block.
    fn bits(t: &BlockSparseTensor) -> Vec<(BlockKey, Vec<u64>)> {
        t.blocks()
            .map(|(k, b)| (k.clone(), b.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    /// A kept plan must follow a change of its input's stored keys alone,
    /// indices and flux agreeing — for a list chain a new pair schedule:
    /// ψ, then a ψ′ with one stored block fewer, then ψ again, on one
    /// chain, each equal bit for bit to the `contract` fold and to a fresh
    /// chain, under all three algorithms on Sequential and on two workers.
    #[test]
    fn kept_plan_follows_the_stored_keys() {
        let mut rng = StdRng::seed_from_u64(106);
        let (a, psi) = pair();
        let w = BlockSparseTensor::random(
            vec![bond(Arrow::In, &[(-1, 2), (1, 3)]), a.indices()[0].dual()],
            QN::zero(1),
            &mut rng,
        );
        let steps = [("isj,jtk->istk", &a), ("ui,istk->ustk", &w)];
        let mut fewer = BlockSparseTensor::new(psi.indices().to_vec(), psi.flux());
        let dropped = psi.n_blocks() / 2;
        for (i, (k, b)) in psi.blocks().enumerate() {
            if i != dropped {
                fewer.insert_block(k.clone(), b.clone()).unwrap();
            }
        }
        assert!(
            fewer.n_blocks() >= 2,
            "ψ′ keeps blocks on both sides of the gap"
        );
        let mut execs = vec![Executor::with_machine(
            tt_dist::Machine::blue_waters(2),
            1,
            tt_dist::ExecMode::Sequential,
        )];
        #[cfg(unix)]
        execs.push(
            Executor::multi_process(
                tt_dist::Machine::blue_waters(2),
                1,
                2,
                tt_dist::SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]),
            )
            .unwrap(),
        );
        for (exec, algo) in execs.iter().flat_map(|e| ALGOS.map(|algo| (e, algo))) {
            let kept = ResidentChain::upload(exec, algo, &steps).unwrap();
            for x in [&psi, &fewer, &psi] {
                let t = contract(exec, algo, steps[0].0, &a, x).unwrap();
                let fold = contract(exec, algo, steps[1].0, &w, &t).unwrap();
                let fresh = ResidentChain::upload(exec, algo, &steps).unwrap();
                let on = exec.backend();
                let what = format!("{algo} of {} blocks on {on:?}", x.n_blocks());
                let y = kept.apply(x).unwrap();
                assert_eq!(bits(&y), bits(&fold), "{what}");
                assert_eq!(bits(&y), bits(&fresh.apply(x).unwrap()), "{what}");
                fresh.release().unwrap();
            }
            kept.release().unwrap();
        }
    }

    /// N applications of one chain: the same bits every time, and from the
    /// second on no fresh workspace buffer — the first left behind what the
    /// later ones need. Sectors of 32 make every sparse-dense intermediate
    /// 128 KiB, the size the workspace starts serving at; the list and
    /// sparse-sparse chains never draw on it.
    #[test]
    fn repeated_apply_reuses_and_agrees() {
        let mut rng = StdRng::seed_from_u64(104);
        let wide = |arrow| bond(arrow, &[(-1, 32), (1, 32)]);
        let mid = bond(Arrow::Out, &[(-2, 16), (0, 32), (2, 16)]);
        let a = BlockSparseTensor::random(
            vec![wide(Arrow::In), spin(Arrow::In), mid.clone()],
            QN::zero(1),
            &mut rng,
        );
        let w = BlockSparseTensor::random(
            vec![wide(Arrow::In), wide(Arrow::Out)],
            QN::zero(1),
            &mut rng,
        );
        let x = BlockSparseTensor::random(
            vec![mid.dual(), spin(Arrow::In), wide(Arrow::Out)],
            QN::zero(1),
            &mut rng,
        );
        let steps = [("isj,jtk->istk", &a), ("ui,istk->ustk", &w)];
        for algo in ALGOS {
            let exec = Executor::local();
            let chain = ResidentChain::upload(&exec, algo, &steps).unwrap();
            let first = chain.apply(&x).unwrap();
            let fresh = |exec: &Executor| {
                let stats = exec.workspace_stats();
                stats.takes - stats.reuses
            };
            let after_first = fresh(&exec);
            assert_eq!(after_first > 0, algo == Algorithm::SparseDense, "{algo}");
            for _ in 0..3 {
                assert_eq!(chain.apply(&x).unwrap(), first, "{algo}");
                assert_eq!(fresh(&exec), after_first, "{algo}");
            }
            chain.release().unwrap();
        }
    }

    /// The classes a sparse-sparse chain plans its masks from allow
    /// exactly the offsets [`BlockSparseTensor::flat_mask`] lists: one and
    /// two charges, identity and permuted outputs.
    #[test]
    fn mask_classes_allow_exactly_the_flat_mask() {
        let (a, b) = pair();
        let mut rng = StdRng::seed_from_u64(105);
        let two = |arrow, dims: &[((i32, i32), usize)]| {
            QnIndex::new(
                arrow,
                dims.iter().map(|&((n, s), d)| (QN::two(n, s), d)).collect(),
            )
        };
        let bond = two(
            Arrow::Out,
            &[((0, 0), 1), ((1, 0), 2), ((1, 1), 3), ((2, 1), 2)],
        );
        let site = two(
            Arrow::In,
            &[((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 1)],
        );
        let e1 = BlockSparseTensor::random(
            vec![bond.dual(), site.clone(), bond.clone()],
            QN::two(1, 0),
            &mut rng,
        );
        let e2 = BlockSparseTensor::random(vec![bond.dual(), site, bond], QN::two(0, 1), &mut rng);
        for (spec, a, b) in [
            ("isj,jtk->istk", &a, &b),
            ("isj,jtk->tkis", &a, &b),
            ("isj,jtk->kits", &e1, &e2),
        ] {
            let step = StepPlan::derive(spec, structure(a), structure(b)).unwrap();
            let (row_class, col_class) = step.mask_classes(a.indices(), b.indices());
            let plan = &step.contract;
            let nat: Vec<usize> = plan
                .free_a_positions()
                .iter()
                .map(|&i| a.indices()[i].dim())
                .chain(
                    plan.free_b_positions()
                        .iter()
                        .map(|&j| b.indices()[j].dim()),
                )
                .collect();
            let ra = plan.free_a_positions().len();
            let out_dims: Vec<usize> = step.out_indices.iter().map(QnIndex::dim).collect();
            let out = tt_tensor::Shape::from(out_dims);
            let fuse = |idx: &[usize], dims: &[usize]| {
                idx.iter().zip(dims).fold(0, |f, (&i, &d)| f * d + i)
            };
            let allowed: Vec<u64> = (0..out.len())
                .filter(|&off| {
                    let idx = out.unoffset(off);
                    let mut n = vec![0; idx.len()];
                    for (j, &q) in plan.output_permutation().iter().enumerate() {
                        n[q] = idx[j];
                    }
                    row_class[fuse(&n[..ra], &nat[..ra])] == col_class[fuse(&n[ra..], &nat[ra..])]
                })
                .map(|off| off as u64)
                .collect();
            let want = BlockSparseTensor::flat_mask(&step.out_indices, step.out_flux);
            assert!(!want.is_empty(), "{spec}");
            assert_eq!(allowed, want, "{spec}");
        }
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
