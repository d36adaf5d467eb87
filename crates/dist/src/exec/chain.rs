//! Worker-side chains: the planner that turns [`ChainStep`]s into fused
//! supersteps (placement, redistribution, charging), its in-process leg,
//! and the exits of a resident result (`download*`, `free_results`).

use super::keys::{self, CoordsKey};
use super::residency::{op_state, Charge, OpCharge, Superstep};
use super::sparse::{inline_coords, inline_table, sd_request, ss_request, upload_coords};
use super::{expect_buf, DenseOp, Executor, SparseOp};
use crate::cluster::{Cluster, Placement};
use crate::handle::{Local, OpHandle, Residency, ResultHandle, ResultInfo};
use crate::kernels::{self, Coord, DensePrep, SsSlots};
use crate::transport::worker::{Op, OpCoords, OpSs, Reply, Request};
use crate::{Error, Result};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::{counting_sort_by, SlotMap, SsBTable};
use tt_tensor::view::Epilogue;
use tt_tensor::{DenseTensor, SparseTensor};

/// One operand of a [`Executor::chain`] step.
#[derive(Clone, Copy)]
pub enum ChainSrc<'a> {
    /// A dense operand, by value or by resident operand handle:
    /// `ChainSrc::Dense(x.into())` from a `&DenseTensor<f64>` or an
    /// `&OpHandle`.
    Dense(DenseOp<'a>),
    /// A sparse `f64` operand: the `a` side of a sparse step, or by value
    /// the `b` side of a sparse-sparse one.
    Sparse(SparseOp<'a>),
    /// The resident output of step `i` of this chain (must be a
    /// non-accumulate step).
    Prev(usize),
    /// The resident output of an earlier chain on the same executor.
    Res(&'a ResultHandle),
}

/// One contraction of a worker-side chain superstep. Its operands name its
/// kernel: dense × dense, sparse × dense, or sparse × sparse under `mask`.
pub struct ChainStep<'a> {
    /// Einsum grammar of the step.
    pub spec: &'a str,
    /// First operand (the sparse/structural side for sd steps).
    pub a: ChainSrc<'a>,
    /// Second operand.
    pub b: ChainSrc<'a>,
    /// Accumulate elementwise into the output of step `i` (in submission
    /// order — the first partial of an output is always a plain store)
    /// instead of producing a fresh result.
    pub acc: Option<usize>,
    /// A sparse-sparse step's output mask.
    pub mask: Option<&'a Arc<SlotMap>>,
}

/// The kernel family of a planned chain step.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum StepKind {
    Dense,
    Sd,
    Ss,
}

/// What a chain-step operand is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Form {
    Dense,
    Sparse,
    Slots,
}

/// One distinct step shape — a spec, a kernel family and the two operand
/// dims — and everything derivable from it alone. A list matvec is
/// hundreds of block pairs over far fewer shapes, and an eigensolve
/// repeats one matvec: a chain derives each shape once, or takes it from
/// the last chain ([`ShapeMemo`]).
struct Shape {
    spec: String,
    kind: StepKind,
    a_dims: Vec<usize>,
    b_dims: Vec<usize>,
    /// The parsed spec.
    plan: Arc<ContractPlan>,
    out_dims: Vec<usize>,
    m: usize,
    k: usize,
    n: usize,
    /// Words of the output, stored dense.
    words: usize,
    /// Flops of the dense product.
    flops: u64,
    /// In-process dense steps: the kernel's set-up, its output view
    /// included.
    dense: Option<DensePrep>,
}

impl Shape {
    /// The shape of a `kind` step `spec` over `a_dims` × `b_dims`; `lanes`
    /// is the pool's lane count when the step runs in-process.
    fn derive(
        plan: Arc<ContractPlan>,
        (spec, kind): (&str, StepKind),
        a_dims: &[usize],
        b_dims: &[usize],
        lanes: Option<usize>,
    ) -> Result<Self> {
        let out_dims = plan.output_dims(a_dims, b_dims)?;
        let (m, k, n) = kernels::fused_dims(&plan, a_dims, b_dims);
        let dense = match (kind, lanes) {
            (StepKind::Dense, Some(lanes)) => Some(DensePrep::new(&plan, a_dims, b_dims, lanes)?),
            _ => None,
        };
        Ok(Self {
            spec: spec.to_string(),
            kind,
            a_dims: a_dims.to_vec(),
            b_dims: b_dims.to_vec(),
            words: out_dims.iter().product(),
            flops: plan.flop_count(a_dims, b_dims),
            plan,
            out_dims,
            m,
            k,
            n,
            dense,
        })
    }

    /// Whether this is the shape of that key.
    fn is(&self, (spec, kind): (&str, StepKind), a_dims: &[usize], b_dims: &[usize]) -> bool {
        self.kind == kind && self.a_dims == a_dims && self.b_dims == b_dims && self.spec == spec
    }
}

/// FxHash's multiply-rotate over 8-byte words: a shape key is a short spec
/// and a few dims, hashed once per chain step.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Shapes by the hash of their key; a hit is compared by content.
type ShapeMap = HashMap<u64, Arc<Shape>, BuildHasherDefault<FxHasher>>;

/// The shapes of the last chain an executor planned, for the next one.
#[derive(Default)]
pub(super) struct ShapeMemo {
    shapes: ShapeMap,
    /// Shapes derived so far rather than found (read by tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(super) derived: usize,
}

#[cfg(test)]
impl ShapeMemo {
    /// The `(spec, a_dims, b_dims)` of every shape held.
    pub(super) fn keys(&self) -> Vec<(String, Vec<usize>, Vec<usize>)> {
        let key = |s: &Arc<Shape>| (s.spec.clone(), s.a_dims.clone(), s.b_dims.clone());
        self.shapes.values().map(key).collect()
    }
}

/// The shapes of one chain being planned: its own so far, then the last
/// chain's, then a fresh derivation.
struct ChainShapes<'s> {
    cur: ShapeMap,
    last: ShapeMap,
    /// The specs this chain's derivations parsed.
    plans: Vec<(&'s str, Arc<ContractPlan>)>,
    /// The pool's lane count, when the chain runs in-process.
    lanes: Option<usize>,
    derived: usize,
}

impl<'s> ChainShapes<'s> {
    /// The shape of a `kind` step `spec` over `a_dims` × `b_dims`.
    fn get(
        &mut self,
        key: (&'s str, StepKind),
        a_dims: &[usize],
        b_dims: &[usize],
    ) -> Result<Arc<Shape>> {
        let mut h = FxHasher::default();
        (key, a_dims, b_dims).hash(&mut h);
        let hash = h.finish();
        let fits = |s: &Arc<Shape>| s.is(key, a_dims, b_dims);
        if let Some(shape) = self.cur.get(&hash).filter(|s| fits(s)) {
            return Ok(Arc::clone(shape));
        }
        let shape = match self.last.remove(&hash).filter(fits) {
            Some(shape) => shape,
            None => {
                self.derived += 1;
                let plan = match self.plans.iter().find(|(spec, _)| *spec == key.0) {
                    Some((_, plan)) => Arc::clone(plan),
                    None => {
                        let plan = Arc::new(ContractPlan::parse(key.0)?);
                        self.plans.push((key.0, Arc::clone(&plan)));
                        plan
                    }
                };
                Arc::new(Shape::derive(plan, key, a_dims, b_dims, self.lanes)?)
            }
        };
        self.cur.insert(hash, Arc::clone(&shape));
        Ok(shape)
    }
}

/// Per-step plan of a chain: the step's shape, and what differs between
/// steps of one shape.
struct PlannedStep {
    shape: Arc<Shape>,
    /// Flops and stored result words; a sparse-dense step's flops count
    /// its `A`'s entries, a sparse-sparse step's are both measured.
    flops: u64,
    words_c: usize,
    /// How a sparse-sparse step reads an earlier step's slots as its `B`.
    b_weights: Option<Weights>,
    /// The step whose output slot this step writes (self for non-acc).
    base: usize,
    /// Result store key (the base's key for accumulate steps).
    key: u64,
    /// For an output some later step reads through [`ChainSrc::Prev`]: the
    /// last step that reads or accumulates into it. Such an output is
    /// *internal* — released when that step has run, never handed out.
    dies_after: Option<usize>,
}

impl PlannedStep {
    /// Whether step `i`, which this plan belongs to, owns an output the
    /// caller receives a handle for.
    fn hands_out(&self, i: usize) -> bool {
        self.base == i && self.dies_after.is_none()
    }

    fn kind(&self) -> StepKind {
        self.shape.kind
    }

    /// The key family of a sparse `a` of this step.
    fn a_key(&self, h: &OpHandle) -> CoordsKey {
        let sh = &self.shape;
        match sh.kind {
            StepKind::Ss => keys::ss_a(h, &sh.plan),
            _ => keys::sd_a(h, &sh.plan, sh.n),
        }
    }

    /// The fused coordinates of a sparse `a` of this step as its kernel
    /// takes them: sparse-sparse stably sorts them by contracted key.
    fn a_coords(&self, at: &SparseTensor<f64>) -> Vec<Coord> {
        let sh = &self.shape;
        let (rows, ctr) = (sh.plan.free_a_positions(), sh.plan.ctr_a_positions());
        let coords = kernels::sparse_coords(at, rows, ctr);
        match sh.kind {
            StepKind::Ss => counting_sort_by(&coords, sh.k, |c| c.1 as usize),
            _ => coords,
        }
    }

    /// A sparse value as the `B` table of this sparse-sparse step.
    fn b_table(&self, bt: &SparseTensor<f64>) -> SsBTable<f64> {
        let sh = &self.shape;
        let (ctr, cols) = (sh.plan.ctr_b_positions(), sh.plan.free_b_positions());
        SsBTable::from_keyed(&kernels::sparse_coords(bt, ctr, cols), sh.k)
    }
}

/// A step's `B` weights (boxed: a list chain plans thousands of steps).
type Weights = Box<(Vec<u64>, Vec<u64>)>;

/// The `b_weights` of sparse-sparse step `st` of `shape`: its mask must
/// fit, and its `B` be a sparse value or an earlier step.
fn ss_plan(st: &ChainStep, shape: &Shape, planned: &[PlannedStep]) -> Result<Option<Weights>> {
    let (plan, m, n) = (&shape.plan, shape.m, shape.n);
    let map = st.mask.expect("a sparse-sparse step has a mask");
    if (map.rows(), map.cols()) != (m, n) {
        return Err(Error::Runtime(format!(
            "{}: mask classes off {m} × {n}",
            st.spec
        )));
    }
    Ok(match st.b {
        ChainSrc::Sparse(SparseOp::Value(_)) => None,
        ChainSrc::Prev(j) => {
            let prev = &planned[j].shape;
            let (dims, perm) = (&prev.out_dims, prev.plan.output_permutation());
            let w = |positions| kernels::fusion_weights(positions, dims, perm);
            Some(Box::new((
                w(plan.ctr_b_positions()),
                w(plan.free_b_positions()),
            )))
        }
        _ => return Err(Error::Runtime(format!("{}: `B` is not moving", st.spec))),
    })
}

impl Executor {
    // -- result residency: chains ----------------------------------------

    /// Run an ordered list of contraction steps **worker-side**: each step
    /// may consume prior steps' resident outputs ([`ChainSrc::Prev`]) or
    /// the outputs of earlier chains ([`ChainSrc::Res`]), and no
    /// intermediate ever round-trips through the driver. Returns one
    /// [`ResultHandle`] per *terminal* output, in step order: the results
    /// stay in the worker stores of the ranks that computed them. A step
    /// yields `None` when it accumulates (it folds into its target's
    /// handle) or when a later step of this chain reads its output — that
    /// output is internal to the chain, which releases it itself once its
    /// last consumer has run: in-process its buffer goes back to the
    /// workspace there and then, on the cluster the chain ends with the
    /// `Free`s. [`Executor::download`] / [`Executor::download_many`] and,
    /// for a sparse-sparse step's, [`Executor::download_sparse`] are the
    /// only value-returning exits; [`Executor::free_results`] discards. A
    /// contraction that should just *produce a handle* is a one-step chain.
    ///
    /// Placement: a step runs on the rank holding its largest resident
    /// input; when inputs live on different ranks the smaller ones move
    /// in an explicit redistribute superstep (`Download` + re-`Upload`,
    /// metered in the byte counters but — like every p-dependent physical
    /// re-ship — not α–β-charged, so the cost counters stay bitwise-equal
    /// across backends). Steps with no resident input anchor to one
    /// round-robin rank per chain call; a chain of one step — a one-shot
    /// contraction such as [`Executor::contract`] — takes the current
    /// rank without moving the round robin on, so the chains after it
    /// place as they would without it. A sparse-sparse step's output, its
    /// mask's slots, never moves: its reader runs where it lies. A chain of
    /// no steps sends nothing.
    ///
    /// A by-value operand ([`ChainSrc::Dense`] or [`ChainSrc::Sparse`] of
    /// a tensor) is charged as a value; an output a step reads is charged
    /// as chain-resident. On a dense × dense step a by-value operand is
    /// content-keyed through the retention cache when that is on
    /// ([`Executor::set_retention_cap`]): it ships once fleet-wide, and a
    /// later chain or job that passes the same content ships nothing for
    /// it. On a sparse step every by-value operand ships inline and nothing
    /// is retained — a Davidson vector is used once. This is the one
    /// contraction engine: [`Executor::contract`], [`Executor::contract_sd`]
    /// and [`Executor::contract_ss`] are one-step chains.
    ///
    /// Planning is per step *shape* — spec, kernel family and operand
    /// dims — not per step: a list matvec is hundreds of block pairs over
    /// far fewer shapes. Each distinct shape is derived once (its parsed
    /// spec, output dims, fused sizes, dense flops and, in-process, the
    /// dense kernel's set-up and output view), and the executor keeps the
    /// last chain's shapes, so the repeated matvecs of an eigensolve derive
    /// none.
    ///
    /// Numerics are bitwise-identical to running the equivalent
    /// value-returning contractions on any backend: every kernel is the
    /// same row-disjoint code, and accumulate steps add partials in
    /// submission order exactly like the driver-side value path.
    pub fn chain(&self, steps: &[ChainStep]) -> Result<Vec<Option<ResultHandle>>> {
        let mut planned = self.plan_chain(steps)?;
        let mut locals: Vec<Option<Local>> = vec![None; steps.len()];
        // a sparse-sparse step's (flops, result words), measured
        let mut measured = Vec::new();
        let homes = if let Some(cl) = &self.cluster {
            let autos = self.auto_key_chain(steps, &planned);
            let keyed: Vec<ChainStep> = steps
                .iter()
                .zip(&autos)
                .map(|(st, [a, b])| ChainStep {
                    spec: st.spec,
                    a: keyed(a, st.a),
                    b: keyed(b, st.b),
                    acc: st.acc,
                    mask: st.mask,
                })
                .collect();
            // its own statement: a guard in the `match` scrutinee would live
            // through the arms, and the error arm locks the cluster again
            let run = self.chain_over_cluster(&mut cl.lock(), &keyed, &planned, &mut measured);
            for h in autos.into_iter().flatten() {
                self.finish_auto(h);
            }
            match run {
                Ok(homes) => homes,
                Err(e) => {
                    // a mid-chain failure may have left earlier steps'
                    // results stored (flushed supersteps execute eagerly)
                    // with no handle to free them through — sweep every
                    // key this chain could have stored, best-effort
                    // (Free of an absent key is a worker no-op)
                    let mut cl = cl.lock();
                    let reqs: Vec<(usize, Request)> = planned
                        .iter()
                        .enumerate()
                        .filter(|&(i, pl)| pl.base == i)
                        .flat_map(|(_, pl)| {
                            (0..cl.ranks()).map(move |r| (r, Request::Free { key: pl.key }))
                        })
                        .collect();
                    let _ = cl.call_all(reqs);
                    return Err(e);
                }
            }
        } else {
            self.workspace
                .call(|| self.chain_local(steps, &planned, &mut locals, &mut measured))?;
            vec![0; steps.len()]
        };
        for (i, (flops, words_c)) in measured {
            (planned[i].flops, planned[i].words_c) = (flops, words_c);
        }
        // charge every step in submission order, from driver-side registry
        // state only — the charge sequence is bitwise-identical on every
        // backend — under one lock of the registry, then one of the tracker
        let states = {
            let mut res = self.residency.lock();
            let state = |(st, pl): (&ChainStep, &PlannedStep)| {
                let a = chain_charge(&mut res, &st.a, pl, true)?;
                Ok([a, chain_charge(&mut res, &st.b, pl, false)?])
            };
            let states: Result<Vec<[OpCharge; 2]>> =
                steps.iter().zip(&planned).map(state).collect();
            states?
        };
        let charges = planned.iter().zip(&states).map(|(pl, &[a, b])| Charge {
            a,
            b,
            words_c: pl.words_c,
            m: pl.shape.m,
            n: pl.shape.n,
            flops: pl.flops,
            sparse: pl.kind() != StepKind::Dense,
        });
        self.charge_contractions(charges);
        let mut out = Vec::with_capacity(steps.len());
        let mut res = self.residency.lock();
        for (i, pl) in planned.iter().enumerate() {
            if !pl.hands_out(i) {
                out.push(None);
                continue;
            }
            res.record_result(
                pl.key,
                ResultInfo {
                    home: homes[i],
                    words: pl.words_c,
                },
            );
            out.push(Some(ResultHandle {
                key: pl.key,
                dims: pl.shape.out_dims.clone(),
                local: locals[i].take(),
            }));
        }
        Ok(out)
    }

    /// The handle of a one-step chain's result: the one-shot contractions
    /// ([`Executor::contract`], [`Executor::contract_sd`],
    /// [`Executor::contract_ss`]) are this and a download.
    pub(super) fn one_step(&self, step: &ChainStep) -> Result<ResultHandle> {
        let out = self.chain(std::slice::from_ref(step))?.pop().flatten();
        Ok(out.expect("a one-step chain hands out its result"))
    }

    /// Validate a chain and compute every step's plan: its [`Shape`] —
    /// derived once per distinct shape, or kept from the last chain
    /// planned — then what differs per step (flops of a sparse step,
    /// output slot, store key). The store keys are one range, issued in
    /// step order under one lock.
    fn plan_chain(&self, steps: &[ChainStep]) -> Result<Vec<PlannedStep>> {
        let mut planned: Vec<PlannedStep> = Vec::with_capacity(steps.len());
        // an eigensolve's matvecs repeat one chain: the last chain's shapes
        // serve this one, and what this one uses serves the next
        let last = std::mem::take(&mut self.shapes.lock().shapes);
        let mut shapes = ChainShapes {
            cur: ShapeMap::with_capacity_and_hasher(last.len(), Default::default()),
            last,
            plans: Vec::new(),
            lanes: self.cluster.is_none().then(|| kernels::lanes(self.pool())),
            derived: 0,
        };
        for (i, st) in steps.iter().enumerate() {
            let shape = {
                let (a_dims, a_form) = src_info(&st.a, &planned)?;
                let (b_dims, b_form) = src_info(&st.b, &planned)?;
                let kind = match (a_form, b_form, st.mask.is_some()) {
                    (Form::Dense, Form::Dense, false) => StepKind::Dense,
                    (Form::Sparse, Form::Dense, false) => StepKind::Sd,
                    (Form::Sparse, Form::Sparse | Form::Slots, true) => StepKind::Ss,
                    _ => {
                        return Err(Error::Runtime(format!(
                            "step {i}: no kernel for its operands"
                        )))
                    }
                };
                shapes.get((st.spec, kind), a_dims, b_dims)?
            };
            for j in [st.a.prev(), st.b.prev()].into_iter().flatten() {
                planned[j].dies_after = Some(i);
            }
            let flops = match (shape.kind, &st.a) {
                (StepKind::Ss, _) => 0,
                (StepKind::Sd, ChainSrc::Sparse(op)) => {
                    2 * op.tensor()?.nnz() as u64 * shape.n as u64
                }
                _ => shape.flops,
            };
            let b_weights = match shape.kind {
                StepKind::Ss => ss_plan(st, &shape, &planned)?,
                _ => None,
            };
            let base = match st.acc {
                None => i,
                Some(t) => {
                    let tgt = planned.get(t).ok_or_else(|| {
                        Error::Runtime(format!("step {i} accumulates into future step {t}"))
                    })?;
                    if tgt.base != t {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulates into step {t}, itself an accumulate step"
                        )));
                    }
                    if shape.kind != StepKind::Dense {
                        return Err(Error::Runtime(
                            "accumulate is only supported for dense chain steps".into(),
                        ));
                    }
                    if tgt.shape.out_dims != shape.out_dims {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulate target has a mismatched shape"
                        )));
                    }
                    // an accumulate keeps an internal output alive
                    if let Some(last) = &mut planned[t].dies_after {
                        *last = i;
                    }
                    t
                }
            };
            planned.push(PlannedStep {
                words_c: shape.words,
                shape,
                flops,
                b_weights,
                base,
                key: 0,
                dies_after: None,
            });
        }
        {
            let mut memo = self.shapes.lock();
            memo.shapes = shapes.cur;
            memo.derived += shapes.derived;
        }
        // a fresh key per output slot, in step order, from one range; an
        // accumulate step writes under its base's
        let fresh = planned.iter().enumerate().filter(|&(i, pl)| pl.base == i);
        let fresh = fresh.count() as u64;
        let mut next = {
            let mut k = self.next_result.lock();
            *k += fresh;
            *k - fresh
        };
        for i in 0..planned.len() {
            let base = planned[i].base;
            planned[i].key = if base == i {
                next += 1;
                next - 1
            } else {
                planned[base].key
            };
        }
        Ok(planned)
    }

    /// The cluster leg of [`Executor::chain`]: place each step, move
    /// misplaced resident inputs (redistribute supersteps), and ship the
    /// fused chain superstep(s), then free the outputs that were internal
    /// to the chain. Returns the home rank per step.
    fn chain_over_cluster(
        &self,
        cl: &mut Cluster,
        steps: &[ChainStep],
        planned: &[PlannedStep],
        measured: &mut Vec<(usize, (u64, usize))>,
    ) -> Result<Vec<usize>> {
        let p = cl.ranks();
        let mut placement = Placement::new(p);
        let anchor = {
            let mut cur = self.chain_cursor.lock();
            let a = *cur % p.max(1);
            if steps.len() > 1 {
                *cur = cur.wrapping_add(1);
            }
            a
        };
        let mut homes: Vec<usize> = vec![0; steps.len()];
        let mut pending = Superstep::default();
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            let rank = match (pl.kind(), &st.b) {
                _ if pl.base != i => homes[pl.base],
                // a step's slots do not move: their reader runs where they lie
                (StepKind::Ss, ChainSrc::Prev(j)) => homes[*j],
                _ => {
                    let mut weighted: Vec<(usize, u64)> = Vec::new();
                    let res = self.residency.lock();
                    for src in [&st.a, &st.b] {
                        collect_weights(src, pl, &res, &homes, planned, &mut weighted);
                    }
                    placement.place_weighted(weighted, Some(anchor))
                }
            };
            homes[i] = rank;
            let mut wire = |src, pending: &mut Superstep| {
                self.wire_input(cl, rank, src, &mut homes, planned, pending)
            };
            // plan_chain gave a sparse step a sparse `a`, and no `acc`
            let sh = &pl.shape;
            let req = match (sh.kind, &st.a) {
                (StepKind::Dense, a) => Request::Contract {
                    spec: st.spec.to_string(),
                    a_dims: sh.a_dims.clone(),
                    a: wire(a, &mut pending)?,
                    b_dims: sh.b_dims.clone(),
                    b: wire(&st.b, &mut pending)?,
                    key: pl.key,
                    acc: pl.base != i,
                },
                (StepKind::Sd, ChainSrc::Sparse(a)) => {
                    let a = self.wire_coords(rank, a, pl, &mut pending)?;
                    let (dims, b) = ((&sh.a_dims[..], &sh.b_dims[..]), wire(&st.b, &mut pending)?);
                    sd_request(&sh.plan, dims, a, b, pl.key)
                }
                (StepKind::Ss, ChainSrc::Sparse(a)) => {
                    // an earlier step's slots lie on this rank; a value ships
                    let b = match (&st.b, pl.b_weights.as_deref()) {
                        (ChainSrc::Prev(j), Some((key_w, col_w))) => OpSs::Key {
                            key: planned[*j].key,
                            key_w: key_w.clone(),
                            col_w: col_w.clone(),
                        },
                        (ChainSrc::Sparse(x), _) => inline_table(&pl.b_table(x.tensor()?)),
                        _ => unreachable!("planned with the form of its `B`"),
                    };
                    let mask =
                        kernels::wire_classes(st.mask.expect("a sparse-sparse step has a mask"));
                    let axes = kernels::ss_axes(&sh.plan, &sh.a_dims, &sh.b_dims)?;
                    let a = self.wire_coords(rank, a, pl, &mut pending)?;
                    ss_request(a, b, pl.key, sh.n, &axes, mask)
                }
                _ => unreachable!("plan_chain gave a sparse step a sparse `a`"),
            };
            pending.task(rank, req);
        }
        // one task per step, in step order
        for (i, (pl, reply)) in planned.iter().zip(pending.run(cl)?).enumerate() {
            match (pl.kind(), reply) {
                (StepKind::Ss, Reply::Merged { touched, flops }) => {
                    measured.push((i, (flops, 2 * touched as usize)))
                }
                (StepKind::Ss, other) => return Err(Error::transport(format!("got {other:?}"))),
                _ => {}
            }
        }
        // every consumer has run: the internal outputs go, each where it
        // ended up
        let frees: Vec<(usize, Request)> = planned
            .iter()
            .zip(&homes)
            .filter(|(pl, _)| pl.dies_after.is_some())
            .map(|(pl, &home)| (home, Request::Free { key: pl.key }))
            .collect();
        if !frees.is_empty() {
            cl.call_all(frees)?;
        }
        Ok(homes)
    }

    /// Resolve one dense chain-step operand to its wire form on `rank`,
    /// uploading missing resident operands and moving misplaced resident
    /// results (the explicit redistribute superstep).
    fn wire_input(
        &self,
        cl: &mut Cluster,
        rank: usize,
        src: &ChainSrc,
        homes: &mut [usize],
        planned: &[PlannedStep],
        pending: &mut Superstep,
    ) -> Result<Op> {
        Ok(match src {
            ChainSrc::Dense(op) => pending.whole(&mut self.residency.lock(), *op, rank)?,
            ChainSrc::Sparse(_) => unreachable!("plan_chain gave a sparse operand a sparse step"),
            ChainSrc::Prev(j) => {
                let key = planned[*j].key;
                if homes[*j] != rank {
                    self.chain_move(cl, key, homes[*j], rank, pending)?;
                    homes[*j] = rank;
                }
                Op::Key(key)
            }
            ChainSrc::Res(h) => {
                let home = result_home(&self.residency.lock(), h)?;
                if home != rank {
                    self.chain_move(cl, h.key, home, rank, pending)?;
                    self.residency.lock().move_result(h.key, rank);
                }
                Op::Key(h.key)
            }
        })
    }

    /// A sparse `a` of step `pl` on `rank`: inline, or uploaded once.
    fn wire_coords(
        &self,
        rank: usize,
        op: &SparseOp,
        pl: &PlannedStep,
        pending: &mut Superstep,
    ) -> Result<OpCoords> {
        let at = op.tensor()?;
        let Some(h) = op.handle() else {
            return Ok(inline_coords(pl.a_coords(at)));
        };
        let key = pl.a_key(h).whole();
        let upload = || Ok(upload_coords(key, pl.a_coords(at)));
        let res = &mut self.residency.lock();
        pending.ensure(res, h.key(), key, rank, upload)?;
        Ok(OpCoords::Key(key))
    }

    /// Move a resident dense result from `from` to `to`: run the pending
    /// superstep (whose tasks could produce or reference the buffer —
    /// conservative, but moves are rare on anchored chains), download the
    /// buffer off its old home, and re-upload on the new one.
    /// This is the explicit redistribute superstep of the chain protocol
    /// — metered, never α–β-charged.
    fn chain_move(
        &self,
        cl: &mut Cluster,
        key: u64,
        from: usize,
        to: usize,
        pending: &mut Superstep,
    ) -> Result<()> {
        pending.flush(cl)?;
        let data = expect_buf(cl.call(from, &Request::Download { key })?)?;
        pending.upload(to, Request::Upload { key, data });
        Ok(())
    }

    /// The in-process leg of [`Executor::chain`]: run every step locally
    /// with the exact same kernels as the value paths, accumulating
    /// products in submission order: a dense step runs its shape's
    /// prepared kernel, which stores its tiles into a fresh output taken
    /// unzeroed from the workspace, or adds them into its target, through
    /// the shape's output view. An internal output leaves `outs` as soon
    /// as its last consumer has run, and a dense one's buffer goes back to
    /// the workspace, for the next step to take.
    fn chain_local(
        &self,
        steps: &[ChainStep],
        planned: &[PlannedStep],
        outs: &mut [Option<Local>],
        measured: &mut Vec<(usize, (u64, usize))>,
    ) -> Result<()> {
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            // plan_chain made a sparse `a` a sparse step, and refused `acc`
            // on one; it prepared every dense step's kernel
            let dense = |outs: &[Option<Local>], out: &mut [f64], how| {
                let prep = pl
                    .shape
                    .dense
                    .as_ref()
                    .expect("a prepared in-process kernel");
                let (a, b) = (resolve_local(&st.a, outs)?, resolve_local(&st.b, outs)?);
                prep.run(a, b, self.pool(), out, how)
            };
            if pl.base == i {
                outs[i] = Some(match (pl.kind(), &st.a) {
                    (StepKind::Sd, ChainSrc::Sparse(op)) => {
                        let b = resolve_local(&st.b, outs)?;
                        Local::Dense(Arc::new(self.sd_local(&pl.shape.plan, op, b)?))
                    }
                    (StepKind::Ss, ChainSrc::Sparse(op)) => {
                        // an earlier step's slots go once their last reader
                        // has its table
                        let prev = st.b.prev().and_then(|j| match planned[j].dies_after {
                            Some(last) if last == i => outs[j].take(),
                            _ => outs[j].clone(),
                        });
                        let result = self.ss_local(st, pl, op, prev)?;
                        measured.push((i, (result.slots.flops, 2 * result.touched())));
                        Local::Slots(Arc::new(result))
                    }
                    _ => {
                        let mut c = self.workspace.take_unzeroed(pl.words_c);
                        dense(outs, &mut c, Epilogue::Store)?;
                        let dims = pl.shape.out_dims.clone();
                        Local::Dense(Arc::new(DenseTensor::from_vec(dims, c)?))
                    }
                });
            } else {
                // the target leaves `outs` while the kernel adds into it; an
                // operand that reads it keeps the value it had
                let Some(Local::Dense(mut target)) = outs[pl.base].take() else {
                    return Err(Error::Runtime("accumulate target missing".into()));
                };
                if [st.a.prev(), st.b.prev()].contains(&Some(pl.base)) {
                    outs[pl.base] = Some(Local::Dense(Arc::clone(&target)));
                }
                dense(outs, Arc::make_mut(&mut target).data_mut(), Epilogue::Add)?;
                outs[pl.base] = Some(Local::Dense(target));
            }
            for j in [st.a.prev(), st.b.prev(), st.acc].into_iter().flatten() {
                if planned[j].dies_after != Some(i) {
                    continue;
                }
                if let Some(Local::Dense(dead)) = outs[j].take() {
                    if let Ok(dead) = Arc::try_unwrap(dead) {
                        self.workspace.give(dead.into_data());
                    }
                }
            }
        }
        Ok(())
    }

    /// The in-process leg of one sparse-sparse step: `a`'s sorted
    /// coordinates ([`Executor::kept_coords`]) merged against `B`.
    fn ss_local(
        &self,
        st: &ChainStep,
        pl: &PlannedStep,
        a: &SparseOp,
        prev: Option<Local>,
    ) -> Result<SsSlots> {
        let at = a.tensor()?;
        let fuse = || pl.a_coords(at);
        let kept = self.kept_coords(a, |h| pl.a_key(h).logical(), &fuse);
        let coords = kept
            .as_deref()
            .map_or_else(|| Cow::Owned(fuse()), Cow::Borrowed);
        let btab = match (&st.b, pl.b_weights.as_deref(), prev) {
            (ChainSrc::Sparse(b), ..) => pl.b_table(b.tensor()?),
            (_, Some((key_w, col_w)), Some(Local::Slots(prev))) => {
                prev.table(key_w, col_w, pl.shape.n as u64)?
            }
            _ => return Err(no_local_payload()),
        };
        let map = Arc::clone(st.mask.expect("a sparse-sparse step has a mask"));
        let sh = &pl.shape;
        let axes = kernels::ss_axes(&sh.plan, &sh.a_dims, &sh.b_dims)?;
        let slots = kernels::ss_slots(&coords, &btab, &map, self.pool());
        Ok(SsSlots { map, slots, axes })
    }

    /// For every step, the content-keyed stand-ins of its `a` and `b`: a
    /// by-value operand of a dense × dense step goes through the retention
    /// cache ([`Executor::auto_handle`]); nothing else does, and nothing at
    /// all while retention is off.
    fn auto_key_chain(
        &self,
        steps: &[ChainStep],
        planned: &[PlannedStep],
    ) -> Vec<[Option<OpHandle>; 2]> {
        steps
            .iter()
            .zip(planned)
            .map(|(st, pl)| {
                let auto = |src: &ChainSrc| match (pl.kind(), src) {
                    (StepKind::Dense, ChainSrc::Dense(op @ DenseOp::Value(t))) => {
                        self.auto_handle(op, t)
                    }
                    _ => None,
                };
                [auto(&st.a), auto(&st.b)]
            })
            .collect()
    }

    /// Download a resident result — with [`Executor::download_many`], of
    /// which it is the one-handle case, the only value-returning exit of a
    /// chain ([`Executor::download_sparse`] for a sparse-sparse step's).
    /// Consumes the handle: the buffer leaves its home rank's store and
    /// the driver forgets it.
    pub fn download(&self, h: ResultHandle) -> Result<DenseTensor<f64>> {
        Ok(self
            .download_many(vec![h])?
            .pop()
            .expect("one handle in, one tensor out"))
    }

    /// Download many resident results in one superstep (consuming the
    /// handles).
    pub fn download_many(&self, hs: Vec<ResultHandle>) -> Result<Vec<DenseTensor<f64>>> {
        if let Some(cl) = &self.cluster {
            let reqs = {
                let res = self.residency.lock();
                hs.iter()
                    .map(|h| Ok((result_home(&res, h)?, Request::Download { key: h.key })))
                    .collect::<Result<Vec<_>>>()?
            };
            let replies = cl.lock().call_all(reqs)?;
            let mut res = self.residency.lock();
            let mut out = Vec::with_capacity(hs.len());
            for (h, reply) in hs.iter().zip(replies) {
                res.forget_result(h.key);
                out.push(DenseTensor::from_vec(h.dims.clone(), expect_buf(reply)?)?);
            }
            Ok(out)
        } else {
            let mut res = self.residency.lock();
            hs.into_iter()
                .map(|mut h| {
                    res.forget_result(h.key);
                    let Some(Local::Dense(t)) = h.local.take() else {
                        return Err(no_local_payload());
                    };
                    // a result nobody else holds moves out without a copy
                    Ok(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
                })
                .collect()
        }
    }

    /// Download a resident sparse-sparse result as its stored entries,
    /// cancelled zeros dropped (consuming the handle).
    pub fn download_sparse(&self, mut h: ResultHandle) -> Result<SparseTensor<f64>> {
        let (offs, vals) = match (&self.cluster, h.local.take()) {
            (Some(cl), _) => {
                let home = result_home(&self.residency.lock(), &h)?;
                match cl.lock().call(home, &Request::Download { key: h.key })? {
                    Reply::Entries { offs, vals } => (offs, vals),
                    other => return Err(Error::transport(format!("expected entries: {other:?}"))),
                }
            }
            (None, Some(Local::Slots(result))) => result.entries(),
            _ => return Err(no_local_payload()),
        };
        self.residency.lock().forget_result(h.key);
        Ok(SparseTensor::from_sorted(h.dims, offs, vals)?)
    }

    /// Discard resident results without downloading them, in one
    /// superstep.
    pub fn free_results(&self, hs: Vec<ResultHandle>) -> Result<()> {
        let reqs = {
            let mut res = self.residency.lock();
            let mut reqs = Vec::new();
            for h in &hs {
                if let Some(info) = res.forget_result(h.key) {
                    reqs.push((info.home, Request::Free { key: h.key }));
                }
            }
            reqs
        };
        if let (Some(cl), false) = (&self.cluster, reqs.is_empty()) {
            cl.lock().call_all(reqs)?;
        }
        Ok(())
    }
}

impl ChainSrc<'_> {
    /// The step whose output this operand is, if it is one of this chain's.
    fn prev(&self) -> Option<usize> {
        match self {
            ChainSrc::Prev(j) => Some(*j),
            _ => None,
        }
    }

    /// The operand handle behind a by-handle operand.
    fn handle(&self) -> Option<&OpHandle> {
        match self {
            ChainSrc::Dense(op) => op.handle(),
            ChainSrc::Sparse(op) => op.handle(),
            ChainSrc::Prev(_) | ChainSrc::Res(_) => None,
        }
    }
}

/// The α–β charge state of one chain-step operand against the registry
/// `res`: value operands charge in full, resident operands follow the
/// one-time-upload / cache-hit discipline (whole-tensor buffers — chains
/// run whole contractions), and resident results of either format are
/// always hits (they were produced in place and never move on the charged
/// path).
fn chain_charge(
    res: &mut Residency,
    src: &ChainSrc,
    pl: &PlannedStep,
    is_a: bool,
) -> Result<OpCharge> {
    let sh = &pl.shape;
    let elems = if is_a { sh.m * sh.k } else { sh.k * sh.n };
    Ok(match src {
        ChainSrc::Dense(_) => op_state(res, src.handle(), keys::whole, elems),
        // a sparse operand moves its stored entries (offset + value)
        ChainSrc::Sparse(op) if is_a => op_state(
            res,
            src.handle(),
            |h| pl.a_key(h).logical(),
            2 * op.tensor()?.nnz(),
        ),
        ChainSrc::Sparse(op) => OpCharge::Value(2 * op.tensor()?.nnz()),
        ChainSrc::Prev(_) | ChainSrc::Res(_) => OpCharge::Hit,
    })
}

/// `src`, or the content-keyed handle that stands in for it.
fn keyed<'a>(auto: &'a Option<OpHandle>, src: ChainSrc<'a>) -> ChainSrc<'a> {
    auto.as_ref().map_or(src, |h| ChainSrc::Dense(h.into()))
}

/// Dims of a chain-step operand at planning time, borrowed, and its form.
fn src_info<'a>(src: &'a ChainSrc, planned: &'a [PlannedStep]) -> Result<(&'a [usize], Form)> {
    Ok(match src {
        ChainSrc::Dense(op) => (op.tensor()?.dims(), Form::Dense),
        ChainSrc::Sparse(op) => (op.tensor()?.dims(), Form::Sparse),
        ChainSrc::Prev(j) => {
            let pl = planned
                .get(*j)
                .ok_or_else(|| Error::Runtime(format!("chain step references future step {j}")))?;
            if pl.base != *j {
                return Err(Error::Runtime(format!(
                    "chain step references accumulate step {j}; reference its base instead"
                )));
            }
            let form = match pl.kind() {
                StepKind::Ss => Form::Slots,
                _ => Form::Dense,
            };
            (&pl.shape.out_dims, form)
        }
        ChainSrc::Res(h) => (&h.dims, Form::Dense),
    })
}

/// Gather `(rank, words)` weights of one operand's resident copies for
/// chain-step placement.
fn collect_weights(
    src: &ChainSrc,
    pl: &PlannedStep,
    res: &Residency,
    homes: &[usize],
    planned: &[PlannedStep],
    weighted: &mut Vec<(usize, u64)>,
) {
    match src {
        ChainSrc::Prev(j) => weighted.push((homes[*j], planned[*j].words_c as u64)),
        ChainSrc::Res(h) => {
            if let Some(info) = res.result(h.key) {
                weighted.push((info.home, info.words as u64));
            }
        }
        _ => {
            let Some(h) = src.handle() else { return };
            let wkey = match src {
                ChainSrc::Sparse(_) => pl.a_key(h).whole(),
                _ => keys::whole(h),
            };
            if let Some(ranks) = res.homes(wkey) {
                weighted.extend(ranks.iter().map(|&r| (r, h.words() as u64)));
            }
        }
    }
}

/// Resolve a dense chain-step operand to its local tensor (in-process
/// execution).
fn resolve_local<'x>(
    src: &'x ChainSrc<'x>,
    outs: &'x [Option<Local>],
) -> Result<&'x DenseTensor<f64>> {
    let resident = match src {
        ChainSrc::Dense(op) => return op.tensor(),
        ChainSrc::Sparse(_) => None,
        ChainSrc::Prev(j) => outs[*j].as_ref(),
        ChainSrc::Res(h) => h.local.as_ref(),
    };
    match resident {
        Some(Local::Dense(t)) => Ok(t),
        _ => Err(no_local_payload()),
    }
}

/// The home rank of a live result handle.
fn result_home(res: &Residency, h: &ResultHandle) -> Result<usize> {
    let info = res
        .result(h.key)
        .ok_or_else(|| Error::Runtime(format!("unknown or already-consumed result {h:?}")))?;
    Ok(info.home)
}

/// An in-process result without the payload its use needs.
fn no_local_payload() -> Error {
    Error::Runtime("chain result has no in-process payload of that kind".into())
}
