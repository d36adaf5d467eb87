//! Worker-side chains: the planner that turns [`ChainStep`]s into fused
//! supersteps (placement, redistribution, charging), its in-process leg,
//! and the exits of a resident result (`download*`, `free_results`).

use super::keys;
use super::residency::{op_state, Charge, OpCharge, Superstep};
use super::sparse::{inline_coords, sd_request, upload_coords};
use super::{expect_buf, DenseOp, Executor, SparseOp};
use crate::cluster::{Cluster, Placement};
use crate::handle::{OpHandle, Residency, ResultHandle, ResultInfo};
use crate::kernels;
use crate::transport::worker::{Op, OpCoords, Out, Request};
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::view::{Epilogue, RunView};
use tt_tensor::DenseTensor;

/// The output views of a chain's in-process dense steps, by spec and
/// natural-order dims.
pub(super) type ViewMemo = HashMap<String, HashMap<Vec<usize>, Arc<RunView>>>;

/// One operand of a [`Executor::chain`] step.
#[derive(Clone, Copy)]
pub enum ChainSrc<'a> {
    /// A dense operand, by value or by resident operand handle:
    /// `ChainSrc::Dense(x.into())` from a `&DenseTensor<f64>` or an
    /// `&OpHandle`.
    Dense(DenseOp<'a>),
    /// A sparse `f64` operand — only valid as the first (`a`) side of a
    /// step, selecting the sparse-dense kernel.
    Sparse(SparseOp<'a>),
    /// The resident output of step `i` of this chain (must be a
    /// non-accumulate step).
    Prev(usize),
    /// The resident output of an earlier chain on the same executor.
    Res(&'a ResultHandle),
}

/// One contraction of a worker-side chain superstep.
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
}

/// The kernel family of a planned chain step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Dense,
    Sd,
}

/// Static per-step plan of a chain: everything derivable driver-side from
/// dims alone.
struct PlannedStep {
    kind: StepKind,
    /// The parsed spec, shared by every step of the chain that spells the
    /// same spec.
    plan: Arc<ContractPlan>,
    /// In-process dense steps: the view the product is written through
    /// ([`kernels::output_view`]), shared by every step of the chain — and
    /// of the next chain — with the same spec and natural-order dims.
    view: Option<Arc<RunView>>,
    a_dims: Vec<usize>,
    b_dims: Vec<usize>,
    out_dims: Vec<usize>,
    m: usize,
    k: usize,
    n: usize,
    flops: u64,
    words_c: usize,
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
}

/// A resolved wire operand of a chain step.
enum WireIn {
    Dense(Op),
    Coords(OpCoords),
}

impl WireIn {
    fn dense(self) -> Result<Op> {
        match self {
            WireIn::Dense(op) => Ok(op),
            WireIn::Coords(_) => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }

    fn coords(self) -> Result<OpCoords> {
        match self {
            WireIn::Coords(op) => Ok(op),
            WireIn::Dense(_) => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }
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
    /// `Free`s. [`Executor::download`] / [`Executor::download_many`] are the
    /// only value-returning exits; [`Executor::free_results`] discards. A
    /// contraction that should just *produce a handle* is a one-step chain.
    ///
    /// Placement: a step runs on the rank holding its largest resident
    /// input; when inputs live on different ranks the smaller ones move
    /// in an explicit redistribute superstep (`Download` + re-`Upload`,
    /// metered in the byte counters but — like every p-dependent physical
    /// re-ship — not α–β-charged, so the cost counters stay bitwise-equal
    /// across backends). Steps with no resident input anchor to one
    /// round-robin rank per chain call.
    ///
    /// A by-value operand ([`ChainSrc::Dense`] or [`ChainSrc::Sparse`] of
    /// a tensor) goes as the matching value entry point takes it. On a
    /// dense × dense step it is content-keyed through the retention cache
    /// when that is on ([`Executor::set_retention_cap`]), as in
    /// [`Executor::contract`]: it ships once fleet-wide, and a later chain
    /// or job that passes the same content ships nothing for it. On a
    /// sparse-dense step both operands ship inline, as in
    /// [`Executor::contract_sd`], and nothing is retained — a Davidson
    /// vector is used once. Either way it is charged as a value.
    ///
    /// Numerics are bitwise-identical to running the equivalent
    /// value-returning contractions on any backend: every kernel is the
    /// same row-disjoint code, and accumulate steps add partials in
    /// submission order exactly like the driver-side value path.
    pub fn chain(&self, steps: &[ChainStep]) -> Result<Vec<Option<ResultHandle>>> {
        let planned = self.plan_chain(steps)?;
        let mut locals: Vec<Option<Arc<DenseTensor<f64>>>> = vec![None; steps.len()];
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
                })
                .collect();
            // its own statement: a guard in the `match` scrutinee would live
            // through the arms, and the error arm locks the cluster again
            let run = self.chain_over_cluster(&mut cl.lock(), &keyed, &planned);
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
                .call(|| self.chain_local(steps, &planned, &mut locals))?;
            vec![0; steps.len()]
        };
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
            m: pl.m,
            n: pl.n,
            flops: pl.flops,
            sparse: pl.kind == StepKind::Sd,
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
                dims: pl.out_dims.clone(),
                local: locals[i].take(),
            }));
        }
        Ok(out)
    }

    /// Validate a chain and compute every step's static plan (kind, dims,
    /// fused sizes, flops, output slot and store key).
    fn plan_chain(&self, steps: &[ChainStep]) -> Result<Vec<PlannedStep>> {
        let mut planned: Vec<PlannedStep> = Vec::with_capacity(steps.len());
        // a list matvec is hundreds of steps over a handful of specs:
        // parse each distinct one once
        let mut specs: Vec<(&str, Arc<ContractPlan>)> = Vec::new();
        // and derive each distinct output view once — a view is the plan's
        // output permutation of the natural-order dims — unless the last
        // chain had it: an eigensolve's matvecs repeat one chain
        let local = self.cluster.is_none();
        let mut last = match local {
            true => std::mem::take(&mut *self.chain_views.lock()),
            false => ViewMemo::new(),
        };
        let mut views = ViewMemo::new();
        for (i, st) in steps.iter().enumerate() {
            let (a_dims, a_sparse) = src_info(&st.a, &planned)?;
            let (b_dims, b_sparse) = src_info(&st.b, &planned)?;
            for j in [st.a.prev(), st.b.prev()].into_iter().flatten() {
                planned[j].dies_after = Some(i);
            }
            let kind = match (a_sparse, b_sparse) {
                (false, false) => StepKind::Dense,
                (true, false) => StepKind::Sd,
                _ => {
                    return Err(Error::Runtime(
                        "only sparse × dense chain steps are supported (sparse operand first)"
                            .into(),
                    ))
                }
            };
            let plan = match specs.iter().find(|(spec, _)| *spec == st.spec) {
                Some((_, plan)) => Arc::clone(plan),
                None => {
                    let plan = Arc::new(ContractPlan::parse(st.spec)?);
                    specs.push((st.spec, Arc::clone(&plan)));
                    plan
                }
            };
            let out_dims = plan.output_dims(&a_dims, &b_dims)?;
            let (m, k, n) = kernels::fused_dims(&plan, &a_dims, &b_dims);
            let view = match kind {
                StepKind::Dense if local => {
                    let nat_dims = kernels::natural_dims(&plan, &a_dims, &b_dims);
                    if !views.contains_key(st.spec) {
                        views.insert(st.spec.to_string(), HashMap::new());
                    }
                    let known = views.get_mut(st.spec).expect("inserted above");
                    Some(match known.get(&nat_dims) {
                        Some(view) => Arc::clone(view),
                        None => {
                            let kept = last.get_mut(st.spec).and_then(|v| v.remove(&nat_dims));
                            let view = match kept {
                                Some(view) => view,
                                None => Arc::new(kernels::output_view(&plan, &a_dims, &b_dims)?),
                            };
                            known.insert(nat_dims, Arc::clone(&view));
                            view
                        }
                    })
                }
                _ => None,
            };
            let flops = match (kind, &st.a) {
                (StepKind::Sd, ChainSrc::Sparse(op)) => 2 * op.tensor()?.nnz() as u64 * n as u64,
                _ => plan.flop_count(&a_dims, &b_dims),
            };
            let words_c = out_dims.iter().product();
            let (base, key) = match st.acc {
                None => (i, self.fresh_result_key()),
                Some(t) => {
                    let tgt = planned.get(t).ok_or_else(|| {
                        Error::Runtime(format!("step {i} accumulates into future step {t}"))
                    })?;
                    if tgt.base != t {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulates into step {t}, itself an accumulate step"
                        )));
                    }
                    if kind != StepKind::Dense {
                        return Err(Error::Runtime(
                            "accumulate is only supported for dense chain steps".into(),
                        ));
                    }
                    if tgt.out_dims != out_dims {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulate target has a mismatched shape"
                        )));
                    }
                    // an accumulate keeps an internal output alive
                    let key = tgt.key;
                    if let Some(last) = &mut planned[t].dies_after {
                        *last = i;
                    }
                    (t, key)
                }
            };
            planned.push(PlannedStep {
                kind,
                plan,
                view,
                a_dims,
                b_dims,
                out_dims,
                m,
                k,
                n,
                flops,
                words_c,
                base,
                key,
                dies_after: None,
            });
        }
        if local {
            *self.chain_views.lock() = views;
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
    ) -> Result<Vec<usize>> {
        let p = cl.ranks();
        let mut placement = Placement::new(p);
        let anchor = {
            let mut cur = self.chain_cursor.lock();
            let a = *cur % p.max(1);
            *cur = cur.wrapping_add(1);
            a
        };
        let mut homes: Vec<usize> = vec![0; steps.len()];
        let mut pending = Superstep::default();
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            let rank = if pl.base != i {
                homes[pl.base]
            } else {
                let mut weighted: Vec<(usize, u64)> = Vec::new();
                {
                    let res = self.residency.lock();
                    for src in [&st.a, &st.b] {
                        collect_weights(src, pl, &res, &homes, planned, &mut weighted);
                    }
                }
                placement.place_weighted(weighted, Some(anchor))
            };
            homes[i] = rank;
            let a_field =
                self.wire_input(cl, rank, &st.a, pl, &mut homes, planned, &mut pending)?;
            let b_field =
                self.wire_input(cl, rank, &st.b, pl, &mut homes, planned, &mut pending)?;
            let req = match pl.kind {
                StepKind::Dense => Request::Contract {
                    spec: st.spec.to_string(),
                    a_dims: pl.a_dims.clone(),
                    a: a_field.dense()?,
                    b_dims: pl.b_dims.clone(),
                    b: b_field.dense()?,
                    out: Out::Store {
                        key: pl.key,
                        acc: pl.base != i,
                    },
                },
                // plan_chain refused `acc` on sd steps: a fresh whole result
                StepKind::Sd => sd_request(
                    &pl.plan,
                    (&pl.a_dims, &pl.b_dims),
                    a_field.coords()?,
                    (0, pl.m),
                    b_field.dense()?,
                    Out::Store {
                        key: pl.key,
                        acc: false,
                    },
                ),
            };
            pending.task(rank, req);
        }
        pending.run(cl)?;
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

    /// Resolve one chain-step operand to its wire form on `rank`,
    /// uploading missing resident operands and moving misplaced resident
    /// results (the explicit redistribute superstep).
    #[allow(clippy::too_many_arguments)]
    fn wire_input(
        &self,
        cl: &mut Cluster,
        rank: usize,
        src: &ChainSrc,
        pl: &PlannedStep,
        homes: &mut [usize],
        planned: &[PlannedStep],
        pending: &mut Superstep,
    ) -> Result<WireIn> {
        Ok(match src {
            ChainSrc::Dense(op) => {
                WireIn::Dense(pending.whole(&mut self.residency.lock(), *op, rank)?)
            }
            ChainSrc::Sparse(op) => {
                let at = op.tensor()?;
                let (rows, cols) = (pl.plan.free_a_positions(), pl.plan.ctr_a_positions());
                let coords = || kernels::sparse_coords(at, rows, cols);
                WireIn::Coords(match op.handle() {
                    None => inline_coords(coords()),
                    Some(h) => {
                        let key = keys::sd_a(h, &pl.plan, pl.n).whole();
                        let res = &mut self.residency.lock();
                        pending
                            .ensure(res, h.key(), key, rank, || Ok(upload_coords(key, coords())))?;
                        OpCoords::Key(key)
                    }
                })
            }
            ChainSrc::Prev(j) => {
                let key = planned[*j].key;
                if homes[*j] != rank {
                    self.chain_move(cl, key, homes[*j], rank, pending)?;
                    homes[*j] = rank;
                }
                WireIn::Dense(Op::Key(key))
            }
            ChainSrc::Res(h) => {
                let info = self.residency.lock().result(h.key).ok_or_else(|| {
                    Error::Runtime(format!("unknown or already-consumed result {h:?}"))
                })?;
                if info.home != rank {
                    self.chain_move(cl, h.key, info.home, rank, pending)?;
                    self.residency.lock().move_result(h.key, rank);
                }
                WireIn::Dense(Op::Key(h.key))
            }
        })
    }

    /// Move a resident result from `from` to `to`: flush any pending
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
        std::mem::take(pending).run(cl)?;
        let data = expect_buf(cl.call(from, &Request::Download { key })?)?;
        pending.upload(to, Request::Upload { key, data });
        Ok(())
    }

    /// The in-process leg of [`Executor::chain`]: run every step locally
    /// with the exact same kernels as the value paths, accumulating
    /// products in submission order: a dense step's kernel stores its
    /// tiles into a fresh output, or adds them into its target, through
    /// the step's output view. An internal output leaves `outs` as
    /// soon as its last consumer has run; a sparse-dense one's buffer goes
    /// back to the workspace it came from, for the next step to take.
    fn chain_local(
        &self,
        steps: &[ChainStep],
        planned: &[PlannedStep],
        outs: &mut [Option<Arc<DenseTensor<f64>>>],
    ) -> Result<()> {
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            // plan_chain made a sparse `a` an sd step, and refused `acc` on
            // one; it gave every dense step its view
            let dense = |outs: &[Option<Arc<DenseTensor<f64>>>], out: &mut [f64], how| {
                let view = pl.view.as_deref().expect("a planned in-process view");
                let (a, b) = (resolve_local(&st.a, outs)?, resolve_local(&st.b, outs)?);
                kernels::dense_into(&pl.plan, view, a, b, self.pool(), out, how)
            };
            if pl.base == i {
                let c = match &st.a {
                    ChainSrc::Sparse(op) => {
                        self.sd_local(&pl.plan, op, resolve_local(&st.b, outs)?)?.0
                    }
                    _ => {
                        let mut c = vec![0.0; pl.words_c];
                        dense(outs, &mut c, Epilogue::Store)?;
                        DenseTensor::from_vec(pl.out_dims.clone(), c)?
                    }
                };
                outs[i] = Some(Arc::new(c));
            } else {
                // the target leaves `outs` while the kernel adds into it; an
                // operand that reads it keeps the value it had
                let mut target = outs[pl.base]
                    .take()
                    .ok_or_else(|| Error::Runtime("accumulate target missing".into()))?;
                if [st.a.prev(), st.b.prev()].contains(&Some(pl.base)) {
                    outs[pl.base] = Some(Arc::clone(&target));
                }
                dense(outs, Arc::make_mut(&mut target).data_mut(), Epilogue::Add)?;
                outs[pl.base] = Some(target);
            }
            for j in [st.a.prev(), st.b.prev(), st.acc].into_iter().flatten() {
                if planned[j].dies_after != Some(i) {
                    continue;
                }
                if let (StepKind::Sd, Some(dead)) = (planned[j].kind, outs[j].take()) {
                    if let Ok(dead) = Arc::try_unwrap(dead) {
                        self.workspace.give(dead.into_data());
                    }
                }
            }
        }
        Ok(())
    }

    /// For every step, the content-keyed stand-ins of its `a` and `b`: a
    /// by-value operand of a dense × dense step goes through the retention
    /// cache ([`Executor::auto_handle`]) as [`Executor::contract`] sends
    /// it; nothing else does, and nothing at all while retention is off.
    fn auto_key_chain(
        &self,
        steps: &[ChainStep],
        planned: &[PlannedStep],
    ) -> Vec<[Option<OpHandle>; 2]> {
        steps
            .iter()
            .zip(planned)
            .map(|(st, pl)| {
                let auto = |src: &ChainSrc| match (pl.kind, src) {
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
    /// chain. Consumes the handle: the buffer leaves its home rank's store
    /// and the driver forgets it.
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
                    .map(|h| {
                        let info = res.result(h.key).ok_or_else(|| {
                            Error::Runtime(format!("unknown or already-consumed result {h:?}"))
                        })?;
                        Ok((info.home, Request::Download { key: h.key }))
                    })
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
                    let t = h.local.take().ok_or_else(|| {
                        Error::Runtime("result handle has no in-process payload".into())
                    })?;
                    // a result nobody else holds moves out without a copy
                    Ok(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
                })
                .collect()
        }
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

    /// A fresh driver-issued key for a resident contraction result.
    fn fresh_result_key(&self) -> u64 {
        let mut k = self.next_result.lock();
        let key = *k;
        *k += 1;
        key
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
/// run whole contractions), and resident results are always hits (they
/// were produced in place and never move on the charged path).
fn chain_charge(
    res: &mut Residency,
    src: &ChainSrc,
    pl: &PlannedStep,
    is_a: bool,
) -> Result<OpCharge> {
    let elems = if is_a { pl.m * pl.k } else { pl.k * pl.n };
    Ok(match src {
        ChainSrc::Dense(_) => op_state(res, src.handle(), keys::whole, elems),
        ChainSrc::Sparse(op) => op_state(
            res,
            src.handle(),
            |h| keys::sd_a(h, &pl.plan, pl.n).logical(),
            2 * op.tensor()?.nnz(),
        ),
        ChainSrc::Prev(_) | ChainSrc::Res(_) => OpCharge::Hit,
    })
}

/// `src`, or the content-keyed handle that stands in for it.
fn keyed<'a>(auto: &'a Option<OpHandle>, src: ChainSrc<'a>) -> ChainSrc<'a> {
    auto.as_ref().map_or(src, |h| ChainSrc::Dense(h.into()))
}

/// Dims of a chain-step operand at planning time, and whether it is
/// sparse.
fn src_info(src: &ChainSrc, planned: &[PlannedStep]) -> Result<(Vec<usize>, bool)> {
    Ok(match src {
        ChainSrc::Dense(op) => (op.tensor()?.dims().to_vec(), false),
        ChainSrc::Sparse(op) => (op.tensor()?.dims().to_vec(), true),
        ChainSrc::Prev(j) => {
            let pl = planned
                .get(*j)
                .ok_or_else(|| Error::Runtime(format!("chain step references future step {j}")))?;
            if pl.base != *j {
                return Err(Error::Runtime(format!(
                    "chain step references accumulate step {j}; reference its base instead"
                )));
            }
            (pl.out_dims.clone(), false)
        }
        ChainSrc::Res(h) => (h.dims.clone(), false),
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
                ChainSrc::Sparse(_) => keys::sd_a(h, &pl.plan, pl.n).whole(),
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
    outs: &'x [Option<Arc<DenseTensor<f64>>>],
) -> Result<&'x DenseTensor<f64>> {
    let resident = match src {
        ChainSrc::Dense(op) => return op.tensor(),
        ChainSrc::Sparse(_) => None,
        ChainSrc::Prev(j) => outs[*j].as_deref(),
        ChainSrc::Res(h) => h.local.as_deref(),
    };
    resident
        .ok_or_else(|| Error::Runtime("chain step operand has no in-process dense payload".into()))
}
