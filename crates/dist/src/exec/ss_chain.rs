//! The planned sparse-sparse chain: a run of masked sparse-sparse
//! contractions whose intermediates never leave the merge kernel's own
//! format. [`Executor::plan_ss_chain`] derives from structure alone what
//! every application needs — each `A`, resident or by value, fused and
//! key-sorted once, each step's output mask as a [`SlotMap`], and the
//! tables that send a step's fused `(row, col)` to the next step's
//! `(key, col)` or, on the last step, to an output offset.
//! [`Executor::apply_ss_chain`] converts `x` to the first [`SsBTable`]
//! once; each step merges into the slots of its mask, and its touched
//! slots go straight into the next table by a counting sort on the next
//! key. Only the last step's slots become a [`SparseTensor`].

use super::{Executor, SparseOp};
use crate::cluster::Cluster;
use crate::handle::OpHandle;
use crate::kernels::{self, Coord, SsPrep};
use crate::{Error, Result};
use std::borrow::Cow;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::{counting_sort_by, SlotChunk, SlotMap, SsBTable};
use tt_tensor::{Shape, SparseTensor};

/// One step of a planned sparse-sparse chain: a structural operand against
/// the previous step's output (the chain input `x` for the first step),
/// under an output mask given as classes.
pub struct SsChainStep<'a> {
    /// Einsum grammar of the step, structural operand first.
    pub spec: &'a str,
    /// The step's structural operand: by value, charged and shipped as
    /// [`Executor::contract_ss`] takes a value, or by handle from
    /// [`Executor::upload_sparse`].
    pub a: SparseOp<'a>,
    /// The class of every fused row — the free modes of `a`, row-major.
    pub row_class: Vec<u32>,
    /// The class of every fused column — the free modes of the moving
    /// operand, row-major. The mask allows output element `(row, col)`
    /// iff the two classes are equal: for a symmetric contraction, the
    /// class of `flux − q(row)` and the class of `q(col)`. Classes are
    /// small dense ids, shared by rows and columns.
    pub col_class: Vec<u32>,
}

/// What [`Executor::plan_ss_chain`] derives: everything an application
/// needs that does not depend on `x`'s values. It holds clones of the
/// steps' operand handles (no refcount of their own) and must not outlive
/// the uploads; of a by-value operand it keeps the fused entries alone.
pub struct SsChainPlan {
    x_dims: Vec<usize>,
    steps: Vec<SsStep>,
}

/// One planned step.
struct SsStep {
    plan: ContractPlan,
    /// The operand's handle, `None` for a value.
    a: Option<OpHandle>,
    /// `A`'s `(fused row, contracted key, value)`, stably key-sorted.
    coords: Vec<Coord>,
    /// Fused rows, contracted extent (the `B` table's key range) and
    /// fused columns.
    m: usize,
    k: usize,
    n: usize,
    out_shape: Shape,
    /// `(dimension, output stride)` of the fused row and column axes — what
    /// an `SsChunk` frame carries.
    row_axes: Vec<(u64, u64)>,
    col_axes: Vec<(u64, u64)>,
    slots: SlotMap,
    /// Fused row and fused column → their part of the output offset.
    row_off: Vec<u64>,
    col_off: Vec<u64>,
    /// Where the output goes next; `None` on the last step.
    next: Option<NextTables>,
}

/// Fused row and fused column of a step → their parts of the next step's
/// contracted key and free column: two table reads and an add each.
struct NextTables {
    row_key: Vec<u64>,
    row_col: Vec<u64>,
    col_key: Vec<u64>,
    col_col: Vec<u64>,
    /// The next step's key range and column count.
    keys: usize,
    cols: usize,
}

/// `t[f] = Σ digit_q(f) · weight_q` for every row-major fused index `f`
/// over `axes` (`(dimension, weight)`, most significant first): one fused
/// index's share of a linear map, tabulated by expansion.
fn fused_table(axes: impl IntoIterator<Item = (u64, u64)>) -> Vec<u64> {
    let mut t = vec![0u64];
    for (dim, w) in axes {
        t = t
            .iter()
            .flat_map(|&base| (0..dim).map(move |d| base + d * w))
            .collect();
    }
    t
}

/// The weight of each of `dims`' positions in the row-major fusion of
/// `positions` (zero elsewhere).
fn fusion_weights(positions: &[usize], dims: &[usize]) -> Vec<u64> {
    let mut w = vec![0u64; dims.len()];
    let mut acc = 1u64;
    for &p in positions.iter().rev() {
        w[p] = acc;
        acc *= dims[p] as u64;
    }
    w
}

impl SsStep {
    fn derive(
        st: SsChainStep,
        plan: ContractPlan,
        b_dims: &[usize],
        next: Option<&ContractPlan>,
    ) -> Result<Self> {
        let at = st.a.tensor()?;
        let out_dims = plan.output_dims(at.dims(), b_dims)?;
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), b_dims);
        if st.row_class.len() != m || st.col_class.len() != n {
            return Err(Error::Runtime(format!(
                "{}: mask classes for {} rows × {} columns, the step has {m} × {n}",
                st.spec,
                st.row_class.len(),
                st.col_class.len()
            )));
        }
        // a weight per output position, read per natural axis: the fused
        // row is natural axes 0..ra, the fused column the rest
        let nat_dims = kernels::natural_dims(&plan, at.dims(), b_dims);
        let by_nat = |per_out: Vec<u64>| {
            let mut w = vec![0u64; per_out.len()];
            for (j, &q) in plan.output_permutation().iter().enumerate() {
                w[q] = per_out[j];
            }
            w
        };
        let ra = plan.free_a_positions().len();
        let axes = |w: &[u64], nat: std::ops::Range<usize>| -> Vec<(u64, u64)> {
            nat.map(|q| (nat_dims[q] as u64, w[q])).collect()
        };
        let stride = by_nat(
            Shape::from(out_dims.clone())
                .strides()
                .into_iter()
                .map(|s| s as u64)
                .collect(),
        );
        let row_axes = axes(&stride, 0..ra);
        let col_axes = axes(&stride, ra..nat_dims.len());
        let next = match next {
            None => None,
            Some(next) if next.operand_orders().1 != out_dims.len() => {
                return Err(Error::Runtime(format!(
                    "{}: the next step takes an order-{} operand, this step makes order {}",
                    st.spec,
                    next.operand_orders().1,
                    out_dims.len()
                )))
            }
            Some(next) => {
                let fused = |positions: &[usize]| positions.iter().map(|&p| out_dims[p]).product();
                let wk = by_nat(fusion_weights(next.ctr_b_positions(), &out_dims));
                let wc = by_nat(fusion_weights(next.free_b_positions(), &out_dims));
                Some(NextTables {
                    row_key: fused_table(axes(&wk, 0..ra)),
                    row_col: fused_table(axes(&wc, 0..ra)),
                    col_key: fused_table(axes(&wk, ra..nat_dims.len())),
                    col_col: fused_table(axes(&wc, ra..nat_dims.len())),
                    keys: fused(next.ctr_b_positions()),
                    cols: fused(next.free_b_positions()),
                })
            }
        };
        let coords = kernels::sparse_coords(at, plan.free_a_positions(), plan.ctr_a_positions());
        Ok(Self {
            coords: counting_sort_by(&coords, k, |c| c.1 as usize),
            a: st.a.handle().cloned(),
            m,
            k,
            n,
            out_shape: Shape::from(out_dims),
            row_off: fused_table(row_axes.iter().copied()),
            col_off: fused_table(col_axes.iter().copied()),
            row_axes,
            col_axes,
            slots: SlotMap::new(st.row_class, &st.col_class),
            next,
            plan,
        })
    }

    /// Every touched slot, in slot order, as `emit(row, col, value)` —
    /// except the cancelled zeros, which are counted but not handed on
    /// (block form would not hand them on either). Returns the touched
    /// count, cancelled zeros included: what the step's result is charged
    /// by.
    fn touched(&self, slots: &SlotChunk<f64>, mut emit: impl FnMut(usize, usize, f64)) -> usize {
        let mut c_nnz = 0;
        for r in 0..self.m {
            let s0 = self.slots.row_slots(r, r + 1).start;
            for (i, &col) in self.slots.row_cols(r).iter().enumerate() {
                if slots.touched[s0 + i] {
                    c_nnz += 1;
                    let v = slots.vals[s0 + i];
                    // `!= 0.0` keeps NaN: a diverged matvec stays visible
                    if v != 0.0 {
                        emit(r, col as usize, v);
                    }
                }
            }
        }
        c_nnz
    }

    /// The touched slots as the next step's `B` table, and the touched
    /// count. Within a key run the entries keep slot order, which changes
    /// no bit: each `A` entry meets a run with one product per column.
    /// `canonical` orders them by column instead, as a table built from
    /// the step's result tensor would be — what a frame must carry to be
    /// byte-identical to a per-step contraction's.
    fn next_table(
        &self,
        next: &NextTables,
        slots: &SlotChunk<f64>,
        canonical: bool,
    ) -> (SsBTable<f64>, usize) {
        let mut entries = Vec::with_capacity(slots.vals.len());
        let c_nnz = self.touched(slots, |r, col, v| {
            let key = next.row_key[r] + next.col_key[col];
            entries.push((key, next.row_col[r] + next.col_col[col], v));
        });
        if canonical {
            entries = counting_sort_by(&entries, next.cols, |e| e.1 as usize);
        }
        (SsBTable::from_keyed(&entries, next.keys), c_nnz)
    }

    /// The touched slots as the chain's result, and the touched count.
    fn output(&self, slots: &SlotChunk<f64>) -> Result<(SparseTensor<f64>, usize)> {
        let mut entries = Vec::with_capacity(slots.vals.len());
        let c_nnz = self.touched(slots, |r, col, v| {
            entries.push((self.row_off[r] + self.col_off[col], v));
        });
        entries.sort_unstable_by_key(|e| e.0);
        let (offs, vals) = entries.into_iter().unzip();
        Ok((
            SparseTensor::from_sorted(self.out_shape.clone(), offs, vals)?,
            c_nnz,
        ))
    }

    /// Every output offset the mask allows, ascending — the mask an
    /// `SsChunk` frame carries.
    fn mask(&self) -> Vec<u64> {
        let mut mask = Vec::with_capacity(self.slots.n_slots());
        for r in 0..self.m {
            let row_off = self.row_off[r];
            mask.extend(
                self.slots
                    .row_cols(r)
                    .iter()
                    .map(|&c| row_off + self.col_off[c as usize]),
            );
        }
        mask.sort_unstable();
        mask
    }

    /// Worker reply entries back into slots. They arrive in slot order —
    /// row chunks in row order, each in fused `(row, col)` order — so one
    /// walk over the slots places them; an entry the walk cannot place is
    /// off the mask or out of order.
    fn slots_from_entries(&self, entries: Vec<(u64, f64)>, flops: u64) -> Result<SlotChunk<f64>> {
        let mut vals = vec![0.0; self.slots.n_slots()];
        let mut touched = vec![false; self.slots.n_slots()];
        let mut entries = entries.into_iter().peekable();
        'rows: for r in 0..self.m {
            let s0 = self.slots.row_slots(r, r + 1).start;
            for (i, &col) in self.slots.row_cols(r).iter().enumerate() {
                let Some(&(off, v)) = entries.peek() else {
                    break 'rows;
                };
                if off == self.row_off[r] + self.col_off[col as usize] {
                    vals[s0 + i] = v;
                    touched[s0 + i] = true;
                    entries.next();
                }
            }
        }
        if let Some((off, _)) = entries.next() {
            return Err(Error::transport(format!(
                "sparse-sparse reply entry at offset {off} is off the mask or out of order"
            )));
        }
        Ok(SlotChunk {
            vals,
            touched,
            flops,
        })
    }
}

impl Executor {
    /// Plan a chain of masked sparse-sparse contractions — step `s`
    /// contracts `steps[s].a` with step `s − 1`'s output, the first with an
    /// `x` of dims `x_dims` — from structure alone: the operands are fused
    /// and key-sorted once, the masks become slot maps, and the maps from
    /// one step's output to the next step's operand become tables. Charges
    /// nothing; [`Executor::apply_ss_chain`] runs the plan.
    pub fn plan_ss_chain(&self, x_dims: &[usize], steps: Vec<SsChainStep>) -> Result<SsChainPlan> {
        if steps.is_empty() {
            return Err(Error::Runtime("empty sparse-sparse chain".into()));
        }
        let plans = steps
            .iter()
            .map(|st| ContractPlan::parse(st.spec))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let mut plans = plans.into_iter().peekable();
        let mut b_dims = x_dims.to_vec();
        let mut planned = Vec::with_capacity(steps.len());
        for st in steps {
            let plan = plans.next().expect("one plan per step");
            let step = SsStep::derive(st, plan, &b_dims, plans.peek())?;
            b_dims = step.out_shape.dims().to_vec();
            planned.push(step);
        }
        Ok(SsChainPlan {
            x_dims: x_dims.to_vec(),
            steps: planned,
        })
    }

    /// Apply a planned chain to `x`: bitwise-identical to a fold of
    /// [`Executor::contract_ss`] over the same steps and masks, each
    /// result minus its stored zeros, and charged exactly as that fold is —
    /// step by step, flops counted before masking, every touched allowed
    /// element in the result's stored entries. No intermediate becomes a
    /// [`SparseTensor`] and no comparison sort runs between steps.
    ///
    /// In-process, each step's rows are cut by the sparse fan-out rule and
    /// every chunk accumulates into its own range of the mask's slots. On
    /// the multi-process backend each step is one `SsChunk` superstep with
    /// the frames the per-step contraction sends, byte for byte — a
    /// by-value `A` inline in every chunk, a handle's buckets resident; the
    /// replies go back into slots on the driver.
    pub fn apply_ss_chain(
        &self,
        plan: &SsChainPlan,
        x: &SparseTensor<f64>,
    ) -> Result<SparseTensor<f64>> {
        if x.dims() != plan.x_dims {
            return Err(Error::Runtime(format!(
                "chain input dims {:?}, planned for {:?}",
                x.dims(),
                plan.x_dims
            )));
        }
        let first = &plan.steps[0];
        let x_coords = kernels::sparse_coords(
            x,
            first.plan.ctr_b_positions(),
            first.plan.free_b_positions(),
        );
        let mut btab = SsBTable::from_keyed(&x_coords, first.k);
        drop(x_coords);
        let mut y = None;
        for step in &plan.steps {
            let b_nnz = btab.n_entries();
            let slots = match &self.cluster {
                Some(cl) => self.ss_step_over_cluster(&mut cl.lock(), step, &btab)?,
                None => kernels::ss_slots(&step.coords, &btab, &step.slots, self.pool()),
            };
            let c_nnz = match &step.next {
                Some(next) => {
                    let (table, c_nnz) = step.next_table(next, &slots, self.cluster.is_some());
                    btab = table;
                    c_nnz
                }
                None => {
                    let (out, c_nnz) = step.output(&slots)?;
                    y = Some(out);
                    c_nnz
                }
            };
            let sizes = (step.coords.len(), b_nnz, c_nnz);
            self.charge_ss(
                &step.plan,
                step.a.as_ref(),
                sizes,
                step.m,
                step.n,
                slots.flops,
            );
        }
        Ok(y.expect("the last step has no next"))
    }

    /// One planned step as the per-step contraction's superstep.
    fn ss_step_over_cluster(
        &self,
        cl: &mut Cluster,
        step: &SsStep,
        btab: &SsBTable<f64>,
    ) -> Result<SlotChunk<f64>> {
        let prep = SsPrep {
            out_shape: step.out_shape.clone(),
            m: step.m,
            n: step.n as u64,
            row_axes: step.row_axes.clone(),
            col_axes: step.col_axes.clone(),
            btab: Cow::Borrowed(btab),
            mask_sorted: Some(Cow::Owned(step.mask())),
            coords: step.coords.clone(),
        };
        let (entries, flops) = self.ss_over_cluster(cl, &step.plan, step.a.as_ref(), prep)?;
        step.slots_from_entries(entries, flops)
    }
}
