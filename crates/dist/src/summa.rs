//! Block-cyclically distributed dense matrices and the SUMMA product.
//!
//! The simulated [`DistMatrix`] keeps the global matrix resident (one
//! address space) but carries a cyclic distribution over the communicator's
//! process grid, and its [`DistMatrix::summa`] charges exactly the
//! panel-broadcast communication the real algorithm performs: one superstep
//! per `k`-panel, each moving an `m/pr × b` A-panel and a `b × n/pc`
//! B-panel per rank.

use crate::cluster::Cluster;
use crate::comm::Comm;
use crate::transport::worker::{Buf, Reply, Request};
use crate::{process_grid, Error, Result};
use tt_tensor::gemm::gemm_acc_slices;
use tt_tensor::DenseTensor;

/// A dense matrix with a block-cyclic distribution over a process grid.
#[derive(Clone, Debug)]
pub struct DistMatrix {
    global: DenseTensor<f64>,
    ranks: usize,
    grid: (usize, usize),
    block: usize,
}

impl DistMatrix {
    /// Distribute `a` over `comm`'s ranks with cyclic blocks of `block`
    /// rows/columns. Charges the initial scatter.
    pub fn from_global(a: &DenseTensor<f64>, comm: &Comm, block: usize) -> Result<Self> {
        if a.order() != 2 {
            return Err(Error::Runtime(format!(
                "DistMatrix wants a matrix, got order {}",
                a.order()
            )));
        }
        if block == 0 {
            return Err(Error::Runtime("block size must be positive".into()));
        }
        comm.scatter(a.len() as u64);
        Ok(Self {
            global: a.clone(),
            ranks: comm.ranks(),
            grid: process_grid(comm.ranks()),
            block,
        })
    }

    /// Global row/column dimensions.
    pub fn dims(&self) -> (usize, usize) {
        (self.global.dims()[0], self.global.dims()[1])
    }

    /// The cyclic block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The process grid `(rows, cols)`.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Owning rank of global element `(i, j)` under the block-cyclic map.
    pub fn owner(&self, i: usize, j: usize) -> usize {
        let (pr, pc) = self.grid;
        let gr = (i / self.block) % pr;
        let gc = (j / self.block) % pc;
        gr * pc + gc
    }

    /// Number of elements stored on `rank`.
    pub fn local_elements(&self, rank: usize) -> usize {
        let (m, n) = self.dims();
        let (pr, pc) = self.grid;
        let (gr, gc) = (rank / pc, rank % pc);
        let rows = cyclic_count(m, self.block, pr, gr);
        let cols = cyclic_count(n, self.block, pc, gc);
        rows * cols
    }

    /// Gather the matrix to every rank (charges an allgather) and return it.
    pub fn to_global(&self, comm: &Comm) -> DenseTensor<f64> {
        comm.allgather((self.global.len() / self.ranks.max(1)) as u64);
        self.global.clone()
    }

    /// Borrow the resident global values without communication charges.
    pub fn as_dense(&self) -> &DenseTensor<f64> {
        &self.global
    }

    /// SUMMA matrix product `self · other`: panel-by-panel broadcasts with
    /// one superstep per `k`-panel of width `block`.
    pub fn summa(&self, other: &DistMatrix, comm: &Comm) -> Result<DistMatrix> {
        let (m, ka) = self.dims();
        let (kb, n) = other.dims();
        if ka != kb {
            return Err(Error::Runtime(format!("summa inner dims {ka} != {kb}")));
        }
        let (pr, pc) = self.grid;
        let b = self.block.min(ka.max(1));
        let a_data = self.global.data();
        let b_data = other.global.data();
        let mut c = vec![0.0f64; m * n];
        let mut kb0 = 0usize;
        while kb0 < ka {
            let w = b.min(ka - kb0);
            // Pack the A column-panel (m × w) and B row-panel (w × n).
            let mut a_panel = vec![0.0f64; m * w];
            for i in 0..m {
                a_panel[i * w..(i + 1) * w]
                    .copy_from_slice(&a_data[i * ka + kb0..i * ka + kb0 + w]);
            }
            let b_panel = &b_data[kb0 * n..(kb0 + w) * n];
            gemm_acc_slices(m, w, n, &a_panel, b_panel, &mut c);
            // Each rank receives its A-panel tile along the row and its
            // B-panel tile along the column of the grid.
            let words = (m.div_ceil(pr) * w + w * n.div_ceil(pc)) as u64;
            comm.charge_p2p(8 * words);
            kb0 += w;
        }
        Ok(DistMatrix {
            global: DenseTensor::from_vec([m, n], c)?,
            ranks: self.ranks,
            grid: self.grid,
            block: self.block,
        })
    }

    /// SUMMA over a [`Cluster`]: every rank holds a resident MC-aligned
    /// row slab of `C` in its own address space; per `k`-panel the driver
    /// broadcasts the `B` panel and scatters each rank's `A` slab panel,
    /// and ranks accumulate locally. The slabs only travel back at the
    /// end — per-superstep traffic is panels, exactly like the real
    /// algorithm. Charges the same communication as [`DistMatrix::summa`]
    /// and produces bitwise-identical values (row-disjoint slabs with
    /// MC-aligned boundaries preserve every accumulation order).
    pub fn summa_on(
        &self,
        other: &DistMatrix,
        comm: &Comm,
        cluster: &mut Cluster,
    ) -> Result<DistMatrix> {
        let (m, ka) = self.dims();
        let (kb, n) = other.dims();
        if ka != kb {
            return Err(Error::Runtime(format!("summa inner dims {ka} != {kb}")));
        }
        let (pr, pc) = self.grid;
        let b = self.block.min(ka.max(1));
        let a_data = self.global.data();
        let b_data = other.global.data();

        let p = cluster.ranks();
        let slabs = crate::kernels::mc_aligned_ranges(m, p);
        // slab keys come from the cluster's allocator and live as *pinned*
        // store entries (same lifecycle as uploaded operand handles:
        // pinned while in use, removed by the final download)
        let keys: Vec<u64> = slabs.iter().map(|_| cluster.fresh_key()).collect();
        let init: Vec<(usize, Request)> = slabs
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(i, (&(r0, r1), &key))| {
                (
                    i % p,
                    Request::SummaInit {
                        key,
                        rows: r1 - r0,
                        n,
                    },
                )
            })
            .collect();
        cluster.call_all(init)?;

        let mut kb0 = 0usize;
        while kb0 < ka {
            let w = b.min(ka - kb0);
            let b_panel = b_data[kb0 * n..(kb0 + w) * n].to_vec();
            let panel: Vec<(usize, Request)> = slabs
                .iter()
                .zip(&keys)
                .enumerate()
                .map(|(i, (&(r0, r1), &key))| {
                    // pack this slab's rows of the A column-panel (rows × w)
                    let mut a_panel = vec![0.0f64; (r1 - r0) * w];
                    for (local, i_glob) in (r0..r1).enumerate() {
                        a_panel[local * w..(local + 1) * w]
                            .copy_from_slice(&a_data[i_glob * ka + kb0..i_glob * ka + kb0 + w]);
                    }
                    (
                        i % p,
                        Request::SummaPanel {
                            key,
                            rows: r1 - r0,
                            w,
                            n,
                            a: a_panel,
                            b: b_panel.clone(),
                        },
                    )
                })
                .collect();
            cluster.call_all(panel)?;
            // same per-panel charge as the in-process loop
            let words = (m.div_ceil(pr) * w + w * n.div_ceil(pc)) as u64;
            comm.charge_p2p(8 * words);
            kb0 += w;
        }

        // take the resident slabs out of the stores, in row order
        let gets: Vec<(usize, Request)> = keys
            .iter()
            .enumerate()
            .map(|(i, &key)| (i % p, Request::Download { key }))
            .collect();
        let mut c = Vec::with_capacity(m * n);
        for reply in cluster.call_all(gets)? {
            match reply {
                Reply::Buf(Buf::F64(v)) => c.extend_from_slice(&v),
                other => {
                    return Err(Error::transport(format!(
                        "expected summa slab, got {other:?}"
                    )))
                }
            }
        }

        Ok(DistMatrix {
            global: DenseTensor::from_vec([m, n], c)?,
            ranks: self.ranks,
            grid: self.grid,
            block: self.block,
        })
    }
}

/// Elements of a length-`n` axis owned by grid coordinate `g` of `p`
/// processes under cyclic blocks of `b`.
fn cyclic_count(n: usize, b: usize, p: usize, g: usize) -> usize {
    let full_rounds = n / (b * p);
    let rem = n - full_rounds * b * p;
    let mine = rem.saturating_sub(g * b).min(b);
    full_rounds * b + mine
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTracker;
    use crate::exec::ExecMode;
    use crate::machine::Machine;
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn comm(p: usize) -> Comm {
        let tracker = Arc::new(Mutex::new(CostTracker::new(Machine::blue_waters(16), p)));
        Comm::new(p, ExecMode::Sequential, tracker)
    }

    #[test]
    fn summa_matches_gemm() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = DenseTensor::<f64>::random([33, 29], &mut rng);
        let b = DenseTensor::<f64>::random([29, 21], &mut rng);
        let c = comm(4);
        let da = DistMatrix::from_global(&a, &c, 8).unwrap();
        let db = DistMatrix::from_global(&b, &c, 8).unwrap();
        let dc = da.summa(&db, &c).unwrap();
        let reference = tt_tensor::gemm_f64(&a, &b).unwrap();
        assert!(dc.as_dense().allclose(&reference, 1e-11));
    }

    #[test]
    fn panel_width_trades_supersteps_for_volume() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = DenseTensor::<f64>::random([32, 32], &mut rng);
        let b = DenseTensor::<f64>::random([32, 32], &mut rng);
        let mut steps = Vec::new();
        for block in [4usize, 16] {
            let c = comm(4);
            let da = DistMatrix::from_global(&a, &c, block).unwrap();
            let db = DistMatrix::from_global(&b, &c, block).unwrap();
            let _ = da.summa(&db, &c).unwrap();
            steps.push(c.tracker().lock().supersteps);
        }
        assert!(steps[0] > steps[1], "narrow panels need more supersteps");
    }

    #[test]
    fn cyclic_ownership_partitions_the_matrix() {
        let a = DenseTensor::<f64>::zeros([13, 9]);
        let c = comm(6);
        let d = DistMatrix::from_global(&a, &c, 2).unwrap();
        let total: usize = (0..6).map(|r| d.local_elements(r)).sum();
        assert_eq!(total, 13 * 9);
        for i in 0..13 {
            for j in 0..9 {
                assert!(d.owner(i, j) < 6);
            }
        }
    }

    #[test]
    fn summa_on_cluster_is_bitwise_and_charges_identically() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = DenseTensor::<f64>::random([70, 41], &mut rng);
        let b = DenseTensor::<f64>::random([41, 23], &mut rng);
        let reference = {
            let c = comm(4);
            let da = DistMatrix::from_global(&a, &c, 8).unwrap();
            let db = DistMatrix::from_global(&b, &c, 8).unwrap();
            let dc = da.summa(&db, &c).unwrap();
            let tracker = c.tracker().lock().clone();
            (dc, tracker)
        };
        let mut cl = Cluster::in_process(3);
        let c = comm(4);
        let da = DistMatrix::from_global(&a, &c, 8).unwrap();
        let db = DistMatrix::from_global(&b, &c, 8).unwrap();
        let dc = da.summa_on(&db, &c, &mut cl).unwrap();
        assert_eq!(
            dc.as_dense().data(),
            reference.0.as_dense().data(),
            "summa over the cluster must be bitwise-identical"
        );
        let t = c.tracker().lock();
        assert_eq!(t.supersteps, reference.1.supersteps);
        assert_eq!(t.bytes_critical, reference.1.bytes_critical);
        assert_eq!(t.sim.comm.to_bits(), reference.1.sim.comm.to_bits());
    }

    #[cfg(unix)]
    #[test]
    fn summa_on_real_processes_is_bitwise() {
        let mut rng = StdRng::seed_from_u64(34);
        let a = DenseTensor::<f64>::random([47, 29], &mut rng);
        let b = DenseTensor::<f64>::random([29, 31], &mut rng);
        let c = comm(4);
        let da = DistMatrix::from_global(&a, &c, 8).unwrap();
        let db = DistMatrix::from_global(&b, &c, 8).unwrap();
        let reference = da.summa(&db, &c).unwrap();
        let spawn = crate::transport::SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mut cl = Cluster::multi_process(2, &spawn).unwrap();
        let dc = da.summa_on(&db, &c, &mut cl).unwrap();
        assert_eq!(dc.as_dense().data(), reference.as_dense().data());
    }

    #[test]
    fn shape_errors() {
        let c = comm(2);
        let v = DenseTensor::<f64>::zeros([4]);
        assert!(DistMatrix::from_global(&v, &c, 2).is_err());
        let a = DenseTensor::<f64>::zeros([4, 4]);
        assert!(DistMatrix::from_global(&a, &c, 0).is_err());
        let da = DistMatrix::from_global(&a, &c, 2).unwrap();
        let b = DenseTensor::<f64>::zeros([5, 4]);
        let db = DistMatrix::from_global(&b, &c, 2).unwrap();
        assert!(da.summa(&db, &c).is_err());
    }
}
