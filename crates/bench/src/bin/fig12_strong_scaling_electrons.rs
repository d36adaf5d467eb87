//! Figure 12: electrons strong scaling of the sparse-sparse algorithm at
//! m = 8192 on Blue Waters and Stampede2. The paper sees nearly ideal (or
//! better) speedup at this size, with the sparse format requiring ≥4 nodes
//! on Stampede2 (vs 2 on Blue Waters) for memory.

use tt_bench::{model_step, System, Table};
use tt_blocks::{Algorithm, BondVector};
use tt_dist::Machine;

fn main() {
    // when re-executed as a transport worker for the live section below,
    // serve tasks and exit instead of printing the tables
    tt_dist::maybe_serve();
    let m = 8192;
    println!("=== Fig. 12: electrons strong scaling, sparse-sparse, m={m} ===\n");
    let mut t = Table::new(&[
        "machine",
        "nodes",
        "time (s)",
        "speedup",
        "efficiency",
        "mem/node GB",
    ]);
    for (machine, nodes0, node_list) in [
        (Machine::blue_waters(16), 2usize, vec![2usize, 4, 8]),
        (Machine::stampede2(64), 4usize, vec![4usize, 8, 16]),
    ] {
        let t0 = model_step(
            System::Electrons,
            Algorithm::SparseSparse,
            &machine,
            nodes0,
            m,
        )
        .total();
        for nodes in node_list {
            let p = model_step(
                System::Electrons,
                Algorithm::SparseSparse,
                &machine,
                nodes,
                m,
            );
            let speedup = t0 / p.total();
            let eff = speedup / (nodes as f64 / nodes0 as f64);
            t.row(vec![
                machine.name.clone(),
                nodes.to_string(),
                format!("{:.4}", p.total()),
                format!("{speedup:.2}"),
                format!("{eff:.3}"),
                format!("{:.1}", p.mem_per_node / 1e9),
            ]);
        }
    }
    t.print();
    let _ = t.write_csv("fig12");
    println!(
        "\npaper shape checks: near-ideal strong-scaling speedup at m = 8192\n\
         for the sparse-sparse algorithm on both machines."
    );
    live_driver_bytes();
}

/// Live section: a small electron-chain DMRG over the real multi-process
/// backend, printing the driver's per-sweep data-plane traffic. The sweep
/// driver keeps each eigensolve's environment/MPO operands resident, so
/// these operand-byte figures are the regression surface for the caching
/// win (compare the value-vs-resident Davidson line at the end).
#[cfg(unix)]
fn live_driver_bytes() {
    use dmrg::{davidson, DavidsonOptions, Dmrg, EffectiveHam, Environments};
    use tt_dist::{Executor, SpawnSpec};
    use tt_mps::{electron_filling, hubbard, Electron, Lattice, Mps};

    println!("\n== live driver bytes per sweep (multi-process backend, resident operands) ==\n");
    let n = 8;
    let lat = Lattice::chain(n);
    let mpo = hubbard(&lat, 1.0, 4.0).build().expect("mpo");
    let mut psi = Mps::product_state(&Electron, &electron_filling(n, n / 2, n / 2)).expect("state");
    let exec =
        match Executor::multi_process(Machine::blue_waters(2), 1, 3, SpawnSpec::SelfExec(vec![])) {
            Ok(e) => e,
            Err(e) => {
                println!("(skipped: could not spawn workers: {e})");
                return;
            }
        };
    let driver = Dmrg::new(&exec, Algorithm::List, &mpo);
    println!(
        "{:<8} {:>6} {:>16} {:>16}",
        "sweep", "m", "operand bytes", "result bytes"
    );
    let mut last = (0u64, 0u64);
    // cutoff-free noisy sweeps keep the bond dimension at the cap, so the
    // per-sweep traffic reflects real operand volumes, not a collapsed
    // converged state
    for (i, &m) in [16usize, 32, 48].iter().enumerate() {
        let schedule = dmrg::Schedule {
            sweeps: vec![dmrg::SweepParams {
                max_m: m,
                cutoff: 0.0,
                davidson: DavidsonOptions::default(),
                noise: 1e-3,
            }],
        };
        driver.run(&mut psi, &schedule).expect("sweep");
        let now = (exec.operand_bytes(), exec.result_bytes());
        println!(
            "{:<8} {:>6} {:>16} {:>16}",
            i,
            psi.max_bond_dim(),
            now.0 - last.0,
            now.1 - last.1
        );
        last = now;
    }

    // per-rank worker cache residency after the sweeps
    if let Ok(stats) = exec.cache_stats() {
        println!(
            "\n{:<6} {:>12} {:>8} {:>10} {:>10}",
            "rank", "bytes", "entries", "hits", "misses"
        );
        for (r, s) in stats.iter().enumerate() {
            println!(
                "{:<6} {:>12} {:>8} {:>10} {:>10}",
                r, s.bytes, s.entries, s.hits, s.misses
            );
        }
    }

    // one local eigensolve at a middle bond, value-passing vs resident
    let envs = Environments::initialize(&exec, Algorithm::List, &psi, &mpo).expect("envs");
    let j = n / 2 - 1;
    let mut lenv = envs.left[0].clone().expect("left edge");
    for site in 0..j {
        lenv = dmrg::extend_left(
            &exec,
            Algorithm::List,
            &lenv,
            psi.tensor(site),
            mpo.tensor(site),
        )
        .expect("left env");
    }
    let x0 = tt_blocks::contract::contract_list(
        &exec,
        "lsj,jtk->lstk",
        psi.tensor(j),
        psi.tensor(j + 1),
    )
    .expect("two-site tensor");
    let heff = EffectiveHam {
        exec: &exec,
        algo: Algorithm::List,
        left: &lenv,
        w1: mpo.tensor(j),
        w2: mpo.tensor(j + 1),
        right: envs.right[j + 1].as_ref().expect("right env"),
    };
    let before = (exec.operand_bytes(), exec.result_bytes());
    // the value-passing reference: each matvec's vector in block form
    let value_apply = |v: &BondVector| -> dmrg::Result<BondVector> {
        Ok(BondVector::from_blocks(
            v.layout(),
            &heff.apply(&v.to_blocks())?,
        )?)
    };
    let (_, _) = davidson(value_apply, &x0, DavidsonOptions::default()).expect("value solve");
    let value = (
        exec.operand_bytes() - before.0,
        exec.result_bytes() - before.1,
    );
    let rham = heff.upload().expect("upload operands");
    let before = (exec.operand_bytes(), exec.result_bytes());
    let (_, _) = davidson(|v| rham.apply(v), &x0, DavidsonOptions::default()).expect("solve");
    let resident = (
        exec.operand_bytes() - before.0,
        exec.result_bytes() - before.1,
    );
    println!(
        "\none Davidson solve:\n  operand bytes: value-passing {}, resident {} ({:.1}x fewer)\n  \
         result bytes:  value-passing {}, chained  {} ({:.1}x fewer — intermediates stay \
         worker-side)",
        value.0,
        resident.0,
        value.0 as f64 / resident.0 as f64,
        value.1,
        resident.1,
        value.1 as f64 / resident.1 as f64
    );
}

#[cfg(not(unix))]
fn live_driver_bytes() {}
