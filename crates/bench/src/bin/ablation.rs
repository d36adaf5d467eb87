//! Ablation of the **output-sparsity masking** in the sparse-sparse
//! algorithm (the paper's pre-computed sparsity feature): result sizes
//! with and without the mask.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tt_bench::Table;
use tt_blocks::{contract, Algorithm, Arrow, BlockSparseTensor, QnIndex, QN};
use tt_dist::Executor;

fn main() {
    println!("=== Ablation: output-sparsity masking (sparse-sparse) ===\n");
    // block tensors with parity-compatible spectra
    let even: Vec<(QN, usize)> = [(0, 8), (2, 6), (-2, 6), (4, 3), (-4, 3)]
        .iter()
        .map(|&(q, d)| (QN::one(q), d))
        .collect();
    let odd: Vec<(QN, usize)> = [(1, 7), (-1, 7), (3, 4), (-3, 4)]
        .iter()
        .map(|&(q, d)| (QN::one(q), d))
        .collect();
    let spin = vec![(QN::one(1), 1), (QN::one(-1), 1)];
    let mut rng = StdRng::seed_from_u64(21);
    let a = BlockSparseTensor::random(
        vec![
            QnIndex::new(Arrow::In, even.clone()),
            QnIndex::new(Arrow::In, spin.clone()),
            QnIndex::new(Arrow::Out, odd.clone()),
        ],
        QN::zero(1),
        &mut rng,
    );
    let b = BlockSparseTensor::random(
        vec![
            QnIndex::new(Arrow::In, odd),
            QnIndex::new(Arrow::In, spin),
            QnIndex::new(Arrow::Out, even),
        ],
        QN::zero(1),
        &mut rng,
    );
    let exec = Executor::local();
    let spec = "isj,jtk->istk";
    let masked = contract(&exec, Algorithm::SparseSparse, spec, &a, &b).unwrap();
    // unmasked: raw flat contraction, then re-blocked
    let a_flat = a.to_flat_sparse();
    let b_flat = b.to_flat_sparse();
    let unmasked = exec.contract_ss(spec, &a_flat, &b_flat, None).unwrap();
    let mut t = Table::new(&["variant", "result nnz", "result blocks"]);
    t.row(vec![
        "masked (QN-precomputed)".into(),
        masked.to_flat_sparse().nnz().to_string(),
        masked.n_blocks().to_string(),
    ]);
    t.row(vec![
        "unmasked".into(),
        unmasked.nnz().to_string(),
        "-".into(),
    ]);
    t.print();
    println!(
        "\nThe mask bounds intermediate memory exactly to the symmetry-allowed\n\
         pattern — 'knowledge of quantum number labels allows for pre-computation\n\
         of the output sparsity … to control memory consumption'.\n"
    );
}
