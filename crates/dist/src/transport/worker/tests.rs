use super::*;
use crate::kernels;
use crate::FaultKind;
use proptest::prelude::*;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::DenseTensor;

/// The values the request/reply samples are built from.
struct Seed {
    key: u64,
    data: Vec<f64>,
    rows: Vec<u64>,
}

fn fixed_seed() -> Seed {
    Seed {
        key: 77,
        data: vec![1.5, -2.25, -0.0],
        rows: vec![1, 3],
    }
}

/// Name of a request's variant. Exhaustive on purpose — no wildcard
/// arm — so a new variant does not compile until it is listed here,
/// and `samples_cover_every_variant` fails until [`REQUEST_VARIANTS`]
/// names it and [`sample_requests`] carries a sample of it.
fn request_variant(req: &Request) -> &'static str {
    match req {
        Request::Ping => "Ping",
        Request::Free { .. } => "Free",
        Request::Upload { .. } => "Upload",
        Request::UploadCoords { .. } => "UploadCoords",
        Request::CacheStats => "CacheStats",
        Request::Contract { .. } => "Contract",
        Request::SsChunk { .. } => "SsChunk",
        Request::SvdTrunc { .. } => "SvdTrunc",
        Request::Download { .. } => "Download",
        Request::Shutdown => "Shutdown",
        Request::SdContract { .. } => "SdContract",
    }
}
/// Every request variant, in wire-number order.
const REQUEST_VARIANTS: [&str; 11] = [
    "Ping",
    "Free",
    "Upload",
    "UploadCoords",
    "CacheStats",
    "Contract",
    "SsChunk",
    "SvdTrunc",
    "Download",
    "Shutdown",
    "SdContract",
];

/// Same contract as [`request_variant`], for replies.
fn reply_variant(rep: &Reply) -> usize {
    match rep {
        Reply::Pong => 0,
        Reply::Unit => 1,
        Reply::Buf(_) => 2,
        Reply::Entries { .. } => 3,
        Reply::Svd { .. } => 4,
        Reply::Stats { .. } => 5,
        Reply::Fail(_) => 6,
        Reply::Merged { .. } => 7,
    }
}
const REPLY_VARIANTS: usize = 8;

/// Every request variant; every dense-buffer-carrying one inline and
/// keyed, `Contract` under every `out`, and `SdContract` and `SsChunk`
/// with inline and keyed operands.
fn sample_requests(s: &Seed) -> Vec<Request> {
    let Seed { key, data, rows } = s;
    let key = *key;
    let vals: Vec<f64> = rows.iter().map(|&r| f64::from_bits(r ^ 0x5a5a)).collect();
    let coords = OpCoords::Inline {
        rows: rows.clone(),
        cols: rows.clone(),
        vals: vals.clone(),
    };
    let ss = OpSs::Inline(SsTable {
        keys: rows.clone(),
        lens: vec![1; rows.len()],
        cols: rows.clone(),
        vals: vals.clone(),
    });
    let classes = rows.clone();
    let (inline, keyed) = (Op::Inline(data.clone()), Op::Key(key));
    let mut reqs = vec![
        Request::Ping,
        Request::Free { key },
        Request::Upload {
            key,
            data: data.clone(),
        },
        Request::UploadCoords {
            key,
            rows: rows.clone(),
            cols: rows.clone(),
            vals,
        },
        Request::CacheStats,
        Request::SsChunk {
            a: coords.clone(),
            b: ss.clone(),
            key,
            n: key,
            ax_dims: rows.clone(),
            ax_strides: rows.clone(),
            cx_dims: rows.clone(),
            cx_strides: rows.clone(),
            mask: (classes.clone(), Vec::new()),
        },
        Request::SsChunk {
            a: OpCoords::Key(key),
            b: OpSs::Key {
                key,
                key_w: rows.clone(),
                col_w: rows.clone(),
            },
            key: !key,
            n: 5,
            ax_dims: vec![7],
            ax_strides: vec![5],
            cx_dims: vec![5],
            cx_strides: vec![1],
            mask: (classes.clone(), classes),
        },
        Request::SvdTrunc {
            rows: 2,
            cols: 2,
            a: data.clone(),
            max_rank: 3,
            cutoff: 0.0,
            min_keep: 2,
        },
        Request::Download { key },
        Request::Shutdown,
    ];
    for (a, b) in [
        (coords.clone(), inline.clone()),
        (OpCoords::Key(key), keyed.clone()),
    ] {
        reqs.push(Request::SdContract {
            a,
            key,
            m: 4,
            n: 2,
            b_dims: vec![3, 2],
            perm_b: vec![0, 1],
            nat_dims: vec![4, 2],
            out_perm: vec![1, 0],
            b,
        });
    }
    for acc in [false, true] {
        reqs.push(Request::Contract {
            spec: "ik,kj->ij".into(),
            a_dims: vec![2, 3],
            a: keyed.clone(),
            b_dims: vec![3, 2],
            b: inline.clone(),
            key,
            acc,
        });
    }
    reqs
}

/// Every reply variant.
fn sample_replies(s: &Seed) -> Vec<Reply> {
    vec![
        Reply::Pong,
        Reply::Unit,
        Reply::Buf(s.data.clone()),
        Reply::Entries {
            offs: s.rows.clone(),
            vals: s.rows.iter().map(|&r| f64::from_bits(r)).collect(),
        },
        Reply::Svd {
            u_rows: 2,
            rank: 1,
            vt_cols: 2,
            u: s.data.clone(),
            s: vec![2.0],
            vt: vec![0.0, 1.0],
            trunc_err: 1e-16,
            n_discarded: 1,
        },
        Reply::Stats {
            bytes: s.key,
            entries: 3,
            hits: s.key,
            misses: 5,
        },
        Reply::Fail("boom".into()),
        Reply::Merged {
            touched: s.key,
            flops: !s.key,
        },
    ]
}

#[test]
fn samples_cover_every_variant() {
    let s = fixed_seed();
    let seen: Vec<&str> = sample_requests(&s).iter().map(request_variant).collect();
    for name in REQUEST_VARIANTS {
        assert!(seen.contains(&name), "no sample of Request::{name}");
    }
    for name in seen {
        assert!(REQUEST_VARIANTS.contains(&name), "{name} is not listed");
    }
    let mut seen = [false; REPLY_VARIANTS];
    for rep in sample_replies(&s) {
        seen[reply_variant(&rep)] = true;
    }
    assert!(seen.iter().all(|&b| b), "reply variant without a sample");
}

#[test]
fn requests_and_replies_roundtrip() {
    let s = fixed_seed();
    for req in sample_requests(&s) {
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
    }
    for rep in sample_replies(&s) {
        let back = Reply::decode(&rep.encode()).unwrap();
        assert_eq!(back, rep);
    }
}

/// Arbitrary f64 bit patterns (including NaNs, infinities, -0.0).
fn any_f64s() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any::<u64>(), 0..24)
        .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The codec round-trips every request and reply sample with
    /// exact f64 bit patterns (NaNs and -0.0 included), so
    /// bitwise equality is compared on the *re-encoded bytes*, not
    /// through float ==.
    #[test]
    fn handle_request_codec_is_bit_exact(
        key in any::<u64>(),
        data in any_f64s(),
        rows in prop::collection::vec(any::<u64>(), 0..16),
    ) {
        let s = Seed { key, data, rows };
        for req in sample_requests(&s) {
            let bytes = req.encode();
            let back = Request::decode(&bytes).unwrap();
            // re-encode and compare bytes: exact bit round-trip even
            // for NaN payloads (where PartialEq would lie)
            prop_assert_eq!(back.encode(), bytes);
        }
        for rep in sample_replies(&s) {
            let bytes = rep.encode();
            prop_assert_eq!(Reply::decode(&bytes).unwrap().encode(), bytes);
        }
    }

    /// Pure garbage never panics the decoders — a malformed frame from
    /// a misbehaving worker must surface as a typed error, never crash
    /// the driver (and vice versa for requests on the worker side).
    #[test]
    fn garbage_bytes_never_panic_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Request::decode(&bytes);
        let _ = Reply::decode(&bytes);
    }
}

/// A frame under each retired number, with a payload long enough for any
/// fixed-width field a decoder could try to read: request opcodes 3, 5, 6,
/// 8, 9, 11, 13, 15, 16 and 17, a `Contract` whose `a` operand carries the
/// retired inline tag 2, a `Contract` whose output carries the retired
/// tag 0 (the result returned in the reply) and an `SsChunk` whose `b`
/// carries the retired resident tag 1; then reply opcodes 3 and 5.
fn retired_frames() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let frame = |op: u8| -> Vec<u8> { std::iter::once(op).chain([0x11; 40]).collect() };
    let mut requests = Vec::from([3, 5, 6, 8, 9, 11, 13, 15, 16, 17].map(frame));
    let pair = Request::Contract {
        spec: String::new(),
        a_dims: vec![],
        a: Op::Key(0),
        b_dims: vec![],
        b: Op::Key(0),
        key: 0,
        acc: false,
    }
    .encode();
    let mut inline2 = pair.clone();
    inline2[17] = 2; // `a`'s tag: after the opcode, the empty spec and dims
    requests.push(inline2);
    let mut reply = pair;
    let at = reply.len() - 10; // the output tag: before the key and `acc`
    assert_eq!(reply[at], 1, "a store");
    reply[at] = 0;
    requests.push(reply);
    let mut ss = Request::SsChunk {
        a: OpCoords::Key(0),
        b: OpSs::Inline(SsTable {
            keys: vec![],
            lens: vec![],
            cols: vec![],
            vals: vec![],
        }),
        key: 0,
        n: 0,
        ax_dims: vec![],
        ax_strides: vec![],
        cx_dims: vec![],
        cx_strides: vec![],
        mask: (vec![], vec![]),
    }
    .encode();
    ss[10] = 1; // `b`'s tag: after the opcode and the keyed `a` (tag, u64)
    requests.push(ss);
    let mut svd = Request::SvdTrunc {
        rows: 0,
        cols: 0,
        a: vec![],
        max_rank: 0,
        cutoff: 0.0,
        min_keep: 0,
    }
    .encode();
    svd[17] = 0; // `a`'s tag: after the opcode and the two dims
    requests.push(svd);
    (requests, vec![frame(3), frame(5)])
}

/// Every valid encoding of every sample, requests then replies, and
/// the retired-number frames.
fn sample_encodings() -> Vec<Vec<u8>> {
    let s = fixed_seed();
    let (requests, replies) = retired_frames();
    let reqs = sample_requests(&s).into_iter().map(|r| r.encode());
    reqs.chain(sample_replies(&s).into_iter().map(|r| r.encode()))
        .chain(requests)
        .chain(replies)
        .collect()
}

#[test]
fn retired_opcodes_decode_to_a_typed_fault() {
    let (requests, replies) = retired_frames();
    let errors = requests
        .iter()
        .map(|f| Request::decode(f).unwrap_err())
        .chain(replies.iter().map(|f| Reply::decode(f).unwrap_err()));
    for err in errors {
        assert_eq!(
            err.as_fault().map(|f| f.kind),
            Some(FaultKind::Decode),
            "{err}"
        );
    }
}

/// The README's opcode table is the contract a rank on another
/// transport would implement: it names exactly the `Request` variants.
#[test]
fn readme_opcode_table_names_every_request() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
    let table = readme
        .lines()
        .skip_while(|l| !l.starts_with("| # | request | effect | reply |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    let named: Vec<&str> = table
        .map(|row| {
            let cell = row.split('`').nth(1).expect("a backticked request name");
            cell.split([' ', '{'])
                .next()
                .expect("split yields a first piece")
        })
        .collect();
    assert_eq!(named, REQUEST_VARIANTS);
}

/// Every truncation of every valid message decodes to an error (or a
/// shorter valid message for payload-trailing truncations) without
/// panicking.
#[test]
fn truncated_messages_never_panic() {
    for bytes in sample_encodings() {
        for cut in 0..bytes.len() {
            let _ = Request::decode(&bytes[..cut]);
            let _ = Reply::decode(&bytes[..cut]);
        }
    }
}

/// Deterministic byte-flip fuzzing: xorshift-driven single- and
/// multi-byte corruptions of valid encodings must never panic either
/// decoder (they may decode to a different valid message — corruption
/// detection beyond framing is not the codec's contract).
#[test]
fn bit_flipped_messages_never_panic() {
    let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic seed
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for bytes in sample_encodings() {
        for _ in 0..64 {
            let mut m = bytes.clone();
            for _ in 0..(1 + next() % 4) {
                let at = (next() as usize) % m.len();
                m[at] ^= (next() % 255 + 1) as u8;
            }
            let _ = Request::decode(&m);
            let _ = Reply::decode(&m);
        }
    }
}

fn upload(w: &mut WorkerState, key: u64, data: Vec<f64>) {
    assert_eq!(w.handle(Request::Upload { key, data }), Some(Reply::Unit));
}

/// Whether `key` holds `len` resident f64 words, probed with a keyed
/// compute task — a touch that leaves the entry in place — whose result
/// is freed again.
fn resident(w: &mut WorkerState, key: u64, len: usize) -> bool {
    const PROBE: u64 = u64::MAX;
    let stored = w.handle(Request::Contract {
        spec: "ik,kj->ij".into(),
        a_dims: vec![len, 1],
        a: Op::Key(key),
        b_dims: vec![1, 1],
        b: Op::Inline(vec![1.0]),
        key: PROBE,
        acc: false,
    });
    w.handle(Request::Free { key: PROBE });
    stored == Some(Reply::Unit)
}

#[test]
fn worker_state_store_lifecycle() {
    let mut w = WorkerState::new();
    assert_eq!(w.handle(Request::Ping), Some(Reply::Pong));
    upload(&mut w, 5, vec![1.0, 2.0]);
    assert_eq!(
        w.handle(Request::Download { key: 5 }),
        Some(Reply::Buf(vec![1.0, 2.0]))
    );
    upload(&mut w, 8, vec![3.0]);
    assert_eq!(w.handle(Request::Free { key: 8 }), Some(Reply::Unit));
    assert!(matches!(
        w.handle(Request::Download { key: 8 }),
        Some(Reply::Fail(_))
    ));
    assert_eq!(w.handle(Request::Shutdown), None);
}

#[test]
fn a_key_stored_twice_and_freed_once_leaves_nothing() {
    let mut w = WorkerState::new();
    // an upload replaced by an upload, a chain result replaced by a
    // chain result: one `Free` each empties the store
    upload(&mut w, 1, vec![1.0; 16]);
    upload(&mut w, 1, vec![2.0; 4]);
    for _ in 0..2 {
        w.handle(contract([1, 1], vec![2.0], vec![3.0], 2, false));
    }
    assert_eq!(
        w.handle(Request::CacheStats),
        Some(Reply::Stats {
            bytes: 8 * 4 + 8,
            entries: 2,
            hits: 0,
            misses: 2,
        })
    );
    for key in [1, 2] {
        assert_eq!(w.handle(Request::Free { key }), Some(Reply::Unit));
        assert!(!resident(&mut w, key, 1));
    }
    let Some(Reply::Stats { bytes, entries, .. }) = w.handle(Request::CacheStats) else {
        panic!("expected stats");
    };
    assert_eq!((bytes, entries), (0, 0));
}

#[test]
fn resident_operands_serve_fused_tasks() {
    let mut w = WorkerState::new();
    // pin B, then run a dense contraction against the resident key only
    upload(&mut w, 100, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3×2
    let pair = |b: u64| Request::Contract {
        spec: "ik,kj->ij".into(),
        a_dims: vec![1, 3],
        a: Op::Inline(vec![1.0, 1.0, 1.0]),
        b_dims: vec![3, 2],
        b: Op::Key(b),
        key: 101,
        acc: false,
    };
    assert_eq!(w.handle(pair(100)), Some(Reply::Unit));
    assert_eq!(
        w.handle(Request::Download { key: 101 }),
        Some(Reply::Buf(vec![9.0, 12.0]))
    );
    // unknown key fails without killing the worker
    assert!(matches!(w.handle(pair(999)), Some(Reply::Fail(_))));
    assert_eq!(w.handle(Request::Ping), Some(Reply::Pong));
}

/// A 2-operand `f64` contraction step with inline operands, stored under
/// `key` (added into it with `acc`).
fn contract(dims: [usize; 2], a: Vec<f64>, b: Vec<f64>, key: u64, acc: bool) -> Request {
    Request::Contract {
        spec: "ik,kj->ij".into(),
        a_dims: dims.to_vec(),
        a: Op::Inline(a),
        b_dims: dims.to_vec(),
        b: Op::Inline(b),
        key,
        acc,
    }
}

#[test]
fn chain_steps_store_accumulate_and_download() {
    let mut w = WorkerState::new();
    // C = A·B stored resident, then a second partial accumulated, then
    // downloaded — the only value-returning exit
    let a = vec![1.0, 2.0, 3.0, 4.0]; // 2×2
    let b = vec![1.0, 0.0, 0.0, 1.0]; // identity
    for acc in [false, true] {
        assert_eq!(
            w.handle(contract([2, 2], a.clone(), b.clone(), 50, acc)),
            Some(Reply::Unit)
        );
    }
    assert_eq!(
        w.handle(Request::Download { key: 50 }),
        Some(Reply::Buf(vec![2.0, 4.0, 6.0, 8.0]))
    );
    // downloaded results are gone
    assert!(matches!(
        w.handle(Request::Download { key: 50 }),
        Some(Reply::Fail(_))
    ));
    // accumulating into an absent key fails cleanly
    assert!(matches!(
        w.handle(contract([2, 2], a.clone(), vec![1.0; 4], 51, true)),
        Some(Reply::Fail(_))
    ));
    // a stored-then-downloaded result is the kernel's own output
    let plan = ContractPlan::parse("ik,kj->ij").unwrap();
    let [ta, tb] = [&a, &b].map(|v| DenseTensor::from_vec([2, 2], v.clone()).unwrap());
    let ws = crate::exec::Workspace::default();
    let local = kernels::dense_contract(&plan, &ta, &tb, None, &ws).unwrap();
    assert_eq!(
        w.handle(contract([2, 2], a.clone(), b, 52, false)),
        Some(Reply::Unit)
    );
    assert_eq!(
        w.handle(Request::Download { key: 52 }),
        Some(Reply::Buf(local.into_data()))
    );
}

/// H_eff step 2 at a bond dimension where the worker's `SdContract` reads
/// `B` and writes `C` (256 KB) through run views: the request, the
/// operands behind it, and the bytes the in-process kernel produces from
/// them.
struct HeffStep2 {
    a_dense: DenseTensor<f64>,
    b: DenseTensor<f64>,
    coords: Vec<kernels::Coord>,
    local: Vec<f64>,
}

const HEFF_STEP2: &str = "kpqg,bkqwf->bpgwf";

impl HeffStep2 {
    fn new() -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tt_tensor::SparseTensor;
        let mut rng = StdRng::seed_from_u64(15);
        let b = DenseTensor::<f64>::random([40, 5, 2, 2, 40], &mut rng);
        let a_dense = DenseTensor::<f64>::from_fn([5, 2, 2, 5], |_| {
            if rng.gen_bool(0.4) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let a = SparseTensor::from_dense(&a_dense, 0.0);
        let plan = ContractPlan::parse(HEFF_STEP2).unwrap();
        let coords = kernels::sparse_coords(&a, plan.free_a_positions(), plan.ctr_a_positions());
        let ws = crate::exec::Workspace::default();
        let borrowed = std::borrow::Cow::Borrowed(&coords[..]);
        let (local, _) = kernels::sd_contract(&plan, a.dims(), borrowed, &b, None, &ws).unwrap();
        Self {
            a_dense,
            local: local.into_data(),
            b,
            coords,
        }
    }

    /// The whole step, stored under `key`.
    fn chain_sd(&self, key: u64) -> Request {
        let plan = ContractPlan::parse(HEFF_STEP2).unwrap();
        let (a_dims, b_dims) = (self.a_dense.dims(), self.b.dims());
        let (m, _k, n) = kernels::fused_dims(&plan, a_dims, b_dims);
        let (rows, (cols, vals)) = self.coords.iter().map(|&(r, c, v)| (r, (c, v))).unzip();
        Request::SdContract {
            a: OpCoords::Inline { rows, cols, vals },
            key,
            m,
            n,
            b_dims: b_dims.to_vec(),
            perm_b: plan.operand_permutations().1.to_vec(),
            nat_dims: kernels::natural_dims(&plan, a_dims, b_dims),
            out_perm: plan.output_permutation().to_vec(),
            b: Op::Inline(self.b.data().to_vec()),
        }
    }
}

#[test]
fn chain_steps_on_five_mode_operands_match_the_in_process_kernels() {
    // the stored bytes must be the in-process kernel's
    let step = HeffStep2::new();
    let mut w = WorkerState::new();
    assert_eq!(w.handle(step.chain_sd(90)), Some(Reply::Unit));
    assert_eq!(
        w.handle(Request::Download { key: 90 }),
        Some(Reply::Buf(step.local.clone()))
    );

    let plan = ContractPlan::parse(HEFF_STEP2).unwrap();
    // the dense step on the same operands (A densified)
    let HeffStep2 { a_dense, b, .. } = step;
    let (a_dims, b_dims) = (a_dense.dims().to_vec(), b.dims().to_vec());
    let local = kernels::dense_contract(
        &plan,
        &a_dense,
        &b,
        None,
        &crate::exec::Workspace::default(),
    )
    .unwrap();
    assert_eq!(
        w.handle(Request::Contract {
            spec: HEFF_STEP2.into(),
            a_dims,
            a: Op::Inline(a_dense.into_data()),
            b_dims,
            b: Op::Inline(b.into_data()),
            key: 93,
            acc: false,
        }),
        Some(Reply::Unit)
    );
    assert_eq!(
        w.handle(Request::Download { key: 93 }),
        Some(Reply::Buf(local.into_data()))
    );
    let empty = || OpCoords::Inline {
        rows: vec![],
        cols: vec![],
        vals: vec![],
    };
    // a zero-width result is an empty buffer, not a failure
    assert_eq!(
        w.handle(Request::SdContract {
            a: empty(),
            key: 91,
            m: 3,
            n: 0,
            b_dims: vec![2, 0],
            perm_b: vec![0, 1],
            nat_dims: vec![3, 0],
            out_perm: vec![0, 1],
            b: Op::Inline(vec![]),
        }),
        Some(Reply::Unit)
    );
    assert_eq!(
        w.handle(Request::Download { key: 91 }),
        Some(Reply::Buf(vec![]))
    );
    // a request whose geometry contradicts its operand fails cleanly
    assert!(matches!(
        w.handle(Request::SdContract {
            a: empty(),
            key: 91,
            m: 2,
            n: 3,
            b_dims: vec![2, 3],
            perm_b: vec![0, 0],
            nat_dims: vec![2, 3],
            out_perm: vec![0, 1],
            b: Op::Inline(vec![0.0; 6]),
        }),
        Some(Reply::Fail(_))
    ));
}

/// A stored `SdContract` → `Free` → the same again on one rank: the freed
/// result's buffer (NaN-filled on its way back, in a test build) serves
/// the second run, whose bytes are the same, and the workspace is no part
/// of the store — `CacheStats` is back at nothing once the driver has
/// taken its results.
#[test]
fn worker_workspace_serves_the_next_chain_step_from_a_freed_result() {
    let step = HeffStep2::new();
    let mut w = WorkerState::new();
    assert_eq!(w.handle(step.chain_sd(91)), Some(Reply::Unit));
    let before = w.workspace.stats();
    assert_eq!(w.handle(Request::Free { key: 91 }), Some(Reply::Unit));
    assert_eq!(w.workspace.stats().held_bytes, 8 * step.local.len() as u64);
    assert_eq!(w.handle(step.chain_sd(92)), Some(Reply::Unit));
    let after = w.workspace.stats();
    assert_eq!(
        (after.takes - before.takes, after.reuses - before.reuses),
        (1, 1),
        "one request, served by the freed buffer"
    );
    assert_eq!(
        w.handle(Request::Download { key: 92 }),
        Some(Reply::Buf(step.local))
    );
    assert!(matches!(
        w.handle(Request::CacheStats),
        Some(Reply::Stats {
            bytes: 0,
            entries: 0,
            ..
        })
    ));
}

#[test]
fn bad_tasks_fail_without_killing_the_worker() {
    let mut w = WorkerState::new();
    let f = |v: Vec<f64>| Op::Inline(v);
    let pair = |a: Op, b: Op, key: u64| Request::Contract {
        spec: "ik,kj->ij".into(),
        a_dims: vec![2, 2],
        a,
        b_dims: vec![2, 2],
        b,
        key,
        acc: false,
    };
    // an f64 result resident under key 70, a coords bucket under 71
    assert_eq!(
        w.handle(pair(f(vec![1.0; 4]), f(vec![1.0; 4]), 70)),
        Some(Reply::Unit)
    );
    w.handle(Request::UploadCoords {
        key: 71,
        rows: vec![0],
        cols: vec![0],
        vals: vec![1.0],
    });
    // a sparse-sparse `B` whose run lengths wrap to `cols.len()` when
    // summed unchecked: the runs would reach past `cols`
    let wrapping_b = OpSs::Inline(SsTable {
        keys: vec![0, 1],
        lens: vec![u64::MAX, 3],
        cols: vec![0; 2],
        vals: vec![1.0; 2],
    });
    // `A` buckets the merge must not be handed: keys [1, 0] descend (the
    // merge would miss key 0's match), and row 1 lies past a one-row
    // output — inline, and resident under keys 72 and 73
    for (key, rows, cols) in [(72, vec![0, 0], vec![1, 0]), (73, vec![1], vec![0])] {
        let vals = vec![1.0; rows.len()];
        w.handle(Request::UploadCoords {
            key,
            rows,
            cols,
            vals,
        });
    }
    let descending = || OpCoords::Inline {
        rows: vec![0, 0],
        cols: vec![1, 0],
        vals: vec![1.0; 2],
    };
    // an `m` × 1 sparse-sparse step storing its slots under key 77 (76 for
    // the one a later step reads), its `B` a table inline or a stored
    // result read with the given key and column weights
    let ss_at = |key, a: OpCoords, b: OpSs, m: u64, classes: Vec<u64>| Request::SsChunk {
        a,
        b,
        key,
        n: 1,
        ax_dims: vec![m],
        ax_strides: vec![1],
        cx_dims: vec![1],
        cx_strides: vec![1],
        mask: (classes, vec![0]),
    };
    let ss_from = |a, b, m, classes| ss_at(77, a, b, m, classes);
    let table = |cols: Vec<u64>| {
        OpSs::Inline(SsTable {
            keys: vec![0, 1],
            lens: vec![1, 1],
            cols,
            vals: vec![1.0, 2.0],
        })
    };
    // one row, every element allowed
    let ss = |a: OpCoords, b_cols: Vec<u64>| ss_from(a, table(b_cols), 1, vec![0]);
    let stored = |key, key_w: Vec<u64>, col_w: Vec<u64>| OpSs::Key { key, key_w, col_w };
    // a chain step's result stored under key 76: both rows of A against
    // key 0 of `B`, in the slots of an all-allowing mask
    let two = || OpCoords::Inline {
        rows: vec![0, 1],
        cols: vec![0, 0],
        vals: vec![5.0, 6.0],
    };
    assert_eq!(
        w.handle(ss_at(76, two(), table(vec![0, 0]), 2, vec![0, 0])),
        Some(Reply::Merged {
            touched: 2,
            flops: 4
        })
    );
    let one = || OpCoords::Inline {
        rows: vec![0],
        cols: vec![0],
        vals: vec![5.0],
    };
    // a 2 × 2 sparse-dense step against B = I, stored under key 78; its
    // one `A` entry inline, or resident under keys 74 (row 2, past the
    // output) and 75 (column 2, past B's two rows)
    let sd = |a: OpCoords| Request::SdContract {
        a,
        key: 78,
        m: 2,
        n: 2,
        b_dims: vec![2, 2],
        perm_b: vec![0, 1],
        nat_dims: vec![2, 2],
        out_perm: vec![0, 1],
        b: f(vec![1.0, 0.0, 0.0, 1.0]),
    };
    let entry = |row: u64, col: u64| OpCoords::Inline {
        rows: vec![row],
        cols: vec![col],
        vals: vec![3.0],
    };
    for (key, row, col) in [(74, 2, 0), (75, 1, 2)] {
        w.handle(Request::UploadCoords {
            key,
            rows: vec![row],
            cols: vec![col],
            vals: vec![3.0],
        });
    }
    // the well-formed frames the malformed ones are variations of, each
    // stored and downloaded: and a step reading key 76 as its `B`, fused
    // row as key, column as column
    let download = |w: &mut WorkerState, key| w.handle(Request::Download { key });
    assert_eq!(w.handle(sd(entry(1, 1))), Some(Reply::Unit));
    assert_eq!(
        download(&mut w, 78),
        Some(Reply::Buf(vec![0.0, 0.0, 0.0, 3.0]))
    );
    assert!(matches!(
        w.handle(ss(one(), vec![0, 0])),
        Some(Reply::Merged { flops: 2, .. })
    ));
    assert!(matches!(download(&mut w, 77), Some(Reply::Entries { .. })));
    let read76 = ss_from(one(), stored(76, vec![1, 0], vec![0, 1]), 1, vec![0]);
    assert_eq!(
        w.handle(read76),
        Some(Reply::Merged {
            touched: 1,
            flops: 2
        })
    );
    assert_eq!(
        download(&mut w, 77),
        Some(Reply::Entries {
            offs: vec![0],
            vals: vec![25.0],
        })
    );
    let bad = [
        // inline data that disagrees with its dims
        pair(f(vec![0.0; 3]), f(vec![0.0; 4]), 79),
        // accumulate a partial of the wrong length
        Request::Contract {
            spec: "ik,kj->ij".into(),
            a_dims: vec![1, 2],
            a: f(vec![1.0; 2]),
            b_dims: vec![2, 2],
            b: f(vec![1.0; 4]),
            key: 70,
            acc: true,
        },
        // a shape whose element count overflows usize (wrapped, it would
        // be an empty tensor — and so would B's)
        Request::Contract {
            spec: "ik,kj->ij".into(),
            a_dims: vec![1 << 33, 1 << 31],
            a: f(vec![]),
            b_dims: vec![1 << 31, 0],
            b: f(vec![]),
            key: 79,
            acc: false,
        },
        // Download reads results only
        Request::Download { key: 71 },
        ss_from(one(), wrapping_b, 1, vec![0]),
        // a `B` column past `n = 1`: it would land in another row's slot
        ss_from(one(), table(vec![1, 0]), 2, vec![0, 0]),
        ss(descending(), vec![0, 0]),
        ss(OpCoords::Key(72), vec![0, 0]),
        // an `A` row past the output's one row, inline and resident
        ss(entry(1, 0), vec![0, 0]),
        ss(OpCoords::Key(73), vec![0, 0]),
        // a stored `B` under an absent key, a dense buffer's, a coordinate
        // bucket's; read with weights of another order, and as a table of
        // another width (its row 1 as column 1 of one)
        ss_from(one(), stored(99, vec![1, 0], vec![0, 1]), 1, vec![0]),
        ss_from(one(), stored(70, vec![1, 0], vec![0, 1]), 1, vec![0]),
        ss_from(one(), stored(71, vec![1, 0], vec![0, 1]), 1, vec![0]),
        ss_from(one(), stored(76, vec![1], vec![0]), 1, vec![0]),
        ss_from(one(), stored(76, vec![0, 0], vec![1, 0]), 1, vec![0]),
        // classes for one row of two, a class id past the rows and columns
        ss_from(one(), table(vec![0, 0]), 2, vec![0]),
        ss_from(one(), table(vec![0, 0]), 2, vec![0, 3]),
        // sparse-dense: an `A` row past the output, a column past B, each
        // inline and resident
        sd(entry(2, 0)),
        sd(OpCoords::Key(74)),
        sd(entry(1, 2)),
        sd(OpCoords::Key(75)),
    ];
    for req in bad {
        assert!(
            matches!(w.handle(req.clone()), Some(Reply::Fail(_))),
            "{req:?}"
        );
        assert_eq!(w.handle(Request::Ping), Some(Reply::Pong));
    }
    // the refused accumulate left its target intact, and no refused task
    // stored a result
    assert_eq!(download(&mut w, 70), Some(Reply::Buf(vec![2.0; 4])));
    for key in [77, 78, 79] {
        assert!(matches!(download(&mut w, key), Some(Reply::Fail(_))));
    }
    // the stored sparse-sparse result downloads as its entries
    assert_eq!(
        download(&mut w, 76),
        Some(Reply::Entries {
            offs: vec![0, 1],
            vals: vec![5.0, 6.0],
        })
    );
    // and the refused download of the coordinate bucket left it resident
    assert!(matches!(
        w.handle(ss(OpCoords::Key(71), vec![0, 0])),
        Some(Reply::Merged { flops: 2, .. })
    ));
    assert_eq!(
        download(&mut w, 77),
        Some(Reply::Entries {
            offs: vec![0],
            vals: vec![1.0],
        })
    );
}
