//! Wire frames of the solve-service socket protocol.
//!
//! The service speaks the same hand-rolled little-endian codec as the
//! worker protocol (`crate::transport::wire`): each socket message is
//! one `[tag u64][len u64][payload]` frame whose payload is an encoded
//! [`JobRequest`] (client → daemon, frame tag [`FRAME_REQUEST`]) or
//! [`JobEvent`] (daemon → client, frame tag [`FRAME_EVENT`]). Decoders
//! never panic on malformed input — every length is validated against
//! the remaining bytes, exactly like the worker-protocol decoders, and
//! the same roundtrip / truncation / bit-flip fuzz harness covers every
//! frame below.

use crate::exec::RankCacheStats;
use crate::transport::wire::{Dec, Enc};
use crate::{Error, Result};

/// Frame tag of client → daemon [`JobRequest`] messages.
pub const FRAME_REQUEST: u64 = 0x4a52; // "JR"
/// Frame tag of daemon → client [`JobEvent`] messages.
pub const FRAME_EVENT: u64 = 0x4a45; // "JE"

/// The physical model of a DMRG solve job, in plain data (the daemon
/// builds the MPO/MPS; clients never ship tensors for solves).
#[derive(Clone, Debug, PartialEq)]
pub enum ModelSpec {
    /// Heisenberg J₁–J₂ chain of `n` sites, J₁ = 1.
    HeisenbergChain { n: u64, j2: f64 },
    /// Hubbard chain of `n` sites, t = 1, on-site `u`.
    HubbardChain { n: u64, u: f64 },
}

/// Which contraction algorithm family the solve uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoSpec {
    /// Dense block-list contractions.
    List,
    /// Sparse-dense kernels.
    SparseDense,
    /// Sparse-sparse kernels.
    SparseSparse,
}

/// Davidson eigensolver parameters (deterministic: seeded start vector).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DavidsonSpec {
    pub max_iter: u64,
    pub max_subspace: u64,
    pub tol: f64,
    pub seed: u64,
}

/// A complete DMRG solve job: model, algorithm, bond-dimension ramp and
/// per-job runtime limits.
#[derive(Clone, Debug, PartialEq)]
pub struct DmrgJobSpec {
    pub model: ModelSpec,
    pub algo: AlgoSpec,
    /// Bond-dimension ramp; each entry runs `sweeps_per_m` sweeps.
    pub ms: Vec<u64>,
    pub sweeps_per_m: u64,
    pub cutoff: f64,
    /// Noise injected on every ramp stage except the last.
    pub noise: f64,
    pub davidson: DavidsonSpec,
    /// Per-job transport deadline in milliseconds; `0` = fleet default.
    pub timeout_ms: u64,
    /// Per-job resident-operand byte cap; `0` = service default.
    pub resident_cap_bytes: u64,
}

/// Client → daemon messages.
#[derive(Clone, Debug, PartialEq)]
pub enum JobRequest {
    /// Submit a DMRG solve.
    SubmitDmrg(DmrgJobSpec),
    /// Cancel a job (queued: dropped; running: stops at the next sweep
    /// boundary).
    Cancel { job: u64 },
    /// Ask for a [`StatusReport`].
    Status,
    /// Stop the daemon: cancels every job and shuts the fleet down.
    Shutdown,
}

/// Per-job cost meter, mirrored from the job's scoped [`CostTracker`]
/// — for a given spec these are bitwise-identical to the same solve run
/// serially on a fresh executor, regardless of what other tenants do.
///
/// [`CostTracker`]: crate::CostTracker
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobMeter {
    pub flops: u64,
    pub supersteps: u64,
    pub bytes_critical: u64,
    /// Operand bytes the driver actually shipped for this job — the
    /// cross-job dedup observable (collapses when another tenant already
    /// made the same contents resident).
    pub bytes_operands: u64,
    pub bytes_results: u64,
    pub bytes_recovery: u64,
    /// Simulated α–β model seconds.
    pub sim_seconds: f64,
}

/// Final result of a finished DMRG job: its energies, its meter and its
/// resident peak.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    /// Final energy.
    pub energy: f64,
    /// Per-sweep energies in execution order.
    pub energies: Vec<f64>,
    pub meter: JobMeter,
    /// Peak retained operand bytes over the job's lifetime.
    pub resident_peak_bytes: u64,
}

/// Daemon-wide status snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatusReport {
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Running jobs as `(job id, sweeps completed)`.
    pub running: Vec<(u64, u64)>,
    /// Per-rank worker cache counters for the shared fleet.
    pub fleet: Vec<RankCacheStats>,
}

/// Daemon → client messages. Every event names its job, so one
/// connection can multiplex many jobs.
#[derive(Clone, Debug, PartialEq)]
pub enum JobEvent {
    /// The job was admitted; `ahead` jobs are queued in front of it.
    Accepted { job: u64, ahead: u64 },
    /// Admission control turned the submission away.
    Rejected { reason: String },
    /// The job left the queue and started executing.
    Started { job: u64 },
    /// One DMRG sweep finished.
    Sweep {
        job: u64,
        index: u64,
        energy: f64,
        max_bond: u64,
    },
    /// The job finished; final report attached.
    Done { job: u64, report: JobReport },
    /// The job failed; human-readable reason attached.
    Failed { job: u64, reason: String },
    /// The job was cancelled (client request, disconnect, or shutdown).
    Cancelled { job: u64 },
    /// Reply to [`JobRequest::Status`].
    Status(StatusReport),
}

// -- encoders ------------------------------------------------------------

fn put_model(e: &mut Enc, m: &ModelSpec) {
    match m {
        ModelSpec::HeisenbergChain { n, j2 } => {
            e.put_u8(0);
            e.put_u64(*n);
            e.put_f64(*j2);
        }
        ModelSpec::HubbardChain { n, u } => {
            e.put_u8(1);
            e.put_u64(*n);
            e.put_f64(*u);
        }
    }
}

fn get_model(d: &mut Dec) -> Result<ModelSpec> {
    Ok(match d.u8()? {
        0 => ModelSpec::HeisenbergChain {
            n: d.u64()?,
            j2: d.f64()?,
        },
        1 => ModelSpec::HubbardChain {
            n: d.u64()?,
            u: d.f64()?,
        },
        t => return Err(Error::transport(format!("unknown model tag {t}"))),
    })
}

fn put_algo(e: &mut Enc, a: AlgoSpec) {
    e.put_u8(match a {
        AlgoSpec::List => 0,
        AlgoSpec::SparseDense => 1,
        AlgoSpec::SparseSparse => 2,
    });
}

fn get_algo(d: &mut Dec) -> Result<AlgoSpec> {
    Ok(match d.u8()? {
        0 => AlgoSpec::List,
        1 => AlgoSpec::SparseDense,
        2 => AlgoSpec::SparseSparse,
        t => return Err(Error::transport(format!("unknown algorithm tag {t}"))),
    })
}

fn put_dmrg(e: &mut Enc, s: &DmrgJobSpec) {
    put_model(e, &s.model);
    put_algo(e, s.algo);
    e.put_u64s(&s.ms);
    e.put_u64(s.sweeps_per_m);
    e.put_f64(s.cutoff);
    e.put_f64(s.noise);
    e.put_u64(s.davidson.max_iter);
    e.put_u64(s.davidson.max_subspace);
    e.put_f64(s.davidson.tol);
    e.put_u64(s.davidson.seed);
    e.put_u64(s.timeout_ms);
    e.put_u64(s.resident_cap_bytes);
}

fn get_dmrg(d: &mut Dec) -> Result<DmrgJobSpec> {
    Ok(DmrgJobSpec {
        model: get_model(d)?,
        algo: get_algo(d)?,
        ms: d.u64s()?,
        sweeps_per_m: d.u64()?,
        cutoff: d.f64()?,
        noise: d.f64()?,
        davidson: DavidsonSpec {
            max_iter: d.u64()?,
            max_subspace: d.u64()?,
            tol: d.f64()?,
            seed: d.u64()?,
        },
        timeout_ms: d.u64()?,
        resident_cap_bytes: d.u64()?,
    })
}

fn put_meter(e: &mut Enc, m: &JobMeter) {
    e.put_u64(m.flops);
    e.put_u64(m.supersteps);
    e.put_u64(m.bytes_critical);
    e.put_u64(m.bytes_operands);
    e.put_u64(m.bytes_results);
    e.put_u64(m.bytes_recovery);
    e.put_f64(m.sim_seconds);
}

fn get_meter(d: &mut Dec) -> Result<JobMeter> {
    Ok(JobMeter {
        flops: d.u64()?,
        supersteps: d.u64()?,
        bytes_critical: d.u64()?,
        bytes_operands: d.u64()?,
        bytes_results: d.u64()?,
        bytes_recovery: d.u64()?,
        sim_seconds: d.f64()?,
    })
}

fn put_report(e: &mut Enc, r: &JobReport) {
    e.put_f64(r.energy);
    e.put_f64s(&r.energies);
    put_meter(e, &r.meter);
    e.put_u64(r.resident_peak_bytes);
}

fn get_report(d: &mut Dec) -> Result<JobReport> {
    Ok(JobReport {
        energy: d.f64()?,
        energies: d.f64s()?,
        meter: get_meter(d)?,
        resident_peak_bytes: d.u64()?,
    })
}

/// Ceiling on decoded per-rank stats counts.
const MAX_STATUS_RANKS: usize = 1 << 20;

fn put_status(e: &mut Enc, s: &StatusReport) {
    e.put_u64(s.queued);
    e.put_usize(s.running.len());
    for (job, sweeps) in &s.running {
        e.put_u64(*job);
        e.put_u64(*sweeps);
    }
    e.put_usize(s.fleet.len());
    for r in &s.fleet {
        e.put_u64(r.bytes);
        e.put_u64(r.entries);
        e.put_u64(r.hits);
        e.put_u64(r.misses);
    }
}

fn get_status(d: &mut Dec) -> Result<StatusReport> {
    let queued = d.u64()?;
    let n = d.usize()?;
    if n > MAX_STATUS_RANKS {
        return Err(Error::transport(format!("{n} running jobs")));
    }
    let mut running = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        running.push((d.u64()?, d.u64()?));
    }
    let n = d.usize()?;
    if n > MAX_STATUS_RANKS {
        return Err(Error::transport(format!("{n} fleet ranks")));
    }
    let mut fleet = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        fleet.push(RankCacheStats {
            bytes: d.u64()?,
            entries: d.u64()?,
            hits: d.u64()?,
            misses: d.u64()?,
        });
    }
    Ok(StatusReport {
        queued,
        running,
        fleet,
    })
}

impl JobRequest {
    /// Encode to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            JobRequest::SubmitDmrg(s) => {
                e.put_u8(0);
                put_dmrg(&mut e, s);
            }
            JobRequest::Cancel { job } => {
                e.put_u8(2);
                e.put_u64(*job);
            }
            JobRequest::Status => e.put_u8(3),
            JobRequest::Shutdown => e.put_u8(4),
        }
        e.finish()
    }

    /// Decode from the wire format. Tag 1, a retired job kind, stays
    /// unassigned, so a request under it fails typed instead of decoding
    /// as another request.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        Ok(match d.u8()? {
            0 => JobRequest::SubmitDmrg(get_dmrg(&mut d)?),
            2 => JobRequest::Cancel { job: d.u64()? },
            3 => JobRequest::Status,
            4 => JobRequest::Shutdown,
            op => return Err(Error::transport(format!("unknown request opcode {op}"))),
        })
    }
}

impl JobEvent {
    /// Encode to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            JobEvent::Accepted { job, ahead } => {
                e.put_u8(0);
                e.put_u64(*job);
                e.put_u64(*ahead);
            }
            JobEvent::Rejected { reason } => {
                e.put_u8(1);
                e.put_str(reason);
            }
            JobEvent::Started { job } => {
                e.put_u8(2);
                e.put_u64(*job);
            }
            JobEvent::Sweep {
                job,
                index,
                energy,
                max_bond,
            } => {
                e.put_u8(3);
                e.put_u64(*job);
                e.put_u64(*index);
                e.put_f64(*energy);
                e.put_u64(*max_bond);
            }
            JobEvent::Done { job, report } => {
                e.put_u8(4);
                e.put_u64(*job);
                put_report(&mut e, report);
            }
            JobEvent::Failed { job, reason } => {
                e.put_u8(5);
                e.put_u64(*job);
                e.put_str(reason);
            }
            JobEvent::Cancelled { job } => {
                e.put_u8(6);
                e.put_u64(*job);
            }
            JobEvent::Status(s) => {
                e.put_u8(7);
                put_status(&mut e, s);
            }
        }
        e.finish()
    }

    /// Decode from the wire format.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        Ok(match d.u8()? {
            0 => JobEvent::Accepted {
                job: d.u64()?,
                ahead: d.u64()?,
            },
            1 => JobEvent::Rejected { reason: d.str()? },
            2 => JobEvent::Started { job: d.u64()? },
            3 => JobEvent::Sweep {
                job: d.u64()?,
                index: d.u64()?,
                energy: d.f64()?,
                max_bond: d.u64()?,
            },
            4 => JobEvent::Done {
                job: d.u64()?,
                report: get_report(&mut d)?,
            },
            5 => JobEvent::Failed {
                job: d.u64()?,
                reason: d.str()?,
            },
            6 => JobEvent::Cancelled { job: d.u64()? },
            7 => JobEvent::Status(get_status(&mut d)?),
            op => return Err(Error::transport(format!("unknown event opcode {op}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_requests() -> Vec<JobRequest> {
        vec![
            JobRequest::SubmitDmrg(DmrgJobSpec {
                model: ModelSpec::HeisenbergChain { n: 8, j2: 0.5 },
                algo: AlgoSpec::SparseDense,
                ms: vec![8, 16, 32],
                sweeps_per_m: 2,
                cutoff: 1e-8,
                noise: 1e-5,
                davidson: DavidsonSpec {
                    max_iter: 4,
                    max_subspace: 8,
                    tol: 1e-9,
                    seed: 11,
                },
                timeout_ms: 30_000,
                resident_cap_bytes: 1 << 28,
            }),
            JobRequest::SubmitDmrg(DmrgJobSpec {
                model: ModelSpec::HubbardChain { n: 6, u: 8.5 },
                algo: AlgoSpec::SparseSparse,
                ms: vec![12],
                sweeps_per_m: 1,
                cutoff: 1e-13,
                noise: 0.0,
                davidson: DavidsonSpec {
                    max_iter: 2,
                    max_subspace: 4,
                    tol: 1e-10,
                    seed: 7,
                },
                timeout_ms: 0,
                resident_cap_bytes: 0,
            }),
            JobRequest::Cancel { job: 42 },
            JobRequest::Status,
            JobRequest::Shutdown,
        ]
    }

    fn sample_events() -> Vec<JobEvent> {
        vec![
            JobEvent::Accepted { job: 1, ahead: 3 },
            JobEvent::Rejected {
                reason: "queue full".into(),
            },
            JobEvent::Started { job: 1 },
            JobEvent::Sweep {
                job: 1,
                index: 2,
                energy: -3.736,
                max_bond: 16,
            },
            JobEvent::Done {
                job: 1,
                report: JobReport {
                    energy: -3.736,
                    energies: vec![-3.2, -3.7, -3.736],
                    meter: JobMeter {
                        flops: 123_456,
                        supersteps: 789,
                        bytes_critical: 4096,
                        bytes_operands: 2048,
                        bytes_results: 1024,
                        bytes_recovery: 0,
                        sim_seconds: 0.125,
                    },
                    resident_peak_bytes: 1 << 20,
                },
            },
            JobEvent::Failed {
                job: 2,
                reason: "worker died".into(),
            },
            JobEvent::Cancelled { job: 3 },
            JobEvent::Status(StatusReport {
                queued: 2,
                running: vec![(1, 4), (5, 0)],
                fleet: vec![RankCacheStats {
                    bytes: 4096,
                    entries: 7,
                    hits: 100,
                    misses: 9,
                }],
            }),
        ]
    }

    #[test]
    fn requests_and_events_roundtrip() {
        for req in sample_requests() {
            let back = JobRequest::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
        for ev in sample_events() {
            let back = JobEvent::decode(&ev.encode()).unwrap();
            assert_eq!(back, ev);
        }
    }

    /// A request under the retired tag 1 (the contraction-chain job), with
    /// a payload long enough for any fixed-width field a decoder could try
    /// to read.
    fn retired_request() -> Vec<u8> {
        std::iter::once(1).chain([0x11; 40]).collect()
    }

    /// Every sample encoded, requests then events, and the retired request.
    fn sample_frames() -> Vec<Vec<u8>> {
        let requests = sample_requests().into_iter().map(|r| r.encode());
        let events = sample_events().into_iter().map(|e| e.encode());
        requests.chain(events).chain([retired_request()]).collect()
    }

    #[test]
    fn retired_request_tag_decodes_to_a_typed_error() {
        let err = JobRequest::decode(&retired_request()).unwrap_err();
        assert!(err.as_fault().is_some(), "{err}");
        assert!(
            err.to_string().contains("unknown request opcode 1"),
            "{err}"
        );
    }

    #[test]
    fn truncated_messages_never_panic() {
        for bytes in sample_frames() {
            for cut in 0..bytes.len() {
                let _ = JobRequest::decode(&bytes[..cut]);
                let _ = JobEvent::decode(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn bit_flipped_messages_never_panic() {
        // deterministic xorshift — same harness as the worker-protocol
        // decoder fuzz
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let frames = sample_frames();
        for _ in 0..64 {
            for original in &frames {
                let mut bytes = original.clone();
                let flips = 1 + (next() as usize) % 4;
                for _ in 0..flips {
                    let pos = (next() as usize) % bytes.len();
                    bytes[pos] ^= (next() % 255 + 1) as u8;
                }
                let _ = JobRequest::decode(&bytes);
                let _ = JobEvent::decode(&bytes);
            }
        }
    }

    /// Arbitrary f64 bit patterns (including NaNs, infinities, -0.0).
    fn any_f64s(max: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(any::<u64>(), 0..max)
            .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect())
    }

    proptest! {
        /// Bit-exact roundtrip even for NaN payloads (re-encoded bytes
        /// compared, where PartialEq would lie).
        #[test]
        fn codec_is_bit_exact(
            energy_bits in any::<u64>(),
            energies in any_f64s(16),
            job in any::<u64>(),
        ) {
            let energy = f64::from_bits(energy_bits);
            let ev = JobEvent::Done {
                job,
                report: JobReport {
                    energy,
                    energies,
                    meter: JobMeter { sim_seconds: energy, ..JobMeter::default() },
                    resident_peak_bytes: job,
                },
            };
            let bytes = ev.encode();
            prop_assert_eq!(JobEvent::decode(&bytes).unwrap().encode(), bytes);
        }

        /// Pure garbage never panics either decoder.
        #[test]
        fn garbage_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = JobRequest::decode(&bytes);
            let _ = JobEvent::decode(&bytes);
        }
    }
}
