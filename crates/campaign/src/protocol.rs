//! The `GLVCMP01` campaign-fabric wire protocol.
//!
//! Frames ride the shared [`glaive_wire`] codec — `u32` length prefix,
//! 8-byte magic, opcode, body, trailing FNV-1a checksum — exactly like the
//! `GLVSRV01` inference protocol, so one audited framing layer covers both
//! services. Decoders never panic on foreign bytes: every malformed frame
//! maps to a typed [`ProtocolError`].
//!
//! The conversation is strictly worker-initiated request/response:
//!
//! ```text
//! worker                         coordinator
//!   Hello{name}              →
//!                            ←   Welcome{job}            (or Error)
//!   Fetch                    →
//!                            ←   Assign{chunk}/Wait/Done
//!   Heartbeat{chunk}         →
//!                            ←   Ack                     (lease extended)
//!   Complete{chunk,seed,recs}→
//!                            ←   Ack                     (or Error)
//! ```
//!
//! A [`CampaignJob`] ships everything a worker needs to *recompute the
//! coordinator's campaign plan from scratch* — program, input image,
//! campaign parameters — plus the plan fingerprint the worker must arrive
//! at independently. Records therefore never need golden-run context on
//! the wire, and a worker that would disagree about what any spec index
//! means refuses the job instead of corrupting the merge.

use glaive_faultsim::{BitSite, CampaignConfig, InjectionRecord};
use glaive_isa::Program;
use glaive_sim::{OperandSlot, Outcome};
use glaive_wire::Reader;

pub use glaive_wire::{
    fnv1a, read_frame, write_frame, Frame, FrameBuilder, ProtocolError, MAX_FRAME_LEN,
};

/// Magic + format version of every campaign-fabric frame.
pub const MAGIC: &[u8; 8] = b"GLVCMP01";

const NAME_CAP: usize = 1 << 12;
const MEM_CAP: usize = 1 << 22;
const RECORD_CAP: usize = 1 << 24;

/// Encoded size of one [`InjectionRecord`]: pc + slot tag + slot index +
/// bit + instance + outcome label.
const RECORD_LEN: usize = 8 + 1 + 8 + 1 + 8 + 1;

/// Everything a worker needs to reconstruct the campaign plan locally.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJob {
    /// Fingerprint of the coordinator's [`glaive_faultsim::CampaignPlan`];
    /// the worker recomputes its own plan and must arrive at this value.
    pub fingerprint: u64,
    /// Total fault specs in the campaign (cross-checked like the
    /// fingerprint).
    pub total: u64,
    /// The program under campaign.
    pub program: Program,
    /// Initial memory image.
    pub init_mem: Vec<u64>,
    /// Bit stride of the site enumeration.
    pub bit_stride: u64,
    /// Dynamic instances sampled per fault-site class.
    pub instances_per_site: u64,
    /// Hang-detection budget multiplier.
    pub hang_factor: u64,
    /// Whether dead-definition outcomes are statically predicted.
    pub predict_dead_defs: bool,
}

impl CampaignJob {
    /// The campaign configuration the worker must plan with. `threads` is
    /// pinned to 1: parallelism lives in the fleet, not inside a worker.
    pub(crate) fn config(&self) -> CampaignConfig {
        CampaignConfig {
            bit_stride: self.bit_stride as usize,
            instances_per_site: self.instances_per_site as usize,
            hang_factor: self.hang_factor,
            threads: 1,
            predict_dead_defs: self.predict_dead_defs,
        }
    }
}

/// One lease-bounded unit of work: a contiguous span of spec indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAssignment {
    /// Canonical chunk id (also its position in merge order).
    pub chunk: u64,
    /// First spec index of the chunk.
    pub start: u64,
    /// Number of specs in the chunk.
    pub len: u64,
    /// Sub-seed derived from the campaign fingerprint + chunk id; echoed
    /// back in [`ToCoordinator::Complete`] as a provenance token binding
    /// the completion to this campaign.
    pub sub_seed: u64,
    /// Lease duration: a chunk with no completion or heartbeat within
    /// this window is reassigned.
    pub lease_ms: u64,
}

/// A worker→coordinator frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoordinator {
    /// Registration: first frame on every connection.
    Hello {
        /// Worker display name (diagnostics only).
        worker: String,
    },
    /// Request a chunk assignment.
    Fetch,
    /// Keep-alive for a long-running chunk; extends its lease.
    Heartbeat {
        /// The chunk still being computed.
        chunk: u64,
    },
    /// A finished chunk: one record per spec index in `chunk`, in spec
    /// order.
    Complete {
        /// The chunk these records cover.
        chunk: u64,
        /// Echo of the assignment's sub-seed (provenance check).
        sub_seed: u64,
        /// One record per spec of the chunk, in canonical spec order.
        records: Vec<InjectionRecord>,
    },
}

/// A coordinator→worker frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// Reply to [`ToCoordinator::Hello`]: the job description.
    Welcome(CampaignJob),
    /// Reply to [`ToCoordinator::Fetch`]: a chunk to compute.
    Assign(ChunkAssignment),
    /// Reply to [`ToCoordinator::Fetch`] when every remaining chunk is
    /// leased out: retry after `retry_ms`.
    Wait {
        /// Suggested backoff before the next `Fetch`.
        retry_ms: u64,
    },
    /// Reply to [`ToCoordinator::Fetch`] once the campaign is complete:
    /// the worker may disconnect.
    Done,
    /// Positive acknowledgement of a heartbeat or completion.
    Ack,
    /// The request was rejected (mismatched campaign, malformed chunk,
    /// coordinator shutting down). The connection stays usable.
    Error {
        /// Human-readable rejection detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const OP_HELLO: u8 = 0x01;
const OP_FETCH: u8 = 0x02;
const OP_HEARTBEAT: u8 = 0x03;
const OP_COMPLETE: u8 = 0x04;
const OP_R_WELCOME: u8 = 0x81;
const OP_R_ASSIGN: u8 = 0x82;
const OP_R_WAIT: u8 = 0x83;
const OP_R_DONE: u8 = 0x84;
const OP_R_ACK: u8 = 0x85;
const OP_R_ERROR: u8 = 0xff;

/// Validates the `GLVCMP01` magic and checksum, returning a reader over
/// the body (opcode onwards).
fn open(payload: &[u8]) -> Result<Reader<'_>, ProtocolError> {
    glaive_wire::open(payload, MAGIC)
}

fn put_record(b: &mut FrameBuilder, rec: &InjectionRecord) {
    b.u64(rec.site.pc as u64);
    match rec.site.slot {
        OperandSlot::Use(i) => b.u8(0).u64(i as u64),
        OperandSlot::Def(i) => b.u8(1).u64(i as u64),
    };
    b.u8(rec.site.bit)
        .u64(rec.instance)
        .u8(rec.outcome.label() as u8);
}

fn read_record(r: &mut Reader<'_>) -> Result<InjectionRecord, ProtocolError> {
    let pc = usize::try_from(r.u64()?).map_err(|_| ProtocolError::Corrupt("pc overflows usize"))?;
    let tag = r.u8()?;
    let idx =
        usize::try_from(r.u64()?).map_err(|_| ProtocolError::Corrupt("slot overflows usize"))?;
    let slot = match tag {
        0 => OperandSlot::Use(idx),
        1 => OperandSlot::Def(idx),
        _ => return Err(ProtocolError::Corrupt("unknown operand-slot tag")),
    };
    let bit = r.u8()?;
    let instance = r.u64()?;
    let outcome = Outcome::from_label(r.u8()? as usize)
        .ok_or(ProtocolError::Corrupt("unknown outcome label"))?;
    Ok(InjectionRecord {
        site: BitSite { pc, slot, bit },
        instance,
        outcome,
    })
}

impl ToCoordinator {
    /// Serialises into a sealed [`Frame`] ([`write_frame`] adds the
    /// length prefix).
    pub fn to_frame(&self) -> Frame {
        let mut b = FrameBuilder::new(MAGIC);
        match self {
            ToCoordinator::Hello { worker } => {
                b.u8(OP_HELLO).str(worker);
            }
            ToCoordinator::Fetch => {
                b.u8(OP_FETCH);
            }
            ToCoordinator::Heartbeat { chunk } => {
                b.u8(OP_HEARTBEAT).u64(*chunk);
            }
            ToCoordinator::Complete {
                chunk,
                sub_seed,
                records,
            } => {
                b.u8(OP_COMPLETE)
                    .u64(*chunk)
                    .u64(*sub_seed)
                    .u32(records.len() as u32);
                for rec in records {
                    put_record(&mut b, rec);
                }
            }
        }
        b.seal()
    }

    /// Decodes a sealed worker→coordinator payload.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for anything that is not an intact
    /// current-version frame.
    pub fn from_frame(payload: &[u8]) -> Result<ToCoordinator, ProtocolError> {
        let mut r = open(payload)?;
        let msg = match r.u8()? {
            OP_HELLO => ToCoordinator::Hello {
                worker: r.string(NAME_CAP)?,
            },
            OP_FETCH => ToCoordinator::Fetch,
            OP_HEARTBEAT => ToCoordinator::Heartbeat { chunk: r.u64()? },
            OP_COMPLETE => {
                let chunk = r.u64()?;
                let sub_seed = r.u64()?;
                let count = r.u32()? as usize;
                if count > RECORD_CAP {
                    return Err(ProtocolError::Corrupt("record count exceeds cap"));
                }
                let mut records = Vec::with_capacity(count.min(r.remaining() / RECORD_LEN + 1));
                for _ in 0..count {
                    records.push(read_record(&mut r)?);
                }
                ToCoordinator::Complete {
                    chunk,
                    sub_seed,
                    records,
                }
            }
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl ToWorker {
    /// Serialises into a sealed [`Frame`] ([`write_frame`] adds the
    /// length prefix).
    pub fn to_frame(&self) -> Frame {
        let mut b = FrameBuilder::new(MAGIC);
        match self {
            ToWorker::Welcome(job) => {
                b.u8(OP_R_WELCOME)
                    .u64(job.fingerprint)
                    .u64(job.total)
                    .u64(job.bit_stride)
                    .u64(job.instances_per_site)
                    .u64(job.hang_factor)
                    .u8(job.predict_dead_defs as u8)
                    .program(&job.program)
                    .u32(job.init_mem.len() as u32);
                for &w in &job.init_mem {
                    b.u64(w);
                }
            }
            ToWorker::Assign(a) => {
                b.u8(OP_R_ASSIGN)
                    .u64(a.chunk)
                    .u64(a.start)
                    .u64(a.len)
                    .u64(a.sub_seed)
                    .u64(a.lease_ms);
            }
            ToWorker::Wait { retry_ms } => {
                b.u8(OP_R_WAIT).u64(*retry_ms);
            }
            ToWorker::Done => {
                b.u8(OP_R_DONE);
            }
            ToWorker::Ack => {
                b.u8(OP_R_ACK);
            }
            ToWorker::Error { message } => {
                b.u8(OP_R_ERROR).str(message);
            }
        }
        b.seal()
    }

    /// Decodes a sealed coordinator→worker payload.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for anything that is not an intact
    /// current-version frame.
    pub fn from_frame(payload: &[u8]) -> Result<ToWorker, ProtocolError> {
        let mut r = open(payload)?;
        let msg = match r.u8()? {
            OP_R_WELCOME => {
                let fingerprint = r.u64()?;
                let total = r.u64()?;
                let bit_stride = r.u64()?;
                let instances_per_site = r.u64()?;
                let hang_factor = r.u64()?;
                let predict_dead_defs = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtocolError::Corrupt("bad predict flag")),
                };
                let program = r.program()?;
                let words = r.counted(8)?;
                if words > MEM_CAP {
                    return Err(ProtocolError::Corrupt("memory image exceeds cap"));
                }
                let mut init_mem = Vec::with_capacity(words);
                for _ in 0..words {
                    init_mem.push(r.u64()?);
                }
                ToWorker::Welcome(CampaignJob {
                    fingerprint,
                    total,
                    program,
                    init_mem,
                    bit_stride,
                    instances_per_site,
                    hang_factor,
                    predict_dead_defs,
                })
            }
            OP_R_ASSIGN => ToWorker::Assign(ChunkAssignment {
                chunk: r.u64()?,
                start: r.u64()?,
                len: r.u64()?,
                sub_seed: r.u64()?,
                lease_ms: r.u64()?,
            }),
            OP_R_WAIT => ToWorker::Wait { retry_ms: r.u64()? },
            OP_R_DONE => ToWorker::Done,
            OP_R_ACK => ToWorker::Ack,
            OP_R_ERROR => ToWorker::Error {
                message: r.string(1 << 16)?,
            },
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// The per-chunk RNG sub-seed: a SplitMix64 finalisation of the campaign
/// fingerprint and the chunk id.
///
/// Both sides derive it independently — the coordinator stamps it on the
/// assignment and validates the echo in every completion, so a completion
/// can only merge into the campaign whose plan produced it. (Injection
/// simulation is currently fully deterministic; the sub-seed reserves the
/// seeding discipline for future stochastic sampling without a protocol
/// bump.)
pub fn chunk_sub_seed(fingerprint: u64, chunk: u64) -> u64 {
    let mut z = fingerprint ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_isa::{AluOp, Asm, Reg};

    fn tiny_program() -> Program {
        let mut asm = Asm::new("tiny");
        asm.set_mem_words(4);
        asm.li(Reg(1), 7)
            .alu_imm(AluOp::Add, Reg(2), Reg(1), 3)
            .store(Reg(2), Reg(0), 0)
            .out(Reg(2))
            .halt();
        asm.finish().expect("assembles")
    }

    fn sample_records() -> Vec<InjectionRecord> {
        vec![
            InjectionRecord {
                site: BitSite {
                    pc: 0,
                    slot: OperandSlot::Def(0),
                    bit: 3,
                },
                instance: 0,
                outcome: Outcome::Masked,
            },
            InjectionRecord {
                site: BitSite {
                    pc: 2,
                    slot: OperandSlot::Use(1),
                    bit: 63,
                },
                instance: 9,
                outcome: Outcome::Crash,
            },
        ]
    }

    fn sample_to_coordinator() -> Vec<ToCoordinator> {
        vec![
            ToCoordinator::Hello {
                worker: "w0".into(),
            },
            ToCoordinator::Fetch,
            ToCoordinator::Heartbeat { chunk: 5 },
            ToCoordinator::Complete {
                chunk: 5,
                sub_seed: 0xdead_beef,
                records: sample_records(),
            },
        ]
    }

    fn sample_to_worker() -> Vec<ToWorker> {
        vec![
            ToWorker::Welcome(CampaignJob {
                fingerprint: 0x1234_5678_9abc_def0,
                total: 1024,
                program: tiny_program(),
                init_mem: vec![1, 2, 3],
                bit_stride: 8,
                instances_per_site: 1,
                hang_factor: 4,
                predict_dead_defs: true,
            }),
            ToWorker::Assign(ChunkAssignment {
                chunk: 3,
                start: 192,
                len: 64,
                sub_seed: 42,
                lease_ms: 5000,
            }),
            ToWorker::Wait { retry_ms: 25 },
            ToWorker::Done,
            ToWorker::Ack,
            ToWorker::Error {
                message: "wrong campaign".into(),
            },
        ]
    }

    #[test]
    fn worker_frames_roundtrip() {
        for msg in sample_to_coordinator() {
            let frame = msg.to_frame();
            assert_eq!(
                ToCoordinator::from_frame(frame.bytes()).expect("roundtrip"),
                msg
            );
        }
    }

    #[test]
    fn coordinator_frames_roundtrip() {
        for msg in sample_to_worker() {
            let frame = msg.to_frame();
            assert_eq!(ToWorker::from_frame(frame.bytes()).expect("roundtrip"), msg);
        }
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let frame = ToCoordinator::Fetch.to_frame();
        assert_eq!(
            ToWorker::from_frame(&frame.bytes()[..7]),
            Err(ProtocolError::Truncated)
        );
        // A GLVSRV01-style prefix is a different protocol, not garbage.
        let mut other = frame.into_bytes();
        other[..8].copy_from_slice(b"GLVSRV01");
        assert_eq!(
            ToCoordinator::from_frame(&other),
            Err(ProtocolError::BadMagic)
        );
    }

    #[test]
    fn dangling_branch_target_in_welcome_is_typed_error() {
        let mut b = FrameBuilder::new(MAGIC);
        b.u8(OP_R_WELCOME);
        for v in [1u64, 128, 8, 1, 4] {
            b.u64(v);
        }
        b.u8(1) // predict_dead_defs
            .str("evil")
            .u64(4) // mem_words
            .u32(1) // instruction count
            .raw(&glaive_isa::Instr::Jump { target: 1000 }.encode())
            .u32(0); // init_mem
        let frame = b.seal();
        assert_eq!(
            ToWorker::from_frame(frame.bytes()),
            Err(ProtocolError::Corrupt("invalid program"))
        );
    }

    /// A worker allocates a `Welcome` program's declared memory for its
    /// campaign, so the decoder caps it before anything is allocated.
    #[test]
    fn oversized_declared_memory_in_welcome_is_typed_error() {
        let frame = |mem_words: u64| {
            let mut b = FrameBuilder::new(MAGIC);
            b.u8(OP_R_WELCOME);
            for v in [1u64, 128, 8, 1, 4] {
                b.u64(v);
            }
            b.u8(1) // predict_dead_defs
                .str("huge")
                .u64(mem_words)
                .u32(1) // instruction count
                .raw(&glaive_isa::Instr::Halt.encode())
                .u32(0); // init_mem
            ToWorker::from_frame(b.seal().bytes())
        };
        assert!(frame(1 << 22).is_ok(), "the cap itself is accepted");
        for mem_words in [(1 << 22) + 1, 1 << 40, u64::MAX] {
            assert_eq!(
                frame(mem_words),
                Err(ProtocolError::Corrupt("mem_words exceeds cap")),
                "{mem_words}"
            );
        }
    }

    #[test]
    fn sub_seed_depends_on_fingerprint_and_chunk() {
        let a = chunk_sub_seed(1, 0);
        let b = chunk_sub_seed(1, 1);
        let c = chunk_sub_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, chunk_sub_seed(1, 0), "deterministic");
    }
}
