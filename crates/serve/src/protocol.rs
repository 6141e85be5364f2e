//! The `GLVSRV02` wire protocol: length-prefixed, checksummed binary
//! frames, in the same little-endian magic/version discipline as the
//! `GLVFIT01` ground-truth and `GLVCKPT1` checkpoint formats. (Version 02
//! added the typed [`Response::Busy`] admission-control rejection and the
//! serving-pressure stats counters; per the versioning discipline the
//! magic's trailing digit was bumped, so 01 peers are rejected with
//! [`ProtocolError::BadMagic`] instead of mis-decoding.)
//!
//! The framing itself — length prefix, trailing FNV-1a checksum, typed
//! [`ProtocolError`] decode failures — lives in the shared [`glaive_wire`]
//! codec (also used by the `GLVCMP01` campaign-fabric protocol); this
//! module owns the `GLVSRV02` magic, opcodes and body layouts. The
//! framing-layer names ([`ProtocolError`], [`fnv1a`], [`read_frame`],
//! [`write_frame`], [`MAX_FRAME_LEN`]) are re-exported here so existing
//! callers are unaffected by the split.
//!
//! On the wire every frame is a `u32` payload length followed by the
//! payload. A payload is
//!
//! ```text
//! magic "GLVSRV02" (8) | opcode (1) | body (…) | FNV-1a over all prior bytes (8)
//! ```
//!
//! The trailing checksum covers the magic, opcode and body, so *any*
//! single-byte corruption is rejected: each FNV-1a step is a bijection of
//! the hash state, hence a changed byte always changes the final digest.
//! Decoders never panic on foreign bytes — every malformed frame maps to a
//! typed [`ProtocolError`].
//!
//! Multi-byte integers are little-endian throughout; strings are
//! length-prefixed UTF-8; probabilities travel as `f32` bit patterns, so a
//! response is bit-identical to the server-side computation.

use std::fmt;

use glaive_isa::Program;
use glaive_wire::Reader;

pub use glaive_wire::{
    fnv1a, read_frame, write_frame, Frame, FrameBuilder, ProtocolError, MAX_FRAME_LEN,
};

/// Magic + format version of every frame. Bump the trailing digit on any
/// layout change: decoders reject other versions with
/// [`ProtocolError::BadMagic`].
pub const MAGIC: &[u8; 8] = b"GLVSRV02";

const NAME_CAP: usize = 1 << 12;

/// How a request names the program to estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpec {
    /// A benchmark of the built-in suite, compiled server-side with the
    /// given input seed.
    Suite {
        /// Benchmark name (`glaive-cli list`).
        name: String,
        /// Input-generation seed.
        seed: u64,
    },
    /// A client-compiled program shipped as encoded instructions.
    Raw(Program),
}

impl ProgramSpec {
    /// The program name a response/telemetry line refers to.
    pub fn name(&self) -> &str {
        match self {
            ProgramSpec::Suite { name, .. } => name,
            ProgramSpec::Raw(p) => p.name(),
        }
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Estimate per-instruction vulnerability for one program.
    Predict {
        /// The program to estimate.
        spec: ProgramSpec,
        /// CDFG bit stride (must be within `1..=WORD_BITS`, and should
        /// match the stride the served model was trained at).
        stride: u32,
        /// How many top-ranked PCs to return as the protection set.
        top_k: u32,
        /// Also return the raw per-bit-node class probabilities (used by
        /// differential tests; larger frames).
        want_bits: bool,
    },
    /// Select a protection set under a cycle-overhead budget: rank the
    /// program's instructions by estimated vulnerability, cost each by its
    /// golden-run cycle share under the in-order timing model, and greedily
    /// maximise covered vulnerability subject to the budget (deterministic
    /// density order, ties broken by ascending PC).
    Budget {
        /// The program to protect.
        spec: ProgramSpec,
        /// CDFG bit stride, as for [`Request::Predict`].
        stride: u32,
        /// Protection budget as a percentage of the program's golden-run
        /// cycles (e.g. 5 ⇒ the selected instructions' cycles may total up
        /// to 5% of total cycles).
        overhead_pct: u32,
    },
    /// Read the server's counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting work and exit its run loop.
    Shutdown,
}

/// Per-instruction estimate: `[crash, sdc, masked]` class probabilities.
pub type WireTuple = [f32; 3];

/// The body of a successful predict response.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReply {
    /// One entry per PC; `None` where the program has no CDFG nodes
    /// (operand-less instructions have nothing to estimate).
    pub tuples: Vec<Option<WireTuple>>,
    /// The top-K protection set: PCs in descending severity order.
    pub top_k: Vec<u32>,
    /// Bit-level CDFG nodes the estimate aggregated over.
    pub node_count: u32,
    /// How many requests were drained together with this one (≥ 1).
    pub batch_size: u32,
    /// Per-node class probability rows, when the request set `want_bits`.
    pub bit_probs: Option<Vec<WireTuple>>,
}

/// One instruction picked (or considered) by the budgeted selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetItem {
    /// Program counter of the protected instruction.
    pub pc: u32,
    /// Its protection cost: golden-run cycles spent at this PC under the
    /// in-order timing model.
    pub cycles: u64,
    /// Its estimated vulnerability score (the model ranking key
    /// `2·crash + sdc`).
    pub score: f32,
}

/// The body of a successful budget response.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReply {
    /// The selected protection set, in pick (descending density) order.
    pub items: Vec<BudgetItem>,
    /// Bit-level CDFG nodes the estimate aggregated over.
    pub node_count: u32,
    /// How many requests were drained together with this one (≥ 1).
    pub batch_size: u32,
    /// Golden-run total cycles of the program.
    pub total_cycles: u64,
    /// The cycle budget derived from the requested overhead percentage.
    pub budget_cycles: u64,
    /// Cycles actually spent by the selected set (≤ `budget_cycles`).
    pub spent_cycles: u64,
    /// Summed vulnerability score covered by the selection.
    pub covered: f32,
}

/// Server counters, as returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Total frames served (all kinds).
    pub requests: u64,
    /// Predict requests served.
    pub predictions: u64,
    /// Batches drained (each runs one forward pass per request).
    pub batches: u64,
    /// Most requests drained together so far.
    pub peak_batch: u64,
    /// Graph-cache hits.
    pub cache_hits: u64,
    /// Graph-cache misses (CDFG built from scratch).
    pub cache_misses: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Predict requests turned away with [`Response::Busy`] because the
    /// admission queue was full.
    pub busy_rejections: u64,
    /// Connections cut off for stalling mid-frame or mid-flush past the
    /// server's stall deadline.
    pub stall_evictions: u64,
    /// High-water mark of admitted-but-unanswered predict requests.
    pub queue_depth_max: u64,
}

/// Why the server rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame decoded but the request is invalid.
    BadRequest,
    /// No suite benchmark has the requested name.
    UnknownBenchmark,
    /// The stride falls outside the CDFG's valid range.
    BadStride,
    /// The served model cannot estimate this input.
    ModelMismatch,
    /// The server is draining; retry against a fresh instance.
    ShuttingDown,
    /// An internal failure (the request may be fine).
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::UnknownBenchmark => 2,
            ErrorCode::BadStride => 3,
            ErrorCode::ModelMismatch => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_byte(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::UnknownBenchmark,
            3 => ErrorCode::BadStride,
            4 => ErrorCode::ModelMismatch,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadRequest => "bad request",
            ErrorCode::UnknownBenchmark => "unknown benchmark",
            ErrorCode::BadStride => "bad stride",
            ErrorCode::ModelMismatch => "model mismatch",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(name)
    }
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful prediction.
    Predict(PredictReply),
    /// A successful budgeted protection-set selection.
    Budget(BudgetReply),
    /// Server counters.
    Stats(StatsReply),
    /// Reply to [`Request::Ping`].
    Pong,
    /// The server accepted the shutdown and is draining.
    ShutdownAck,
    /// Admission control turned the predict request away: the bounded
    /// request queue is full, and queueing further would only grow tail
    /// latency without bound. Not an error — the request was never
    /// admitted, and the connection stays healthy. Retry after the hint.
    Busy {
        /// Server-suggested delay before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The request was rejected.
    Error {
        /// Machine-readable rejection class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

const OP_PREDICT: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_BUDGET: u8 = 0x05;
const OP_R_PREDICT: u8 = 0x81;
const OP_R_STATS: u8 = 0x82;
const OP_R_PONG: u8 = 0x83;
const OP_R_SHUTDOWN: u8 = 0x84;
const OP_R_BUSY: u8 = 0x85;
const OP_R_BUDGET: u8 = 0x86;
const OP_R_ERROR: u8 = 0xff;

/// Validates the `GLVSRV02` magic and checksum, returning a reader over
/// the body (opcode onwards).
fn open(payload: &[u8]) -> Result<Reader<'_>, ProtocolError> {
    glaive_wire::open(payload, MAGIC)
}

fn encode_spec(b: &mut FrameBuilder, spec: &ProgramSpec) {
    match spec {
        ProgramSpec::Suite { name, seed } => {
            b.u8(0).str(name).u64(*seed);
        }
        ProgramSpec::Raw(program) => {
            b.u8(1).program(program);
        }
    }
}

impl Request {
    /// Serialises the request into a sealed [`Frame`] (length prefix not
    /// included — [`write_frame`] adds it).
    pub fn to_frame(&self) -> Frame {
        let mut b = FrameBuilder::new(MAGIC);
        match self {
            Request::Predict {
                spec,
                stride,
                top_k,
                want_bits,
            } => {
                b.u8(OP_PREDICT)
                    .u32(*stride)
                    .u32(*top_k)
                    .u8(*want_bits as u8);
                encode_spec(&mut b, spec);
            }
            Request::Budget {
                spec,
                stride,
                overhead_pct,
            } => {
                b.u8(OP_BUDGET).u32(*stride).u32(*overhead_pct);
                encode_spec(&mut b, spec);
            }
            Request::Stats => {
                b.u8(OP_STATS);
            }
            Request::Ping => {
                b.u8(OP_PING);
            }
            Request::Shutdown => {
                b.u8(OP_SHUTDOWN);
            }
        }
        b.seal()
    }

    /// Decodes a sealed request payload (raw wire bytes).
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for anything that is not an intact
    /// current-version request frame.
    pub fn from_frame(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = open(payload)?;
        let req = match r.u8()? {
            OP_PREDICT => {
                let stride = r.u32()?;
                let top_k = r.u32()?;
                let want_bits = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtocolError::Corrupt("bad want_bits flag")),
                };
                let spec = decode_spec(&mut r)?;
                Request::Predict {
                    spec,
                    stride,
                    top_k,
                    want_bits,
                }
            }
            OP_BUDGET => {
                let stride = r.u32()?;
                let overhead_pct = r.u32()?;
                let spec = decode_spec(&mut r)?;
                Request::Budget {
                    spec,
                    stride,
                    overhead_pct,
                }
            }
            OP_STATS => Request::Stats,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

fn decode_spec(r: &mut Reader<'_>) -> Result<ProgramSpec, ProtocolError> {
    match r.u8()? {
        0 => {
            let name = r.string(NAME_CAP)?;
            let seed = r.u64()?;
            Ok(ProgramSpec::Suite { name, seed })
        }
        1 => Ok(ProgramSpec::Raw(r.program()?)),
        _ => Err(ProtocolError::Corrupt("bad program-spec tag")),
    }
}

impl Response {
    /// Serialises the response into a sealed [`Frame`].
    pub fn to_frame(&self) -> Frame {
        let mut b = FrameBuilder::new(MAGIC);
        match self {
            Response::Predict(p) => {
                b.u8(OP_R_PREDICT)
                    .u32(p.node_count)
                    .u32(p.batch_size)
                    .u32(p.tuples.len() as u32);
                for t in &p.tuples {
                    match t {
                        Some([c, s, m]) => {
                            b.u8(1).f32(*c).f32(*s).f32(*m);
                        }
                        None => {
                            b.u8(0).raw(&[0u8; 12]);
                        }
                    }
                }
                b.u32(p.top_k.len() as u32);
                for &pc in &p.top_k {
                    b.u32(pc);
                }
                match &p.bit_probs {
                    None => {
                        b.u8(0);
                    }
                    Some(rows) => {
                        b.u8(1).u32(rows.len() as u32);
                        for [c, s, m] in rows {
                            b.f32(*c).f32(*s).f32(*m);
                        }
                    }
                }
            }
            Response::Budget(p) => {
                b.u8(OP_R_BUDGET)
                    .u32(p.node_count)
                    .u32(p.batch_size)
                    .u64(p.total_cycles)
                    .u64(p.budget_cycles)
                    .u64(p.spent_cycles)
                    .f32(p.covered)
                    .u32(p.items.len() as u32);
                for item in &p.items {
                    b.u32(item.pc).u64(item.cycles).f32(item.score);
                }
            }
            Response::Stats(s) => {
                b.u8(OP_R_STATS);
                for v in [
                    s.requests,
                    s.predictions,
                    s.batches,
                    s.peak_batch,
                    s.cache_hits,
                    s.cache_misses,
                    s.errors,
                    s.busy_rejections,
                    s.stall_evictions,
                    s.queue_depth_max,
                ] {
                    b.u64(v);
                }
            }
            Response::Pong => {
                b.u8(OP_R_PONG);
            }
            Response::ShutdownAck => {
                b.u8(OP_R_SHUTDOWN);
            }
            Response::Busy { retry_after_ms } => {
                b.u8(OP_R_BUSY).u32(*retry_after_ms);
            }
            Response::Error { code, message } => {
                b.u8(OP_R_ERROR).u8(code.to_byte()).str(message);
            }
        }
        b.seal()
    }

    /// Decodes a sealed response payload.
    ///
    /// # Errors
    ///
    /// A typed [`ProtocolError`] for anything that is not an intact
    /// current-version response frame.
    pub fn from_frame(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = open(payload)?;
        let resp = match r.u8()? {
            OP_R_PREDICT => {
                let node_count = r.u32()?;
                let batch_size = r.u32()?;
                let pcs = r.counted(13)?;
                let mut tuples = Vec::with_capacity(pcs);
                for _ in 0..pcs {
                    let present = r.u8()?;
                    let c = r.f32()?;
                    let s = r.f32()?;
                    let m = r.f32()?;
                    tuples.push(match present {
                        0 => None,
                        1 => Some([c, s, m]),
                        _ => return Err(ProtocolError::Corrupt("bad tuple flag")),
                    });
                }
                let k = r.counted(4)?;
                let mut top_k = Vec::with_capacity(k);
                for _ in 0..k {
                    top_k.push(r.u32()?);
                }
                let bit_probs = match r.u8()? {
                    0 => None,
                    1 => {
                        let n = r.counted(12)?;
                        let mut rows = Vec::with_capacity(n);
                        for _ in 0..n {
                            rows.push([r.f32()?, r.f32()?, r.f32()?]);
                        }
                        Some(rows)
                    }
                    _ => return Err(ProtocolError::Corrupt("bad bit-probs flag")),
                };
                Response::Predict(PredictReply {
                    tuples,
                    top_k,
                    node_count,
                    batch_size,
                    bit_probs,
                })
            }
            OP_R_BUDGET => {
                let node_count = r.u32()?;
                let batch_size = r.u32()?;
                let total_cycles = r.u64()?;
                let budget_cycles = r.u64()?;
                let spent_cycles = r.u64()?;
                let covered = r.f32()?;
                let n = r.counted(16)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(BudgetItem {
                        pc: r.u32()?,
                        cycles: r.u64()?,
                        score: r.f32()?,
                    });
                }
                Response::Budget(BudgetReply {
                    items,
                    node_count,
                    batch_size,
                    total_cycles,
                    budget_cycles,
                    spent_cycles,
                    covered,
                })
            }
            OP_R_STATS => Response::Stats(StatsReply {
                requests: r.u64()?,
                predictions: r.u64()?,
                batches: r.u64()?,
                peak_batch: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                errors: r.u64()?,
                busy_rejections: r.u64()?,
                stall_evictions: r.u64()?,
                queue_depth_max: r.u64()?,
            }),
            OP_R_PONG => Response::Pong,
            OP_R_SHUTDOWN => Response::ShutdownAck,
            OP_R_BUSY => Response::Busy {
                retry_after_ms: r.u32()?,
            },
            OP_R_ERROR => {
                let code = ErrorCode::from_byte(r.u8()?)
                    .ok_or(ProtocolError::Corrupt("unknown error code"))?;
                let message = r.string(1 << 16)?;
                Response::Error { code, message }
            }
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
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

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Predict {
                spec: ProgramSpec::Suite {
                    name: "dijkstra".into(),
                    seed: 7,
                },
                stride: 8,
                top_k: 10,
                want_bits: false,
            },
            Request::Predict {
                spec: ProgramSpec::Raw(tiny_program()),
                stride: 16,
                top_k: 3,
                want_bits: true,
            },
            Request::Budget {
                spec: ProgramSpec::Suite {
                    name: "lu".into(),
                    seed: 7,
                },
                stride: 8,
                overhead_pct: 5,
            },
            Request::Budget {
                spec: ProgramSpec::Raw(tiny_program()),
                stride: 16,
                overhead_pct: 50,
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Predict(PredictReply {
                tuples: vec![Some([0.25, 0.5, 0.25]), None, Some([0.0, 0.0, 1.0])],
                top_k: vec![2, 0],
                node_count: 40,
                batch_size: 3,
                bit_probs: Some(vec![[0.1, 0.2, 0.7], [0.9, 0.05, 0.05]]),
            }),
            Response::Budget(BudgetReply {
                items: vec![
                    BudgetItem {
                        pc: 3,
                        cycles: 40,
                        score: 1.5,
                    },
                    BudgetItem {
                        pc: 0,
                        cycles: 12,
                        score: 0.25,
                    },
                ],
                node_count: 40,
                batch_size: 1,
                total_cycles: 1000,
                budget_cycles: 50,
                spent_cycles: 48,
                covered: 1.75,
            }),
            Response::Budget(BudgetReply {
                items: Vec::new(),
                node_count: 7,
                batch_size: 2,
                total_cycles: 64,
                budget_cycles: 0,
                spent_cycles: 0,
                covered: 0.0,
            }),
            Response::Stats(StatsReply {
                requests: 10,
                predictions: 7,
                batches: 3,
                peak_batch: 4,
                cache_hits: 5,
                cache_misses: 2,
                errors: 1,
                busy_rejections: 6,
                stall_evictions: 1,
                queue_depth_max: 9,
            }),
            Response::Pong,
            Response::ShutdownAck,
            Response::Busy { retry_after_ms: 25 },
            Response::Error {
                code: ErrorCode::UnknownBenchmark,
                message: "no benchmark `nope`".into(),
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let frame = req.to_frame();
            assert_eq!(Request::from_frame(frame.bytes()).expect("roundtrip"), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let frame = resp.to_frame();
            assert_eq!(
                Response::from_frame(frame.bytes()).expect("roundtrip"),
                resp
            );
        }
    }

    #[test]
    fn stream_framing_roundtrips() {
        let mut wire = Vec::new();
        let frames: Vec<Frame> = sample_requests().iter().map(Request::to_frame).collect();
        for f in &frames {
            write_frame(&mut wire, f).expect("write");
        }
        let mut cursor = &wire[..];
        for f in &frames {
            assert_eq!(read_frame(&mut cursor).expect("read"), f.bytes());
        }
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Io(_))));
    }

    #[test]
    fn dangling_branch_target_is_a_typed_error_not_a_panic() {
        // `Instr` itself places no bound on targets, so a well-formed,
        // correctly checksummed frame can ship a jump past the program end.
        // Build such a frame by hand (Request::to_frame can't — a Program
        // with a dangling target is unconstructible).
        let mut b = FrameBuilder::new(MAGIC);
        b.u8(OP_PREDICT)
            .u32(8) // stride
            .u32(4) // top_k
            .u8(0) // want_bits
            .u8(1) // ProgramSpec::Raw tag
            .str("evil")
            .u64(4) // mem_words
            .u32(1) // instruction count
            .raw(&glaive_isa::Instr::Jump { target: 1000 }.encode());
        let frame = b.seal();
        assert_eq!(
            Request::from_frame(frame.bytes()),
            Err(ProtocolError::Corrupt("invalid program"))
        );
    }

    /// A `Raw` program's declared memory is allocated by the golden run a
    /// budget query starts, so the decoder caps it before anything is
    /// allocated.
    #[test]
    fn oversized_declared_memory_is_a_typed_error() {
        let frame = |mem_words: u64| {
            let mut b = FrameBuilder::new(MAGIC);
            b.u8(OP_PREDICT)
                .u32(8) // stride
                .u32(4) // top_k
                .u8(0) // want_bits
                .u8(1) // ProgramSpec::Raw tag
                .str("huge")
                .u64(mem_words)
                .u32(1) // instruction count
                .raw(&glaive_isa::Instr::Halt.encode());
            Request::from_frame(b.seal().bytes())
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
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        assert_eq!(
            read_frame(&mut &wire[..]),
            Err(ProtocolError::FrameTooLarge(u32::MAX))
        );
    }

    #[test]
    fn foreign_and_tampered_payloads_are_typed_errors() {
        assert_eq!(Request::from_frame(b"short"), Err(ProtocolError::Truncated));
        assert_eq!(
            Request::from_frame(b"NOTSRV01................"),
            Err(ProtocolError::BadMagic)
        );
        let mut wrong = Request::Stats.to_frame().into_bytes();
        let body_pos = MAGIC.len();
        wrong[body_pos] ^= 0x40;
        assert_eq!(Request::from_frame(&wrong), Err(ProtocolError::Checksum));
    }
}
