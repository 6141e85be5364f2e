//! The shared wire codec for GLAIVE services: length-prefixed, checksummed
//! binary frames in the little-endian magic/version discipline used by the
//! `GLVFIT01` ground-truth and `GLVCKPT1` checkpoint artifacts.
//!
//! Two protocols ride on this codec — `GLVSRV02` (the model server,
//! `glaive-serve`) and `GLVCMP01` (the distributed campaign fabric,
//! `glaive-campaign`). Each protocol owns its magic, opcodes and body
//! layouts; this crate owns the framing that both must get right exactly
//! once:
//!
//! On the wire every frame is a `u32` payload length followed by the
//! payload. A payload is
//!
//! ```text
//! magic (8) | opcode (1) | body (…) | FNV-1a over all prior bytes (8)
//! ```
//!
//! The trailing checksum covers the magic, opcode and body, so *any*
//! single-byte corruption is rejected: each FNV-1a step is a bijection of
//! the hash state, hence a changed byte always changes the final digest.
//! Decoders never panic on foreign bytes — every malformed frame maps to a
//! typed [`ProtocolError`].
//!
//! Encoding is a sealed pipeline: a [`FrameBuilder`] accumulates the body
//! and [`FrameBuilder::seal`] produces the only value [`write_frame`]
//! accepts — a checksummed [`Frame`]. There is no API for putting an
//! unchecksummed payload on the wire.
//!
//! Multi-byte integers are little-endian throughout; strings are
//! length-prefixed UTF-8; floating-point values travel as bit patterns, so
//! a decoded value is bit-identical to the encoded one. Programs travel as
//! their name, data-memory size and fixed-width instruction encodings
//! ([`FrameBuilder::program`], [`Reader::program`]).
//!
//! Transport comes in two shapes. [`FrameReader`] and [`FrameWriter`] are
//! the readiness-driven core: incremental state machines that own reusable
//! buffers, tolerate `WouldBlock` mid-frame, and move sealed payloads
//! without intermediate copies — what an event-loop server polls. The
//! blocking [`read_frame`]/[`write_frame`] and the cancellable variants
//! are thin adapters over the same state machines for callers that own a
//! thread per stream.

use std::collections::VecDeque;
use std::fmt;
use std::io::{IoSlice, Read, Write};
use std::time::{Duration, Instant};

use glaive_isa::{Instr, Program, INSTR_ENCODING_LEN};

pub mod backoff;
pub mod chaos;

pub use backoff::{sleep_cancellable, Backoff, RetryPolicy, Wait};
pub use chaos::{ChaosConfig, ChaosPlan, ChaosReport, ChaosTransport, SplitMix64};

/// Upper bound on a frame payload; larger declared lengths are rejected
/// before any allocation (a corrupted or hostile length prefix must not
/// OOM the receiver).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Most bytes of a program name in a frame.
const PROGRAM_NAME_CAP: usize = 1 << 12;
/// Most instructions of a program in a frame.
const PROGRAM_INSTR_CAP: usize = 1 << 20;
/// Most memory words a program in a frame may declare. A simulator
/// allocates them all up front, and a failed allocation aborts the
/// process, so the cap is checked before anything is allocated. The
/// largest suite program declares 131,536 words.
const PROGRAM_MEM_WORDS_CAP: usize = 1 << 22;

/// Typed decode/transport failure. Every malformed input maps here — the
/// protocol layer never panics on wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload does not start with the expected magic/version.
    BadMagic,
    /// The payload ended before its declared content.
    Truncated,
    /// The trailing FNV-1a digest disagrees with the payload bytes.
    Checksum,
    /// The opcode byte names no known frame kind.
    UnknownOpcode(u8),
    /// A structural invariant failed (bad tag, absurd length, undecodable
    /// instruction, non-UTF-8 string…).
    Corrupt(&'static str),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The underlying stream failed mid-frame.
    Io(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic => write!(f, "not a recognised frame (bad magic)"),
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::Checksum => write!(f, "frame checksum mismatch"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            ProtocolError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds the cap"),
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        ProtocolError::Io(e.to_string())
    }
}

/// 64-bit FNV-1a digest of `bytes` — the frame checksum, and the hash
/// family the artifact cache uses for content addressing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sealed frame payload: protocol magic, body, and the trailing FNV-1a
/// digest over both.
///
/// The only way to obtain a `Frame` is [`FrameBuilder::seal`], and
/// [`write_frame`] accepts nothing else — so every frame a GLAIVE service
/// puts on the wire is checksummed *by construction*. (Hostile-input tests
/// that need malformed bytes must hand-roll the length prefix themselves;
/// production code cannot.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(Vec<u8>);

impl Frame {
    /// The sealed payload bytes (magic + body + digest), without the
    /// stream-level length prefix.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the frame, returning the sealed payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Incremental encoder for one frame: starts from the protocol magic,
/// accumulates body fields in the little-endian wire discipline, and
/// [`seal`](FrameBuilder::seal)s into a [`Frame`] by appending the FNV-1a
/// digest of everything written.
///
/// ```
/// use glaive_wire::{open, FrameBuilder};
///
/// let mut b = FrameBuilder::new(b"GLVDOC01");
/// b.u8(0x01).u32(7).str("hi");
/// let frame = b.seal();
/// let mut r = open(frame.bytes(), b"GLVDOC01")?;
/// assert_eq!(r.u8()?, 0x01);
/// # Ok::<(), glaive_wire::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    buf: Vec<u8>,
}

impl FrameBuilder {
    /// Starts a frame for the protocol identified by `magic`.
    pub fn new(magic: &[u8; 8]) -> FrameBuilder {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(magic);
        FrameBuilder { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut FrameBuilder {
        self.buf.push(v);
        self
    }

    /// Appends a `u32` in little-endian order.
    pub fn u32(&mut self, v: u32) -> &mut FrameBuilder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` in little-endian order.
    pub fn u64(&mut self, v: u64) -> &mut FrameBuilder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f32` as its little-endian bit pattern.
    pub fn f32(&mut self, v: f32) -> &mut FrameBuilder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut FrameBuilder {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends raw bytes verbatim (e.g. an encoded instruction).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut FrameBuilder {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a program: its name, data-memory size as a `u64`, a `u32`
    /// instruction count, then each instruction's fixed-width encoding.
    pub fn program(&mut self, program: &Program) -> &mut FrameBuilder {
        self.str(program.name())
            .u64(program.mem_words() as u64)
            .u32(program.len() as u32);
        for instr in program.instrs() {
            self.raw(&instr.encode());
        }
        self
    }

    /// Seals the frame: appends the FNV-1a digest of everything written so
    /// far (magic included) and freezes the bytes.
    pub fn seal(self) -> Frame {
        let mut payload = self.buf;
        let digest = fnv1a(&payload);
        payload.extend_from_slice(&digest.to_le_bytes());
        Frame(payload)
    }
}

/// Validates magic and checksum, returning a reader over the body (opcode
/// onwards).
///
/// # Errors
///
/// [`ProtocolError::Truncated`] when the payload cannot even hold magic +
/// digest, [`ProtocolError::BadMagic`] on a foreign or version-mismatched
/// prefix, [`ProtocolError::Checksum`] when the trailing digest disagrees
/// with the payload bytes.
pub fn open<'a>(payload: &'a [u8], magic: &[u8; 8]) -> Result<Reader<'a>, ProtocolError> {
    if payload.len() < magic.len() + 8 {
        return Err(ProtocolError::Truncated);
    }
    if &payload[..magic.len()] != magic {
        return Err(ProtocolError::BadMagic);
    }
    let (head, tail) = payload.split_at(payload.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("split at len - 8"));
    if fnv1a(head) != declared {
        return Err(ProtocolError::Checksum);
    }
    Ok(Reader {
        buf: &head[magic.len()..],
        pos: 0,
    })
}

/// A bounds-checked cursor over a sealed payload's body. Every accessor
/// returns [`ProtocolError::Truncated`] instead of reading past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Takes the next `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Truncated`] at end of body.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Truncated`] when fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, ProtocolError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// A `u32` element count whose `count × element_size` must still fit in
    /// the remaining bytes — rejects absurd counts before any allocation.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Truncated`] when the declared count cannot fit.
    pub fn counted(&mut self, element_size: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n.checked_mul(element_size)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(ProtocolError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string of at most `cap` bytes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Corrupt`] for over-cap or non-UTF-8 strings,
    /// [`ProtocolError::Truncated`] when the body ends early.
    pub fn string(&mut self, cap: usize) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(ProtocolError::Corrupt("string exceeds cap"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Corrupt("non-UTF-8 string"))
    }

    /// Reads a program written by [`FrameBuilder::program`], with at most
    /// 4 KiB of name, 2²² memory words and 2²⁰ instructions.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Corrupt`] for an over-cap name, memory size or
    /// instruction count, an undecodable instruction, or instructions that
    /// do not form a valid [`Program`] (a checksummed frame can still carry
    /// a dangling branch target); [`ProtocolError::Truncated`] when the
    /// body ends early.
    pub fn program(&mut self) -> Result<Program, ProtocolError> {
        let name = self.string(PROGRAM_NAME_CAP)?;
        let mem_words = usize::try_from(self.u64()?)
            .ok()
            .filter(|&words| words <= PROGRAM_MEM_WORDS_CAP)
            .ok_or(ProtocolError::Corrupt("mem_words exceeds cap"))?;
        let count = self.u32()? as usize;
        if count > PROGRAM_INSTR_CAP {
            return Err(ProtocolError::Corrupt("instruction count exceeds cap"));
        }
        let mut instrs = Vec::with_capacity(count.min(self.remaining() / INSTR_ENCODING_LEN + 1));
        for _ in 0..count {
            let bytes = self.take(INSTR_ENCODING_LEN)?;
            let bytes = bytes
                .try_into()
                .expect("take returned the requested length");
            instrs.push(
                Instr::decode(bytes)
                    .map_err(|_| ProtocolError::Corrupt("undecodable instruction"))?,
            );
        }
        Program::try_new(name, instrs, mem_words)
            .map_err(|_| ProtocolError::Corrupt("invalid program"))
    }

    /// Rejects trailing garbage after a fully decoded body.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Corrupt`] when undecoded bytes remain.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Corrupt("trailing bytes after body"));
        }
        Ok(())
    }
}

/// Writes one length-prefixed frame. Only sealed [`Frame`]s are accepted,
/// so a caller cannot put an unchecksummed payload on the wire.
///
/// # Errors
///
/// Propagates transport failures.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let payload = frame.bytes();
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Progress of one [`FrameReader::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePoll {
    /// A complete frame payload is buffered: read it with
    /// [`FrameReader::frame`], then release it with
    /// [`FrameReader::consume`].
    Ready,
    /// The stream has no bytes to give right now (`WouldBlock` or a read
    /// timeout). Progress so far is kept; poll again when readable.
    Pending,
    /// Clean EOF at a frame boundary — the peer hung up between frames.
    Closed,
}

/// Incremental, readiness-driven frame decoder.
///
/// Owns one reusable buffer and decodes exactly one frame at a time:
/// 4-byte length prefix, then exactly that many payload bytes — never a
/// byte more, so unread bytes of a *following* frame stay in the stream
/// and the reader can be dropped or replaced between frames without
/// losing data. `WouldBlock` mid-frame is not an error: [`poll`] returns
/// [`FramePoll::Pending`] and the partial frame survives until the stream
/// is readable again, which is what lets a single event-loop thread
/// multiplex hundreds of connections.
///
/// The buffer is retained across [`consume`] calls, so a long-lived
/// connection reading many frames allocates only when a frame exceeds
/// every previous one.
///
/// [`poll`]: FrameReader::poll
/// [`consume`]: FrameReader::consume
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    filled: usize,
    /// Payload length, once the 4-byte prefix is complete and validated.
    need: Option<usize>,
}

impl FrameReader {
    /// An empty reader at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Header + payload bytes the current frame occupies, as far as known.
    fn target(&self) -> usize {
        4 + self.need.unwrap_or(0)
    }

    /// Bytes of the in-progress frame buffered so far (prefix included).
    pub fn buffered(&self) -> usize {
        self.filled
    }

    /// Whether a frame has started arriving but is not yet complete — the
    /// state a stall deadline should police. A completed-but-unconsumed
    /// frame and an idle boundary are both *not* mid-frame.
    pub fn mid_frame(&self) -> bool {
        self.filled > 0 && (self.need.is_none() || self.filled < self.target())
    }

    /// Advances the decode as far as the stream allows right now.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::FrameTooLarge`] for an oversized length prefix
    /// (rejected before any allocation), [`ProtocolError::Io`] for
    /// transport failures, including EOF mid-frame.
    pub fn poll<R: Read>(&mut self, stream: &mut R) -> Result<FramePoll, ProtocolError> {
        use std::io::ErrorKind;

        loop {
            if self.need.is_none() && self.filled >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("len 4"));
                if len > MAX_FRAME_LEN {
                    return Err(ProtocolError::FrameTooLarge(len));
                }
                self.need = Some(len as usize);
            }
            let target = self.target();
            if self.need.is_some() && self.filled >= target {
                return Ok(FramePoll::Ready);
            }
            if self.buf.len() < target {
                self.buf.resize(target, 0);
            }
            match stream.read(&mut self.buf[self.filled..target]) {
                Ok(0) => {
                    return if self.filled == 0 {
                        Ok(FramePoll::Closed)
                    } else {
                        Err(ProtocolError::Io("connection reset".into()))
                    };
                }
                Ok(n) => self.filled += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(FramePoll::Pending)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtocolError::Io(e.to_string())),
            }
        }
    }

    /// The completed frame's payload (without the length prefix). Only
    /// meaningful after [`FrameReader::poll`] returned
    /// [`FramePoll::Ready`]; empty otherwise.
    pub fn frame(&self) -> &[u8] {
        match self.need {
            Some(n) if self.filled >= 4 + n => &self.buf[4..4 + n],
            _ => &[],
        }
    }

    /// Releases the completed frame, returning the reader to the frame
    /// boundary. The buffer's capacity is kept for the next frame.
    pub fn consume(&mut self) {
        self.filled = 0;
        self.need = None;
    }
}

/// Incremental, readiness-driven frame encoder.
///
/// [`enqueue`](FrameWriter::enqueue) takes ownership of a sealed
/// [`Frame`]'s buffer — no copy — and
/// [`poll_write`](FrameWriter::poll_write) drains the queue as far as the
/// stream accepts, tolerating `WouldBlock` and short writes at any byte
/// position. The 4-byte length prefix is synthesised on the fly from the
/// payload length, so the sealed bytes go on the wire exactly as built.
#[derive(Debug, Default)]
pub struct FrameWriter {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front entry already written, counting its 4-byte
    /// length prefix first.
    sent: usize,
}

impl FrameWriter {
    /// An empty writer.
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Queues a sealed frame for transmission, taking ownership of its
    /// bytes without copying them.
    pub fn enqueue(&mut self, frame: Frame) {
        self.queue.push_back(frame.into_bytes());
    }

    /// Whether everything enqueued has been handed to the stream.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Bytes still to be written (length prefixes included).
    pub fn pending_bytes(&self) -> usize {
        let queued: usize = self.queue.iter().map(|p| p.len() + 4).sum();
        queued - self.sent
    }

    /// Writes as much of the queue as the stream accepts right now.
    /// Returns `Ok(true)` when the queue fully drained, `Ok(false)` when
    /// the stream stopped accepting bytes (`WouldBlock`/timeout) with data
    /// still pending.
    ///
    /// # Errors
    ///
    /// Transport failures other than readiness; a `write` returning zero
    /// surfaces as [`std::io::ErrorKind::WriteZero`].
    pub fn poll_write<W: Write>(&mut self, stream: &mut W) -> std::io::Result<bool> {
        use std::io::ErrorKind;

        while let Some(payload) = self.queue.front() {
            let header = (payload.len() as u32).to_le_bytes();
            let wrote = if self.sent < 4 {
                stream.write_vectored(&[IoSlice::new(&header[self.sent..]), IoSlice::new(payload)])
            } else {
                stream.write(&payload[self.sent - 4..])
            };
            match wrote {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "stream accepted zero bytes of a pending frame",
                    ))
                }
                Ok(n) => {
                    self.sent += n;
                    if self.sent == payload.len() + 4 {
                        self.queue.pop_front();
                        self.sent = 0;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(false)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        stream.flush()?;
        Ok(true)
    }
}

/// Reads one length-prefixed frame payload (blocking). A thin adapter
/// over [`FrameReader`]: because the reader never consumes bytes beyond
/// the current frame, per-call use composes with any following traffic.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] for absurd length prefixes,
/// [`ProtocolError::Io`] for transport failures (including EOF and read
/// timeouts mid-frame).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut fr = FrameReader::new();
    match fr.poll(r)? {
        FramePoll::Ready => Ok(fr.frame().to_vec()),
        FramePoll::Closed => Err(ProtocolError::Io("connection closed".into())),
        FramePoll::Pending => Err(ProtocolError::Io("read timed out".into())),
    }
}

/// Result of a cancellable frame read.
pub enum ReadOutcome {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary — the peer hung up.
    Closed,
    /// The cancellation flag was raised during a read timeout.
    Cancelled,
    /// The stream failed or delivered an oversized prefix.
    Failed(ProtocolError),
}

/// Reads one length-prefixed frame from a stream configured with a read
/// timeout, re-checking `cancel` on every timeout so a draining service
/// never strands a handler in a blocking read.
///
/// `stall` is the mid-frame progress deadline: once any byte of a frame
/// has arrived, the peer must keep delivering — more than `stall` with
/// zero progress fails the read with a typed `Io` error, so a peer that
/// dies (or is chaos-frozen) halfway through a frame can never wedge the
/// handler thread forever. An *idle* connection at a frame boundary is
/// not a stall: waiting for the next request indefinitely is normal.
/// `None` preserves the old unbounded behaviour.
///
/// The framing is inlined (instead of calling [`read_frame`]) so the
/// timeout granularity sits below the frame level: a half-received frame
/// keeps its progress across cancel checks instead of corrupting the
/// stream position.
pub fn read_frame_cancellable<R: Read>(
    stream: &mut R,
    cancel: &std::sync::atomic::AtomicBool,
    stall: Option<Duration>,
) -> ReadOutcome {
    read_frame_bounded(stream, cancel, stall, true)
}

/// Like [`read_frame_cancellable`], but for strict request/response
/// clients awaiting a reply just solicited: the no-progress `deadline`
/// also covers the wait at the frame boundary. A peer that goes silent
/// after accepting a request is indistinguishable from a dead one, so
/// the idle exemption does not apply.
pub fn read_reply_cancellable<R: Read>(
    stream: &mut R,
    cancel: &std::sync::atomic::AtomicBool,
    deadline: Duration,
) -> ReadOutcome {
    read_frame_bounded(stream, cancel, Some(deadline), false)
}

fn read_frame_bounded<R: Read>(
    stream: &mut R,
    cancel: &std::sync::atomic::AtomicBool,
    stall: Option<Duration>,
    idle_exempt: bool,
) -> ReadOutcome {
    use std::sync::atomic::Ordering;

    let mut fr = FrameReader::new();
    let mut last_progress = Instant::now();
    let mut last_filled = 0;
    loop {
        match fr.poll(stream) {
            Ok(FramePoll::Ready) => return ReadOutcome::Frame(fr.frame().to_vec()),
            Ok(FramePoll::Closed) => return ReadOutcome::Closed,
            Ok(FramePoll::Pending) => {
                // The stream's read timeout elapsed (or it is non-blocking):
                // the cadence at which cancellation and stall are policed.
                if cancel.load(Ordering::Relaxed) {
                    return ReadOutcome::Cancelled;
                }
                if fr.buffered() != last_filled {
                    last_filled = fr.buffered();
                    last_progress = Instant::now();
                }
                let stalled_wait = !(idle_exempt && fr.buffered() == 0);
                if let Some(limit) = stall {
                    if stalled_wait && last_progress.elapsed() > limit {
                        return ReadOutcome::Failed(ProtocolError::Io(format!(
                            "peer stalled mid-frame for over {limit:?}"
                        )));
                    }
                }
            }
            Err(e) => return ReadOutcome::Failed(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"GLVTST01";

    fn sample_frame() -> Frame {
        let mut b = FrameBuilder::new(MAGIC);
        b.u8(0x07).u32(0xdead_beef).u64(42).f32(1.5).str("hello");
        b.seal()
    }

    #[test]
    fn seal_open_roundtrips() {
        let frame = sample_frame();
        let mut r = open(frame.bytes(), MAGIC).expect("opens");
        assert_eq!(r.u8().expect("opcode"), 0x07);
        assert_eq!(r.u32().expect("u32"), 0xdead_beef);
        assert_eq!(r.u64().expect("u64"), 42);
        assert_eq!(r.f32().expect("f32").to_bits(), 1.5f32.to_bits());
        assert_eq!(r.string(16).expect("str"), "hello");
        r.finish().expect("no trailing bytes");
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let frame = sample_frame().into_bytes();
        for pos in 0..frame.len() {
            for mask in [0x01u8, 0xff] {
                let mut bad = frame.clone();
                bad[pos] ^= mask;
                let outcome = open(&bad, MAGIC).map(|mut r| {
                    // A flip inside the body keeps magic+checksum...
                    // impossible: the checksum covers every payload byte.
                    let _ = r.u8();
                });
                assert!(outcome.is_err(), "flip {mask:#04x} at {pos} must fail");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let frame = sample_frame();
        let bytes = frame.bytes();
        for cut in 0..bytes.len() {
            assert!(open(&bytes[..cut], MAGIC).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn foreign_magic_is_rejected() {
        // A validly sealed frame of a *different* protocol: checksum fine,
        // magic wrong.
        let mut b = FrameBuilder::new(b"GLVOTHER");
        b.u8(0x07);
        let frame = b.seal();
        assert_eq!(
            open(frame.bytes(), MAGIC).err(),
            Some(ProtocolError::BadMagic)
        );
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut b = FrameBuilder::new(MAGIC);
        b.u8(0x01).u8(0xaa); // 0xaa: undecoded trailing byte
        let frame = b.seal();
        let mut r = open(frame.bytes(), MAGIC).expect("opens");
        assert_eq!(r.u8().expect("opcode"), 0x01);
        assert_eq!(
            r.finish(),
            Err(ProtocolError::Corrupt("trailing bytes after body"))
        );
    }

    #[test]
    fn counted_rejects_absurd_counts_before_allocation() {
        let mut b = FrameBuilder::new(MAGIC);
        b.u8(0x01).u32(u32::MAX); // declares 4 billion elements
        let frame = b.seal();
        let mut r = open(frame.bytes(), MAGIC).expect("opens");
        let _ = r.u8().expect("opcode");
        assert_eq!(r.counted(8), Err(ProtocolError::Truncated));
    }

    #[test]
    fn cancellable_read_yields_frames_then_closed_then_cancel() {
        use std::sync::atomic::AtomicBool;

        let frame = sample_frame();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).expect("write");
        let cancel = AtomicBool::new(false);
        let mut cursor = &wire[..];
        match read_frame_cancellable(&mut cursor, &cancel, None) {
            ReadOutcome::Frame(p) => assert_eq!(p, frame.bytes()),
            _ => panic!("expected a frame"),
        }
        assert!(matches!(
            read_frame_cancellable(&mut cursor, &cancel, None),
            ReadOutcome::Closed
        ));

        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let cancel = AtomicBool::new(true);
        assert!(matches!(
            read_frame_cancellable(&mut Stalled, &cancel, None),
            ReadOutcome::Cancelled
        ));
    }

    #[test]
    fn mid_frame_stall_fails_but_idle_boundary_does_not() {
        use std::sync::atomic::AtomicBool;

        /// Delivers `head` bytes, then times out forever: a peer frozen
        /// mid-frame.
        struct Frozen {
            head: Vec<u8>,
            pos: usize,
        }
        impl Read for Frozen {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.head.len() {
                    let n = buf.len().min(self.head.len() - self.pos);
                    buf[..n].copy_from_slice(&self.head[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    std::thread::sleep(Duration::from_millis(5));
                    Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "idle"))
                }
            }
        }

        let cancel = AtomicBool::new(false);
        let stall = Some(Duration::from_millis(50));

        // A length prefix promising 100 bytes that never arrive: stall
        // fires with a typed Io error instead of hanging forever.
        let mut frozen = Frozen {
            head: 100u32.to_le_bytes().to_vec(),
            pos: 0,
        };
        let start = Instant::now();
        match read_frame_cancellable(&mut frozen, &cancel, stall) {
            ReadOutcome::Failed(ProtocolError::Io(msg)) => {
                assert!(msg.contains("stalled"), "got: {msg}")
            }
            _ => panic!("expected a stall failure"),
        }
        assert!(start.elapsed() < Duration::from_secs(10));

        // An idle connection at the frame boundary is NOT a stall: the
        // reader keeps waiting (here until cancel is raised).
        let idle_cancel = AtomicBool::new(false);
        let mut idle = Frozen {
            head: Vec::new(),
            pos: 0,
        };
        let start = Instant::now();
        let waiter = std::thread::scope(|s| {
            let handle = s.spawn(|| read_frame_cancellable(&mut idle, &idle_cancel, stall));
            std::thread::sleep(Duration::from_millis(200));
            idle_cancel.store(true, std::sync::atomic::Ordering::Relaxed);
            handle.join().expect("reader thread")
        });
        assert!(
            matches!(waiter, ReadOutcome::Cancelled),
            "idle boundary waits until cancelled, not until stall"
        );
        assert!(start.elapsed() >= Duration::from_millis(150));
    }

    /// Delivers an underlying byte script one byte at a time, returning
    /// `WouldBlock` between every delivered byte — the worst-case
    /// segmentation a readiness-driven reader must survive.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        ready: bool,
    }
    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "later"));
            }
            self.ready = false;
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_byte_level_wouldblock_segmentation() {
        let frames = [sample_frame(), sample_frame()];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("write");
        }
        let mut stream = Trickle {
            bytes: wire,
            pos: 0,
            ready: false,
        };
        let mut fr = FrameReader::new();
        let mut got = Vec::new();
        let mut pendings = 0u32;
        loop {
            match fr.poll(&mut stream).expect("no transport error") {
                FramePoll::Ready => {
                    got.push(fr.frame().to_vec());
                    fr.consume();
                    assert!(!fr.mid_frame(), "consume returns to the boundary");
                }
                FramePoll::Pending => pendings += 1,
                FramePoll::Closed => break,
            }
        }
        assert_eq!(got.len(), 2);
        for (g, f) in got.iter().zip(&frames) {
            assert_eq!(g, f.bytes(), "bit-identical through segmentation");
        }
        assert!(
            pendings as usize >= got[0].len(),
            "every byte cost at least one WouldBlock"
        );
    }

    #[test]
    fn frame_reader_reports_mid_frame_and_fails_on_mid_frame_eof() {
        // Two bytes of a length prefix delivered, then WouldBlock:
        // mid-frame with progress kept. EOF afterwards is a connection
        // reset (never a clean close).
        let mut stream = Trickle {
            bytes: vec![0x05, 0x00],
            pos: 0,
            ready: true,
        };
        let mut fr = FrameReader::new();
        assert!(!fr.mid_frame(), "fresh reader sits at the boundary");
        loop {
            match fr.poll(&mut stream) {
                Ok(FramePoll::Pending) if stream.pos < stream.bytes.len() => continue,
                Ok(FramePoll::Pending) => break,
                other => panic!("expected Pending while bytes remain, got {other:?}"),
            }
        }
        assert!(fr.mid_frame());
        assert_eq!(fr.buffered(), 2);
        let mut eof: &[u8] = &[];
        assert!(matches!(fr.poll(&mut eof), Err(ProtocolError::Io(_))));
    }

    #[test]
    fn frame_reader_rejects_oversized_prefix_before_allocating() {
        let mut fr = FrameReader::new();
        let mut cursor: &[u8] = &u32::MAX.to_le_bytes();
        assert_eq!(
            fr.poll(&mut cursor),
            Err(ProtocolError::FrameTooLarge(u32::MAX))
        );
    }

    /// Accepts at most 3 bytes per call and interleaves `WouldBlock`s —
    /// a congested non-blocking socket.
    struct Choked {
        out: Vec<u8>,
        ready: bool,
    }
    impl Write for Choked {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "full"));
            }
            self.ready = false;
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_drains_across_short_writes_and_wouldblock() {
        let frames = [sample_frame(), sample_frame()];
        let mut reference = Vec::new();
        for f in &frames {
            write_frame(&mut reference, f).expect("write");
        }

        let mut fw = FrameWriter::new();
        assert!(fw.is_idle());
        for f in &frames {
            fw.enqueue(f.clone());
        }
        assert_eq!(fw.pending_bytes(), reference.len());
        let mut sink = Choked {
            out: Vec::new(),
            ready: false,
        };
        let mut stalls = 0u32;
        while !fw.poll_write(&mut sink).expect("no transport error") {
            stalls += 1;
        }
        assert!(fw.is_idle());
        assert_eq!(fw.pending_bytes(), 0);
        assert_eq!(sink.out, reference, "bit-identical to the blocking path");
        assert!(stalls > 0, "the sink did exercise WouldBlock");
    }

    #[test]
    fn stream_framing_roundtrips_and_caps_length() {
        let frames = [sample_frame(), sample_frame()];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).expect("write");
        }
        let mut cursor = &wire[..];
        for f in &frames {
            assert_eq!(read_frame(&mut cursor).expect("read"), f.bytes());
        }
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Io(_))));

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&[0; 16]);
        assert_eq!(
            read_frame(&mut &oversized[..]),
            Err(ProtocolError::FrameTooLarge(u32::MAX))
        );
    }
}
