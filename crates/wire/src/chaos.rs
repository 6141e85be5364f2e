//! Deterministic network-fault injection for any `Read + Write` stream.
//!
//! GLAIVE's ground truth *is* fault injection; this module turns the same
//! methodology on our own transport. [`ChaosTransport`] wraps a stream and
//! injects four fault classes — artificial delay, short (partial) reads
//! and writes, byte corruption, and hard disconnects — from a seeded
//! schedule, so the robustness of the serve and campaign fabrics can be
//! demonstrated (and *replayed*) rather than assumed.
//!
//! # Determinism model
//!
//! The schedule is **offset-hashed**: whether byte `i` of a direction's
//! stream is faulted, and how, is a pure function of
//! `(seed, stream_id, direction, i)` via a SplitMix64 finalizer. There is
//! no mutable RNG consumed per *operation*, because operation counts are
//! not deterministic — a poll loop retrying `WouldBlock` would burn
//! schedule state at a wall-clock-dependent rate, and TCP segmentation
//! would shift every subsequent draw. Byte offsets, by contrast, are
//! fixed by the protocol: the same request bytes occupy the same offsets
//! no matter how the kernel slices them. Two runs with the same
//! `GLAIVE_CHAOS_SEED` therefore corrupt the same bytes, cut the same
//! connections at the same offsets, and shorten the same operations.
//!
//! Short reads are enforced by *truncating the request before it reaches
//! the inner stream*, so the transport never consumes bytes past a
//! scheduled disconnect; the disconnect always fires exactly at its
//! offset regardless of how eagerly the caller reads.
//!
//! Delays sleep on the wall clock but never *decide* anything — removing
//! them changes timing, not the byte-level outcome.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The SplitMix64 generator (also the source of the stateless finalizer
/// used for offset hashing). Matches the mixing used for campaign chunk
/// sub-seeds, so the whole system draws from one PRNG family.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit draw.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }
}

/// The SplitMix64 finalizer: a stateless avalanche hash of `z`.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reads chaos configuration from the environment.
///
/// `GLAIVE_CHAOS_SEED` (decimal or `0x`-prefixed hex u64) enables chaos;
/// unset or unparsable means disabled. `GLAIVE_CHAOS_RATE` is the
/// per-byte fault probability as a float in `[0, 1]` (default 0.0005);
/// `GLAIVE_CHAOS_DELAY_MS` caps a single injected delay (default 2 ms).
const ENV_SEED: &str = "GLAIVE_CHAOS_SEED";
const ENV_RATE: &str = "GLAIVE_CHAOS_RATE";
const ENV_DELAY: &str = "GLAIVE_CHAOS_DELAY_MS";

/// Bytes of lookahead when scanning for scheduled disconnects/short
/// boundaries; also the per-call I/O cap while chaos is active.
const SCAN_WINDOW: usize = 64 * 1024;

/// Domain-separation constants for the two directions of a stream.
const DIR_READ: u64 = 0x52454144; // "READ"
const DIR_WRITE: u64 = 0x57524954; // "WRIT"

/// Seeded fault-injection parameters. `Copy` so configs thread freely
/// through worker options and bench harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed: the entire fault schedule is a pure function of this
    /// (plus each transport's `stream_id`).
    pub seed: u64,
    /// Per-byte fault probability in parts-per-million.
    pub fault_ppm: u32,
    /// Upper bound on a single injected delay, in milliseconds.
    pub max_delay_ms: u64,
}

impl ChaosConfig {
    /// A config with the given seed and default rate/delay.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_ppm: 500,
            max_delay_ms: 2,
        }
    }

    /// The same config with `fault_ppm` replaced.
    #[must_use]
    pub fn with_fault_ppm(self, fault_ppm: u32) -> ChaosConfig {
        ChaosConfig { fault_ppm, ..self }
    }

    /// Parses [`ChaosConfig`] from `GLAIVE_CHAOS_SEED` /
    /// `GLAIVE_CHAOS_RATE` / `GLAIVE_CHAOS_DELAY_MS`.
    ///
    /// Returns `None` (chaos disabled) when the seed is unset or any
    /// set variable fails to parse — a misspelt value must not silently
    /// run with different chaos than the operator asked for.
    pub fn from_env() -> Option<ChaosConfig> {
        let seed_raw = std::env::var(ENV_SEED).ok()?;
        let seed_raw = seed_raw.trim();
        let seed = match seed_raw
            .strip_prefix("0x")
            .or_else(|| seed_raw.strip_prefix("0X"))
        {
            Some(hex) => u64::from_str_radix(hex, 16).ok()?,
            None => seed_raw.parse::<u64>().ok()?,
        };
        let mut cfg = ChaosConfig::new(seed);
        if let Ok(rate) = std::env::var(ENV_RATE) {
            let rate: f64 = rate.trim().parse().ok()?;
            if !(0.0..=1.0).contains(&rate) {
                return None;
            }
            cfg.fault_ppm = (rate * 1_000_000.0) as u32;
        }
        if let Ok(delay) = std::env::var(ENV_DELAY) {
            cfg.max_delay_ms = delay.trim().parse().ok()?;
        }
        Some(cfg)
    }
}

/// Tallies of injected faults, shared across every transport minted from
/// one [`ChaosPlan`] so a soak can report fleet-wide totals.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    delays: AtomicU64,
    short_ops: AtomicU64,
    corruptions: AtomicU64,
    disconnects: AtomicU64,
}

/// A point-in-time snapshot of [`ChaosCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Artificial delays injected.
    pub delays: u64,
    /// Reads/writes truncated short of the requested length.
    pub short_ops: u64,
    /// Bytes corrupted in flight.
    pub corruptions: u64,
    /// Hard disconnects injected.
    pub disconnects: u64,
}

impl ChaosReport {
    /// Total faults of all classes.
    pub fn total(&self) -> u64 {
        self.delays + self.short_ops + self.corruptions + self.disconnects
    }
}

/// A chaos campaign: one config plus shared fault counters. Mint a
/// [`ChaosTransport`] per connection with [`ChaosPlan::wrap`], giving
/// each a distinct `stream_id` so reconnections draw a fresh schedule.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    config: ChaosConfig,
    counters: Arc<ChaosCounters>,
}

impl ChaosPlan {
    /// A plan with fresh counters.
    pub fn new(config: ChaosConfig) -> ChaosPlan {
        ChaosPlan {
            config,
            counters: Arc::new(ChaosCounters::default()),
        }
    }

    /// The plan's config.
    pub fn config(&self) -> ChaosConfig {
        self.config
    }

    /// Wraps `inner` in a [`ChaosTransport`] with the schedule derived
    /// from `(config.seed, stream_id)`.
    pub fn wrap<S>(&self, inner: S, stream_id: u64) -> ChaosTransport<S> {
        ChaosTransport {
            inner,
            fault_ppm: u64::from(self.config.fault_ppm),
            max_delay_ms: self.config.max_delay_ms.max(1),
            read_base: mix(mix(self.config.seed) ^ mix(stream_id) ^ DIR_READ),
            write_base: mix(mix(self.config.seed) ^ mix(stream_id) ^ DIR_WRITE),
            rpos: 0,
            wpos: 0,
            dead: false,
            counters: Arc::clone(&self.counters),
            scratch: Vec::new(),
        }
    }

    /// Snapshot of the fault tallies across all wrapped streams.
    pub fn report(&self) -> ChaosReport {
        ChaosReport {
            delays: self.counters.delays.load(Ordering::Relaxed),
            short_ops: self.counters.short_ops.load(Ordering::Relaxed),
            corruptions: self.counters.corruptions.load(Ordering::Relaxed),
            disconnects: self.counters.disconnects.load(Ordering::Relaxed),
        }
    }
}

/// What the schedule says happens to one byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Sleep before delivering this byte.
    Delay { ms: u64 },
    /// The operation spanning this offset is cut short at it.
    Short,
    /// Flip one bit of this byte.
    Corrupt { bit: u8 },
    /// The connection dies at this offset.
    Disconnect,
}

/// Pure fault lookup: the schedule for offset `i` under direction base
/// `base`. Independent of call pattern, segmentation, and wall clock.
fn fault_at(base: u64, fault_ppm: u64, max_delay_ms: u64, offset: u64) -> Option<Fault> {
    let h = mix(base ^ offset.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if h % 1_000_000 >= fault_ppm {
        return None;
    }
    let h2 = mix(h);
    Some(match h2 % 16 {
        0 => Fault::Disconnect,
        1..=5 => Fault::Corrupt {
            bit: ((h2 >> 8) % 8) as u8,
        },
        6..=10 => Fault::Short,
        _ => Fault::Delay {
            ms: 1 + (h2 >> 8) % max_delay_ms,
        },
    })
}

/// A fault-injecting wrapper around any `Read + Write` stream.
///
/// Each transport owns two byte-offset cursors (one per direction); every
/// byte that crosses it is checked against the offset-hashed schedule.
/// After an injected disconnect the transport is permanently dead — both
/// directions fail — mirroring a real TCP reset; recovery requires a new
/// connection (and a new `stream_id`, hence a fresh schedule).
#[derive(Debug)]
pub struct ChaosTransport<S> {
    inner: S,
    fault_ppm: u64,
    max_delay_ms: u64,
    read_base: u64,
    write_base: u64,
    rpos: u64,
    wpos: u64,
    dead: bool,
    counters: Arc<ChaosCounters>,
    scratch: Vec<u8>,
}

impl<S> ChaosTransport<S> {
    /// Consumes the wrapper, returning the inner stream.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// True once an injected disconnect has killed this transport.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn fault(&self, base: u64, offset: u64) -> Option<Fault> {
        fault_at(base, self.fault_ppm, self.max_delay_ms, offset)
    }

    /// Plans one operation starting at `pos` for up to `want` bytes:
    /// returns the allowed length before the first Short/Disconnect
    /// boundary, whether a short fault truncated it, and whether a
    /// disconnect fires *at* `pos` (length 0).
    fn plan_op(&self, base: u64, pos: u64, want: usize) -> (usize, bool, bool) {
        let want = want.min(SCAN_WINDOW);
        let mut limit = want;
        let mut shortened = false;
        for k in 0..want as u64 {
            match self.fault(base, pos + k) {
                Some(Fault::Disconnect) => {
                    if k == 0 {
                        return (0, false, true);
                    }
                    limit = k as usize;
                    break;
                }
                Some(Fault::Short) => {
                    // A short fault at the very first byte still delivers
                    // that one byte (a zero-length read would read as EOF).
                    let cut = (k as usize).max(1);
                    if cut < limit {
                        limit = cut;
                        shortened = true;
                    }
                    break;
                }
                _ => {}
            }
        }
        (limit, shortened, false)
    }

    fn die(&mut self) -> io::Error {
        self.dead = true;
        self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected disconnect")
    }
}

impl<S: Read> Read for ChaosTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: transport disconnected",
            ));
        }
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        let (limit, shortened, dies_now) = self.plan_op(self.read_base, self.rpos, buf.len());
        if dies_now {
            return Err(self.die());
        }
        // `WouldBlock`/`TimedOut` from the inner stream propagates
        // untouched and consumes no schedule state: polling is invisible
        // to the fault schedule.
        let n = self.inner.read(&mut buf[..limit])?;
        if n == 0 {
            return Ok(0); // real EOF passes through
        }
        if shortened && n == limit {
            self.counters.short_ops.fetch_add(1, Ordering::Relaxed);
        }
        for (k, byte) in buf[..n].iter_mut().enumerate() {
            match self.fault(self.read_base, self.rpos + k as u64) {
                Some(Fault::Corrupt { bit }) => {
                    *byte ^= 1 << bit;
                    self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                }
                Some(Fault::Delay { ms }) => {
                    self.counters.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
        }
        self.rpos += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for ChaosTransport<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "chaos: transport disconnected",
            ));
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let (limit, shortened, dies_now) = self.plan_op(self.write_base, self.wpos, buf.len());
        if dies_now {
            return Err(self.die());
        }
        // Corrupt into the scratch buffer *silently* — no counters, no
        // sleeps — so a `WouldBlock` from the inner stream propagates with
        // zero schedule state consumed: the retry re-corrupts the same
        // offsets to the same bytes (the flip is a pure function of the
        // offset) and only then tallies them.
        self.scratch.clear();
        self.scratch.extend_from_slice(&buf[..limit]);
        for k in 0..limit {
            if let Some(Fault::Corrupt { bit }) = self.fault(self.write_base, self.wpos + k as u64)
            {
                self.scratch[k] ^= 1 << bit;
            }
        }
        let n = self.inner.write(&self.scratch[..limit])?;
        if n == 0 {
            return Ok(0);
        }
        // Only bytes the inner stream actually accepted tally faults and
        // sleep their delays; a partial write leaves the rest for the
        // retry at the same offsets.
        for k in 0..n as u64 {
            match self.fault(self.write_base, self.wpos + k) {
                Some(Fault::Corrupt { .. }) => {
                    self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                }
                Some(Fault::Delay { ms }) => {
                    self.counters.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
        }
        if shortened && n == limit {
            self.counters.short_ops.fetch_add(1, Ordering::Relaxed);
        }
        self.wpos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: crate::Timeouts> crate::Timeouts for ChaosTransport<S> {
    fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.inner.set_timeouts(read, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex half: reads from a cursor, writes to a vec.
    struct Mem {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Read for Mem {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for Mem {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive(plan: &ChaosPlan, stream_id: u64, payload: &[u8], chunk: usize) -> (Vec<u8>, Vec<u8>) {
        let mem = Mem {
            rx: Cursor::new(payload.to_vec()),
            tx: Vec::new(),
        };
        let mut t = plan.wrap(mem, stream_id);
        let mut seen = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            match t.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => seen.extend_from_slice(&buf[..n]),
                Err(_) => break, // injected disconnect
            }
        }
        let mut written = 0;
        while written < payload.len() {
            match t.write(&payload[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(_) => break,
            }
        }
        let tx = t.into_inner().tx;
        (seen, tx)
    }

    #[test]
    fn schedule_is_independent_of_segmentation() {
        let plan = ChaosPlan::new(ChaosConfig::new(7).with_fault_ppm(30_000));
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31) as u8).collect();
        // Same seed + stream id, wildly different read granularity: the
        // delivered (faulted) byte stream must be identical.
        let (a_read, a_write) = drive(&plan, 1, &payload, 1);
        let (b_read, b_write) = drive(&plan, 1, &payload, 4096);
        let (c_read, c_write) = drive(&plan, 1, &payload, 7);
        assert_eq!(a_read, b_read);
        assert_eq!(a_read, c_read);
        assert_eq!(a_write, b_write);
        assert_eq!(a_write, c_write);
        assert!(plan.report().total() > 0, "aggressive chaos fired");
    }

    #[test]
    fn distinct_stream_ids_draw_distinct_schedules() {
        let plan = ChaosPlan::new(ChaosConfig::new(7).with_fault_ppm(30_000));
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31) as u8).collect();
        let (a, _) = drive(&plan, 1, &payload, 64);
        let (b, _) = drive(&plan, 2, &payload, 64);
        assert_ne!(a, b, "new stream id must reshuffle the schedule");
    }

    #[test]
    fn zero_rate_is_fully_transparent() {
        let plan = ChaosPlan::new(ChaosConfig::new(99).with_fault_ppm(0));
        let payload: Vec<u8> = (0..2048u32).map(|i| (i * 131) as u8).collect();
        let (seen, tx) = drive(&plan, 5, &payload, 100);
        assert_eq!(seen, payload);
        assert_eq!(tx, payload);
        assert_eq!(plan.report(), ChaosReport::default());
    }

    #[test]
    fn disconnect_kills_both_directions_permanently() {
        // Hunt for a (seed, stream) pair whose read schedule disconnects
        // early, then verify the transport stays dead.
        let cfg = ChaosConfig {
            seed: 3,
            fault_ppm: 200_000,
            max_delay_ms: 1,
        };
        let plan = ChaosPlan::new(cfg);
        let payload = vec![0xAAu8; 65536];
        for stream_id in 0..64u64 {
            let mem = Mem {
                rx: Cursor::new(payload.clone()),
                tx: Vec::new(),
            };
            let mut t = plan.wrap(mem, stream_id);
            let mut buf = [0u8; 512];
            let mut disconnected = false;
            loop {
                match t.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        disconnected = true;
                        break;
                    }
                }
            }
            if disconnected {
                assert!(t.is_dead());
                assert!(t.read(&mut buf).is_err(), "reads stay dead");
                assert!(t.write(&[1, 2, 3]).is_err(), "writes stay dead");
                return;
            }
        }
        panic!("at 20% fault rate, some stream of 64 must disconnect");
    }

    /// Returns `WouldBlock` before every other operation in each
    /// direction — a non-blocking socket whose readiness flaps constantly.
    struct Flaky {
        inner: Mem,
        read_ready: bool,
        write_ready: bool,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.read_ready {
                self.read_ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            self.read_ready = false;
            self.inner.read(buf)
        }
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.write_ready {
                self.write_ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
            }
            self.write_ready = false;
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn wouldblock_consumes_no_schedule_state() {
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31) as u8).collect();
        let cfg = ChaosConfig::new(7).with_fault_ppm(30_000);

        let smooth = ChaosPlan::new(cfg);
        let (want_read, want_write) = drive(&smooth, 1, &payload, 64);
        let want_report = smooth.report();
        assert!(want_report.total() > 0, "chaos must fire for a real test");

        // The same schedule through a stream that WouldBlocks before
        // every single operation: each retry must neither burn schedule
        // entries nor double-count faults.
        let flaky_plan = ChaosPlan::new(cfg);
        let mut t = flaky_plan.wrap(
            Flaky {
                inner: Mem {
                    rx: Cursor::new(payload.clone()),
                    tx: Vec::new(),
                },
                read_ready: false,
                write_ready: false,
            },
            1,
        );
        let mut seen = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match t.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => seen.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(_) => break, // injected disconnect
            }
        }
        let mut written = 0;
        while written < payload.len() {
            match t.write(&payload[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(_) => break,
            }
        }
        let tx = t.into_inner().inner.tx;
        assert_eq!(seen, want_read, "read bytes identical under WouldBlock");
        assert_eq!(tx, want_write, "written bytes identical under WouldBlock");
        assert_eq!(
            flaky_plan.report(),
            want_report,
            "polling retries must not inflate any fault counter"
        );
    }

    #[test]
    fn env_parsing_accepts_decimal_and_hex_and_rejects_garbage() {
        // Exercise the parser core without mutating process env (other
        // tests run concurrently): from_env is a thin wrapper over these.
        assert_eq!("42".trim().parse::<u64>().ok(), Some(42));
        let cfg = ChaosConfig::new(0xdead_beef).with_fault_ppm(250_000);
        assert_eq!(cfg.fault_ppm, 250_000);
        assert_eq!(ChaosConfig::new(1).fault_ppm, 500);
    }
}
