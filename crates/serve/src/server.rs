//! The readiness-driven model server: one poll-thread event loop over
//! non-blocking sockets, a graph-preparation worker pool, and the single
//! batching inference thread they feed.
//!
//! Threading model:
//!
//! - the **poll thread** (the caller of [`Server::run`]) owns every
//!   connection: it accepts sockets, pumps each connection's
//!   [`FrameReader`]/[`FrameWriter`] state machines, answers control
//!   frames (ping/stats/shutdown) inline, admits predict requests under
//!   the bounded queue — answering [`Response::Busy`] with a retry hint
//!   once `queue_bound` requests are in flight — and polices the stall
//!   deadline. Requests *pipeline*: a client may write many frames before
//!   reading a reply, and replies are flushed strictly in request order
//!   per connection;
//! - `workers` **prep workers** resolve programs and build CDFGs through
//!   the sharded [`GraphCache`], then queue inference jobs;
//! - one **batcher** thread owns the model and a [`BatchWorkspace`]; each
//!   time it wakes it drains *every* pending job and runs one forward
//!   pass per job, in drain order, on the workspace it keeps for the
//!   server's lifetime; concurrency turns into batch size. Results
//!   flow back to the poll thread as completions tagged with a
//!   `(connection, generation, sequence)` token, so a slot reused by a
//!   new connection can never receive a stale reply.
//!
//! Shutdown follows the `RunControl` cancellation contract from the
//! fault-injection campaigns: a shared `AtomicBool`, checked at every
//! loop boundary. A `Shutdown` frame — or an external holder of
//! [`Server::cancel_flag`] — flips it; admitted requests drain and flush
//! (bounded by the stall deadline), then the threads unwind in
//! dependency order.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use glaive::telemetry::{NullObserver, Observer, Stage};
use glaive_bench_suite::benchmark;
use glaive_cdfg::CdfgConfig;
use glaive_gnn::GraphSage;
use glaive_isa::Program;
use glaive_sim::ExecConfig;
use glaive_timing::{try_profile, InOrderCost, ProtectionItem, ProtectionSelector, TimingProfile};
use glaive_wire::{FramePoll, FrameReader, FrameWriter};

use crate::batch::{BatchResult, BatchWorkspace, JobQueue};
use crate::cache::{program_fingerprint, GraphCache, PreparedProgram};
use crate::protocol::{
    BudgetItem, BudgetReply, ErrorCode, Frame, PredictReply, ProgramSpec, Request, Response,
    StatsReply, WireTuple,
};

/// Idle-backoff schedule for poll iterations that made no progress: spin
/// (cheapest wake-up) for the first burst of idle iterations, then yield
/// the CPU in 50 µs naps, and only fall back to the old 1 ms sleep once
/// the loop has been idle long enough that latency no longer matters.
/// This takes the idle event loop's added latency floor for a new arrival
/// from ~1 ms to effectively zero under bursty load.
const IDLE_SPIN_ITERS: u32 = 64;
const IDLE_NAP_ITERS: u32 = 256;
const IDLE_NAP: Duration = Duration::from_micros(50);
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Frames decoded per connection per poll iteration, so one firehose
/// connection cannot starve the rest of the loop.
const FRAME_BURST: usize = 64;

/// Server construction failure.
#[derive(Debug)]
pub enum ServeError {
    /// A [`ServerConfig`] field is out of range (zero workers, cache
    /// slots, queue bound…).
    Config {
        /// The offending field.
        field: &'static str,
    },
    /// The model cannot serve CDFG features (wrong input width or class
    /// count) — refusing at bind time beats corrupt answers at runtime.
    Model(String),
    /// Binding or configuring the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { field } => {
                write!(f, "invalid server config: `{field}` must be at least 1")
            }
            ServeError::Model(m) => write!(f, "unsuitable model: {m}"),
            ServeError::Io(e) => write!(f, "bind failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Graph-preparation worker threads (concurrent CDFG builds).
    pub workers: usize,
    /// Prepared-program LRU capacity (total across shards).
    pub cache_capacity: usize,
    /// Independent LRU shards in the graph cache (rounded up to a power
    /// of two).
    pub cache_shards: usize,
    /// Admission bound: predict requests in flight (admitted but not yet
    /// answered) before further ones are turned away with a typed
    /// [`Response::Busy`] instead of queueing unbounded latency.
    pub queue_bound: usize,
    /// The retry hint carried by [`Response::Busy`], in milliseconds.
    pub busy_retry_ms: u32,
    /// Per-connection progress deadline: a peer that starts a frame and
    /// then stalls, or stops draining its replies, is cut off (typed
    /// error where possible, connection closed) instead of holding
    /// event-loop state forever. Idle connections between requests are
    /// exempt. Also bounds the shutdown drain.
    pub stall: Duration,
}

impl ServerConfig {
    /// Validating constructor over the two most commonly tuned knobs: a
    /// server needs at least one prep worker and one cache slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the zero field.
    pub fn try_new(workers: usize, cache_capacity: usize) -> Result<ServerConfig, ServeError> {
        let config = ServerConfig {
            workers,
            cache_capacity,
            ..ServerConfig::default()
        };
        config.validate()?;
        Ok(config)
    }

    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.workers < 1 {
            return Err(ServeError::Config { field: "workers" });
        }
        if self.cache_capacity < 1 {
            return Err(ServeError::Config {
                field: "cache_capacity",
            });
        }
        if self.cache_shards < 1 {
            return Err(ServeError::Config {
                field: "cache_shards",
            });
        }
        if self.queue_bound < 1 {
            return Err(ServeError::Config {
                field: "queue_bound",
            });
        }
        if self.busy_retry_ms < 1 {
            return Err(ServeError::Config {
                field: "busy_retry_ms",
            });
        }
        if self.stall.is_zero() {
            return Err(ServeError::Config { field: "stall" });
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 8,
            cache_capacity: 32,
            cache_shards: 8,
            queue_bound: 256,
            busy_retry_ms: 25,
            stall: Duration::from_secs(5),
        }
    }
}

/// Monotonic serving counters, shared across all server threads.
#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    predictions: AtomicU64,
    batches: AtomicU64,
    peak_batch: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    errors: AtomicU64,
    busy_rejections: AtomicU64,
    stall_evictions: AtomicU64,
    queue_depth_max: AtomicU64,
}

impl ServeStats {
    fn snapshot(&self) -> StatsReply {
        StatsReply {
            requests: self.requests.load(Ordering::Relaxed),
            predictions: self.predictions.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            peak_batch: self.peak_batch.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            stall_evictions: self.stall_evictions.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
        }
    }

    fn record_batch(&self, size: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.peak_batch.fetch_max(size, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running model server.
pub struct Server {
    model: GraphSage,
    listener: TcpListener,
    addr: SocketAddr,
    cancel: Arc<AtomicBool>,
    config: ServerConfig,
    observer: Arc<dyn Observer>,
}

impl Server {
    /// Binds a listener and validates that `model` can serve CDFG inputs.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] when the model's input width or class count
    /// does not match the CDFG feature contract; [`ServeError::Io`] when
    /// the address cannot be bound.
    pub fn bind(
        model: GraphSage,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        config.validate()?;
        if model.input_dim() != glaive_cdfg::FEATURE_DIM {
            return Err(ServeError::Model(format!(
                "model expects {}-dim node features, CDFG produces {}",
                model.input_dim(),
                glaive_cdfg::FEATURE_DIM
            )));
        }
        if model.config().classes != 3 {
            return Err(ServeError::Model(format!(
                "model has {} output classes, vulnerability estimation needs 3",
                model.config().classes
            )));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            model,
            listener,
            addr,
            cancel: Arc::new(AtomicBool::new(false)),
            config,
            observer: Arc::new(NullObserver),
        })
    }

    /// Attaches a telemetry observer (batch timings flow to it as
    /// [`Stage::Inference`], cache activity as `cache_lookup("graph", …)`).
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Server {
        self.observer = observer;
        self
    }

    /// The bound address (the OS-chosen port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cancellation flag — the same contract as
    /// `glaive_faultsim::RunControl::cancel`. Storing `true` drains the
    /// server and returns [`Server::run`].
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Serves until the cancellation flag is set (by a `Shutdown` frame or
    /// an external holder of [`Server::cancel_flag`]), then drains and
    /// returns the final counters.
    ///
    /// # Errors
    ///
    /// Only fatal listener failures; per-connection errors are counted and
    /// answered, never fatal.
    pub fn run(self) -> io::Result<StatsReply> {
        let stats = Arc::new(ServeStats::default());
        let shared = Shared {
            cancel: self.cancel.clone(),
            stats: stats.clone(),
            cache: GraphCache::with_shards(self.config.cache_capacity, self.config.cache_shards),
            prep_queue: JobQueue::new(),
            batch_queue: JobQueue::new(),
            observer: self.observer.clone(),
            admitted: AtomicU64::new(0),
            queue_bound: self.config.queue_bound as u64,
            busy_retry_ms: self.config.busy_retry_ms,
            stall: self.config.stall,
        };
        let (completions_tx, completions_rx) = mpsc::channel::<Completion>();
        let model = &self.model;
        let shared = &shared;

        std::thread::scope(|scope| -> io::Result<()> {
            let batcher = {
                let tx = completions_tx.clone();
                scope.spawn(move || batcher_loop(model, shared, &tx))
            };
            let preps: Vec<_> = (0..self.config.workers.max(1))
                .map(|_| {
                    let tx = completions_tx.clone();
                    scope.spawn(move || prep_loop(shared, &tx))
                })
                .collect();
            drop(completions_tx);

            let result = poll_loop(&self.listener, shared, &completions_rx);

            // Drain order matters: stop feeding the prep pool, let it
            // finish building, then let the batcher run dry.
            shared.prep_queue.close();
            for p in preps {
                let _ = p.join();
            }
            shared.batch_queue.close();
            let _ = batcher.join();
            result
        })?;

        Ok(stats.snapshot())
    }

    /// Runs the server on a background thread, returning a handle for
    /// shutdown and joining — the in-process harness the differential and
    /// concurrency tests drive.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let cancel = self.cancel.clone();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            cancel,
            thread,
        }
    }
}

/// A running background server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    cancel: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<io::Result<StatsReply>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without a client connection.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Waits for the server to drain and returns its final counters.
    ///
    /// # Errors
    ///
    /// The run loop's fatal listener error, if any.
    ///
    /// # Panics
    ///
    /// If the server thread itself panicked.
    pub fn join(self) -> io::Result<StatsReply> {
        self.thread.join().expect("server thread panicked")
    }
}

/// Everything the server threads share.
struct Shared {
    cancel: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    cache: GraphCache,
    prep_queue: JobQueue<PrepTask>,
    batch_queue: JobQueue<ServeJob>,
    observer: Arc<dyn Observer>,
    /// Predict requests admitted but not yet answered — the quantity the
    /// admission bound polices. Only the poll thread increments (it is
    /// the only admitter); completion paths decrement.
    admitted: AtomicU64,
    queue_bound: u64,
    busy_retry_ms: u32,
    stall: Duration,
}

/// Routes a completed reply back to its exact request slot: connection
/// index, the connection's generation (slot reuse), and the per-connection
/// request sequence (pipelining order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token {
    conn: usize,
    gen: u64,
    seq: u64,
}

/// What an admitted inference request asks the server to compute.
enum TaskKind {
    /// Per-instruction vulnerability estimates (the original opcode).
    Predict { top_k: u32, want_bits: bool },
    /// A budgeted protection-set selection over those estimates.
    Budget { overhead_pct: u32 },
}

/// An admitted inference request on its way to the prep pool.
struct PrepTask {
    token: Token,
    spec: ProgramSpec,
    stride: u32,
    kind: TaskKind,
}

/// What the batcher must do with a prepared program's forward pass.
enum JobKind {
    Predict {
        top_k: u32,
        want_bits: bool,
    },
    /// Budget selection carries the golden-run timing profile the prep
    /// worker collected (the cost side of the knapsack).
    Budget {
        overhead_pct: u32,
        profile: TimingProfile,
    },
}

/// A prepared program on its way to the batcher.
struct ServeJob {
    token: Token,
    prepared: Arc<PreparedProgram>,
    kind: JobKind,
}

/// A finished reply travelling back to the poll thread.
struct Completion {
    token: Token,
    frame: Frame,
}

/// One slot in a connection's in-order reply queue: either still being
/// computed (identified by its request sequence) or ready to flush.
enum ReplySlot {
    Waiting(u64),
    Ready(Frame),
}

/// One client connection owned by the poll thread.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    /// Replies in request order; only the `Ready` prefix may flush.
    replies: VecDeque<ReplySlot>,
    next_seq: u64,
    gen: u64,
    last_progress: Instant,
    /// Stop reading; close once every pending reply has flushed.
    hang_up: bool,
}

enum ConnStatus {
    Alive { advanced: bool },
    Kill,
}

/// Delivers a finished response for an admitted request: the send happens
/// *before* the in-flight count drops, so the poll thread can never
/// observe a drained queue while a completion is still in the channel.
fn complete(shared: &Shared, tx: &mpsc::Sender<Completion>, token: Token, resp: &Response) {
    if matches!(resp, Response::Error { .. }) {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    let _ = tx.send(Completion {
        token,
        frame: resp.to_frame(),
    });
    shared.admitted.fetch_sub(1, Ordering::Relaxed);
}

/// The graph-preparation worker: stride validation, program resolution,
/// sharded cache lookup/build, then hand-off to the batcher. A panic in
/// one build (a hostile program hitting a bug) answers that request with
/// a typed internal error instead of wedging its reply slot.
fn prep_loop(shared: &Shared, completions: &mpsc::Sender<Completion>) {
    while let Some(task) = shared.prep_queue.pop_wait() {
        let PrepTask {
            token,
            spec,
            stride,
            kind,
        } = task;
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (prepared, init_mem) = prepare(shared, &spec, stride)?;
            let kind = match kind {
                TaskKind::Predict { top_k, want_bits } => JobKind::Predict { top_k, want_bits },
                TaskKind::Budget { overhead_pct } => JobKind::Budget {
                    overhead_pct,
                    profile: golden_profile(&prepared.program, &init_mem)?,
                },
            };
            Ok::<_, Response>((prepared, kind))
        }));
        match built {
            Ok(Ok((prepared, kind))) => {
                let accepted = shared.batch_queue.push(ServeJob {
                    token,
                    prepared,
                    kind,
                });
                if !accepted {
                    complete(
                        shared,
                        completions,
                        token,
                        &Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "server drained before the batch ran".into(),
                        },
                    );
                }
            }
            Ok(Err(resp)) => complete(shared, completions, token, &resp),
            Err(_) => complete(
                shared,
                completions,
                token,
                &Response::Error {
                    code: ErrorCode::Internal,
                    message: "graph preparation failed".into(),
                },
            ),
        }
    }
}

/// Resolves and prepares one inference request up to (but not including)
/// inference, also handing back the program's input image (budget tasks
/// profile the golden run on it).
fn prepare(
    shared: &Shared,
    spec: &ProgramSpec,
    stride: u32,
) -> Result<(Arc<PreparedProgram>, Vec<u64>), Response> {
    let Some(cdfg_config) = usize::try_from(stride)
        .ok()
        .and_then(CdfgConfig::try_with_stride)
    else {
        return Err(Response::Error {
            code: ErrorCode::BadStride,
            message: format!("stride {stride} outside 1..={}", glaive_isa::WORD_BITS),
        });
    };
    let (program, init_mem) = resolve_program(spec)?;
    let name = program.name().to_string();

    let key = program_fingerprint(&program, cdfg_config.bit_stride);
    let (prepared, hit) = shared
        .cache
        .get_or_build(key, &program, cdfg_config.bit_stride, || {
            PreparedProgram::build(program.clone(), &cdfg_config)
        });
    shared.observer.cache_lookup("graph", &name, hit);
    if hit {
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    Ok((prepared, init_mem))
}

/// Compiles the requested program (suite lookup or client-shipped raw
/// instructions) together with its input memory image (empty for raw
/// programs — the client shipped no inputs).
fn resolve_program(spec: &ProgramSpec) -> Result<(Program, Vec<u64>), Response> {
    match spec {
        ProgramSpec::Suite { name, seed } => benchmark(name, *seed)
            .map(|b| (b.program().clone(), b.init_mem))
            .ok_or_else(|| Response::Error {
                code: ErrorCode::UnknownBenchmark,
                message: format!("no suite benchmark named `{name}`"),
            }),
        ProgramSpec::Raw(program) => Ok((program.clone(), Vec::new())),
    }
}

/// Collects the golden-run timing profile a budget selection prices
/// against. A program that traps, hangs past the execution budget, or
/// ships an oversized input image cannot be priced — that is a typed
/// rejection, not a server fault.
fn golden_profile(program: &Program, init_mem: &[u64]) -> Result<TimingProfile, Response> {
    match try_profile(
        program,
        init_mem,
        &ExecConfig::default(),
        InOrderCost::default(),
    ) {
        Ok((result, profile)) if result.status.is_clean() => Ok(profile),
        Ok((result, _)) => Err(Response::Error {
            code: ErrorCode::BadRequest,
            message: format!(
                "golden run did not halt cleanly ({:?}): cycle costs are undefined",
                result.status
            ),
        }),
        Err(e) => Err(Response::Error {
            code: ErrorCode::BadRequest,
            message: format!("golden run failed: {e}"),
        }),
    }
}

/// Cleanup run when the batcher thread exits for *any* reason. A normal
/// exit (queue closed during shutdown) makes these no-ops; a panic in
/// the forward pass turns into an orderly drain: cancellation flips so
/// the poll loop unwinds, and the queued jobs are answered with typed
/// errors so their reply slots and the in-flight count resolve.
struct BatcherExitGuard<'a> {
    shared: &'a Shared,
    completions: &'a mpsc::Sender<Completion>,
}

impl Drop for BatcherExitGuard<'_> {
    fn drop(&mut self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
        for job in self.shared.batch_queue.close_and_drain() {
            complete(
                self.shared,
                self.completions,
                job.token,
                &Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server drained before the batch ran".into(),
                },
            );
        }
    }
}

/// The batching inference thread: drain everything pending, then one
/// forward pass and one completion per job.
fn batcher_loop(model: &GraphSage, shared: &Shared, completions: &mpsc::Sender<Completion>) {
    let _guard = BatcherExitGuard {
        shared,
        completions,
    };
    let mut workspace = BatchWorkspace::new();
    while let Some(jobs) = shared.batch_queue.drain_wait() {
        let start = Instant::now();
        shared.observer.stage_started(Stage::Inference, "batch");
        let prepared: Vec<Arc<PreparedProgram>> = jobs.iter().map(|j| j.prepared.clone()).collect();
        let results = workspace.run_prepared(model, &prepared);
        shared.stats.record_batch(jobs.len() as u64);
        shared.observer.stage_finished(
            Stage::Inference,
            "batch",
            start.elapsed(),
            jobs.len() as u64,
        );
        for (job, result) in jobs.iter().zip(results) {
            let resp = match &job.kind {
                JobKind::Predict { top_k, want_bits } => {
                    predict_reply(job, *top_k, *want_bits, &result)
                }
                JobKind::Budget {
                    overhead_pct,
                    profile,
                } => budget_reply(job, *overhead_pct, profile, &result),
            };
            shared.stats.predictions.fetch_add(1, Ordering::Relaxed);
            complete(shared, completions, job.token, &resp);
        }
    }
}

/// Aggregates one job's probabilities into its wire reply.
fn predict_reply(job: &ServeJob, top_k: u32, want_bits: bool, result: &BatchResult) -> Response {
    let prepared = &job.prepared;
    let program_len = prepared.program.len();
    let tuples = glaive::aggregate_bit_probs(&prepared.cdfg, program_len, &result.probs);
    let wire_tuples: Vec<Option<WireTuple>> = tuples
        .iter()
        .map(|t| t.map(|v| [v.crash as f32, v.sdc as f32, v.masked as f32]))
        .collect();

    // Protection set: covered PCs by descending severity, PC order as the
    // deterministic tie-break.
    let mut ranked: Vec<u32> = tuples
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_some())
        .map(|(pc, _)| pc as u32)
        .collect();
    ranked.sort_by(|&a, &b| {
        let ka = tuples[a as usize]
            .expect("filtered to covered")
            .ranking_key();
        let kb = tuples[b as usize]
            .expect("filtered to covered")
            .ranking_key();
        kb.total_cmp(&ka).then(a.cmp(&b))
    });
    ranked.truncate(top_k as usize);

    Response::Predict(PredictReply {
        node_count: prepared.cdfg.node_count() as u32,
        batch_size: result.batch_size,
        tuples: wire_tuples,
        top_k: ranked,
        bit_probs: want_bits.then(|| {
            (0..result.probs.rows())
                .map(|r| {
                    let row = result.probs.row(r);
                    [row[0], row[1], row[2]]
                })
                .collect()
        }),
    })
}

/// Turns one job's forward pass plus its golden-run profile into a
/// budgeted protection set: instructions the model scored (value: the
/// `2·crash + sdc` ranking key) that actually executed (cost: their
/// golden-run cycles under the in-order model), greedily selected under a
/// `overhead_pct`% cycle budget by [`ProtectionSelector`]. Fully
/// deterministic: density order with cross-multiplied exact comparison,
/// ties broken by ascending PC.
fn budget_reply(
    job: &ServeJob,
    overhead_pct: u32,
    profile: &TimingProfile,
    result: &BatchResult,
) -> Response {
    let prepared = &job.prepared;
    let program_len = prepared.program.len();
    let tuples = glaive::aggregate_bit_probs(&prepared.cdfg, program_len, &result.probs);

    let items: Vec<ProtectionItem> = tuples
        .iter()
        .enumerate()
        .filter_map(|(pc, t)| {
            let t = (*t)?;
            let timing = profile.per_pc.get(pc)?;
            if timing.executions == 0 {
                return None; // never executed: protecting it covers nothing
            }
            Some(ProtectionItem {
                pc,
                value: t.ranking_key(),
                cost: timing.cycles,
            })
        })
        .collect();

    let selector = ProtectionSelector::with_overhead_pct(profile.total_cycles, overhead_pct);
    let selection = selector.select(&items);

    Response::Budget(BudgetReply {
        items: selection
            .chosen
            .iter()
            .map(|item| BudgetItem {
                pc: item.pc as u32,
                cycles: item.cost,
                score: item.value as f32,
            })
            .collect(),
        node_count: prepared.cdfg.node_count() as u32,
        batch_size: result.batch_size,
        total_cycles: profile.total_cycles,
        budget_cycles: selection.budget,
        spent_cycles: selection.spent,
        covered: selection.covered as f32,
    })
}

/// The event loop proper: accept, route completions, pump every
/// connection, police stalls, drain on cancellation.
fn poll_loop(
    listener: &TcpListener,
    shared: &Shared,
    completions: &mpsc::Receiver<Completion>,
) -> io::Result<()> {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;
    // Consecutive no-progress iterations, driving the idle backoff.
    let mut idle_iters: u32 = 0;

    loop {
        let mut progressed = false;
        let draining = shared.cancel.load(Ordering::Relaxed);

        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        next_gen += 1;
                        let conn = Conn {
                            stream,
                            reader: FrameReader::new(),
                            writer: FrameWriter::new(),
                            replies: VecDeque::new(),
                            next_seq: 0,
                            gen: next_gen,
                            last_progress: Instant::now(),
                            hang_up: false,
                        };
                        match free.pop() {
                            Some(i) => conns[i] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        shared.cancel.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
        }

        while let Ok(done) = completions.try_recv() {
            progressed = true;
            let Token {
                conn: idx,
                gen,
                seq,
            } = done.token;
            let Some(Some(conn)) = conns.get_mut(idx) else {
                continue;
            };
            if conn.gen != gen {
                continue; // the slot was reused by a newer connection
            }
            if let Some(slot) = conn
                .replies
                .iter_mut()
                .find(|s| matches!(s, ReplySlot::Waiting(q) if *q == seq))
            {
                *slot = ReplySlot::Ready(done.frame);
            }
        }

        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            match service_conn(conn, idx, shared, draining) {
                ConnStatus::Alive { advanced } => progressed |= advanced,
                ConnStatus::Kill => {
                    *slot = None;
                    free.push(idx);
                    progressed = true;
                }
            }
        }

        if draining {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + shared.stall);
            let inflight = shared.admitted.load(Ordering::Relaxed);
            let flushed = conns
                .iter()
                .flatten()
                .all(|c| c.writer.is_idle() && c.replies.is_empty());
            let batcher_dead = shared.batch_queue.is_closed();
            if (inflight == 0 && flushed) || batcher_dead || Instant::now() > deadline {
                return Ok(());
            }
        }

        if !progressed {
            idle_iters = idle_iters.saturating_add(1);
            if idle_iters <= IDLE_SPIN_ITERS {
                std::hint::spin_loop();
            } else if idle_iters <= IDLE_NAP_ITERS {
                std::thread::sleep(IDLE_NAP);
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        } else {
            idle_iters = 0;
        }
    }
}

/// One poll-loop visit to one connection: read and dispatch up to a burst
/// of frames, promote in-order ready replies into the writer, flush, and
/// police the stall deadline.
fn service_conn(conn: &mut Conn, idx: usize, shared: &Shared, draining: bool) -> ConnStatus {
    let mut advanced = false;

    if !conn.hang_up && !draining {
        let buffered_before = conn.reader.buffered();
        for _ in 0..FRAME_BURST {
            match conn.reader.poll(&mut conn.stream) {
                Ok(FramePoll::Ready) => {
                    advanced = true;
                    process_frame(conn, idx, shared);
                    conn.reader.consume();
                    if conn.hang_up {
                        break;
                    }
                }
                Ok(FramePoll::Pending) => break,
                Ok(FramePoll::Closed) => {
                    // Clean EOF. If replies are still owed (the peer
                    // half-closed after pipelining requests), flush them
                    // first; otherwise the conversation is over.
                    if conn.replies.is_empty() && conn.writer.is_idle() {
                        return ConnStatus::Kill;
                    }
                    conn.hang_up = true;
                    break;
                }
                Err(err) => {
                    // Unframeable traffic: answer (after any replies
                    // already owed, in order) and hang up.
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    conn.replies.push_back(ReplySlot::Ready(
                        Response::Error {
                            code: ErrorCode::BadRequest,
                            message: err.to_string(),
                        }
                        .to_frame(),
                    ));
                    conn.hang_up = true;
                    break;
                }
            }
        }
        if conn.reader.buffered() != buffered_before {
            advanced = true;
        }
    }

    while let Some(ReplySlot::Ready(_)) = conn.replies.front() {
        let Some(ReplySlot::Ready(frame)) = conn.replies.pop_front() else {
            unreachable!("front just matched Ready");
        };
        conn.writer.enqueue(frame);
        advanced = true;
    }

    let pending_before = conn.writer.pending_bytes();
    match conn.writer.poll_write(&mut conn.stream) {
        Ok(flushed) => {
            if conn.writer.pending_bytes() != pending_before {
                advanced = true;
            }
            if flushed && conn.hang_up && conn.replies.is_empty() {
                return ConnStatus::Kill;
            }
        }
        Err(_) => return ConnStatus::Kill,
    }

    if advanced {
        conn.last_progress = Instant::now();
    } else if (conn.reader.mid_frame() || !conn.writer.is_idle())
        && conn.last_progress.elapsed() > shared.stall
    {
        // The peer stalled mid-frame or stopped draining its replies:
        // cut it off with a best-effort typed error so a frozen client
        // can never pin event-loop state forever.
        shared.stats.stall_evictions.fetch_add(1, Ordering::Relaxed);
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        conn.writer.enqueue(
            Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("peer stalled mid-frame for over {:?}", shared.stall),
            }
            .to_frame(),
        );
        let _ = conn.writer.poll_write(&mut conn.stream);
        return ConnStatus::Kill;
    }
    ConnStatus::Alive { advanced }
}

/// Decodes and dispatches one complete frame sitting in `conn.reader`.
/// Control frames answer inline on the poll thread; predict requests pass
/// admission control and leave for the prep pool with a `Waiting` slot
/// holding their place in the reply order.
fn process_frame(conn: &mut Conn, idx: usize, shared: &Shared) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    fn ready(shared: &Shared, conn: &mut Conn, resp: Response) {
        if matches!(resp, Response::Error { .. }) {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        conn.replies.push_back(ReplySlot::Ready(resp.to_frame()));
    }
    match Request::from_frame(conn.reader.frame()) {
        Err(err) => ready(
            shared,
            conn,
            Response::Error {
                code: ErrorCode::BadRequest,
                message: err.to_string(),
            },
        ),
        Ok(Request::Ping) => ready(shared, conn, Response::Pong),
        Ok(Request::Stats) => ready(shared, conn, Response::Stats(shared.stats.snapshot())),
        Ok(Request::Shutdown) => {
            shared.cancel.store(true, Ordering::Relaxed);
            ready(shared, conn, Response::ShutdownAck);
            conn.hang_up = true;
        }
        Ok(Request::Predict {
            spec,
            stride,
            top_k,
            want_bits,
        }) => admit(
            conn,
            idx,
            shared,
            spec,
            stride,
            TaskKind::Predict { top_k, want_bits },
        ),
        Ok(Request::Budget {
            spec,
            stride,
            overhead_pct,
        }) => admit(
            conn,
            idx,
            shared,
            spec,
            stride,
            TaskKind::Budget { overhead_pct },
        ),
    }
}

/// Admission control for inference requests (predict and budget alike).
/// Only the poll thread admits, so the load-then-add pair cannot race
/// another admitter.
fn admit(
    conn: &mut Conn,
    idx: usize,
    shared: &Shared,
    spec: ProgramSpec,
    stride: u32,
    kind: TaskKind,
) {
    fn ready(shared: &Shared, conn: &mut Conn, resp: Response) {
        if matches!(resp, Response::Error { .. }) {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        conn.replies.push_back(ReplySlot::Ready(resp.to_frame()));
    }
    let inflight = shared.admitted.load(Ordering::Relaxed);
    if inflight >= shared.queue_bound {
        shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
        ready(
            shared,
            conn,
            Response::Busy {
                retry_after_ms: shared.busy_retry_ms,
            },
        );
        return;
    }
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .queue_depth_max
        .fetch_max(inflight + 1, Ordering::Relaxed);
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let token = Token {
        conn: idx,
        gen: conn.gen,
        seq,
    };
    conn.replies.push_back(ReplySlot::Waiting(seq));
    let accepted = shared.prep_queue.push(PrepTask {
        token,
        spec,
        stride,
        kind,
    });
    if !accepted {
        // Draining: undo the admission and answer inline.
        shared.admitted.fetch_sub(1, Ordering::Relaxed);
        conn.replies.pop_back();
        ready(
            shared,
            conn,
            Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is draining".into(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_requests_resolve_by_name_and_unknown_names_are_typed() {
        let spec = |name: &str| ProgramSpec::Suite {
            name: name.into(),
            seed: 7,
        };
        let (program, init_mem) = resolve_program(&spec("lu")).expect("a suite name resolves");
        let lu = glaive_bench_suite::benchmark("lu", 7).expect("suite benchmark");
        assert_eq!(program.name(), "lu");
        assert_eq!(program.len(), lu.program().len());
        assert_eq!(init_mem, lu.init_mem);
        assert_eq!(
            resolve_program(&spec("nope")).map(|_| ()),
            Err(Response::Error {
                code: ErrorCode::UnknownBenchmark,
                message: "no suite benchmark named `nope`".into(),
            })
        );
    }
}
