//! The campaign worker: connects to a coordinator, independently rebuilds
//! the campaign plan from the shipped job, and computes leased chunks
//! until told the campaign is done.
//!
//! The worker is deliberately stateless across chunks and paranoid about
//! the job it accepts: it recomputes the golden run, the site enumeration
//! and the dead-definition prediction *from scratch* and refuses the job
//! unless its plan fingerprint matches the coordinator's
//! ([`FabricError::PlanMismatch`]). After that handshake, a spec index
//! means the same fault on both sides by construction, so chunk results
//! need no context beyond their records.
//!
//! ## Resilience
//!
//! Statelessness is also what makes the worker *restartable*: a session
//! that dies — connection reset, corrupted frame, coordinator crash —
//! loses nothing but its current lease, which the coordinator requeues.
//! [`run_worker_with`] therefore wraps the session in a [`Backoff`]-driven
//! reconnect loop: transient failures ([`FabricError::is_transient`])
//! redial and re-handshake, so a fleet survives a coordinator being
//! killed and restarted from a GLVCKPT1 checkpoint; fatal failures
//! (plan mismatch, unplannable job) surface immediately. Every read on
//! the coordinator connection carries a reply deadline — the worker is a
//! strict request/response client, so a silent coordinator is
//! indistinguishable from a dead one and must not wedge the thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use glaive_faultsim::{Campaign, InjectionRecord};
use glaive_wire::{
    read_reply_cancellable, sleep_cancellable, write_frame, Backoff, ChaosPlan, ProtocolError,
    ReadOutcome, RetryPolicy, Wait,
};

use crate::protocol::{chunk_sub_seed, ToCoordinator, ToWorker};
use crate::FabricError;

/// Socket read timeout: how often a blocked read re-checks cancellation.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// What a worker did before disconnecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Chunks completed and acknowledged.
    pub chunks: u64,
    /// Records simulated (excludes statically predicted indices).
    pub simulated: u64,
    /// Sessions redialled after a transient failure.
    pub reconnects: u64,
    /// Transient failures survived (each one precedes a backoff wait).
    pub retries: u64,
}

/// Tuning for a resilient worker: retry policy, reply deadline, and an
/// optional chaos plan for fault-injection testing of the fabric itself.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Backoff policy across sessions; reset whenever a session makes
    /// progress (completes a chunk), so the budget bounds *consecutive*
    /// failures, not lifetime ones.
    pub retry: RetryPolicy,
    /// How long to wait for the coordinator's reply to any request
    /// before declaring the connection dead. The worker protocol is
    /// strictly request/response: there is no legitimate long silence.
    pub reply_deadline: Duration,
    /// When set, every connection is wrapped in a seeded
    /// [`ChaosTransport`](glaive_wire::ChaosTransport).
    pub chaos: Option<ChaosPlan>,
    /// Base for chaos stream ids: session `n` uses `stream_base + n`, so
    /// reconnections draw fresh fault schedules and concurrent workers
    /// can partition the id space.
    pub stream_base: u64,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            retry: RetryPolicy::default(),
            reply_deadline: Duration::from_secs(10),
            chaos: None,
            stream_base: 0,
        }
    }
}

/// Connects to a coordinator at `addr` and works until the campaign
/// completes (clean [`WorkerReport`]), retries are exhausted, or `cancel`
/// is raised (checked between injections and inside every wait; the
/// connection is dropped and the coordinator requeues the held chunk).
///
/// Equivalent to [`run_worker_with`] under [`WorkerOptions::default`].
///
/// # Errors
///
/// The [`run_worker_with`] error set.
pub fn run_worker(
    addr: &str,
    name: &str,
    cancel: Option<&AtomicBool>,
) -> Result<WorkerReport, FabricError> {
    run_worker_with(addr, name, cancel, WorkerOptions::default())
}

/// [`run_worker`] with explicit [`WorkerOptions`]: the resilient
/// session loop. Transient failures (transport errors, corrupted frames,
/// coordinator refusals) trigger a backoff-paced redial; a coordinator
/// that dies and is restarted with `--resume` is rejoined transparently,
/// with completed work adopted from its checkpoint.
///
/// # Errors
///
/// [`FabricError::RetriesExhausted`] when consecutive transient failures
/// outlast the retry budget (wrapping the last failure);
/// [`FabricError::PlanMismatch`] / [`FabricError::Campaign`] immediately
/// for fatal disagreements about the job itself.
pub fn run_worker_with(
    addr: &str,
    name: &str,
    cancel: Option<&AtomicBool>,
    opts: WorkerOptions,
) -> Result<WorkerReport, FabricError> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let mut report = WorkerReport::default();
    let mut backoff = Backoff::new(opts.retry);
    let mut session: u64 = 0;
    loop {
        if cancelled() {
            return Ok(report);
        }
        let chunks_before = report.chunks;
        let outcome = dial_session(addr, name, cancel, &opts, session, &mut report);
        match outcome {
            Ok(()) => return Ok(report),
            Err(e) if !e.is_transient() => return Err(e),
            Err(e) => {
                if report.chunks > chunks_before {
                    backoff.reset();
                }
                report.retries += 1;
                match backoff.wait(cancel) {
                    Wait::Waited => {
                        report.reconnects += 1;
                        session += 1;
                    }
                    Wait::Cancelled => return Ok(report),
                    Wait::Exhausted => {
                        return Err(FabricError::RetriesExhausted {
                            attempts: backoff.attempts(),
                            last: Box::new(e),
                        })
                    }
                }
            }
        }
    }
}

/// Dials one session (optionally chaos-wrapped) and runs it to its end.
fn dial_session(
    addr: &str,
    name: &str,
    cancel: Option<&AtomicBool>,
    opts: &WorkerOptions,
    session: u64,
    report: &mut WorkerReport,
) -> Result<(), FabricError> {
    let stream = TcpStream::connect(addr).map_err(|e| FabricError::Io(e.to_string()))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(opts.reply_deadline));
    match &opts.chaos {
        Some(plan) => {
            let mut wrapped = plan.wrap(stream, opts.stream_base.wrapping_add(session));
            run_session(&mut wrapped, name, cancel, opts.reply_deadline, report)
        }
        None => {
            let mut stream = stream;
            run_session(&mut stream, name, cancel, opts.reply_deadline, report)
        }
    }
}

/// Why a session stopped before the coordinator declared it done.
enum Stop {
    /// The cancellation flag was raised: a clean end.
    Cancelled,
    /// The session failed.
    Failed(FabricError),
}

impl<E: Into<FabricError>> From<E> for Stop {
    fn from(e: E) -> Stop {
        Stop::Failed(e.into())
    }
}

fn corrupt(what: &'static str) -> Stop {
    Stop::Failed(FabricError::Protocol(ProtocolError::Corrupt(what)))
}

/// Sends `msg` and receives the coordinator's reply under the reply
/// deadline. An `Error` reply is a [`FabricError::Rejected`].
fn request<S: Read + Write>(
    stream: &mut S,
    msg: &ToCoordinator,
    cancel: Option<&AtomicBool>,
    deadline: Duration,
) -> Result<ToWorker, Stop> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    write_frame(stream, &msg.to_frame())?;
    match read_reply_cancellable(stream, cancel.unwrap_or(&NEVER), deadline) {
        ReadOutcome::Frame(p) => match ToWorker::from_frame(&p)? {
            ToWorker::Error { message } => Err(FabricError::Rejected { message }.into()),
            reply => Ok(reply),
        },
        ReadOutcome::Cancelled => Err(Stop::Cancelled),
        ReadOutcome::Closed => Err(FabricError::Io("coordinator hung up".into()).into()),
        ReadOutcome::Failed(e) => Err(e.into()),
    }
}

/// One worker session over `stream`: handshake, plan cross-check, then
/// the fetch/compute/complete loop until `Done`, cancellation, or error.
fn run_session<S: Read + Write>(
    stream: &mut S,
    name: &str,
    cancel: Option<&AtomicBool>,
    reply_deadline: Duration,
    report: &mut WorkerReport,
) -> Result<(), FabricError> {
    match session(stream, name, cancel, reply_deadline, report) {
        Ok(()) | Err(Stop::Cancelled) => Ok(()),
        Err(Stop::Failed(e)) => Err(e),
    }
}

fn session<S: Read + Write>(
    stream: &mut S,
    name: &str,
    cancel: Option<&AtomicBool>,
    reply_deadline: Duration,
    report: &mut WorkerReport,
) -> Result<(), Stop> {
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let hello = ToCoordinator::Hello {
        worker: name.to_string(),
    };
    let ToWorker::Welcome(job) = request(stream, &hello, cancel, reply_deadline)? else {
        return Err(corrupt("expected Welcome"));
    };

    // Rebuild the plan independently and cross-check it. A worker that
    // would disagree about what spec index `i` means must refuse the job.
    let campaign = Campaign::try_new(&job.program, &job.init_mem, job.config())
        .map_err(FabricError::Campaign)?;
    let plan = campaign.plan().map_err(FabricError::Campaign)?;
    let total = plan.specs.len();
    if plan.fingerprint != job.fingerprint || total as u64 != job.total {
        return Err(FabricError::PlanMismatch {
            expected: job.fingerprint,
            actual: plan.fingerprint,
        }
        .into());
    }
    // Dense predicted-record lookup: chunk computation takes predicted
    // indices from the plan instead of re-simulating provably-Masked
    // faults.
    let mut predicted: Vec<Option<InjectionRecord>> = vec![None; total];
    for &(i, rec) in &plan.predicted {
        predicted[i] = Some(rec);
    }

    loop {
        if cancelled() {
            return Err(Stop::Cancelled);
        }
        let a = match request(stream, &ToCoordinator::Fetch, cancel, reply_deadline)? {
            ToWorker::Assign(a) => a,
            ToWorker::Wait { retry_ms } => {
                // Cancellable wait: a shutdown signal interrupts the
                // coordinator-suggested pause promptly instead of
                // sleeping it out.
                if !sleep_cancellable(Duration::from_millis(retry_ms.min(1000)), cancel) {
                    return Err(Stop::Cancelled);
                }
                continue;
            }
            ToWorker::Done => return Ok(()),
            _ => return Err(corrupt("unexpected coordinator reply")),
        };
        // Bounds-check before indexing: an assignment is wire input, and
        // a corrupt span must become a typed error.
        let span = usize::try_from(a.start)
            .ok()
            .zip(usize::try_from(a.len).ok())
            .filter(|&(start, len)| start.checked_add(len).is_some_and(|end| end <= total));
        let Some((start, len)) = span else {
            return Err(corrupt("assignment span out of range"));
        };
        if a.sub_seed != chunk_sub_seed(plan.fingerprint, a.chunk) {
            return Err(corrupt("assignment disagrees with local plan"));
        }
        let heartbeat_after = Duration::from_millis((a.lease_ms / 3).max(1));
        let mut last_beat = Instant::now();
        let known = &predicted[start..start + len];
        let records = campaign.inject_span(&plan, start, known, |simulate| {
            if cancelled() {
                return Err(Stop::Cancelled);
            }
            report.simulated += u64::from(simulate);
            // Cooperative keep-alive: a chunk that computes longer than a
            // third of its lease phones home so the lease never expires
            // under an alive worker.
            if last_beat.elapsed() >= heartbeat_after {
                let beat = ToCoordinator::Heartbeat { chunk: a.chunk };
                if request(stream, &beat, cancel, reply_deadline)? != ToWorker::Ack {
                    return Err(corrupt("expected heartbeat Ack"));
                }
                last_beat = Instant::now();
            }
            Ok(())
        })?;
        let complete = ToCoordinator::Complete {
            chunk: a.chunk,
            sub_seed: a.sub_seed,
            records,
        };
        match request(stream, &complete, cancel, reply_deadline)? {
            ToWorker::Ack => report.chunks += 1,
            ToWorker::Done => {
                report.chunks += 1;
                return Ok(());
            }
            _ => return Err(corrupt("expected completion Ack")),
        }
    }
}
