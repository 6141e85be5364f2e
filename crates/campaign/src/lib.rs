//! Distributed fault-injection campaign fabric.
//!
//! The GLAIVE ground-truth campaign is embarrassingly parallel — every
//! injection is independent — but until this crate it was confined to one
//! process. Here a **coordinator** shards a campaign's canonical spec
//! space into fixed chunks and leases them over TCP (the `GLVCMP01`
//! protocol, riding the shared [`glaive_wire`] codec) to any number of
//! **worker** processes, which may join late, die mid-chunk, or straggle
//! past their lease: unacknowledged chunks are reassigned, duplicate
//! completions are deduplicated by chunk id, and every completion is
//! validated against the coordinator's own plan before merging.
//!
//! The defining property is *bit-determinism*: the merged
//! [`glaive_faultsim::GroundTruth`] — and therefore its GLVFIT01
//! serialisation and any GLVCKPT1 checkpoints taken along the way — is
//! byte-identical to a single-process [`glaive_faultsim::Campaign`] run
//! of the same configuration, regardless of worker count, scheduling
//! order, deaths or retries: merged records land at their spec index,
//! every worker recomputes the same plan (checked by a fingerprint
//! handshake), and completions are validated against the coordinator's
//! own specs (DESIGN.md §12).
//!
//! # Example (in-process fleet)
//!
//! ```
//! use glaive_isa::{Asm, Reg, AluOp};
//! use glaive_faultsim::{Campaign, CampaignConfig, RunControl};
//! use glaive_campaign::{run_distributed, FabricConfig};
//!
//! let mut asm = Asm::new("tiny");
//! asm.li(Reg(1), 21);
//! asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
//! asm.out(Reg(2));
//! asm.halt();
//! let p = asm.finish()?;
//!
//! let config = CampaignConfig::quick();
//! let serial = Campaign::try_new(&p, &[], config)?.run();
//! let distributed = run_distributed(
//!     &p,
//!     &[],
//!     config,
//!     FabricConfig::default(),
//!     2,
//!     &RunControl::new(),
//! )
//! .expect("fabric completes");
//! assert_eq!(serial.to_bytes(), distributed.to_bytes());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::net::TcpListener;

use glaive_faultsim::{CampaignConfig, CampaignError, GroundTruth, RunControl};
use glaive_isa::Program;
use glaive_wire::ProtocolError;

mod coordinator;
pub mod protocol;
mod source;
mod worker;

pub use coordinator::{Coordinator, FabricConfig};
pub use source::DistributedTruthSource;
pub use worker::{run_worker, run_worker_with, WorkerOptions, WorkerReport};

/// Typed failure of the campaign fabric. Worker misbehaviour never
/// surfaces here — a bad completion is rejected over the wire and its
/// chunk requeued; these are failures of the campaign itself or of this
/// end's transport.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// A [`FabricConfig`] field or fleet parameter is out of range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
    },
    /// The underlying campaign failed or was interrupted (checkpoint
    /// already saved where configured).
    Campaign(CampaignError),
    /// The peer spoke the protocol wrongly (or not at all).
    Protocol(ProtocolError),
    /// Transport failure (connect, read, write, accept).
    Io(String),
    /// A worker's locally recomputed plan fingerprint disagrees with the
    /// coordinator's — mismatched binaries or a corrupted job.
    PlanMismatch {
        /// The coordinator's fingerprint.
        expected: u64,
        /// The worker's locally computed fingerprint.
        actual: u64,
    },
    /// The coordinator refused a request.
    Rejected {
        /// The coordinator's stated reason.
        message: String,
    },
    /// A retry loop gave up: consecutive transient failures outlasted
    /// the [`glaive_wire::RetryPolicy`] budget. Wraps the last failure.
    RetriesExhausted {
        /// Attempts taken before giving up.
        attempts: u32,
        /// The transient failure that exhausted the budget.
        last: Box<FabricError>,
    },
}

impl FabricError {
    /// Whether a retry may succeed: transport failures, corrupted or
    /// misspoken frames, and coordinator refusals are transient (a redial
    /// re-handshakes and the coordinator requeues any abandoned lease);
    /// disagreements about the job itself are not.
    pub fn is_transient(&self) -> bool {
        match self {
            FabricError::Io(_) | FabricError::Protocol(_) | FabricError::Rejected { .. } => true,
            FabricError::InvalidConfig { .. }
            | FabricError::Campaign(_)
            | FabricError::PlanMismatch { .. }
            | FabricError::RetriesExhausted { .. } => false,
        }
    }
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::InvalidConfig { field } => {
                write!(f, "invalid fabric config: `{field}` must be at least 1")
            }
            FabricError::Campaign(e) => write!(f, "campaign failed: {e}"),
            FabricError::Protocol(e) => write!(f, "protocol violation: {e}"),
            FabricError::Io(e) => write!(f, "fabric transport error: {e}"),
            FabricError::PlanMismatch { expected, actual } => write!(
                f,
                "plan fingerprint mismatch: coordinator {expected:#018x}, worker {actual:#018x}"
            ),
            FabricError::Rejected { message } => write!(f, "rejected by coordinator: {message}"),
            FabricError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<ProtocolError> for FabricError {
    fn from(e: ProtocolError) -> FabricError {
        FabricError::Protocol(e)
    }
}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> FabricError {
        FabricError::Io(e.to_string())
    }
}

/// Runs a complete distributed campaign in one process: binds an
/// ephemeral loopback listener, spawns `workers` in-process worker
/// threads against it, and coordinates until the merge completes.
///
/// This is the drop-in path for tests, benchmarks and the suite runner;
/// multi-machine deployments use `glaive-cli campaign coordinate` /
/// `campaign worker` over the same protocol.
///
/// # Errors
///
/// The coordinator's [`Coordinator::run`] error set; worker-side errors
/// are ignored (a dead in-process worker is handled exactly like a dead
/// remote one — by reassignment).
pub fn run_distributed(
    program: &Program,
    init_mem: &[u64],
    config: CampaignConfig,
    fabric: FabricConfig,
    workers: usize,
    ctrl: &RunControl<'_>,
) -> Result<GroundTruth, FabricError> {
    if workers < 1 {
        return Err(FabricError::InvalidConfig { field: "workers" });
    }
    let coordinator = Coordinator::try_new(program, init_mem, config, fabric)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| FabricError::Io(e.to_string()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| FabricError::Io(e.to_string()))?
        .to_string();
    std::thread::scope(|scope| {
        for i in 0..workers {
            let addr = addr.clone();
            scope.spawn(move || {
                // Worker failures are the coordinator's problem to route
                // around, exactly as with remote workers.
                let _ = run_worker(&addr, &format!("inproc-{i}"), None);
            });
        }
        coordinator.run(listener, ctrl)
    })
}
