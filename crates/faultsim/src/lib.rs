//! Systematic bit-level fault-injection campaigns — the reproduction's
//! substitute for gem5-Approxilyzer (paper §II-C).
//!
//! Like Approxilyzer, the campaign does not inject at every dynamic
//! instruction instance. Fault sites are grouped into equivalence classes
//! keyed by *(static instruction, operand slot, bit)*; a small, evenly
//! spaced sample of dynamic instances represents each class. The outcome of
//! a class (its *bit label* for GNN training) is the modal outcome over its
//! samples, ties broken by the paper's severity ranking
//! `Crash → SDC → Masked`.
//!
//! The campaign also aggregates FI-derived instruction vulnerability tuples
//! ⟨I_C, I_S, I_M⟩ and the program vulnerability P_v (§II-B), which serve as
//! the ground truth that every estimator is scored against.
//!
//! # Example
//!
//! ```
//! use glaive_isa::{Asm, Reg, AluOp};
//! use glaive_faultsim::{Campaign, CampaignConfig};
//!
//! let mut asm = Asm::new("tiny");
//! asm.li(Reg(1), 21);
//! asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
//! asm.out(Reg(2));
//! asm.halt();
//! let p = asm.finish()?;
//!
//! let config = CampaignConfig { threads: 1, ..CampaignConfig::default() };
//! let truth = Campaign::try_new(&p, &[], config)?.run();
//! assert!(truth.total_injections() > 0);
//! let pv = truth.try_program_vulnerability()?;
//! let sum = pv.crash + pv.sdc + pv.masked;
//! assert!((sum - 1.0).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod campaign;
mod checkpoint;
mod pruning;
mod scheduler;
mod serdes;
mod truth;

pub use campaign::{
    Campaign, CampaignConfig, CampaignError, CampaignPlan, CampaignProgress, InterruptReason,
    NoProgress, RunControl,
};
pub use checkpoint::{CampaignCheckpoint, CheckpointSink, FileCheckpoint, MemoryCheckpoint};
pub use scheduler::{ChunkScheduler, Lease};
pub use serdes::TruthDecodeError;
pub use truth::{
    BitSite, GroundTruth, InjectionRecord, InstrVulnerability, PcResidency, Residency, TruthError,
    VulnTuple,
};
