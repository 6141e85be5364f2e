//! Cycle-cost models layered onto the GLAIVE functional simulator.
//!
//! `glaive-sim` answers *what* a program computes (and how a single-bit
//! upset changes that); this crate answers *when* — in the style of a
//! functional simulator with a timing model layered on top, the timing
//! side watches the retire stream through [`glaive_sim::StepObserver`] and
//! never touches architectural state, so fault-injection ground truth is
//! bit-identical with timing enabled or disabled (enforced by this crate's
//! differential tests).
//!
//! Three layers build on one another:
//!
//! 1. **[`CycleModel`]** — per-opcode-class latencies, ISA-neutral. The
//!    [`UnitCost`] baseline (1 cycle each, total = retired count) and a
//!    textbook [`InOrderCost`] pipeline/memory model ship in-tree.
//! 2. **[`TimingObserver`] / [`TimingProfile`]** — a register-scoreboard
//!    observer that prices a run: issue cycles, operand stalls, and the
//!    *residency* of every defined value (cycles from definition to last
//!    use before overwrite — the AVF intuition that long-lived corrupt
//!    values matter more).
//! 3. **[`ProtectionSelector`]** — a deterministic greedy knapsack that
//!    turns per-instruction vulnerability values plus per-instruction
//!    protection costs into the best protection set under an N%-overhead
//!    cycle budget (the `glaive budget` query).
//!
//! # Example
//!
//! ```
//! use glaive_isa::{AluOp, Asm, Reg};
//! use glaive_sim::ExecConfig;
//! use glaive_timing::{try_profile, UnitCost};
//!
//! let mut asm = Asm::new("double");
//! asm.li(Reg(1), 21);
//! asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
//! asm.out(Reg(2));
//! asm.halt();
//! let p = asm.finish()?;
//!
//! let (result, profile) = try_profile(&p, &[], &ExecConfig::default(), UnitCost)?;
//! assert_eq!(result.output, vec![42]);
//! // Unit cost: one cycle per retired instruction.
//! assert_eq!(profile.total_cycles, result.dyn_instrs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cost;
mod profile;
mod select;

pub use cost::{CycleModel, InOrderCost, UnitCost};
pub use profile::{try_profile, PcTiming, TimingObserver, TimingProfile};
pub use select::{ProtectionItem, ProtectionSelector, Selection};
