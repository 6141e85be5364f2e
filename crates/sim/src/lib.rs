//! Functional simulator for the GLAIVE ISA with architectural single-bit
//! fault injection.
//!
//! This crate is the reproduction's stand-in for gem5 full-system simulation:
//! it executes [`glaive_isa::Program`]s against a flat, trap-checked data
//! memory, records the dynamic execution profile, and can re-run a program
//! with a single-bit upset injected into a register operand of one dynamic
//! instruction instance — the fault model of the paper (§II-A): transient
//! faults in the registers that store instruction inputs and outputs.
//!
//! Outcomes are classified exactly as in the paper (§II-B):
//! * **Masked** — faulty output identical to the golden run,
//! * **SDC** — program completed but output differs,
//! * **Crash** — a trap (out-of-bounds access, divide-by-zero, invalid PC) or
//!   an exceeded instruction budget (hang; see DESIGN.md §3 for the fold).
//!
//! [`GoldenTrace`] keeps a golden run as periodic snapshots, so many faults
//! can be classified on one reused [`Simulator`]: each replays from the last
//! snapshot before it fires and stops once its state equals golden again,
//! with the same outcome as [`run_with_fault`] and [`classify`].
//!
//! # Example
//!
//! ```
//! use glaive_isa::{Asm, Reg, AluOp};
//! use glaive_sim::{run, run_with_fault, classify, ExecConfig, FaultSpec, OperandSlot, Outcome};
//!
//! let mut asm = Asm::new("double");
//! asm.li(Reg(1), 21);
//! asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
//! asm.out(Reg(2));
//! asm.halt();
//! let p = asm.finish()?;
//!
//! let cfg = ExecConfig::default();
//! let golden = run(&p, &[], &cfg);
//! assert_eq!(golden.output, vec![42]);
//!
//! // Flip bit 0 of the first source operand of the add at its first
//! // dynamic instance: 21 becomes 20, the output becomes 40 -> SDC.
//! let fault = FaultSpec { pc: 1, slot: OperandSlot::Use(0), bit: 0, instance: 0 };
//! let faulty = run_with_fault(&p, &[], &cfg, &fault);
//! assert_eq!(classify(&golden, &faulty), Outcome::Sdc);
//! # Ok::<(), glaive_isa::AsmError>(())
//! ```

#[cfg(test)]
mod differential;
mod fault;
mod machine;
mod outcome;
mod trace;

pub use fault::{FaultSpec, OperandSlot};
pub use machine::{
    ExecConfig, ExecConfigError, ExitStatus, MachineError, RunResult, Simulator, StepObserver, Trap,
};
pub use outcome::{classify, Outcome};
pub use trace::GoldenTrace;

use glaive_isa::Program;

/// Runs `program` to completion on a fresh machine whose memory is
/// initialised from `init_mem` (the remainder is zero-filled).
///
/// This is the *golden* (fault-free) execution used as the reference for
/// outcome classification.
///
/// # Panics
///
/// Panics if `init_mem` exceeds the program's declared data memory; build
/// the machine with [`Simulator::try_new`] to get the violation as a value
/// instead.
pub fn run(program: &Program, init_mem: &[u64], cfg: &ExecConfig) -> RunResult {
    machine(program, init_mem, cfg).run()
}

/// Runs `program` with a single-bit upset injected according to `fault`.
///
/// # Panics
///
/// Panics if `init_mem` exceeds the program's declared data memory; build
/// the machine with [`Simulator::try_new`] and arm it with
/// [`Simulator::arm_fault`] to get the violation as a value instead.
pub fn run_with_fault(
    program: &Program,
    init_mem: &[u64],
    cfg: &ExecConfig,
    fault: &FaultSpec,
) -> RunResult {
    let mut sim = machine(program, init_mem, cfg);
    sim.arm_fault(*fault);
    sim.run()
}

/// A fresh machine for `program`; panics on a malformed benchmark.
fn machine<'p>(program: &'p Program, init_mem: &[u64], cfg: &ExecConfig) -> Simulator<'p> {
    Simulator::try_new(program, init_mem, cfg).unwrap_or_else(|e| panic!("{e}"))
}
