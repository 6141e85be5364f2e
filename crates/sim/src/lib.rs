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

use glaive_isa::{Isa, Program};

/// Runs `program` to completion on a fresh machine whose memory is
/// initialised from `init_mem` (the remainder is zero-filled). Works for any
/// instruction-set backend; the ISA is inferred from the program.
///
/// This is the *golden* (fault-free) execution used as the reference for
/// outcome classification.
///
/// # Panics
///
/// Panics if `init_mem` exceeds the program's declared data memory; use
/// [`try_run`] to get the violation as a value instead.
pub fn run<I: Isa>(program: &Program<I>, init_mem: &[u64], cfg: &ExecConfig) -> RunResult {
    match try_run(program, init_mem, cfg) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible counterpart of [`run`].
///
/// # Errors
///
/// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the program's
/// declared data memory.
pub fn try_run<I: Isa>(
    program: &Program<I>,
    init_mem: &[u64],
    cfg: &ExecConfig,
) -> Result<RunResult, MachineError> {
    Ok(Simulator::try_new(program, init_mem, cfg)?.run())
}

/// Runs `program` with a single-bit upset injected according to `fault`.
///
/// # Panics
///
/// Panics if `init_mem` exceeds the program's declared data memory; use
/// [`try_run_with_fault`] to get the violation as a value instead.
pub fn run_with_fault<I: Isa>(
    program: &Program<I>,
    init_mem: &[u64],
    cfg: &ExecConfig,
    fault: &FaultSpec,
) -> RunResult {
    match try_run_with_fault(program, init_mem, cfg, fault) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible counterpart of [`run_with_fault`].
///
/// # Errors
///
/// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the program's
/// declared data memory.
pub fn try_run_with_fault<I: Isa>(
    program: &Program<I>,
    init_mem: &[u64],
    cfg: &ExecConfig,
    fault: &FaultSpec,
) -> Result<RunResult, MachineError> {
    let mut sim = Simulator::try_new(program, init_mem, cfg)?;
    sim.arm_fault(*fault);
    Ok(sim.run())
}

/// Like [`try_run`], reporting every retired instruction to `observer` —
/// the entry point of timing layers that watch execution without touching
/// it. The returned [`RunResult`] is identical to an unobserved run.
///
/// # Errors
///
/// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the program's
/// declared data memory.
pub fn try_run_observed<I: Isa, O: StepObserver>(
    program: &Program<I>,
    init_mem: &[u64],
    cfg: &ExecConfig,
    observer: &mut O,
) -> Result<RunResult, MachineError> {
    Ok(Simulator::try_new(program, init_mem, cfg)?.run_observed(observer))
}

/// Like [`try_run_with_fault`], reporting every retired instruction to
/// `observer`. Fault semantics are unaffected by observation: the timing
/// layer's differential tests compare this against the unobserved run
/// byte-for-byte.
///
/// # Errors
///
/// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the program's
/// declared data memory.
pub fn try_run_with_fault_observed<I: Isa, O: StepObserver>(
    program: &Program<I>,
    init_mem: &[u64],
    cfg: &ExecConfig,
    fault: &FaultSpec,
    observer: &mut O,
) -> Result<RunResult, MachineError> {
    let mut sim = Simulator::try_new(program, init_mem, cfg)?;
    sim.arm_fault(*fault);
    Ok(sim.run_observed(observer))
}
