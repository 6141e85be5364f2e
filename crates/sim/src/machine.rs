use std::fmt;

use glaive_isa::{GlaiveIsa, Isa, MachineState, Program, Reg, Step};

pub use glaive_isa::Trap;

use crate::fault::{FaultSpec, OperandSlot};

/// Execution limits for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum number of dynamic instructions before the run is declared a
    /// hang ([`ExitStatus::BudgetExceeded`]).
    pub max_instrs: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_instrs: 4_000_000,
        }
    }
}

/// Why an [`ExecConfig`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecConfigError {
    /// A zero instruction budget cannot distinguish a hang from any run.
    ZeroBudget,
}

impl fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecConfigError::ZeroBudget => write!(f, "instruction budget must be at least 1"),
        }
    }
}

impl std::error::Error for ExecConfigError {}

impl ExecConfig {
    /// Creates a validated execution configuration.
    ///
    /// # Errors
    ///
    /// [`ExecConfigError::ZeroBudget`] if `max_instrs` is zero.
    pub fn try_new(max_instrs: u64) -> Result<Self, ExecConfigError> {
        if max_instrs == 0 {
            return Err(ExecConfigError::ZeroBudget);
        }
        Ok(ExecConfig { max_instrs })
    }
}

/// How a simulation run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Reached a `halt` instruction.
    Halted,
    /// Raised a processor exception.
    Trapped(Trap),
    /// Exceeded [`ExecConfig::max_instrs`] (treated as a hang).
    BudgetExceeded,
}

impl ExitStatus {
    /// Returns `true` for a clean `halt` termination.
    pub fn is_clean(self) -> bool {
        matches!(self, ExitStatus::Halted)
    }
}

/// The observable result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Termination status.
    pub status: ExitStatus,
    /// Values emitted by `out` instructions, in order.
    pub output: Vec<u64>,
    /// Total dynamic instructions executed.
    pub dyn_instrs: u64,
    /// Per-static-instruction execution counts (indexed by PC); the dynamic
    /// instance space from which fault-injection sites are drawn.
    pub exec_counts: Vec<u64>,
}

/// A machine-construction error: the inputs cannot form a runnable machine.
///
/// Distinct from [`Trap`] (a runtime exception of a well-formed machine):
/// a `MachineError` means the *benchmark* is malformed, and callers such as
/// fault-injection workers should reject it as a value instead of dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// The initial memory image is larger than the program's declared data
    /// memory.
    InitMemTooLarge {
        /// Words in the provided image.
        image_words: usize,
        /// Words of declared program memory.
        mem_words: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InitMemTooLarge {
                image_words,
                mem_words,
            } => write!(
                f,
                "initial memory image ({image_words} words) exceeds program memory \
                 ({mem_words} words)"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// A typed observer over the retire stream of a simulation run.
///
/// `on_retire` is called once per dynamic instruction, *after* the
/// instruction has executed successfully (architectural state already
/// updated, any armed output fault already applied) and before control
/// transfers to the next PC. Trapped instructions and budget exhaustion do
/// not retire and are not observed.
///
/// Observers are strictly read-only with respect to the machine: the
/// simulator hands out only the PC and the instruction, so an observer —
/// the timing layer being the canonical one — cannot perturb architectural
/// state or fault semantics. The no-op impl for `()` makes the unobserved
/// [`Simulator::run`] path zero-cost after monomorphisation.
pub trait StepObserver<I: Isa> {
    /// Witnesses the retirement of `instr` at static index `pc`.
    fn on_retire(&mut self, pc: usize, instr: &I::Instr);
}

impl<I: Isa> StepObserver<I> for () {
    #[inline]
    fn on_retire(&mut self, _pc: usize, _instr: &I::Instr) {}
}

/// An interpreter for one program execution, optionally with a single armed
/// fault. Generic over the instruction-set backend; defaults to
/// [`GlaiveIsa`] (ISA-A).
///
/// Most callers use the [`run`](crate::run) / [`run_with_fault`](crate::run_with_fault)
/// convenience functions; `Simulator` is public for callers that need to
/// single-step or inspect machine state.
#[derive(Debug, Clone)]
pub struct Simulator<'p, I: Isa = GlaiveIsa> {
    program: &'p Program<I>,
    state: MachineState,
    dyn_instrs: u64,
    exec_counts: Vec<u64>,
    max_instrs: u64,
    fault: Option<FaultSpec>,
    fault_fired: bool,
}

impl<'p, I: Isa> Simulator<'p, I> {
    /// Creates a simulator with memory initialised from `init_mem` (remaining
    /// words zeroed) and all registers zeroed. A malformed benchmark comes
    /// back as a typed [`MachineError`], so supervised pipeline workers can
    /// fail one benchmark without taking down the pool.
    ///
    /// # Errors
    ///
    /// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the program's
    /// declared data memory.
    pub fn try_new(
        program: &'p Program<I>,
        init_mem: &[u64],
        cfg: &ExecConfig,
    ) -> Result<Self, MachineError> {
        if init_mem.len() > program.mem_words() {
            return Err(MachineError::InitMemTooLarge {
                image_words: init_mem.len(),
                mem_words: program.mem_words(),
            });
        }
        let mut mem = vec![0u64; program.mem_words()];
        mem[..init_mem.len()].copy_from_slice(init_mem);
        Ok(Simulator {
            program,
            state: MachineState::new(I::NUM_REGS, mem),
            dyn_instrs: 0,
            exec_counts: vec![0; program.len()],
            max_instrs: cfg.max_instrs,
            fault: None,
            fault_fired: false,
        })
    }

    /// Arms a single-bit upset to be injected during [`Simulator::run`].
    pub(crate) fn arm_fault(&mut self, fault: FaultSpec) {
        self.fault = Some(fault);
        self.fault_fired = false;
    }

    /// Current register file contents.
    pub fn regs(&self) -> &[u64] {
        &self.state.regs
    }

    /// Current data memory contents.
    pub fn mem(&self) -> &[u64] {
        &self.state.mem
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.state.pc
    }

    fn flip(&mut self, reg: Reg, bit: u8) {
        self.state.regs[reg.index()] ^= 1u64 << (bit as u32 % 64);
    }

    /// Executes until halt, trap, or budget exhaustion and returns the
    /// observable result.
    pub fn run(&mut self) -> RunResult {
        self.run_observed(&mut ())
    }

    /// Like [`Simulator::run`], reporting every retired instruction to
    /// `observer`. The observer sees the retire stream only; it cannot
    /// influence execution, so the returned [`RunResult`] is identical to
    /// an unobserved run (the timing layer's differential tests enforce
    /// this bit-for-bit).
    pub fn run_observed<O: StepObserver<I>>(&mut self, observer: &mut O) -> RunResult {
        let status = self.run_inner(observer);
        RunResult {
            status,
            output: std::mem::take(&mut self.state.output),
            dyn_instrs: self.dyn_instrs,
            exec_counts: std::mem::take(&mut self.exec_counts),
        }
    }

    fn run_inner<O: StepObserver<I>>(&mut self, observer: &mut O) -> ExitStatus {
        loop {
            if self.dyn_instrs >= self.max_instrs {
                return ExitStatus::BudgetExceeded;
            }
            let pc = self.state.pc;
            let Some(&instr) = self.program.get(pc) else {
                return ExitStatus::Trapped(Trap::InvalidPc { pc });
            };

            // Fault injection: fire when this PC reaches the armed dynamic
            // instance. `exec_counts[pc]` counts *completed* prior
            // executions, so it equals the 0-based instance number here.
            let inject_def = if let Some(f) = self.fault {
                if !self.fault_fired && f.pc == pc && self.exec_counts[pc] == f.instance {
                    match f.slot {
                        OperandSlot::Use(i) => {
                            if let Some(&reg) = I::uses(&instr).get(i) {
                                self.flip(reg, f.bit);
                            }
                            self.fault_fired = true;
                            None
                        }
                        OperandSlot::Def(i) => {
                            self.fault_fired = true;
                            I::defs(&instr).get(i).copied().map(|reg| (reg, f.bit))
                        }
                    }
                } else {
                    None
                }
            } else {
                None
            };

            self.exec_counts[pc] += 1;
            self.dyn_instrs += 1;

            match I::execute(&instr, &mut self.state) {
                Ok(step) => {
                    // Output faults flip the destination after the write.
                    if let Some((reg, bit)) = inject_def {
                        self.flip(reg, bit);
                    }
                    observer.on_retire(pc, &instr);
                    match step {
                        Step::Next => self.state.pc = pc + 1,
                        Step::Goto(t) => self.state.pc = t,
                        Step::Halt => return ExitStatus::Halted,
                    }
                }
                Err(trap) => return ExitStatus::Trapped(trap),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, run, run_with_fault, try_run, Outcome};
    use glaive_isa::rv::{RvAsm, RvBranchCond};
    use glaive_isa::{AluOp, Asm, BranchCond, CvtOp};

    fn cfg() -> ExecConfig {
        ExecConfig { max_instrs: 10_000 }
    }

    fn sum_program() -> Program {
        let mut asm = Asm::new("sum");
        let (acc, i, one, lim) = (Reg(1), Reg(2), Reg(3), Reg(4));
        asm.li(acc, 0);
        asm.li(i, 1);
        asm.li(one, 1);
        asm.li(lim, 10);
        let top = asm.label();
        asm.bind(top);
        asm.alu(AluOp::Add, acc, acc, i);
        asm.alu(AluOp::Add, i, i, one);
        asm.branch(BranchCond::Le, i, lim, top);
        asm.out(acc);
        asm.halt();
        asm.finish().expect("resolves")
    }

    #[test]
    fn golden_sum() {
        let p = sum_program();
        let r = run(&p, &[], &cfg());
        assert_eq!(r.status, ExitStatus::Halted);
        assert_eq!(r.output, vec![55]);
        assert_eq!(r.exec_counts[4], 10); // loop body ran 10 times
    }

    #[test]
    fn load_store_roundtrip_and_oob() {
        let mut asm = Asm::new("mem");
        asm.set_mem_words(4);
        asm.li(Reg(1), 7);
        asm.li(Reg(2), 2);
        asm.store(Reg(1), Reg(2), 1); // mem[3] = 7
        asm.load(Reg(3), Reg(2), 1);
        asm.out(Reg(3));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[], &cfg());
        assert_eq!(r.output, vec![7]);

        let mut asm = Asm::new("oob");
        asm.set_mem_words(4);
        asm.li(Reg(1), 4);
        asm.load(Reg(2), Reg(1), 0);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[], &cfg());
        assert_eq!(
            r.status,
            ExitStatus::Trapped(Trap::OutOfBoundsLoad { addr: 4 })
        );
    }

    #[test]
    fn negative_address_traps() {
        let mut asm = Asm::new("neg");
        asm.set_mem_words(4);
        asm.li(Reg(1), -1);
        asm.store(Reg(1), Reg(1), 0);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[], &cfg());
        assert!(matches!(
            r.status,
            ExitStatus::Trapped(Trap::OutOfBoundsStore { .. })
        ));
    }

    #[test]
    fn falling_off_the_end_traps() {
        let mut asm = Asm::new("fall");
        asm.li(Reg(1), 1);
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[], &cfg());
        assert_eq!(r.status, ExitStatus::Trapped(Trap::InvalidPc { pc: 1 }));
    }

    #[test]
    fn budget_exhaustion_is_a_hang() {
        let mut asm = Asm::new("loop");
        let top = asm.label();
        asm.bind(top);
        asm.jump(top);
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[], &ExecConfig { max_instrs: 100 });
        assert_eq!(r.status, ExitStatus::BudgetExceeded);
        assert_eq!(r.dyn_instrs, 100);
    }

    #[test]
    fn initial_memory_is_copied_and_zero_padded() {
        let mut asm = Asm::new("init");
        asm.set_mem_words(4);
        asm.li(Reg(1), 0);
        asm.load(Reg(2), Reg(1), 1);
        asm.out(Reg(2));
        asm.load(Reg(2), Reg(1), 3);
        asm.out(Reg(2));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[9, 11], &cfg());
        assert_eq!(r.output, vec![11, 0]);
    }

    #[test]
    fn oversized_init_mem_is_a_typed_error() {
        let mut asm = Asm::new("t");
        asm.set_mem_words(1);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let err = Simulator::try_new(&p, &[1, 2], &cfg()).expect_err("image too large");
        assert_eq!(
            err,
            MachineError::InitMemTooLarge {
                image_words: 2,
                mem_words: 1
            }
        );
        assert!(err.to_string().contains("exceeds program memory"));
        // The fallible free-function entry point reports the same error.
        assert_eq!(try_run(&p, &[1, 2], &cfg()), Err(err));
    }

    #[test]
    fn exec_config_try_new_rejects_zero_budget() {
        assert_eq!(ExecConfig::try_new(0), Err(ExecConfigError::ZeroBudget));
        assert_eq!(ExecConfig::try_new(7), Ok(ExecConfig { max_instrs: 7 }));
    }

    #[test]
    fn use_fault_changes_output() {
        let p = sum_program();
        let golden = run(&p, &[], &cfg());
        // Corrupt acc (use 0 of the add at pc 4) at its last iteration.
        let f = FaultSpec {
            pc: 4,
            slot: OperandSlot::Use(0),
            bit: 3,
            instance: 9,
        };
        let faulty = run_with_fault(&p, &[], &cfg(), &f);
        assert_eq!(classify(&golden, &faulty), Outcome::Sdc);
    }

    #[test]
    fn def_fault_changes_output() {
        let p = sum_program();
        let golden = run(&p, &[], &cfg());
        let f = FaultSpec {
            pc: 4,
            slot: OperandSlot::Def(0),
            bit: 0,
            instance: 9,
        };
        let faulty = run_with_fault(&p, &[], &cfg(), &f);
        assert_eq!(classify(&golden, &faulty), Outcome::Sdc);
    }

    #[test]
    fn high_bit_fault_on_loop_counter_hangs_or_crashes() {
        let p = sum_program();
        let golden = run(&p, &[], &cfg());
        // Flip bit 63 of the loop bound: i <= lim comparison sees a huge
        // negative bound, loop exits immediately OR counter corruption runs
        // long. Either way the result must differ from golden (bit 63 of
        // the limit makes it negative -> loop exits first iteration -> SDC).
        let f = FaultSpec {
            pc: 6,
            slot: OperandSlot::Use(1),
            bit: 63,
            instance: 0,
        };
        let faulty = run_with_fault(&p, &[], &cfg(), &f);
        assert_ne!(classify(&golden, &faulty), Outcome::Masked);
    }

    #[test]
    fn masked_fault() {
        // Fault a register the program never reads again.
        let mut asm = Asm::new("dead");
        asm.li(Reg(1), 5);
        asm.li(Reg(2), 1);
        asm.alu(AluOp::Add, Reg(3), Reg(1), Reg(2));
        asm.out(Reg(3));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let golden = run(&p, &[], &cfg());
        // Corrupt r1 as an *input* of the add via AND masking: flipping a
        // high bit of r2 (value 1) changes the sum -> pick the dead write
        // instead: def of li r1 after the add has consumed it? The li
        // executes before the add, so corrupt the OUT's source after it is
        // emitted: instead corrupt an unused bit path -> flip bit of r1 def
        // then overwrite: here we corrupt li r2's def bit 0: 1 -> 0 gives
        // sum 5, SDC. For a genuinely masked case, corrupt a branch-less
        // dead register: write r4 never read.
        let mut asm = Asm::new("dead2");
        asm.li(Reg(4), 123); // dead value
        asm.li(Reg(1), 5);
        asm.out(Reg(1));
        asm.halt();
        let p2 = asm.finish().expect("resolves");
        let golden2 = run(&p2, &[], &cfg());
        let f = FaultSpec {
            pc: 0,
            slot: OperandSlot::Def(0),
            bit: 7,
            instance: 0,
        };
        let faulty2 = run_with_fault(&p2, &[], &cfg(), &f);
        assert_eq!(classify(&golden2, &faulty2), Outcome::Masked);
        // Also exercise the first program end-to-end for determinism.
        let again = run(&p, &[], &cfg());
        assert_eq!(golden, again);
    }

    #[test]
    fn fault_on_never_reached_instance_never_fires() {
        let p = sum_program();
        let golden = run(&p, &[], &cfg());
        let f = FaultSpec {
            pc: 4,
            slot: OperandSlot::Use(0),
            bit: 0,
            instance: 10_000,
        };
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        sim.arm_fault(f);
        let faulty = sim.run();
        assert!(!sim.fault_fired);
        assert_eq!(classify(&golden, &faulty), Outcome::Masked);
    }

    #[test]
    fn store_value_fault_corrupts_memory_dataflow() {
        let mut asm = Asm::new("mem-flow");
        asm.set_mem_words(2);
        asm.li(Reg(1), 3);
        asm.li(Reg(2), 0);
        asm.store(Reg(1), Reg(2), 0);
        asm.load(Reg(3), Reg(2), 0);
        asm.out(Reg(3));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let golden = run(&p, &[], &cfg());
        assert_eq!(golden.output, vec![3]);
        let f = FaultSpec {
            pc: 2,
            slot: OperandSlot::Use(0),
            bit: 2,
            instance: 0,
        };
        let faulty = run_with_fault(&p, &[], &cfg(), &f);
        assert_eq!(faulty.output, vec![7]);
        assert_eq!(classify(&golden, &faulty), Outcome::Sdc);
    }

    #[test]
    fn address_fault_can_crash() {
        let mut asm = Asm::new("addr");
        asm.set_mem_words(2);
        asm.li(Reg(1), 0);
        asm.load(Reg(2), Reg(1), 0);
        asm.out(Reg(2));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let golden = run(&p, &[], &cfg());
        // Flip a high bit of the base address register.
        let f = FaultSpec {
            pc: 1,
            slot: OperandSlot::Use(0),
            bit: 40,
            instance: 0,
        };
        let faulty = run_with_fault(&p, &[], &cfg(), &f);
        assert_eq!(classify(&golden, &faulty), Outcome::Crash);
    }

    #[test]
    fn simulator_state_accessors() {
        let mut asm = Asm::new("acc");
        asm.set_mem_words(2);
        asm.li(Reg(1), 9);
        asm.li(Reg(2), 0);
        asm.store(Reg(1), Reg(2), 1);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        assert_eq!(sim.pc(), 0);
        assert!(!sim.fault_fired);
        let r = sim.run();
        assert!(r.status.is_clean());
        assert_eq!(sim.regs()[1], 9);
        assert_eq!(sim.mem()[1], 9);
    }

    #[test]
    fn cvt_roundtrip() {
        let mut asm = Asm::new("cvt");
        asm.li(Reg(1), -42);
        asm.cvt(CvtOp::IntToFloat, Reg(2), Reg(1));
        asm.cvt(CvtOp::FloatToInt, Reg(3), Reg(2));
        asm.out(Reg(3));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let r = run(&p, &[], &cfg());
        assert_eq!(r.output, vec![(-42i64) as u64]);
    }

    /// A retire counter: the simplest useful [`StepObserver`].
    struct RetireLog {
        n: u64,
        pcs: Vec<usize>,
    }

    impl<I: Isa> StepObserver<I> for RetireLog {
        fn on_retire(&mut self, pc: usize, _instr: &I::Instr) {
            self.n += 1;
            self.pcs.push(pc);
        }
    }

    #[test]
    fn observer_sees_every_retire_without_perturbing_the_run() {
        let p = sum_program();
        let golden = run(&p, &[], &cfg());
        let mut log = RetireLog { n: 0, pcs: vec![] };
        let observed = crate::try_run_observed(&p, &[], &cfg(), &mut log).expect("well-formed");
        // Observation is invisible to the architectural result…
        assert_eq!(observed, golden);
        // …and complete: every dynamic instruction of a clean run retires.
        assert_eq!(log.n, golden.dyn_instrs);
        assert_eq!(log.pcs[0], 0);
        assert_eq!(*log.pcs.last().expect("non-empty"), p.len() - 1);
    }

    #[test]
    fn trapped_instruction_does_not_retire() {
        let mut asm = Asm::new("oob");
        asm.set_mem_words(4);
        asm.li(Reg(1), 9);
        asm.load(Reg(2), Reg(1), 0);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let mut log = RetireLog { n: 0, pcs: vec![] };
        let r = crate::try_run_observed(&p, &[], &cfg(), &mut log).expect("well-formed");
        assert!(matches!(r.status, ExitStatus::Trapped(_)));
        // The li retires; the trapping load is counted but never observed.
        assert_eq!(r.dyn_instrs, 2);
        assert_eq!(log.n, 1);
    }

    #[test]
    fn observed_fault_run_matches_unobserved() {
        let p = sum_program();
        let f = FaultSpec {
            pc: 4,
            slot: OperandSlot::Use(0),
            bit: 3,
            instance: 9,
        };
        let plain = run_with_fault(&p, &[], &cfg(), &f);
        let mut log = RetireLog { n: 0, pcs: vec![] };
        let observed =
            crate::try_run_with_fault_observed(&p, &[], &cfg(), &f, &mut log).expect("well-formed");
        assert_eq!(observed, plain);
        assert_eq!(log.n, plain.dyn_instrs);
    }

    /// The same driver (run, fault injection, classification) works on the
    /// ISA-B backend through the `Isa` trait.
    #[test]
    fn rv_backend_runs_and_injects_faults() {
        let mut asm = RvAsm::new("rv-sum");
        let (acc, i, lim) = (Reg(5), Reg(6), Reg(7));
        asm.li(acc, 0);
        asm.li(i, 1);
        asm.li(lim, 10);
        let top = asm.label();
        asm.bind(top);
        asm.alu(glaive_isa::rv::RvAluOp::Add, acc, acc, i);
        asm.addi(i, i, 1);
        asm.branch(RvBranchCond::Bge, lim, i, top);
        asm.mv(Reg(10), acc);
        asm.ecall();
        asm.ebreak();
        let p = asm.finish().expect("resolves");
        let golden = run(&p, &[], &cfg());
        assert_eq!(golden.status, ExitStatus::Halted);
        assert_eq!(golden.output, vec![55]);

        // Corrupt the accumulator input of the add at its final iteration:
        // SDC, exactly like the ISA-A twin of this test.
        let f = FaultSpec {
            pc: 3,
            slot: OperandSlot::Use(0),
            bit: 3,
            instance: 9,
        };
        let faulty = run_with_fault(&p, &[], &cfg(), &f);
        assert_eq!(classify(&golden, &faulty), Outcome::Sdc);

        // A fault aimed at x0 (use 0 of `li acc` = addi acc, x0, 0) is
        // architecturally masked: the hardwired zero reads as zero anyway.
        let fx0 = FaultSpec {
            pc: 0,
            slot: OperandSlot::Use(0),
            bit: 17,
            instance: 0,
        };
        let masked = run_with_fault(&p, &[], &cfg(), &fx0);
        assert_eq!(classify(&golden, &masked), Outcome::Masked);
    }
}
