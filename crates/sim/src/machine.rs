use std::fmt;

use glaive_isa::{MachineState, Op, Program, Reg, Step, NUM_REGS};

pub use glaive_isa::Trap;

use crate::fault::{FaultSpec, OperandSlot};
use crate::trace::Shadow;

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

/// An observer over the retire stream of a simulation run.
///
/// `on_retire` is called once per dynamic instruction, *after* the
/// instruction has executed successfully and before control transfers to
/// the next PC. Trapped instructions and budget exhaustion do not retire
/// and are not observed.
///
/// Observers are strictly read-only with respect to the machine: the
/// simulator hands out only the static PC, so an observer — the timing
/// layer being the canonical one — cannot perturb architectural state or
/// fault semantics. It looks up what it needs of the instruction in the
/// program it was built for. The no-op impl for `()` makes the unobserved
/// [`Simulator::run`] path zero-cost after monomorphisation.
pub trait StepObserver {
    /// Witnesses the retirement of the instruction at static index `pc`.
    fn on_retire(&mut self, pc: usize);
}

impl StepObserver for () {
    #[inline]
    fn on_retire(&mut self, _pc: usize) {}
}

/// An interpreter for one program execution, optionally with a single armed
/// fault.
///
/// The machine lowers its program once, when it is built, with
/// [`Op::lower`], and every run executes the lowered ops.
///
/// Most callers use the [`run`](crate::run) / [`run_with_fault`](crate::run_with_fault)
/// convenience functions; a `Simulator` is built directly to reuse one
/// machine across many faults with [`GoldenTrace::outcome`](crate::GoldenTrace::outcome),
/// to report a malformed benchmark as a value, or to watch a run with
/// [`Simulator::run_observed`].
#[derive(Debug, Clone)]
pub struct Simulator<'p> {
    program: &'p Program,
    /// The program lowered for [`Op::execute`], one op per instruction.
    ops: Vec<Op>,
    pub(crate) state: MachineState,
    pub(crate) dyn_instrs: u64,
    pub(crate) exec_counts: Vec<u64>,
    pub(crate) max_instrs: u64,
    pub(crate) fault: Option<FaultSpec>,
    pub(crate) fault_fired: bool,
    /// Golden memory for [`GoldenTrace`](crate::GoldenTrace) replay, set
    /// on the machine's first restore.
    pub(crate) shadow: Option<Shadow>,
}

impl<'p> Simulator<'p> {
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
        program: &'p Program,
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
            ops: program.instrs().iter().map(Op::lower).collect(),
            state: MachineState::new(NUM_REGS, mem),
            dyn_instrs: 0,
            exec_counts: vec![0; program.len()],
            max_instrs: cfg.max_instrs,
            fault: None,
            fault_fired: false,
            shadow: None,
        })
    }

    /// Arms a single-bit upset, injected when the run reaches its dynamic
    /// instance; it fires at most once.
    pub fn arm_fault(&mut self, fault: FaultSpec) {
        self.fault = Some(fault);
        self.fault_fired = false;
    }

    fn flip(&mut self, reg: Reg, bit: u8) {
        self.state.regs[reg.index()] ^= 1u64 << (bit as u32 % 64);
    }

    /// Executes until halt, trap, or budget exhaustion and returns the
    /// observable result. The machine keeps its state: a second call
    /// continues from where the first stopped.
    pub fn run(&mut self) -> RunResult {
        self.run_observed(&mut ())
    }

    /// Like [`Simulator::run`], reporting every retired instruction to
    /// `observer`. The observer sees the retire stream only; it cannot
    /// influence execution, so the returned [`RunResult`] is identical to
    /// an unobserved run (the timing layer's differential tests enforce
    /// this bit-for-bit).
    pub fn run_observed<O: StepObserver>(&mut self, observer: &mut O) -> RunResult {
        let status = self.run_to_exit(observer);
        self.result(status)
    }

    /// Executes until halt, trap or budget exhaustion.
    pub(crate) fn run_to_exit<O: StepObserver>(&mut self, observer: &mut O) -> ExitStatus {
        // Without a pause point, `None` cannot come back.
        self.run_until(observer, u64::MAX)
            .unwrap_or(ExitStatus::BudgetExceeded)
    }

    /// The observable result of a run that stopped with `status`.
    pub(crate) fn result(&self, status: ExitStatus) -> RunResult {
        RunResult {
            status,
            output: self.state.output.clone(),
            dyn_instrs: self.dyn_instrs,
            exec_counts: self.exec_counts.clone(),
        }
    }

    /// Executes until halt, trap or budget exhaustion, or until `pause_at`
    /// instructions have retired, whichever comes first; `None` means the
    /// run paused and can be continued.
    ///
    /// The run loop is split at the fault: while one is armed, a step also
    /// tests whether it is at the fault's PC; the firing step runs once
    /// through [`Simulator::fire`], and the steps after it test only the
    /// budget and the pause point.
    pub(crate) fn run_until<O: StepObserver>(
        &mut self,
        observer: &mut O,
        pause_at: u64,
    ) -> Option<ExitStatus> {
        let limit = pause_at.min(self.max_instrs);
        if self.fault.is_some() && !self.fault_fired {
            self.steps::<O, true>(observer, limit)
        } else {
            self.steps::<O, false>(observer, limit)
        }
    }

    /// The run loop: steps until `limit` instructions have retired or the
    /// run exits. With `ARMED`, the step at the armed fault's dynamic
    /// instance goes through [`Simulator::fire`] and the loop continues
    /// unarmed.
    #[inline(always)]
    fn steps<O: StepObserver, const ARMED: bool>(
        &mut self,
        observer: &mut O,
        limit: u64,
    ) -> Option<ExitStatus> {
        let (fire_pc, fire_at) = self.fault.map_or((0, 0), |f| (f.pc, f.instance));
        loop {
            if self.dyn_instrs >= limit {
                return (self.dyn_instrs >= self.max_instrs).then_some(ExitStatus::BudgetExceeded);
            }
            let pc = self.state.pc;
            let Some(&op) = self.ops.get(pc) else {
                return Some(ExitStatus::Trapped(Trap::InvalidPc { pc }));
            };
            // `exec_counts[pc]` counts *completed* prior executions, so it
            // equals the 0-based instance number here.
            if ARMED && pc == fire_pc && self.exec_counts[pc] == fire_at {
                return match self.fire(observer, pc, op) {
                    None => self.steps::<O, false>(observer, limit),
                    exit => exit,
                };
            }
            if let Some(exit) = self.step(observer, pc, op) {
                return Some(exit);
            }
        }
    }

    /// Counts, executes and retires the fetched instruction at `pc`;
    /// `Some` when the run stops at it.
    #[inline(always)]
    fn step<O: StepObserver>(&mut self, observer: &mut O, pc: usize, op: Op) -> Option<ExitStatus> {
        self.exec_counts[pc] += 1;
        self.dyn_instrs += 1;
        match op.execute(&mut self.state) {
            Ok(step) => {
                observer.on_retire(pc);
                match step {
                    Step::Next => self.state.pc = pc + 1,
                    Step::Goto(t) => self.state.pc = t,
                    Step::Halt => return Some(ExitStatus::Halted),
                }
                None
            }
            Err(trap) => Some(ExitStatus::Trapped(trap)),
        }
    }

    /// [`Simulator::step`] with the armed single-bit upset: a use fault
    /// flips its register before the instruction executes, a def fault
    /// after it writes. A slot the instruction does not have flips
    /// nothing, and the fault still counts as fired.
    #[cold]
    #[inline(never)]
    fn fire<O: StepObserver>(&mut self, observer: &mut O, pc: usize, op: Op) -> Option<ExitStatus> {
        let fault = self.fault.expect("fire runs only with a fault armed");
        self.fault_fired = true;
        let instr = &self.program.instrs()[pc];
        let def = match fault.slot {
            OperandSlot::Use(i) => {
                if let Some(&reg) = instr.uses().get(i) {
                    self.flip(reg, fault.bit);
                }
                None
            }
            OperandSlot::Def(i) => instr.defs().get(i).copied(),
        };
        let exit = self.step(observer, pc, op);
        if let (Some(reg), None | Some(ExitStatus::Halted)) = (def, exit) {
            self.flip(reg, fault.bit);
        }
        exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, run, run_with_fault, Outcome};
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
    fn run_leaves_the_final_state_in_the_machine() {
        let mut asm = Asm::new("acc");
        asm.set_mem_words(2);
        asm.li(Reg(1), 9);
        asm.li(Reg(2), 0);
        asm.store(Reg(1), Reg(2), 1);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        assert_eq!(sim.state.pc, 0);
        assert!(!sim.fault_fired);
        let r = sim.run();
        assert!(r.status.is_clean());
        assert_eq!(sim.state.regs[1], 9);
        assert_eq!(sim.state.mem[1], 9);
    }

    #[test]
    fn a_second_run_continues_from_the_halt() {
        let p = sum_program();
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        let first = sim.run();
        let second = sim.run();
        // The halt executes once more; nothing else changes.
        assert_eq!(second.status, ExitStatus::Halted);
        assert_eq!(second.output, first.output);
        assert_eq!(second.dyn_instrs, first.dyn_instrs + 1);
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

    impl StepObserver for RetireLog {
        fn on_retire(&mut self, pc: usize) {
            self.n += 1;
            self.pcs.push(pc);
        }
    }

    #[test]
    fn observer_sees_every_retire_without_perturbing_the_run() {
        let p = sum_program();
        let golden = run(&p, &[], &cfg());
        let mut log = RetireLog { n: 0, pcs: vec![] };
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        let observed = sim.run_observed(&mut log);
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
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        let r = sim.run_observed(&mut log);
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
        let mut sim = Simulator::try_new(&p, &[], &cfg()).expect("well-formed");
        sim.arm_fault(f);
        let observed = sim.run_observed(&mut log);
        assert_eq!(observed, plain);
        assert_eq!(log.n, plain.dyn_instrs);
    }
}
