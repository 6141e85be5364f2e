use glaive_isa::{Program, Reg, NUM_REGS};
use glaive_sim::{ExecConfig, MachineError, RunResult, Simulator, StepObserver};

use crate::cost::CycleModel;

/// Cycle accounting for one static instruction, accumulated over all of its
/// dynamic executions in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcTiming {
    /// Dynamic executions observed.
    pub executions: u64,
    /// Summed issue-to-completion latency charged by the cost model.
    pub cycles: u64,
    /// Summed cycles this instruction stalled waiting on operands.
    pub stalls: u64,
    /// Summed residency of the values this instruction defined: cycles
    /// from each definition to its last use before overwrite (or to the
    /// close of the run for values still live at exit).
    pub residency_sum: u64,
    /// Number of closed definition intervals behind `residency_sum`.
    pub residency_count: u64,
}

/// The timing summary of one observed run.
///
/// A profile is a pure function of (program, input image, cost model): the
/// observer that builds it is deterministic and read-only, so profiles can
/// be compared, cached, and serialized without a tolerance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingProfile {
    /// Completion cycle of the last retired instruction (0 for an empty
    /// run).
    pub total_cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Per-static-instruction accounting, indexed by PC.
    pub per_pc: Vec<PcTiming>,
}

/// An open definition interval: register defined at `def_issue` by `pc`,
/// last read at `last_touch`.
#[derive(Debug, Clone, Copy)]
struct LiveDef {
    pc: usize,
    def_issue: u64,
    last_touch: u64,
}

/// What pricing one retirement of a static instruction needs, computed once
/// per program: its latency and where its operands sit in
/// [`TimingObserver::operands`].
#[derive(Debug, Clone, Copy)]
struct Static {
    latency: u64,
    /// Start of its sources, followed by its destinations.
    first: usize,
    uses: usize,
    defs: usize,
}

/// A [`StepObserver`] that prices the retire stream with a [`CycleModel`]
/// and a register scoreboard, producing a [`TimingProfile`].
///
/// The machine model is a single-issue in-order pipeline: one instruction
/// issues per cycle, an instruction whose source operands are not yet
/// available stalls until the producing latency has elapsed, and the run's
/// total cycle count is the completion cycle of its last retirement. The
/// observer is read-only — it watches retired PCs and touches no
/// architectural state, so enabling it cannot change a run's result.
/// Operands and latencies are looked up per PC, computed when the observer
/// is built, so a retirement allocates nothing.
#[derive(Debug)]
pub struct TimingObserver {
    /// Per-PC latency and operand ranges.
    statics: Vec<Static>,
    /// Register operands of every instruction, sources first, in PC order.
    operands: Vec<Reg>,
    /// Next cycle at which the issue slot is free.
    cursor: u64,
    /// Max completion cycle seen so far.
    total: u64,
    retired: u64,
    /// Per-register cycle at which the last write's value is available.
    ready: Vec<u64>,
    /// Per-register open definition interval (residency tracking).
    live: Vec<Option<LiveDef>>,
    per_pc: Vec<PcTiming>,
}

impl TimingObserver {
    /// Creates an observer that prices `program` under `model`.
    pub fn new<M: CycleModel>(model: M, program: &Program) -> Self {
        let mut operands = Vec::new();
        let statics = program
            .instrs()
            .iter()
            .map(|instr| {
                let (uses, defs) = (instr.uses(), instr.defs());
                let first = operands.len();
                operands.extend(uses.iter().chain(&defs));
                Static {
                    latency: model
                        .latency(instr.opcode().class(), instr.mem_access())
                        .max(1),
                    first,
                    uses: uses.len(),
                    defs: defs.len(),
                }
            })
            .collect();
        TimingObserver {
            statics,
            operands,
            cursor: 0,
            total: 0,
            retired: 0,
            ready: vec![0; NUM_REGS],
            live: vec![None; NUM_REGS],
            per_pc: vec![PcTiming::default(); program.len()],
        }
    }

    fn close(per_pc: &mut [PcTiming], def: LiveDef) {
        let t = &mut per_pc[def.pc];
        t.residency_sum += def.last_touch - def.def_issue;
        t.residency_count += 1;
    }

    /// Closes all still-live definition intervals and returns the profile.
    pub fn finish(mut self) -> TimingProfile {
        for slot in &mut self.live {
            if let Some(def) = slot.take() {
                Self::close(&mut self.per_pc, def);
            }
        }
        TimingProfile {
            total_cycles: self.total,
            retired: self.retired,
            per_pc: self.per_pc,
        }
    }
}

impl StepObserver for TimingObserver {
    fn on_retire(&mut self, pc: usize) {
        let Static {
            latency,
            first,
            uses,
            defs,
        } = self.statics[pc];
        let (uses, defs) = self.operands[first..first + uses + defs].split_at(uses);

        let operands_ready = uses
            .iter()
            .map(|r| self.ready[r.index()])
            .max()
            .unwrap_or(0);
        let issue = self.cursor.max(operands_ready);
        let complete = issue + latency;
        let t = &mut self.per_pc[pc];
        t.executions += 1;
        t.cycles += latency;
        t.stalls += issue - self.cursor;
        self.cursor = issue + 1;
        self.total = self.total.max(complete);
        self.retired += 1;

        // Residency: reads extend the open interval of their source value;
        // a write closes the previous interval of the destination and opens
        // a new one. Reads run first so `acc = acc + i` credits the old
        // `acc` definition with this use before replacing it.
        for r in uses {
            if let Some(def) = self.live[r.index()].as_mut() {
                def.last_touch = issue;
            }
        }
        for r in defs {
            self.ready[r.index()] = complete;
            if let Some(prev) = self.live[r.index()].take() {
                Self::close(&mut self.per_pc, prev);
            }
            self.live[r.index()] = Some(LiveDef {
                pc,
                def_issue: issue,
                last_touch: issue,
            });
        }
    }
}

/// Runs `program` under `model`, returning both the (observation-invariant)
/// architectural result and the timing profile.
///
/// # Errors
///
/// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the program's
/// declared data memory.
pub fn try_profile<M: CycleModel>(
    program: &Program,
    init_mem: &[u64],
    cfg: &ExecConfig,
    model: M,
) -> Result<(RunResult, TimingProfile), MachineError> {
    let mut observer = TimingObserver::new(model, program);
    let result = Simulator::try_new(program, init_mem, cfg)?.run_observed(&mut observer);
    Ok((result, observer.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{InOrderCost, UnitCost};
    use glaive_isa::{AluOp, Asm, Reg};

    fn chain_program() -> Program {
        // li r1; li r2; add r3 = r1 + r2; add r4 = r3 + r3; out r4; halt —
        // a pure dependence chain.
        let mut asm = Asm::new("chain");
        asm.li(Reg(1), 2);
        asm.li(Reg(2), 3);
        asm.alu(AluOp::Add, Reg(3), Reg(1), Reg(2));
        asm.alu(AluOp::Add, Reg(4), Reg(3), Reg(3));
        asm.out(Reg(4));
        asm.halt();
        asm.finish().expect("resolves")
    }

    #[test]
    fn unit_cost_total_equals_retired_count() {
        let p = chain_program();
        let (result, profile) =
            try_profile(&p, &[], &ExecConfig::default(), UnitCost).expect("well-formed");
        assert_eq!(result.output, vec![10]);
        assert_eq!(profile.retired, result.dyn_instrs);
        assert_eq!(profile.total_cycles, result.dyn_instrs);
        assert!(profile.per_pc.iter().all(|t| t.stalls == 0));
    }

    #[test]
    fn dependence_chain_stalls_under_in_order_model() {
        // li r1; cvt r2 = i2f r1; fadd r3 = r2 + r2; fadd r4 = r3 + r3 —
        // the 3-cycle FP adds force the dependent consumer to wait.
        let mut asm = Asm::new("fp-chain");
        asm.li(Reg(1), 2);
        asm.cvt(glaive_isa::CvtOp::IntToFloat, Reg(2), Reg(1));
        asm.fpu(glaive_isa::FpuOp::FAdd, Reg(3), Reg(2), Reg(2));
        asm.fpu(glaive_isa::FpuOp::FAdd, Reg(4), Reg(3), Reg(3));
        asm.out(Reg(4));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let (_, unit) = try_profile(&p, &[], &ExecConfig::default(), UnitCost).expect("ok");
        let (_, inorder) =
            try_profile(&p, &[], &ExecConfig::default(), InOrderCost::default()).expect("ok");
        // The chained FP adds wait on their producers: strictly more cycles
        // than the unit model, with the stall charged to the consumers.
        assert!(inorder.total_cycles > unit.total_cycles);
        assert_eq!(inorder.per_pc[2].stalls, 0); // cvt result ready in time
        assert!(inorder.per_pc[3].stalls > 0); // waits on the first fadd
    }

    #[test]
    fn residency_spans_def_to_last_use() {
        let p = chain_program();
        let (_, profile) = try_profile(&p, &[], &ExecConfig::default(), UnitCost).expect("ok");
        // r3 (defined by pc 2) is last read at pc 3: one cycle of residency
        // under the unit model (issue cycles 2 and 3).
        assert_eq!(profile.per_pc[2].residency_sum, 1);
        assert_eq!(profile.per_pc[2].residency_count, 1);
        // r1 (pc 0, issue 0) is last read by the add at issue cycle 2.
        assert_eq!(profile.per_pc[0].residency_sum, 2);
    }

    #[test]
    fn profile_is_deterministic() {
        let p = chain_program();
        let (_, a) =
            try_profile(&p, &[], &ExecConfig::default(), InOrderCost::default()).expect("ok");
        let (_, b) =
            try_profile(&p, &[], &ExecConfig::default(), InOrderCost::default()).expect("ok");
        assert_eq!(a, b);
    }
}
