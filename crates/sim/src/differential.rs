//! The lowered interpreter against the one it replaced: a copy of the
//! instruction-at-a-time executor over [`Instr`] and its run loop, run side
//! by side with [`Simulator`] on random programs that use every instruction
//! form, every register and the edge values of each operation.
//!
//! The large-case variant is ignored by default; `scripts/check.sh` runs it
//! in release:
//!
//! ```text
//! cargo test --release --offline -p glaive-sim -- --ignored
//! ```

use glaive_isa::{
    AluOp, BranchCond, CvtOp, FpuOp, FpuUnaryOp, Instr, MachineState, Program, Reg, Step, Trap,
    NUM_REGS,
};

use crate::{
    classify, ExecConfig, ExitStatus, FaultSpec, GoldenTrace, OperandSlot, RunResult, Simulator,
    StepObserver,
};

fn alu_eval(op: AluOp, a: u64, b: u64) -> Result<u64, Trap> {
    let (sa, sb) = (a as i64, b as i64);
    Ok(match op {
        AluOp::Add => sa.wrapping_add(sb) as u64,
        AluOp::Sub => sa.wrapping_sub(sb) as u64,
        AluOp::Mul => sa.wrapping_mul(sb) as u64,
        AluOp::Div => {
            if sb == 0 {
                return Err(Trap::DivByZero);
            }
            sa.wrapping_div(sb) as u64
        }
        AluOp::Rem => {
            if sb == 0 {
                return Err(Trap::DivByZero);
            }
            sa.wrapping_rem(sb) as u64
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32),
        AluOp::Shr => a.wrapping_shr(b as u32),
        AluOp::Sra => sa.wrapping_shr(b as u32) as u64,
        AluOp::Slt => u64::from(sa < sb),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Seq => u64::from(a == b),
    })
}

fn fpu_eval(op: FpuOp, a: f64, b: f64) -> u64 {
    match op {
        FpuOp::FAdd => (a + b).to_bits(),
        FpuOp::FSub => (a - b).to_bits(),
        FpuOp::FMul => (a * b).to_bits(),
        FpuOp::FDiv => (a / b).to_bits(),
        FpuOp::FMin => a.min(b).to_bits(),
        FpuOp::FMax => a.max(b).to_bits(),
        FpuOp::FLt => u64::from(a < b),
        FpuOp::FLe => u64::from(a <= b),
        FpuOp::FEq => u64::from(a == b),
    }
}

fn branch_eval(cond: BranchCond, a: u64, b: u64) -> bool {
    let (sa, sb) = (a as i64, b as i64);
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => sa < sb,
        BranchCond::Ge => sa >= sb,
        BranchCond::Le => sa <= sb,
        BranchCond::Gt => sa > sb,
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// The reference semantics of one instruction.
fn execute(instr: &Instr, state: &mut MachineState) -> Result<Step, Trap> {
    let r = |regs: &[u64], reg: Reg| regs[reg.index()];
    match *instr {
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = alu_eval(op, r(&state.regs, rs1), r(&state.regs, rs2))?;
            state.regs[rd.index()] = v;
            Ok(Step::Next)
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            let v = alu_eval(op, r(&state.regs, rs1), imm as u64)?;
            state.regs[rd.index()] = v;
            Ok(Step::Next)
        }
        Instr::Fpu { op, rd, rs1, rs2 } => {
            let a = f64::from_bits(r(&state.regs, rs1));
            let b = f64::from_bits(r(&state.regs, rs2));
            state.regs[rd.index()] = fpu_eval(op, a, b);
            Ok(Step::Next)
        }
        Instr::FpuUnary { op, rd, rs1 } => {
            let a = f64::from_bits(r(&state.regs, rs1));
            let v = match op {
                FpuUnaryOp::FNeg => -a,
                FpuUnaryOp::FAbs => a.abs(),
                FpuUnaryOp::FSqrt => a.sqrt(),
            };
            state.regs[rd.index()] = v.to_bits();
            Ok(Step::Next)
        }
        Instr::Cvt { op, rd, rs1 } => {
            let x = r(&state.regs, rs1);
            state.regs[rd.index()] = match op {
                CvtOp::IntToFloat => ((x as i64) as f64).to_bits(),
                CvtOp::FloatToInt => (f64::from_bits(x) as i64) as u64,
            };
            Ok(Step::Next)
        }
        Instr::Li { rd, imm } => {
            state.regs[rd.index()] = imm as u64;
            Ok(Step::Next)
        }
        Instr::Mov { rd, rs1 } => {
            state.regs[rd.index()] = r(&state.regs, rs1);
            Ok(Step::Next)
        }
        Instr::Load { rd, base, offset } => {
            let addr = r(&state.regs, base).wrapping_add(offset as u64);
            let v = *state
                .mem
                .get(addr as usize)
                .ok_or(Trap::OutOfBoundsLoad { addr })?;
            state.regs[rd.index()] = v;
            Ok(Step::Next)
        }
        Instr::Store { rs, base, offset } => {
            let addr = r(&state.regs, base).wrapping_add(offset as u64);
            let v = r(&state.regs, rs);
            state.store(addr, v)?;
            Ok(Step::Next)
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            if branch_eval(cond, r(&state.regs, rs1), r(&state.regs, rs2)) {
                Ok(Step::Goto(target))
            } else {
                Ok(Step::Next)
            }
        }
        Instr::Jump { target } => Ok(Step::Goto(target)),
        Instr::Out { rs1 } => {
            state.output.push(r(&state.regs, rs1));
            Ok(Step::Next)
        }
        Instr::Halt => Ok(Step::Halt),
    }
}

/// What the reference run loop leaves behind.
struct Reference {
    result: RunResult,
    state: MachineState,
    fired: bool,
    /// PCs in retire order.
    retired: Vec<usize>,
}

/// The reference run loop: from instruction 0 to halt, trap or budget,
/// with at most one fault.
fn reference_run(
    program: &Program,
    init_mem: &[u64],
    max_instrs: u64,
    fault: Option<FaultSpec>,
) -> Reference {
    let mut mem = vec![0u64; program.mem_words()];
    mem[..init_mem.len()].copy_from_slice(init_mem);
    let mut state = MachineState::new(NUM_REGS, mem);
    let mut exec_counts = vec![0u64; program.len()];
    let (mut dyn_instrs, mut fired, mut retired) = (0u64, false, Vec::new());
    let flip = |state: &mut MachineState, reg: Reg, bit: u8| {
        state.regs[reg.index()] ^= 1u64 << (bit as u32 % 64);
    };
    let status = loop {
        if dyn_instrs >= max_instrs {
            break ExitStatus::BudgetExceeded;
        }
        let pc = state.pc;
        let Some(&instr) = program.get(pc) else {
            break ExitStatus::Trapped(Trap::InvalidPc { pc });
        };
        let inject_def = match fault {
            Some(f) if !fired && f.pc == pc && exec_counts[pc] == f.instance => {
                fired = true;
                match f.slot {
                    OperandSlot::Use(i) => {
                        if let Some(&reg) = instr.uses().get(i) {
                            flip(&mut state, reg, f.bit);
                        }
                        None
                    }
                    OperandSlot::Def(i) => instr.defs().get(i).map(|&reg| (reg, f.bit)),
                }
            }
            _ => None,
        };
        exec_counts[pc] += 1;
        dyn_instrs += 1;
        match execute(&instr, &mut state) {
            Ok(step) => {
                if let Some((reg, bit)) = inject_def {
                    flip(&mut state, reg, bit);
                }
                retired.push(pc);
                match step {
                    Step::Next => state.pc = pc + 1,
                    Step::Goto(t) => state.pc = t,
                    Step::Halt => break ExitStatus::Halted,
                }
            }
            Err(trap) => break ExitStatus::Trapped(trap),
        }
    };
    Reference {
        result: RunResult {
            status,
            output: state.output.clone(),
            dyn_instrs,
            exec_counts,
        },
        state,
        fired,
        retired,
    }
}

/// SplitMix64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len() as u64) as usize]
    }

    fn reg(&mut self) -> Reg {
        Reg(self.below(NUM_REGS as u64) as u8)
    }
}

/// Operand values at the edges of the integer, shift and float semantics.
const EDGES: [u64; 20] = [
    0,
    1,
    2,
    3,
    u64::MAX, // -1
    u64::MAX - 1,
    i64::MIN as u64,
    i64::MAX as u64,
    63,
    64,
    65,
    127,
    1 << 32,
    (1 << 32) + 3,
    0x7ff8_0000_0000_0000, // NaN
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x8000_0000_0000_0000, // -0.0
    0x3ff8_0000_0000_0000, // 1.5
    0xc004_0000_0000_0000, // -2.5
];

/// A random program over every instruction form, with its input image.
///
/// `li`s seed about seven registers in eight with edge values; half the
/// programs wrap the random body in a counted loop, so golden runs cross
/// several snapshots. Registers come from all 32, so the body may clobber
/// the loop counter; the budget bounds such runs.
fn random_program(rng: &mut Rng) -> (Program, Vec<u64>) {
    let mem_words = 1 + rng.below(12);
    let seeded: Vec<Reg> = (0..NUM_REGS as u8)
        .map(Reg)
        .filter(|_| rng.below(8) != 0)
        .collect();
    let looped = rng.below(2) == 0;
    // A short loop body is less likely to trap or clobber the counter.
    let body = 2 + rng.below(if looped { 8 } else { 24 }) as usize;
    let (counter, bound) = (rng.reg(), rng.reg());
    let top = seeded.len() + usize::from(looped) * 2;
    let len = top + body + usize::from(looped) * 2 + 3;
    let value = |rng: &mut Rng| match rng.below(4) {
        0 => rng.next(),
        // Small addresses, in and out of bounds, and negative ones.
        1 => rng.below(mem_words + 4).wrapping_sub(2),
        _ => rng.pick(&EDGES),
    };
    let mut instrs = Vec::with_capacity(len);
    for &rd in &seeded {
        let imm = value(rng) as i64;
        instrs.push(Instr::Li { rd, imm });
    }
    if looped {
        instrs.push(Instr::Li {
            rd: counter,
            imm: 0,
        });
        instrs.push(Instr::Li {
            rd: bound,
            imm: 1 + rng.below(200) as i64,
        });
    }
    for _ in 0..body {
        let (rd, rs1, rs2) = (rng.reg(), rng.reg(), rng.reg());
        let imm = value(rng) as i64;
        let target = rng.below(len as u64 + 1) as usize;
        // In a counted loop, a halt, jump or branch is redrawn as a data
        // form two times in three, so more loops run to their bound.
        let mut form = rng.below(13);
        if looped && matches!(form, 9 | 10 | 12) && rng.below(3) != 0 {
            form = rng.below(9);
        }
        instrs.push(match form {
            0 => Instr::Alu {
                op: rng.pick(&AluOp::ALL),
                rd,
                rs1,
                rs2,
            },
            1 => Instr::AluImm {
                op: rng.pick(&AluOp::ALL),
                rd,
                rs1,
                imm,
            },
            2 => Instr::Fpu {
                op: rng.pick(&FpuOp::ALL),
                rd,
                rs1,
                rs2,
            },
            3 => Instr::FpuUnary {
                op: rng.pick(&FpuUnaryOp::ALL),
                rd,
                rs1,
            },
            4 => Instr::Cvt {
                op: rng.pick(&CvtOp::ALL),
                rd,
                rs1,
            },
            5 => Instr::Li { rd, imm },
            6 => Instr::Mov { rd, rs1 },
            7 => Instr::Load {
                rd,
                base: rs1,
                offset: imm,
            },
            8 => Instr::Store {
                rs: rs2,
                base: rs1,
                offset: imm,
            },
            9 => Instr::Branch {
                cond: rng.pick(&BranchCond::ALL),
                rs1,
                rs2,
                target,
            },
            10 => Instr::Jump { target },
            11 => Instr::Out { rs1 },
            _ => Instr::Halt,
        });
    }
    if looped {
        instrs.push(Instr::AluImm {
            op: AluOp::Add,
            rd: counter,
            rs1: counter,
            imm: 1,
        });
        instrs.push(Instr::Branch {
            cond: BranchCond::Lt,
            rs1: counter,
            rs2: bound,
            target: top,
        });
    }
    instrs.push(Instr::Out { rs1: rng.reg() });
    instrs.push(Instr::Out { rs1: rng.reg() });
    instrs.push(Instr::Halt);
    assert_eq!(instrs.len(), len);
    let program = Program::try_new("differential", instrs, mem_words as usize)
        .expect("registers and targets in range");
    let init = (0..rng.below(mem_words + 1)).map(|_| value(rng)).collect();
    (program, init)
}

/// A random fault on `golden`'s instructions: PCs up to one past the end,
/// slots beyond each instruction's operands, bits above 63, and instances
/// up to one past the last execution.
fn random_fault(rng: &mut Rng, golden: &RunResult) -> FaultSpec {
    let pc = rng.below(golden.exec_counts.len() as u64 + 1) as usize;
    let count = golden.exec_counts.get(pc).copied().unwrap_or(0);
    let slot = match rng.below(5) {
        0..=2 => OperandSlot::Use(rng.below(3) as usize),
        _ => OperandSlot::Def(rng.below(2) as usize),
    };
    FaultSpec {
        pc,
        slot,
        bit: rng.below(72) as u8,
        instance: rng.below(count + 2),
    }
}

/// Records retired PCs.
struct RetireLog(Vec<usize>);

impl StepObserver for RetireLog {
    fn on_retire(&mut self, pc: usize) {
        self.0.push(pc);
    }
}

/// Runs `program` on a fresh machine, optionally with `fault`, and checks
/// the run against the reference: the whole result, the final machine
/// state (its equality covers registers, memory, output, PC and the write
/// log), whether the fault fired, and the retire stream an observer sees.
fn assert_run_matches(
    program: &Program,
    init: &[u64],
    cfg: &ExecConfig,
    fault: Option<FaultSpec>,
) -> RunResult {
    let want = reference_run(program, init, cfg.max_instrs, fault);
    let mut sim = Simulator::try_new(program, init, cfg).expect("image fits");
    if let Some(fault) = fault {
        sim.arm_fault(fault);
    }
    let mut log = RetireLog(Vec::new());
    let got = sim.run_observed(&mut log);
    assert_eq!(got, want.result, "{fault:?}\n{}", program.disassemble());
    assert_eq!(
        sim.state,
        want.state,
        "{fault:?}\n{}",
        program.disassemble()
    );
    assert_eq!(sim.fault_fired, want.fired, "{fault:?}");
    assert_eq!(log.0, want.retired, "{fault:?}");
    got
}

/// `cases` random programs: each golden run, `faults` random faults on a
/// fresh machine, and — when golden halts cleanly — the same faults
/// through [`GoldenTrace::outcome`] on one reused machine.
fn check(seed: u64, cases: usize, faults: usize) {
    let mut rng = Rng(seed);
    let golden_cfg = ExecConfig { max_instrs: 3000 };
    let (mut clean, mut traced) = (0, 0);
    for _ in 0..cases {
        let (program, init) = random_program(&mut rng);
        let golden = assert_run_matches(&program, &init, &golden_cfg, None);
        // A budget of exactly the golden length: a run that stopped at an
        // invalid PC now runs out of budget there first.
        let exact = ExecConfig {
            max_instrs: golden.dyn_instrs.max(1),
        };
        assert_run_matches(&program, &init, &exact, None);
        let budget = ExecConfig {
            max_instrs: golden.dyn_instrs * 4 + 64,
        };
        let specs: Vec<FaultSpec> = (0..faults)
            .map(|_| random_fault(&mut rng, &golden))
            .collect();
        for &fault in &specs {
            assert_run_matches(&program, &init, &budget, Some(fault));
        }
        if !golden.status.is_clean() {
            continue;
        }
        clean += 1;
        let (recorded, trace) =
            GoldenTrace::record(&program, &init, &golden_cfg).expect("image fits");
        assert_eq!(recorded, golden);
        traced += usize::from(trace.snapshots() > 1);
        let mut sim = Simulator::try_new(&program, &init, &budget).expect("image fits");
        for fault in &specs {
            let faulty = reference_run(&program, &init, budget.max_instrs, Some(*fault));
            assert_eq!(
                trace.outcome(&mut sim, fault),
                classify(&golden, &faulty.result),
                "{fault}\n{}",
                program.disassemble()
            );
        }
    }
    // The generator must keep producing clean halts and multi-snapshot
    // traces, or the outcome checks go vacuous.
    assert!(
        clean * 5 >= cases,
        "only {clean} of {cases} golden runs halted cleanly"
    );
    assert!(
        traced * 20 >= cases,
        "only {traced} of {cases} traces crossed a snapshot"
    );
}

#[test]
fn lowered_interpreter_matches_the_reference() {
    check(19, 1000, 8);
}

#[test]
#[ignore = "about 10^4 random programs; run in release"]
fn lowered_interpreter_matches_the_reference_at_scale() {
    check(0x5eed_0019, 10_000, 16);
}
