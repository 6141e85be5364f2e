//! The interpreter's instruction form: each [`Instr`] lowered once, when a
//! machine is built, to a flat [`Op`] whose one opcode byte names both the
//! operation and its operand form, so a step dispatches once.

use crate::instr::Instr;
use crate::reg::Reg;
use crate::state::{MachineState, Step, Trap};

/// One instruction lowered for [`Op::execute`]: an
/// opcode byte, `u8` register operands and one 64-bit immediate, offset or
/// target.
///
/// `a` is the destination register of an instruction that writes one; `b`
/// and `c` are its source registers in [`Instr::uses`] order. Unused
/// operands are register 0. Lowering copies registers as they are; a
/// [`Program`](crate::Program) has checked them against the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    code: Code,
    a: u8,
    b: u8,
    c: u8,
    imm: u64,
}

/// One opcode per ALU register and immediate form, FPU operation,
/// conversion and branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Code {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sra,
    Slt,
    Sltu,
    Seq,
    AddI,
    SubI,
    MulI,
    DivI,
    RemI,
    AndI,
    OrI,
    XorI,
    ShlI,
    ShrI,
    SraI,
    SltI,
    SltuI,
    SeqI,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
    FLt,
    FLe,
    FEq,
    FNeg,
    FAbs,
    FSqrt,
    IntToFloat,
    FloatToInt,
    Li,
    Mov,
    Load,
    Store,
    Beq,
    Bne,
    Blt,
    Bge,
    Ble,
    Bgt,
    Bltu,
    Bgeu,
    Jump,
    Out,
    Halt,
}

/// Opcodes indexed by sub-operation, in the encoding order of
/// [`AluOp::ALL`](crate::AluOp::ALL) and its siblings.
const ALU: [Code; 14] = [
    Code::Add,
    Code::Sub,
    Code::Mul,
    Code::Div,
    Code::Rem,
    Code::And,
    Code::Or,
    Code::Xor,
    Code::Shl,
    Code::Shr,
    Code::Sra,
    Code::Slt,
    Code::Sltu,
    Code::Seq,
];
const ALU_IMM: [Code; 14] = [
    Code::AddI,
    Code::SubI,
    Code::MulI,
    Code::DivI,
    Code::RemI,
    Code::AndI,
    Code::OrI,
    Code::XorI,
    Code::ShlI,
    Code::ShrI,
    Code::SraI,
    Code::SltI,
    Code::SltuI,
    Code::SeqI,
];
const FPU: [Code; 9] = [
    Code::FAdd,
    Code::FSub,
    Code::FMul,
    Code::FDiv,
    Code::FMin,
    Code::FMax,
    Code::FLt,
    Code::FLe,
    Code::FEq,
];
const FPU_UNARY: [Code; 3] = [Code::FNeg, Code::FAbs, Code::FSqrt];
const CVT: [Code; 2] = [Code::IntToFloat, Code::FloatToInt];
const BRANCH: [Code; 8] = [
    Code::Beq,
    Code::Bne,
    Code::Blt,
    Code::Bge,
    Code::Ble,
    Code::Bgt,
    Code::Bltu,
    Code::Bgeu,
];

impl Op {
    /// Lowers one instruction; a machine lowers its program once, when it
    /// is built.
    pub fn lower(instr: &Instr) -> Op {
        let op = |code, a: Reg, b: Reg, c: Reg, imm: u64| Op {
            code,
            a: a.0,
            b: b.0,
            c: c.0,
            imm,
        };
        let z = Reg(0);
        match *instr {
            Instr::Alu {
                op: o,
                rd,
                rs1,
                rs2,
            } => op(ALU[o as usize], rd, rs1, rs2, 0),
            Instr::AluImm {
                op: o,
                rd,
                rs1,
                imm,
            } => op(ALU_IMM[o as usize], rd, rs1, z, imm as u64),
            Instr::Fpu {
                op: o,
                rd,
                rs1,
                rs2,
            } => op(FPU[o as usize], rd, rs1, rs2, 0),
            Instr::FpuUnary { op: o, rd, rs1 } => op(FPU_UNARY[o as usize], rd, rs1, z, 0),
            Instr::Cvt { op: o, rd, rs1 } => op(CVT[o as usize], rd, rs1, z, 0),
            Instr::Li { rd, imm } => op(Code::Li, rd, z, z, imm as u64),
            Instr::Mov { rd, rs1 } => op(Code::Mov, rd, rs1, z, 0),
            Instr::Load { rd, base, offset } => op(Code::Load, rd, base, z, offset as u64),
            Instr::Store { rs, base, offset } => op(Code::Store, z, rs, base, offset as u64),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => op(BRANCH[cond as usize], z, rs1, rs2, target as u64),
            Instr::Jump { target } => op(Code::Jump, z, z, z, target as u64),
            Instr::Out { rs1 } => op(Code::Out, z, rs1, z, 0),
            Instr::Halt => op(Code::Halt, z, z, z, 0),
        }
    }

    /// Executes the op against the machine state. The op must name only
    /// registers of the file, as every lowered instruction of a
    /// [`Program`](crate::Program) does. Inlined into the simulator's run
    /// loop, so a step costs one dispatch.
    ///
    /// # Errors
    ///
    /// A [`Trap`] for processor exceptions (the run classifies as Crash).
    #[inline(always)]
    pub fn execute(&self, state: &mut MachineState) -> Result<Step, Trap> {
        let regs = &mut state.regs;
        let (b, c) = (self.b as usize, self.c as usize);
        let imm = self.imm;
        let f = |r: u64| f64::from_bits(r);
        let v = match self.code {
            // Two's-complement wrapping add, sub and mul are the same bits
            // signed or unsigned.
            Code::Add => regs[b].wrapping_add(regs[c]),
            Code::Sub => regs[b].wrapping_sub(regs[c]),
            Code::Mul => regs[b].wrapping_mul(regs[c]),
            Code::Div => div(regs[b], regs[c])?,
            Code::Rem => rem(regs[b], regs[c])?,
            Code::And => regs[b] & regs[c],
            Code::Or => regs[b] | regs[c],
            Code::Xor => regs[b] ^ regs[c],
            Code::Shl => regs[b].wrapping_shl(regs[c] as u32),
            Code::Shr => regs[b].wrapping_shr(regs[c] as u32),
            Code::Sra => (regs[b] as i64).wrapping_shr(regs[c] as u32) as u64,
            Code::Slt => u64::from((regs[b] as i64) < regs[c] as i64),
            Code::Sltu => u64::from(regs[b] < regs[c]),
            Code::Seq => u64::from(regs[b] == regs[c]),
            Code::AddI => regs[b].wrapping_add(imm),
            Code::SubI => regs[b].wrapping_sub(imm),
            Code::MulI => regs[b].wrapping_mul(imm),
            Code::DivI => div(regs[b], imm)?,
            Code::RemI => rem(regs[b], imm)?,
            Code::AndI => regs[b] & imm,
            Code::OrI => regs[b] | imm,
            Code::XorI => regs[b] ^ imm,
            Code::ShlI => regs[b].wrapping_shl(imm as u32),
            Code::ShrI => regs[b].wrapping_shr(imm as u32),
            Code::SraI => (regs[b] as i64).wrapping_shr(imm as u32) as u64,
            Code::SltI => u64::from((regs[b] as i64) < imm as i64),
            Code::SltuI => u64::from(regs[b] < imm),
            Code::SeqI => u64::from(regs[b] == imm),
            Code::FAdd => (f(regs[b]) + f(regs[c])).to_bits(),
            Code::FSub => (f(regs[b]) - f(regs[c])).to_bits(),
            Code::FMul => (f(regs[b]) * f(regs[c])).to_bits(),
            Code::FDiv => (f(regs[b]) / f(regs[c])).to_bits(),
            Code::FMin => f(regs[b]).min(f(regs[c])).to_bits(),
            Code::FMax => f(regs[b]).max(f(regs[c])).to_bits(),
            Code::FLt => u64::from(f(regs[b]) < f(regs[c])),
            Code::FLe => u64::from(f(regs[b]) <= f(regs[c])),
            Code::FEq => u64::from(f(regs[b]) == f(regs[c])),
            Code::FNeg => (-f(regs[b])).to_bits(),
            Code::FAbs => f(regs[b]).abs().to_bits(),
            Code::FSqrt => f(regs[b]).sqrt().to_bits(),
            Code::IntToFloat => (regs[b] as i64 as f64).to_bits(),
            Code::FloatToInt => f(regs[b]) as i64 as u64,
            Code::Li => imm,
            Code::Mov => regs[b],
            Code::Load => {
                let addr = regs[b].wrapping_add(imm);
                *state
                    .mem
                    .get(addr as usize)
                    .ok_or(Trap::OutOfBoundsLoad { addr })?
            }
            Code::Store => {
                let (addr, v) = (regs[c].wrapping_add(imm), regs[b]);
                return state.store(addr, v).map(|()| Step::Next);
            }
            Code::Beq => return Ok(self.branch(regs[b] == regs[c])),
            Code::Bne => return Ok(self.branch(regs[b] != regs[c])),
            Code::Blt => return Ok(self.branch((regs[b] as i64) < regs[c] as i64)),
            Code::Bge => return Ok(self.branch(regs[b] as i64 >= regs[c] as i64)),
            Code::Ble => return Ok(self.branch(regs[b] as i64 <= regs[c] as i64)),
            Code::Bgt => return Ok(self.branch(regs[b] as i64 > regs[c] as i64)),
            Code::Bltu => return Ok(self.branch(regs[b] < regs[c])),
            Code::Bgeu => return Ok(self.branch(regs[b] >= regs[c])),
            Code::Jump => return Ok(Step::Goto(imm as usize)),
            Code::Out => {
                state.output.push(regs[b]);
                return Ok(Step::Next);
            }
            Code::Halt => return Ok(Step::Halt),
        };
        regs[self.a as usize] = v;
        Ok(Step::Next)
    }

    /// A conditional branch's step.
    #[inline(always)]
    fn branch(&self, taken: bool) -> Step {
        if taken {
            Step::Goto(self.imm as usize)
        } else {
            Step::Next
        }
    }
}

/// Signed division; `i64::MIN / -1` wraps.
#[inline(always)]
fn div(a: u64, b: u64) -> Result<u64, Trap> {
    if b == 0 {
        return Err(Trap::DivByZero);
    }
    Ok((a as i64).wrapping_div(b as i64) as u64)
}

/// Signed remainder; `i64::MIN % -1` is 0.
#[inline(always)]
fn rem(a: u64, b: u64) -> Result<u64, Trap> {
    if b == 0 {
        return Err(Trap::DivByZero);
    }
    Ok((a as i64).wrapping_rem(b as i64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{AluOp, BranchCond, FpuOp};
    use crate::reg::NUM_REGS;

    /// Executes `instr`, lowered, on a machine whose r1 and r2 hold `a`
    /// and `b`; returns r3.
    fn exec3(instr: Instr, a: u64, b: u64) -> Result<u64, Trap> {
        let mut state = MachineState::new(NUM_REGS, vec![]);
        (state.regs[1], state.regs[2]) = (a, b);
        Op::lower(&instr).execute(&mut state)?;
        Ok(state.regs[3])
    }

    /// `a op b` through the lowered executor, in register form; the
    /// immediate form must agree.
    fn alu(op: AluOp, a: u64, b: u64) -> Result<u64, Trap> {
        let (rd, rs1, rs2) = (Reg(3), Reg(1), Reg(2));
        let reg = exec3(Instr::Alu { op, rd, rs1, rs2 }, a, b);
        let imm = b as i64;
        assert_eq!(exec3(Instr::AluImm { op, rd, rs1, imm }, a, b), reg);
        reg
    }

    fn fpu(op: FpuOp, a: f64, b: f64) -> u64 {
        let (rd, rs1, rs2) = (Reg(3), Reg(1), Reg(2));
        exec3(Instr::Fpu { op, rd, rs1, rs2 }, a.to_bits(), b.to_bits())
            .expect("FPU ops never trap")
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(AluOp::Add, 2, 3).unwrap(), 5);
        assert_eq!(alu(AluOp::Sub, 2, 3).unwrap(), (-1i64) as u64);
        assert_eq!(alu(AluOp::Mul, u64::MAX, 2).unwrap(), (-2i64) as u64);
        assert_eq!(alu(AluOp::Div, (-7i64) as u64, 2).unwrap(), (-3i64) as u64);
        assert_eq!(alu(AluOp::Rem, 7, 3).unwrap(), 1);
        assert_eq!(alu(AluOp::Div, 1, 0), Err(Trap::DivByZero));
        assert_eq!(alu(AluOp::Rem, 1, 0), Err(Trap::DivByZero));
        // i64::MIN / -1 wraps instead of trapping on overflow.
        assert_eq!(
            alu(AluOp::Div, i64::MIN as u64, (-1i64) as u64).unwrap(),
            i64::MIN as u64
        );
        assert_eq!(alu(AluOp::Slt, (-1i64) as u64, 0).unwrap(), 1);
        assert_eq!(alu(AluOp::Sltu, (-1i64) as u64, 0).unwrap(), 0);
        assert_eq!(alu(AluOp::Shl, 1, 4).unwrap(), 16);
        assert_eq!(alu(AluOp::Sra, (-16i64) as u64, 2).unwrap(), (-4i64) as u64);
        assert_eq!(alu(AluOp::Shr, (-16i64) as u64, 60).unwrap(), 15);
        assert_eq!(alu(AluOp::Seq, 4, 4).unwrap(), 1);
    }

    #[test]
    fn fpu_semantics() {
        let bits = |x: f64| x.to_bits();
        assert_eq!(fpu(FpuOp::FAdd, 1.5, 2.25), bits(3.75));
        assert_eq!(fpu(FpuOp::FDiv, 1.0, 0.0), bits(f64::INFINITY));
        assert_eq!(fpu(FpuOp::FLt, 1.0, 2.0), 1);
        assert_eq!(fpu(FpuOp::FLe, 2.0, 2.0), 1);
        assert_eq!(fpu(FpuOp::FEq, f64::NAN, f64::NAN), 0);
        assert_eq!(fpu(FpuOp::FMin, 1.0, 2.0), bits(1.0));
        assert_eq!(fpu(FpuOp::FMax, 1.0, 2.0), bits(2.0));
    }

    /// Whether the lowered `cond` branch on `a` and `b` is taken.
    fn taken(cond: BranchCond, a: u64, b: u64) -> bool {
        let mut state = MachineState::new(NUM_REGS, vec![]);
        (state.regs[1], state.regs[2]) = (a, b);
        let (rs1, rs2, target) = (Reg(1), Reg(2), 7);
        let br = Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        };
        Op::lower(&br).execute(&mut state) == Ok(Step::Goto(7))
    }

    #[test]
    fn branch_cond_eval_signed_vs_unsigned() {
        let a = (-1i64) as u64;
        let b = 1u64;
        assert!(taken(BranchCond::Lt, a, b)); // -1 < 1 signed
        assert!(!taken(BranchCond::Ltu, a, b)); // u64::MAX not < 1 unsigned
        assert!(taken(BranchCond::Geu, a, b));
        assert!(taken(BranchCond::Ne, a, b));
    }

    #[test]
    fn branch_cond_eval_equalities() {
        assert!(taken(BranchCond::Eq, 5, 5));
        assert!(taken(BranchCond::Le, 5, 5));
        assert!(taken(BranchCond::Ge, 5, 5));
        assert!(!taken(BranchCond::Gt, 5, 5));
        assert!(!taken(BranchCond::Lt, 5, 5));
    }

    #[test]
    fn execute_matches_word_machine_expectations() {
        let mut state = MachineState::new(NUM_REGS, vec![0; 4]);
        state.regs[1] = 21;
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: Reg(2),
            rs1: Reg(1),
            rs2: Reg(1),
        };
        let exec = |instr: &Instr, state: &mut MachineState| Op::lower(instr).execute(state);
        assert_eq!(exec(&add, &mut state), Ok(Step::Next));
        assert_eq!(state.regs[2], 42);
        let out = Instr::Out { rs1: Reg(2) };
        exec(&out, &mut state).unwrap();
        assert_eq!(state.output, vec![42]);
        let bad_load = Instr::Load {
            rd: Reg(3),
            base: Reg(2),
            offset: 0,
        };
        assert_eq!(
            exec(&bad_load, &mut state),
            Err(Trap::OutOfBoundsLoad { addr: 42 })
        );
    }
}
