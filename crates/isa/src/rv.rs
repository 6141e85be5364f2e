//! `RvIsa` — a RISC-V-like second backend ("ISA-B") for cross-ISA transfer
//! experiments.
//!
//! A deliberately small RV64-integer-flavoured subset: 32 registers with
//! `x0` hardwired to zero, 64-bit words, register/immediate ALU forms,
//! `lui`, word-addressed `ld`/`sd`, the six RISC-V branch comparisons,
//! `jal` with a link register, and `ecall`/`ebreak` standing in for output
//! and halt. The semantic differences from [`GlaiveIsa`](crate::GlaiveIsa)
//! are real ones:
//!
//! - **division never traps** — `div` by zero yields all-ones and `rem` by
//!   zero yields the dividend, per the RISC-V spec, so a fault that zeroes
//!   a divisor is an SDC here where ISA-A makes it a Crash;
//! - **`x0` discards writes and reads as zero**, so any fault injected into
//!   it is architecturally masked;
//! - its own fixed-width 12-byte encoding, distinct from ISA-A's 16-byte
//!   format.
//!
//! What is *shared* is the portable feature vocabulary: every `RvInstr`
//! maps onto the canonical [`Opcode::index`] space (`add`/`addi` → `add`,
//! `lui` → `li`, `ld` → `ld`, `beq` → `beq`, `jal` → `jump`, `ecall` →
//! `out`, `ebreak` → `halt`), which is what lets a GNN trained on ISA-A
//! CDFGs score ISA-B programs. See DESIGN.md §13.

use std::fmt;

use crate::asm::AsmError;
use crate::instr::DecodeError;
use crate::isa::{Flow, Isa, MachineState, MemAccess, Step, Trap};
use crate::opcode::{AluOp, BranchCond, Opcode, OpcodeClass};
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS, WORD_BITS};

/// Length in bytes of one encoded ISA-B instruction:
/// `[tag, sub, rd, rs1, rs2, 0, 0, 0, imm: i32 LE]`.
pub const RV_INSTR_ENCODING_LEN: usize = 12;

/// The RISC-V-like backend marker ("ISA-B").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvIsa;

/// Register–register ALU operations (RV64 `OP` major opcode subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvAluOp {
    /// `rd = rs1 + rs2` (wrapping).
    Add,
    /// `rd = rs1 - rs2` (wrapping).
    Sub,
    /// `rd = rs1 * rs2` (wrapping, low 64 bits).
    Mul,
    /// Signed division; by zero yields all-ones, `MIN / -1` wraps.
    Div,
    /// Signed remainder; by zero yields the dividend.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical left shift by `rs2 mod 64`.
    Sll,
    /// Logical right shift by `rs2 mod 64`.
    Srl,
    /// Arithmetic right shift by `rs2 mod 64`.
    Sra,
    /// Signed set-less-than.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
}

impl RvAluOp {
    /// All operations, in encoding order.
    pub const ALL: [RvAluOp; 13] = [
        RvAluOp::Add,
        RvAluOp::Sub,
        RvAluOp::Mul,
        RvAluOp::Div,
        RvAluOp::Rem,
        RvAluOp::And,
        RvAluOp::Or,
        RvAluOp::Xor,
        RvAluOp::Sll,
        RvAluOp::Srl,
        RvAluOp::Sra,
        RvAluOp::Slt,
        RvAluOp::Sltu,
    ];

    /// RISC-V integer arithmetic: wrapping, and division that never traps.
    fn apply(self, a: u64, b: u64) -> u64 {
        let (sa, sb) = (a as i64, b as i64);
        match self {
            RvAluOp::Add => sa.wrapping_add(sb) as u64,
            RvAluOp::Sub => sa.wrapping_sub(sb) as u64,
            RvAluOp::Mul => sa.wrapping_mul(sb) as u64,
            RvAluOp::Div => {
                if sb == 0 {
                    u64::MAX
                } else {
                    sa.wrapping_div(sb) as u64
                }
            }
            RvAluOp::Rem => {
                if sb == 0 {
                    a
                } else {
                    sa.wrapping_rem(sb) as u64
                }
            }
            RvAluOp::And => a & b,
            RvAluOp::Or => a | b,
            RvAluOp::Xor => a ^ b,
            RvAluOp::Sll => a.wrapping_shl(b as u32),
            RvAluOp::Srl => a.wrapping_shr(b as u32),
            RvAluOp::Sra => sa.wrapping_shr(b as u32) as u64,
            RvAluOp::Slt => u64::from(sa < sb),
            RvAluOp::Sltu => u64::from(a < b),
        }
    }

    /// The canonical-vocabulary opcode this operation one-hots as.
    fn canonical(self) -> Opcode {
        Opcode::Alu(match self {
            RvAluOp::Add => AluOp::Add,
            RvAluOp::Sub => AluOp::Sub,
            RvAluOp::Mul => AluOp::Mul,
            RvAluOp::Div => AluOp::Div,
            RvAluOp::Rem => AluOp::Rem,
            RvAluOp::And => AluOp::And,
            RvAluOp::Or => AluOp::Or,
            RvAluOp::Xor => AluOp::Xor,
            RvAluOp::Sll => AluOp::Shl,
            RvAluOp::Srl => AluOp::Shr,
            RvAluOp::Sra => AluOp::Sra,
            RvAluOp::Slt => AluOp::Slt,
            RvAluOp::Sltu => AluOp::Sltu,
        })
    }

    fn mnemonic(self) -> &'static str {
        match self {
            RvAluOp::Add => "add",
            RvAluOp::Sub => "sub",
            RvAluOp::Mul => "mul",
            RvAluOp::Div => "div",
            RvAluOp::Rem => "rem",
            RvAluOp::And => "and",
            RvAluOp::Or => "or",
            RvAluOp::Xor => "xor",
            RvAluOp::Sll => "sll",
            RvAluOp::Srl => "srl",
            RvAluOp::Sra => "sra",
            RvAluOp::Slt => "slt",
            RvAluOp::Sltu => "sltu",
        }
    }
}

/// Register–immediate ALU operations (RV64 `OP-IMM` subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvImmOp {
    /// `rd = rs1 + imm`.
    Addi,
    /// `rd = rs1 & imm`.
    Andi,
    /// `rd = rs1 | imm`.
    Ori,
    /// `rd = rs1 ^ imm`.
    Xori,
    /// `rd = rs1 << (imm mod 64)`.
    Slli,
    /// `rd = rs1 >> (imm mod 64)` (logical).
    Srli,
    /// `rd = rs1 >> (imm mod 64)` (arithmetic).
    Srai,
    /// `rd = (rs1 <s imm)`.
    Slti,
    /// `rd = (rs1 <u imm)`.
    Sltiu,
}

impl RvImmOp {
    /// All operations, in encoding order.
    pub const ALL: [RvImmOp; 9] = [
        RvImmOp::Addi,
        RvImmOp::Andi,
        RvImmOp::Ori,
        RvImmOp::Xori,
        RvImmOp::Slli,
        RvImmOp::Srli,
        RvImmOp::Srai,
        RvImmOp::Slti,
        RvImmOp::Sltiu,
    ];

    /// The register-form operation with identical arithmetic.
    fn reg_form(self) -> RvAluOp {
        match self {
            RvImmOp::Addi => RvAluOp::Add,
            RvImmOp::Andi => RvAluOp::And,
            RvImmOp::Ori => RvAluOp::Or,
            RvImmOp::Xori => RvAluOp::Xor,
            RvImmOp::Slli => RvAluOp::Sll,
            RvImmOp::Srli => RvAluOp::Srl,
            RvImmOp::Srai => RvAluOp::Sra,
            RvImmOp::Slti => RvAluOp::Slt,
            RvImmOp::Sltiu => RvAluOp::Sltu,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            RvImmOp::Addi => "addi",
            RvImmOp::Andi => "andi",
            RvImmOp::Ori => "ori",
            RvImmOp::Xori => "xori",
            RvImmOp::Slli => "slli",
            RvImmOp::Srli => "srli",
            RvImmOp::Srai => "srai",
            RvImmOp::Slti => "slti",
            RvImmOp::Sltiu => "sltiu",
        }
    }
}

/// RISC-V branch comparisons. Unlike ISA-A, there are no `Le`/`Gt` forms —
/// compilers swap operands instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvBranchCond {
    /// `rs1 == rs2`.
    Beq,
    /// `rs1 != rs2`.
    Bne,
    /// Signed `rs1 < rs2`.
    Blt,
    /// Signed `rs1 >= rs2`.
    Bge,
    /// Unsigned `rs1 < rs2`.
    Bltu,
    /// Unsigned `rs1 >= rs2`.
    Bgeu,
}

impl RvBranchCond {
    /// All comparisons, in encoding order.
    pub const ALL: [RvBranchCond; 6] = [
        RvBranchCond::Beq,
        RvBranchCond::Bne,
        RvBranchCond::Blt,
        RvBranchCond::Bge,
        RvBranchCond::Bltu,
        RvBranchCond::Bgeu,
    ];

    /// Evaluates the comparison.
    pub fn eval(self, a: u64, b: u64) -> bool {
        let (sa, sb) = (a as i64, b as i64);
        match self {
            RvBranchCond::Beq => a == b,
            RvBranchCond::Bne => a != b,
            RvBranchCond::Blt => sa < sb,
            RvBranchCond::Bge => sa >= sb,
            RvBranchCond::Bltu => a < b,
            RvBranchCond::Bgeu => a >= b,
        }
    }

    fn canonical(self) -> Opcode {
        Opcode::Branch(match self {
            RvBranchCond::Beq => BranchCond::Eq,
            RvBranchCond::Bne => BranchCond::Ne,
            RvBranchCond::Blt => BranchCond::Lt,
            RvBranchCond::Bge => BranchCond::Ge,
            RvBranchCond::Bltu => BranchCond::Ltu,
            RvBranchCond::Bgeu => BranchCond::Geu,
        })
    }

    fn mnemonic(self) -> &'static str {
        match self {
            RvBranchCond::Beq => "beq",
            RvBranchCond::Bne => "bne",
            RvBranchCond::Blt => "blt",
            RvBranchCond::Bge => "bge",
            RvBranchCond::Bltu => "bltu",
            RvBranchCond::Bgeu => "bgeu",
        }
    }
}

/// One ISA-B instruction. Branch and jump targets are absolute instruction
/// indices, like ISA-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RvInstr {
    /// `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: RvAluOp,
        /// Destination (writes to `x0` are discarded).
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `rd = rs1 op imm`.
    AluImm {
        /// Operation.
        op: RvImmOp,
        /// Destination (writes to `x0` are discarded).
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i32,
    },
    /// `rd = imm << 12` — load upper immediate.
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper-immediate value (pre-shift).
        imm: i32,
    },
    /// `rd = mem[rs1 + offset]` (word-addressed).
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i32,
    },
    /// `mem[rs1 + offset] = rs2` (word-addressed).
    Sd {
        /// Source value register.
        rs2: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        offset: i32,
    },
    /// Conditional branch to an absolute instruction index.
    Branch {
        /// Comparison.
        cond: RvBranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Absolute target instruction index.
        target: usize,
    },
    /// Unconditional jump; `rd` receives the return address `pc + 1`
    /// (`rd = x0` gives a plain jump).
    Jal {
        /// Link register.
        rd: Reg,
        /// Absolute target instruction index.
        target: usize,
    },
    /// Environment call: emits `x10` (`a0`) to the output stream.
    Ecall,
    /// Environment break: halts the program.
    Ebreak,
}

impl RvInstr {
    /// The canonical-vocabulary opcode this instruction one-hots as.
    ///
    /// The standard pseudo-instructions are recognised structurally so they
    /// land on the canonical opcode that names their *meaning*, not their
    /// encoding: `addi rd, x0, imm` is `li` and `addi rd, rs, 0` is `mv`.
    /// Leaving them on `add` would teach a cross-ISA model that ISA-B is
    /// full of adds whose outcome statistics match constant loads.
    pub(crate) fn canonical_opcode(&self) -> Opcode {
        match *self {
            RvInstr::Alu { op, .. } => op.canonical(),
            RvInstr::AluImm {
                op: RvImmOp::Addi,
                rs1: Reg(0),
                ..
            } => Opcode::Li,
            RvInstr::AluImm {
                op: RvImmOp::Addi,
                imm: 0,
                ..
            } => Opcode::Mov,
            RvInstr::AluImm { op, .. } => op.reg_form().canonical(),
            RvInstr::Lui { .. } => Opcode::Li,
            RvInstr::Ld { .. } => Opcode::Load,
            RvInstr::Sd { .. } => Opcode::Store,
            RvInstr::Branch { cond, .. } => cond.canonical(),
            RvInstr::Jal { .. } => Opcode::Jump,
            RvInstr::Ecall => Opcode::Out,
            RvInstr::Ebreak => Opcode::Halt,
        }
    }
}

impl fmt::Display for RvInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let x = |r: Reg| format!("x{}", r.index());
        match *self {
            RvInstr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), x(rd), x(rs1), x(rs2))
            }
            RvInstr::AluImm { op, rd, rs1, imm } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), x(rd), x(rs1), imm)
            }
            RvInstr::Lui { rd, imm } => write!(f, "lui {}, {}", x(rd), imm),
            RvInstr::Ld { rd, base, offset } => {
                write!(f, "ld {}, {}({})", x(rd), offset, x(base))
            }
            RvInstr::Sd { rs2, base, offset } => {
                write!(f, "sd {}, {}({})", x(rs2), offset, x(base))
            }
            RvInstr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{} {}, {}, @{target}", cond.mnemonic(), x(rs1), x(rs2)),
            RvInstr::Jal { rd, target } => write!(f, "jal {}, @{target}", x(rd)),
            RvInstr::Ecall => write!(f, "ecall"),
            RvInstr::Ebreak => write!(f, "ebreak"),
        }
    }
}

/// `x0` reads as zero regardless of what a fault wrote into the backing
/// register file — the hardwired-zero invariant is enforced at read time,
/// which is exactly what makes `x0` faults architecturally masked.
fn rd_reg(regs: &[u64], r: Reg) -> u64 {
    if r.index() == 0 {
        0
    } else {
        regs[r.index()]
    }
}

/// Writes to `x0` are discarded.
fn wr_reg(regs: &mut [u64], r: Reg, v: u64) {
    if r.index() != 0 {
        regs[r.index()] = v;
    }
}

impl Isa for RvIsa {
    type Instr = RvInstr;

    const NAME: &'static str = "rv";
    const WORD_BITS: usize = WORD_BITS;
    const NUM_REGS: usize = NUM_REGS;
    const INSTR_ENCODING_LEN: usize = RV_INSTR_ENCODING_LEN;

    fn defs(instr: &RvInstr) -> Vec<Reg> {
        // A write to x0 is discarded, so it is not a definition: excluding
        // it keeps def-use chains (and thus D_D edges) truthful.
        let rd = match *instr {
            RvInstr::Alu { rd, .. }
            | RvInstr::AluImm { rd, .. }
            | RvInstr::Lui { rd, .. }
            | RvInstr::Ld { rd, .. }
            | RvInstr::Jal { rd, .. } => rd,
            RvInstr::Sd { .. } | RvInstr::Branch { .. } | RvInstr::Ecall | RvInstr::Ebreak => {
                return Vec::new()
            }
        };
        if rd.index() == 0 {
            Vec::new()
        } else {
            vec![rd]
        }
    }

    fn uses(instr: &RvInstr) -> Vec<Reg> {
        match *instr {
            RvInstr::Alu { rs1, rs2, .. } => vec![rs1, rs2],
            // The `li` pseudo (`addi rd, x0, imm`) reads only the hardwired
            // zero: like ISA-A's `Li` it has no dataflow use, and there is
            // no physical register behind an `x0` read to fault.
            RvInstr::AluImm { rs1: Reg(0), .. } => Vec::new(),
            RvInstr::AluImm { rs1, .. } => vec![rs1],
            RvInstr::Lui { .. } | RvInstr::Jal { .. } | RvInstr::Ebreak => Vec::new(),
            RvInstr::Ld { base, .. } => vec![base],
            // Value register first, base second — the D_M analysis expects
            // a store's value operand in Use(0), matching ISA-A's `Store`.
            RvInstr::Sd { rs2, base, .. } => vec![rs2, base],
            RvInstr::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            RvInstr::Ecall => vec![Reg(10)],
        }
    }

    fn opcode_index(instr: &RvInstr) -> usize {
        instr.canonical_opcode().index()
    }

    fn opcode_class(instr: &RvInstr) -> OpcodeClass {
        instr.canonical_opcode().class()
    }

    fn is_float(_instr: &RvInstr) -> bool {
        false
    }

    fn flow(instr: &RvInstr) -> Flow {
        match *instr {
            RvInstr::Branch { target, .. } => Flow::Branch(target),
            RvInstr::Jal { target, .. } => Flow::Jump(target),
            RvInstr::Ebreak => Flow::Halt,
            _ => Flow::Fallthrough,
        }
    }

    fn mem_access(instr: &RvInstr) -> Option<MemAccess> {
        match *instr {
            RvInstr::Ld { offset, .. } => Some(MemAccess {
                is_store: false,
                alias: i64::from(offset),
            }),
            RvInstr::Sd { offset, .. } => Some(MemAccess {
                is_store: true,
                alias: i64::from(offset),
            }),
            _ => None,
        }
    }

    fn encode(instr: &RvInstr) -> Vec<u8> {
        let mut b = vec![0u8; RV_INSTR_ENCODING_LEN];
        let mut imm = 0i32;
        match *instr {
            RvInstr::Alu { op, rd, rs1, rs2 } => {
                b[0] = 0;
                b[1] = RvAluOp::ALL.iter().position(|o| *o == op).unwrap() as u8;
                b[2] = rd.0;
                b[3] = rs1.0;
                b[4] = rs2.0;
            }
            RvInstr::AluImm {
                op,
                rd,
                rs1,
                imm: i,
            } => {
                b[0] = 1;
                b[1] = RvImmOp::ALL.iter().position(|o| *o == op).unwrap() as u8;
                b[2] = rd.0;
                b[3] = rs1.0;
                imm = i;
            }
            RvInstr::Lui { rd, imm: i } => {
                b[0] = 2;
                b[2] = rd.0;
                imm = i;
            }
            RvInstr::Ld { rd, base, offset } => {
                b[0] = 3;
                b[2] = rd.0;
                b[3] = base.0;
                imm = offset;
            }
            RvInstr::Sd { rs2, base, offset } => {
                b[0] = 4;
                b[3] = base.0;
                b[4] = rs2.0;
                imm = offset;
            }
            RvInstr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                b[0] = 5;
                b[1] = RvBranchCond::ALL.iter().position(|c| *c == cond).unwrap() as u8;
                b[3] = rs1.0;
                b[4] = rs2.0;
                imm = target as i32;
            }
            RvInstr::Jal { rd, target } => {
                b[0] = 6;
                b[2] = rd.0;
                imm = target as i32;
            }
            RvInstr::Ecall => b[0] = 7,
            RvInstr::Ebreak => b[0] = 8,
        }
        b[8..12].copy_from_slice(&imm.to_le_bytes());
        b
    }

    fn decode(bytes: &[u8]) -> Result<RvInstr, DecodeError> {
        if bytes.len() != RV_INSTR_ENCODING_LEN {
            return Err(DecodeError::Truncated {
                len: bytes.len(),
                want: RV_INSTR_ENCODING_LEN,
            });
        }
        let reg = |b: u8| {
            let r = Reg(b);
            if r.is_valid() {
                Ok(r)
            } else {
                Err(DecodeError::BadRegister(b))
            }
        };
        let imm = i32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let target = || {
            if imm < 0 {
                Err(DecodeError::BadImmediate(i64::from(imm)))
            } else {
                Ok(imm as usize)
            }
        };
        match bytes[0] {
            0 => Ok(RvInstr::Alu {
                op: *RvAluOp::ALL
                    .get(bytes[1] as usize)
                    .ok_or(DecodeError::BadSubOpcode(bytes[1]))?,
                rd: reg(bytes[2])?,
                rs1: reg(bytes[3])?,
                rs2: reg(bytes[4])?,
            }),
            1 => Ok(RvInstr::AluImm {
                op: *RvImmOp::ALL
                    .get(bytes[1] as usize)
                    .ok_or(DecodeError::BadSubOpcode(bytes[1]))?,
                rd: reg(bytes[2])?,
                rs1: reg(bytes[3])?,
                imm,
            }),
            2 => Ok(RvInstr::Lui {
                rd: reg(bytes[2])?,
                imm,
            }),
            3 => Ok(RvInstr::Ld {
                rd: reg(bytes[2])?,
                base: reg(bytes[3])?,
                offset: imm,
            }),
            4 => Ok(RvInstr::Sd {
                rs2: reg(bytes[4])?,
                base: reg(bytes[3])?,
                offset: imm,
            }),
            5 => Ok(RvInstr::Branch {
                cond: *RvBranchCond::ALL
                    .get(bytes[1] as usize)
                    .ok_or(DecodeError::BadSubOpcode(bytes[1]))?,
                rs1: reg(bytes[3])?,
                rs2: reg(bytes[4])?,
                target: target()?,
            }),
            6 => Ok(RvInstr::Jal {
                rd: reg(bytes[2])?,
                target: target()?,
            }),
            7 => Ok(RvInstr::Ecall),
            8 => Ok(RvInstr::Ebreak),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    fn execute(instr: &RvInstr, state: &mut MachineState) -> Result<Step, Trap> {
        match *instr {
            RvInstr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(rd_reg(&state.regs, rs1), rd_reg(&state.regs, rs2));
                wr_reg(&mut state.regs, rd, v);
                Ok(Step::Next)
            }
            RvInstr::AluImm { op, rd, rs1, imm } => {
                let v = op
                    .reg_form()
                    .apply(rd_reg(&state.regs, rs1), i64::from(imm) as u64);
                wr_reg(&mut state.regs, rd, v);
                Ok(Step::Next)
            }
            RvInstr::Lui { rd, imm } => {
                wr_reg(&mut state.regs, rd, (i64::from(imm) << 12) as u64);
                Ok(Step::Next)
            }
            RvInstr::Ld { rd, base, offset } => {
                let addr = rd_reg(&state.regs, base).wrapping_add(i64::from(offset) as u64);
                let v = *state
                    .mem
                    .get(addr as usize)
                    .ok_or(Trap::OutOfBoundsLoad { addr })?;
                wr_reg(&mut state.regs, rd, v);
                Ok(Step::Next)
            }
            RvInstr::Sd { rs2, base, offset } => {
                let addr = rd_reg(&state.regs, base).wrapping_add(i64::from(offset) as u64);
                let v = rd_reg(&state.regs, rs2);
                state.store(addr, v)?;
                Ok(Step::Next)
            }
            RvInstr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(rd_reg(&state.regs, rs1), rd_reg(&state.regs, rs2)) {
                    Ok(Step::Goto(target))
                } else {
                    Ok(Step::Next)
                }
            }
            RvInstr::Jal { rd, target } => {
                wr_reg(&mut state.regs, rd, (state.pc + 1) as u64);
                Ok(Step::Goto(target))
            }
            RvInstr::Ecall => {
                state.output.push(rd_reg(&state.regs, Reg(10)));
                Ok(Step::Next)
            }
            RvInstr::Ebreak => Ok(Step::Halt),
        }
    }
}

const UNBOUND: usize = usize::MAX;
const LABEL_BASE: usize = usize::MAX / 2;

/// A forward-referenceable ISA-B code label (see [`RvAsm::label`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RvLabel(usize);

/// An assembler for ISA-B programs, mirroring [`Asm`](crate::Asm).
///
/// # Example
///
/// ```
/// use glaive_isa::rv::{RvAsm, RvAluOp, RvBranchCond};
/// use glaive_isa::Reg;
///
/// // Sum 1..=10 into x5 and emit it via a0/ecall.
/// let mut asm = RvAsm::new("rv-sum");
/// let (acc, i, lim) = (Reg(5), Reg(6), Reg(7));
/// asm.addi(acc, Reg(0), 0);
/// asm.addi(i, Reg(0), 1);
/// asm.addi(lim, Reg(0), 10);
/// let top = asm.label();
/// asm.bind(top);
/// asm.alu(RvAluOp::Add, acc, acc, i);
/// asm.addi(i, i, 1);
/// asm.branch(RvBranchCond::Bge, lim, i, top);
/// asm.mv(Reg(10), acc);
/// asm.ecall();
/// asm.ebreak();
/// let p = asm.finish().expect("labels resolve");
/// assert_eq!(p.len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct RvAsm {
    name: String,
    instrs: Vec<RvInstr>,
    bindings: Vec<usize>,
    mem_words: usize,
}

impl RvAsm {
    /// Creates an empty assembler for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        RvAsm {
            name: name.into(),
            instrs: Vec::new(),
            bindings: Vec::new(),
            mem_words: 0,
        }
    }

    /// Sets the data-memory size in words (default 0).
    pub fn set_mem_words(&mut self, words: usize) -> &mut Self {
        self.mem_words = words;
        self
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> RvLabel {
        self.bindings.push(UNBOUND);
        RvLabel(self.bindings.len() - 1)
    }

    /// Binds `label` to the next instruction to be emitted.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: RvLabel) -> &mut Self {
        assert_eq!(self.bindings[label.0], UNBOUND, "label bound twice");
        self.bindings[label.0] = self.instrs.len();
        self
    }

    /// Index of the next instruction to be emitted.
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Emits a raw instruction (absolute targets).
    pub fn push(&mut self, instr: RvInstr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Emits `rd = rs1 op rs2`.
    pub fn alu(&mut self, op: RvAluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(RvInstr::Alu { op, rd, rs1, rs2 })
    }

    /// Emits `rd = rs1 op imm`.
    pub fn alu_imm(&mut self, op: RvImmOp, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.push(RvInstr::AluImm { op, rd, rs1, imm })
    }

    /// Emits `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.alu_imm(RvImmOp::Addi, rd, rs1, imm)
    }

    /// Emits the `mv` pseudo-instruction (`addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    /// Emits the `li` pseudo-instruction (`addi rd, x0, imm`).
    pub fn li(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.addi(rd, Reg(0), imm)
    }

    /// Emits `lui rd, imm`.
    pub fn lui(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.push(RvInstr::Lui { rd, imm })
    }

    /// Emits `ld rd, offset(base)`.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i32) -> &mut Self {
        self.push(RvInstr::Ld { rd, base, offset })
    }

    /// Emits `sd rs2, offset(base)`.
    pub fn sd(&mut self, rs2: Reg, base: Reg, offset: i32) -> &mut Self {
        self.push(RvInstr::Sd { rs2, base, offset })
    }

    /// Emits a conditional branch to `label`.
    pub fn branch(&mut self, cond: RvBranchCond, rs1: Reg, rs2: Reg, label: RvLabel) -> &mut Self {
        self.push(RvInstr::Branch {
            cond,
            rs1,
            rs2,
            target: LABEL_BASE + label.0,
        })
    }

    /// Emits `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, label: RvLabel) -> &mut Self {
        self.push(RvInstr::Jal {
            rd,
            target: LABEL_BASE + label.0,
        })
    }

    /// Emits the `j` pseudo-instruction (`jal x0, label`).
    pub fn j(&mut self, label: RvLabel) -> &mut Self {
        self.jal(Reg(0), label)
    }

    /// Emits `ecall` (outputs `a0`).
    pub fn ecall(&mut self) -> &mut Self {
        self.push(RvInstr::Ecall)
    }

    /// Emits `ebreak` (halts).
    pub fn ebreak(&mut self) -> &mut Self {
        self.push(RvInstr::Ebreak)
    }

    /// Resolves all labels and produces the final ISA-B [`Program`].
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if any referenced label was never bound,
    /// or [`AsmError::Program`] if a raw `push` left a dangling target.
    pub fn finish(mut self) -> Result<Program<RvIsa>, AsmError> {
        for (pc, instr) in self.instrs.iter_mut().enumerate() {
            let target = match *instr {
                RvInstr::Branch { target, .. } | RvInstr::Jal { target, .. }
                    if target >= LABEL_BASE =>
                {
                    let id = target - LABEL_BASE;
                    let bound = self.bindings[id];
                    if bound == UNBOUND {
                        return Err(AsmError::UnboundLabel { label: id, pc });
                    }
                    bound
                }
                _ => continue,
            };
            match instr {
                RvInstr::Branch { target: t, .. } | RvInstr::Jal { target: t, .. } => *t = target,
                _ => unreachable!(),
            }
        }
        Program::try_new(self.name, self.instrs, self.mem_words).map_err(AsmError::Program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rv(p: &Program<RvIsa>) -> Vec<u64> {
        // A miniature interpreter local to the tests: the real simulator
        // lives in glaive-sim, which this crate cannot depend on.
        let mut state = MachineState::new(NUM_REGS, vec![0; p.mem_words()]);
        let mut pc = 0usize;
        for _ in 0..100_000 {
            let Some(instr) = p.get(pc) else { break };
            state.pc = pc;
            match RvIsa::execute(instr, &mut state).expect("no trap") {
                Step::Next => pc += 1,
                Step::Goto(t) => pc = t,
                Step::Halt => return state.output,
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn sum_loop_runs() {
        let mut asm = RvAsm::new("sum");
        let (acc, i, lim) = (Reg(5), Reg(6), Reg(7));
        asm.li(acc, 0);
        asm.li(i, 1);
        asm.li(lim, 10);
        let top = asm.label();
        asm.bind(top);
        asm.alu(RvAluOp::Add, acc, acc, i);
        asm.addi(i, i, 1);
        asm.branch(RvBranchCond::Bge, lim, i, top);
        asm.mv(Reg(10), acc);
        asm.ecall();
        asm.ebreak();
        let p = asm.finish().expect("resolves");
        assert_eq!(run_rv(&p), vec![55]);
    }

    #[test]
    fn division_by_zero_does_not_trap() {
        assert_eq!(RvAluOp::Div.apply(7, 0), u64::MAX);
        assert_eq!(RvAluOp::Rem.apply(7, 0), 7);
        assert_eq!(
            RvAluOp::Div.apply(i64::MIN as u64, (-1i64) as u64),
            i64::MIN as u64
        );
        assert_eq!(RvAluOp::Rem.apply(i64::MIN as u64, (-1i64) as u64), 0);
    }

    #[test]
    fn x0_reads_zero_and_discards_writes() {
        let mut state = MachineState::new(NUM_REGS, vec![]);
        // Simulate a fault that corrupted the backing storage of x0.
        state.regs[0] = 0xdead_beef;
        let add = RvInstr::Alu {
            op: RvAluOp::Add,
            rd: Reg(1),
            rs1: Reg(0),
            rs2: Reg(0),
        };
        RvIsa::execute(&add, &mut state).unwrap();
        assert_eq!(state.regs[1], 0, "x0 must read as zero even when corrupted");
        let li = RvInstr::AluImm {
            op: RvImmOp::Addi,
            rd: Reg(0),
            rs1: Reg(1),
            imm: 7,
        };
        RvIsa::execute(&li, &mut state).unwrap();
        assert_eq!(state.regs[0], 0xdead_beef, "writes to x0 are discarded");
    }

    #[test]
    fn jal_links_return_address() {
        let mut state = MachineState::new(NUM_REGS, vec![]);
        state.pc = 4;
        let jal = RvInstr::Jal {
            rd: Reg(1),
            target: 9,
        };
        assert_eq!(RvIsa::execute(&jal, &mut state), Ok(Step::Goto(9)));
        assert_eq!(state.regs[1], 5);
    }

    #[test]
    fn defs_exclude_x0() {
        let nop = RvInstr::AluImm {
            op: RvImmOp::Addi,
            rd: Reg(0),
            rs1: Reg(0),
            imm: 0,
        };
        assert!(RvIsa::defs(&nop).is_empty());
        let j = RvInstr::Jal {
            rd: Reg(0),
            target: 0,
        };
        assert!(RvIsa::defs(&j).is_empty());
        let link = RvInstr::Jal {
            rd: Reg(1),
            target: 0,
        };
        assert_eq!(RvIsa::defs(&link), vec![Reg(1)]);
    }

    #[test]
    fn store_value_operand_is_use_zero() {
        let sd = RvInstr::Sd {
            rs2: Reg(3),
            base: Reg(4),
            offset: 8,
        };
        assert_eq!(RvIsa::uses(&sd), vec![Reg(3), Reg(4)]);
        assert_eq!(
            RvIsa::mem_access(&sd),
            Some(MemAccess {
                is_store: true,
                alias: 8
            })
        );
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        let mut samples = vec![
            RvInstr::Lui {
                rd: Reg(9),
                imm: -12345,
            },
            RvInstr::Ld {
                rd: Reg(1),
                base: Reg(2),
                offset: -3,
            },
            RvInstr::Sd {
                rs2: Reg(3),
                base: Reg(4),
                offset: 17,
            },
            RvInstr::Jal {
                rd: Reg(1),
                target: 7,
            },
            RvInstr::Ecall,
            RvInstr::Ebreak,
        ];
        for op in RvAluOp::ALL {
            samples.push(RvInstr::Alu {
                op,
                rd: Reg(1),
                rs1: Reg(2),
                rs2: Reg(31),
            });
        }
        for op in RvImmOp::ALL {
            samples.push(RvInstr::AluImm {
                op,
                rd: Reg(1),
                rs1: Reg(2),
                imm: -9,
            });
        }
        for cond in RvBranchCond::ALL {
            samples.push(RvInstr::Branch {
                cond,
                rs1: Reg(5),
                rs2: Reg(6),
                target: 3,
            });
        }
        for instr in samples {
            let bytes = RvIsa::encode(&instr);
            assert_eq!(bytes.len(), RV_INSTR_ENCODING_LEN);
            assert_eq!(RvIsa::decode(&bytes).unwrap(), instr, "{instr}");
        }
    }

    #[test]
    fn decode_rejects_bad_bytes_without_panicking() {
        assert!(matches!(
            RvIsa::decode(&[0u8; 5]),
            Err(DecodeError::Truncated { len: 5, want: 12 })
        ));
        let mut bad_tag = vec![0u8; RV_INSTR_ENCODING_LEN];
        bad_tag[0] = 200;
        assert_eq!(RvIsa::decode(&bad_tag), Err(DecodeError::BadTag(200)));
        let mut bad_reg = vec![0u8; RV_INSTR_ENCODING_LEN];
        bad_reg[2] = 99;
        assert_eq!(RvIsa::decode(&bad_reg), Err(DecodeError::BadRegister(99)));
        let mut neg_target = vec![0u8; RV_INSTR_ENCODING_LEN];
        neg_target[0] = 6;
        neg_target[8..12].copy_from_slice(&(-1i32).to_le_bytes());
        assert_eq!(
            RvIsa::decode(&neg_target),
            Err(DecodeError::BadImmediate(-1))
        );
    }

    #[test]
    fn pseudo_instructions_canonicalise_to_their_meaning() {
        let li = RvInstr::AluImm {
            op: RvImmOp::Addi,
            rd: Reg(5),
            rs1: Reg(0),
            imm: 42,
        };
        assert_eq!(li.canonical_opcode(), Opcode::Li);
        assert!(RvIsa::uses(&li).is_empty(), "li reads only hardwired zero");

        let mv = RvInstr::AluImm {
            op: RvImmOp::Addi,
            rd: Reg(5),
            rs1: Reg(6),
            imm: 0,
        };
        assert_eq!(mv.canonical_opcode(), Opcode::Mov);
        assert_eq!(RvIsa::uses(&mv), vec![Reg(6)]);

        // A genuine immediate add is still an add.
        let addi = RvInstr::AluImm {
            op: RvImmOp::Addi,
            rd: Reg(5),
            rs1: Reg(6),
            imm: 1,
        };
        assert_eq!(addi.canonical_opcode(), RvAluOp::Add.canonical());
    }

    #[test]
    fn canonical_opcodes_stay_inside_shared_vocabulary() {
        let all = [
            RvInstr::Alu {
                op: RvAluOp::Sll,
                rd: Reg(1),
                rs1: Reg(2),
                rs2: Reg(3),
            },
            RvInstr::AluImm {
                op: RvImmOp::Sltiu,
                rd: Reg(1),
                rs1: Reg(2),
                imm: 1,
            },
            RvInstr::Lui { rd: Reg(1), imm: 1 },
            RvInstr::Ld {
                rd: Reg(1),
                base: Reg(2),
                offset: 0,
            },
            RvInstr::Sd {
                rs2: Reg(1),
                base: Reg(2),
                offset: 0,
            },
            RvInstr::Branch {
                cond: RvBranchCond::Bgeu,
                rs1: Reg(1),
                rs2: Reg(2),
                target: 0,
            },
            RvInstr::Jal {
                rd: Reg(0),
                target: 0,
            },
            RvInstr::Ecall,
            RvInstr::Ebreak,
        ];
        for instr in all {
            assert!(RvIsa::opcode_index(&instr) < Opcode::COUNT, "{instr}");
            assert!(!RvIsa::is_float(&instr));
        }
        assert_eq!(RvIsa::opcode_index(&RvInstr::Ecall), Opcode::Out.index());
        assert_eq!(RvIsa::opcode_class(&RvInstr::Ecall), OpcodeClass::Output);
        assert_eq!(RvIsa::opcode_index(&RvInstr::Ebreak), Opcode::Halt.index());
    }
}
