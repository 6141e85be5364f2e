use std::fmt;

use crate::opcode::{AluOp, BranchCond, CvtOp, FpuOp, FpuUnaryOp, Opcode};
use crate::reg::Reg;

/// Length in bytes of the fixed-width binary encoding of an instruction.
pub const INSTR_ENCODING_LEN: usize = 16;

/// Static control flow of one instruction, as seen by CFG construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Falls through to `pc + 1`.
    Fallthrough,
    /// Unconditionally transfers to the absolute instruction index.
    Jump(usize),
    /// Conditionally transfers to the absolute instruction index, else
    /// falls through.
    Branch(usize),
    /// Stops execution; no successors.
    Halt,
}

impl Flow {
    /// The branch/jump target, if any.
    pub fn target(self) -> Option<usize> {
        match self {
            Flow::Jump(t) | Flow::Branch(t) => Some(t),
            Flow::Fallthrough | Flow::Halt => None,
        }
    }
}

/// Static memory behaviour of one instruction, as seen by the `D_M`
/// dependence analysis: whether it stores or loads, and its static alias
/// class (instructions with equal `alias` may access the same location).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// `true` for stores, `false` for loads.
    pub is_store: bool,
    /// Static alias class: the constant address offset.
    pub alias: i64,
}

/// A single machine instruction.
///
/// Branch and jump targets are absolute instruction indices within the
/// containing [`Program`](crate::Program); the [`Asm`](crate::Asm) builder
/// resolves symbolic labels to these indices.
///
/// # Example
///
/// ```
/// use glaive_isa::{Instr, AluOp, Reg};
/// let i = Instr::Alu { op: AluOp::Add, rd: Reg(1), rs1: Reg(2), rs2: Reg(3) };
/// assert_eq!(i.defs(), vec![Reg(1)]);
/// assert_eq!(i.uses(), vec![Reg(2), Reg(3)]);
/// assert_eq!(i.to_string(), "add r1, r2, r3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Three-register integer ALU operation: `rd = rs1 op rs2`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register-immediate integer ALU operation: `rd = rs1 op imm`.
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i64,
    },
    /// Three-register floating-point operation: `rd = rs1 op rs2` (f64 view).
    Fpu {
        op: FpuOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Unary floating-point operation: `rd = op rs1` (f64 view).
    FpuUnary { op: FpuUnaryOp, rd: Reg, rs1: Reg },
    /// Conversion between integer and f64 views: `rd = cvt(rs1)`.
    Cvt { op: CvtOp, rd: Reg, rs1: Reg },
    /// Load a 64-bit immediate: `rd = imm`. Floating-point constants are
    /// materialised via `imm = f64::to_bits(..) as i64`.
    Li { rd: Reg, imm: i64 },
    /// Register copy: `rd = rs1`.
    Mov { rd: Reg, rs1: Reg },
    /// Memory load: `rd = mem[rs1 + offset]` (word-addressed; traps on
    /// out-of-bounds addresses).
    Load { rd: Reg, base: Reg, offset: i64 },
    /// Memory store: `mem[base + offset] = rs` (word-addressed; traps on
    /// out-of-bounds addresses).
    Store { rs: Reg, base: Reg, offset: i64 },
    /// Conditional branch to absolute instruction index `target`.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: usize,
    },
    /// Unconditional jump to absolute instruction index `target`.
    Jump { target: usize },
    /// Append the value of `rs1` to the program output buffer.
    Out { rs1: Reg },
    /// Stop execution successfully.
    Halt,
}

impl Instr {
    /// The coarse opcode identity of this instruction.
    pub fn opcode(&self) -> Opcode {
        match *self {
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => Opcode::Alu(op),
            Instr::Fpu { op, .. } => Opcode::Fpu(op),
            Instr::FpuUnary { op, .. } => Opcode::FpuUnary(op),
            Instr::Cvt { op, .. } => Opcode::Cvt(op),
            Instr::Li { .. } => Opcode::Li,
            Instr::Mov { .. } => Opcode::Mov,
            Instr::Load { .. } => Opcode::Load,
            Instr::Store { .. } => Opcode::Store,
            Instr::Branch { cond, .. } => Opcode::Branch(cond),
            Instr::Jump { .. } => Opcode::Jump,
            Instr::Out { .. } => Opcode::Out,
            Instr::Halt => Opcode::Halt,
        }
    }

    /// Registers written by this instruction (the destination operands).
    pub fn defs(&self) -> Vec<Reg> {
        match *self {
            Instr::Alu { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::Fpu { rd, .. }
            | Instr::FpuUnary { rd, .. }
            | Instr::Cvt { rd, .. }
            | Instr::Li { rd, .. }
            | Instr::Mov { rd, .. }
            | Instr::Load { rd, .. } => vec![rd],
            _ => Vec::new(),
        }
    }

    /// Registers read by this instruction (the source operands), in operand
    /// order. A register appearing in two source slots is listed twice.
    pub fn uses(&self) -> Vec<Reg> {
        match *self {
            Instr::Alu { rs1, rs2, .. } | Instr::Fpu { rs1, rs2, .. } => vec![rs1, rs2],
            Instr::AluImm { rs1, .. }
            | Instr::FpuUnary { rs1, .. }
            | Instr::Cvt { rs1, .. }
            | Instr::Mov { rs1, .. }
            | Instr::Out { rs1 } => vec![rs1],
            Instr::Load { base, .. } => vec![base],
            Instr::Store { rs, base, .. } => vec![rs, base],
            Instr::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            Instr::Li { .. } | Instr::Jump { .. } | Instr::Halt => Vec::new(),
        }
    }

    /// All register operands (sources first, then destinations), in operand
    /// order — the fault sites of the paper's fault model ("registers that
    /// store instruction inputs and outputs").
    pub fn operands(&self) -> Vec<Reg> {
        let mut ops = self.uses();
        ops.extend(self.defs());
        ops
    }

    /// Returns `true` if the instruction's register values are interpreted
    /// as `f64` bit patterns (used for the "register type" node feature).
    pub fn is_float(&self) -> bool {
        matches!(
            self,
            Instr::Fpu { .. } | Instr::FpuUnary { .. } | Instr::Cvt { .. }
        )
    }

    /// Static control flow, for CFG and control-dependence analysis.
    pub fn flow(&self) -> Flow {
        match *self {
            Instr::Halt => Flow::Halt,
            Instr::Jump { target } => Flow::Jump(target),
            Instr::Branch { target, .. } => Flow::Branch(target),
            _ => Flow::Fallthrough,
        }
    }

    /// Static memory behaviour, for the `D_M` dependence analysis.
    pub fn mem_access(&self) -> Option<MemAccess> {
        match *self {
            Instr::Load { offset, .. } => Some(MemAccess {
                is_store: false,
                alias: offset,
            }),
            Instr::Store { offset, .. } => Some(MemAccess {
                is_store: true,
                alias: offset,
            }),
            _ => None,
        }
    }

    /// Encodes the instruction into a fixed-width byte array.
    ///
    /// The encoding is `[tag, sub, a, b, c, 0, 0, 0, imm:8]` where `imm`
    /// holds the little-endian immediate, offset or target.
    pub fn encode(&self) -> [u8; INSTR_ENCODING_LEN] {
        let mut buf = [0u8; INSTR_ENCODING_LEN];
        let (tag, sub, a, b, c, imm): (u8, u8, u8, u8, u8, i64) = match *self {
            Instr::Alu { op, rd, rs1, rs2 } => (0, op as u8, rd.0, rs1.0, rs2.0, 0),
            Instr::AluImm { op, rd, rs1, imm } => (1, op as u8, rd.0, rs1.0, 0, imm),
            Instr::Fpu { op, rd, rs1, rs2 } => (2, op as u8, rd.0, rs1.0, rs2.0, 0),
            Instr::FpuUnary { op, rd, rs1 } => (3, op as u8, rd.0, rs1.0, 0, 0),
            Instr::Cvt { op, rd, rs1 } => (4, op as u8, rd.0, rs1.0, 0, 0),
            Instr::Li { rd, imm } => (5, 0, rd.0, 0, 0, imm),
            Instr::Mov { rd, rs1 } => (6, 0, rd.0, rs1.0, 0, 0),
            Instr::Load { rd, base, offset } => (7, 0, rd.0, base.0, 0, offset),
            Instr::Store { rs, base, offset } => (8, 0, rs.0, base.0, 0, offset),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => (9, cond as u8, rs1.0, rs2.0, 0, target as i64),
            Instr::Jump { target } => (10, 0, 0, 0, 0, target as i64),
            Instr::Out { rs1 } => (11, 0, rs1.0, 0, 0, 0),
            Instr::Halt => (12, 0, 0, 0, 0, 0),
        };
        buf[0] = tag;
        buf[1] = sub;
        buf[2] = a;
        buf[3] = b;
        buf[4] = c;
        buf[8..16].copy_from_slice(&imm.to_le_bytes());
        buf
    }

    /// Decodes an instruction previously produced by [`Instr::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the tag or sub-opcode is unknown or a
    /// register index is out of range.
    pub fn decode(buf: &[u8; INSTR_ENCODING_LEN]) -> Result<Instr, DecodeError> {
        let (tag, sub, a, b, c) = (buf[0], buf[1], buf[2], buf[3], buf[4]);
        let imm = i64::from_le_bytes(buf[8..16].try_into().expect("slice len 8"));
        let reg = |r: u8| -> Result<Reg, DecodeError> {
            let reg = Reg(r);
            if reg.is_valid() {
                Ok(reg)
            } else {
                Err(DecodeError::BadRegister(r))
            }
        };
        let alu = |s: u8| {
            AluOp::ALL
                .get(s as usize)
                .copied()
                .ok_or(DecodeError::BadSubOpcode(s))
        };
        let fpu = |s: u8| {
            FpuOp::ALL
                .get(s as usize)
                .copied()
                .ok_or(DecodeError::BadSubOpcode(s))
        };
        match tag {
            0 => Ok(Instr::Alu {
                op: alu(sub)?,
                rd: reg(a)?,
                rs1: reg(b)?,
                rs2: reg(c)?,
            }),
            1 => Ok(Instr::AluImm {
                op: alu(sub)?,
                rd: reg(a)?,
                rs1: reg(b)?,
                imm,
            }),
            2 => Ok(Instr::Fpu {
                op: fpu(sub)?,
                rd: reg(a)?,
                rs1: reg(b)?,
                rs2: reg(c)?,
            }),
            3 => Ok(Instr::FpuUnary {
                op: FpuUnaryOp::ALL
                    .get(sub as usize)
                    .copied()
                    .ok_or(DecodeError::BadSubOpcode(sub))?,
                rd: reg(a)?,
                rs1: reg(b)?,
            }),
            4 => Ok(Instr::Cvt {
                op: CvtOp::ALL
                    .get(sub as usize)
                    .copied()
                    .ok_or(DecodeError::BadSubOpcode(sub))?,
                rd: reg(a)?,
                rs1: reg(b)?,
            }),
            5 => Ok(Instr::Li { rd: reg(a)?, imm }),
            6 => Ok(Instr::Mov {
                rd: reg(a)?,
                rs1: reg(b)?,
            }),
            7 => Ok(Instr::Load {
                rd: reg(a)?,
                base: reg(b)?,
                offset: imm,
            }),
            8 => Ok(Instr::Store {
                rs: reg(a)?,
                base: reg(b)?,
                offset: imm,
            }),
            9 => Ok(Instr::Branch {
                cond: BranchCond::ALL
                    .get(sub as usize)
                    .copied()
                    .ok_or(DecodeError::BadSubOpcode(sub))?,
                rs1: reg(a)?,
                rs2: reg(b)?,
                target: imm as usize,
            }),
            10 => Ok(Instr::Jump {
                target: imm as usize,
            }),
            11 => Ok(Instr::Out { rs1: reg(a)? }),
            12 => Ok(Instr::Halt),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instr::Fpu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::FpuUnary { op, rd, rs1 } => write!(f, "{} {rd}, {rs1}", op.mnemonic()),
            Instr::Cvt { op, rd, rs1 } => write!(f, "{} {rd}, {rs1}", op.mnemonic()),
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Mov { rd, rs1 } => write!(f, "mov {rd}, {rs1}"),
            Instr::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Instr::Store { rs, base, offset } => write!(f, "st {rs}, {offset}({base})"),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                write!(f, "{} {rs1}, {rs2}, @{target}", cond.mnemonic())
            }
            Instr::Jump { target } => write!(f, "jmp @{target}"),
            Instr::Out { rs1 } => write!(f, "out {rs1}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

/// Error returned by [`Instr::decode`] for malformed encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown instruction tag byte.
    BadTag(u8),
    /// Unknown sub-opcode for the given tag.
    BadSubOpcode(u8),
    /// Register index outside `0..NUM_REGS`.
    BadRegister(u8),
    /// An immediate field holds a value invalid for its instruction (e.g. a
    /// negative branch target).
    BadImmediate(i64),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadTag(t) => write!(f, "unknown instruction tag {t}"),
            DecodeError::BadSubOpcode(s) => write!(f, "unknown sub-opcode {s}"),
            DecodeError::BadRegister(r) => write!(f, "register index {r} out of range"),
            DecodeError::BadImmediate(imm) => {
                write!(f, "immediate {imm} is invalid for this instruction")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(2),
                rs2: Reg(3),
            },
            Instr::AluImm {
                op: AluOp::Mul,
                rd: Reg(4),
                rs1: Reg(5),
                imm: -17,
            },
            Instr::Fpu {
                op: FpuOp::FDiv,
                rd: Reg(6),
                rs1: Reg(7),
                rs2: Reg(8),
            },
            Instr::FpuUnary {
                op: FpuUnaryOp::FSqrt,
                rd: Reg(9),
                rs1: Reg(10),
            },
            Instr::Cvt {
                op: CvtOp::FloatToInt,
                rd: Reg(11),
                rs1: Reg(12),
            },
            Instr::Li {
                rd: Reg(13),
                imm: i64::MIN,
            },
            Instr::Mov {
                rd: Reg(14),
                rs1: Reg(15),
            },
            Instr::Load {
                rd: Reg(16),
                base: Reg(17),
                offset: 40,
            },
            Instr::Store {
                rs: Reg(18),
                base: Reg(19),
                offset: -8,
            },
            Instr::Branch {
                cond: BranchCond::Ltu,
                rs1: Reg(20),
                rs2: Reg(21),
                target: 99,
            },
            Instr::Jump { target: 3 },
            Instr::Out { rs1: Reg(22) },
            Instr::Halt,
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for i in sample_instrs() {
            let decoded = Instr::decode(&i.encode()).expect("valid encoding");
            assert_eq!(decoded, i);
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut buf = [0u8; INSTR_ENCODING_LEN];
        buf[0] = 200;
        assert_eq!(Instr::decode(&buf), Err(DecodeError::BadTag(200)));
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut buf = Instr::Out { rs1: Reg(0) }.encode();
        buf[2] = 32;
        assert_eq!(Instr::decode(&buf), Err(DecodeError::BadRegister(32)));
    }

    #[test]
    fn decode_rejects_bad_sub_opcode() {
        let mut buf = Instr::Alu {
            op: AluOp::Add,
            rd: Reg(0),
            rs1: Reg(0),
            rs2: Reg(0),
        }
        .encode();
        buf[1] = 99;
        assert_eq!(Instr::decode(&buf), Err(DecodeError::BadSubOpcode(99)));
    }

    #[test]
    fn defs_uses_store() {
        let st = Instr::Store {
            rs: Reg(1),
            base: Reg(2),
            offset: 0,
        };
        assert!(st.defs().is_empty());
        assert_eq!(st.uses(), vec![Reg(1), Reg(2)]);
        assert_eq!(st.operands(), vec![Reg(1), Reg(2)]);
    }

    #[test]
    fn defs_uses_branch() {
        let br = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg(1),
            rs2: Reg(2),
            target: 0,
        };
        assert!(br.defs().is_empty());
        assert_eq!(br.uses(), vec![Reg(1), Reg(2)]);
        assert_eq!(br.flow(), Flow::Branch(0));
        assert_eq!(br.flow().target(), Some(0));
    }

    #[test]
    fn duplicate_source_listed_twice() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(2),
        };
        assert_eq!(i.uses(), vec![Reg(2), Reg(2)]);
    }

    #[test]
    fn classification_helpers() {
        assert!(Instr::Fpu {
            op: FpuOp::FAdd,
            rd: Reg(0),
            rs1: Reg(0),
            rs2: Reg(0)
        }
        .is_float());
        assert_eq!(Instr::Halt.flow(), Flow::Halt);
        assert_eq!(Instr::Halt.flow().target(), None);
        assert_eq!(Instr::Jump { target: 3 }.flow(), Flow::Jump(3));
        assert_eq!(Instr::Li { rd: Reg(1), imm: 0 }.flow(), Flow::Fallthrough);
    }

    #[test]
    fn mem_access_classifies_loads_and_stores() {
        let ld = Instr::Load {
            rd: Reg(1),
            base: Reg(2),
            offset: 5,
        };
        let st = Instr::Store {
            rs: Reg(1),
            base: Reg(2),
            offset: 5,
        };
        let access = |is_store| Some(MemAccess { is_store, alias: 5 });
        assert_eq!(ld.mem_access(), access(false));
        assert_eq!(st.mem_access(), access(true));
        assert_eq!(Instr::Halt.mem_access(), None);
    }

    #[test]
    fn display_formats() {
        let i = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            imm: 5,
        };
        assert_eq!(i.to_string(), "addi r1, r2, 5");
        let l = Instr::Load {
            rd: Reg(3),
            base: Reg(4),
            offset: 16,
        };
        assert_eq!(l.to_string(), "ld r3, 16(r4)");
    }
}
