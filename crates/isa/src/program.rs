use std::fmt;

use crate::instr::Instr;
use crate::reg::{Reg, NUM_REGS};

/// A complete machine program: a named, fixed sequence of instructions plus
/// the size of the flat data memory it executes against.
///
/// Instruction indices double as "static PC" values (the auxiliary feature of
/// Table I in the paper); branch/jump targets are instruction indices.
///
/// # Example
///
/// ```
/// use glaive_isa::{Program, Instr, Reg};
/// let p: Program = Program::try_new("tiny", vec![Instr::Li { rd: Reg(1), imm: 42 },
///                                               Instr::Out { rs1: Reg(1) },
///                                               Instr::Halt], 16).unwrap();
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.name(), "tiny");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    instrs: Vec<Instr>,
    mem_words: usize,
}

/// Why an instruction sequence cannot form a valid [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch/jump at `pc` targets an instruction index beyond the
    /// program.
    DanglingTarget {
        /// Static PC of the offending instruction.
        pc: usize,
        /// Its out-of-range target index.
        target: usize,
    },
    /// The instruction at `pc` names a register outside the register file.
    BadRegister {
        /// Static PC of the offending instruction.
        pc: usize,
        /// The out-of-range register.
        reg: Reg,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DanglingTarget { pc, target } => {
                write!(f, "instruction {pc} targets out-of-range index {target}")
            }
            ProgramError::BadRegister { pc, reg } => {
                write!(f, "instruction {pc} names {reg}, outside the register file")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Creates a program from a name, instruction sequence and data-memory
    /// size (in words), validating every branch/jump target and register
    /// operand so foreign instruction streams are rejected with a typed
    /// error rather than a later panic.
    ///
    /// # Errors
    ///
    /// [`ProgramError::DanglingTarget`] when an instruction's target lies
    /// beyond the instruction sequence (a target *equal to* the length is
    /// allowed: it halts by falling off the end), and
    /// [`ProgramError::BadRegister`] when a register in its
    /// [`uses`](Instr::uses) or [`defs`](Instr::defs) is not below
    /// [`NUM_REGS`].
    pub fn try_new(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        mem_words: usize,
    ) -> Result<Self, ProgramError> {
        for (pc, instr) in instrs.iter().enumerate() {
            if let Some(target) = instr.flow().target() {
                if target > instrs.len() {
                    return Err(ProgramError::DanglingTarget { pc, target });
                }
            }
            let mut regs = instr.uses().into_iter().chain(instr.defs());
            if let Some(reg) = regs.find(|r| r.index() >= NUM_REGS) {
                return Err(ProgramError::BadRegister { pc, reg });
            }
        }
        Ok(Program {
            name: name.into(),
            instrs,
            mem_words,
        })
    }

    /// The program's name (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Size of the data memory in words.
    pub fn mem_words(&self) -> usize {
        self.mem_words
    }

    /// The instruction at `pc`, if in range.
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// Renders the whole program as an assembly listing, one instruction per
    /// line, prefixed with its static PC.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (pc, instr) in self.instrs.iter().enumerate() {
            out.push_str(&format!("{pc:5}: {instr}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} instrs, {} mem words)",
            self.name,
            self.len(),
            self.mem_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::BranchCond;

    #[test]
    fn disassembly_lists_every_instruction() {
        let p: Program =
            Program::try_new("t", vec![Instr::Li { rd: Reg(1), imm: 1 }, Instr::Halt], 8).unwrap();
        let listing = p.disassemble();
        assert!(listing.contains("0: li r1, 1"));
        assert!(listing.contains("1: halt"));
        assert_eq!(listing.lines().count(), 2);
    }

    #[test]
    fn try_new_reports_dangling_targets_without_panicking() {
        let bad: Result<Program, _> = Program::try_new(
            "bad",
            vec![
                Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: Reg(0),
                    rs2: Reg(0),
                    target: 100,
                },
                Instr::Halt,
            ],
            8,
        );
        assert_eq!(
            bad,
            Err(ProgramError::DanglingTarget { pc: 0, target: 100 })
        );
        let dangling: Result<Program, _> =
            Program::try_new("bad", vec![Instr::Jump { target: 7 }, Instr::Halt], 8);
        assert_eq!(
            dangling,
            Err(ProgramError::DanglingTarget { pc: 0, target: 7 })
        );
        let ok: Result<Program, _> =
            Program::try_new("ok", vec![Instr::Jump { target: 2 }, Instr::Halt], 8);
        assert!(ok.is_ok());
    }

    #[test]
    fn try_new_rejects_registers_outside_the_file() {
        let li = Instr::Li {
            rd: Reg(32),
            imm: 1,
        };
        let bad: Result<Program, _> =
            Program::try_new("bad", vec![li, Instr::Out { rs1: Reg(32) }, Instr::Halt], 4);
        assert_eq!(
            bad,
            Err(ProgramError::BadRegister {
                pc: 0,
                reg: Reg(32)
            })
        );
        let store = Instr::Store {
            rs: Reg(31),
            base: Reg(200),
            offset: 0,
        };
        let bad: Result<Program, _> = Program::try_new("bad", vec![Instr::Halt, store], 4);
        assert_eq!(
            bad,
            Err(ProgramError::BadRegister {
                pc: 1,
                reg: Reg(200)
            })
        );
        assert!(bad.unwrap_err().to_string().contains("r200"));
        let edge = Instr::Mov {
            rd: Reg(31),
            rs1: Reg(31),
        };
        assert!(Program::try_new("ok", vec![edge, Instr::Halt], 4).is_ok());
    }

    #[test]
    fn accessors() {
        let p: Program = Program::try_new("t", vec![Instr::Halt], 4).unwrap();
        assert_eq!(p.mem_words(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.get(0), Some(&Instr::Halt));
        assert_eq!(p.get(1), None);
    }
}
