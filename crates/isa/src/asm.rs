use std::fmt;

use crate::instr::Instr;
use crate::opcode::{AluOp, BranchCond, CvtOp, FpuOp, FpuUnaryOp};
use crate::program::{Program, ProgramError};
use crate::reg::Reg;

/// A forward-referenceable code label created by [`Asm::label`] and bound to
/// an instruction index by [`Asm::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An assembler that builds a [`Program`] instruction by instruction with
/// symbolic labels for control flow.
///
/// # Example
///
/// ```
/// use glaive_isa::{Asm, Reg, BranchCond};
/// let mut asm = Asm::new("skip");
/// let done = asm.label();
/// asm.li(Reg(1), 0);
/// asm.branch(BranchCond::Eq, Reg(1), Reg(1), done); // always taken
/// asm.li(Reg(1), 99);                               // skipped
/// asm.bind(done);
/// asm.out(Reg(1));
/// asm.halt();
/// let p = asm.finish()?;
/// assert_eq!(p.len(), 5);
/// # Ok::<(), glaive_isa::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    name: String,
    instrs: Vec<Instr>,
    /// label id → bound instruction index (usize::MAX = unbound).
    bindings: Vec<usize>,
    mem_words: usize,
}

const UNBOUND: usize = usize::MAX;

impl Asm {
    /// Creates an empty assembler for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Asm {
            name: name.into(),
            instrs: Vec::new(),
            bindings: Vec::new(),
            mem_words: 0,
        }
    }

    /// Sets the data-memory size in 64-bit words (default 0).
    pub fn set_mem_words(&mut self, words: usize) -> &mut Self {
        self.mem_words = words;
        self
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bindings.push(UNBOUND);
        Label(self.bindings.len() - 1)
    }

    /// Binds `label` to the next instruction to be emitted.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound — rebinding silently changes
    /// already-emitted branches.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        assert_eq!(self.bindings[label.0], UNBOUND, "label bound twice");
        self.bindings[label.0] = self.instrs.len();
        self
    }

    /// Index of the next instruction to be emitted.
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Emits a raw instruction. Control-flow instructions emitted this way
    /// use absolute targets; prefer [`Asm::branch`]/[`Asm::jump`] for
    /// label-based targets.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    /// Emits `rd = rs1 op rs2`.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Instr::Alu { op, rd, rs1, rs2 })
    }

    /// Emits `rd = rs1 op imm`.
    pub fn alu_imm(&mut self, op: AluOp, rd: Reg, rs1: Reg, imm: i64) -> &mut Self {
        self.push(Instr::AluImm { op, rd, rs1, imm })
    }

    /// Emits `rd = rs1 op rs2` on the `f64` view.
    pub fn fpu(&mut self, op: FpuOp, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.push(Instr::Fpu { op, rd, rs1, rs2 })
    }

    /// Emits `rd = op rs1` on the `f64` view.
    pub fn fpu_unary(&mut self, op: FpuUnaryOp, rd: Reg, rs1: Reg) -> &mut Self {
        self.push(Instr::FpuUnary { op, rd, rs1 })
    }

    /// Emits an int/float conversion.
    pub fn cvt(&mut self, op: CvtOp, rd: Reg, rs1: Reg) -> &mut Self {
        self.push(Instr::Cvt { op, rd, rs1 })
    }

    /// Emits `rd = imm`.
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Li { rd, imm })
    }

    /// Emits `rd = f` by materialising the `f64` bit pattern.
    pub fn li_f(&mut self, rd: Reg, f: f64) -> &mut Self {
        self.push(Instr::Li {
            rd,
            imm: f.to_bits() as i64,
        })
    }

    /// Emits `rd = rs1`.
    pub fn mov(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.push(Instr::Mov { rd, rs1 })
    }

    /// Emits `rd = mem[base + offset]`.
    pub fn load(&mut self, rd: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Instr::Load { rd, base, offset })
    }

    /// Emits `mem[base + offset] = rs`.
    pub fn store(&mut self, rs: Reg, base: Reg, offset: i64) -> &mut Self {
        self.push(Instr::Store { rs, base, offset })
    }

    /// Emits a conditional branch to `label`.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, label: Label) -> &mut Self {
        // Targets are patched in finish(); stash the label id in the target.
        self.push(Instr::Branch {
            cond,
            rs1,
            rs2,
            target: Self::label_marker(label),
        })
    }

    /// Emits an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.push(Instr::Jump {
            target: Self::label_marker(label),
        })
    }

    /// Emits `out rs1`.
    pub fn out(&mut self, rs1: Reg) -> &mut Self {
        self.push(Instr::Out { rs1 })
    }

    /// Emits `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    // Label ids are stored as targets beyond any realistic program size and
    // patched during finish(). The offset keeps them distinguishable from
    // genuine absolute targets.
    const LABEL_BASE: usize = usize::MAX / 2;

    fn label_marker(label: Label) -> usize {
        Self::LABEL_BASE + label.0
    }

    /// Resolves all labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if any referenced label was never
    /// bound.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        for (pc, instr) in self.instrs.iter_mut().enumerate() {
            let patched = match *instr {
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } if target >= Self::LABEL_BASE => {
                    let id = target - Self::LABEL_BASE;
                    let bound = self.bindings[id];
                    if bound == UNBOUND {
                        return Err(AsmError::UnboundLabel { label: id, pc });
                    }
                    Some(Instr::Branch {
                        cond,
                        rs1,
                        rs2,
                        target: bound,
                    })
                }
                Instr::Jump { target } if target >= Self::LABEL_BASE => {
                    let id = target - Self::LABEL_BASE;
                    let bound = self.bindings[id];
                    if bound == UNBOUND {
                        return Err(AsmError::UnboundLabel { label: id, pc });
                    }
                    Some(Instr::Jump { target: bound })
                }
                _ => None,
            };
            if let Some(p) = patched {
                *instr = p;
            }
        }
        Program::try_new(self.name, self.instrs, self.mem_words).map_err(AsmError::Program)
    }
}

/// Error produced when finalising an [`Asm`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsmError {
    /// A branch or jump references a label that was never bound.
    UnboundLabel {
        /// The numeric label id.
        label: usize,
        /// The instruction index of the referencing branch/jump.
        pc: usize,
    },
    /// The finished instruction sequence failed [`Program::try_new`]
    /// validation (e.g. a raw `push` with an out-of-range absolute target).
    Program(ProgramError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label, pc } => {
                write!(f, "instruction {pc} references unbound label {label}")
            }
            AsmError::Program(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut asm = Asm::new("t");
        let top = asm.label();
        let end = asm.label();
        asm.bind(top);
        asm.li(Reg(1), 1);
        asm.branch(BranchCond::Eq, Reg(1), Reg(1), end);
        asm.jump(top);
        asm.bind(end);
        asm.halt();
        let p = asm.finish().expect("resolves");
        assert_eq!(p.instrs()[1].flow().target(), Some(3));
        assert_eq!(p.instrs()[2].flow().target(), Some(0));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Asm::new("t");
        let l = asm.label();
        asm.jump(l);
        assert_eq!(
            asm.finish(),
            Err(AsmError::UnboundLabel { label: 0, pc: 0 })
        );
    }

    #[test]
    fn raw_push_with_dangling_target_is_an_error() {
        let mut asm = Asm::new("t");
        asm.push(Instr::Jump { target: 50 });
        asm.halt();
        assert_eq!(
            asm.finish(),
            Err(AsmError::Program(ProgramError::DanglingTarget {
                pc: 0,
                target: 50
            }))
        );
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut asm = Asm::new("t");
        let l = asm.label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn float_immediates_roundtrip() {
        let mut asm = Asm::new("t");
        asm.li_f(Reg(1), 3.5);
        asm.halt();
        let p = asm.finish().expect("resolves");
        match p.instrs()[0] {
            Instr::Li { imm, .. } => assert_eq!(f64::from_bits(imm as u64), 3.5),
            ref other => panic!("expected li, got {other}"),
        }
    }

    #[test]
    fn mem_words_propagates() {
        let mut asm = Asm::new("t");
        asm.set_mem_words(128);
        asm.halt();
        assert_eq!(asm.finish().expect("resolves").mem_words(), 128);
    }
}
