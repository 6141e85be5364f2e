//! The machine abstraction: everything the simulator, fault model, and
//! CDFG extraction need to know about an instruction set, as one trait.
//!
//! `Isa` is a *backend marker*: a zero-sized type whose associated items
//! describe the machine (word size, register-file shape, instruction type)
//! and whose methods give per-instruction semantics (operand lists, control
//! flow, memory aliasing, execution). `glaive-sim`, `glaive-faultsim` and
//! `glaive-cdfg` are generic over it; [`GlaiveIsa`] is its one
//! implementation.
//!
//! A backend maps its opcodes into the canonical opcode index space of
//! [`Opcode::index`](crate::Opcode::index) (`opcode_index` must be
//! `< Opcode::COUNT`), uses at most [`NUM_REGS`](crate::NUM_REGS)
//! registers and at most [`WORD_BITS`](crate::WORD_BITS)-bit words: the
//! CDFG feature layout is sized by those constants (DESIGN.md §13).

use std::fmt;

use crate::instr::Instr;
use crate::op::Op;
use crate::opcode::OpcodeClass;
use crate::reg::{Reg, NUM_REGS, WORD_BITS};

/// The instruction set of this workspace. A zero-sized backend marker; its
/// instruction type is [`Instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlaiveIsa;

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

/// The architectural state an instruction executes against: a flat register
/// file, a flat word-addressed data memory, and the output buffer.
///
/// Register-file width and memory size are fixed at construction; the
/// backend interprets the `u64` cells according to its word width.
///
/// Stores go through [`MachineState::store`], which keeps a write log: every
/// word written since the log was last cleared, once, with the value it held
/// before. The simulator uses it to revert a run's writes and to diff
/// memory against a golden run without scanning the whole data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    /// Register file, indexed by [`Reg::index`].
    pub regs: Vec<u64>,
    /// Word-addressed data memory.
    pub mem: Vec<u64>,
    /// Values emitted by output instructions, in order.
    pub output: Vec<u64>,
    /// Program counter: the static index of the next instruction to
    /// execute. The simulator advances it after each [`Isa::execute`].
    pub pc: usize,
    /// `(address, value before the first logged write)`, in first-write
    /// order.
    write_log: Vec<(usize, u64)>,
    /// One bit per data-memory word, set while the word is in `write_log`;
    /// grown on the first store.
    logged: Vec<u64>,
}

impl MachineState {
    /// A zeroed machine with `num_regs` registers and the given memory
    /// image.
    pub fn new(num_regs: usize, mem: Vec<u64>) -> MachineState {
        MachineState {
            regs: vec![0; num_regs],
            mem,
            output: Vec::new(),
            pc: 0,
            write_log: Vec::new(),
            logged: Vec::new(),
        }
    }

    /// Writes `value` to data-memory word `addr` — the one store path of
    /// the machine. A word's first write since the log was last cleared
    /// is logged with its previous value; later writes are not, so the log
    /// never holds more entries than there are memory words.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfBoundsStore`] when `addr` is outside the data memory.
    pub fn store(&mut self, addr: u64, value: u64) -> Result<(), Trap> {
        // Large faulty addresses exceed usize on 32-bit hosts too; the
        // get_mut covers both range checks.
        let a = addr as usize;
        let slot = self.mem.get_mut(a).ok_or(Trap::OutOfBoundsStore { addr })?;
        let before = std::mem::replace(slot, value);
        if self.logged.is_empty() {
            self.logged = vec![0; self.mem.len().div_ceil(64)];
        }
        let (word, bit) = (a / 64, 1u64 << (a % 64));
        if self.logged[word] & bit == 0 {
            self.logged[word] |= bit;
            self.write_log.push((a, before));
        }
        Ok(())
    }

    /// Every word written since the log was last cleared, with the value
    /// it held before the first of those writes.
    pub fn write_log(&self) -> &[(usize, u64)] {
        &self.write_log
    }

    /// Empties the write log; memory is left as it is.
    pub fn clear_write_log(&mut self) {
        for &(a, _) in &self.write_log {
            self.logged[a / 64] = 0;
        }
        self.write_log.clear();
    }
}

/// What the program counter does after an instruction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Advance to `pc + 1`.
    Next,
    /// Transfer to the absolute instruction index.
    Goto(usize),
    /// Stop execution successfully.
    Halt,
}

/// A processor exception raised during execution. Any trap terminates the
/// program and classifies the run as a Crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Load from an address outside the data memory.
    OutOfBoundsLoad {
        /// The faulting word address.
        addr: u64,
    },
    /// Store to an address outside the data memory.
    OutOfBoundsStore {
        /// The faulting word address.
        addr: u64,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Control transferred outside the program text (e.g. fell off the end).
    InvalidPc {
        /// The invalid program counter.
        pc: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBoundsLoad { addr } => write!(f, "out-of-bounds load at {addr:#x}"),
            Trap::OutOfBoundsStore { addr } => write!(f, "out-of-bounds store at {addr:#x}"),
            Trap::DivByZero => write!(f, "integer divide by zero"),
            Trap::InvalidPc { pc } => write!(f, "invalid program counter {pc}"),
        }
    }
}

/// An instruction-set backend: the associated items describe the machine,
/// the methods give per-instruction semantics.
///
/// Implementors are zero-sized markers; [`GlaiveIsa`] is the one
/// implementation, and every generic structure in the workspace defaults
/// its ISA parameter to it.
pub trait Isa: Copy + Clone + fmt::Debug + PartialEq + Eq + Send + Sync + 'static {
    /// The instruction type of this backend.
    type Instr: Copy + fmt::Debug + fmt::Display + PartialEq + Send + Sync + 'static;
    /// An instruction lowered for the interpreter, from [`Isa::lower`].
    type Op: Copy + fmt::Debug + Send + Sync + 'static;

    /// Width in bits of an architectural register (≤ canonical
    /// [`WORD_BITS`]).
    const WORD_BITS: usize;
    /// Number of architectural registers (≤ canonical [`NUM_REGS`]).
    const NUM_REGS: usize;

    /// Registers written by the instruction (destination operands).
    fn defs(instr: &Self::Instr) -> Vec<Reg>;
    /// Registers read by the instruction (source operands), in operand
    /// order; a register in two source slots is listed twice.
    fn uses(instr: &Self::Instr) -> Vec<Reg>;
    /// Index into the canonical opcode vocabulary
    /// (`< `[`Opcode::COUNT`](crate::Opcode::COUNT)), the one-hot feature
    /// space of the CDFG.
    fn opcode_index(instr: &Self::Instr) -> usize;
    /// The instruction's coarse class in the shared Table-I taxonomy.
    fn opcode_class(instr: &Self::Instr) -> OpcodeClass;
    /// Whether register operands are interpreted as `f64` bit patterns.
    fn is_float(instr: &Self::Instr) -> bool;
    /// Static control flow, for CFG and control-dependence analysis.
    fn flow(instr: &Self::Instr) -> Flow;
    /// Static memory behaviour, for the `D_M` dependence analysis.
    fn mem_access(instr: &Self::Instr) -> Option<MemAccess>;
    /// Fixed-width binary encoding; feeds campaign fingerprints.
    fn encode(instr: &Self::Instr) -> Vec<u8>;
    /// The instruction lowered for [`Isa::execute`]; a machine lowers its
    /// program once, when it is built.
    fn lower(instr: &Self::Instr) -> Self::Op;
    /// Executes one lowered instruction against the machine state. A
    /// lowered instruction must name only registers of the file, as every
    /// instruction of a [`Program`](crate::Program) does.
    ///
    /// # Errors
    ///
    /// A [`Trap`] for processor exceptions (the run classifies as Crash).
    fn execute(op: &Self::Op, state: &mut MachineState) -> Result<Step, Trap>;
}

impl Isa for GlaiveIsa {
    type Instr = Instr;
    type Op = Op;

    const WORD_BITS: usize = WORD_BITS;
    const NUM_REGS: usize = NUM_REGS;

    fn defs(instr: &Instr) -> Vec<Reg> {
        instr.defs()
    }

    fn uses(instr: &Instr) -> Vec<Reg> {
        instr.uses()
    }

    fn opcode_index(instr: &Instr) -> usize {
        instr.opcode().index()
    }

    fn opcode_class(instr: &Instr) -> OpcodeClass {
        instr.opcode().class()
    }

    fn is_float(instr: &Instr) -> bool {
        instr.is_float()
    }

    fn flow(instr: &Instr) -> Flow {
        match *instr {
            Instr::Halt => Flow::Halt,
            Instr::Jump { target } => Flow::Jump(target),
            Instr::Branch { target, .. } => Flow::Branch(target),
            _ => Flow::Fallthrough,
        }
    }

    fn mem_access(instr: &Instr) -> Option<MemAccess> {
        match *instr {
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

    fn encode(instr: &Instr) -> Vec<u8> {
        instr.encode().to_vec()
    }

    fn lower(instr: &Instr) -> Op {
        Op::lower(instr)
    }

    // Forced into the simulator's run loop: a step is then one dispatch
    // on the op's opcode.
    #[inline(always)]
    fn execute(op: &Op, state: &mut MachineState) -> Result<Step, Trap> {
        op.execute(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::{AluOp, BranchCond, FpuOp};

    /// Executes `instr`, lowered, on a machine whose r1 and r2 hold `a`
    /// and `b`; returns r3.
    fn exec3(instr: Instr, a: u64, b: u64) -> Result<u64, Trap> {
        let mut state = MachineState::new(NUM_REGS, vec![]);
        (state.regs[1], state.regs[2]) = (a, b);
        GlaiveIsa::execute(&GlaiveIsa::lower(&instr), &mut state)?;
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
        GlaiveIsa::execute(&GlaiveIsa::lower(&br), &mut state) == Ok(Step::Goto(7))
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
    fn flow_classifies_control() {
        assert_eq!(GlaiveIsa::flow(&Instr::Halt), Flow::Halt);
        assert_eq!(GlaiveIsa::flow(&Instr::Jump { target: 3 }), Flow::Jump(3));
        let br = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg(0),
            rs2: Reg(1),
            target: 7,
        };
        assert_eq!(GlaiveIsa::flow(&br), Flow::Branch(7));
        assert_eq!(GlaiveIsa::flow(&br).target(), Some(7));
        assert_eq!(
            GlaiveIsa::flow(&Instr::Li { rd: Reg(1), imm: 0 }),
            Flow::Fallthrough
        );
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
        assert_eq!(
            GlaiveIsa::mem_access(&ld),
            Some(MemAccess {
                is_store: false,
                alias: 5
            })
        );
        assert_eq!(
            GlaiveIsa::mem_access(&st),
            Some(MemAccess {
                is_store: true,
                alias: 5
            })
        );
        assert_eq!(GlaiveIsa::mem_access(&Instr::Halt), None);
    }

    #[test]
    fn trait_encode_matches_inherent_encode() {
        let i = Instr::AluImm {
            op: AluOp::Mul,
            rd: Reg(4),
            rs1: Reg(5),
            imm: -17,
        };
        assert_eq!(GlaiveIsa::encode(&i), i.encode().to_vec());
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
        let exec = |instr: &Instr, state: &mut MachineState| {
            GlaiveIsa::execute(&GlaiveIsa::lower(instr), state)
        };
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

    #[test]
    fn write_log_holds_each_word_once_with_its_first_prior_value() {
        let mut state = MachineState::new(NUM_REGS, vec![7, 0, 0, 0]);
        for v in 1..=100 {
            state.store(0, v).unwrap();
            state.store(3, v).unwrap();
        }
        assert_eq!(state.mem, vec![100, 0, 0, 100]);
        assert_eq!(state.write_log(), &[(0, 7), (3, 0)]);
        assert_eq!(state.store(4, 1), Err(Trap::OutOfBoundsStore { addr: 4 }));
        assert_eq!(state.write_log().len(), 2, "a trapped store logs nothing");
        state.clear_write_log();
        assert!(state.write_log().is_empty());
        state.store(0, 5).unwrap();
        assert_eq!(state.write_log(), &[(0, 100)], "cleared words log again");
    }
}
