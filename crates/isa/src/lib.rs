//! A 64-bit RISC-like instruction set used as the compilation and fault
//! injection target for the GLAIVE reproduction.
//!
//! The paper analyses x86 binaries produced by `g++` and disassembled with
//! `objdump`. What GLAIVE actually consumes is not x86 itself but the
//! *structure* of a register machine program: which registers an instruction
//! reads and writes, whether it is a control / memory / arithmetic
//! instruction, and the bit positions inside each operand register. This
//! crate provides exactly that structure: a compact register ISA with
//! integer, floating-point, memory, control and output instructions.
//!
//! # Example
//!
//! ```
//! use glaive_isa::{Asm, Reg, AluOp, BranchCond};
//!
//! // Sum the integers 1..=10 into r1 and emit the result.
//! let mut asm = Asm::new("sum");
//! let (acc, i, one, lim) = (Reg(1), Reg(2), Reg(3), Reg(4));
//! asm.li(acc, 0);
//! asm.li(i, 1);
//! asm.li(one, 1);
//! asm.li(lim, 10);
//! let loop_top = asm.label();
//! asm.bind(loop_top);
//! asm.alu(AluOp::Add, acc, acc, i);
//! asm.alu(AluOp::Add, i, i, one);
//! asm.branch(BranchCond::Le, i, lim, loop_top);
//! asm.out(acc);
//! asm.halt();
//! let program = asm.finish().expect("labels resolve");
//! assert!(program.len() > 0);
//! ```

mod asm;
mod instr;
mod op;
mod opcode;
mod program;
mod reg;
mod slot;
mod state;

pub use asm::{Asm, AsmError, Label};
pub use instr::{DecodeError, Flow, Instr, MemAccess, INSTR_ENCODING_LEN};
pub use op::Op;
pub use opcode::{AluOp, BranchCond, CvtOp, FpuOp, FpuUnaryOp, Opcode, OpcodeClass};
pub use program::{Program, ProgramError};
pub use reg::{Reg, NUM_REGS, WORD_BITS};
pub use slot::OperandSlot;
pub use state::{MachineState, Step, Trap};
