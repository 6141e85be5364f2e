use std::fmt;

/// Integer ALU operations for [`Instr::Alu`](crate::Instr::Alu) and
/// [`Instr::AluImm`](crate::Instr::AluImm).
///
/// `Div` and `Rem` trap (processor exception → program Crash) when the
/// divisor is zero, mirroring the divide-by-zero crash class of the paper's
/// fault model. Shift amounts are taken modulo 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Wrapping signed addition.
    Add,
    /// Wrapping signed subtraction.
    Sub,
    /// Wrapping signed multiplication.
    Mul,
    /// Signed division; traps on a zero divisor.
    Div,
    /// Signed remainder; traps on a zero divisor.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (amount mod 64).
    Shl,
    /// Logical shift right (amount mod 64).
    Shr,
    /// Arithmetic shift right (amount mod 64).
    Sra,
    /// Set to 1 if signed less-than, else 0.
    Slt,
    /// Set to 1 if unsigned less-than, else 0.
    Sltu,
    /// Set to 1 if equal, else 0.
    Seq,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Seq,
    ];

    /// Mnemonic used in disassembly.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Seq => "seq",
        }
    }

    /// Returns `true` if the operation can raise a trap (divide-by-zero).
    pub fn can_trap(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Rem)
    }
}

/// Binary floating-point operations; operands are register bits viewed as
/// IEEE-754 `f64`. Comparison variants produce an integer 0/1 result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FpuOp {
    /// `f64` addition.
    FAdd,
    /// `f64` subtraction.
    FSub,
    /// `f64` multiplication.
    FMul,
    /// `f64` division (IEEE semantics: produces ±inf/NaN, never traps).
    FDiv,
    /// Minimum of two `f64` values.
    FMin,
    /// Maximum of two `f64` values.
    FMax,
    /// Integer 1 if `rs1 < rs2` as `f64`, else 0.
    FLt,
    /// Integer 1 if `rs1 <= rs2` as `f64`, else 0.
    FLe,
    /// Integer 1 if `rs1 == rs2` as `f64`, else 0.
    FEq,
}

impl FpuOp {
    /// All FPU operations, in encoding order.
    pub const ALL: [FpuOp; 9] = [
        FpuOp::FAdd,
        FpuOp::FSub,
        FpuOp::FMul,
        FpuOp::FDiv,
        FpuOp::FMin,
        FpuOp::FMax,
        FpuOp::FLt,
        FpuOp::FLe,
        FpuOp::FEq,
    ];

    /// Mnemonic used in disassembly.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::FAdd => "fadd",
            FpuOp::FSub => "fsub",
            FpuOp::FMul => "fmul",
            FpuOp::FDiv => "fdiv",
            FpuOp::FMin => "fmin",
            FpuOp::FMax => "fmax",
            FpuOp::FLt => "flt",
            FpuOp::FLe => "fle",
            FpuOp::FEq => "feq",
        }
    }

    /// Returns `true` if the result is an integer 0/1 comparison outcome
    /// rather than an `f64` bit pattern.
    pub fn is_compare(self) -> bool {
        matches!(self, FpuOp::FLt | FpuOp::FLe | FpuOp::FEq)
    }
}

/// Unary floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FpuUnaryOp {
    /// Negation.
    FNeg,
    /// Absolute value.
    FAbs,
    /// Square root (IEEE: NaN for negative inputs, never traps).
    FSqrt,
}

impl FpuUnaryOp {
    /// All unary FPU operations, in encoding order.
    pub const ALL: [FpuUnaryOp; 3] = [FpuUnaryOp::FNeg, FpuUnaryOp::FAbs, FpuUnaryOp::FSqrt];

    /// Mnemonic used in disassembly.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            FpuUnaryOp::FNeg => "fneg",
            FpuUnaryOp::FAbs => "fabs",
            FpuUnaryOp::FSqrt => "fsqrt",
        }
    }
}

/// Conversions between the integer and floating-point views of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CvtOp {
    /// Signed integer → `f64`.
    IntToFloat,
    /// `f64` → signed integer (truncation; saturates at i64 bounds, NaN → 0).
    FloatToInt,
}

impl CvtOp {
    /// All conversion operations, in encoding order.
    pub const ALL: [CvtOp; 2] = [CvtOp::IntToFloat, CvtOp::FloatToInt];

    /// Mnemonic used in disassembly.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            CvtOp::IntToFloat => "cvt.i2f",
            CvtOp::FloatToInt => "cvt.f2i",
        }
    }
}

/// Conditions for conditional branches over two integer register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
    /// Branch if signed less-or-equal.
    Le,
    /// Branch if signed greater-than.
    Gt,
    /// Branch if unsigned less-than.
    Ltu,
    /// Branch if unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// All branch conditions, in encoding order.
    pub const ALL: [BranchCond; 8] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Le,
        BranchCond::Gt,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];

    /// Mnemonic used in disassembly.
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Le => "ble",
            BranchCond::Gt => "bgt",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// The coarse opcode identity of an instruction, used as a one-hot node
/// feature in the bit-level CDFG ("Op code" row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    /// Integer ALU operation (register or immediate form).
    Alu(AluOp),
    /// Binary floating-point operation.
    Fpu(FpuOp),
    /// Unary floating-point operation.
    FpuUnary(FpuUnaryOp),
    /// Int/float conversion.
    Cvt(CvtOp),
    /// Load immediate (integer or float bit pattern).
    Li,
    /// Register move.
    Mov,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch(BranchCond),
    /// Unconditional jump.
    Jump,
    /// Append a register value to the program output buffer.
    Out,
    /// Stop execution.
    Halt,
}

impl Opcode {
    /// Total number of distinct opcode identities, i.e. the width of the
    /// opcode one-hot feature.
    pub const COUNT: usize = AluOp::ALL.len()
        + FpuOp::ALL.len()
        + FpuUnaryOp::ALL.len()
        + CvtOp::ALL.len()
        + BranchCond::ALL.len()
        + 7; // Li, Mov, Load, Store, Jump, Out, Halt

    /// A dense index in `0..Opcode::COUNT` identifying this opcode, used to
    /// build one-hot feature vectors.
    pub fn index(self) -> usize {
        let alu_base = 0;
        let fpu_base = alu_base + AluOp::ALL.len();
        let fpu1_base = fpu_base + FpuOp::ALL.len();
        let cvt_base = fpu1_base + FpuUnaryOp::ALL.len();
        let br_base = cvt_base + CvtOp::ALL.len();
        let misc_base = br_base + BranchCond::ALL.len();
        match self {
            Opcode::Alu(op) => alu_base + op as usize,
            Opcode::Fpu(op) => fpu_base + op as usize,
            Opcode::FpuUnary(op) => fpu1_base + op as usize,
            Opcode::Cvt(op) => cvt_base + op as usize,
            Opcode::Branch(c) => br_base + c as usize,
            Opcode::Li => misc_base,
            Opcode::Mov => misc_base + 1,
            Opcode::Load => misc_base + 2,
            Opcode::Store => misc_base + 3,
            Opcode::Jump => misc_base + 4,
            Opcode::Out => misc_base + 5,
            Opcode::Halt => misc_base + 6,
        }
    }

    /// The instruction class ("Op code type" row of Table I).
    pub fn class(self) -> OpcodeClass {
        match self {
            Opcode::Alu(_) => OpcodeClass::IntAlu,
            Opcode::Fpu(_) | Opcode::FpuUnary(_) => OpcodeClass::FpAlu,
            Opcode::Cvt(_) | Opcode::Li | Opcode::Mov => OpcodeClass::Move,
            Opcode::Load | Opcode::Store => OpcodeClass::Memory,
            Opcode::Branch(_) | Opcode::Jump | Opcode::Halt => OpcodeClass::Control,
            Opcode::Out => OpcodeClass::Output,
        }
    }
}

/// Coarse instruction classes used as Boolean node features (Table I
/// "Op code type": control, memory-related, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpcodeClass {
    /// Integer arithmetic/logic.
    IntAlu,
    /// Floating-point arithmetic.
    FpAlu,
    /// Data movement: immediates, moves, conversions.
    Move,
    /// Loads and stores.
    Memory,
    /// Branches, jumps, halt.
    Control,
    /// Output-buffer writes.
    Output,
}

impl OpcodeClass {
    /// All opcode classes, in feature order.
    pub const ALL: [OpcodeClass; 6] = [
        OpcodeClass::IntAlu,
        OpcodeClass::FpAlu,
        OpcodeClass::Move,
        OpcodeClass::Memory,
        OpcodeClass::Control,
        OpcodeClass::Output,
    ];

    /// Dense index in `0..6` for one-hot feature construction.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Alu(op) => op.mnemonic(),
            Opcode::Fpu(op) => op.mnemonic(),
            Opcode::FpuUnary(op) => op.mnemonic(),
            Opcode::Cvt(op) => op.mnemonic(),
            Opcode::Branch(c) => c.mnemonic(),
            Opcode::Li => "li",
            Opcode::Mov => "mov",
            Opcode::Load => "ld",
            Opcode::Store => "st",
            Opcode::Jump => "jmp",
            Opcode::Out => "out",
            Opcode::Halt => "halt",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn opcode_indices_are_dense_and_unique() {
        let mut seen = HashSet::new();
        let mut all: Vec<Opcode> = Vec::new();
        all.extend(AluOp::ALL.iter().map(|&op| Opcode::Alu(op)));
        all.extend(FpuOp::ALL.iter().map(|&op| Opcode::Fpu(op)));
        all.extend(FpuUnaryOp::ALL.iter().map(|&op| Opcode::FpuUnary(op)));
        all.extend(CvtOp::ALL.iter().map(|&op| Opcode::Cvt(op)));
        all.extend(BranchCond::ALL.iter().map(|&c| Opcode::Branch(c)));
        all.extend([
            Opcode::Li,
            Opcode::Mov,
            Opcode::Load,
            Opcode::Store,
            Opcode::Jump,
            Opcode::Out,
            Opcode::Halt,
        ]);
        assert_eq!(all.len(), Opcode::COUNT);
        for op in all {
            let idx = op.index();
            assert!(idx < Opcode::COUNT, "{op:?} index {idx} out of range");
            assert!(seen.insert(idx), "duplicate index {idx} for {op:?}");
        }
    }

    #[test]
    fn trapping_ops() {
        assert!(AluOp::Div.can_trap());
        assert!(AluOp::Rem.can_trap());
        assert!(!AluOp::Add.can_trap());
    }

    #[test]
    fn fpu_compare_classification() {
        assert!(FpuOp::FLt.is_compare());
        assert!(!FpuOp::FAdd.is_compare());
    }

    #[test]
    fn class_assignment() {
        assert_eq!(Opcode::Alu(AluOp::Add).class(), OpcodeClass::IntAlu);
        assert_eq!(Opcode::Fpu(FpuOp::FAdd).class(), OpcodeClass::FpAlu);
        assert_eq!(Opcode::Load.class(), OpcodeClass::Memory);
        assert_eq!(Opcode::Branch(BranchCond::Eq).class(), OpcodeClass::Control);
        assert_eq!(Opcode::Out.class(), OpcodeClass::Output);
        assert_eq!(Opcode::Li.class(), OpcodeClass::Move);
    }
}
