use std::fmt;

use glaive_isa::{AluOp, Asm, BranchCond, CvtOp, FpuOp, FpuUnaryOp, Program, Reg};

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::module::{Array, ModuleBuilder, Var};

/// First register of the expression-evaluation stack.
const STACK_BASE: u8 = 21;
/// Number of expression-evaluation registers.
const STACK_LEN: usize = 10;
/// Number of registers available for scalar variables (`r1..=r20`).
const NUM_VAR_REGS: usize = 20;
/// Register pinned to zero by the prologue; used as a branch comparand and
/// as the base register for absolute addressing.
const ZERO: Reg = Reg(31);

/// Where a scalar variable lives at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarLoc {
    /// Held in an architectural register for the whole program.
    Reg(Reg),
    /// Spilled to a fixed data-memory word.
    Mem(usize),
}

/// The memory layout of a compiled module: where each array and spilled
/// variable resides. Benchmarks use this to assemble the initial memory
/// image holding their inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    array_bases: Vec<usize>,
    array_lens: Vec<usize>,
    var_locs: Vec<VarLoc>,
    mem_words: usize,
}

impl Layout {
    /// Base word address of an array.
    pub fn array_base(&self, array: Array) -> usize {
        self.array_bases[array.0]
    }

    /// Declared length of an array in words.
    pub fn array_len(&self, array: Array) -> usize {
        self.array_lens[array.0]
    }

    /// Runtime location of a scalar variable.
    pub fn var_loc(&self, var: Var) -> VarLoc {
        self.var_locs[var.0]
    }

    /// Total data-memory size in words.
    pub fn mem_words(&self) -> usize {
        self.mem_words
    }
}

/// A lowered module: the executable [`Program`] and its [`Layout`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    program: Program,
    layout: Layout,
}

impl CompiledProgram {
    /// The executable program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The memory layout (array bases, variable locations).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }
}

/// Error produced when lowering a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// An expression tree needs more evaluation registers than available;
    /// split it into multiple statements (e.g. statement-level Horner for
    /// polynomials, as [`mathlib`](crate::mathlib) does).
    ExprTooDeep {
        /// Required stack depth.
        depth: usize,
        /// Available stack depth.
        max: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ExprTooDeep { depth, max } => write!(
                f,
                "expression needs {depth} evaluation registers but only {max} are available; \
                 split it into multiple statements"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

struct Codegen {
    asm: Asm,
    layout: Layout,
}

/// Lowers a module to a program plus layout. Called via
/// [`ModuleBuilder::compile`].
pub(crate) fn compile(module: ModuleBuilder) -> Result<CompiledProgram, CompileError> {
    // Memory layout: arrays in declaration order from address 0, then spill
    // slots for variables beyond the register file, then scratch.
    let mut next = 0usize;
    let mut array_bases = Vec::with_capacity(module.arrays.len());
    let mut array_lens = Vec::with_capacity(module.arrays.len());
    for a in &module.arrays {
        array_bases.push(next);
        array_lens.push(a.len);
        next += a.len;
    }
    let mut var_locs = Vec::with_capacity(module.vars.len());
    for (i, _) in module.vars.iter().enumerate() {
        if i < NUM_VAR_REGS {
            var_locs.push(VarLoc::Reg(Reg(1 + i as u8)));
        } else {
            var_locs.push(VarLoc::Mem(next));
            next += 1;
        }
    }
    let mem_words = next + module.extra_mem;
    let layout = Layout {
        array_bases,
        array_lens,
        var_locs,
        mem_words,
    };

    let mut asm = Asm::new(module.name.clone());
    asm.set_mem_words(mem_words);
    // Prologue: pin the zero register.
    asm.li(ZERO, 0);

    let mut cg = Codegen { asm, layout };
    for stmt in &module.stmts {
        cg.stmt(stmt)?;
    }
    cg.asm.halt();
    let program = cg
        .asm
        .finish()
        .expect("all labels are bound by construction");
    Ok(CompiledProgram {
        program,
        layout: cg.layout,
    })
}

impl Codegen {
    fn slot(&self, depth: usize) -> Result<Reg, CompileError> {
        if depth >= STACK_LEN {
            return Err(CompileError::ExprTooDeep {
                depth: depth + 1,
                max: STACK_LEN,
            });
        }
        Ok(Reg(STACK_BASE + depth as u8))
    }

    /// Evaluates `expr` into evaluation-stack slot `depth`; slots below
    /// `depth` are live and preserved.
    fn eval(&mut self, expr: &Expr, depth: usize) -> Result<Reg, CompileError> {
        let t = self.slot(depth)?;
        match expr {
            Expr::Int(v) => {
                self.asm.li(t, *v);
            }
            Expr::Float(f) => {
                self.asm.li_f(t, *f);
            }
            Expr::Var(x) => match self.layout.var_loc(*x) {
                VarLoc::Reg(r) => {
                    self.asm.mov(t, r);
                }
                VarLoc::Mem(addr) => {
                    self.asm.load(t, ZERO, addr as i64);
                }
            },
            Expr::Ld(arr, idx) => {
                let ti = self.eval(idx, depth)?;
                let base = self.layout.array_base(*arr);
                self.asm.load(t, ti, base as i64);
            }
            Expr::Un(op, e) => {
                let te = self.eval(e, depth)?;
                debug_assert_eq!(te, t);
                match op {
                    UnOp::Neg => {
                        self.asm.alu(AluOp::Sub, t, ZERO, te);
                    }
                    UnOp::Not => {
                        self.asm.alu_imm(AluOp::Xor, t, te, -1);
                    }
                    UnOp::FNeg => {
                        self.asm.fpu_unary(FpuUnaryOp::FNeg, t, te);
                    }
                    UnOp::FAbs => {
                        self.asm.fpu_unary(FpuUnaryOp::FAbs, t, te);
                    }
                    UnOp::FSqrt => {
                        self.asm.fpu_unary(FpuUnaryOp::FSqrt, t, te);
                    }
                    UnOp::I2F => {
                        self.asm.cvt(CvtOp::IntToFloat, t, te);
                    }
                    UnOp::F2I => {
                        self.asm.cvt(CvtOp::FloatToInt, t, te);
                    }
                }
            }
            Expr::Bin(op, lhs, rhs) => {
                // Register-immediate form for integer ops with a literal rhs
                // keeps generated code close to what a real compiler emits.
                if let (Some(alu), Expr::Int(imm)) = (int_alu(*op), rhs.as_ref()) {
                    let tl = self.eval(lhs, depth)?;
                    self.asm.alu_imm(alu, t, tl, *imm);
                } else {
                    let tl = self.eval(lhs, depth)?;
                    let tr = self.eval(rhs, depth + 1)?;
                    if let Some(alu) = int_alu(*op) {
                        self.asm.alu(alu, t, tl, tr);
                    } else {
                        self.asm.fpu(float_fpu(*op), t, tl, tr);
                    }
                }
            }
        }
        Ok(t)
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Assign(x, e) => {
                let t = self.eval(e, 0)?;
                match self.layout.var_loc(*x) {
                    VarLoc::Reg(r) => {
                        self.asm.mov(r, t);
                    }
                    VarLoc::Mem(addr) => {
                        self.asm.store(t, ZERO, addr as i64);
                    }
                }
            }
            Stmt::Store(arr, idx, val) => {
                let ti = self.eval(idx, 0)?;
                let tv = self.eval(val, 1)?;
                let base = self.layout.array_base(*arr);
                self.asm.store(tv, ti, base as i64);
            }
            Stmt::If(cond, then, otherwise) => {
                // `for_` desugars to If(1, ..): emit the body directly.
                if matches!(cond, Expr::Int(c) if *c != 0) {
                    for s in then {
                        self.stmt(s)?;
                    }
                    return Ok(());
                }
                let t = self.eval(cond, 0)?;
                let else_label = self.asm.label();
                let end_label = self.asm.label();
                self.asm.branch(BranchCond::Eq, t, ZERO, else_label);
                for s in then {
                    self.stmt(s)?;
                }
                self.asm.jump(end_label);
                self.asm.bind(else_label);
                for s in otherwise {
                    self.stmt(s)?;
                }
                self.asm.bind(end_label);
            }
            Stmt::While(cond, body) => {
                let top = self.asm.label();
                let end = self.asm.label();
                self.asm.bind(top);
                let t = self.eval(cond, 0)?;
                self.asm.branch(BranchCond::Eq, t, ZERO, end);
                for s in body {
                    self.stmt(s)?;
                }
                self.asm.jump(top);
                self.asm.bind(end);
            }
            Stmt::Out(e) => {
                let t = self.eval(e, 0)?;
                self.asm.out(t);
            }
        }
        Ok(())
    }
}

fn int_alu(op: BinOp) -> Option<AluOp> {
    Some(match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        BinOp::Shl => AluOp::Shl,
        BinOp::Shr => AluOp::Shr,
        BinOp::Sra => AluOp::Sra,
        BinOp::Slt => AluOp::Slt,
        BinOp::Sltu => AluOp::Sltu,
        BinOp::Seq => AluOp::Seq,
        _ => return None,
    })
}

fn float_fpu(op: BinOp) -> FpuOp {
    match op {
        BinOp::FAdd => FpuOp::FAdd,
        BinOp::FSub => FpuOp::FSub,
        BinOp::FMul => FpuOp::FMul,
        BinOp::FDiv => FpuOp::FDiv,
        BinOp::FMin => FpuOp::FMin,
        BinOp::FMax => FpuOp::FMax,
        BinOp::FLt => FpuOp::FLt,
        BinOp::FLe => FpuOp::FLe,
        BinOp::FEq => FpuOp::FEq,
        other => unreachable!("integer op {other:?} reached float lowering"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use glaive_sim::{run, ExecConfig};

    fn exec_with_mem(m: ModuleBuilder, init: &[u64]) -> Vec<u64> {
        let compiled = m.compile().expect("compiles");
        let r = run(compiled.program(), init, &ExecConfig::default());
        assert!(r.status.is_clean(), "bad exit: {:?}", r.status);
        r.output
    }

    fn exec(m: ModuleBuilder) -> Vec<u64> {
        exec_with_mem(m, &[])
    }

    #[test]
    fn arithmetic_and_assignment() {
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, add(mul(int(6), int(7)), neg(int(2)))));
        m.push(out(v(x)));
        assert_eq!(exec(m), vec![40]);
    }

    #[test]
    fn if_else_branches() {
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, int(3)));
        m.push(if_else(
            lt(v(x), int(5)),
            vec![out(int(1))],
            vec![out(int(2))],
        ));
        m.push(if_else(
            lt(v(x), int(2)),
            vec![out(int(3))],
            vec![out(int(4))],
        ));
        assert_eq!(exec(m), vec![1, 4]);
    }

    #[test]
    fn nested_loops() {
        let mut m = ModuleBuilder::new("t");
        let (i, j, n) = (m.var("i"), m.var("j"), m.var("n"));
        m.push(assign(n, int(0)));
        m.push(for_(
            i,
            int(0),
            int(3),
            vec![for_(j, int(0), int(4), vec![assign(n, add(v(n), int(1)))])],
        ));
        m.push(out(v(n)));
        assert_eq!(exec(m), vec![12]);
    }

    #[test]
    fn arrays_load_store() {
        let mut m = ModuleBuilder::new("t");
        let a = m.array("a", 4);
        let i = m.var("i");
        m.push(for_(
            i,
            int(0),
            int(4),
            vec![store(a, v(i), mul(v(i), v(i)))],
        ));
        m.push(for_(i, int(0), int(4), vec![out(ld(a, v(i)))]));
        assert_eq!(exec(m), vec![0, 1, 4, 9]);
    }

    #[test]
    fn initial_memory_feeds_arrays() {
        let mut m = ModuleBuilder::new("t");
        let a = m.array("a", 3);
        let s = m.var("s");
        let i = m.var("i");
        m.push(assign(s, int(0)));
        m.push(for_(
            i,
            int(0),
            int(3),
            vec![assign(s, add(v(s), ld(a, v(i))))],
        ));
        m.push(out(v(s)));
        assert_eq!(exec_with_mem(m, &[10, 20, 30]), vec![60]);
    }

    #[test]
    fn spilled_variables_work() {
        let mut m = ModuleBuilder::new("t");
        // Declare more variables than there are variable registers.
        let vars: Vec<_> = (0..NUM_VAR_REGS + 5)
            .map(|k| m.var(format!("v{k}")))
            .collect();
        for (k, &var) in vars.iter().enumerate() {
            m.push(assign(var, int(k as i64)));
        }
        let last = *vars.last().expect("nonempty");
        let first = vars[0];
        m.push(out(add(v(first), v(last))));
        let compiled_layout = {
            let m2 = {
                // Rebuild an identical module for layout inspection.
                let mut m2 = ModuleBuilder::new("t2");
                let vs: Vec<_> = (0..NUM_VAR_REGS + 5)
                    .map(|k| m2.var(format!("v{k}")))
                    .collect();
                for (k, &var) in vs.iter().enumerate() {
                    m2.push(assign(var, int(k as i64)));
                }
                m2
            };
            m2.compile().expect("compiles")
        };
        assert!(matches!(
            compiled_layout.layout().var_loc(Var(NUM_VAR_REGS)),
            VarLoc::Mem(_)
        ));
        assert_eq!(exec(m), vec![(NUM_VAR_REGS as u64 + 4)]);
    }

    #[test]
    fn too_deep_expression_is_an_error() {
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, int(1)));
        // Build a right-leaning chain deeper than the evaluation stack.
        let mut e = v(x);
        for _ in 0..STACK_LEN + 1 {
            e = add(v(x), e);
        }
        m.push(out(e));
        assert!(matches!(m.compile(), Err(CompileError::ExprTooDeep { .. })));
    }

    #[test]
    fn left_leaning_deep_expression_compiles() {
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, int(1)));
        let mut e = v(x);
        for _ in 0..50 {
            e = add(e, v(x));
        }
        m.push(out(e));
        assert_eq!(exec(m), vec![51]);
    }

    #[test]
    fn float_pipeline() {
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, fdiv(flt(1.0), flt(4.0))));
        m.push(assign(x, fsqrt(v(x))));
        m.push(out(f2i(fmul(v(x), flt(100.0)))));
        assert_eq!(exec(m), vec![50]);
    }

    #[test]
    fn bit_reinterpretation_between_views() {
        // Extract the IEEE-754 biased exponent of 8.0 (= 1026) using
        // integer ops on a float value.
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, flt(8.0)));
        m.push(out(and(shr(v(x), int(52)), int(0x7ff))));
        assert_eq!(exec(m), vec![1026]);
    }

    #[test]
    fn layout_packs_arrays_then_spills() {
        let mut m = ModuleBuilder::new("t");
        let a = m.array("a", 10);
        let b = m.array("b", 5);
        m.reserve_mem(3);
        let compiled = m.compile().expect("compiles");
        let layout = compiled.layout();
        assert_eq!(layout.array_base(a), 0);
        assert_eq!(layout.array_base(b), 10);
        assert_eq!(layout.array_len(b), 5);
        assert_eq!(layout.mem_words(), 18);
    }

    #[test]
    fn division_by_zero_traps_at_runtime() {
        let mut m = ModuleBuilder::new("t");
        let x = m.var("x");
        m.push(assign(x, int(0)));
        m.push(out(div(int(1), v(x))));
        let compiled = m.compile().expect("compiles");
        let r = run(compiled.program(), &[], &ExecConfig::default());
        assert!(!r.status.is_clean());
    }
}
