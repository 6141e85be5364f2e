//! Node feature vectors (Table I of the paper).
//!
//! Bit-level features (for GLAIVE and MLP-BIT): opcode one-hot, opcode-type
//! one-hot, register name one-hot, bit location one-hot, register type
//! (int/float), register location (src/dst). The auxiliary rows of Table I
//! (static PC, dynamic instance) are pre/post-processing identifiers, not
//! model inputs, and correspond to our node ids and campaign instances.
//!
//! Instruction-level features (for RF-INST and SVM-INST): the opcode and
//! opcode-type one-hots only, as in the paper.

use glaive_isa::{Opcode, OpcodeClass, Program, NUM_REGS, WORD_BITS};

use crate::graph::{BitNode, Cdfg};

/// Width of a bit-level node feature vector.
pub const FEATURE_DIM: usize =
    Opcode::COUNT + OpcodeClass::ALL.len() + NUM_REGS + WORD_BITS + 2 + 2;

/// Width of an instruction-level feature vector.
pub const INSTR_FEATURE_DIM: usize = Opcode::COUNT + OpcodeClass::ALL.len();

impl Cdfg {
    /// Writes the feature vector of one node into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != FEATURE_DIM`.
    pub fn node_features_into(&self, node: &BitNode, out: &mut [f32]) {
        assert_eq!(out.len(), FEATURE_DIM, "feature buffer has wrong length");
        out.fill(0.0);
        let mut base = 0;
        out[base + node.opcode_index as usize] = 1.0;
        base += Opcode::COUNT;
        out[base + node.class.index()] = 1.0;
        base += OpcodeClass::ALL.len();
        out[base + node.reg.index()] = 1.0;
        base += NUM_REGS;
        out[base + node.bit as usize] = 1.0;
        base += WORD_BITS;
        // Register type: [int, float].
        out[base + usize::from(node.is_float)] = 1.0;
        base += 2;
        // Register location: [src, dst].
        out[base + usize::from(node.slot.is_def())] = 1.0;
    }

    /// The dense row-major feature matrix of all nodes
    /// (`node_count × FEATURE_DIM`).
    pub fn feature_matrix(&self) -> Vec<f32> {
        let mut m = vec![0.0f32; self.node_count() * FEATURE_DIM];
        for (i, node) in self.nodes().iter().enumerate() {
            self.node_features_into(node, &mut m[i * FEATURE_DIM..(i + 1) * FEATURE_DIM]);
        }
        m
    }
}

/// Instruction-level feature matrix (`program.len() × INSTR_FEATURE_DIM`),
/// row-major: opcode one-hot followed by opcode-class one-hot.
pub fn instruction_features(program: &Program) -> Vec<f32> {
    let mut m = vec![0.0f32; program.len() * INSTR_FEATURE_DIM];
    for (pc, instr) in program.instrs().iter().enumerate() {
        let row = &mut m[pc * INSTR_FEATURE_DIM..(pc + 1) * INSTR_FEATURE_DIM];
        let opcode = instr.opcode();
        row[opcode.index()] = 1.0;
        row[Opcode::COUNT + opcode.class().index()] = 1.0;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CdfgConfig;
    use glaive_isa::{AluOp, Asm, OperandSlot, Reg};

    fn program() -> Program {
        let mut asm = Asm::new("t");
        asm.li(Reg(1), 1); // 0
        asm.fpu(glaive_isa::FpuOp::FAdd, Reg(2), Reg(1), Reg(1)); // 1
        asm.alu(AluOp::Add, Reg(3), Reg(2), Reg(2)); // 2
        asm.out(Reg(3)); // 3
        asm.halt();
        asm.finish().expect("resolves")
    }

    #[test]
    fn feature_vector_has_exactly_six_hot_groups() {
        let p = program();
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 16 });
        let mut buf = vec![0.0f32; FEATURE_DIM];
        for node in g.nodes() {
            g.node_features_into(node, &mut buf);
            let ones = buf.iter().filter(|&&x| x == 1.0).count();
            let zeros = buf.iter().filter(|&&x| x == 0.0).count();
            assert_eq!(ones, 6, "six one-hot groups each contribute one 1");
            assert_eq!(ones + zeros, FEATURE_DIM);
        }
    }

    #[test]
    fn float_and_location_flags_are_correct() {
        let p = program();
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 64 });
        let mut buf = vec![0.0f32; FEATURE_DIM];
        let float_use = g.node_id(1, OperandSlot::Use(0), 0).expect("exists");
        g.node_features_into(&g.nodes()[float_use as usize], &mut buf);
        let base = Opcode::COUNT + OpcodeClass::ALL.len() + NUM_REGS + WORD_BITS;
        assert_eq!(buf[base + 1], 1.0, "fadd operand is float-typed");
        assert_eq!(buf[base + 2], 1.0, "use slot is a source");

        let int_def = g.node_id(2, OperandSlot::Def(0), 0).expect("exists");
        g.node_features_into(&g.nodes()[int_def as usize], &mut buf);
        assert_eq!(buf[base], 1.0, "add operand is int-typed");
        assert_eq!(buf[base + 3], 1.0, "def slot is a destination");
    }

    #[test]
    fn bit_location_one_hot_matches_bit() {
        let p = program();
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 8 });
        let mut buf = vec![0.0f32; FEATURE_DIM];
        let node = g.node_id(0, OperandSlot::Def(0), 48).expect("exists");
        g.node_features_into(&g.nodes()[node as usize], &mut buf);
        let base = Opcode::COUNT + OpcodeClass::ALL.len() + NUM_REGS;
        assert_eq!(buf[base + 48], 1.0);
        assert_eq!(buf[base + 47], 0.0);
    }

    #[test]
    fn feature_matrix_is_row_major() {
        let p = program();
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 32 });
        let m = g.feature_matrix();
        assert_eq!(m.len(), g.node_count() * FEATURE_DIM);
        let mut buf = vec![0.0f32; FEATURE_DIM];
        g.node_features_into(&g.nodes()[3], &mut buf);
        assert_eq!(&m[3 * FEATURE_DIM..4 * FEATURE_DIM], &buf[..]);
    }

    #[test]
    fn instruction_features_shape_and_content() {
        let p = program();
        let m = instruction_features(&p);
        assert_eq!(m.len(), p.len() * INSTR_FEATURE_DIM);
        for pc in 0..p.len() {
            let row = &m[pc * INSTR_FEATURE_DIM..(pc + 1) * INSTR_FEATURE_DIM];
            assert_eq!(row.iter().filter(|&&x| x == 1.0).count(), 2);
        }
        // Row 3 is the out instruction.
        let row = &m[3 * INSTR_FEATURE_DIM..4 * INSTR_FEATURE_DIM];
        assert_eq!(row[Opcode::Out.index()], 1.0);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_buffer_length_panics() {
        let p = program();
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 64 });
        let mut buf = vec![0.0f32; FEATURE_DIM - 1];
        g.node_features_into(&g.nodes()[0], &mut buf);
    }
}
