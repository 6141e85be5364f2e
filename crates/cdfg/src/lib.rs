//! Bit-level control–data flow graph (CDFG) extraction and node features —
//! the static-analysis half of GLAIVE (paper §III-B, Fig. 3, Table I).
//!
//! Construction follows the paper's three refinement steps:
//!
//! 1. **Instruction-level CDFG** — one node per static instruction, edges
//!    for data (`D_D`, register def-use chains via reaching definitions),
//!    control (`D_C`, branch → control-dependent instructions) and memory
//!    (`D_M`, store → aliasing load) dependences.
//! 2. **Operand-level graph** — each instruction node is replaced by its
//!    operand registers (sources and destination).
//! 3. **Bit blasting** — each operand becomes one node per (sampled) bit,
//!    with intra-instruction edges from every source-operand bit to every
//!    destination-operand bit, and inter-instruction edges connecting equal
//!    bit positions (a register transfer preserves bit positions).
//!
//! The graph keeps one adjacency: the predecessor CSR
//! ([`Cdfg::preds_csr`]) that GLAIVE's untyped MEAN aggregation reads
//! (paper Eq. 2). Edges carry no dependence-kind tags; [`EdgeStats`]
//! counts each kind from the construction's edge stream.
//!
//! `bit_stride` subsamples bit positions (stride 1 = all 64, the paper's
//! setting; the default of 8 keeps graphs small enough for the from-scratch
//! CPU GNN while preserving the bit-position signal — see DESIGN.md §1).
//! Setting `bit_stride = 64` collapses the graph to word level, which is the
//! paper's word-vs-bit ablation.
//!
//! # Example
//!
//! ```
//! use glaive_isa::{Asm, Reg, AluOp};
//! use glaive_cdfg::{Cdfg, CdfgConfig};
//!
//! let mut asm = Asm::new("t");
//! asm.li(Reg(1), 3);
//! asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
//! asm.out(Reg(2));
//! asm.halt();
//! let p = asm.finish()?;
//!
//! let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 16 });
//! assert!(g.node_count() > 0);
//! // The add's destination bits aggregate from its source bits.
//! # Ok::<(), glaive_isa::AsmError>(())
//! ```

pub mod analysis;
mod dot;
mod features;
mod graph;

pub use dot::instruction_dot;
pub use features::{instruction_features, FEATURE_DIM, INSTR_FEATURE_DIM};
pub use graph::{BitNode, Cdfg, CdfgConfig, EdgeStats};
