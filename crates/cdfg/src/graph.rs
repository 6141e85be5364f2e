use std::collections::HashMap;

use glaive_graph::CsrGraph;
use glaive_isa::{OpcodeClass, OperandSlot, Program, Reg, WORD_BITS};

use crate::analysis::{control_deps, def_use_chains, memory_deps};

/// Construction parameters for the bit-level CDFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdfgConfig {
    /// Sample every `bit_stride`-th bit position of each operand register
    /// (1 = all 64 bits, the paper's setting; 64 = word-level ablation).
    /// Must match the fault campaign's stride so labels join onto nodes.
    pub bit_stride: usize,
}

impl Default for CdfgConfig {
    fn default() -> Self {
        CdfgConfig { bit_stride: 8 }
    }
}

impl CdfgConfig {
    /// A config with an untrusted (wire- or user-supplied) stride: `None`
    /// when the stride falls outside `1..=WORD_BITS`, where
    /// [`Cdfg::build`] would panic. Serving layers use this to turn a bad
    /// request into a typed rejection instead of a worker panic.
    pub fn try_with_stride(bit_stride: usize) -> Option<CdfgConfig> {
        (1..=WORD_BITS)
            .contains(&bit_stride)
            .then_some(CdfgConfig { bit_stride })
    }
}

/// One node of the bit-level CDFG: bit `bit` of the register in operand
/// `slot` of instruction `pc`.
///
/// Nodes carry the Table-I feature vocabulary (opcode index, opcode class,
/// register, bit, float flag), not the instruction itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitNode {
    /// Static instruction index.
    pub pc: usize,
    /// Operand slot within the instruction.
    pub slot: OperandSlot,
    /// Bit position within the operand register.
    pub bit: u8,
    /// The architectural register in that slot.
    pub reg: Reg,
    /// Index into the canonical opcode vocabulary
    /// ([`Opcode::index`](glaive_isa::Opcode::index); `< Opcode::COUNT`).
    pub opcode_index: u16,
    /// The instruction's coarse class in the shared Table-I taxonomy.
    pub class: OpcodeClass,
    /// Whether the instruction interprets registers as `f64`.
    pub is_float: bool,
}

/// Per-kind edge counts, before de-duplication (a node pair connected by
/// both a data and a memory dependence counts once in the adjacency but in
/// both stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Intra-instruction source-bit → destination-bit edges.
    pub intra: usize,
    /// Inter-instruction register def-use (`D_D` / RR) edges.
    pub data: usize,
    /// Control-dependence (`D_C`) edges.
    pub control: usize,
    /// Memory-dependence (`D_M`) edges.
    pub memory: usize,
}

impl EdgeStats {
    /// Total edges across kinds (with multiplicity).
    pub fn total(&self) -> usize {
        self.intra + self.data + self.control + self.memory
    }
}

/// The bit-level control–data flow graph of one program.
///
/// Edges point in the direction of error propagation (producer → consumer);
/// the GNN aggregates over `preds`, i.e. against edge direction, following
/// Eq. (2) of the paper.
///
/// Only that predecessor direction is stored: one flat CSR adjacency
/// ([`CsrGraph`]) built directly from the analysis edge stream, with no
/// intermediate per-node `Vec`s. [`Cdfg::preds`] is a slice view into it,
/// and [`Cdfg::preds_csr`] hands the whole graph to the GNN as the
/// workspace's shared graph currency.
#[derive(Debug, Clone)]
pub struct Cdfg {
    config: CdfgConfig,
    nodes: Vec<BitNode>,
    preds: CsrGraph,
    index: HashMap<(usize, OperandSlot, u8), u32>,
    stats: EdgeStats,
}

impl Cdfg {
    /// Builds the bit-level CDFG of `program`.
    ///
    /// # Panics
    ///
    /// Panics if `config.bit_stride` is 0 or greater than the word width.
    pub fn build(program: &Program, config: &CdfgConfig) -> Cdfg {
        assert!(
            (1..=WORD_BITS).contains(&config.bit_stride),
            "bit_stride must be in 1..={WORD_BITS}"
        );
        let bits: Vec<u8> = (0..WORD_BITS)
            .step_by(config.bit_stride)
            .map(|b| b as u8)
            .collect();

        // Nodes: one per (pc, slot, sampled bit).
        let mut nodes = Vec::new();
        let mut index = HashMap::new();
        for (pc, instr) in program.instrs().iter().enumerate() {
            let opcode = instr.opcode();
            let (opcode_index, class) = (opcode.index() as u16, opcode.class());
            let is_float = instr.is_float();
            let mut push = |slot: OperandSlot, reg: Reg| {
                for &bit in &bits {
                    index.insert((pc, slot, bit), nodes.len() as u32);
                    nodes.push(BitNode {
                        pc,
                        slot,
                        bit,
                        reg,
                        opcode_index,
                        class,
                        is_float,
                    });
                }
            };
            for (i, &reg) in instr.uses().iter().enumerate() {
                push(OperandSlot::Use(i), reg);
            }
            for (i, &reg) in instr.defs().iter().enumerate() {
                push(OperandSlot::Def(i), reg);
            }
        }

        // One flat edge stream in predecessor orientation: each producer →
        // consumer edge is pushed as (consumer, producer). Stats count the
        // stream by dependence kind, with multiplicity; the CSR build
        // collapses pairs justified more than once.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut stats = EdgeStats::default();

        // 1. Intra-instruction: every source bit → every destination bit.
        for (pc, instr) in program.instrs().iter().enumerate() {
            if instr.defs().is_empty() {
                continue;
            }
            for (si, _) in instr.uses().iter().enumerate() {
                for &sb in &bits {
                    let from = index[&(pc, OperandSlot::Use(si), sb)];
                    for &db in &bits {
                        let to = index[&(pc, OperandSlot::Def(0), db)];
                        edges.push((to, from));
                        stats.intra += 1;
                    }
                }
            }
        }

        // 2. Register def-use (D_D): producer def bit k → consumer use bit k.
        for edge in def_use_chains(program) {
            for &b in &bits {
                let from = index[&(edge.def_pc, OperandSlot::Def(0), b)];
                let to = index[&(edge.use_pc, OperandSlot::Use(edge.use_slot), b)];
                edges.push((to, from));
                stats.data += 1;
            }
        }

        // 3. Control dependence (D_C): branch condition bits → dependent
        //    instruction's destination bits (or its source bits if it
        //    defines nothing, e.g. stores and outputs).
        for (branch_pc, dep_pc) in control_deps(program) {
            let branch = &program.instrs()[branch_pc];
            let dep = &program.instrs()[dep_pc];
            let dep_slots: Vec<OperandSlot> = if dep.defs().is_empty() {
                (0..dep.uses().len()).map(OperandSlot::Use).collect()
            } else {
                vec![OperandSlot::Def(0)]
            };
            for (ui, _) in branch.uses().iter().enumerate() {
                for &b in &bits {
                    let from = index[&(branch_pc, OperandSlot::Use(ui), b)];
                    for &slot in &dep_slots {
                        let to = index[&(dep_pc, slot, b)];
                        edges.push((to, from));
                        stats.control += 1;
                    }
                }
            }
        }

        // 4. Memory dependence (D_M): stored value bits → loaded value bits.
        for (store_pc, load_pc) in memory_deps(program) {
            for &b in &bits {
                let from = index[&(store_pc, OperandSlot::Use(0), b)];
                let to = index[&(load_pc, OperandSlot::Def(0), b)];
                edges.push((to, from));
                stats.memory += 1;
            }
        }

        // Sorted, duplicate-free rows fix the GNN's summation order, which
        // the pinned model bytes depend on (DESIGN.md §10).
        let preds = CsrGraph::from_edges(nodes.len(), edges);

        Cdfg {
            config: *config,
            nodes,
            preds,
            index,
            stats,
        }
    }

    /// The construction configuration.
    pub fn config(&self) -> &CdfgConfig {
        &self.config
    }

    /// Number of bit nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes, indexed by node id.
    pub fn nodes(&self) -> &[BitNode] {
        &self.nodes
    }

    /// Predecessors (error-propagation sources) of a node, as a sorted
    /// slice view into the flat predecessor CSR.
    pub fn preds(&self, id: u32) -> &[u32] {
        self.preds.neighbors(id as usize)
    }

    /// The predecessor-direction graph — GLAIVE's aggregation
    /// neighbourhood.
    pub fn preds_csr(&self) -> &CsrGraph {
        &self.preds
    }

    /// Looks up the node id of `(pc, slot, bit)`, if that bit was sampled.
    pub fn node_id(&self, pc: usize, slot: OperandSlot, bit: u8) -> Option<u32> {
        self.index.get(&(pc, slot, bit)).copied()
    }

    /// Pre-deduplication edge statistics by dependence kind.
    pub fn edge_stats(&self) -> &EdgeStats {
        &self.stats
    }

    /// Total directed edges after de-duplication.
    pub fn edge_count(&self) -> usize {
        self.preds.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_isa::{AluOp, Asm, BranchCond};

    fn cfg(stride: usize) -> CdfgConfig {
        CdfgConfig { bit_stride: stride }
    }

    fn add_program() -> Program {
        let mut asm = Asm::new("add");
        asm.li(Reg(1), 3); // 0
        asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1)); // 1
        asm.out(Reg(2)); // 2
        asm.halt(); // 3
        asm.finish().expect("resolves")
    }

    #[test]
    fn node_counts_scale_with_stride() {
        let p = add_program();
        // Operand slots: li 1 def; add 2 use + 1 def; out 1 use = 5 slots.
        let g64 = Cdfg::build(&p, &cfg(1));
        assert_eq!(g64.node_count(), 5 * 64);
        let g8 = Cdfg::build(&p, &cfg(8));
        assert_eq!(g8.node_count(), 5 * 8);
        let word = Cdfg::build(&p, &cfg(64));
        assert_eq!(word.node_count(), 5);
    }

    #[test]
    fn intra_edges_are_full_bipartite() {
        let p = add_program();
        let g = Cdfg::build(&p, &cfg(16)); // 4 bits sampled
                                           // The add def bit 0 has predecessors: all 4 bits × 2 use slots
                                           // (intra) + def-use from li (bitwise, only bit 0).
        let def0 = g.node_id(1, OperandSlot::Def(0), 0).expect("exists");
        assert_eq!(g.preds(def0).len(), 8);
    }

    #[test]
    fn def_use_edges_are_bitwise() {
        let p = add_program();
        let g = Cdfg::build(&p, &cfg(16));
        // li def bit 16 → add use0 bit 16 and use1 bit 16, plus no others.
        let li16 = g.node_id(0, OperandSlot::Def(0), 16).expect("exists");
        for slot in [OperandSlot::Use(0), OperandSlot::Use(1)] {
            let use16 = g.node_id(1, slot, 16).expect("exists");
            assert_eq!(g.preds(use16), &[li16]);
        }
        // Not to other bit positions.
        let use32 = g.node_id(1, OperandSlot::Use(0), 32).expect("exists");
        assert!(!g.preds(use32).contains(&li16));
    }

    #[test]
    fn control_edges_guard_dependent_instructions() {
        let mut asm = Asm::new("if");
        let end = asm.label();
        asm.li(Reg(1), 0); // 0
        asm.branch(BranchCond::Ne, Reg(1), Reg(1), end); // 1
        asm.li(Reg(2), 1); // 2 guarded
        asm.bind(end);
        asm.halt(); // 3
        let p = asm.finish().expect("resolves");
        let g = Cdfg::build(&p, &cfg(32));
        let branch_use = g.node_id(1, OperandSlot::Use(0), 0).expect("exists");
        let guarded_def = g.node_id(2, OperandSlot::Def(0), 0).expect("exists");
        assert!(g.preds(guarded_def).contains(&branch_use));
        assert!(g.edge_stats().control > 0);
    }

    #[test]
    fn memory_edges_flow_store_to_load() {
        let mut asm = Asm::new("mem");
        asm.set_mem_words(8);
        asm.li(Reg(1), 0); // 0
        asm.li(Reg(2), 42); // 1
        asm.store(Reg(2), Reg(1), 3); // 2
        asm.load(Reg(3), Reg(1), 3); // 3
        asm.out(Reg(3)); // 4
        asm.halt();
        let p = asm.finish().expect("resolves");
        let g = Cdfg::build(&p, &cfg(32));
        let store_val = g.node_id(2, OperandSlot::Use(0), 32).expect("exists");
        let load_def = g.node_id(3, OperandSlot::Def(0), 32).expect("exists");
        assert!(g.preds(load_def).contains(&store_val));
        assert!(g.edge_stats().memory > 0);
    }

    #[test]
    fn adjacency_is_deduplicated_and_consistent() {
        let p = add_program();
        let g = Cdfg::build(&p, &cfg(8));
        g.preds_csr().check_invariants().expect("pred CSR valid");
        let mut pred_edge_count = 0;
        for id in 0..g.node_count() as u32 {
            let preds = g.preds(id);
            pred_edge_count += preds.len();
            let mut sorted = preds.to_vec();
            sorted.dedup();
            assert_eq!(sorted.len(), preds.len(), "duplicate predecessor");
        }
        assert_eq!(pred_edge_count, g.edge_count());
    }

    #[test]
    #[should_panic(expected = "bit_stride")]
    fn zero_stride_rejected() {
        Cdfg::build(&add_program(), &cfg(0));
    }

    #[test]
    fn try_with_stride_validates_the_range() {
        assert!(CdfgConfig::try_with_stride(0).is_none());
        assert!(CdfgConfig::try_with_stride(WORD_BITS + 1).is_none());
        assert_eq!(
            CdfgConfig::try_with_stride(8),
            Some(CdfgConfig { bit_stride: 8 })
        );
        assert_eq!(
            CdfgConfig::try_with_stride(WORD_BITS),
            Some(CdfgConfig {
                bit_stride: WORD_BITS
            })
        );
    }

    #[test]
    fn nodes_carry_instruction_metadata() {
        let p = add_program();
        let g = Cdfg::build(&p, &cfg(64));
        let out_use = g.node_id(2, OperandSlot::Use(0), 0).expect("exists");
        let node = g.nodes()[out_use as usize];
        assert_eq!(node.reg, Reg(2));
        assert_eq!(node.opcode_index, glaive_isa::Opcode::Out.index() as u16);
        assert_eq!(node.class, OpcodeClass::Output);
        assert!(!node.is_float);
    }

    /// Representation parity: the CSR rows must be byte-identical to the
    /// nested-Vec adjacency the pre-CSR builder produced (push per edge,
    /// then per-list `sort_unstable` + `dedup`).
    #[test]
    fn csr_rows_match_the_legacy_nested_vec_builder() {
        let mut asm = Asm::new("parity");
        asm.set_mem_words(16);
        let end = asm.label();
        asm.li(Reg(1), 5); // 0
        asm.li(Reg(2), 7); // 1
        asm.alu(AluOp::Add, Reg(3), Reg(1), Reg(2)); // 2
        asm.store(Reg(3), Reg(1), 2); // 3
        asm.branch(BranchCond::Eq, Reg(3), Reg(2), end); // 4
        asm.load(Reg(4), Reg(1), 2); // 5 guarded
        asm.alu(AluOp::Mul, Reg(2), Reg(4), Reg(3)); // 6 guarded
        asm.bind(end);
        asm.out(Reg(2)); // 7
        asm.halt();
        let p = asm.finish().expect("resolves");

        for stride in [8usize, 16, 64] {
            let g = Cdfg::build(&p, &cfg(stride));
            let preds = legacy_preds(&p, &g);
            for id in 0..g.node_count() as u32 {
                assert_eq!(g.preds(id), &preds[id as usize][..], "preds of {id}");
            }
        }
    }

    /// The pre-CSR adjacency construction, kept as a test oracle: nested
    /// per-node Vecs filled edge by edge, then sorted and de-duplicated.
    fn legacy_preds(p: &Program, g: &Cdfg) -> Vec<Vec<u32>> {
        let bits: Vec<u8> = (0..WORD_BITS)
            .step_by(g.config().bit_stride)
            .map(|b| b as u8)
            .collect();
        let id = |pc: usize, slot: OperandSlot, bit: u8| g.node_id(pc, slot, bit).expect("node");
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); g.node_count()];
        let add = |from: u32, to: u32, preds: &mut Vec<Vec<u32>>| preds[to as usize].push(from);
        for (pc, instr) in p.instrs().iter().enumerate() {
            if instr.defs().is_empty() {
                continue;
            }
            for (si, _) in instr.uses().iter().enumerate() {
                for &sb in &bits {
                    for &db in &bits {
                        add(
                            id(pc, OperandSlot::Use(si), sb),
                            id(pc, OperandSlot::Def(0), db),
                            &mut preds,
                        );
                    }
                }
            }
        }
        for e in def_use_chains(p) {
            for &b in &bits {
                add(
                    id(e.def_pc, OperandSlot::Def(0), b),
                    id(e.use_pc, OperandSlot::Use(e.use_slot), b),
                    &mut preds,
                );
            }
        }
        for (branch_pc, dep_pc) in control_deps(p) {
            let branch = &p.instrs()[branch_pc];
            let dep = &p.instrs()[dep_pc];
            let dep_slots: Vec<OperandSlot> = if dep.defs().is_empty() {
                (0..dep.uses().len()).map(OperandSlot::Use).collect()
            } else {
                vec![OperandSlot::Def(0)]
            };
            for (ui, _) in branch.uses().iter().enumerate() {
                for &b in &bits {
                    for &slot in &dep_slots {
                        add(
                            id(branch_pc, OperandSlot::Use(ui), b),
                            id(dep_pc, slot, b),
                            &mut preds,
                        );
                    }
                }
            }
        }
        for (store_pc, load_pc) in memory_deps(p) {
            for &b in &bits {
                add(
                    id(store_pc, OperandSlot::Use(0), b),
                    id(load_pc, OperandSlot::Def(0), b),
                    &mut preds,
                );
            }
        }
        for list in &mut preds {
            list.sort_unstable();
            list.dedup();
        }
        preds
    }
}
