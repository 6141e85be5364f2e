//! Property tests for CDFG construction over randomly generated programs:
//! every edge must be justified by the static analyses, and graph structure
//! must respect the paper's construction rules. Cases come from a
//! deterministic inline RNG so the suite builds offline with no external
//! crates.

use glaive_cdfg::analysis::{control_deps, def_use_chains, memory_deps};
use glaive_cdfg::{Cdfg, CdfgConfig};
use glaive_isa::{AluOp, Asm, BranchCond, OperandSlot, Program, Reg};

const CASES: u64 = 48;

/// SplitMix64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn body(&mut self, max_len: u64) -> Vec<(u8, u8, u8, u8)> {
        (0..self.below(max_len))
            .map(|_| {
                (
                    self.next() as u8,
                    self.next() as u8,
                    self.next() as u8,
                    self.next() as u8,
                )
            })
            .collect()
    }
}

/// Generates a structurally valid random program: a prologue of loads, a
/// body of ALU ops / memory ops / forward branches, and an epilogue of
/// outs. All branches jump forward to the epilogue, so programs terminate.
fn build_program(body: &[(u8, u8, u8, u8)]) -> Program {
    let mut asm = Asm::new("prop");
    asm.set_mem_words(64);
    let regs = 6u8;
    for r in 0..regs {
        asm.li(Reg(r + 1), (r as i64 + 1) * 3);
    }
    let end = asm.label();
    for &(kind, a, b, c) in body {
        let ra = Reg(1 + a % regs);
        let rb = Reg(1 + b % regs);
        let rc = Reg(1 + c % regs);
        match kind % 6 {
            0 => {
                asm.alu(AluOp::ALL[(kind as usize / 6) % 9], ra, rb, rc);
            }
            1 => {
                asm.alu_imm(AluOp::Add, ra, rb, c as i64);
            }
            2 => {
                asm.store(ra, Reg(31), (c % 32) as i64);
            }
            3 => {
                asm.load(ra, Reg(31), (c % 32) as i64);
            }
            4 => {
                asm.branch(BranchCond::Eq, ra, rb, end);
            }
            _ => {
                asm.mov(ra, rb);
            }
        }
    }
    asm.bind(end);
    for r in 0..regs {
        asm.out(Reg(r + 1));
    }
    asm.halt();
    // Pin r31 (used as a base) by prepending… it is never written, reads 0.
    asm.finish().expect("labels resolve")
}

/// Node count is exactly (operand slots × sampled bits).
#[test]
fn node_count_matches_slots() {
    let mut rng = Rng(21);
    for _ in 0..CASES {
        let p = build_program(&rng.body(30));
        let stride = [8usize, 16, 32, 64][rng.below(4) as usize];
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: stride });
        let slots: usize = p
            .instrs()
            .iter()
            .map(|i| i.uses().len() + i.defs().len())
            .sum();
        assert_eq!(g.node_count(), slots * (64 / stride));
    }
}

/// Every inter-instruction edge is justified by one of the analyses;
/// every intra edge stays within one instruction, sources to dest.
#[test]
fn edges_are_justified() {
    let mut rng = Rng(22);
    for _ in 0..CASES {
        let p = build_program(&rng.body(25));
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 32 });
        let chains = def_use_chains(&p);
        let cdeps = control_deps(&p);
        let mdeps = memory_deps(&p);
        for to in 0..g.node_count() as u32 {
            let tn = g.nodes()[to as usize];
            for &from in g.preds(to) {
                let fnode = g.nodes()[from as usize];
                let ok_intra = fnode.pc == tn.pc && fnode.slot.is_use() && tn.slot.is_def();
                let ok_data = fnode.slot.is_def()
                    && tn.slot.is_use()
                    && fnode.bit == tn.bit
                    && chains.iter().any(|e| {
                        e.def_pc == fnode.pc
                            && e.use_pc == tn.pc
                            && OperandSlot::Use(e.use_slot) == tn.slot
                    });
                let ok_control = fnode.bit == tn.bit && cdeps.contains(&(fnode.pc, tn.pc));
                let ok_memory = fnode.bit == tn.bit
                    && fnode.slot == OperandSlot::Use(0)
                    && tn.slot == OperandSlot::Def(0)
                    && mdeps.contains(&(fnode.pc, tn.pc));
                assert!(
                    ok_intra || ok_data || ok_control || ok_memory,
                    "unjustified edge {fnode:?} -> {tn:?}"
                );
            }
        }
    }
}

/// Def-use chains never flow backwards against single-pass order unless
/// a loop exists; with only forward branches, def_pc < use_pc.
#[test]
fn forward_only_programs_have_forward_dataflow() {
    let mut rng = Rng(24);
    for _ in 0..CASES {
        let p = build_program(&rng.body(25));
        for e in def_use_chains(&p) {
            assert!(
                e.def_pc < e.use_pc,
                "backward chain {} -> {}",
                e.def_pc,
                e.use_pc
            );
        }
    }
}
