//! Property tests for the cycle-cost layer, over randomly generated
//! straight-line programs:
//!
//! * **Monotonicity** — appending instructions to a program never decreases
//!   its total cycle count, for every shipped [`CycleModel`].
//! * **Unit-cost identity** — under [`UnitCost`], the total cycle count of a
//!   clean run equals its retired (dynamic) instruction count.
//!
//! The generator is a fixed-seed LCG, so failures replay deterministically.

use glaive_isa::{AluOp, Asm, Program, Reg};
use glaive_sim::ExecConfig;
use glaive_timing::{try_profile, CycleModel, InOrderCost, UnitCost};

/// Deterministic xorshift-style generator (no external crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One abstract straight-line operation.
/// Trap-free by construction: no division, no memory, no control flow.
#[derive(Clone, Copy)]
enum Op {
    Li { rd: u8, imm: i16 },
    Alu { kind: u8, rd: u8, rs1: u8, rs2: u8 },
    Mov { rd: u8, rs: u8 },
    Out { rs: u8 },
}

fn random_ops(rng: &mut Rng, len: usize) -> Vec<Op> {
    let reg = |rng: &mut Rng| (1 + rng.below(7)) as u8;
    (0..len)
        .map(|_| match rng.below(4) {
            0 => Op::Li {
                rd: reg(rng),
                imm: rng.below(2000) as i16 - 1000,
            },
            1 | 2 => Op::Alu {
                kind: rng.below(6) as u8,
                rd: reg(rng),
                rs1: reg(rng),
                rs2: reg(rng),
            },
            _ => {
                if rng.below(2) == 0 {
                    Op::Mov {
                        rd: reg(rng),
                        rs: reg(rng),
                    }
                } else {
                    Op::Out { rs: reg(rng) }
                }
            }
        })
        .collect()
}

/// Realises `ops[..k]` + halt as an ISA-A program.
fn isa_a_program(ops: &[Op], k: usize) -> Program {
    const ALU: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
    ];
    let mut asm = Asm::new("prop-a");
    for op in &ops[..k] {
        match *op {
            Op::Li { rd, imm } => {
                asm.li(Reg(rd), i64::from(imm));
            }
            Op::Alu { kind, rd, rs1, rs2 } => {
                asm.alu(ALU[kind as usize], Reg(rd), Reg(rs1), Reg(rs2));
            }
            Op::Mov { rd, rs } => {
                asm.mov(Reg(rd), Reg(rs));
            }
            Op::Out { rs } => {
                asm.out(Reg(rs));
            }
        }
    }
    asm.halt();
    asm.finish().expect("straight-line code resolves")
}

fn check_monotone_and_unit_identity(programs: &[Program], label: &str) {
    let cfg = ExecConfig::default();
    let models: [&dyn CycleModel; 2] = [&UnitCost, &InOrderCost::default()];
    for (m, model) in models.iter().enumerate() {
        let mut prev_cycles = 0u64;
        for (k, p) in programs.iter().enumerate() {
            let (result, profile) = match m {
                0 => try_profile(p, &[], &cfg, UnitCost).expect("well-formed"),
                _ => try_profile(p, &[], &cfg, InOrderCost::default()).expect("well-formed"),
            };
            assert!(
                result.status.is_clean(),
                "{label}: trap-free generator produced a dirty run at k={k}"
            );
            assert!(
                profile.total_cycles >= prev_cycles,
                "{label}/{}: adding instructions decreased total cycles at k={k} \
                 ({prev_cycles} -> {})",
                model.name(),
                profile.total_cycles,
            );
            prev_cycles = profile.total_cycles;
            // Unit cost: exactly one cycle per retired instruction.
            if m == 0 {
                assert_eq!(
                    profile.total_cycles, result.dyn_instrs,
                    "{label}: unit-cost total diverged from retired count at k={k}"
                );
                assert_eq!(profile.retired, result.dyn_instrs);
            }
        }
    }
}

#[test]
fn costs_are_monotone_and_unit_cost_counts_retirements_isa_a() {
    let mut rng = Rng(0x005E_ED0A);
    for _ in 0..8 {
        let ops = random_ops(&mut rng, 40);
        let programs: Vec<Program> = (0..=ops.len())
            .step_by(5)
            .map(|k| isa_a_program(&ops, k))
            .collect();
        check_monotone_and_unit_identity(&programs, "ISA-A");
    }
}
