//! Property-based tests for instruction encoding and operand accessors,
//! driven by a deterministic inline RNG so the suite builds offline with
//! no external crates.

use glaive_isa::{
    AluOp, BranchCond, CvtOp, Flow, FpuOp, FpuUnaryOp, Instr, MachineState, Op, Reg, Step, Trap,
    NUM_REGS,
};

const CASES: u64 = 4096;

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

    fn reg(&mut self) -> Reg {
        Reg(self.below(NUM_REGS as u64) as u8)
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len() as u64) as usize]
    }

    /// A uniformly chosen well-formed instruction.
    fn instr(&mut self) -> Instr {
        match self.below(13) {
            0 => Instr::Alu {
                op: self.pick(&AluOp::ALL),
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            1 => Instr::AluImm {
                op: self.pick(&AluOp::ALL),
                rd: self.reg(),
                rs1: self.reg(),
                imm: self.next() as i64,
            },
            2 => Instr::Fpu {
                op: self.pick(&FpuOp::ALL),
                rd: self.reg(),
                rs1: self.reg(),
                rs2: self.reg(),
            },
            3 => Instr::FpuUnary {
                op: self.pick(&FpuUnaryOp::ALL),
                rd: self.reg(),
                rs1: self.reg(),
            },
            4 => Instr::Cvt {
                op: self.pick(&CvtOp::ALL),
                rd: self.reg(),
                rs1: self.reg(),
            },
            5 => Instr::Li {
                rd: self.reg(),
                imm: self.next() as i64,
            },
            6 => Instr::Mov {
                rd: self.reg(),
                rs1: self.reg(),
            },
            7 => Instr::Load {
                rd: self.reg(),
                base: self.reg(),
                offset: self.below(2048) as i64 - 1024,
            },
            8 => Instr::Store {
                rs: self.reg(),
                base: self.reg(),
                offset: self.below(2048) as i64 - 1024,
            },
            9 => Instr::Branch {
                cond: self.pick(&BranchCond::ALL),
                rs1: self.reg(),
                rs2: self.reg(),
                target: self.below(4096) as usize,
            },
            10 => Instr::Jump {
                target: self.below(4096) as usize,
            },
            11 => Instr::Out { rs1: self.reg() },
            _ => Instr::Halt,
        }
    }
}

/// encode → decode is the identity on all well-formed instructions.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = Rng(1);
    for _ in 0..CASES {
        let instr = rng.instr();
        let decoded = Instr::decode(&instr.encode()).expect("well-formed");
        assert_eq!(decoded, instr);
    }
}

/// Flipping any single bit of any encoding must yield either a typed decode
/// error or another well-formed instruction — never a panic, and never an
/// instruction whose own encoding fails to round-trip.
#[test]
fn every_single_bit_flip_is_handled() {
    let mut rng = Rng(7);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for _ in 0..CASES {
        let bytes = rng.instr().encode();
        for bit in 0..bytes.len() * 8 {
            let mut evil = bytes;
            evil[bit / 8] ^= 1 << (bit % 8);
            match Instr::decode(&evil) {
                Ok(mutant) => {
                    accepted += 1;
                    assert_eq!(
                        Instr::decode(&mutant.encode()),
                        Ok(mutant),
                        "accepted mutant is not an encode/decode fixed point"
                    );
                }
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}

/// Every operand reported by defs()/uses() is a valid register, and
/// operands() is exactly uses() followed by defs().
#[test]
fn operands_are_valid_and_ordered() {
    let mut rng = Rng(2);
    for _ in 0..CASES {
        let instr = rng.instr();
        for r in instr.defs().iter().chain(instr.uses().iter()) {
            assert!(r.is_valid());
        }
        let mut expect = instr.uses();
        expect.extend(instr.defs());
        assert_eq!(instr.operands(), expect);
    }
}

/// At most one destination register per instruction in this ISA.
#[test]
fn at_most_one_def() {
    let mut rng = Rng(3);
    for _ in 0..CASES {
        assert!(rng.instr().defs().len() <= 1);
    }
}

/// Control instructions never write registers.
#[test]
fn control_instrs_define_nothing() {
    let mut rng = Rng(4);
    for _ in 0..CASES {
        let instr = rng.instr();
        if instr.flow() != Flow::Fallthrough {
            assert!(instr.defs().is_empty());
        }
    }
}

/// Disassembly text is non-empty and stable under re-format.
#[test]
fn display_is_nonempty() {
    let mut rng = Rng(5);
    for _ in 0..CASES {
        let instr = rng.instr();
        let s = instr.to_string();
        assert!(!s.is_empty());
        assert_eq!(s, instr.to_string());
    }
}

/// A lowered branch is taken exactly when the Rust comparison it models
/// holds.
#[test]
fn branch_eval_matches_semantics() {
    let taken = |cond, a, b| {
        let mut state = MachineState::new(NUM_REGS, vec![]);
        (state.regs[1], state.regs[2]) = (a, b);
        let br = Instr::Branch {
            cond,
            rs1: Reg(1),
            rs2: Reg(2),
            target: 7,
        };
        Op::lower(&br).execute(&mut state) == Ok(Step::Goto(7))
    };
    let mut rng = Rng(6);
    for _ in 0..CASES {
        let (a, b) = (rng.next(), rng.next());
        assert_eq!(taken(BranchCond::Eq, a, b), a == b);
        assert_eq!(taken(BranchCond::Ne, a, b), a != b);
        assert_eq!(taken(BranchCond::Lt, a, b), (a as i64) < (b as i64));
        assert_eq!(taken(BranchCond::Ge, a, b), (a as i64) >= (b as i64));
        assert_eq!(taken(BranchCond::Le, a, b), (a as i64) <= (b as i64));
        assert_eq!(taken(BranchCond::Gt, a, b), (a as i64) > (b as i64));
        assert_eq!(taken(BranchCond::Ltu, a, b), a < b);
        assert_eq!(taken(BranchCond::Geu, a, b), a >= b);
    }
}

/// The analyses' static view of an instruction — its `defs`, `flow` and
/// `mem_access` — agrees with what the executor does with it, on random
/// machine states where half the registers hold in-bounds addresses.
#[test]
fn static_facts_agree_with_execution() {
    const MEM_WORDS: u64 = 4096;
    let mut rng = Rng(8);
    let image: Vec<u64> = (0..MEM_WORDS).map(|_| rng.next()).collect();
    for _ in 0..4 * CASES {
        let instr = rng.instr();
        let mut state = MachineState::new(NUM_REGS, image.clone());
        for r in &mut state.regs {
            *r = if rng.below(2) == 0 {
                rng.below(MEM_WORDS)
            } else {
                rng.next()
            };
        }
        let before = state.clone();
        let step = Op::lower(&instr).execute(&mut state);

        let defs = instr.defs();
        for (r, (now, was)) in state.regs.iter().zip(&before.regs).enumerate() {
            assert!(
                now == was || defs.contains(&Reg(r as u8)),
                "{instr} wrote r{r}"
            );
        }
        let flow = instr.flow();
        assert_eq!(step == Ok(Step::Halt), flow == Flow::Halt, "{instr}");
        match step {
            Ok(Step::Goto(t)) => {
                assert!(flow == Flow::Jump(t) || flow == Flow::Branch(t), "{instr}");
            }
            Ok(Step::Next) => {
                assert!(
                    matches!(flow, Flow::Fallthrough | Flow::Branch(_)),
                    "{instr}"
                );
            }
            _ => {}
        }
        let store = instr.mem_access().map(|m| m.is_store);
        if state.mem != before.mem || !state.write_log().is_empty() {
            assert_eq!(store, Some(true), "{instr} wrote memory");
        }
        if store == Some(true) && step.is_ok() {
            assert_eq!(state.write_log().len(), 1, "{instr} stored without logging");
        }
        match step {
            Err(Trap::OutOfBoundsLoad { .. }) => assert_eq!(store, Some(false), "{instr}"),
            Err(Trap::OutOfBoundsStore { .. }) => assert_eq!(store, Some(true), "{instr}"),
            _ => {}
        }
        let printed = state.output.len() - before.output.len();
        assert_eq!(
            printed,
            usize::from(matches!(instr, Instr::Out { .. })),
            "{instr}"
        );
    }
}
