//! Programs on the wire: both protocols that ship a program — a `GLVSRV02`
//! raw predict request and a `GLVCMP01` welcome — carry it through the one
//! codec of `glaive-wire`, and must hand back an equal [`Program`] for
//! random programs over every instruction form.

use glaive_campaign::protocol::{CampaignJob, ToWorker};
use glaive_isa::{AluOp, BranchCond, CvtOp, FpuOp, FpuUnaryOp, Instr, Program, Reg, NUM_REGS};
use glaive_serve::protocol::{ProgramSpec, Request};

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

    /// An instruction of form `form` (0..13); targets stay within `0..=len`.
    fn instr(&mut self, form: u64, len: usize) -> Instr {
        let target = self.below(len as u64 + 1) as usize;
        match form {
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
                offset: self.next() as i64,
            },
            8 => Instr::Store {
                rs: self.reg(),
                base: self.reg(),
                offset: self.next() as i64,
            },
            9 => Instr::Branch {
                cond: self.pick(&BranchCond::ALL),
                rs1: self.reg(),
                rs2: self.reg(),
                target,
            },
            10 => Instr::Jump { target },
            11 => Instr::Out { rs1: self.reg() },
            _ => Instr::Halt,
        }
    }

    /// A program of 1..=64 instructions that uses every form once it is
    /// long enough.
    fn program(&mut self, k: u64) -> Program {
        let len = 1 + self.below(64) as usize;
        let instrs = (0..len)
            .map(|pc| {
                let form = if len >= 13 {
                    pc as u64 % 13
                } else {
                    self.below(13)
                };
                self.instr(form, len)
            })
            .collect();
        let mem_words = self.below(1 << 20) as usize;
        Program::try_new(format!("wire-é-{k}"), instrs, mem_words).expect("targets in range")
    }
}

#[test]
fn programs_roundtrip_through_both_protocols() {
    let mut rng = Rng(0x5eed);
    for k in 0..512 {
        let program = rng.program(k);
        let request = Request::Predict {
            spec: ProgramSpec::Raw(program.clone()),
            stride: 8,
            top_k: 4,
            want_bits: k % 2 == 0,
        };
        let served = match Request::from_frame(request.to_frame().bytes()) {
            Ok(Request::Predict {
                spec: ProgramSpec::Raw(p),
                ..
            }) => p,
            other => panic!("program {k}: {other:?}"),
        };
        assert_eq!(served, program, "GLVSRV02 program {k}");
        let welcome = ToWorker::Welcome(CampaignJob {
            fingerprint: rng.next(),
            total: rng.next(),
            program: program.clone(),
            init_mem: vec![rng.next(); k as usize % 5],
            bit_stride: 8,
            instances_per_site: 1,
            hang_factor: 4,
            predict_dead_defs: k % 3 == 0,
        });
        let shipped = match ToWorker::from_frame(welcome.to_frame().bytes()) {
            Ok(ToWorker::Welcome(job)) => job.program,
            other => panic!("program {k}: {other:?}"),
        };
        assert_eq!(shipped, program, "GLVCMP01 program {k}");
    }
}
