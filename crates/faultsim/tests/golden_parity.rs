//! Golden parity: campaign fingerprints, GLVFIT01 bytes and Table-I
//! feature vectors of two fixed programs, pinned by hashes captured
//! before the simulator, fault-injection and CDFG layers were first
//! refactored. Any change to those artifacts fails this suite — the
//! contract every refactor of those layers must uphold: different code,
//! identical artifacts.

use glaive_cdfg::{Cdfg, CdfgConfig};
use glaive_faultsim::{Campaign, CampaignConfig};
use glaive_isa::{AluOp, Asm, BranchCond, CvtOp, FpuOp, FpuUnaryOp, Program, Reg};

/// FNV-1a, restated locally so the expectation is independent of the crate
/// internals it checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn f32s_to_bytes(xs: &[f32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// A small program that touches every instruction kind of the ISA: integer
/// ALU (reg and imm forms), FPU binary/unary, conversions, li/mov,
/// load/store, forward and backward branches, jump, out, halt.
fn kitchen_sink() -> Program {
    let mut asm = Asm::new("kitchen-sink");
    asm.set_mem_words(16);
    let skip = asm.label();
    let top = asm.label();
    asm.li(Reg(1), 5); // 0
    asm.li(Reg(2), 3); // 1
    asm.alu(AluOp::Add, Reg(3), Reg(1), Reg(2)); // 2
    asm.alu_imm(AluOp::Mul, Reg(4), Reg(3), 7); // 3
    asm.li_f(Reg(5), 2.5); // 4
    asm.cvt(CvtOp::IntToFloat, Reg(6), Reg(4)); // 5
    asm.fpu(FpuOp::FMul, Reg(7), Reg(5), Reg(6)); // 6
    asm.fpu_unary(FpuUnaryOp::FSqrt, Reg(8), Reg(7)); // 7
    asm.cvt(CvtOp::FloatToInt, Reg(9), Reg(8)); // 8
    asm.mov(Reg(10), Reg(9)); // 9
    asm.li(Reg(11), 0); // 10
    asm.store(Reg(10), Reg(11), 4); // 11
    asm.load(Reg(12), Reg(11), 4); // 12
    asm.branch(BranchCond::Gt, Reg(12), Reg(1), skip); // 13
    asm.out(Reg(1)); // 14 (guarded)
    asm.bind(skip);
    asm.li(Reg(13), 0); // 15
    asm.bind(top);
    asm.alu_imm(AluOp::Add, Reg(13), Reg(13), 1); // 16
    asm.branch(BranchCond::Lt, Reg(13), Reg(2), top); // 17
    asm.out(Reg(12)); // 18
    asm.jump(skip); // 19 — backward jump exercised? no: skip < 19, backward
    asm.finish().expect("labels resolve")
}

/// Loop-free exit for the kitchen sink: the jump at 19 targets pc 15, which
/// re-runs the counter loop forever — so campaigns use a bounded variant.
fn bounded_sink() -> Program {
    let mut asm = Asm::new("bounded-sink");
    asm.set_mem_words(16);
    let top = asm.label();
    asm.li(Reg(1), 5);
    asm.li(Reg(2), 3);
    asm.alu(AluOp::Add, Reg(3), Reg(1), Reg(2));
    asm.alu_imm(AluOp::Mul, Reg(4), Reg(3), 7);
    asm.li_f(Reg(5), 2.5);
    asm.cvt(CvtOp::IntToFloat, Reg(6), Reg(4));
    asm.fpu(FpuOp::FMul, Reg(7), Reg(5), Reg(6));
    asm.fpu_unary(FpuUnaryOp::FSqrt, Reg(8), Reg(7));
    asm.cvt(CvtOp::FloatToInt, Reg(9), Reg(8));
    asm.mov(Reg(10), Reg(9));
    asm.li(Reg(11), 0);
    asm.store(Reg(10), Reg(11), 4);
    asm.load(Reg(12), Reg(11), 4);
    asm.li(Reg(13), 0);
    asm.bind(top);
    asm.alu_imm(AluOp::Add, Reg(13), Reg(13), 1);
    asm.branch(BranchCond::Lt, Reg(13), Reg(2), top);
    asm.out(Reg(12));
    asm.out(Reg(13));
    asm.halt();
    asm.finish().expect("labels resolve")
}

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        bit_stride: 8,
        instances_per_site: 2,
        hang_factor: 4,
        threads: 1,
        predict_dead_defs: true,
    }
}

/// Campaign fingerprint of the bounded kitchen-sink program, captured
/// pre-refactor. The fingerprint preimage includes every encoded
/// instruction, so it also pins the instruction encoding.
#[test]
fn campaign_fingerprint_is_stable() {
    let p = bounded_sink();
    let campaign = Campaign::try_new(&p, &[1, 2, 3], campaign_config()).expect("valid config");
    let plan = campaign.plan().expect("clean golden run");
    assert_eq!(
        plan.fingerprint, GOLDEN_FINGERPRINT,
        "campaign fingerprint drifted"
    );
}

/// GLVFIT01 serialisation of the full ground truth, captured pre-refactor.
#[test]
fn glvfit01_bytes_are_stable() {
    let p = bounded_sink();
    let truth = Campaign::try_new(&p, &[1, 2, 3], campaign_config())
        .expect("valid config")
        .run();
    let bytes = truth.to_bytes();
    assert_eq!(fnv1a(&bytes), GOLDEN_TRUTH_HASH, "GLVFIT01 bytes drifted");
    assert_eq!(bytes.len(), GOLDEN_TRUTH_LEN, "GLVFIT01 length drifted");
}

/// Table-I feature matrix (bit-level) and instruction-level features,
/// captured pre-refactor. Uses the branch-heavy kitchen-sink program so the
/// D_D/D_C/D_M analyses all contribute edges.
#[test]
fn table_i_features_are_stable() {
    let p = kitchen_sink();
    for (stride, expect_feat, expect_edges) in GOLDEN_FEATURES {
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: stride });
        let m = g.feature_matrix();
        assert_eq!(
            fnv1a(&f32s_to_bytes(&m)),
            expect_feat,
            "feature matrix drifted at stride {stride}"
        );
        assert_eq!(
            g.edge_count(),
            expect_edges,
            "edge count drifted at stride {stride}"
        );
    }
    let instr = glaive_cdfg::instruction_features(&p);
    assert_eq!(fnv1a(&f32s_to_bytes(&instr)), GOLDEN_INSTR_FEATURES);
}

/// Golden values captured from the pre-trait implementation. Regenerate by
/// running this test with `GOLDEN_PRINT=1` and copying the printed values —
/// but only if the drift is *intentional* (a format version bump).
const GOLDEN_FINGERPRINT: u64 = 0x63b1_b93e_a5b3_d13f;
const GOLDEN_TRUTH_HASH: u64 = 0x0c6c_630f_0b6e_ecf7;
const GOLDEN_TRUTH_LEN: usize = 7805;
const GOLDEN_INSTR_FEATURES: u64 = 0x1d62_5004_c8b7_90f5;
const GOLDEN_FEATURES: [(usize, u64, usize); 3] = [
    (8, 0xc588_5380_376a_21a5, 888),
    (16, 0x181d_4be5_c23f_c165, 268),
    (64, 0xac55_56f5_e682_aa35, 34),
];

#[test]
fn print_golden_values() {
    if std::env::var("GOLDEN_PRINT").is_err() {
        return;
    }
    let p = bounded_sink();
    let campaign = Campaign::try_new(&p, &[1, 2, 3], campaign_config()).expect("valid config");
    let plan = campaign.plan().expect("clean golden");
    let truth = campaign.run();
    let bytes = truth.to_bytes();
    println!("GOLDEN_FINGERPRINT: u64 = {:#x}", plan.fingerprint);
    println!("GOLDEN_TRUTH_HASH: u64 = {:#x}", fnv1a(&bytes));
    println!("GOLDEN_TRUTH_LEN: usize = {}", bytes.len());
    let ks = kitchen_sink();
    for stride in [8usize, 16, 64] {
        let g = Cdfg::build(&ks, &CdfgConfig { bit_stride: stride });
        println!(
            "stride {stride}: feat {:#x} edges {}",
            fnv1a(&f32s_to_bytes(&g.feature_matrix())),
            g.edge_count()
        );
    }
    println!(
        "GOLDEN_INSTR_FEATURES: u64 = {:#x}",
        fnv1a(&f32s_to_bytes(&glaive_cdfg::instruction_features(&ks)))
    );
}
