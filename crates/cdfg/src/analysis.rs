//! Instruction-level static analyses feeding CDFG construction: control-flow
//! graph, reaching definitions (def-use chains), simplified control
//! dependence, and offset-class memory dependence.

use glaive_isa::{Flow, Program, Reg};

/// Control-flow successors of every instruction. The program-exit successor
/// (index `program.len()`) is omitted.
pub fn cfg_successors(program: &Program) -> Vec<Vec<usize>> {
    let n = program.len();
    program
        .instrs()
        .iter()
        .enumerate()
        .map(|(pc, instr)| match instr.flow() {
            Flow::Halt => Vec::new(),
            Flow::Jump(target) => {
                if target < n {
                    vec![target]
                } else {
                    Vec::new()
                }
            }
            Flow::Branch(target) => {
                let mut s = Vec::new();
                if pc + 1 < n {
                    s.push(pc + 1);
                }
                if target < n && target != pc + 1 {
                    s.push(target);
                }
                s
            }
            Flow::Fallthrough => {
                if pc + 1 < n {
                    vec![pc + 1]
                } else {
                    Vec::new()
                }
            }
        })
        .collect()
}

/// A register def-use chain edge: the value defined at `def_pc` may be read
/// by `use_pc` through register `reg` (use slot `use_slot`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefUse {
    /// Defining instruction.
    pub def_pc: usize,
    /// Consuming instruction.
    pub use_pc: usize,
    /// The register carrying the value.
    pub reg: Reg,
    /// Index into `uses()` of the consuming instruction.
    pub use_slot: usize,
}

/// Computes def-use chains via iterative reaching-definitions dataflow.
pub fn def_use_chains(program: &Program) -> Vec<DefUse> {
    let n = program.len();
    let succs = cfg_successors(program);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (pc, ss) in succs.iter().enumerate() {
        for &s in ss {
            preds[s].push(pc);
        }
    }

    // Enumerate definition sites.
    let mut def_site: Vec<Option<(usize, Reg)>> = Vec::new(); // def id -> (pc, reg)
    let mut defs_at: Vec<Option<usize>> = vec![None; n]; // pc -> def id
    for (pc, instr) in program.instrs().iter().enumerate() {
        if let Some(&reg) = instr.defs().first() {
            defs_at[pc] = Some(def_site.len());
            def_site.push(Some((pc, reg)));
        }
    }
    let num_defs = def_site.len();
    let words = num_defs.div_ceil(64);
    // Defs per register, for the kill set.
    let mut defs_of_reg: Vec<Vec<usize>> = vec![Vec::new(); glaive_isa::NUM_REGS];
    for (id, site) in def_site.iter().enumerate() {
        let (_, reg) = site.expect("populated above");
        defs_of_reg[reg.index()].push(id);
    }

    // IN/OUT bitsets over def ids.
    let mut in_sets = vec![vec![0u64; words]; n];
    let mut out_sets = vec![vec![0u64; words]; n];
    let mut changed = true;
    while changed {
        changed = false;
        for pc in 0..n {
            // IN = union of predecessor OUTs.
            let mut inset = vec![0u64; words];
            for &p in &preds[pc] {
                for (w, &bits) in out_sets[p].iter().enumerate() {
                    inset[w] |= bits;
                }
            }
            // OUT = (IN - kill) | gen.
            let mut outset = inset.clone();
            if let Some(def_id) = defs_at[pc] {
                let (_, reg) = def_site[def_id].expect("populated");
                for &k in &defs_of_reg[reg.index()] {
                    outset[k / 64] &= !(1u64 << (k % 64));
                }
                outset[def_id / 64] |= 1u64 << (def_id % 64);
            }
            if inset != in_sets[pc] || outset != out_sets[pc] {
                in_sets[pc] = inset;
                out_sets[pc] = outset;
                changed = true;
            }
        }
    }

    // Emit def-use edges: defs of r reaching pc, for each use of r at pc.
    let mut edges = Vec::new();
    for (pc, instr) in program.instrs().iter().enumerate() {
        for (slot, &reg) in instr.uses().iter().enumerate() {
            for &def_id in &defs_of_reg[reg.index()] {
                if in_sets[pc][def_id / 64] >> (def_id % 64) & 1 == 1 {
                    let (def_pc, _) = def_site[def_id].expect("populated");
                    edges.push(DefUse {
                        def_pc,
                        use_pc: pc,
                        reg,
                        use_slot: slot,
                    });
                }
            }
        }
    }
    edges
}

/// Simplified control dependences: for every *forward* conditional branch
/// `b → t`, the instructions strictly between `b` and `t` execute only if
/// the branch falls through, so they are control-dependent on `b`.
///
/// This captures the then-side of `if` and the bodies of structured loops
/// produced by the `glaive-lang` code generator; else-sides reached via the
/// taken edge are approximated away (documented deviation from full
/// post-dominance-frontier control dependence).
pub fn control_deps(program: &Program) -> Vec<(usize, usize)> {
    let mut deps = Vec::new();
    for (pc, instr) in program.instrs().iter().enumerate() {
        if let Flow::Branch(target) = instr.flow() {
            if target > pc + 1 {
                for dep in pc + 1..target.min(program.len()) {
                    deps.push((pc, dep));
                }
            }
        }
    }
    deps
}

/// Memory dependences: store → load pairs that share an offset alias class
/// and where the load is CFG-reachable from the store.
///
/// The code generator addresses arrays as `mem[index_reg + array_base]` and
/// spill slots as `mem[zero_reg + slot]`, so instructions with equal offset
/// constants access the same array or slot — equal offsets form the static
/// alias classes.
pub fn memory_deps(program: &Program) -> Vec<(usize, usize)> {
    let n = program.len();
    let succs = cfg_successors(program);
    let stores: Vec<(usize, i64)> = program
        .instrs()
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| match i.mem_access() {
            Some(m) if m.is_store => Some((pc, m.alias)),
            _ => None,
        })
        .collect();
    let loads: Vec<(usize, i64)> = program
        .instrs()
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| match i.mem_access() {
            Some(m) if !m.is_store => Some((pc, m.alias)),
            _ => None,
        })
        .collect();

    let mut deps = Vec::new();
    for &(spc, soff) in &stores {
        // BFS reachability from the store.
        let mut reach = vec![false; n];
        let mut queue = vec![spc];
        while let Some(pc) = queue.pop() {
            for &s in &succs[pc] {
                if !reach[s] {
                    reach[s] = true;
                    queue.push(s);
                }
            }
        }
        for &(lpc, loff) in &loads {
            if loff == soff && reach[lpc] {
                deps.push((spc, lpc));
            }
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_isa::{AluOp, Asm, BranchCond};

    fn sum_program() -> Program {
        let mut asm = Asm::new("sum");
        let (acc, i, one, lim) = (Reg(1), Reg(2), Reg(3), Reg(4));
        asm.li(acc, 0); // 0
        asm.li(i, 1); // 1
        asm.li(one, 1); // 2
        asm.li(lim, 10); // 3
        let top = asm.label();
        asm.bind(top);
        asm.alu(AluOp::Add, acc, acc, i); // 4
        asm.alu(AluOp::Add, i, i, one); // 5
        asm.branch(BranchCond::Le, i, lim, top); // 6
        asm.out(acc); // 7
        asm.halt(); // 8
        asm.finish().expect("resolves")
    }

    #[test]
    fn cfg_shapes() {
        let p = sum_program();
        let s = cfg_successors(&p);
        assert_eq!(s[0], vec![1]);
        assert_eq!(s[6], vec![7, 4]); // fallthrough + backward target
        assert!(s[8].is_empty()); // halt
    }

    #[test]
    fn def_use_tracks_loop_carried_values() {
        let p = sum_program();
        let chains = def_use_chains(&p);
        // Every path to the out (pc 7) passes through the add at pc 4, so
        // the initial def at pc 0 is killed and only pc 4 reaches it.
        let acc_defs: Vec<usize> = chains
            .iter()
            .filter(|e| e.use_pc == 7)
            .map(|e| e.def_pc)
            .collect();
        assert_eq!(acc_defs, vec![4]);
        // acc at the add itself (pc 4, slot 0) is loop-carried: both the
        // initial def (pc 0) and its own previous iteration (pc 4) reach it.
        let acc_add_defs: Vec<usize> = chains
            .iter()
            .filter(|e| e.use_pc == 4 && e.use_slot == 0)
            .map(|e| e.def_pc)
            .collect();
        assert!(acc_add_defs.contains(&0));
        assert!(acc_add_defs.contains(&4));
        // i at the add (pc 4, slot 1) comes from pc 1 and pc 5.
        let i_defs: Vec<usize> = chains
            .iter()
            .filter(|e| e.use_pc == 4 && e.use_slot == 1)
            .map(|e| e.def_pc)
            .collect();
        assert!(i_defs.contains(&1));
        assert!(i_defs.contains(&5));
    }

    #[test]
    fn redefinition_kills_earlier_def() {
        let mut asm = Asm::new("kill");
        asm.li(Reg(1), 1); // 0
        asm.li(Reg(1), 2); // 1 kills 0
        asm.out(Reg(1)); // 2
        asm.halt();
        let p = asm.finish().expect("resolves");
        let chains = def_use_chains(&p);
        let defs: Vec<usize> = chains
            .iter()
            .filter(|e| e.use_pc == 2)
            .map(|e| e.def_pc)
            .collect();
        assert_eq!(defs, vec![1]);
    }

    #[test]
    fn control_deps_cover_forward_branch_body() {
        let mut asm = Asm::new("if");
        let end = asm.label();
        asm.li(Reg(1), 0); // 0
        asm.branch(BranchCond::Ne, Reg(1), Reg(1), end); // 1
        asm.li(Reg(2), 1); // 2 (guarded)
        asm.li(Reg(3), 2); // 3 (guarded)
        asm.bind(end);
        asm.out(Reg(1)); // 4
        asm.halt();
        let p = asm.finish().expect("resolves");
        let deps = control_deps(&p);
        assert!(deps.contains(&(1, 2)));
        assert!(deps.contains(&(1, 3)));
        assert!(!deps.contains(&(1, 4)));
    }

    #[test]
    fn backward_branches_add_no_control_deps() {
        let p = sum_program();
        let deps = control_deps(&p);
        assert!(
            deps.iter().all(|&(b, _)| b != 6),
            "backward loop branch excluded"
        );
    }

    #[test]
    fn memory_deps_respect_alias_classes_and_reachability() {
        let mut asm = Asm::new("mem");
        asm.set_mem_words(16);
        asm.li(Reg(1), 0); // 0
        asm.store(Reg(1), Reg(1), 4); // 1: class 4
        asm.store(Reg(1), Reg(1), 8); // 2: class 8
        asm.load(Reg(2), Reg(1), 4); // 3: class 4
        asm.load(Reg(3), Reg(1), 8); // 4: class 8
        asm.halt();
        let p = asm.finish().expect("resolves");
        let deps = memory_deps(&p);
        assert!(deps.contains(&(1, 3)));
        assert!(deps.contains(&(2, 4)));
        assert!(!deps.contains(&(1, 4)));
        assert!(!deps.contains(&(2, 3)));
    }

    #[test]
    fn load_before_store_is_not_dependent() {
        let mut asm = Asm::new("order");
        asm.set_mem_words(8);
        asm.li(Reg(1), 0);
        asm.load(Reg(2), Reg(1), 4); // 1: load first
        asm.store(Reg(2), Reg(1), 4); // 2: store after
        asm.halt();
        let p = asm.finish().expect("resolves");
        let deps = memory_deps(&p);
        assert!(!deps.contains(&(2, 1)));
    }
}
