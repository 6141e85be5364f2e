//! Graphviz DOT export of the instruction-level CDFG (the intermediate
//! graph of Fig. 3a/3b before operand expansion), for visual inspection of
//! the dependences feeding bit-level construction.

use std::fmt::Write as _;

use glaive_isa::Program;

use crate::analysis::{control_deps, def_use_chains, memory_deps};

/// Renders the instruction-level CDFG of `program` as Graphviz DOT.
///
/// Nodes are instructions (labelled `pc: disasm`); edges are coloured by
/// dependence kind: black = data (`D_D`), blue = control (`D_C`),
/// red = memory (`D_M`).
///
/// # Example
///
/// ```
/// use glaive_isa::{Asm, Reg, AluOp};
/// let mut asm = Asm::new("t");
/// asm.li(Reg(1), 2);
/// asm.alu(AluOp::Add, Reg(2), Reg(1), Reg(1));
/// asm.out(Reg(2));
/// asm.halt();
/// let p = asm.finish()?;
/// let dot = glaive_cdfg::instruction_dot(&p);
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("li r1, 2"));
/// # Ok::<(), glaive_isa::AsmError>(())
/// ```
pub fn instruction_dot(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", program.name());
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  node [shape=box, fontname=\"monospace\", fontsize=10];"
    );
    for (pc, instr) in program.instrs().iter().enumerate() {
        let label = format!("{pc}: {instr}").replace('"', "\\\"");
        let _ = writeln!(out, "  n{pc} [label=\"{label}\"];");
    }
    // Data dependences, deduplicated across use slots.
    let mut data_edges: Vec<(usize, usize)> = def_use_chains(program)
        .iter()
        .map(|e| (e.def_pc, e.use_pc))
        .collect();
    data_edges.sort_unstable();
    data_edges.dedup();
    for (from, to) in data_edges {
        let _ = writeln!(out, "  n{from} -> n{to};");
    }
    for (from, to) in control_deps(program) {
        let _ = writeln!(out, "  n{from} -> n{to} [color=blue, style=dashed];");
    }
    for (from, to) in memory_deps(program) {
        let _ = writeln!(out, "  n{from} -> n{to} [color=red];");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_isa::{Asm, BranchCond, Reg};

    #[test]
    fn dot_contains_all_nodes_and_edge_kinds() {
        let mut asm = Asm::new("dot");
        asm.set_mem_words(8);
        let end = asm.label();
        asm.li(Reg(1), 0); // 0
        asm.store(Reg(1), Reg(1), 2); // 1
        asm.load(Reg(2), Reg(1), 2); // 2
        asm.branch(BranchCond::Eq, Reg(2), Reg(1), end); // 3
        asm.out(Reg(2)); // 4 (guarded)
        asm.bind(end);
        asm.halt(); // 5
        let p = asm.finish().expect("resolves");
        let dot = instruction_dot(&p);
        for pc in 0..p.len() {
            assert!(dot.contains(&format!("n{pc} [label=")), "node {pc} missing");
        }
        assert!(dot.contains("color=red"), "memory edge rendered");
        assert!(dot.contains("color=blue"), "control edge rendered");
        assert!(dot.contains("n1 -> n2 [color=red]"), "store→load edge");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn quotes_in_labels_are_escaped() {
        // No instruction prints quotes today, but the escape must hold.
        let mut asm = Asm::new("q");
        asm.halt();
        let p = asm.finish().expect("resolves");
        let dot = instruction_dot(&p);
        assert!(!dot.contains("\"\"halt"));
    }
}
