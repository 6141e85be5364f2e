//! Golden traces: snapshots of one fault-free run, from which a reused
//! machine replays each fault starting at the last snapshot before it
//! fires, and stops as soon as the faulty state equals golden again.
//!
//! A snapshot is taken every [`MIN_INTERVAL`] retired instructions. A
//! golden run longer than `MIN_INTERVAL × MAX_SNAPSHOTS` instructions is
//! recorded once more at an interval of `ceil(golden_len / MAX_SNAPSHOTS)`,
//! so a trace never holds more than [`MAX_SNAPSHOTS`] snapshots. DESIGN.md
//! §3 states the equality rule and why an early Masked is the outcome a
//! replay from instruction 0 reports.

use glaive_isa::{Program, NUM_REGS};

use crate::fault::FaultSpec;
use crate::machine::{ExecConfig, MachineError, RunResult, Simulator};
use crate::outcome::{classify_exit, Outcome};

/// Retired instructions between snapshots of a short golden run.
const MIN_INTERVAL: u64 = 256;
/// The most snapshots one trace holds, the initial state included.
const MAX_SNAPSHOTS: usize = 64;

/// Golden state after `j × interval` retired instructions.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    pc: usize,
    out_len: usize,
    /// End of this snapshot's memory diff in [`GoldenTrace::writes`].
    writes_end: usize,
}

/// One memory word the golden run wrote between a snapshot and the one
/// before it.
#[derive(Debug, Clone, Copy)]
struct Write {
    addr: usize,
    /// Golden value at the earlier snapshot.
    before: u64,
    /// Golden value at the later snapshot.
    after: u64,
}

/// One fault-free run of a program on an input image, kept as periodic
/// snapshots — PC, registers, retired count, per-PC execution counts,
/// output length, and the memory words written since the previous
/// snapshot — plus the golden output.
///
/// [`GoldenTrace::outcome`] classifies a fault exactly as
/// [`classify`](crate::classify) of [`run_with_fault`](crate::run_with_fault)
/// does, on one machine reused from fault to fault.
#[derive(Debug, Clone)]
pub struct GoldenTrace {
    /// Retired instructions between snapshots: snapshot `j` is taken after
    /// `j × interval`.
    interval: u64,
    snaps: Vec<Snapshot>,
    /// Register files, `num_regs` words per snapshot.
    regs: Vec<u64>,
    num_regs: usize,
    /// Per-PC execution counts, `prog_len` words per snapshot.
    counts: Vec<u64>,
    prog_len: usize,
    /// Every snapshot's memory diff, in snapshot order.
    writes: Vec<Write>,
    /// The golden run's whole output.
    output: Vec<u64>,
    /// Length of a golden run that halted cleanly; `None` for any other
    /// exit, which turns early exits off.
    clean_len: Option<u64>,
    /// Words of the input image.
    init_words: usize,
}

/// What a machine keeps between the faults it replays.
#[derive(Debug, Clone)]
pub(crate) struct Shadow {
    /// Golden memory at snapshot `at`, exact on every word.
    mem: Vec<u64>,
    at: usize,
    /// The snapshot the machine was last restored to: its memory is golden
    /// memory there, except for the words in its write log.
    base: usize,
}

impl GoldenTrace {
    /// Runs `program` without a fault, as [`run`](crate::run) does, and
    /// records the run's trace.
    ///
    /// # Errors
    ///
    /// [`MachineError::InitMemTooLarge`] if `init_mem` exceeds the
    /// program's declared data memory.
    pub fn record(
        program: &Program,
        init_mem: &[u64],
        cfg: &ExecConfig,
    ) -> Result<(RunResult, GoldenTrace), MachineError> {
        let (golden, trace, complete) = Self::record_every(program, init_mem, cfg, MIN_INTERVAL)?;
        if complete {
            return Ok((golden, trace));
        }
        let interval = golden.dyn_instrs.div_ceil(MAX_SNAPSHOTS as u64);
        let (golden, trace, _) = Self::record_every(program, init_mem, cfg, interval)?;
        Ok((golden, trace))
    }

    /// One golden run with a snapshot every `interval` instructions; the
    /// flag is `false` when the run outlasted [`MAX_SNAPSHOTS`] of them, and
    /// the trace then ends at the last one.
    fn record_every(
        program: &Program,
        init_mem: &[u64],
        cfg: &ExecConfig,
        interval: u64,
    ) -> Result<(RunResult, GoldenTrace, bool), MachineError> {
        let mut sim = Simulator::try_new(program, init_mem, cfg)?;
        let mut trace = GoldenTrace {
            interval,
            snaps: Vec::new(),
            regs: Vec::new(),
            num_regs: NUM_REGS,
            counts: Vec::new(),
            prog_len: program.len(),
            writes: Vec::new(),
            output: Vec::new(),
            clean_len: None,
            init_words: init_mem.len(),
        };
        let mut complete = true;
        let status = loop {
            if trace.snaps.len() == MAX_SNAPSHOTS {
                complete = false;
                break sim.run_to_exit(&mut ());
            }
            trace.push(&mut sim);
            let pause_at = sim.dyn_instrs.saturating_add(interval);
            if let Some(status) = sim.run_until(&mut (), pause_at) {
                break status;
            }
        };
        let golden = sim.result(status);
        trace.output.clone_from(&golden.output);
        trace.clean_len = status.is_clean().then_some(golden.dyn_instrs);
        Ok((golden, trace, complete))
    }

    /// Appends the machine's state as the next snapshot; its write log
    /// becomes the snapshot's memory diff.
    fn push(&mut self, sim: &mut Simulator<'_>) {
        let state = &mut sim.state;
        self.writes
            .extend(state.write_log().iter().map(|&(addr, before)| Write {
                addr,
                before,
                after: state.mem[addr],
            }));
        state.clear_write_log();
        self.snaps.push(Snapshot {
            pc: state.pc,
            out_len: state.output.len(),
            writes_end: self.writes.len(),
        });
        self.regs.extend_from_slice(&state.regs);
        self.counts.extend_from_slice(&sim.exec_counts);
    }

    /// Number of snapshots, the initial state included; never more than
    /// 64.
    pub fn snapshots(&self) -> usize {
        self.snaps.len()
    }

    fn regs_at(&self, j: usize) -> &[u64] {
        &self.regs[j * self.num_regs..][..self.num_regs]
    }

    /// The last snapshot at which `fault`'s instruction has run at most
    /// `fault.instance` times: the latest start that still sees it fire.
    fn start_for(&self, fault: &FaultSpec) -> usize {
        if fault.pc >= self.prog_len {
            return 0; // never fires
        }
        let count = |j: usize| self.counts[j * self.prog_len + fault.pc];
        (1..self.snaps.len())
            .take_while(|&j| count(j) <= fault.instance)
            .last()
            .unwrap_or(0)
    }

    /// Moves `mem` from golden memory at snapshot `from` to golden memory
    /// at snapshot `to`, touching only the words golden wrote in between.
    fn seek(&self, mem: &mut [u64], from: usize, to: usize) {
        let end = |j: usize| self.snaps[j].writes_end;
        if from < to {
            for w in &self.writes[end(from)..end(to)] {
                mem[w.addr] = w.after;
            }
        } else {
            for w in self.writes[end(to)..end(from)].iter().rev() {
                mem[w.addr] = w.before;
            }
        }
    }

    /// Puts `sim` in the state of snapshot `to` — PC, registers, retired
    /// and per-PC counts, output and memory — and disarms its fault. Only
    /// the words written since the machine's last restore are reverted,
    /// then the golden diffs between the two snapshots are applied.
    pub(crate) fn restore(&self, sim: &mut Simulator<'_>, to: usize) {
        let state = &mut sim.state;
        for i in 0..state.write_log().len() {
            let (addr, before) = state.write_log()[i];
            state.mem[addr] = before;
        }
        state.clear_write_log();
        // On its first restore the machine now holds its input image.
        let shadow = sim.shadow.get_or_insert_with(|| {
            let n = self.init_words.min(state.mem.len());
            let mut mem = vec![0; state.mem.len()];
            mem[..n].copy_from_slice(&state.mem[..n]);
            Shadow {
                mem,
                at: 0,
                base: 0,
            }
        });
        self.seek(&mut state.mem, shadow.base, to);
        self.seek(&mut shadow.mem, shadow.at, to);
        shadow.at = to;
        shadow.base = to;
        let snap = self.snaps[to];
        state.pc = snap.pc;
        state.regs.copy_from_slice(self.regs_at(to));
        state.output.clear();
        state.output.extend_from_slice(&self.output[..snap.out_len]);
        sim.exec_counts
            .copy_from_slice(&self.counts[to * self.prog_len..][..self.prog_len]);
        sim.dyn_instrs = to as u64 * self.interval;
        sim.fault = None;
        sim.fault_fired = false;
    }

    /// Whether `sim`, paused after snapshot `j`'s retired count, is in
    /// snapshot `j`'s state: same PC, registers and output, and the same
    /// value in every word it wrote or golden wrote since its restore.
    /// Every other word still holds the restore snapshot's golden value,
    /// which golden has not changed either.
    fn converged(&self, sim: &mut Simulator<'_>, j: usize) -> bool {
        let (state, Some(shadow)) = (&sim.state, sim.shadow.as_mut()) else {
            return false;
        };
        let (snap, from) = (self.snaps[j], self.snaps[shadow.base]);
        if state.pc != snap.pc
            || state.regs[..] != *self.regs_at(j)
            || state.output.len() != snap.out_len
            || state.output[from.out_len..] != self.output[from.out_len..snap.out_len]
        {
            return false;
        }
        self.seek(&mut shadow.mem, shadow.at, j);
        shadow.at = j;
        let golden = &shadow.mem;
        state
            .write_log()
            .iter()
            .all(|&(addr, _)| state.mem[addr] == golden[addr])
            && self.writes[from.writes_end..snap.writes_end]
                .iter()
                .all(|w| state.mem[w.addr] == golden[w.addr])
    }

    /// Classifies `fault` against this golden run on `sim`: the same
    /// outcome as [`classify`](crate::classify) of the golden run and
    /// [`run_with_fault`](crate::run_with_fault) under `sim`'s budget.
    ///
    /// `sim` must be built from the program and input image this trace was
    /// recorded from, and serve no other trace. It is restored to the last
    /// snapshot before the fault fires and run from there; once the fault
    /// has fired, the run stops as Masked at the first later snapshot whose
    /// state it matches. The budget still counts from instruction 0.
    pub fn outcome(&self, sim: &mut Simulator<'_>, fault: &FaultSpec) -> Outcome {
        let start = self.start_for(fault);
        self.restore(sim, start);
        sim.arm_fault(*fault);
        // A converged run finishes as golden did: Masked, if golden halted
        // cleanly within this machine's budget.
        let early_exit = self.clean_len.is_some_and(|len| len <= sim.max_instrs);
        for j in start + 1..self.snaps.len() {
            if let Some(status) = sim.run_until(&mut (), j as u64 * self.interval) {
                return classify_exit(&self.output, status, &sim.state.output);
            }
            if early_exit && sim.fault_fired && self.converged(sim, j) {
                return Outcome::Masked;
            }
        }
        let status = sim.run_to_exit(&mut ());
        classify_exit(&self.output, status, &sim.state.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, run, run_with_fault, OperandSlot};
    use glaive_isa::{AluOp, Asm, BranchCond, Reg};

    /// `n` iterations of: read the input word, add the counter, store the
    /// sum to `mem[8 + (i & 3)]`; then print the input word and the stores.
    fn storing_loop(n: i64) -> Program {
        let mut asm = Asm::new("storing-loop");
        asm.set_mem_words(16);
        let (i, lim, one, inp, sum, slot, out) =
            (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7));
        asm.li(i, 0);
        asm.li(lim, n);
        asm.li(one, 1);
        let top = asm.label();
        asm.bind(top);
        asm.load(inp, Reg(0), 0);
        asm.alu(AluOp::Add, sum, inp, i);
        asm.alu_imm(AluOp::And, slot, i, 3);
        asm.store(sum, slot, 8);
        asm.alu(AluOp::Add, i, i, one);
        asm.branch(BranchCond::Lt, i, lim, top);
        asm.load(out, Reg(0), 0);
        asm.out(out);
        for k in 0..4 {
            asm.load(out, Reg(0), 8 + k);
            asm.out(out);
        }
        asm.halt();
        asm.finish().expect("resolves")
    }

    fn faults_of(p: &Program, golden: &RunResult) -> Vec<FaultSpec> {
        let mut faults = Vec::new();
        for (pc, instr) in p.instrs().iter().enumerate() {
            let count = golden.exec_counts[pc];
            let slots = (0..instr.uses().len())
                .map(OperandSlot::Use)
                .chain((0..instr.defs().len()).map(OperandSlot::Def));
            for slot in slots {
                for bit in [0, 1, 3, 9, 40, 63] {
                    for instance in [0, count / 3, count.saturating_sub(1)] {
                        faults.push(FaultSpec {
                            pc,
                            slot,
                            bit,
                            instance,
                        });
                    }
                }
            }
        }
        faults
    }

    /// Every fault's outcome on one reused machine equals a replay from
    /// instruction 0; returns how many runs stopped early.
    fn assert_matches_replay(p: &Program, init: &[u64]) -> usize {
        let cfg = ExecConfig::default();
        let (golden, trace) = GoldenTrace::record(p, init, &cfg).expect("well-formed");
        assert_eq!(
            golden,
            run(p, init, &cfg),
            "tracing perturbed the golden run"
        );
        let budget = ExecConfig {
            max_instrs: golden.dyn_instrs * 4 + 1024,
        };
        let mut sim = Simulator::try_new(p, init, &budget).expect("well-formed");
        let mut early = 0;
        for fault in faults_of(p, &golden) {
            let want = classify(&golden, &run_with_fault(p, init, &budget, &fault));
            assert_eq!(trace.outcome(&mut sim, &fault), want, "{fault}");
            early += usize::from(sim.dyn_instrs < golden.dyn_instrs);
        }
        early
    }

    #[test]
    fn reused_machine_matches_replay_from_zero_on_isa_a() {
        let p = storing_loop(300);
        let early = assert_matches_replay(&p, &[11]);
        assert!(early > 0, "some faults must re-converge before the halt");
        // Prints `3i` for i in 0..200: a fault on the printed register
        // corrupts one output, and the next iteration recomputes it, so
        // only the output tells the runs apart.
        let mut asm = Asm::new("printing-loop");
        let (i, lim, one, x) = (Reg(1), Reg(2), Reg(3), Reg(4));
        asm.li(i, 0);
        asm.li(lim, 200);
        asm.li(one, 1);
        let top = asm.label();
        asm.bind(top);
        asm.alu_imm(AluOp::Mul, x, i, 3);
        asm.out(x);
        asm.alu(AluOp::Add, i, i, one);
        asm.branch(BranchCond::Lt, i, lim, top);
        asm.halt();
        assert_matches_replay(&asm.finish().expect("resolves"), &[]);
    }

    #[test]
    fn restored_machine_reruns_like_a_fresh_one() {
        let p = storing_loop(300);
        let cfg = ExecConfig::default();
        let (golden, trace) = GoldenTrace::record(&p, &[11], &cfg).expect("well-formed");
        assert!(trace.snapshots() > 3);
        let mut sim = Simulator::try_new(&p, &[11], &cfg).expect("well-formed");
        assert_eq!(sim.run(), golden);
        trace.restore(&mut sim, 0);
        assert_eq!(sim.run(), golden, "restore to the start, run again");
        // A faulty run dirties registers, counts, output and memory; a
        // restore to any snapshot must undo all of it.
        let fault = FaultSpec {
            pc: 6,
            slot: OperandSlot::Use(0),
            bit: 2,
            instance: 299,
        };
        for j in (0..trace.snapshots()).rev() {
            assert_eq!(trace.outcome(&mut sim, &fault), Outcome::Sdc);
            trace.restore(&mut sim, j);
            let mut fresh = Simulator::try_new(&p, &[11], &cfg).expect("well-formed");
            assert_eq!(fresh.run_until(&mut (), j as u64 * trace.interval), None);
            assert_eq!(
                (&sim.state.regs, &sim.state.mem, &sim.state.output),
                (&fresh.state.regs, &fresh.state.mem, &fresh.state.output),
                "restored to snapshot {j}"
            );
            assert_eq!(
                (sim.state.pc, &sim.exec_counts, sim.dyn_instrs),
                (fresh.state.pc, &fresh.exec_counts, fresh.dyn_instrs),
                "restored to snapshot {j}"
            );
            assert_eq!(sim.run(), golden, "restored to snapshot {j}");
        }
    }

    /// A fault on a flag that every iteration resets skips one store, on
    /// a path as long as the store's, and leaves PC and registers as
    /// golden's. When the skipped word is not rewritten before the final
    /// sum reads it, only the words golden wrote since the restore show
    /// the difference.
    #[test]
    fn a_skipped_store_is_never_masked_early() {
        let mut asm = Asm::new("skipping-loop");
        asm.set_mem_words(72);
        let (i, lim, one, slot, flag, acc, k, x, words) = (
            Reg(1),
            Reg(2),
            Reg(3),
            Reg(4),
            Reg(5),
            Reg(6),
            Reg(7),
            Reg(8),
            Reg(9),
        );
        asm.li(i, 0);
        asm.li(lim, 200);
        asm.li(one, 1);
        let (top, skip, join, sum) = (asm.label(), asm.label(), asm.label(), asm.label());
        asm.bind(top);
        asm.alu_imm(AluOp::And, slot, i, 63);
        asm.li(flag, 0);
        asm.branch(BranchCond::Ne, flag, Reg(0), skip); // 5
        asm.store(i, slot, 8);
        asm.jump(join);
        asm.bind(skip);
        asm.mov(slot, slot);
        asm.mov(slot, slot);
        asm.bind(join);
        asm.alu(AluOp::Add, i, i, one);
        asm.branch(BranchCond::Lt, i, lim, top);
        asm.li(acc, 0);
        asm.li(k, 0);
        asm.li(words, 64);
        asm.bind(sum);
        asm.load(x, k, 8);
        asm.alu(AluOp::Add, acc, acc, x);
        asm.alu(AluOp::Add, k, k, one);
        asm.branch(BranchCond::Lt, k, words, sum);
        asm.out(acc);
        asm.halt();
        let p = asm.finish().expect("resolves");
        let cfg = ExecConfig::default();
        let (golden, trace) = GoldenTrace::record(&p, &[], &cfg).expect("well-formed");
        let mut sim = Simulator::try_new(&p, &[], &cfg).expect("well-formed");
        let mut seen = Vec::new();
        for instance in 0..200 {
            let fault = FaultSpec {
                pc: 5,
                slot: OperandSlot::Use(0),
                bit: 0,
                instance,
            };
            let want = classify(&golden, &run_with_fault(&p, &[], &cfg, &fault));
            assert_eq!(trace.outcome(&mut sim, &fault), want, "{fault}");
            seen.push(want);
        }
        assert!(seen.contains(&Outcome::Masked) && seen.contains(&Outcome::Sdc));
    }

    /// About a million instructions storing to 16 words: the trace stays
    /// at 64 snapshots, the write log at `mem_words`, and a hang still
    /// runs to the from-zero budget.
    #[test]
    fn a_long_run_keeps_trace_and_write_log_bounded() {
        let p = storing_loop(160_000);
        let cfg = ExecConfig::default();
        let (golden, trace) = GoldenTrace::record(&p, &[11], &cfg).expect("well-formed");
        assert!(golden.dyn_instrs > 900_000, "{}", golden.dyn_instrs);
        assert_eq!(trace.snapshots(), MAX_SNAPSHOTS);
        assert_eq!(trace.interval, golden.dyn_instrs.div_ceil(64));
        assert!(trace.writes.len() <= MAX_SNAPSHOTS * p.mem_words());
        let budget = ExecConfig {
            max_instrs: golden.dyn_instrs * 4 + 1024,
        };
        let mut sim = Simulator::try_new(&p, &[11], &budget).expect("well-formed");
        let _ = sim.run();
        assert!(sim.state.write_log().len() <= p.mem_words());
        // Flipping bit 40 of the loop bound makes the loop run ~2^40 times.
        let hang = FaultSpec {
            pc: 8,
            slot: OperandSlot::Use(1),
            bit: 40,
            instance: 100_000,
        };
        assert_eq!(trace.outcome(&mut sim, &hang), Outcome::Crash);
        assert_eq!(sim.dyn_instrs, budget.max_instrs, "hang ran to the budget");
        assert!(sim.state.write_log().len() <= p.mem_words());
        let sdc = FaultSpec {
            pc: 6,
            slot: OperandSlot::Use(0),
            bit: 5,
            instance: 159_999,
        };
        assert_eq!(trace.outcome(&mut sim, &sdc), Outcome::Sdc);
        assert!(sim.state.write_log().len() <= p.mem_words());
    }
}
