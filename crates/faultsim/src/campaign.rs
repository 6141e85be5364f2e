use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use glaive_isa::{GlaiveIsa, Isa, Program};
use glaive_sim::{
    classify, run, run_with_fault, ExecConfig, ExitStatus, FaultSpec, OperandSlot, Simulator,
};

use crate::checkpoint::CheckpointSink;
use crate::scheduler::{ChunkScheduler, Lease};
use crate::truth::{BitSite, GroundTruth, InjectionRecord};

/// Parameters of a fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Inject into every `bit_stride`-th bit of each operand register
    /// (1 = all 64 bits, the paper's setting; larger values subsample for
    /// quick tests).
    pub bit_stride: usize,
    /// Dynamic instances sampled per fault-site class (evenly spaced over
    /// the instruction's execution count) — the Approxilyzer-style
    /// equivalence-class pruning.
    pub instances_per_site: usize,
    /// Faulty runs get `hang_factor × golden_length + 1024` dynamic
    /// instructions before being declared a hang.
    pub hang_factor: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Statically predict provably-Masked outcomes (faults on dead
    /// definitions) instead of simulating them — Approxilyzer-style outcome
    /// prediction. Sound: predicted outcomes equal simulated ones.
    pub predict_dead_defs: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            bit_stride: 1,
            instances_per_site: 2,
            hang_factor: 4,
            threads: 0,
            predict_dead_defs: true,
        }
    }
}

impl CampaignConfig {
    /// A heavily subsampled configuration for unit tests and examples.
    pub fn quick() -> Self {
        CampaignConfig {
            bit_stride: 8,
            instances_per_site: 1,
            hang_factor: 4,
            threads: 0,
            predict_dead_defs: true,
        }
    }
}

/// Observer of campaign progress: called from worker threads as injection
/// batches complete, with the number of records finished so far and the
/// total planned. Implementations must be cheap and thread-safe.
pub trait CampaignProgress: Sync {
    /// `done` records out of `total` are complete (monotone per campaign,
    /// but calls from different workers may arrive out of order).
    fn injections(&self, done: usize, total: usize);
}

/// A [`CampaignProgress`] that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl CampaignProgress for NoProgress {
    fn injections(&self, _done: usize, _total: usize) {}
}

static NO_PROGRESS: NoProgress = NoProgress;

/// Specs per chunk in local campaigns: the unit of leasing, merging and
/// interruption checks.
const CHUNK: usize = 64;

/// Why a supervised campaign stopped before finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The caller's cancellation flag was raised.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Cancelled => write!(f, "cancelled"),
            InterruptReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Errors surfaced by [`Campaign::run_supervised`].
///
/// Every failure of a supervised campaign comes back as a value: a
/// malformed benchmark, a golden run that does not halt cleanly, or an
/// interruption (cancellation / deadline) — in which case a checkpoint has
/// already been saved to the configured sink, if any, and a later run with
/// the same sink resumes where this one stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The campaign configuration is out of range (a stride or sample
    /// count of zero would enumerate no work or divide by zero).
    InvalidConfig {
        /// Which [`CampaignConfig`] field is out of range.
        field: &'static str,
    },
    /// The benchmark cannot form a runnable machine (e.g. oversized input
    /// image); the message carries the underlying constructor error.
    InvalidBenchmark {
        /// Program name.
        program: String,
        /// The underlying machine-construction error.
        message: String,
    },
    /// The golden (fault-free) run did not halt cleanly — vulnerability
    /// ground truth is undefined for a program that fails without faults.
    DirtyGolden {
        /// Program name.
        program: String,
        /// How the golden run terminated.
        status: ExitStatus,
    },
    /// The campaign was interrupted before completing; completed work has
    /// been checkpointed to the configured sink.
    Interrupted {
        /// Program name.
        program: String,
        /// What stopped the campaign.
        reason: InterruptReason,
        /// Injection records complete at the stop (simulated + predicted).
        completed: usize,
        /// Injections the full campaign plans.
        total: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidConfig { field } => {
                write!(f, "invalid campaign config: `{field}` must be at least 1")
            }
            CampaignError::InvalidBenchmark { program, message } => {
                write!(f, "benchmark `{program}` is malformed: {message}")
            }
            CampaignError::DirtyGolden { program, status } => write!(
                f,
                "golden run of `{program}` did not halt cleanly: {status:?}"
            ),
            CampaignError::Interrupted {
                program,
                reason,
                completed,
                total,
            } => write!(
                f,
                "campaign on `{program}` {reason} after {completed}/{total} injections"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Supervision parameters for [`Campaign::run_supervised`]: progress
/// reporting, cooperative cancellation, a wall-clock deadline, and
/// checkpointing. [`RunControl::new`] gives the unsupervised default
/// (silent, uncancellable, no deadline, no checkpoints).
#[derive(Clone, Copy)]
pub struct RunControl<'a> {
    /// Receives batch-completion callbacks.
    pub progress: &'a dyn CampaignProgress,
    /// Checked before every chunk lease; raising it stops the campaign
    /// with [`InterruptReason::Cancelled`].
    pub cancel: Option<&'a AtomicBool>,
    /// Soft wall-clock deadline: the campaign stops at the first chunk
    /// lease past this instant with [`InterruptReason::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Where snapshots of completed injections are stored (and where a
    /// previous snapshot is loaded from on start).
    pub checkpoint: Option<&'a dyn CheckpointSink>,
    /// Save a snapshot every this many newly simulated injections
    /// (0 disables periodic snapshots; a final snapshot is still saved on
    /// interruption).
    pub checkpoint_interval: usize,
}

impl RunControl<'static> {
    /// The unsupervised default.
    pub fn new() -> RunControl<'static> {
        RunControl {
            progress: &NO_PROGRESS,
            cancel: None,
            deadline: None,
            checkpoint: None,
            checkpoint_interval: 0,
        }
    }
}

impl Default for RunControl<'static> {
    fn default() -> Self {
        RunControl::new()
    }
}

impl<'a> RunControl<'a> {
    /// Whether the supervised run should stop now: the cancellation flag
    /// beats the deadline. The [`ChunkScheduler`] checks this before every
    /// lease, for local threads and the distributed coordinator alike.
    pub fn interruption(&self) -> Option<InterruptReason> {
        if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return Some(InterruptReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(InterruptReason::DeadlineExceeded);
        }
        None
    }
}

/// The fully deterministic work order of a campaign: golden reference run,
/// enumerated fault specs in canonical order, per-fault execution budget,
/// statically predicted records, and the fingerprint binding GLVCKPT1
/// checkpoints to this exact campaign.
///
/// Both the in-process executor ([`Campaign::run_supervised`]) and the
/// distributed fabric (`glaive-campaign`) derive their work from the same
/// plan; because every field is a pure function of (program, input image,
/// config), any two parties that agree on those inputs agree on the plan —
/// which is what makes a distributed merge bit-identical to a serial run.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The fault-free reference run (clean halt guaranteed).
    pub golden: glaive_sim::RunResult,
    /// Every fault to inject, in canonical enumeration order.
    pub specs: Vec<FaultSpec>,
    /// Execution budget for each faulty run (hang detection).
    pub fault_cfg: ExecConfig,
    /// Records provable without simulation (dead-definition Masked
    /// outcomes), as `(index into specs, record)` pairs in strictly
    /// ascending index order. Empty when prediction is disabled.
    pub predicted: Vec<(usize, InjectionRecord)>,
    /// Binds checkpoints and distributed work units to this exact
    /// campaign: program content, input image, parameters, spec count.
    pub fingerprint: u64,
}

/// A systematic bit-level fault-injection campaign over one program.
///
/// Generic over the instruction-set backend `I` (default: ISA-A); the
/// injection semantics — flip one bit of one operand register at one
/// dynamic instance — are ISA-independent, and the checkpoint fingerprint
/// hashes the backend's own instruction encoding.
#[derive(Debug)]
pub struct Campaign<'p, I: Isa = GlaiveIsa> {
    program: &'p Program<I>,
    init_mem: &'p [u64],
    config: CampaignConfig,
}

impl<'p, I: Isa> Campaign<'p, I> {
    /// Creates a campaign for `program` with the given input image,
    /// validating the configuration.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidConfig`] when `bit_stride` or
    /// `instances_per_site` is zero.
    pub fn try_new(
        program: &'p Program<I>,
        init_mem: &'p [u64],
        config: CampaignConfig,
    ) -> Result<Self, CampaignError> {
        if config.bit_stride < 1 {
            return Err(CampaignError::InvalidConfig {
                field: "bit_stride",
            });
        }
        if config.instances_per_site < 1 {
            return Err(CampaignError::InvalidConfig {
                field: "instances_per_site",
            });
        }
        Ok(Campaign {
            program,
            init_mem,
            config,
        })
    }

    /// Enumerates the fault specs the campaign will inject, in deterministic
    /// order. Sites on never-executed instructions are pruned (a fault there
    /// cannot activate), mirroring Approxilyzer's reachability pruning.
    pub(crate) fn enumerate_sites(&self, exec_counts: &[u64]) -> Vec<FaultSpec> {
        let mut specs = Vec::new();
        for (pc, instr) in self.program.instrs().iter().enumerate() {
            let count = exec_counts[pc];
            if count == 0 {
                continue;
            }
            let mut slots: Vec<OperandSlot> = Vec::new();
            slots.extend((0..I::uses(instr).len()).map(OperandSlot::Use));
            slots.extend((0..I::defs(instr).len()).map(OperandSlot::Def));
            let samples = self.instance_samples(count);
            for slot in slots {
                for bit in (0..I::WORD_BITS).step_by(self.config.bit_stride) {
                    for &instance in &samples {
                        specs.push(FaultSpec {
                            pc,
                            slot,
                            bit: bit as u8,
                            instance,
                        });
                    }
                }
            }
        }
        specs
    }

    /// Evenly spaced dynamic-instance samples in `0..count`.
    fn instance_samples(&self, count: u64) -> Vec<u64> {
        let k = (self.config.instances_per_site as u64).min(count);
        (0..k).map(|j| j * count / k).collect()
    }

    /// Runs the campaign: golden run, site enumeration, parallel injection,
    /// and aggregation into a [`GroundTruth`].
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt cleanly — vulnerability ground
    /// truth is undefined for a program that fails without faults. Use
    /// [`Campaign::run_supervised`] to get failures as values.
    pub fn run(&self) -> GroundTruth {
        self.run_supervised(&RunControl::new())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// A fingerprint binding a checkpoint to this exact campaign: program
    /// content, input image, campaign parameters, and planned injection
    /// count. Any mismatch makes a stored snapshot read as a cold start.
    fn fingerprint(&self, total_specs: usize) -> u64 {
        let mut bytes = Vec::new();
        for v in [
            self.config.bit_stride as u64,
            self.config.instances_per_site as u64,
            self.config.hang_factor,
            self.config.predict_dead_defs as u64,
            self.program.len() as u64,
            self.init_mem.len() as u64,
            total_specs as u64,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(self.program.name().as_bytes());
        for instr in self.program.instrs() {
            bytes.extend_from_slice(&I::encode(instr));
        }
        for &w in self.init_mem {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        crate::serdes::fnv1a(&bytes)
    }

    /// Computes the deterministic [`CampaignPlan`] for this campaign:
    /// golden run, site enumeration, fault execution budget, dead-def
    /// outcome prediction, and the checkpoint/distribution fingerprint.
    ///
    /// Every participant in a distributed campaign recomputes this plan
    /// locally from the shipped (program, input image, config) and
    /// cross-checks the fingerprint, so a coordinator and its workers can
    /// never silently disagree about which fault an index refers to.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidBenchmark`] for inputs that cannot form a
    /// machine and [`CampaignError::DirtyGolden`] when the fault-free run
    /// does not halt cleanly.
    pub fn plan(&self) -> Result<CampaignPlan, CampaignError> {
        let name = self.program.name().to_string();
        let golden_cfg = ExecConfig::default();
        if let Err(e) = Simulator::try_new(self.program, self.init_mem, &golden_cfg) {
            return Err(CampaignError::InvalidBenchmark {
                program: name,
                message: e.to_string(),
            });
        }
        let golden = run(self.program, self.init_mem, &golden_cfg);
        if !golden.status.is_clean() {
            return Err(CampaignError::DirtyGolden {
                program: name,
                status: golden.status,
            });
        }
        let specs = self.enumerate_sites(&golden.exec_counts);
        let fault_cfg = ExecConfig {
            max_instrs: golden.dyn_instrs * self.config.hang_factor + 1024,
        };

        // Approxilyzer-style outcome prediction: Def-slot faults on dead
        // definitions are provably Masked and need no simulation.
        let mut predicted: Vec<(usize, InjectionRecord)> = Vec::new();
        if self.config.predict_dead_defs {
            let dead = crate::pruning::dead_defs(self.program);
            for (i, spec) in specs.iter().enumerate() {
                if matches!(spec.slot, OperandSlot::Def(_)) && dead[spec.pc] {
                    predicted.push((
                        i,
                        InjectionRecord {
                            site: BitSite {
                                pc: spec.pc,
                                slot: spec.slot,
                                bit: spec.bit,
                            },
                            instance: spec.instance,
                            outcome: glaive_sim::Outcome::Masked,
                        },
                    ));
                }
            }
        }

        let fingerprint = self.fingerprint(specs.len());
        Ok(CampaignPlan {
            golden,
            specs,
            fault_cfg,
            predicted,
            fingerprint,
        })
    }

    /// Runs the campaign under supervision: every failure comes back as a
    /// typed [`CampaignError`], `ctrl`'s cancellation flag and deadline are
    /// checked before every chunk, and completed injections are
    /// periodically snapshotted to `ctrl`'s checkpoint sink so an
    /// interrupted campaign resumes instead of restarting.
    ///
    /// The calling thread and `threads − 1` scoped helpers each loop
    /// lease → inject → complete over one [`ChunkScheduler`], the same
    /// scheduler the distributed coordinator drives.
    ///
    /// Determinism: a resumed campaign produces a [`GroundTruth`] identical
    /// (byte-for-byte under [`GroundTruth::to_bytes`]) to an uninterrupted
    /// run, because injection records are keyed by the deterministic site
    /// enumeration order.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidBenchmark`] for inputs that cannot form a
    /// machine, [`CampaignError::DirtyGolden`] when the fault-free run does
    /// not halt cleanly, and [`CampaignError::Interrupted`] when cancelled
    /// or past the deadline (after saving a final checkpoint).
    pub fn run_supervised(&self, ctrl: &RunControl<'_>) -> Result<GroundTruth, CampaignError> {
        let sched = ChunkScheduler::new(self.program.name(), self.plan()?, CHUNK, ctrl);
        let threads = match self.config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        // A thread that finds every remaining chunk leased by others is
        // done: those holders are in this scope and finish their chunks.
        let work = || {
            while let Lease::Chunk {
                chunk,
                start,
                known,
            } = sched.lease(None)
            {
                let Ok(records) =
                    self.inject_span(sched.plan(), start, &known, |_| Ok::<(), Infallible>(()));
                sched
                    .complete(chunk, &records)
                    .expect("local records answer their own specs");
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
        sched.finish()
    }

    /// Computes the records of the spec span `start..start + known.len()`
    /// of `plan`: an index with a `known` record keeps it, every other one
    /// is simulated with [`Campaign::inject`]. `before_each` runs before
    /// every index, told whether that index will be simulated; an `Err`
    /// from it stops the span and is returned.
    ///
    /// This is the unit of work of every executor: local threads and
    /// fabric workers alike compute leased chunks with it.
    ///
    /// # Errors
    ///
    /// The first error `before_each` returns.
    pub fn inject_span<E>(
        &self,
        plan: &CampaignPlan,
        start: usize,
        known: &[Option<InjectionRecord>],
        mut before_each: impl FnMut(bool) -> Result<(), E>,
    ) -> Result<Vec<InjectionRecord>, E> {
        known
            .iter()
            .zip(&plan.specs[start..])
            .map(|(known, spec)| {
                before_each(known.is_none())?;
                Ok(known.unwrap_or_else(|| self.inject(spec, &plan.golden, &plan.fault_cfg)))
            })
            .collect()
    }

    /// Simulates one fault injection and classifies it against the golden
    /// run. This is the distributed fabric's unit of work: a worker calls
    /// it for each spec of an assigned chunk, with the `golden` and `cfg`
    /// taken from its locally recomputed [`CampaignPlan`].
    pub fn inject(
        &self,
        spec: &FaultSpec,
        golden: &glaive_sim::RunResult,
        cfg: &ExecConfig,
    ) -> InjectionRecord {
        let faulty = run_with_fault(self.program, self.init_mem, cfg, spec);
        InjectionRecord {
            site: BitSite {
                pc: spec.pc,
                slot: spec.slot,
                bit: spec.bit,
            },
            instance: spec.instance,
            outcome: classify(golden, &faulty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CampaignCheckpoint;
    use glaive_isa::{AluOp, Asm, BranchCond, Reg};
    use glaive_sim::Outcome;

    fn sum_program() -> Program {
        let mut asm = Asm::new("sum");
        let (acc, i, one, lim) = (Reg(1), Reg(2), Reg(3), Reg(4));
        asm.li(acc, 0);
        asm.li(i, 1);
        asm.li(one, 1);
        asm.li(lim, 10);
        let top = asm.label();
        asm.bind(top);
        asm.alu(AluOp::Add, acc, acc, i);
        asm.alu(AluOp::Add, i, i, one);
        asm.branch(BranchCond::Le, i, lim, top);
        asm.out(acc);
        asm.halt();
        asm.finish().expect("resolves")
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            bit_stride: 4,
            instances_per_site: 2,
            hang_factor: 4,
            threads: 1,
            predict_dead_defs: false,
        }
    }

    fn camp<'p>(p: &'p Program, mem: &'p [u64], cfg: CampaignConfig) -> Campaign<'p> {
        Campaign::try_new(p, mem, cfg).expect("valid config")
    }

    #[test]
    fn try_new_rejects_zero_parameters() {
        let p = sum_program();
        let bad = Campaign::try_new(
            &p,
            &[],
            CampaignConfig {
                bit_stride: 0,
                ..config()
            },
        );
        assert_eq!(
            bad.expect_err("zero stride"),
            CampaignError::InvalidConfig {
                field: "bit_stride"
            }
        );
        let bad = Campaign::try_new(
            &p,
            &[],
            CampaignConfig {
                instances_per_site: 0,
                ..config()
            },
        );
        let err = bad.expect_err("zero instances");
        assert_eq!(
            err,
            CampaignError::InvalidConfig {
                field: "instances_per_site"
            }
        );
        assert!(err.to_string().contains("instances_per_site"));
    }

    #[test]
    fn site_enumeration_skips_dead_code() {
        let mut asm = Asm::new("dead");
        let end = asm.label();
        asm.li(Reg(1), 1);
        asm.jump(end);
        asm.li(Reg(2), 2); // dead
        asm.bind(end);
        asm.out(Reg(1));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let c = camp(&p, &[], config());
        let golden = run(&p, &[], &ExecConfig::default());
        let specs = c.enumerate_sites(&golden.exec_counts);
        assert!(
            specs.iter().all(|s| s.pc != 2),
            "dead instruction has no sites"
        );
        // li r1 has one def slot; out has one use slot; halt/jump none.
        let pcs: Vec<usize> = specs.iter().map(|s| s.pc).collect();
        assert!(pcs.contains(&0));
        assert!(pcs.contains(&3));
    }

    #[test]
    fn instance_samples_are_even_and_bounded() {
        let c = Campaign::new_unchecked_for_tests();
        assert_eq!(c.instance_samples(1), vec![0]);
        assert_eq!(c.instance_samples(2), vec![0, 1]);
        let s = c.instance_samples(10);
        assert_eq!(s, vec![0, 5]);
    }

    impl<'p> Campaign<'p> {
        fn new_unchecked_for_tests() -> Campaign<'static> {
            // A static leak is fine for a test helper.
            let p: &'static Program = Box::leak(Box::new(sum_program()));
            Campaign {
                program: p,
                init_mem: &[],
                config: config(),
            }
        }
    }

    #[test]
    fn campaign_produces_all_three_outcomes() {
        let p = sum_program();
        let truth = camp(&p, &[], config()).run();
        let outcomes: Vec<Outcome> = truth.records().iter().map(|r| r.outcome).collect();
        assert!(outcomes.contains(&Outcome::Masked), "some faults must mask");
        assert!(
            outcomes.contains(&Outcome::Sdc),
            "some faults must corrupt output"
        );
        // This loop program has no memory ops; crashes come from hangs
        // (corrupted loop counter) — with bit 32+ flips on the counter the
        // loop runs ~2^32 iterations, exceeding the budget.
        assert!(outcomes.contains(&Outcome::Crash), "some faults must hang");
    }

    /// Two dead definitions among live ones: 32 of its 112 specs under
    /// `config()` are statically predicted.
    fn deadmix_program() -> Program {
        let mut asm = Asm::new("deadmix");
        asm.li(Reg(1), 7); // dead (rewritten below)
        asm.li(Reg(1), 9);
        asm.li(Reg(2), 5); // dead (never read)
        asm.alu(AluOp::Add, Reg(3), Reg(1), Reg(1));
        asm.out(Reg(3));
        asm.halt();
        asm.finish().expect("resolves")
    }

    #[test]
    fn parallel_and_serial_campaigns_agree() {
        // The second program has fewer specs than one chunk.
        let mut asm = Asm::new("tiny");
        asm.li(Reg(1), 7);
        asm.out(Reg(1));
        asm.halt();
        let tiny = asm.finish().expect("resolves");
        for p in [sum_program(), tiny] {
            let serial = camp(
                &p,
                &[],
                CampaignConfig {
                    threads: 1,
                    ..config()
                },
            )
            .run();
            for threads in [2, 4] {
                let parallel = camp(
                    &p,
                    &[],
                    CampaignConfig {
                        threads,
                        ..config()
                    },
                )
                .run();
                assert_eq!(serial.records(), parallel.records(), "threads={threads}");
            }
        }
    }

    #[test]
    fn full_bit_coverage_with_stride_one() {
        let mut asm = Asm::new("one");
        asm.li(Reg(1), 7);
        asm.out(Reg(1));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let cfg = CampaignConfig {
            bit_stride: 1,
            instances_per_site: 1,
            threads: 1,
            ..CampaignConfig::default()
        };
        let truth = camp(&p, &[], cfg).run();
        // li def slot (64) + out use slot (64) = 128 sites.
        assert_eq!(truth.total_injections(), 128);
        let labels = truth.bit_labels();
        assert_eq!(labels.len(), 128);
    }

    #[test]
    fn prediction_preserves_ground_truth() {
        let p = deadmix_program();
        let with = camp(
            &p,
            &[],
            CampaignConfig {
                predict_dead_defs: true,
                ..config()
            },
        )
        .run();
        let without = camp(
            &p,
            &[],
            CampaignConfig {
                predict_dead_defs: false,
                ..config()
            },
        )
        .run();
        assert!(with.predicted_injections() > 0, "dead defs exist");
        assert_eq!(without.predicted_injections(), 0);
        assert_eq!(with.records(), without.records(), "prediction is sound");
    }

    #[test]
    #[should_panic(expected = "did not halt cleanly")]
    fn dirty_golden_run_is_rejected() {
        let mut asm = Asm::new("trap");
        asm.li(Reg(1), 0);
        asm.alu(AluOp::Div, Reg(2), Reg(1), Reg(1));
        asm.halt();
        let p = asm.finish().expect("resolves");
        camp(&p, &[], config()).run();
    }

    #[test]
    fn supervised_reports_dirty_golden_as_value() {
        let mut asm = Asm::new("trap2");
        asm.li(Reg(1), 0);
        asm.alu(AluOp::Div, Reg(2), Reg(1), Reg(1));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let err = camp(&p, &[], config())
            .run_supervised(&RunControl::new())
            .expect_err("dirty golden run");
        assert!(matches!(err, CampaignError::DirtyGolden { .. }));
        assert!(err.to_string().contains("did not halt cleanly"));
    }

    /// Raises a cancellation flag once a threshold of injections completes —
    /// simulates an operator interrupt mid-campaign.
    struct CancelAt<'a> {
        threshold: usize,
        cancel: &'a AtomicBool,
    }

    impl CampaignProgress for CancelAt<'_> {
        fn injections(&self, done: usize, _total: usize) {
            if done >= self.threshold {
                self.cancel.store(true, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn interrupted_campaign_checkpoints_and_resumes_bit_identically() {
        let p = sum_program();
        let campaign = camp(&p, &[], config());
        let uninterrupted = campaign.run();
        let total = uninterrupted.total_injections();
        assert!(total > 256, "need enough work to interrupt mid-way");

        let cancel = AtomicBool::new(false);
        let sink = crate::checkpoint::MemoryCheckpoint::new();
        let progress = CancelAt {
            threshold: total / 4,
            cancel: &cancel,
        };
        let ctrl = RunControl {
            progress: &progress,
            cancel: Some(&cancel),
            checkpoint: Some(&sink),
            checkpoint_interval: 64,
            ..RunControl::new()
        };
        let err = campaign
            .run_supervised(&ctrl)
            .expect_err("campaign must be cancelled mid-way");
        let CampaignError::Interrupted {
            reason, completed, ..
        } = &err
        else {
            panic!("expected Interrupted, got {err}");
        };
        assert_eq!(*reason, InterruptReason::Cancelled);
        assert!(*completed < total, "cancellation must leave work undone");
        let ckpt_bytes = sink.load().expect("final checkpoint saved");
        let ckpt = CampaignCheckpoint::from_bytes(&ckpt_bytes).expect("checkpoint decodes");
        assert!(!ckpt.records.is_empty(), "checkpoint holds completed work");
        assert_eq!(ckpt.total, total);

        // Resume with no cancellation: must complete and reproduce the
        // uninterrupted ground truth byte-for-byte.
        let ctrl = RunControl {
            checkpoint: Some(&sink),
            checkpoint_interval: 64,
            ..RunControl::new()
        };
        let resumed = campaign.run_supervised(&ctrl).expect("resume completes");
        assert_eq!(resumed.to_bytes(), uninterrupted.to_bytes());
    }

    #[test]
    fn mismatched_checkpoint_is_a_cold_start() {
        let p = sum_program();
        let campaign = camp(&p, &[], config());
        let uninterrupted = campaign.run();
        // A snapshot from a *different* campaign configuration: right shape,
        // wrong fingerprint. Resume must ignore it entirely.
        let other = camp(
            &p,
            &[],
            CampaignConfig {
                bit_stride: 8,
                ..config()
            },
        );
        let cancel = AtomicBool::new(false);
        let sink = crate::checkpoint::MemoryCheckpoint::new();
        let progress = CancelAt {
            threshold: 64,
            cancel: &cancel,
        };
        other
            .run_supervised(&RunControl {
                progress: &progress,
                cancel: Some(&cancel),
                checkpoint: Some(&sink),
                checkpoint_interval: 32,
                ..RunControl::new()
            })
            .expect_err("cancelled");
        let truth = campaign
            .run_supervised(&RunControl {
                checkpoint: Some(&sink),
                ..RunControl::new()
            })
            .expect("completes despite foreign checkpoint");
        assert_eq!(truth.to_bytes(), uninterrupted.to_bytes());
    }

    #[test]
    fn expired_deadline_interrupts_promptly() {
        let inputs = [(sum_program(), false), (deadmix_program(), true)];
        for (p, predict_dead_defs) in &inputs {
            for threads in [1, 2, 4] {
                let campaign = camp(
                    p,
                    &[],
                    CampaignConfig {
                        threads,
                        predict_dead_defs: *predict_dead_defs,
                        ..config()
                    },
                );
                let ctrl = RunControl {
                    deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
                    ..RunControl::new()
                };
                let err = campaign
                    .run_supervised(&ctrl)
                    .expect_err("deadline already passed");
                let CampaignError::Interrupted {
                    reason, completed, ..
                } = &err
                else {
                    panic!("threads={threads}: expected an interruption, got {err}");
                };
                assert_eq!(
                    *reason,
                    InterruptReason::DeadlineExceeded,
                    "threads={threads}"
                );
                // Nothing is simulated past an expired deadline.
                let predicted = campaign.plan().expect("plans").predicted.len();
                assert_eq!(*completed, predicted, "{}, threads={threads}", p.name());
            }
        }
    }

    #[test]
    fn parallel_interruption_checkpoints_and_resumes_bit_identically() {
        let p = sum_program();
        let cfg = CampaignConfig {
            threads: 4,
            ..config()
        };
        let campaign = camp(&p, &[], cfg);
        let uninterrupted = campaign.run();
        let total = uninterrupted.total_injections();

        let cancel = AtomicBool::new(false);
        let sink = crate::checkpoint::MemoryCheckpoint::new();
        let progress = CancelAt {
            threshold: total / 4,
            cancel: &cancel,
        };
        let err = campaign
            .run_supervised(&RunControl {
                progress: &progress,
                cancel: Some(&cancel),
                checkpoint: Some(&sink),
                checkpoint_interval: 64,
                ..RunControl::new()
            })
            .expect_err("cancelled mid-way");
        assert!(matches!(err, CampaignError::Interrupted { .. }));
        let resumed = campaign
            .run_supervised(&RunControl {
                checkpoint: Some(&sink),
                ..RunControl::new()
            })
            .expect("resume completes");
        assert_eq!(resumed.to_bytes(), uninterrupted.to_bytes());
    }
}
