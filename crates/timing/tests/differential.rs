//! The timing layer's core guarantee, proven differentially: attaching a
//! [`TimingObserver`] to every simulation of a fault-injection campaign —
//! the golden run and each faulty run — changes *nothing* about the
//! architectural results. The rebuilt [`GroundTruth`] serialises to the
//! same GLVFIT01 bytes as the plain campaign, bit for bit, on benchmarks
//! of the suite.
//!
//! This is what "timing layers onto `glaive-sim` as a pure observer"
//! means operationally: timing on vs. timing off is not approximately
//! equal, it is the identical artifact.

use glaive_bench_suite::suite;
use glaive_faultsim::{BitSite, Campaign, CampaignConfig, GroundTruth, InjectionRecord};
use glaive_isa::Program;
use glaive_sim::{classify, ExecConfig, Simulator};
use glaive_timing::{try_profile, InOrderCost, TimingObserver, TimingProfile};

/// Campaign parameters kept small enough for a tier-1 test: every
/// simulation runs twice (plain and observed).
fn config(hang_factor: u64) -> CampaignConfig {
    CampaignConfig {
        bit_stride: 16,
        instances_per_site: 1,
        hang_factor,
        threads: 1,
        predict_dead_defs: true,
    }
}

/// Runs the campaign twice over `program`: once through the production
/// path (timing off), once rebuilt simulation-by-simulation with a timing
/// observer attached to every run (timing on). Returns both byte streams
/// plus the golden profile for sanity checks.
fn run_both(
    program: &Program,
    init_mem: &[u64],
    hang_factor: u64,
) -> (Vec<u8>, Vec<u8>, TimingProfile) {
    let campaign = Campaign::try_new(program, init_mem, config(hang_factor)).expect("valid config");
    let plain = campaign.run();

    let plan = campaign.plan().expect("plannable");
    // Golden run, observed: the architectural result must be what the
    // plan computed without observation.
    let (golden, profile) = try_profile(
        program,
        init_mem,
        &ExecConfig::default(),
        InOrderCost::default(),
    )
    .expect("well-formed");
    assert_eq!(golden, plan.golden, "observation perturbed the golden run");

    // Every fault injection, observed (fresh observer per run, as a timing
    // campaign would do), classified against the observed golden.
    let mut predicted = plan.predicted.iter().peekable();
    let mut records: Vec<InjectionRecord> = Vec::with_capacity(plan.specs.len());
    for (i, spec) in plan.specs.iter().enumerate() {
        if let Some(&&(pi, rec)) = predicted.peek() {
            if pi == i {
                predicted.next();
                records.push(rec);
                continue;
            }
        }
        let mut observer = TimingObserver::new(InOrderCost::default(), program);
        let mut sim = Simulator::try_new(program, init_mem, &plan.fault_cfg).expect("well-formed");
        sim.arm_fault(*spec);
        let faulty = sim.run_observed(&mut observer);
        records.push(InjectionRecord {
            site: BitSite {
                pc: spec.pc,
                slot: spec.slot,
                bit: spec.bit,
            },
            instance: spec.instance,
            outcome: classify(&golden, &faulty),
        });
    }
    let timed = GroundTruth::from_parts(
        program.name().to_string(),
        records,
        golden,
        plan.predicted.len(),
    )
    .expect("consistent parts");

    (plain.to_bytes(), timed.to_bytes(), profile)
}

#[test]
fn ground_truth_is_bit_identical_with_timing_on_or_off_isa_a() {
    for bench in suite(7) {
        if !matches!(bench.name, "blackscholes" | "lu") {
            continue; // two representative Table-II benchmarks keep it fast
        }
        let (plain, timed, profile) = run_both(bench.program(), &bench.init_mem, 4);
        assert_eq!(plain, timed, "{}: GLVFIT01 bytes diverged", bench.name);
        // The observation was real: a non-trivial profile was collected.
        assert!(profile.total_cycles > 0, "{}: empty profile", bench.name);
        assert!(
            profile.per_pc.iter().any(|t| t.residency_count > 0),
            "{}: no residency intervals closed",
            bench.name,
        );
    }
}

/// The golden profile of every suite program, pinned: the observer looks
/// each instruction's operands and latency up from tables it builds once,
/// and must price the retire stream exactly as it did when it asked the
/// ISA on every retirement.
#[test]
fn suite_profiles_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for bench in suite(7) {
        let (_, profile) = try_profile(
            bench.program(),
            &bench.init_mem,
            &ExecConfig::default(),
            InOrderCost::default(),
        )
        .expect("well-formed");
        eat(profile.total_cycles);
        eat(profile.retired);
        for t in &profile.per_pc {
            for x in [
                t.executions,
                t.cycles,
                t.stalls,
                t.residency_sum,
                t.residency_count,
            ] {
                eat(x);
            }
        }
    }
    assert_eq!(
        hash, 0x217c_9e00_dc6d_7110,
        "profile digest moved: {hash:#018x}"
    );
}
