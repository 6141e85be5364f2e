//! Whole-suite bit identity of span injection: for every benchmark of the
//! suite, a campaign's GLVFIT01 bytes equal a ground truth rebuilt spec by
//! spec from `Campaign::inject`, the replay from instruction 0 on a fresh
//! machine. Both sides run the same interpreter, so the test also pins a
//! digest of the whole suite's bytes: a change to the interpreter's
//! semantics moves it.
//!
//! Ignored by default: it simulates the suite twice, which is slow in a
//! debug build. `scripts/check.sh` runs it in release:
//!
//! ```text
//! cargo test --release --offline -p glaive-faultsim -- --ignored
//! ```

use glaive_bench_suite::suite;
use glaive_faultsim::{Campaign, CampaignConfig, GroundTruth, InjectionRecord};
use glaive_isa::Program;

/// FNV-1a, restated locally so the pinned digest is independent of the
/// crates it checks.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checks `program`'s campaign against the replay from instruction 0 and
/// returns its GLVFIT01 bytes.
fn assert_matches_replay(program: &Program, init_mem: &[u64], hang_factor: u64) -> Vec<u8> {
    let config = CampaignConfig {
        bit_stride: 16,
        instances_per_site: 1,
        hang_factor,
        threads: 0,
        predict_dead_defs: true,
    };
    let campaign = Campaign::try_new(program, init_mem, config).expect("valid config");
    let truth = campaign.run();
    let plan = campaign.plan().expect("suite programs plan cleanly");
    let records: Vec<InjectionRecord> = plan
        .specs
        .iter()
        .map(|spec| campaign.inject(spec, &plan.golden, &plan.fault_cfg))
        .collect();
    let reference = GroundTruth::from_parts(
        program.name().to_string(),
        records,
        plan.golden,
        plan.predicted.len(),
    )
    .expect("consistent parts");
    let bytes = truth.to_bytes();
    assert_eq!(
        bytes,
        reference.to_bytes(),
        "{}: GLVFIT01 bytes diverged",
        program.name()
    );
    bytes
}

#[test]
#[ignore = "simulates the whole suite twice; run in release"]
fn campaigns_match_replay_from_zero_on_both_suites() {
    let benches = suite(7);
    assert_eq!(benches.len(), 12);
    let digest = benches.iter().fold(0xcbf2_9ce4_8422_2325, |hash, bench| {
        fnv1a(
            hash,
            &assert_matches_replay(bench.program(), &bench.init_mem, 4),
        )
    });
    assert_eq!(
        digest, 0x58da_af91_2fdb_954a,
        "whole-suite GLVFIT01 digest moved: {digest:#018x}"
    );
}
