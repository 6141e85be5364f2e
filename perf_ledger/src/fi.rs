//! `fi`: fault-injection ground truth for the whole suite through
//! `Pipeline::prepare_suite`, with no artifact cache — the cost the paper
//! sets out to avoid. It touches no GNN or serving code.

use std::sync::Arc;
use std::time::Instant;

use glaive::{BenchData, Pipeline, PipelineConfig, TruthSource};
use glaive_bench_suite::{suite, Benchmark};
use glaive_faultsim::{Campaign, CampaignConfig, GroundTruth, RunControl};
use glaive_gnn::GraphSage;
use glaive_sim::{classify, run_with_fault, ExecConfig};

use crate::probe::{self, ProbeProgram, INJECT_STEP};
use crate::stats::{first_decile, LedgerRow};
use crate::trace::Recorder;
use crate::{check_stored_digest, digest, Checks, Ctx, Ledger, Outcome};

/// Every sixteenth bit of every operand: 4 of the 64 bit positions, spread
/// from the low to the high bits. Injection cost does not depend on the
/// bit, and one pass over the suite then takes about 1.5 s on a 2-CPU
/// host, so a run times over a dozen passes and reports their first decile.
const STRIDE: usize = 16;
const SMOKE_STRIDE: usize = 64;

fn config(ctx: &Ctx) -> PipelineConfig {
    PipelineConfig::builder()
        .bit_stride(if ctx.smoke { SMOKE_STRIDE } else { STRIDE })
        .build()
        .expect("valid stride")
}

/// One pass: injections made and the digest of the suite's ground truth.
struct Pass {
    injections: u64,
    digest: u64,
}

fn suite_digest(data: &[BenchData]) -> u64 {
    let bytes: Vec<Vec<u8>> = data.iter().map(|d| d.truth.to_bytes()).collect();
    digest(bytes.iter().map(Vec::as_slice))
}

/// Timed passes of `prepare_suite`; the last pass's data is kept for the
/// oracles.
fn passes(
    ctx: &Ctx,
    pipeline: &Pipeline,
    recorder: Option<&Recorder>,
    checks: &mut Checks,
) -> (Vec<(Pass, f64)>, Option<Vec<BenchData>>) {
    let mut last = None;
    let mut failures = Vec::new();
    let done = ctx.repeat(|| {
        let prepare = || pipeline.prepare_suite(ctx.seed);
        let result = match recorder {
            Some(r) => r.top("fi.prepare_suite", prepare).0,
            None => prepare(),
        };
        match result {
            Ok(data) => {
                let pass = Pass {
                    injections: data.iter().map(|d| d.truth.total_injections() as u64).sum(),
                    digest: suite_digest(&data),
                };
                last = Some(data);
                pass
            }
            Err(e) => {
                failures.push(e.to_string());
                Pass {
                    injections: 0,
                    digest: 0,
                }
            }
        }
    });
    for e in failures {
        checks.expect(false, 1, || format!("prepare_suite failed: {e}"));
    }
    (done, last)
}

/// Replays every [`INJECT_STEP`]-th injection of each ground truth
/// through `run_with_fault` + `classify` and compares it with the record.
fn replay(
    data: &[BenchData],
    campaign: CampaignConfig,
    goldens: &[glaive_sim::RunResult],
    checks: &mut Checks,
) {
    for (d, golden) in data.iter().zip(goldens) {
        let program = d.bench.program();
        let plan = Campaign::try_new(program, &d.bench.init_mem, campaign)
            .and_then(|c| c.plan())
            .expect("suite programs plan cleanly");
        let records = d.truth.records();
        checks.expect(d.truth.golden() == golden, 1, || {
            format!(
                "{}: campaign golden run differs from a fresh run",
                d.bench.name
            )
        });
        checks.expect(plan.specs.len() == records.len(), 1, || {
            format!(
                "{}: {} records for {} specs",
                d.bench.name,
                records.len(),
                plan.specs.len()
            )
        });
        for (i, (rec, spec)) in records
            .iter()
            .zip(&plan.specs)
            .enumerate()
            .step_by(INJECT_STEP)
        {
            checks.attempted += 1;
            let faulty = run_with_fault(program, &d.bench.init_mem, &plan.fault_cfg, spec);
            let same_site = rec.site.pc == spec.pc
                && rec.site.slot == spec.slot
                && rec.site.bit == spec.bit
                && rec.instance == spec.instance;
            checks.expect(
                same_site && classify(&plan.golden, &faulty) == rec.outcome,
                1,
                || format!("{}: record {i} does not replay", d.bench.name),
            );
        }
    }
}

/// A truth source that hands back ground truth computed earlier, so the
/// pipeline's graph build and label join can be timed without a campaign.
struct StoredTruth(Vec<GroundTruth>);

impl TruthSource for StoredTruth {
    fn ground_truth(
        &self,
        bench: &Benchmark,
        _config: CampaignConfig,
        _ctrl: &RunControl<'_>,
    ) -> Result<GroundTruth, glaive::Error> {
        self.0
            .iter()
            .find(|t| t.program_name() == bench.program().name())
            .cloned()
            .ok_or_else(|| {
                glaive::Error::InvalidConfig(format!("no stored truth for {}", bench.name))
            })
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let config = config(ctx);
    // Set-up includes one untimed pass: the first pass of a process pays
    // for page faults and allocator growth that later passes reuse, and
    // building the suite alone takes about a millisecond, too little to
    // time steadily.
    let (setup, setup_s) = ctx.setup(|| {
        let benches = suite(ctx.seed);
        let goldens: Vec<_> = benches
            .iter()
            .map(|b| glaive_sim::run(b.program(), &b.init_mem, &ExecConfig::default()))
            .collect();
        let pipeline = Pipeline::new(config).expect("valid config");
        let warm_up = pipeline
            .prepare_suite(ctx.seed)
            .map(|data| suite_digest(&data));
        (benches, goldens, pipeline, warm_up)
    });
    let (benches, goldens, pipeline, warm_up) = setup;

    let mut checks = Checks::default();
    let (done, last) = passes(ctx, &pipeline, None, &mut checks);
    let first_digest = done[0].0.digest;
    checks.expect(warm_up.as_ref() == Ok(&first_digest), 1, || {
        format!("the set-up pass gave {warm_up:?}, not the timed passes' ground truth")
    });
    for (pass, _) in &done {
        checks.attempted += pass.injections;
        checks.expect(pass.digest == first_digest, pass.injections, || {
            "ground truth differs between passes".into()
        });
    }
    check_stored_digest(ctx, "fi", first_digest, done[0].0.injections, &mut checks);
    if let Some(data) = &last {
        replay(data, config.campaign(), &goldens, &mut checks);
    }
    let walls: Vec<f64> = done.iter().map(|(_, s)| *s).collect();
    eprintln!("fi pass seconds: {walls:.3?}");
    let untraced = first_decile(&walls);

    let ledger = ctx
        .trace
        .then(|| trace(ctx, config, &benches, untraced, &mut checks));
    let injections = done[0].0.injections as f64;
    Outcome {
        setup_s,
        checks,
        work_per_s: injections / untraced,
        latency_ms: untraced * 1e3,
        report: vec![
            ("injections_per_s".into(), injections / untraced, "1/s"),
            ("injections_per_pass".into(), injections, "count"),
            ("passes".into(), done.len() as f64, "count"),
        ],
        ledger,
    }
}

fn trace(
    ctx: &Ctx,
    config: PipelineConfig,
    benches: &[Benchmark],
    untraced: f64,
    checks: &mut Checks,
) -> Ledger {
    let recorder = Arc::new(Recorder::new(Instant::now()));
    let pipeline = Pipeline::builder(config)
        .observer(recorder.clone())
        .build()
        .expect("valid config");
    let (done, last) = passes(ctx, &pipeline, Some(&recorder), checks);
    let wall = first_decile(&done.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let data = last.unwrap_or_default();

    let campaign = config.campaign();
    let programs: Vec<ProbeProgram> = benches
        .iter()
        .map(|b| ProbeProgram {
            program: b.program().clone(),
            init_mem: b.init_mem.clone(),
            suite_name: Some(b.name),
        })
        .collect();
    let model = GraphSage::try_new(glaive_cdfg::FEATURE_DIM, &PipelineConfig::default().sage)
        .expect("default model shape");
    let costs: Vec<_> = programs
        .iter()
        .map(|p| probe::measure(p, ctx.seed, campaign, &model))
        .collect();
    let largest = (0..costs.len())
        .max_by_key(|&i| costs[i].specs)
        .unwrap_or(0);
    let (fabric_rate, fabric_same) = probe::fabric(&programs[largest], campaign);
    checks.expect(fabric_same, 1, || {
        "distributed ground truth differs from local".into()
    });

    // Graph build plus label join, over the truth the traced pass made.
    let joiner = Pipeline::builder(config)
        .truth_source(Arc::new(StoredTruth(
            data.iter().map(|d| d.truth.clone()).collect(),
        )))
        .workers(1)
        .build()
        .expect("valid config");
    let mut join_s = 0.0;
    let mut inject_s = 0.0;
    for ((bench, cost), d) in benches.iter().zip(&costs).zip(&data) {
        let t = Instant::now();
        let joined = joiner.prepare_benchmark(bench.clone());
        join_s += (t.elapsed().as_secs_f64() - cost.build_ms / 1e3).max(0.0);
        checks.expect(joined.is_ok_and(|j| j.labels == d.labels), 1, || {
            format!("{}: joining stored truth changed the labels", bench.name)
        });
        let simulated = (d.truth.total_injections() - d.truth.predicted_injections()) as f64;
        inject_s += simulated * crate::stats::mean(&cost.inject_us) / 1e6;
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let parent = wall * nproc;
    let row = LedgerRow::new("fi.cpu_s (wall x nproc)", parent, "s", "fi.unattributed_s")
        .child(
            "faultsim.plan_s",
            costs.iter().map(|c| c.plan_ms).sum::<f64>() / 1e3,
        )
        .child("faultsim.inject_s", inject_s)
        .child(
            "cdfg.build_s",
            costs.iter().map(|c| c.build_ms).sum::<f64>() / 1e3,
        )
        .child("core.join_s", join_s);
    let injections = done.first().map_or(0, |(p, _)| p.injections) as f64;
    Ledger {
        notes: vec![
            ("fi.wall_s".into(), wall, "s"),
            ("fi.passes".into(), done.len() as f64, "count"),
            ("fi.injections_per_pass".into(), injections, "count"),
            ("core.fi_efficiency".into(), inject_s / parent, "share"),
            ("nproc".into(), nproc, "count"),
        ],
        rows: vec![row],
        spans: recorder.take_spans(),
        per_layer: probe::per_layer(&costs, fabric_rate),
        trace_overhead_share: wall / untraced - 1.0,
    }
}
