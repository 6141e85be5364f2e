//! Per-layer probes: each layer's public entry points, called from
//! outside on a workload's own programs and timed one call at a time.
//! Every workload runs the same probes on its own inputs, so each
//! per-layer metric reads "what this layer costs per program of this
//! workload".

use std::sync::Arc;
use std::time::Instant;

use glaive_bench_suite::suite;
use glaive_campaign::{run_distributed, FabricConfig};
use glaive_cdfg::{Cdfg, CdfgConfig, FEATURE_DIM};
use glaive_faultsim::{Campaign, CampaignConfig, RunControl};
use glaive_gnn::{GraphSage, SampledCsr, TrainGraph};
use glaive_isa::Program;
use glaive_nn::{DetRng, Matrix};
use glaive_serve::{
    program_fingerprint, BatchWorkspace, GraphCache, PredictReply, PreparedProgram, ProgramSpec,
    Request, Response, WireTuple,
};
use glaive_sim::{run, run_with_fault, ExecConfig};
use glaive_timing::{try_profile, InOrderCost};

use crate::gen::TOP_K;
use crate::stats::{mean, median};
use crate::Metric;

/// Every this-many-th fault spec is injected serially by the probes and
/// by the fault-injection replay oracle.
pub const INJECT_STEP: usize = 97;
/// Probe samples per program at most; larger programs sample sparser.
const INJECT_CAP: usize = 400;

/// One program a workload runs, with its input image (empty for
/// client-shipped programs) and its suite name, if any.
#[derive(Clone)]
pub struct ProbeProgram {
    pub program: Program,
    pub init_mem: Vec<u64>,
    pub suite_name: Option<&'static str>,
}

/// What each layer costs on one program.
#[derive(Debug, Clone, Default)]
pub struct Cost {
    pub golden_ms: f64,
    pub dyn_instrs: u64,
    pub plan_ms: f64,
    pub specs: usize,
    pub predicted: usize,
    pub inject_us: Vec<f64>,
    pub inject_instrs: Vec<f64>,
    pub build_ms: f64,
    pub nodes: usize,
    pub gnn_forward_ms: f64,
    pub sample_ms: f64,
    pub step_ms: f64,
    pub resolve_ms: f64,
    pub lookup_us: f64,
    pub prep_ms: f64,
    pub serve_forward_ms: f64,
    pub reply_us: f64,
    pub profile_ms: f64,
    pub codec_us: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median time of `reps` calls, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect();
    median(&times)
}

/// The reply the server owes for `prepared` given its forward-pass rows:
/// per-PC tuples and the top-K protection set, computed serially the same
/// way the server's batcher does.
pub fn reply_from_probs(
    prepared: &PreparedProgram,
    probs: &Matrix,
    top_k: u32,
) -> (Vec<Option<WireTuple>>, Vec<u32>) {
    let tuples = glaive::aggregate_bit_probs(&prepared.cdfg, prepared.program.len(), probs);
    let mut ranked: Vec<u32> = (0..tuples.len() as u32)
        .filter(|&pc| tuples[pc as usize].is_some())
        .collect();
    let key = |pc: u32| tuples[pc as usize].map_or(0.0, |t| t.ranking_key());
    ranked.sort_by(|&a, &b| key(b).total_cmp(&key(a)).then(a.cmp(&b)));
    ranked.truncate(top_k as usize);
    let wire = tuples
        .iter()
        .map(|t| t.map(|v| [v.crash as f32, v.sdc as f32, v.masked as f32]))
        .collect();
    (wire, ranked)
}

/// The request a workload sends for `p`.
pub fn predict_request(p: &ProbeProgram, seed: u64, stride: usize) -> Request {
    let spec = match p.suite_name {
        Some(name) => ProgramSpec::Suite {
            name: name.to_string(),
            seed,
        },
        None => ProgramSpec::Raw(p.program.clone()),
    };
    Request::Predict {
        spec,
        stride: stride as u32,
        top_k: TOP_K,
        want_bits: false,
    }
}

/// Runs every layer probe on one program.
pub fn measure(p: &ProbeProgram, seed: u64, campaign: CampaignConfig, model: &GraphSage) -> Cost {
    let stride = campaign.bit_stride;
    let cdfg_config = CdfgConfig { bit_stride: stride };
    let mut c = Cost::default();

    let t = Instant::now();
    let golden = run(&p.program, &p.init_mem, &ExecConfig::default());
    c.golden_ms = ms(t);
    c.dyn_instrs = golden.dyn_instrs;

    let fi = Campaign::try_new(&p.program, &p.init_mem, campaign).expect("validated config");
    let t = Instant::now();
    let plan = fi.plan().expect("workload programs halt cleanly");
    c.plan_ms = ms(t);
    c.specs = plan.specs.len();
    c.predicted = plan.predicted.len();
    let step = INJECT_STEP.max(plan.specs.len().div_ceil(INJECT_CAP));
    for spec in plan.specs.iter().step_by(step) {
        let t = Instant::now();
        std::hint::black_box(fi.inject(spec, &plan.golden, &plan.fault_cfg));
        c.inject_us.push(us(t));
        let faulty = run_with_fault(&p.program, &p.init_mem, &plan.fault_cfg, spec);
        c.inject_instrs.push(faulty.dyn_instrs as f64);
    }

    let t = Instant::now();
    let cdfg = Cdfg::build(&p.program, &cdfg_config);
    c.build_ms = ms(t);
    c.nodes = cdfg.node_count();
    let features = Matrix::from_vec(c.nodes, FEATURE_DIM, cdfg.feature_matrix());

    let t = Instant::now();
    std::hint::black_box(model.predict_proba(&features, cdfg.preds_csr()));
    c.gnn_forward_ms = ms(t);

    let mut rng = DetRng::new(1);
    let mut sampled = SampledCsr::new();
    let k = model.config().sample_size;
    sampled.resample(cdfg.preds_csr(), k, &mut rng);
    let t = Instant::now();
    sampled.resample(cdfg.preds_csr(), k, &mut rng);
    c.sample_ms = ms(t);
    // Gradient cost does not depend on label values, so every node is
    // labelled Masked.
    let labels = vec![0usize; c.nodes];
    let mask = vec![true; c.nodes];
    let graph = TrainGraph {
        features: &features,
        graph: cdfg.preds_csr(),
        labels: &labels,
        mask: &mask,
    };
    let t = Instant::now();
    std::hint::black_box(model.compute_gradients(&graph, sampled.view()));
    c.step_ms = ms(t);

    c.resolve_ms = match p.suite_name {
        Some(name) => {
            median_us(5, || {
                std::hint::black_box(
                    suite(seed)
                        .into_iter()
                        .find(|b| b.name == name)
                        .map(|b| (b.program().clone(), b.init_mem)),
                );
            }) / 1e3
        }
        None => {
            median_us(5, || {
                std::hint::black_box(p.program.clone());
            }) / 1e3
        }
    };

    let t = Instant::now();
    let key = program_fingerprint(&p.program, stride);
    let prepared = Arc::new(PreparedProgram::build(p.program.clone(), &cdfg_config));
    c.prep_ms = ms(t);

    let cache = GraphCache::with_shards(32, 8);
    cache.get_or_build(key, &p.program, stride, || {
        PreparedProgram::build(p.program.clone(), &cdfg_config)
    });
    c.lookup_us = median_us(31, || {
        let key = program_fingerprint(&p.program, stride);
        let (_, hit) = cache.get_or_build(key, &p.program, stride, || {
            PreparedProgram::build(p.program.clone(), &cdfg_config)
        });
        assert!(hit, "a freshly inserted program must hit");
    });

    let mut workspace = BatchWorkspace::new();
    workspace.run_prepared(model, std::slice::from_ref(&prepared));
    let t = Instant::now();
    let result = workspace.run_prepared(model, std::slice::from_ref(&prepared));
    c.serve_forward_ms = ms(t);

    let t = Instant::now();
    let (tuples, top_k) = reply_from_probs(&prepared, &result[0].probs, TOP_K);
    c.reply_us = us(t);

    let t = Instant::now();
    std::hint::black_box(
        try_profile(
            &p.program,
            &p.init_mem,
            &ExecConfig::default(),
            InOrderCost::default(),
        )
        .expect("workload programs fit their memory"),
    );
    c.profile_ms = ms(t);

    let request = predict_request(p, seed, stride);
    let reply = Response::Predict(PredictReply {
        tuples,
        top_k,
        node_count: c.nodes as u32,
        batch_size: 1,
        bit_probs: None,
    });
    c.codec_us = median_us(11, || {
        let frame = request.to_frame();
        std::hint::black_box(Request::from_frame(frame.bytes()).expect("own frame decodes"));
        let frame = reply.to_frame();
        std::hint::black_box(Response::from_frame(frame.bytes()).expect("own frame decodes"));
    });
    c
}

/// Distributed-campaign throughput on `p` (two in-process workers), and
/// whether its ground truth is byte-identical to a local campaign's.
pub fn fabric(p: &ProbeProgram, campaign: CampaignConfig) -> (f64, bool) {
    let local = Campaign::try_new(&p.program, &p.init_mem, campaign)
        .expect("validated config")
        .run();
    let t = Instant::now();
    let distributed = run_distributed(
        &p.program,
        &p.init_mem,
        campaign,
        FabricConfig::default(),
        2,
        &RunControl::new(),
    );
    let secs = t.elapsed().as_secs_f64();
    match distributed {
        Ok(truth) => (
            truth.total_injections() as f64 / secs,
            truth.to_bytes() == local.to_bytes(),
        ),
        Err(e) => {
            eprintln!("fabric probe failed: {e}");
            (0.0, false)
        }
    }
}

/// The per-layer metrics of a probed program set: per-program means,
/// except counts, which are totals.
pub fn per_layer(costs: &[Cost], fabric_rate: f64) -> Vec<Metric> {
    let avg = |f: fn(&Cost) -> f64| mean(&costs.iter().map(f).collect::<Vec<_>>());
    let golden_s: f64 = costs.iter().map(|c| c.golden_ms / 1e3).sum();
    let instrs: u64 = costs.iter().map(|c| c.dyn_instrs).sum();
    let inject_us: Vec<f64> = costs.iter().flat_map(|c| c.inject_us.clone()).collect();
    let inject_instrs: Vec<f64> = costs.iter().flat_map(|c| c.inject_instrs.clone()).collect();
    vec![
        ("sim.golden_ms".into(), avg(|c| c.golden_ms), "ms"),
        (
            "sim.minstr_per_s".into(),
            instrs as f64 / golden_s / 1e6,
            "Minstr/s",
        ),
        ("faultsim.plan_ms".into(), avg(|c| c.plan_ms), "ms"),
        (
            "faultsim.specs".into(),
            costs.iter().map(|c| c.specs).sum::<usize>() as f64,
            "count",
        ),
        (
            "faultsim.predicted_share".into(),
            costs.iter().map(|c| c.predicted).sum::<usize>() as f64
                / costs.iter().map(|c| c.specs).sum::<usize>().max(1) as f64,
            "share",
        ),
        ("faultsim.inject_us".into(), mean(&inject_us), "us"),
        (
            "faultsim.instrs_per_injection".into(),
            mean(&inject_instrs),
            "count",
        ),
        (
            "campaign.fabric_injections_per_s".into(),
            fabric_rate,
            "1/s",
        ),
        ("cdfg.build_ms".into(), avg(|c| c.build_ms), "ms"),
        (
            "cdfg.nodes".into(),
            costs.iter().map(|c| c.nodes).sum::<usize>() as f64,
            "count",
        ),
        ("gnn.forward_ms".into(), avg(|c| c.gnn_forward_ms), "ms"),
        ("gnn.sample_ms".into(), avg(|c| c.sample_ms), "ms"),
        ("gnn.step_ms".into(), avg(|c| c.step_ms), "ms"),
        ("serve.resolve_ms".into(), avg(|c| c.resolve_ms), "ms"),
        ("serve.cache_lookup_us".into(), avg(|c| c.lookup_us), "us"),
        ("serve.prep_ms".into(), avg(|c| c.prep_ms), "ms"),
        ("serve.forward_ms".into(), avg(|c| c.serve_forward_ms), "ms"),
        ("serve.reply_us".into(), avg(|c| c.reply_us), "us"),
        ("serve.profile_ms".into(), avg(|c| c.profile_ms), "ms"),
        ("wire.codec_us".into(), avg(|c| c.codec_us), "us"),
    ]
}
