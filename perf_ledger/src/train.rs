//! `train`: the model-building cost a user pays — `glaive::train_models`
//! at the default pipeline configuration on the training set of a
//! held-out validation program. Compute-bound; bypasses serving and
//! fault injection (the campaigns it learns from run in set-up).

use std::sync::Arc;
use std::time::Instant;

use glaive::{train_models, train_set, BenchData, Method, Models, Pipeline, PipelineConfig};
use glaive_bench_suite::{suite, Benchmark, Category, Split};
use glaive_gnn::{GraphSage, TrainGraph};
use glaive_ml::{MlpClassifier, RandomForest, SvrRff};
use glaive_nn::Matrix;

use crate::probe::{self, ProbeProgram};
use crate::stats::{first_decile, LedgerRow};
use crate::trace::Recorder;
use crate::{check_stored_digest, digest, Checks, Ctx, Ledger, Outcome};

/// The held-out control program whose model set is trained: its training
/// set is the five control train/test programs.
const HELD_OUT: &str = "inversek2j";

/// The default model and training configuration on graphs of every
/// sixteenth bit (the default is every eighth): a `train_models` call then
/// takes about 5 s on a 2-CPU host, so a run times several calls. Node
/// counts halve; what the models are and how they train does not change.
const STRIDE: usize = 16;

fn config(ctx: &Ctx) -> PipelineConfig {
    if ctx.smoke {
        let mut c = PipelineConfig::quick_test();
        c.train_vanilla = false;
        c
    } else {
        PipelineConfig {
            bit_stride: STRIDE,
            ..PipelineConfig::default()
        }
    }
}

fn benches(seed: u64) -> Vec<Benchmark> {
    suite(seed)
        .into_iter()
        .filter(|b| {
            b.category == Category::Control && (b.split == Split::TrainTest || b.name == HELD_OUT)
        })
        .collect()
}

fn fit_digest(data: &[BenchData]) -> u64 {
    let bytes: Vec<Vec<u8>> = data.iter().map(|d| d.truth.to_bytes()).collect();
    digest(bytes.iter().map(Vec::as_slice))
}

/// Timed `train_models` calls; returns (model digest, seconds) per call
/// and the last model set.
fn train_ops(
    ctx: &Ctx,
    train: &[&BenchData],
    config: &PipelineConfig,
    recorder: Option<&Recorder>,
) -> (Vec<(u64, f64)>, Models) {
    let mut last = None;
    let ops = ctx.repeat(|| {
        let fit = || train_models(train, config);
        let models = match recorder {
            Some(r) => r.top("core.train_models", fit).0,
            None => fit(),
        };
        let d = digest([models.glaive_model().to_bytes().as_slice()]);
        last = Some(models);
        d
    });
    (ops, last.expect("at least one call"))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let config = config(ctx);
    let mut fit_digests = Vec::new();
    let (data, setup_s) = ctx.setup(|| {
        let data = Pipeline::new(config)
            .expect("valid config")
            .prepare_benchmarks(benches(ctx.seed))
            .expect("training programs prepare");
        fit_digests.push(fit_digest(&data));
        data
    });
    let mut checks = Checks::default();
    checks.expect(fit_digests.iter().all(|&d| d == fit_digests[0]), 1, || {
        "ground truth differs between set-ups".into()
    });
    check_stored_digest(ctx, "train-fit", fit_digests[0], 1, &mut checks);

    let held = data
        .iter()
        .find(|d| d.bench.name == HELD_OUT)
        .expect("held-out program prepared");
    let train: Vec<&BenchData> = train_set(&data, held).collect();
    let labelled: usize = train.iter().map(|d| d.bit_datapoints()).sum();

    let (ops, models) = train_ops(ctx, &train, &config, None);
    checks.attempted += ops.len() as u64;
    for (d, _) in &ops {
        checks.expect(*d == ops[0].0, 1, || {
            "model bytes differ between calls".into()
        });
    }
    check_stored_digest(ctx, "train-model", ops[0].0, 1, &mut checks);
    check_estimates(&models, held, &mut checks);

    let secs: Vec<f64> = ops.iter().map(|(_, s)| *s).collect();
    eprintln!("train_models seconds: {secs:.3?}");
    let train_s = first_decile(&secs);
    let ledger = ctx
        .trace
        .then(|| trace(ctx, &config, &data, &train, &models, train_s, &mut checks));
    Outcome {
        setup_s,
        checks,
        work_per_s: labelled as f64 / train_s,
        latency_ms: train_s * 1e3,
        report: vec![
            ("train_s".into(), train_s, "s"),
            ("train_calls".into(), ops.len() as f64, "count"),
            ("labelled_nodes".into(), labelled as f64, "count"),
        ],
        ledger,
    }
}

/// GLAIVE's estimate of the held-out program covers every FI-covered
/// instruction with a finite, normalised tuple.
fn check_estimates(models: &Models, held: &BenchData, checks: &mut Checks) {
    let estimate = models.estimate(Method::Glaive, held);
    for pc in held.covered_pcs() {
        checks.attempted += 1;
        let ok = estimate[pc].is_some_and(|t| {
            let sum = t.crash + t.sdc + t.masked;
            sum.is_finite() && (sum - 1.0).abs() < 1e-6
        });
        checks.expect(ok, 1, || {
            format!("{}: bad estimate at pc {pc}", held.bench.name)
        });
    }
}

/// The three baseline fits of `train_models`, on matrices stacked the way
/// it stacks them; returns their seconds (MLP, forest, SVR).
fn baseline_fits(train: &[&BenchData], config: &PipelineConfig) -> [f64; 3] {
    let dim = train[0].features.cols();
    let labelled: usize = train.iter().map(|d| d.bit_datapoints()).sum();
    let mut x = Matrix::zeros(labelled, dim);
    let mut y = Vec::with_capacity(labelled);
    for d in train {
        for (i, _) in d.mask.iter().enumerate().filter(|(_, &m)| m) {
            x.row_mut(y.len()).copy_from_slice(d.features.row(i));
            y.push(d.labels[i]);
        }
    }
    let rows: usize = train.iter().map(|d| d.instr_datapoints()).sum();
    let mut xi = Matrix::zeros(rows, glaive_cdfg::INSTR_FEATURE_DIM);
    let mut yi = Matrix::zeros(rows, 3);
    let mut row = 0;
    for d in train {
        for pc in d.covered_pcs() {
            xi.row_mut(row).copy_from_slice(d.instr_features.row(pc));
            let t = d.fi_tuples[pc].expect("covered");
            yi.row_mut(row)
                .copy_from_slice(&[t.crash as f32, t.sdc as f32, t.masked as f32]);
            row += 1;
        }
    }
    let t = Instant::now();
    let mut mlp = MlpClassifier::try_new(dim, 3, &config.mlp).expect("valid model config");
    mlp.train(&x, &y, None);
    let mlp_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(RandomForest::fit(&xi, &yi, &config.forest));
    let forest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(SvrRff::fit(&xi, &yi, &config.svr));
    [mlp_s, forest_s, t.elapsed().as_secs_f64()]
}

fn trace(
    ctx: &Ctx,
    config: &PipelineConfig,
    data: &[BenchData],
    train: &[&BenchData],
    models: &Models,
    untraced: f64,
    checks: &mut Checks,
) -> Ledger {
    let recorder = Arc::new(Recorder::new(Instant::now()));
    let (ops, _) = train_ops(ctx, train, config, Some(&recorder));
    let train_s = first_decile(&ops.iter().map(|(_, s)| *s).collect::<Vec<_>>());

    // The GNN part of `train_models`, replayed alone; it must reproduce
    // the same model bytes.
    let graphs: Vec<TrainGraph<'_>> = train
        .iter()
        .map(|d| TrainGraph {
            features: &d.features,
            graph: &d.preds,
            labels: &d.labels,
            mask: &d.mask,
        })
        .collect();
    let t = Instant::now();
    let mut gnn = GraphSage::try_new(train[0].features.cols(), &config.sage).expect("valid shape");
    gnn.train_with_threads(&graphs, config.train_threads);
    let gnn_s = t.elapsed().as_secs_f64();
    checks.expect(
        gnn.to_bytes() == models.glaive_model().to_bytes(),
        1,
        || "GNN trained alone differs from train_models' GNN".into(),
    );
    let [mlp_s, forest_s, svr_s] = baseline_fits(train, config);

    let held = data
        .iter()
        .find(|d| d.bench.name == HELD_OUT)
        .expect("held-out program prepared");
    let t = Instant::now();
    std::hint::black_box(models.estimate(Method::Glaive, held));
    let estimate_ms = t.elapsed().as_secs_f64() * 1e3;

    let campaign = config.campaign();
    let programs: Vec<ProbeProgram> = data
        .iter()
        .map(|d| ProbeProgram {
            program: d.bench.program().clone(),
            init_mem: d.bench.init_mem.clone(),
            suite_name: Some(d.bench.name),
        })
        .collect();
    let costs: Vec<_> = programs
        .iter()
        .map(|p| probe::measure(p, ctx.seed, campaign, models.glaive_model()))
        .collect();
    let largest = (0..costs.len())
        .max_by_key(|&i| costs[i].specs)
        .unwrap_or(0);
    let (fabric_rate, fabric_same) = probe::fabric(&programs[largest], campaign);
    checks.expect(fabric_same, 1, || {
        "distributed ground truth differs from local".into()
    });

    let row = LedgerRow::new("core.train_models_s", train_s, "s", "core.train_other_s")
        .child("gnn.train_s", gnn_s)
        .child("ml.mlp_s", mlp_s)
        .child("ml.forest_s", forest_s)
        .child("ml.svr_s", svr_s);
    Ledger {
        rows: vec![row],
        notes: vec![
            (
                "gnn.epoch_ms".into(),
                gnn_s * 1e3 / config.sage.epochs as f64,
                "ms",
            ),
            ("core.estimate_ms".into(), estimate_ms, "ms"),
            ("train.calls".into(), ops.len() as f64, "count"),
            (
                "train.labelled_nodes".into(),
                train.iter().map(|d| d.bit_datapoints()).sum::<usize>() as f64,
                "count",
            ),
        ],
        spans: recorder.take_spans(),
        per_layer: probe::per_layer(&costs, fabric_rate),
        trace_overhead_share: train_s / untraced - 1.0,
    }
}
