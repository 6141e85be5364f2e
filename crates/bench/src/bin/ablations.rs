//! Ablation studies for the design decisions called out in DESIGN.md §5:
//!
//! 1. **Aggregator** — predecessor-only MEAN (paper Eq. 2) vs vanilla
//!    all-neighbour GraphSAGE (Eq. 1): the paper's core model change.
//! 2. **Bit-level vs word-level** — the paper's central empirical claim:
//!    `bit_stride = 64` collapses each operand to a single node, removing
//!    the bit-position signal.
//! 3. **Neighbour sample size** — the paper fixes 50; the sweep shows the
//!    sensitivity.
//!
//! Run on the data-sensitive category (where the paper's deltas are
//! largest) to keep runtime manageable. No ablation changes the fault
//! campaigns, so the suite is prepared once and each ablation trains on a
//! copy. Every evaluation goes through a pipeline on the binary's
//! artifact cache and timing recorder, like every paper binary, so a
//! repeat run reuses the trained GraphSAGE models.

use std::sync::Arc;

use glaive::experiments::Evaluation;
use glaive::metrics::bit_accuracy;
use glaive::telemetry::TimingRecorder;
use glaive::{BenchData, Error, Method, PipelineConfig};
use glaive_bench::{experiment_config, experiment_pipeline, finish_telemetry, prepared_suite};
use glaive_bench_suite::Category;

fn mean_accuracy(eval: &Evaluation, vanilla: bool) -> Result<f64, Error> {
    let suite = eval.suite();
    let mut sum = 0.0;
    for d in suite {
        let models = eval.models_for(d.bench.name)?;
        let preds = if vanilla {
            models.vanilla_bit_predictions(d).expect("vanilla trained")
        } else {
            models.bit_predictions(Method::Glaive, d)?
        };
        sum += bit_accuracy(&preds, d);
    }
    Ok(sum / suite.len() as f64)
}

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let recorder = Arc::new(TimingRecorder::new());
        let base = experiment_config();
        let evaluate = |suite: Vec<BenchData>, config: PipelineConfig| {
            experiment_pipeline(config, &recorder)?.evaluation(suite)
        };
        let suite = prepared_suite(&experiment_pipeline(base, &recorder)?)?;
        let data: Vec<BenchData> = suite
            .into_iter()
            .filter(|d| d.bench.category == Category::Data)
            .collect();

        // 1. Aggregator ablation.
        eprintln!("[1/3] aggregator ablation (predecessor vs all-neighbour)...");
        let mut config = base;
        config.train_vanilla = true;
        let eval = evaluate(data.clone(), config)?;
        println!("# Ablation 1: aggregation direction (data-sensitive mean accuracy)");
        println!("predecessor_mean\t{:.4}", mean_accuracy(&eval, false)?);
        println!("all_neighbour_mean\t{:.4}", mean_accuracy(&eval, true)?);

        // 2. Bit-level vs word-level representations, scored against the SAME
        //    FI ground truth (campaign stride stays at the base setting; only
        //    the graph the models see is coarsened to one node per operand,
        //    by re-joining each benchmark's truth onto the coarser graph).
        eprintln!("[2/3] bit-level vs word-level graphs...");
        println!("# Ablation 2: graph granularity (data-sensitive mean GLAIVE PV error / mean top-K coverage)");
        for graph_stride in [base.bit_stride, 64] {
            let suite: Vec<BenchData> = if graph_stride == base.bit_stride {
                data.clone()
            } else {
                data.iter()
                    .map(|d| d.with_graph_stride(graph_stride))
                    .collect()
            };
            let eval = evaluate(suite, base)?;
            let n = eval.suite().len() as f64;
            let pve: f64 = eval
                .pv_error_rows()
                .iter()
                .map(|r| r.errors[0])
                .sum::<f64>()
                / n;
            let ks = glaive::experiments::paper_budgets();
            let cov: f64 = eval
                .coverage_curves(&ks)
                .iter()
                .filter(|c| c.method == Method::Glaive)
                .map(|c| c.mean_coverage())
                .sum::<f64>()
                / n;
            let label = if graph_stride == 64 {
                "word-level"
            } else {
                "bit-level"
            };
            println!("{label}(graph_stride={graph_stride})\t{pve:.4}\t{cov:.4}");
        }

        // 3. Neighbour sample size.
        eprintln!("[3/3] neighbour sample size sweep...");
        println!("# Ablation 3: neighbour sample size (data-sensitive mean accuracy)");
        for sample in [5usize, 15, 50] {
            let mut config = base;
            config.sage.sample_size = sample;
            let eval = evaluate(data.clone(), config)?;
            println!("sample={sample}\t{:.4}", mean_accuracy(&eval, false)?);
        }

        finish_telemetry(&recorder);
        Ok(())
    })
}
