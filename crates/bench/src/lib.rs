//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (§V).
//!
//! Each artefact has one printer in [`paper`]; its binary prints that one
//! table/figure as TSV to stdout, and `paper_results` prints all six from
//! one trained evaluation. Pass `--quick` (or set `GLAIVE_QUICK=1`) to run
//! with the subsampled test configuration instead of the full experiment
//! configuration — useful for smoke tests.
//! Pass `--no-cache` (or set `GLAIVE_NO_CACHE=1`) to bypass the on-disk
//! artifact cache; by default repeat runs reuse cached FI campaigns and
//! trained GLAIVE models, which the timing summary printed to stderr makes
//! visible as cache hits.
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Fig. 2 (vulnerability distributions) | `fig2_distribution` |
//! | Table II (dataset sizes) | `table2_datasets` |
//! | Table III (accuracy) | `table3_accuracy` |
//! | Fig. 4 (top-K coverage) | `fig4_coverage` |
//! | Fig. 5a (program vulnerability error) | `fig5a_pv_error` |
//! | Fig. 5b (speedup over FI) | `fig5b_speedup` |
//! | All six above | `paper_results` |
//! | DESIGN.md ablations | `ablations` |
//!
//! Timing lives in the repository's one benchmark, `perf_ledger`.

pub mod paper;

use std::sync::Arc;

use glaive::experiments::Evaluation;
use glaive::telemetry::TimingRecorder;
use glaive::{BenchData, Error, Pipeline, PipelineConfig};

/// The seed every experiment binary uses for benchmark inputs, so tables
/// printed by different binaries refer to the same programs and campaigns.
pub const EXPERIMENT_SEED: u64 = 7;

/// Returns `true` if `--quick` was passed or `GLAIVE_QUICK` is set.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("GLAIVE_QUICK").is_ok()
}

/// Returns `true` if `--no-cache` was passed or `GLAIVE_NO_CACHE` is set.
fn cache_disabled() -> bool {
    std::env::args().any(|a| a == "--no-cache") || std::env::var("GLAIVE_NO_CACHE").is_ok()
}

/// The pipeline configuration for this invocation (full or quick).
pub fn experiment_config() -> PipelineConfig {
    if quick_requested() {
        PipelineConfig::quick_test()
    } else {
        PipelineConfig::default()
    }
}

/// The pipeline runtime every experiment binary shares, over `config`:
/// the artifact cache (unless disabled) and `recorder`, whose summary the
/// caller prints via [`finish_telemetry`]. A binary that evaluates under
/// several configurations builds one pipeline per configuration on one
/// recorder.
pub fn experiment_pipeline(
    config: PipelineConfig,
    recorder: &Arc<TimingRecorder>,
) -> Result<Pipeline, Error> {
    let mut builder = Pipeline::builder(config).observer(recorder.clone());
    if !cache_disabled() {
        builder = builder.default_cache();
    }
    builder.build()
}

/// Prints the stage timing summary (campaign / graph / training wall-clock
/// plus cache hit counts) to stderr.
pub fn finish_telemetry(recorder: &TimingRecorder) {
    eprint!("{}", recorder.summary());
}

/// Runs an experiment body, printing any pipeline error to stderr and
/// converting it into a failing exit code — so the binaries propagate
/// [`Error`] with `?` instead of panicking.
pub fn run_experiment(body: impl FnOnce() -> Result<(), Error>) -> std::process::ExitCode {
    match body() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Prepares the 12-benchmark suite and trains all round-robin model sets,
/// reporting stage timings and cache activity to stderr.
///
/// Preparation runs supervised: a failure summary is printed to stderr
/// before the configured quorum is checked, so a degraded or aborted run
/// still reports every benchmark's fate.
pub fn standard_evaluation() -> Result<(Evaluation, PipelineConfig), Error> {
    let recorder = Arc::new(TimingRecorder::new());
    let config = experiment_config();
    let pipeline = experiment_pipeline(config, &recorder)?;
    eprintln!(
        "preparing suite (seed {EXPERIMENT_SEED}, bit stride {}, {} instances/site)...",
        config.bit_stride, config.instances_per_site
    );
    let suite = prepared_suite(&pipeline)?;
    let eval = pipeline.evaluation(suite)?;
    finish_telemetry(&recorder);
    Ok((eval, config))
}

/// Prepares the suite only (no model training), for data-statistics
/// binaries.
pub fn standard_suite() -> Result<(Vec<BenchData>, PipelineConfig), Error> {
    let recorder = Arc::new(TimingRecorder::new());
    let config = experiment_config();
    let suite = prepared_suite(&experiment_pipeline(config, &recorder)?)?;
    finish_telemetry(&recorder);
    Ok((suite, config))
}

/// Supervised suite preparation shared by the experiment entry points:
/// renders the failure summary (if any) to stderr, then applies the
/// configured quorum policy.
pub fn prepared_suite(pipeline: &Pipeline) -> Result<Vec<BenchData>, Error> {
    let mut report = pipeline.prepare_suite_supervised(EXPERIMENT_SEED);
    if let Some(summary) = report.failure_summary() {
        eprint!("{summary}");
    }
    report.check_quorum(pipeline.config().quorum)?;
    Ok(report.take_prepared())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_env_is_detected() {
        // Uses the env-var path (args can't be faked portably in a test).
        std::env::set_var("GLAIVE_QUICK", "1");
        assert!(quick_requested());
        assert_eq!(experiment_config(), PipelineConfig::quick_test());
        std::env::remove_var("GLAIVE_QUICK");
    }

    #[test]
    fn no_cache_env_is_detected() {
        std::env::set_var("GLAIVE_NO_CACHE", "1");
        assert!(cache_disabled());
        std::env::remove_var("GLAIVE_NO_CACHE");
    }
}
