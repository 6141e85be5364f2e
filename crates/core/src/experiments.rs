//! Experiment drivers reproducing §V of the paper. Each driver returns
//! plain row structs; the `glaive-bench` binaries format them as the
//! corresponding table or figure series.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use glaive_bench_suite::{Category, Split};
use glaive_faultsim::Campaign;

use crate::cache::{model_key, ArtifactCache};
use crate::config::PipelineConfig;
use crate::data::{train_set, BenchData};
use crate::error::Error;
use crate::metrics::{bit_accuracy, program_vulnerability_error, top_k_coverage};
use crate::models::{train_models_with, Method, Models};
use crate::telemetry::{NullObserver, Observer, Stage};

/// The number of workers a pool of `jobs` jobs should actually use
/// (`requested` 0 = available parallelism).
fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if requested == 0 { avail } else { requested };
    n.clamp(1, jobs.max(1))
}

/// A fully trained evaluation: the prepared suite plus one set of models
/// per distinct training split (round-robin n−1 for train/test members,
/// all-five for validation members).
#[derive(Debug)]
pub struct Evaluation {
    suite: Vec<BenchData>,
    /// Models keyed by the training-set signature (sorted names joined).
    models: HashMap<String, Models>,
    /// Test benchmark name → training-set signature.
    split_of: HashMap<String, String>,
}

impl Evaluation {
    /// Prepares models for every benchmark's evaluation split, training
    /// distinct splits concurrently on a scoped worker pool.
    ///
    /// # Errors
    ///
    /// [`Error::EmptySuite`] if `suite` is empty,
    /// [`Error::NoTrainingPartners`] if a benchmark has no same-category
    /// training partners.
    pub fn new(suite: Vec<BenchData>, config: &PipelineConfig) -> Result<Evaluation, Error> {
        Evaluation::with_runtime(suite, config, None, &NullObserver, 0)
    }

    /// [`Evaluation::new`] with the pipeline runtime threaded through:
    /// cached GLAIVE models are reused (and fresh ones written back), and
    /// per-split training timings go to `observer`.
    pub(crate) fn with_runtime(
        suite: Vec<BenchData>,
        config: &PipelineConfig,
        cache: Option<&ArtifactCache>,
        observer: &dyn Observer,
        workers: usize,
    ) -> Result<Evaluation, Error> {
        if suite.is_empty() {
            return Err(Error::EmptySuite);
        }
        let mut split_of = HashMap::new();
        let mut splits: Vec<(String, Vec<&BenchData>)> = Vec::new();
        for test in &suite {
            let train: Vec<&BenchData> = train_set(&suite, test).collect();
            if train.is_empty() {
                return Err(Error::NoTrainingPartners(test.bench.name.to_string()));
            }
            let mut names: Vec<&str> = train.iter().map(|d| d.bench.name).collect();
            names.sort_unstable();
            let key = names.join("+");
            if !splits.iter().any(|(k, _)| k == &key) {
                splits.push((key.clone(), train));
            }
            split_of.insert(test.bench.name.to_string(), key);
        }

        // Distinct splits share nothing, so train them concurrently.
        let jobs = splits.len();
        let workers = resolve_workers(workers, jobs);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<Models, Error>>>> =
            (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        return;
                    }
                    let (key, train) = &splits[i];
                    let out = train_split_supervised(key, train, config, cache, observer);
                    *slots[i].lock().expect("result slot") = Some(out);
                });
            }
        });

        let mut models = HashMap::new();
        for (slot, (key, _)) in slots.into_iter().zip(splits) {
            let trained = slot
                .into_inner()
                .expect("slot lock")
                .expect("worker filled slot")?;
            models.insert(key, trained);
        }
        Ok(Evaluation {
            suite,
            models,
            split_of,
        })
    }

    /// The prepared benchmarks.
    pub fn suite(&self) -> &[BenchData] {
        &self.suite
    }

    /// The benchmark data for `name`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownBenchmark`] if no suite member has that name.
    pub fn data(&self, name: &str) -> Result<&BenchData, Error> {
        self.suite
            .iter()
            .find(|d| d.bench.name == name)
            .ok_or_else(|| Error::UnknownBenchmark(name.to_string()))
    }

    /// The models trained for evaluating `name` (i.e. *without* seeing it
    /// if it is a train/test member).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownBenchmark`] if no suite member has that name.
    pub fn models_for(&self, name: &str) -> Result<&Models, Error> {
        let key = self
            .split_of
            .get(name)
            .ok_or_else(|| Error::UnknownBenchmark(name.to_string()))?;
        Ok(&self.models[key])
    }

    /// Internal lookup for suite members, whose splits exist by
    /// construction.
    fn models_of(&self, name: &str) -> &Models {
        self.models_for(name).expect("suite member has a split")
    }

    /// Table III: per-benchmark bit-classification accuracy of GLAIVE and
    /// MLP-BIT.
    pub fn accuracy_rows(&self) -> Vec<AccuracyRow> {
        self.suite
            .iter()
            .map(|d| {
                let models = self.models_of(d.bench.name);
                let glaive_preds = models
                    .bit_predictions(Method::Glaive, d)
                    .expect("bit-level");
                let mlp_preds = models
                    .bit_predictions(Method::MlpBit, d)
                    .expect("bit-level");
                AccuracyRow {
                    benchmark: d.bench.name.to_string(),
                    category: d.bench.category,
                    split: d.bench.split,
                    glaive: bit_accuracy(&glaive_preds, d),
                    mlp_bit: bit_accuracy(&mlp_preds, d),
                }
            })
            .collect()
    }

    /// Fig. 4: top-K coverage curves for every benchmark × method over the
    /// given protection budgets (percent).
    pub fn coverage_curves(&self, ks: &[f64]) -> Vec<CoverageCurve> {
        let mut curves = Vec::new();
        for d in &self.suite {
            let models = self.models_of(d.bench.name);
            for method in Method::ALL {
                let est = models.estimate(method, d);
                let points = ks
                    .iter()
                    .map(|&k| (k, top_k_coverage(&est, d, k)))
                    .collect();
                curves.push(CoverageCurve {
                    benchmark: d.bench.name.to_string(),
                    category: d.bench.category,
                    method,
                    points,
                });
            }
        }
        curves
    }

    /// Fig. 5a: program-vulnerability error per benchmark × method.
    pub fn pv_error_rows(&self) -> Vec<PvErrorRow> {
        self.suite
            .iter()
            .map(|d| {
                let models = self.models_of(d.bench.name);
                let errors =
                    Method::ALL.map(|m| program_vulnerability_error(&models.estimate(m, d), d));
                PvErrorRow {
                    benchmark: d.bench.name.to_string(),
                    category: d.bench.category,
                    errors,
                }
            })
            .collect()
    }

    /// Fig. 5b: wall-clock speedup of each method's estimation over a
    /// re-run FI campaign on `name`. Estimation is timed end-to-end from
    /// extracted features (the models are already trained, as in the
    /// paper's inference-time comparison).
    pub fn runtime_report(
        &self,
        name: &str,
        config: &PipelineConfig,
    ) -> Result<RuntimeReport, Error> {
        let d = self.data(name)?;
        let models = self.models_for(name)?;

        let t0 = Instant::now();
        let _ = Campaign::try_new(d.bench.program(), &d.bench.init_mem, config.campaign())
            .expect("pipeline campaign config is validated")
            .run();
        let fi_seconds = t0.elapsed().as_secs_f64();

        let method_seconds = Method::ALL.map(|m| {
            let t = Instant::now();
            let est = models.estimate(m, d);
            assert_eq!(est.len(), d.bench.program().len());
            t.elapsed().as_secs_f64()
        });
        Ok(RuntimeReport {
            benchmark: name.to_string(),
            fi_seconds,
            method_seconds,
        })
    }
}

/// Runs [`train_split`] under `catch_unwind`: a panic inside model training
/// is isolated to its split and retried up to
/// [`PipelineConfig::stage_retries`] times, each retry perturbing the model
/// seeds so a numerically degenerate initialisation is not replayed
/// verbatim. Seeded retries change the model cache key too, so a poisoned
/// artifact is never re-read.
fn train_split_supervised(
    key: &str,
    train: &[&BenchData],
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
) -> Result<Models, Error> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        let mut cfg = *config;
        if attempt > 1 {
            let bump = ((attempt - 1) as u64) << 32;
            cfg.sage.seed = config.sage.seed.wrapping_add(bump);
            cfg.mlp.seed = config.mlp.seed.wrapping_add(bump);
            cfg.forest.seed = config.forest.seed.wrapping_add(bump);
            cfg.svr.seed = config.svr.seed.wrapping_add(bump);
        }
        match catch_unwind(AssertUnwindSafe(|| {
            train_split(key, train, &cfg, cache, observer)
        })) {
            Ok(result) => return result,
            Err(payload) => {
                let message = crate::pipeline::panic_message(payload);
                observer.stage_failed(Stage::Training, key, attempt, &message);
                if attempt > config.stage_retries {
                    return Err(Error::StageFailed {
                        stage: Stage::Training,
                        subject: key.to_string(),
                        message,
                    });
                }
            }
        }
    }
}

/// Trains one split's models, consulting the artifact cache for the GLAIVE
/// GraphSAGE and reporting the training stage to `observer`.
fn train_split(
    key: &str,
    train: &[&BenchData],
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
) -> Result<Models, Error> {
    let cached = cache.and_then(|c| {
        let hit = c.load_model(model_key(train, config));
        observer.cache_lookup("model", key, hit.is_some());
        hit
    });
    let was_cached = cached.is_some();

    observer.stage_started(Stage::Training, key);
    let t0 = Instant::now();
    let models = train_models_with(train, config, cached);
    observer.stage_finished(Stage::Training, key, t0.elapsed(), train.len() as u64);

    if !was_cached {
        if let Some(c) = cache {
            c.store_model(model_key(train, config), models.glaive_model())?;
        }
    }
    Ok(models)
}

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Control- or data-sensitive.
    pub category: Category,
    /// Train/test or validation membership.
    pub split: Split,
    /// GLAIVE bit-classification accuracy.
    pub glaive: f64,
    /// MLP-BIT bit-classification accuracy.
    pub mlp_bit: f64,
}

/// One Fig.-4 curve.
#[derive(Debug, Clone)]
pub struct CoverageCurve {
    /// Benchmark name.
    pub benchmark: String,
    /// Control- or data-sensitive.
    pub category: Category,
    /// Estimation method.
    pub method: Method,
    /// `(K%, coverage)` points.
    pub points: Vec<(f64, f64)>,
}

impl CoverageCurve {
    /// Mean coverage across the curve's budgets.
    pub fn mean_coverage(&self) -> f64 {
        self.points.iter().map(|&(_, c)| c).sum::<f64>() / self.points.len() as f64
    }
}

/// One row of Fig. 5a.
#[derive(Debug, Clone)]
pub struct PvErrorRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Control- or data-sensitive.
    pub category: Category,
    /// Program-vulnerability error per method, in M1..M4 order.
    pub errors: [f64; 4],
}

/// One Fig.-5b measurement.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Wall-clock seconds of the FI campaign.
    pub fi_seconds: f64,
    /// Wall-clock seconds of each method's estimation, in M1..M4 order.
    pub method_seconds: [f64; 4],
}

impl RuntimeReport {
    /// Speedup of each method over FI, in M1..M4 order.
    pub fn speedups(&self) -> [f64; 4] {
        self.method_seconds.map(|s| self.fi_seconds / s.max(1e-9))
    }
}

/// The protection budgets of Fig. 4: 5 % to 100 % in steps of 5.
pub fn paper_budgets() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 5.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::prepare_benchmark;
    use glaive_bench_suite::control::{dijkstra, sobel};

    #[test]
    fn resolve_workers_clamps_to_jobs() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 12), 2);
        assert!(resolve_workers(0, 12) >= 1);
        assert_eq!(resolve_workers(0, 0), 1);
    }

    /// A miniature two-benchmark evaluation exercising the full loop.
    fn tiny_eval() -> (Evaluation, PipelineConfig) {
        let config = PipelineConfig::quick_test();
        let suite = vec![
            prepare_benchmark(dijkstra::build(1), &config),
            prepare_benchmark(sobel::build(1), &config),
        ];
        (Evaluation::new(suite, &config).expect("splittable"), config)
    }

    #[test]
    fn round_robin_training_excludes_test_benchmark() {
        let (eval, _) = tiny_eval();
        // With two benchmarks, each is evaluated on a model trained only on
        // the other.
        assert_eq!(eval.split_of["dijkstra"], "sobel");
        assert_eq!(eval.split_of["sobel"], "dijkstra");
    }

    #[test]
    fn accuracy_rows_are_probabilities() {
        let (eval, _) = tiny_eval();
        let rows = eval.accuracy_rows();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(
                (0.0..=1.0).contains(&r.glaive),
                "{}: {}",
                r.benchmark,
                r.glaive
            );
            assert!((0.0..=1.0).contains(&r.mlp_bit));
        }
    }

    #[test]
    fn coverage_curves_cover_all_methods_and_budgets() {
        let (eval, _) = tiny_eval();
        let ks = [10.0, 50.0, 100.0];
        let curves = eval.coverage_curves(&ks);
        assert_eq!(curves.len(), 2 * Method::ALL.len());
        for c in &curves {
            assert_eq!(c.points.len(), ks.len());
            for &(_, cov) in &c.points {
                assert!((0.0..=1.0).contains(&cov));
            }
            let m = c.mean_coverage();
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn pv_error_rows_are_bounded() {
        let (eval, _) = tiny_eval();
        for row in eval.pv_error_rows() {
            for e in row.errors {
                // L1 distance between two distributions is at most 2.
                assert!((0.0..=2.0).contains(&e), "{}: {e}", row.benchmark);
            }
        }
    }

    #[test]
    fn runtime_report_shows_ml_faster_than_fi() {
        let (eval, config) = tiny_eval();
        let report = eval
            .runtime_report("dijkstra", &config)
            .expect("known name");
        assert!(report.fi_seconds > 0.0);
        for s in report.speedups() {
            assert!(s > 1.0, "estimation should beat fault injection, got {s}x");
        }
    }

    #[test]
    fn bad_inputs_surface_as_errors() {
        let config = PipelineConfig::quick_test();
        assert!(matches!(
            Evaluation::new(vec![], &config),
            Err(Error::EmptySuite)
        ));
        let lone = vec![prepare_benchmark(dijkstra::build(1), &config)];
        assert!(matches!(
            Evaluation::new(lone, &config),
            Err(Error::NoTrainingPartners(name)) if name == "dijkstra"
        ));

        let (eval, config) = tiny_eval();
        assert!(matches!(
            eval.data("nope"),
            Err(Error::UnknownBenchmark(name)) if name == "nope"
        ));
        assert!(eval.models_for("nope").is_err());
        assert!(eval.runtime_report("nope", &config).is_err());
    }

    #[test]
    fn paper_budgets_match_figure_4() {
        let ks = paper_budgets();
        assert_eq!(ks.len(), 20);
        assert_eq!(ks[0], 5.0);
        assert_eq!(ks[19], 100.0);
    }

    #[test]
    fn training_panic_is_retried_with_a_perturbed_seed() {
        use crate::telemetry::test_support::PanicOnStart;
        use crate::telemetry::TimingRecorder;
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        let mut config = PipelineConfig::quick_test();
        config.stage_retries = 1;
        let suite = vec![
            prepare_benchmark(dijkstra::build(1), &config),
            prepare_benchmark(sobel::build(1), &config),
        ];

        let panicker = Arc::new(PanicOnStart {
            stage: Stage::Training,
            subject: None,
            remaining: AtomicUsize::new(1), // fail one attempt, then recover
        });
        let recorder = Arc::new(TimingRecorder::new());
        let fan = crate::telemetry::Fanout(vec![panicker, recorder.clone()]);
        let eval = Evaluation::with_runtime(suite, &config, None, &fan, 1)
            .expect("retry recovers the split");
        assert_eq!(eval.suite().len(), 2);
        let failures = recorder.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, Stage::Training);
    }

    #[test]
    fn exhausted_training_retries_surface_as_stage_failed() {
        use crate::telemetry::test_support::PanicOnStart;
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        let config = PipelineConfig::quick_test(); // stage_retries = 0
        let suite = vec![
            prepare_benchmark(dijkstra::build(1), &config),
            prepare_benchmark(sobel::build(1), &config),
        ];
        let panicker = Arc::new(PanicOnStart {
            stage: Stage::Training,
            subject: None,
            remaining: AtomicUsize::new(usize::MAX),
        });
        let err = Evaluation::with_runtime(suite, &config, None, panicker.as_ref(), 1)
            .expect_err("training always panics");
        assert!(
            matches!(
                err,
                Error::StageFailed {
                    stage: Stage::Training,
                    ..
                }
            ),
            "{err}"
        );
    }
}
