//! The pipeline runtime: one configured object that runs suite
//! preparation, training and evaluation with an optional on-disk artifact
//! cache and stage telemetry.
//!
//! [`Pipeline`] is the Result-based front door to the crate; the free
//! functions in [`crate::data`] remain as thin cache-less wrappers.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use glaive_bench_suite::{suite, Benchmark};
use glaive_faultsim::{CampaignProgress, CheckpointSink, GroundTruth, InterruptReason, RunControl};
use glaive_gnn::GraphSage;

use crate::cache::{truth_key, ArtifactCache};
use crate::config::{PipelineConfig, QuorumPolicy};
use crate::data::{assemble_bench_data, BenchData};
use crate::error::Error;
use crate::experiments::Evaluation;
use crate::models::cached_glaive;
use crate::telemetry::{NullObserver, Observer, Stage};
use crate::truth_source::{LocalTruthSource, TruthSource};

/// Forwards campaign injection counts to the pipeline observer.
struct CampaignAdapter<'a> {
    observer: &'a dyn Observer,
    subject: &'a str,
}

impl CampaignProgress for CampaignAdapter<'_> {
    fn injections(&self, done: usize, total: usize) {
        self.observer
            .progress(Stage::Campaign, self.subject, done as u64, total as u64);
    }
}

/// Renders a caught panic payload as a message (panics carry `&str` or
/// `String` payloads in practice).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The fate of one benchmark under supervised suite preparation.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// Preparation attempts made (a panicked stage is retried up to
    /// [`PipelineConfig::stage_retries`] times; 0 = never started).
    pub attempts: usize,
    /// Wall-clock spent on this benchmark across attempts.
    pub elapsed: Duration,
    /// `None` on success; the terminal error otherwise.
    pub error: Option<Error>,
}

/// The result of supervised suite preparation: successfully prepared
/// benchmarks plus a per-benchmark success/failure/timing record, so
/// partial failures degrade gracefully instead of tearing the run down.
#[derive(Debug)]
pub struct SuiteReport {
    prepared: Vec<BenchData>,
    outcomes: Vec<BenchOutcome>,
    elapsed: Duration,
}

impl SuiteReport {
    /// Successfully prepared benchmarks, in request order.
    pub fn prepared(&self) -> &[BenchData] {
        &self.prepared
    }

    /// Extracts the prepared benchmarks, leaving the outcome records in
    /// place (for feeding an [`Evaluation`] while keeping the report).
    pub fn take_prepared(&mut self) -> Vec<BenchData> {
        std::mem::take(&mut self.prepared)
    }

    /// Per-benchmark outcomes, in request order (one per requested
    /// benchmark, successes included).
    pub fn outcomes(&self) -> &[BenchOutcome] {
        &self.outcomes
    }

    /// Wall-clock of the whole preparation.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The outcomes that failed.
    pub fn failures(&self) -> Vec<&BenchOutcome> {
        self.outcomes.iter().filter(|o| o.error.is_some()).collect()
    }

    /// Whether every requested benchmark prepared successfully.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(|o| o.error.is_none())
    }

    /// A multi-line, human-readable account of the failures (`None` when
    /// the suite is complete). Rendered by the CLI after degraded runs.
    pub fn failure_summary(&self) -> Option<String> {
        use std::fmt::Write as _;
        let failures = self.failures();
        if failures.is_empty() {
            return None;
        }
        let mut out = format!(
            "{}/{} benchmarks failed preparation:\n",
            failures.len(),
            self.outcomes.len()
        );
        for o in failures {
            let error = o.error.as_ref().expect("failures have errors");
            writeln!(
                out,
                "  {}: {error} ({} attempt{}, {:.2}s)",
                o.benchmark,
                o.attempts,
                if o.attempts == 1 { "" } else { "s" },
                o.elapsed.as_secs_f64()
            )
            .expect("write to string");
        }
        Some(out)
    }

    /// Checks the degradation policy: [`QuorumPolicy::FailFast`] rejects
    /// any failure (returning the first benchmark's error, preferring a
    /// genuine failure over a cancellation ripple), and
    /// [`QuorumPolicy::MinBenchmarks`] rejects only when too few
    /// benchmarks survived.
    ///
    /// # Errors
    ///
    /// The first failure under `FailFast`; [`Error::QuorumNotMet`] under an
    /// unsatisfied `MinBenchmarks`.
    pub fn check_quorum(&self, policy: QuorumPolicy) -> Result<(), Error> {
        match policy {
            QuorumPolicy::FailFast => match self.first_error() {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            },
            QuorumPolicy::MinBenchmarks(required) => {
                let prepared = self.prepared.len();
                if prepared >= required {
                    Ok(())
                } else {
                    Err(Error::QuorumNotMet {
                        prepared,
                        required,
                        failed: self.failures().len(),
                    })
                }
            }
        }
    }

    /// The most causal error: the first non-[`Error::Interrupted`] failure
    /// in request order (under fail-fast, one genuine failure cancels the
    /// rest, so interruptions are symptoms), falling back to the first
    /// interruption when nothing genuinely failed.
    pub fn first_error(&self) -> Option<&Error> {
        let errors = || self.outcomes.iter().filter_map(|o| o.error.as_ref());
        errors()
            .find(|e| !matches!(e, Error::Interrupted { .. }))
            .or_else(|| errors().next())
    }

    /// Collapses the report into the strict all-or-nothing result of the
    /// unsupervised API.
    ///
    /// # Errors
    ///
    /// The report's [`first_error`](SuiteReport::first_error), if any.
    pub fn into_result(self) -> Result<Vec<BenchData>, Error> {
        match self.first_error() {
            Some(e) => Err(e.clone()),
            None => Ok(self.prepared),
        }
    }
}

/// A configured pipeline runtime.
///
/// Construct via [`Pipeline::builder`]; every entry point returns
/// `Result<_, `[`Error`]`>` — unknown names, invalid configurations,
/// un-splittable suites and cache-write failures come back as values
/// instead of panics.
#[derive(Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    cache: Option<ArtifactCache>,
    observer: Arc<dyn Observer>,
    truth_source: Arc<dyn TruthSource>,
    workers: usize,
    cancel: Option<Arc<AtomicBool>>,
}

/// Builder for [`Pipeline`].
pub struct PipelineBuilder {
    pipeline: Pipeline,
}

impl PipelineBuilder {
    /// Attaches an on-disk artifact cache: FI ground truth and trained
    /// GLAIVE models are reused across runs when their content keys match.
    pub fn cache(mut self, cache: ArtifactCache) -> Self {
        self.pipeline.cache = Some(cache);
        self
    }

    /// Attaches the artifact cache at its conventional location
    /// ([`ArtifactCache::at_default_location`]).
    pub fn default_cache(self) -> Self {
        self.cache(ArtifactCache::at_default_location())
    }

    /// Attaches a telemetry observer (timing recorder, stderr progress, or
    /// a [`Fanout`](crate::telemetry::Fanout) of several).
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.pipeline.observer = observer;
        self
    }

    /// Replaces how ground truth is produced on a cache miss (the default
    /// is a local supervised campaign, [`LocalTruthSource`]). Any
    /// conforming source — e.g. a distributed campaign fabric — is a
    /// drop-in: sources are bit-deterministic, so the artifacts cached
    /// under a truth key are identical whichever source computed them.
    pub fn truth_source(mut self, source: Arc<dyn TruthSource>) -> Self {
        self.pipeline.truth_source = source;
        self
    }

    /// How many distinct training splits [`Pipeline::evaluation`] trains
    /// at once (0 = available parallelism), each on one thread: a split
    /// trains serially, whatever [`PipelineConfig::train_threads`] says,
    /// and 1 trains the splits one after another. Suite preparation
    /// ignores it: benchmarks are prepared in order, each campaign on
    /// [`PipelineConfig::threads`] cores.
    pub fn workers(mut self, n: usize) -> Self {
        self.pipeline.workers = n;
        self
    }

    /// Attaches a cooperative cancellation flag: raising it (e.g. from a
    /// Ctrl-C handler) stops suite preparation before the next chunk
    /// lease, checkpointing interrupted campaigns. Every campaign the
    /// pipeline starts gets this flag as its [`RunControl::cancel`].
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.pipeline.cancel = Some(flag);
        self
    }

    /// Validates the configuration and yields the runtime.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if the pipeline configuration violates an
    /// invariant (see [`PipelineConfig::validate`]).
    pub fn build(self) -> Result<Pipeline, Error> {
        self.pipeline.config.validate()?;
        Ok(self.pipeline)
    }
}

impl Pipeline {
    /// A builder seeded with `config`, no cache, and silent telemetry.
    pub fn builder(config: PipelineConfig) -> PipelineBuilder {
        PipelineBuilder {
            pipeline: Pipeline {
                config,
                cache: None,
                observer: Arc::new(NullObserver),
                truth_source: Arc::new(LocalTruthSource),
                workers: 0,
                cancel: None,
            },
        }
    }

    /// A cache-less, silent pipeline over `config`.
    pub fn new(config: PipelineConfig) -> Result<Pipeline, Error> {
        Pipeline::builder(config).build()
    }

    /// The validated configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Prepares one benchmark: FI campaign (or cache hit) + graph build.
    ///
    /// The campaign runs supervised on [`PipelineConfig::threads`] cores
    /// — panics are caught and retried per
    /// [`PipelineConfig::stage_retries`], the suite deadline and the
    /// cancellation flag are honoured, and interrupted campaigns checkpoint into the
    /// cache for a later resume.
    ///
    /// # Errors
    ///
    /// [`Error::StageFailed`] after exhausted retries,
    /// [`Error::Interrupted`] on cancellation or deadline, [`Error::Truth`]
    /// for a degenerate benchmark, or [`Error::Cache`] if a freshly
    /// computed ground truth cannot be written back. Cache *reads* never
    /// fail — a missing or corrupt artifact is recomputed.
    pub fn prepare_benchmark(&self, bench: Benchmark) -> Result<BenchData, Error> {
        let suite_deadline = self.config.suite_deadline.map(|d| Instant::now() + d);
        self.prepare_one(bench, suite_deadline).0
    }

    /// Prepares the full 12-benchmark Table-II suite, in order.
    pub fn prepare_suite(&self, seed: u64) -> Result<Vec<BenchData>, Error> {
        self.prepare_benchmarks(suite(seed))
    }

    /// Prepares an arbitrary benchmark list, in order.
    ///
    /// Strict all-or-nothing view over the supervised driver: any failure
    /// is returned as this method's error. Use
    /// [`Pipeline::prepare_benchmarks_supervised`] for per-benchmark
    /// outcomes and partial results.
    pub fn prepare_benchmarks(&self, benches: Vec<Benchmark>) -> Result<Vec<BenchData>, Error> {
        self.prepare_benchmarks_supervised(benches).into_result()
    }

    /// Prepares the full suite under supervision, yielding per-benchmark
    /// outcomes instead of failing on the first error.
    pub fn prepare_suite_supervised(&self, seed: u64) -> SuiteReport {
        self.prepare_benchmarks_supervised(suite(seed))
    }

    /// Prepares an arbitrary benchmark list under supervision, one
    /// benchmark after another, each exactly as
    /// [`Pipeline::prepare_benchmark`] does (its campaign on every
    /// configured core). Panicking stages are isolated to their benchmark
    /// (and retried per [`PipelineConfig::stage_retries`]), interrupted
    /// campaigns checkpoint into the cache, and the report records every
    /// benchmark's fate so callers can degrade gracefully via
    /// [`SuiteReport::check_quorum`].
    ///
    /// Before each benchmark the loop checks the cancellation flag, the
    /// suite deadline and, under [`QuorumPolicy::FailFast`], any earlier
    /// genuine failure; once one of them fires, the remaining benchmarks
    /// are recorded as interrupted with zero attempts and never started.
    pub fn prepare_benchmarks_supervised(&self, benches: Vec<Benchmark>) -> SuiteReport {
        let t_suite = Instant::now();
        let suite_deadline = self.config.suite_deadline.map(|d| t_suite + d);
        let mut prepared = Vec::with_capacity(benches.len());
        let mut outcomes = Vec::with_capacity(benches.len());
        let mut failed_fast = false;
        for bench in benches {
            let t0 = Instant::now();
            let name = bench.name;
            let (result, attempts) = match self.suite_interruption(failed_fast, suite_deadline) {
                Some(reason) => (
                    Err(Error::Interrupted {
                        subject: name.to_string(),
                        reason,
                        completed: 0,
                        total: 0,
                    }),
                    0,
                ),
                None => self.prepare_one(bench, suite_deadline),
            };
            let error = match result {
                Ok(data) => {
                    prepared.push(data);
                    None
                }
                Err(e) => {
                    // A genuine failure (not an interruption) under
                    // fail-fast stops the rest of the suite.
                    failed_fast |= self.config.quorum == QuorumPolicy::FailFast
                        && !matches!(e, Error::Interrupted { .. });
                    Some(e)
                }
            };
            outcomes.push(BenchOutcome {
                benchmark: name.to_string(),
                attempts,
                elapsed: t0.elapsed(),
                error,
            });
        }
        SuiteReport {
            prepared,
            outcomes,
            elapsed: t_suite.elapsed(),
        }
    }

    /// Trains the round-robin model sets for `suite` (reusing cached
    /// GLAIVE models where possible) and yields the evaluation.
    ///
    /// # Errors
    ///
    /// [`Error::EmptySuite`], [`Error::NoTrainingPartners`], or
    /// [`Error::Cache`] on a model write-back failure.
    pub fn evaluation(&self, suite: Vec<BenchData>) -> Result<Evaluation, Error> {
        Evaluation::with_runtime(
            suite,
            &self.config,
            self.cache.as_ref(),
            self.observer.as_ref(),
            self.workers,
        )
    }

    /// Trains the GLAIVE GraphSAGE alone on `train` — the model
    /// `glaive-cli train` ships — as one training stage. The artifact
    /// cache is shared with [`Pipeline::evaluation`]: a model cached for
    /// the same training set and configuration is reused, and a fresh one
    /// is written back. Bit-identical to
    /// [`Models::glaive_model`](crate::Models::glaive_model) of a
    /// [`train_models`](crate::train_models) call on the same inputs.
    ///
    /// # Errors
    ///
    /// [`Error::EmptySuite`] if `train` is empty, or [`Error::Cache`] on a
    /// model write-back failure.
    pub fn train_glaive(&self, train: &[&BenchData]) -> Result<GraphSage, Error> {
        if train.is_empty() {
            return Err(Error::EmptySuite);
        }
        let subject = train
            .iter()
            .map(|d| d.bench.name)
            .collect::<Vec<_>>()
            .join(",");
        let observer = self.observer.as_ref();
        observer.stage_started(Stage::Training, &subject);
        let t0 = Instant::now();
        let model = cached_glaive(train, &self.config, self.cache.as_ref(), observer, &subject)?;
        observer.stage_finished(Stage::Training, &subject, t0.elapsed(), train.len() as u64);
        Ok(model)
    }

    /// The whole pipeline: suite preparation, then training and
    /// evaluation.
    pub fn run(&self, seed: u64) -> Result<Evaluation, Error> {
        let suite = self.prepare_suite(seed)?;
        self.evaluation(suite)
    }

    /// The whole pipeline under supervision: supervised suite preparation,
    /// the configured quorum check, then training and evaluation over
    /// whatever survived. Returns the evaluation together with the
    /// preparation report (whose failure summary the caller can render).
    ///
    /// # Errors
    ///
    /// The quorum violation ([`SuiteReport::check_quorum`]) or any training
    /// error.
    pub fn run_supervised(&self, seed: u64) -> Result<(Evaluation, SuiteReport), Error> {
        let mut report = self.prepare_suite_supervised(seed);
        report.check_quorum(self.config.quorum)?;
        let eval = self.evaluation(report.take_prepared())?;
        Ok((eval, report))
    }

    /// Why the suite loop stops starting benchmarks, if it does: a raised
    /// cancellation flag or an earlier fail-fast failure reads as
    /// cancellation, then the suite deadline.
    fn suite_interruption(
        &self,
        failed_fast: bool,
        suite_deadline: Option<Instant>,
    ) -> Option<InterruptReason> {
        let cancelled = self
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed));
        if failed_fast || cancelled {
            return Some(InterruptReason::Cancelled);
        }
        if suite_deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(InterruptReason::DeadlineExceeded);
        }
        None
    }

    /// Supervised preparation of one benchmark: each attempt runs under
    /// `catch_unwind` so a panic anywhere in the campaign or graph build is
    /// isolated to this benchmark, and panicked attempts are retried up to
    /// [`PipelineConfig::stage_retries`] times. Returns the terminal result
    /// and the number of attempts made.
    fn prepare_one(
        &self,
        bench: Benchmark,
        suite_deadline: Option<Instant>,
    ) -> (Result<BenchData, Error>, usize) {
        let name = bench.name;
        let mut attempts = 0;
        loop {
            attempts += 1;
            let current_stage = Cell::new(Stage::Campaign);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.prepare_attempt(bench.clone(), suite_deadline, &current_stage)
            }));
            match outcome {
                Ok(result) => return (result, attempts),
                Err(payload) => {
                    let message = panic_message(payload);
                    self.observer
                        .stage_failed(current_stage.get(), name, attempts, &message);
                    if attempts <= self.config.stage_retries {
                        continue;
                    }
                    return (
                        Err(Error::StageFailed {
                            stage: current_stage.get(),
                            subject: name.to_string(),
                            message,
                        }),
                        attempts,
                    );
                }
            }
        }
    }

    /// One supervised preparation attempt: campaign-or-cache (with
    /// checkpoint resume, cancellation and the suite deadline) plus graph
    /// build.
    /// `current_stage` tracks where execution is so a caught panic can be
    /// attributed.
    fn prepare_attempt(
        &self,
        bench: Benchmark,
        suite_deadline: Option<Instant>,
        current_stage: &Cell<Stage>,
    ) -> Result<BenchData, Error> {
        let (config, cache, observer) = (&self.config, self.cache.as_ref(), self.observer.as_ref());
        let name = bench.name;
        current_stage.set(Stage::Campaign);
        let truth = match load_cached_truth(&bench, config, cache, observer) {
            Some(truth) => truth,
            None => {
                observer.stage_started(Stage::Campaign, name);
                let t0 = Instant::now();
                let adapter = CampaignAdapter {
                    observer,
                    subject: name,
                };
                let key = truth_key(&bench, &config.campaign());
                let sink = cache.map(|c| c.checkpoint_sink(key));
                let ctrl = RunControl {
                    progress: &adapter,
                    cancel: self.cancel.as_deref(),
                    deadline: suite_deadline,
                    checkpoint: sink.as_ref().map(|s| s as &dyn CheckpointSink),
                    checkpoint_interval: config.checkpoint_interval,
                };
                let truth = self
                    .truth_source
                    .ground_truth(&bench, config.campaign(), &ctrl)?;
                // A degenerate campaign (no observations at all) cannot back
                // any vulnerability statistic — fail this benchmark's
                // preparation rather than panicking at aggregation time.
                truth.try_program_vulnerability()?;
                observer.stage_finished(
                    Stage::Campaign,
                    name,
                    t0.elapsed(),
                    truth.total_injections() as u64,
                );
                if let Some(cache) = cache {
                    cache.store_truth(key, &truth)?;
                    // The completed truth supersedes any partial snapshot.
                    cache.checkpoint_sink(key).clear();
                }
                truth
            }
        };

        current_stage.set(Stage::GraphBuild);
        observer.stage_started(Stage::GraphBuild, name);
        let t0 = Instant::now();
        let data = assemble_bench_data(bench, config.bit_stride, truth);
        observer.stage_finished(
            Stage::GraphBuild,
            name,
            t0.elapsed(),
            data.cdfg.node_count() as u64,
        );
        Ok(data)
    }
}

/// A cached ground truth for `bench`, if present, intact, and shaped like
/// the benchmark's program (a key collision or stale artifact fails the
/// shape check and is recomputed).
fn load_cached_truth(
    bench: &Benchmark,
    config: &PipelineConfig,
    cache: Option<&ArtifactCache>,
    observer: &dyn Observer,
) -> Option<GroundTruth> {
    let cache = cache?;
    let key = truth_key(bench, &config.campaign());
    let truth = cache
        .load_truth(key)
        .filter(|t| t.golden().exec_counts.len() == bench.program().len());
    observer.cache_lookup("fi", bench.name, truth.is_some());
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    use crate::telemetry::test_support::PanicOnStart;
    use crate::telemetry::{Fanout, TimingRecorder};
    use glaive_bench_suite::control::{dijkstra, sobel};
    use glaive_faultsim::CampaignConfig;

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("glaive-pipeline-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    #[test]
    fn build_rejects_invalid_config() {
        let mut config = PipelineConfig::quick_test();
        config.bit_stride = 0;
        assert!(matches!(
            Pipeline::builder(config).build(),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn parallel_preparation_matches_serial() {
        let config = PipelineConfig::quick_test();
        let serial = crate::data::prepare_benchmark(dijkstra::build(1), &config);
        let pipeline = Pipeline::builder(config).workers(2).build().expect("valid");
        let parallel = pipeline
            .prepare_benchmarks(vec![dijkstra::build(1), sobel::build(1)])
            .expect("no cache writes");
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].bench.name, "dijkstra");
        assert_eq!(parallel[1].bench.name, "sobel");
        // Campaign results are deterministic, so parallel == serial.
        assert_eq!(parallel[0].labels, serial.labels);
        assert_eq!(parallel[0].truth.records(), serial.truth.records());
    }

    #[test]
    fn second_run_hits_the_truth_cache() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("truth-hit");

        let rec1 = Arc::new(TimingRecorder::new());
        let p1 = Pipeline::builder(config)
            .cache(cache.clone())
            .observer(rec1.clone())
            .build()
            .expect("valid");
        let first = p1.prepare_benchmark(dijkstra::build(1)).expect("prepare");
        assert_eq!(rec1.cache_counts(), (0, 1));

        let rec2 = Arc::new(TimingRecorder::new());
        let p2 = Pipeline::builder(config)
            .cache(cache)
            .observer(rec2.clone())
            .build()
            .expect("valid");
        let second = p2.prepare_benchmark(dijkstra::build(1)).expect("prepare");
        assert_eq!(rec2.cache_counts(), (1, 0));
        // No campaign stage ran on the hit path.
        assert!(rec2.timings().iter().all(|t| t.stage != Stage::Campaign));

        assert_eq!(first.truth.records(), second.truth.records());
        assert_eq!(first.labels, second.labels);
        assert_eq!(first.fi_tuples, second.fi_tuples);
    }

    #[test]
    fn second_train_glaive_hits_the_model_cache() {
        let config = PipelineConfig::quick_test();
        let train = [crate::data::prepare_benchmark(dijkstra::build(1), &config)];
        let refs: Vec<&BenchData> = train.iter().collect();
        let rec = Arc::new(TimingRecorder::new());
        let pipeline = Pipeline::builder(config)
            .cache(temp_cache("model-hit"))
            .observer(rec.clone())
            .build()
            .expect("valid");

        let first = pipeline.train_glaive(&refs).expect("train").to_bytes();
        assert_eq!(rec.cache_counts(), (0, 1), "first call trains");
        let second = pipeline.train_glaive(&refs).expect("cached").to_bytes();
        assert_eq!(rec.cache_counts(), (1, 1), "second call hits");
        assert_eq!(first, second);
        assert_eq!(
            first,
            crate::models::train_glaive(&refs, &config).to_bytes(),
            "cached model is the uncached one"
        );
        assert!(matches!(pipeline.train_glaive(&[]), Err(Error::EmptySuite)));
    }

    #[test]
    fn changing_campaign_parameters_invalidates_the_cache() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("invalidate");
        Pipeline::builder(config)
            .cache(cache.clone())
            .build()
            .expect("valid")
            .prepare_benchmark(dijkstra::build(1))
            .expect("prepare");

        for altered in [
            {
                let mut c = config;
                c.bit_stride = 8;
                c
            },
            {
                let mut c = config;
                c.instances_per_site = 2;
                c
            },
        ] {
            let rec = Arc::new(TimingRecorder::new());
            Pipeline::builder(altered)
                .cache(cache.clone())
                .observer(rec.clone())
                .build()
                .expect("valid")
                .prepare_benchmark(dijkstra::build(1))
                .expect("prepare");
            assert_eq!(rec.cache_counts(), (0, 1), "altered config must miss");
        }
    }

    #[test]
    fn panicking_stage_is_isolated_to_its_benchmark() {
        let mut config = PipelineConfig::quick_test();
        config.quorum = QuorumPolicy::MinBenchmarks(1);
        let observer = Arc::new(PanicOnStart {
            stage: Stage::Campaign,
            subject: Some("dijkstra"),
            remaining: AtomicUsize::new(usize::MAX),
        });
        let pipeline = Pipeline::builder(config)
            .observer(observer)
            .workers(2)
            .build()
            .expect("valid");
        let report =
            pipeline.prepare_benchmarks_supervised(vec![dijkstra::build(1), sobel::build(1)]);

        assert!(!report.is_complete());
        assert_eq!(report.prepared().len(), 1);
        assert_eq!(report.prepared()[0].bench.name, "sobel");
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].benchmark, "dijkstra");
        assert!(matches!(
            failures[0].error,
            Some(Error::StageFailed {
                stage: Stage::Campaign,
                ..
            })
        ));
        let summary = report.failure_summary().expect("failures present");
        assert!(summary.contains("dijkstra"), "{summary}");
        assert!(summary.contains("synthetic campaign failure"), "{summary}");

        assert!(report.check_quorum(QuorumPolicy::MinBenchmarks(1)).is_ok());
        assert!(matches!(
            report.check_quorum(QuorumPolicy::MinBenchmarks(2)),
            Err(Error::QuorumNotMet {
                prepared: 1,
                required: 2,
                failed: 1
            })
        ));
        assert!(report.check_quorum(QuorumPolicy::FailFast).is_err());
    }

    #[test]
    fn panicked_stage_is_retried_and_attempts_are_recorded() {
        let mut config = PipelineConfig::quick_test();
        config.stage_retries = 1;
        let panicker = Arc::new(PanicOnStart {
            stage: Stage::Campaign,
            subject: Some("dijkstra"),
            remaining: AtomicUsize::new(1), // fail the first attempt only
        });
        let recorder = Arc::new(TimingRecorder::new());
        let pipeline = Pipeline::builder(config)
            .observer(Arc::new(Fanout(vec![panicker, recorder.clone()])))
            .build()
            .expect("valid");
        let report = pipeline.prepare_benchmarks_supervised(vec![dijkstra::build(1)]);

        assert!(report.is_complete(), "{:?}", report.failure_summary());
        assert_eq!(report.outcomes()[0].attempts, 2);
        let failures = recorder.failures();
        assert_eq!(failures.len(), 1, "one failed attempt went to telemetry");
        assert_eq!(failures[0], (Stage::Campaign, "dijkstra".to_string()));
    }

    #[test]
    fn expired_suite_deadline_interrupts_queued_benchmarks() {
        let mut config = PipelineConfig::quick_test();
        config.suite_deadline = Some(Duration::ZERO);
        let pipeline = Pipeline::builder(config).build().expect("valid");
        let report =
            pipeline.prepare_benchmarks_supervised(vec![dijkstra::build(1), sobel::build(1)]);
        assert_eq!(report.prepared().len(), 0);
        for outcome in report.outcomes() {
            assert!(
                matches!(
                    outcome.error,
                    Some(Error::Interrupted {
                        reason: InterruptReason::DeadlineExceeded,
                        ..
                    })
                ),
                "{}: {:?}",
                outcome.benchmark,
                outcome.error
            );
        }
        assert!(matches!(
            report.check_quorum(QuorumPolicy::MinBenchmarks(1)),
            Err(Error::QuorumNotMet { .. })
        ));
    }

    /// Records every stage start, in order.
    #[derive(Default)]
    struct StartLog(Mutex<Vec<(Stage, String)>>);

    impl Observer for StartLog {
        fn stage_started(&self, stage: Stage, subject: &str) {
            self.0
                .lock()
                .expect("log lock")
                .push((stage, subject.to_string()));
        }
    }

    #[test]
    fn fail_fast_failure_keeps_later_benchmarks_from_starting() {
        let mut config = PipelineConfig::quick_test();
        config.quorum = QuorumPolicy::FailFast;
        config.stage_retries = 0;
        let log = Arc::new(StartLog::default());
        let panicker = Arc::new(PanicOnStart {
            stage: Stage::Campaign,
            subject: Some("dijkstra"),
            remaining: AtomicUsize::new(usize::MAX),
        });
        let pipeline = Pipeline::builder(config)
            .observer(Arc::new(Fanout(vec![log.clone(), panicker])))
            .workers(2)
            .build()
            .expect("valid");
        let report =
            pipeline.prepare_benchmarks_supervised(vec![dijkstra::build(1), sobel::build(1)]);

        let [first, second] = report.outcomes() else {
            panic!("one outcome per benchmark: {:?}", report.outcomes());
        };
        assert!(
            matches!(
                first.error,
                Some(Error::StageFailed {
                    stage: Stage::Campaign,
                    ..
                })
            ),
            "{:?}",
            first.error
        );
        assert_eq!(second.benchmark, "sobel");
        assert_eq!(second.attempts, 0, "sobel was never attempted");
        assert!(
            matches!(
                second.error,
                Some(Error::Interrupted {
                    reason: InterruptReason::Cancelled,
                    completed: 0,
                    ..
                })
            ),
            "{:?}",
            second.error
        );
        let started = log.0.lock().expect("log lock");
        assert!(
            !started
                .iter()
                .any(|(stage, subject)| *stage == Stage::Campaign && subject == "sobel"),
            "sobel's campaign started: {started:?}"
        );
        // The genuine failure, not the cancellation it caused, is reported.
        assert!(matches!(
            report.check_quorum(QuorumPolicy::FailFast),
            Err(Error::StageFailed { .. })
        ));
    }

    /// A truth source that never reports progress: it polls the control's
    /// interruption check, as a fabric that merges nothing or a retry
    /// backoff waiting on `ctrl.cancel` does, and gives up after 3 s.
    struct SilentSource;

    impl TruthSource for SilentSource {
        fn ground_truth(
            &self,
            bench: &Benchmark,
            _config: CampaignConfig,
            ctrl: &RunControl<'_>,
        ) -> Result<GroundTruth, Error> {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_secs(3) {
                if let Some(reason) = ctrl.interruption() {
                    return Err(Error::Interrupted {
                        subject: bench.name.to_string(),
                        reason,
                        completed: 0,
                        total: 0,
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(Error::StageFailed {
                stage: Stage::Campaign,
                subject: bench.name.to_string(),
                message: "the cancel flag never reached the truth source".to_string(),
            })
        }
    }

    #[test]
    fn cancel_reaches_a_truth_source_that_reports_no_progress() {
        type Prepare = fn(&Pipeline) -> Option<Error>;
        let entry_points: [(&str, Prepare); 2] = [
            ("prepare_benchmark", |p| {
                p.prepare_benchmark(dijkstra::build(1)).err()
            }),
            ("prepare_benchmarks_supervised", |p| {
                p.prepare_benchmarks_supervised(vec![dijkstra::build(1)])
                    .first_error()
                    .cloned()
            }),
        ];
        for (entry, prepare) in entry_points {
            let cancel = Arc::new(AtomicBool::new(false));
            let pipeline = Pipeline::builder(PipelineConfig::quick_test())
                .truth_source(Arc::new(SilentSource))
                .cancel_flag(cancel.clone())
                .build()
                .expect("valid");
            let err = std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(200));
                    cancel.store(true, Ordering::Relaxed);
                });
                prepare(&pipeline)
            });
            assert!(
                matches!(
                    err,
                    Some(Error::Interrupted {
                        reason: InterruptReason::Cancelled,
                        ..
                    })
                ),
                "{entry}: {err:?}"
            );
        }
    }

    /// Raises the pipeline's external cancel flag once campaign progress
    /// starts flowing — simulates a Ctrl-C arriving mid-campaign.
    struct CancelOnProgress {
        flag: Arc<AtomicBool>,
    }

    impl Observer for CancelOnProgress {
        fn progress(&self, stage: Stage, _subject: &str, done: u64, _total: u64) {
            if stage == Stage::Campaign && done > 0 {
                self.flag.store(true, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn cancelled_campaign_checkpoints_into_cache_and_resumes_identically() {
        let config = PipelineConfig::quick_test();
        let reference = [dijkstra::build(1), sobel::build(1)]
            .map(|b| crate::data::prepare_benchmark(b, &config));

        // One benchmark through `prepare_benchmark`, and two through the
        // suite loop, where the cancel raised inside the first campaign
        // must also keep the second from starting.
        let inputs = [
            ("ckpt-resume", vec![dijkstra::build(1)]),
            (
                "ckpt-resume-suite",
                vec![dijkstra::build(1), sobel::build(1)],
            ),
        ];
        for (tag, benches) in inputs {
            let cache = temp_cache(tag);
            let keys: Vec<_> = benches
                .iter()
                .map(|b| truth_key(b, &config.campaign()))
                .collect();
            let cancel = Arc::new(AtomicBool::new(false));
            let pipeline = Pipeline::builder(config)
                .cache(cache.clone())
                .observer(Arc::new(CancelOnProgress {
                    flag: cancel.clone(),
                }))
                .cancel_flag(cancel)
                .build()
                .expect("valid");
            let err = match benches.as_slice() {
                [bench] => pipeline
                    .prepare_benchmark(bench.clone())
                    .expect_err("cancelled mid-campaign"),
                _ => {
                    let report = pipeline.prepare_benchmarks_supervised(benches.clone());
                    assert!(
                        report.outcomes()[1..].iter().all(|o| o.attempts == 0),
                        "{tag}: a benchmark after the cancel started"
                    );
                    report.into_result().expect_err("cancelled mid-campaign")
                }
            };
            assert!(
                matches!(
                    err,
                    Error::Interrupted {
                        reason: InterruptReason::Cancelled,
                        ..
                    }
                ),
                "{tag}: {err}"
            );
            assert!(
                cache.checkpoint_sink(keys[0]).load().is_some(),
                "{tag}: interruption leaves a checkpoint behind"
            );
            for &key in &keys[1..] {
                assert!(
                    cache.checkpoint_sink(key).load().is_none(),
                    "{tag}: a benchmark that never started leaves no checkpoint"
                );
            }

            // A fresh pipeline over the same cache resumes from the
            // checkpoint, completes, and reproduces the uninterrupted truth
            // byte-for-byte.
            let fresh = Pipeline::builder(config)
                .cache(cache.clone())
                .build()
                .expect("valid");
            for ((bench, key), want) in benches.into_iter().zip(keys).zip(&reference) {
                let resumed = fresh.prepare_benchmark(bench).expect("resume completes");
                assert_eq!(resumed.truth.to_bytes(), want.truth.to_bytes());
                assert_eq!(resumed.labels, want.labels);
                assert!(
                    cache.checkpoint_sink(key).load().is_none(),
                    "completed truth supersedes the checkpoint"
                );
                assert!(
                    cache.load_truth(key).is_some(),
                    "finished truth landed in the cache"
                );
            }
        }
    }

    /// The `train_threads` knob must never perturb persisted artifacts:
    /// a 4-threaded pipeline interrupted mid-campaign leaves a GLVCKPT1
    /// checkpoint a 1-threaded pipeline resumes to byte-identical truth,
    /// and models trained at 4 threads serialise to the same GLVFIT01
    /// bytes as at 1 thread.
    #[test]
    fn train_threads_do_not_perturb_models_or_checkpoint_resume() {
        let mut serial_cfg = PipelineConfig::quick_test();
        serial_cfg.train_threads = 1;
        let mut threaded_cfg = serial_cfg;
        threaded_cfg.train_threads = 4;

        // Reference: uninterrupted serial preparation + serial training.
        let prepared = [
            crate::data::prepare_benchmark(dijkstra::build(1), &serial_cfg),
            crate::data::prepare_benchmark(sobel::build(1), &serial_cfg),
        ];
        let refs: Vec<&BenchData> = prepared.iter().collect();
        let serial_model = crate::models::train_glaive(&refs, &serial_cfg).to_bytes();

        // Train 4-threaded on a pipeline cancelled mid-campaign: the
        // interruption leaves a checkpoint behind...
        let cache = temp_cache("train-threads");
        let key = truth_key(&dijkstra::build(1), &threaded_cfg.campaign());
        let cancel = Arc::new(AtomicBool::new(false));
        let err = Pipeline::builder(threaded_cfg)
            .cache(cache.clone())
            .observer(Arc::new(CancelOnProgress {
                flag: cancel.clone(),
            }))
            .cancel_flag(cancel)
            .build()
            .expect("valid")
            .prepare_benchmark(dijkstra::build(1))
            .expect_err("cancelled mid-campaign");
        assert!(matches!(err, Error::Interrupted { .. }), "{err}");
        let checkpoint = cache
            .checkpoint_sink(key)
            .load()
            .expect("interruption leaves a checkpoint behind");

        // ...that a 1-threaded pipeline resumes to the same truth bytes.
        let resumed = Pipeline::builder(serial_cfg)
            .cache(cache.clone())
            .build()
            .expect("valid")
            .prepare_benchmark(dijkstra::build(1))
            .expect("resume completes");
        assert_eq!(resumed.truth.to_bytes(), prepared[0].truth.to_bytes());
        assert!(!checkpoint.is_empty(), "checkpoint bytes were persisted");

        // And 4-threaded training on the resumed data reproduces the
        // serial model bytes exactly.
        let threaded_prepared = [resumed, prepared[1].clone()];
        let threaded_refs: Vec<&BenchData> = threaded_prepared.iter().collect();
        let threaded_model = crate::models::train_glaive(&threaded_refs, &threaded_cfg).to_bytes();
        assert_eq!(
            threaded_model, serial_model,
            "4-thread training diverged from serial"
        );
    }

    #[test]
    fn corrupt_cache_artifacts_fall_back_to_recompute() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("corrupt");
        let pristine = Pipeline::builder(config)
            .cache(cache.clone())
            .build()
            .expect("valid")
            .prepare_benchmark(dijkstra::build(1))
            .expect("prepare");

        let entry = std::fs::read_dir(cache.dir())
            .expect("cache dir")
            .map(|e| e.expect("entry").path())
            .find(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("fi-"))
                    .unwrap_or(false)
            })
            .expect("one fi artifact");

        // Truncation and byte corruption must both read as misses.
        let bytes = std::fs::read(&entry).expect("read artifact");
        for mutation in [bytes[..bytes.len() / 2].to_vec(), {
            let mut b = bytes.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0xff;
            b
        }] {
            std::fs::write(&entry, &mutation).expect("write mutation");
            let rec = Arc::new(TimingRecorder::new());
            let again = Pipeline::builder(config)
                .cache(cache.clone())
                .observer(rec.clone())
                .build()
                .expect("valid")
                .prepare_benchmark(dijkstra::build(1))
                .expect("prepare");
            assert_eq!(rec.cache_counts(), (0, 1), "corrupt artifact must miss");
            assert_eq!(again.truth.records(), pristine.truth.records());
        }
    }
}
