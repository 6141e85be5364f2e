//! Stage telemetry for the pipeline runtime: a lightweight observer trait
//! threaded through campaign → graph build → training → evaluation, plus
//! ready-made observers (silent, stderr progress, timing recorder).
//!
//! Observers are shared across worker threads, so implementations must be
//! `Send + Sync` and cheap — the hot path calls [`Observer::progress`] from
//! inside fault-injection workers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The pipeline stages reported to observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Fault-injection campaign for one benchmark.
    Campaign,
    /// Bit-level CDFG construction + feature/label join for one benchmark.
    GraphBuild,
    /// Model training for one round-robin split.
    Training,
    /// Metric evaluation / inference.
    Evaluation,
    /// One batched forward pass of the model server (`glaive-serve`);
    /// `items` counts the coalesced requests in the batch.
    Inference,
}

impl Stage {
    /// Short human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Campaign => "campaign",
            Stage::GraphBuild => "graph",
            Stage::Training => "training",
            Stage::Evaluation => "evaluation",
            Stage::Inference => "inference",
        }
    }
}

/// Receives pipeline telemetry. All methods have no-op defaults, so an
/// observer implements only what it cares about.
pub trait Observer: Send + Sync {
    /// A stage began for `subject` (a benchmark name or split signature).
    fn stage_started(&self, stage: Stage, subject: &str) {
        let _ = (stage, subject);
    }

    /// A stage finished; `items` counts its work units (injections
    /// performed, graph nodes built, models trained…).
    fn stage_finished(&self, stage: Stage, subject: &str, elapsed: Duration, items: u64) {
        let _ = (stage, subject, elapsed, items);
    }

    /// Coarse in-stage progress (`done` of `total` units).
    fn progress(&self, stage: Stage, subject: &str, done: u64, total: u64) {
        let _ = (stage, subject, done, total);
    }

    /// A stage attempt failed (a caught panic or a typed stage error).
    /// `attempt` is 1-based; the stage may be retried afterwards.
    fn stage_failed(&self, stage: Stage, subject: &str, attempt: usize, message: &str) {
        let _ = (stage, subject, attempt, message);
    }

    /// An artifact-cache lookup for `subject` resolved to a hit or a miss.
    fn cache_lookup(&self, kind: &str, subject: &str, hit: bool) {
        let _ = (kind, subject, hit);
    }
}

/// Ignores every event — the default observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Prints stage lifecycles and cache activity to stderr — the CLI's
/// `--verbose` mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrProgress;

impl Observer for StderrProgress {
    fn stage_started(&self, stage: Stage, subject: &str) {
        eprintln!("[{}] {subject}: started", stage.name());
    }

    fn stage_finished(&self, stage: Stage, subject: &str, elapsed: Duration, items: u64) {
        eprintln!(
            "[{}] {subject}: done in {:.2}s ({items} items)",
            stage.name(),
            elapsed.as_secs_f64()
        );
    }

    fn cache_lookup(&self, kind: &str, subject: &str, hit: bool) {
        eprintln!(
            "[cache] {kind} {subject}: {}",
            if hit { "hit" } else { "miss" }
        );
    }

    fn stage_failed(&self, stage: Stage, subject: &str, attempt: usize, message: &str) {
        eprintln!(
            "[{}] {subject}: attempt {attempt} failed: {message}",
            stage.name()
        );
    }
}

/// One finished stage, as recorded by [`TimingRecorder`].
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Which stage ran.
    pub stage: Stage,
    /// Benchmark name or split signature.
    pub subject: String,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Work units processed.
    pub items: u64,
}

/// Collects per-stage wall-clock timings and cache counters, and renders
/// them as the timing summary the experiment binaries print.
#[derive(Debug, Default)]
pub struct TimingRecorder {
    timings: Mutex<Vec<StageTiming>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    failures: Mutex<Vec<(Stage, String)>>,
}

impl TimingRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> TimingRecorder {
        TimingRecorder::default()
    }

    /// Everything recorded so far, in completion order.
    pub fn timings(&self) -> Vec<StageTiming> {
        self.timings.lock().expect("timings lock").clone()
    }

    /// Total wall-clock spent in `stage` (summed across workers, so it can
    /// exceed elapsed real time under parallelism).
    fn stage_total(&self, stage: Stage) -> Duration {
        self.timings
            .lock()
            .expect("timings lock")
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.elapsed)
            .sum()
    }

    /// Failed stage attempts recorded so far, as `(stage, subject)` pairs
    /// in arrival order (retried attempts appear once each).
    pub fn failures(&self) -> Vec<(Stage, String)> {
        self.failures.lock().expect("failures lock").clone()
    }

    /// `(hits, misses)` of artifact-cache lookups.
    pub fn cache_counts(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// A multi-line timing summary: one line per stage with total time and
    /// item counts, plus the cache hit rate.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("pipeline timing summary:\n");
        for stage in [
            Stage::Campaign,
            Stage::GraphBuild,
            Stage::Training,
            Stage::Evaluation,
            Stage::Inference,
        ] {
            let (count, items) = {
                let t = self.timings.lock().expect("timings lock");
                let sel: Vec<_> = t.iter().filter(|r| r.stage == stage).collect();
                (sel.len(), sel.iter().map(|r| r.items).sum::<u64>())
            };
            if count == 0 {
                continue;
            }
            writeln!(
                out,
                "  {:<10} {:>8.2}s  ({count} runs, {items} items)",
                stage.name(),
                self.stage_total(stage).as_secs_f64()
            )
            .expect("write to string");
        }
        let (hits, misses) = self.cache_counts();
        if hits + misses > 0 {
            writeln!(out, "  cache      {hits} hits / {misses} misses").expect("write to string");
        }
        out
    }
}

impl Observer for TimingRecorder {
    fn stage_finished(&self, stage: Stage, subject: &str, elapsed: Duration, items: u64) {
        self.timings
            .lock()
            .expect("timings lock")
            .push(StageTiming {
                stage,
                subject: subject.to_string(),
                elapsed,
                items,
            });
    }

    fn cache_lookup(&self, _kind: &str, _subject: &str, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stage_failed(&self, stage: Stage, subject: &str, _attempt: usize, _message: &str) {
        self.failures
            .lock()
            .expect("failures lock")
            .push((stage, subject.to_string()));
    }
}

/// Broadcasts every event to several observers (e.g. a recorder plus
/// stderr progress).
pub struct Fanout(pub Vec<std::sync::Arc<dyn Observer>>);

impl Observer for Fanout {
    fn stage_started(&self, stage: Stage, subject: &str) {
        for o in &self.0 {
            o.stage_started(stage, subject);
        }
    }

    fn stage_finished(&self, stage: Stage, subject: &str, elapsed: Duration, items: u64) {
        for o in &self.0 {
            o.stage_finished(stage, subject, elapsed, items);
        }
    }

    fn progress(&self, stage: Stage, subject: &str, done: u64, total: u64) {
        for o in &self.0 {
            o.progress(stage, subject, done, total);
        }
    }

    fn cache_lookup(&self, kind: &str, subject: &str, hit: bool) {
        for o in &self.0 {
            o.cache_lookup(kind, subject, hit);
        }
    }

    fn stage_failed(&self, stage: Stage, subject: &str, attempt: usize, message: &str) {
        for o in &self.0 {
            o.stage_failed(stage, subject, attempt, message);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Panics in `stage_started` for a chosen stage (optionally one
    /// subject) a bounded number of times — the deliberate-failure hook
    /// behind the panic-isolation and retry tests.
    pub(crate) struct PanicOnStart {
        pub stage: Stage,
        pub subject: Option<&'static str>,
        pub remaining: AtomicUsize,
    }

    impl Observer for PanicOnStart {
        fn stage_started(&self, stage: Stage, subject: &str) {
            if stage == self.stage
                && self.subject.is_none_or(|s| s == subject)
                && self
                    .remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
            {
                panic!("synthetic {} failure for `{subject}`", stage.name());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_timings_and_cache_counts() {
        let rec = TimingRecorder::new();
        rec.stage_finished(Stage::Campaign, "a", Duration::from_millis(100), 10);
        rec.stage_finished(Stage::Campaign, "b", Duration::from_millis(50), 5);
        rec.stage_finished(Stage::Training, "a+b", Duration::from_millis(25), 1);
        rec.cache_lookup("fi", "a", true);
        rec.cache_lookup("fi", "b", false);

        assert_eq!(rec.timings().len(), 3);
        assert_eq!(rec.stage_total(Stage::Campaign), Duration::from_millis(150));
        assert_eq!(rec.cache_counts(), (1, 1));
        let s = rec.summary();
        assert!(s.contains("campaign"), "{s}");
        assert!(s.contains("training"), "{s}");
        assert!(s.contains("1 hits / 1 misses"), "{s}");
        // Stages that never ran are omitted.
        assert!(!s.contains("evaluation"), "{s}");
    }

    #[test]
    fn fanout_reaches_every_observer() {
        let a = std::sync::Arc::new(TimingRecorder::new());
        let b = std::sync::Arc::new(TimingRecorder::new());
        let fan = Fanout(vec![a.clone(), b.clone()]);
        fan.stage_finished(Stage::GraphBuild, "x", Duration::from_millis(1), 2);
        assert_eq!(a.timings().len(), 1);
        assert_eq!(b.timings().len(), 1);
    }
}
