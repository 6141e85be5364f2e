use std::fmt;

use glaive_faultsim::{InterruptReason, TruthError};

use crate::models::Method;
use crate::telemetry::Stage;

/// Errors surfaced by the public pipeline API.
///
/// Every fallible entry point of this crate returns `Result<_, Error>`
/// instead of panicking: unknown benchmark or method names, invalid
/// configurations, suites that cannot be split for training, and artifact
/// I/O failures all come back as values the caller can report or recover
/// from. (Cache *corruption* is deliberately not an error — the cache
/// falls back to recomputation.)
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A benchmark name did not match any suite member.
    UnknownBenchmark(String),
    /// The suite passed to [`Pipeline::evaluation`](crate::Pipeline::evaluation)
    /// was empty.
    EmptySuite,
    /// A benchmark has no same-category training partners, so no
    /// round-robin model set can be trained for it.
    NoTrainingPartners(String),
    /// A bit-level operation was requested of an instruction-level method.
    NotBitLevel(Method),
    /// A configuration invariant was violated; the message names it.
    InvalidConfig(String),
    /// An artifact-cache write failed (reads never fail — a bad artifact is
    /// a miss). The message carries the underlying I/O error.
    Cache(String),
    /// A ground-truth aggregation failed (e.g. a degenerate benchmark with
    /// no fault-injection observations).
    Truth(TruthError),
    /// A pipeline stage failed (typically a panic caught inside a worker,
    /// after exhausting any configured retries); the failure is isolated to
    /// its subject and the rest of the suite proceeds.
    StageFailed {
        /// Which stage failed.
        stage: Stage,
        /// Benchmark name or split signature the stage ran for.
        subject: String,
        /// The panic payload or underlying error message.
        message: String,
    },
    /// Work was stopped by cancellation or a deadline before completing.
    Interrupted {
        /// Benchmark name the interruption hit.
        subject: String,
        /// What stopped the work.
        reason: InterruptReason,
        /// Work units complete at the stop.
        completed: usize,
        /// Work units planned.
        total: usize,
    },
    /// Too few benchmarks survived suite preparation to satisfy the
    /// configured quorum policy.
    QuorumNotMet {
        /// Benchmarks successfully prepared.
        prepared: usize,
        /// Minimum the quorum policy requires.
        required: usize,
        /// Benchmarks that failed preparation.
        failed: usize,
    },
}

impl From<TruthError> for Error {
    fn from(e: TruthError) -> Error {
        Error::Truth(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark `{name}` (run `glaive-cli list`)")
            }
            Error::EmptySuite => write!(f, "evaluation needs a non-empty benchmark suite"),
            Error::NoTrainingPartners(name) => write!(
                f,
                "benchmark `{name}` has no same-category training partners"
            ),
            Error::NotBitLevel(method) => write!(
                f,
                "{} is instruction-level and has no per-bit predictions",
                method.name()
            ),
            Error::InvalidConfig(msg) => write!(f, "invalid pipeline configuration: {msg}"),
            Error::Cache(msg) => write!(f, "artifact cache: {msg}"),
            Error::Truth(e) => write!(f, "{e}"),
            Error::StageFailed {
                stage,
                subject,
                message,
            } => write!(
                f,
                "{} stage failed for `{subject}`: {message}",
                stage.name()
            ),
            Error::Interrupted {
                subject,
                reason,
                completed,
                total,
            } => write!(
                f,
                "`{subject}` {reason} after {completed}/{total} work units"
            ),
            Error::QuorumNotMet {
                prepared,
                required,
                failed,
            } => write!(
                f,
                "only {prepared} benchmarks prepared ({failed} failed), quorum requires {required}"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(Error::UnknownBenchmark("zzz".into())
            .to_string()
            .contains("zzz"));
        assert!(Error::NotBitLevel(Method::RfInst)
            .to_string()
            .contains("RF-INST"));
        assert!(Error::InvalidConfig("bit_stride must be >= 1".into())
            .to_string()
            .contains("bit_stride"));
    }
}
