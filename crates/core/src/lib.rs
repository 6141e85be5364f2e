//! GLAIVE: graph-learning-assisted instruction vulnerability estimation —
//! the end-to-end pipeline of the DATE 2021 paper, built on the workspace
//! substrates.
//!
//! The pipeline (paper Fig. 1):
//!
//! 1. compile a benchmark to the GLAIVE ISA ([`glaive_bench_suite`]),
//! 2. extract its bit-level CDFG and Table-I node features ([`glaive_cdfg`]),
//! 3. run a bit-level fault-injection campaign for ground truth
//!    ([`glaive_faultsim`]),
//! 4. train the augmented GraphSAGE ([`glaive_gnn`]) on the labelled graphs
//!    of the *training* benchmarks,
//! 5. infer per-bit vulnerability classes on an *unseen* benchmark, and
//! 6. aggregate them into instruction vulnerability tuples ⟨I_C, I_S, I_M⟩,
//!    a protection ranking, top-K coverage and program vulnerability error.
//!
//! Baseline estimators (MLP-BIT, RF-INST, SVM-INST) and the FI oracle share
//! the same interfaces so every experiment in the paper's §V is a small
//! driver over this crate (see `glaive-bench`).
//!
//! # Example
//!
//! The [`Pipeline`] runtime is the front door: it validates the
//! configuration, prepares the suite benchmark by benchmark with each
//! campaign on every configured core (serving repeat campaigns from the
//! on-disk artifact cache), trains the round-robin model sets
//! concurrently, and reports stage telemetry to any attached
//! [`telemetry::Observer`].
//!
//! ```no_run
//! # fn main() -> Result<(), glaive::Error> {
//! use glaive::{Method, Pipeline, PipelineConfig};
//!
//! let pipeline = Pipeline::builder(PipelineConfig::quick_test())
//!     .default_cache()
//!     .build()?;
//! let eval = pipeline.run(7)?;
//! // Round-robin: each benchmark is scored by models that never saw it.
//! let test = &eval.suite()[0];
//! let models = eval.models_for(test.bench.name)?;
//! let est = models.estimate(Method::Glaive, test);
//! let cov = glaive::metrics::top_k_coverage(&est, test, 20.0);
//! println!("top-20% coverage: {cov:.3}");
//! # Ok(())
//! # }
//! ```
//!
//! The free functions ([`prepare_suite`], [`train_models`], …) remain as
//! cache-less, telemetry-less conveniences over the same machinery.

pub mod analytic;
mod cache;
mod config;
mod data;
mod error;
pub mod experiments;
pub mod metrics;
mod models;
mod pipeline;
pub mod stats;
pub mod telemetry;
mod truth_source;

pub use cache::{model_key, truth_key, ArtifactCache, CacheKey};
pub use config::{PipelineConfig, PipelineConfigBuilder, QuorumPolicy};
pub use data::{
    golden_timing_profile, prepare_benchmark, prepare_benchmark_with_graph_stride, prepare_suite,
    residency_from_profile, train_set, BenchData,
};
pub use error::Error;
pub use models::{aggregate_bit_probs, train_models, Method, Models};
pub use pipeline::{BenchOutcome, Pipeline, PipelineBuilder, SuiteReport};
pub use truth_source::{campaign_error_to_pipeline, LocalTruthSource, TruthSource};

pub use glaive_faultsim::{InterruptReason, TruthError, VulnTuple};
