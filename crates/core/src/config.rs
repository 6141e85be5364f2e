use std::time::Duration;

use glaive_cdfg::CdfgConfig;
use glaive_faultsim::CampaignConfig;
use glaive_gnn::SageConfig;
use glaive_ml::{ForestConfig, MlpConfig, SvrConfig};

use crate::error::Error;

/// How many benchmarks must survive suite preparation for the run to
/// proceed — the graceful-degradation policy of the supervised pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumPolicy {
    /// Any benchmark failure fails the suite; after a genuine failure no
    /// further benchmark is started.
    FailFast,
    /// Proceed on partial results as long as at least this many benchmarks
    /// prepared successfully (must be ≥ 1).
    MinBenchmarks(usize),
}

/// End-to-end pipeline configuration: one shared bit stride (the campaign
/// and the CDFG must sample the same bit positions so FI labels join onto
/// graph nodes) plus per-model hyperparameters.
///
/// Construct via [`PipelineConfig::builder`] to have the invariants
/// checked up front; the struct remains openly constructible for tests and
/// callers that know their values are valid (the campaign still asserts
/// the hard invariants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Bit-position sampling stride shared by FI and graph construction
    /// (1 = all 64 bits as in the paper; the default 8 keeps the
    /// from-scratch CPU pipeline fast — see DESIGN.md §1).
    pub bit_stride: usize,
    /// Dynamic instances sampled per fault site.
    pub instances_per_site: usize,
    /// FI worker threads (0 = available parallelism).
    pub threads: usize,
    /// GNN training worker threads for data-parallel gradient computation
    /// across the per-benchmark splits (0 = available parallelism). Any
    /// value yields bit-identical models — the gradient merge uses a fixed
    /// reduction tree (see DESIGN.md §16) — so this knob never enters the
    /// model cache key.
    pub train_threads: usize,
    /// GLAIVE model hyperparameters.
    pub sage: SageConfig,
    /// MLP-BIT hyperparameters.
    pub mlp: MlpConfig,
    /// RF-INST hyperparameters.
    pub forest: ForestConfig,
    /// SVM-INST hyperparameters.
    pub svr: SvrConfig,
    /// Also train the vanilla (all-neighbour) GraphSAGE for the
    /// aggregator ablation (doubles GNN training time).
    pub train_vanilla: bool,
    /// Soft wall-clock deadline for one benchmark's FI campaign; the
    /// campaign stops at the next batch boundary past it. `None` = no
    /// limit.
    pub campaign_deadline: Option<Duration>,
    /// Soft wall-clock deadline for preparing the whole suite; queued
    /// benchmarks past it are not started and running campaigns stop
    /// cooperatively. `None` = no limit.
    pub suite_deadline: Option<Duration>,
    /// How many times a stage that *panicked* is retried before its failure
    /// is recorded (training retries perturb the model seed).
    pub stage_retries: usize,
    /// Save a campaign checkpoint every this many new injections when a
    /// cache is attached (0 disables periodic checkpoints).
    pub checkpoint_interval: usize,
    /// Partial-suite degradation policy for supervised preparation.
    pub quorum: QuorumPolicy,
}

impl Default for PipelineConfig {
    /// Experiment-scale defaults: stride 8, a 3-layer hidden-64 GraphSAGE
    /// trained for 60 full-batch epochs. Suitable for release-mode
    /// experiment runs (minutes for the full 12-benchmark suite).
    fn default() -> Self {
        PipelineConfig {
            bit_stride: 8,
            instances_per_site: 2,
            threads: 0,
            train_threads: 0,
            sage: SageConfig {
                hidden: 64,
                layers: 3,
                classes: 3,
                sample_size: 50,
                lr: 5e-3,
                epochs: 60,
                seed: 1,
            },
            mlp: MlpConfig {
                hidden: 100,
                lr: 2e-3,
                epochs: 120,
                seed: 1,
            },
            forest: ForestConfig::default(),
            svr: SvrConfig::default(),
            train_vanilla: false,
            campaign_deadline: None,
            suite_deadline: None,
            stage_retries: 1,
            checkpoint_interval: 4096,
            quorum: QuorumPolicy::FailFast,
        }
    }
}

impl PipelineConfig {
    /// A heavily subsampled configuration for unit tests and debug builds:
    /// stride 16, one instance per site, small/short models.
    pub fn quick_test() -> Self {
        PipelineConfig {
            bit_stride: 16,
            instances_per_site: 1,
            threads: 0,
            train_threads: 0,
            sage: SageConfig {
                hidden: 16,
                layers: 2,
                classes: 3,
                sample_size: 20,
                lr: 1e-2,
                epochs: 15,
                seed: 1,
            },
            mlp: MlpConfig {
                hidden: 24,
                lr: 5e-3,
                epochs: 30,
                seed: 1,
            },
            forest: ForestConfig {
                trees: 15,
                ..ForestConfig::default()
            },
            svr: SvrConfig {
                rff_dim: 32,
                epochs: 20,
                ..SvrConfig::default()
            },
            train_vanilla: true,
            campaign_deadline: None,
            suite_deadline: None,
            stage_retries: 0,
            checkpoint_interval: 256,
            quorum: QuorumPolicy::FailFast,
        }
    }

    /// The fault-campaign configuration implied by this pipeline config.
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            bit_stride: self.bit_stride,
            instances_per_site: self.instances_per_site,
            hang_factor: 4,
            threads: self.threads,
            predict_dead_defs: true,
        }
    }

    /// The CDFG configuration implied by this pipeline config.
    pub fn cdfg(&self) -> CdfgConfig {
        CdfgConfig {
            bit_stride: self.bit_stride,
        }
    }

    /// A validating builder seeded with the experiment-scale defaults.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::default(),
        }
    }

    /// A validating builder seeded with this configuration.
    pub fn to_builder(self) -> PipelineConfigBuilder {
        PipelineConfigBuilder { config: self }
    }

    /// Checks every invariant the builder enforces. Useful for configs
    /// assembled by hand (e.g. from CLI flags).
    pub fn validate(&self) -> Result<(), Error> {
        let invalid = |msg: String| Err(Error::InvalidConfig(msg));
        if self.bit_stride < 1 || self.bit_stride > glaive_isa::WORD_BITS {
            return invalid(format!(
                "bit_stride must be in 1..={}, got {}",
                glaive_isa::WORD_BITS,
                self.bit_stride
            ));
        }
        if self.instances_per_site < 1 {
            return invalid("instances_per_site must be at least 1".to_string());
        }
        if self.sage.classes != 3 {
            return invalid(format!(
                "sage.classes must be 3 (Masked/SDC/Crash), got {}",
                self.sage.classes
            ));
        }
        if self.sage.layers == 0 || self.sage.hidden == 0 {
            return invalid("sage needs at least one layer and a non-zero hidden dim".to_string());
        }
        if self.quorum == QuorumPolicy::MinBenchmarks(0) {
            return invalid(
                "quorum MinBenchmarks(0) would accept an empty suite; use at least 1".to_string(),
            );
        }
        Ok(())
    }
}

/// Builder for [`PipelineConfig`] that validates its invariants on
/// [`build`](PipelineConfigBuilder::build), instead of leaving them to a
/// doc comment.
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Campaign + graph bit-position sampling stride.
    pub fn bit_stride(mut self, stride: usize) -> Self {
        self.config.bit_stride = stride;
        self
    }

    /// Dynamic instances sampled per fault site.
    pub fn instances_per_site(mut self, n: usize) -> Self {
        self.config.instances_per_site = n;
        self
    }

    /// FI worker threads (0 = available parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n;
        self
    }

    /// GNN training worker threads (0 = available parallelism); any value
    /// trains to bit-identical models.
    pub fn train_threads(mut self, n: usize) -> Self {
        self.config.train_threads = n;
        self
    }

    /// Whether to also train the vanilla all-neighbour GraphSAGE.
    pub fn train_vanilla(mut self, yes: bool) -> Self {
        self.config.train_vanilla = yes;
        self
    }

    /// Soft wall-clock deadline for one benchmark's FI campaign.
    pub fn campaign_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.campaign_deadline = deadline;
        self
    }

    /// Soft wall-clock deadline for preparing the whole suite.
    pub fn suite_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.suite_deadline = deadline;
        self
    }

    /// How many times a panicked stage is retried.
    pub fn stage_retries(mut self, retries: usize) -> Self {
        self.config.stage_retries = retries;
        self
    }

    /// Campaign checkpoint frequency, in new injections per snapshot.
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.config.checkpoint_interval = interval;
        self
    }

    /// Partial-suite degradation policy.
    pub fn quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.config.quorum = quorum;
        self
    }

    /// GLAIVE GraphSAGE hyperparameters.
    pub fn sage(mut self, sage: SageConfig) -> Self {
        self.config.sage = sage;
        self
    }

    /// MLP-BIT hyperparameters.
    pub fn mlp(mut self, mlp: MlpConfig) -> Self {
        self.config.mlp = mlp;
        self
    }

    /// RF-INST hyperparameters.
    pub fn forest(mut self, forest: ForestConfig) -> Self {
        self.config.forest = forest;
        self
    }

    /// SVM-INST hyperparameters.
    pub fn svr(mut self, svr: SvrConfig) -> Self {
        self.config.svr = svr;
        self
    }

    /// Validates and yields the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the violated invariant: a zero or
    /// oversized stride, zero instances per site, or degenerate model
    /// shapes.
    pub fn build(self) -> Result<PipelineConfig, Error> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_consistent_between_campaign_and_cdfg() {
        let c = PipelineConfig::default();
        assert_eq!(c.campaign().bit_stride, c.cdfg().bit_stride);
        let q = PipelineConfig::quick_test();
        assert_eq!(q.campaign().bit_stride, q.cdfg().bit_stride);
    }

    #[test]
    fn defaults_follow_paper_shape() {
        let c = PipelineConfig::default();
        assert_eq!(c.sage.layers, 3);
        assert_eq!(c.sage.classes, 3);
        assert_eq!(c.sage.sample_size, 50);
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let c = PipelineConfig::builder()
            .bit_stride(4)
            .instances_per_site(3)
            .threads(2)
            .train_vanilla(true)
            .build()
            .expect("valid");
        assert_eq!(c.bit_stride, 4);
        assert_eq!(c.campaign().bit_stride, 4);
        assert_eq!(c.instances_per_site, 3);
    }

    #[test]
    fn builder_rejects_invalid_strides() {
        assert!(PipelineConfig::builder().bit_stride(0).build().is_err());
        assert!(PipelineConfig::builder().bit_stride(128).build().is_err());
        assert!(PipelineConfig::builder()
            .instances_per_site(0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_degenerate_models() {
        let mut sage = PipelineConfig::default().sage;
        sage.classes = 2;
        assert!(PipelineConfig::builder().sage(sage).build().is_err());
    }

    #[test]
    fn to_builder_roundtrips() {
        let c = PipelineConfig::quick_test();
        assert_eq!(c.to_builder().build().expect("still valid"), c);
    }

    #[test]
    fn builder_validates_supervision_fields() {
        let err = PipelineConfig::builder()
            .quorum(QuorumPolicy::MinBenchmarks(0))
            .build()
            .expect_err("an empty quorum is meaningless");
        assert!(err.to_string().contains("quorum"), "{err}");
        let c = PipelineConfig::builder()
            .quorum(QuorumPolicy::MinBenchmarks(3))
            .campaign_deadline(Some(Duration::from_secs(30)))
            .suite_deadline(Some(Duration::from_secs(120)))
            .stage_retries(2)
            .checkpoint_interval(512)
            .build()
            .expect("valid");
        assert_eq!(c.quorum, QuorumPolicy::MinBenchmarks(3));
        assert_eq!(c.stage_retries, 2);
        assert_eq!(c.checkpoint_interval, 512);
    }
}
