//! Content-addressed on-disk artifact cache for the expensive pipeline
//! stages: fault-injection ground truth and trained GLAIVE models.
//!
//! Artifacts are keyed by a 64-bit FNV-1a hash of everything that
//! determines their content — the program's instruction encodings, its
//! input image, and the relevant configuration fields — so a change to
//! any input (different benchmark seed, different `bit_stride`…) produces
//! a different key and the stale artifact is simply never looked up.
//! Worker-thread counts are deliberately *excluded*: parallelism does not
//! change results.
//!
//! Reads are infallible by design: a missing, truncated, corrupted or
//! version-mismatched artifact is a cache *miss* (the serialisation layers
//! in `glaive-faultsim` and `glaive-gnn` carry magic, version and checksum
//! fields to detect this), and the pipeline recomputes. Only writes can
//! fail, and the pipeline treats those as non-fatal too.

use std::path::{Path, PathBuf};

use glaive_bench_suite::Benchmark;
use glaive_faultsim::{CampaignConfig, FileCheckpoint, GroundTruth};
use glaive_gnn::GraphSage;

use crate::config::PipelineConfig;
use crate::data::BenchData;
use crate::error::Error;

/// A content hash identifying one cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental 64-bit FNV-1a hasher.
struct Fnv(u64);

impl Fnv {
    fn new(domain: &str) -> Fnv {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.bytes(domain.as_bytes());
        h
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> CacheKey {
        CacheKey(self.0)
    }
}

fn hash_program_content(h: &mut Fnv, bench: &Benchmark) {
    let program = bench.program();
    h.u64(program.len() as u64);
    for instr in program.instrs() {
        h.bytes(&instr.encode());
    }
    h.u64(bench.init_mem.len() as u64);
    for &w in &bench.init_mem {
        h.u64(w);
    }
}

/// The cache key of a benchmark's FI ground truth under `campaign`.
pub fn truth_key(bench: &Benchmark, campaign: &CampaignConfig) -> CacheKey {
    let mut h = Fnv::new("glaive-fi-v1");
    h.u64(campaign.bit_stride as u64);
    h.u64(campaign.instances_per_site as u64);
    h.u64(campaign.hang_factor);
    h.u64(campaign.predict_dead_defs as u64);
    hash_program_content(&mut h, bench);
    h.finish()
}

/// The cache key of the GLAIVE GraphSAGE trained on `train` under
/// `config`. Covers the model hyperparameters, the bit stride, the
/// campaign parameters that shape the labels, and each training
/// benchmark's content, in training order (order affects the weights).
/// `train_threads` is deliberately absent: any thread count produces
/// bit-identical weights. The `v2` version tag invalidates models trained
/// before multi-graph epochs switched to one merged-gradient step.
pub fn model_key(train: &[&BenchData], config: &PipelineConfig) -> CacheKey {
    let mut h = Fnv::new("glaive-model-v2");
    let s = &config.sage;
    for v in [s.hidden, s.layers, s.classes, s.sample_size, s.epochs] {
        h.u64(v as u64);
    }
    h.u64(s.lr.to_bits() as u64);
    h.u64(s.seed);
    // The stride goes in twice: the second slot once held a separate graph
    // stride, and keeping it keeps every cached model's key.
    h.u64(config.bit_stride as u64);
    h.u64(config.bit_stride as u64);
    h.u64(config.instances_per_site as u64);
    h.u64(train.len() as u64);
    for d in train {
        hash_program_content(&mut h, &d.bench);
    }
    h.finish()
}

/// An on-disk artifact cache rooted at one directory.
///
/// Files are named `<kind>-<key>.bin`; writes go through a temporary file
/// and an atomic rename so concurrent pipelines never observe torn
/// artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactCache {
        ArtifactCache { dir: dir.into() }
    }

    /// The conventional cache location: `$GLAIVE_CACHE_DIR` if set, else
    /// `target/glaive-cache` when running inside a cargo workspace, else
    /// a `glaive-cache` directory under the system temp dir.
    pub fn at_default_location() -> ArtifactCache {
        if let Ok(dir) = std::env::var("GLAIVE_CACHE_DIR") {
            return ArtifactCache::new(dir);
        }
        let target = Path::new("target");
        if target.is_dir() {
            return ArtifactCache::new(target.join("glaive-cache"));
        }
        ArtifactCache::new(std::env::temp_dir().join("glaive-cache"))
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, kind: &str, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{kind}-{key}.bin"))
    }

    fn load_bytes(&self, kind: &str, key: CacheKey) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(kind, key)).ok()
    }

    fn store_bytes(&self, kind: &str, key: CacheKey, bytes: &[u8]) -> Result<(), Error> {
        let io = |e: std::io::Error| Error::Cache(format!("writing {kind}-{key}: {e}"));
        std::fs::create_dir_all(&self.dir).map_err(io)?;
        let tmp = self
            .dir
            .join(format!(".tmp-{kind}-{key}-{}", std::process::id()));
        std::fs::write(&tmp, bytes).map_err(io)?;
        std::fs::rename(&tmp, self.path_for(kind, key)).map_err(io)
    }

    /// Looks up cached FI ground truth. Any decode failure is a miss.
    pub fn load_truth(&self, key: CacheKey) -> Option<GroundTruth> {
        let bytes = self.load_bytes("fi", key)?;
        GroundTruth::from_bytes(&bytes).ok()
    }

    /// Stores FI ground truth under `key`.
    pub fn store_truth(&self, key: CacheKey, truth: &GroundTruth) -> Result<(), Error> {
        self.store_bytes("fi", key, &truth.to_bytes())
    }

    /// Looks up a cached trained GLAIVE model. Any decode failure is a
    /// miss.
    pub fn load_model(&self, key: CacheKey) -> Option<GraphSage> {
        let bytes = self.load_bytes("model", key)?;
        GraphSage::from_bytes(&bytes).ok()
    }

    /// Stores a trained GLAIVE model under `key`.
    pub fn store_model(&self, key: CacheKey, model: &GraphSage) -> Result<(), Error> {
        self.store_bytes("model", key, &model.to_bytes())
    }

    /// The campaign checkpoint sink for the ground truth keyed by `key`
    /// (file `ckpt-<key>.bin` in the cache directory). The supervised
    /// pipeline saves partial-campaign snapshots here and clears the file
    /// once the finished truth is stored.
    pub fn checkpoint_sink(&self, key: CacheKey) -> FileCheckpoint {
        FileCheckpoint::new(self.dir.join(format!("ckpt-{key}.bin")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use glaive_bench_suite::control::dijkstra;
    use glaive_bench_suite::data::lu;

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("glaive-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    #[test]
    fn keys_are_content_addressed() {
        let config = PipelineConfig::quick_test();
        let a = dijkstra::build(1);
        let same = dijkstra::build(1);
        let other_seed = dijkstra::build(2);
        assert_eq!(
            truth_key(&a, &config.campaign()),
            truth_key(&same, &config.campaign())
        );
        assert_ne!(
            truth_key(&a, &config.campaign()),
            truth_key(&other_seed, &config.campaign())
        );
    }

    #[test]
    fn keys_cover_campaign_parameters() {
        let base = PipelineConfig::quick_test();
        let bench = dijkstra::build(1);
        let k0 = truth_key(&bench, &base.campaign());

        let mut stride = base;
        stride.bit_stride = 8;
        assert_ne!(k0, truth_key(&bench, &stride.campaign()));

        let mut inst = base;
        inst.instances_per_site = 2;
        assert_ne!(k0, truth_key(&bench, &inst.campaign()));

        // Worker-thread count does not affect results, so it must not
        // affect the key.
        let mut threads = base;
        threads.threads = 5;
        assert_eq!(k0, truth_key(&bench, &threads.campaign()));
    }

    /// Cached models stay addressable: the key of a quick-config `lu`
    /// model is pinned to the value computed when the graph stride was a
    /// separate setting.
    #[test]
    fn model_key_is_pinned() {
        let config = PipelineConfig::quick_test();
        let lu = crate::data::prepare_benchmark(lu::build(1), &config);
        assert_eq!(model_key(&[&lu], &config).to_string(), "d803583d9aaf4240");
    }

    #[test]
    fn missing_artifact_is_a_miss() {
        let cache = temp_cache("miss");
        let key = truth_key(
            &dijkstra::build(1),
            &PipelineConfig::quick_test().campaign(),
        );
        assert!(cache.load_truth(key).is_none());
    }
}
