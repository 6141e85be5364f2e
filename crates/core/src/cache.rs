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
//! version-mismatched artifact is a cache *miss*, and the pipeline
//! recomputes. Ground truth detects corruption itself (GLVFIT01 carries
//! magic, version and checksum fields); the GLAIVE01 model format has no
//! checksum, so the cache appends an FNV-1a trailer to every model file it
//! writes and reads a file whose trailer is missing or wrong as a miss.
//! Only writes can fail, and the pipeline treats those as non-fatal too.

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

/// The FNV-1a checksum a cached model file ends with.
fn model_checksum(body: &[u8]) -> [u8; 8] {
    let mut h = Fnv::new("glaive-model-file");
    h.bytes(body);
    h.0.to_le_bytes()
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
/// `config`. Covers the model hyperparameters, the campaign's bit stride,
/// the training graphs' stride, the campaign parameters that shape the
/// labels, and each training benchmark's content, in training order
/// (order affects the weights). `train_threads` is deliberately absent:
/// any thread count produces bit-identical weights. The `v2` version tag
/// invalidates models trained before multi-graph epochs switched to one
/// merged-gradient step.
pub fn model_key(train: &[&BenchData], config: &PipelineConfig) -> CacheKey {
    let mut h = Fnv::new("glaive-model-v2");
    let s = &config.sage;
    for v in [s.hidden, s.layers, s.classes, s.sample_size, s.epochs] {
        h.u64(v as u64);
    }
    h.u64(s.lr.to_bits() as u64);
    h.u64(s.seed);
    h.u64(config.bit_stride as u64);
    // The graphs' stride equals the campaign's unless the data was
    // re-joined onto a coarser graph (`BenchData::with_graph_stride`), so
    // ordinary data keeps the keys it had when this slot held a separate
    // graph-stride setting.
    let graph_stride = train
        .first()
        .map_or(config.bit_stride, |d| d.cdfg.config().bit_stride);
    h.u64(graph_stride as u64);
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

    /// Looks up a cached trained GLAIVE model. A missing or mismatched
    /// checksum trailer, or any decode failure, is a miss.
    pub fn load_model(&self, key: CacheKey) -> Option<GraphSage> {
        let bytes = self.load_bytes("model", key)?;
        let (body, trailer) = bytes.split_at(bytes.len().checked_sub(8)?);
        if trailer != model_checksum(body) {
            return None;
        }
        GraphSage::from_bytes(body).ok()
    }

    /// Stores a trained GLAIVE model under `key`: its GLAIVE01 bytes
    /// followed by their checksum.
    pub fn store_model(&self, key: CacheKey, model: &GraphSage) -> Result<(), Error> {
        let mut bytes = model.to_bytes();
        bytes.extend_from_slice(&model_checksum(&bytes));
        self.store_bytes("model", key, &bytes)
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

    /// Data re-joined onto a coarser graph trains a different model from
    /// the same programs and configuration, so it needs its own key.
    #[test]
    fn rejoined_data_gets_its_own_model_key() {
        let config = PipelineConfig::quick_test();
        let lu = crate::data::prepare_benchmark(lu::build(1), &config);
        let key = model_key(&[&lu], &config);
        let word = lu.with_graph_stride(64);
        assert_ne!(model_key(&[&word], &config), key);
        let same = lu.with_graph_stride(config.bit_stride);
        assert_eq!(model_key(&[&same], &config), key);
    }

    #[test]
    fn corrupted_or_unchecked_models_are_misses() {
        let config = PipelineConfig::quick_test();
        let cache = temp_cache("model-flip");
        let model = GraphSage::try_new(glaive_cdfg::FEATURE_DIM, &config.sage).expect("valid");
        let key = CacheKey(0x5eed);
        cache.store_model(key, &model).expect("store");
        let loaded = cache.load_model(key).expect("intact model loads");
        assert_eq!(loaded.to_bytes(), model.to_bytes());

        // GLAIVE01 header: magic (8), seven config fields (52) and the
        // layer count (8), then layer 0's rows and cols (16). Byte 96 is
        // the low mantissa byte of the fourth weight: flipping a bit there
        // still decodes to a finite model.
        let path = cache.dir().join(format!("model-{key}.bin"));
        let pristine = std::fs::read(&path).expect("read");
        let mut flipped = pristine.clone();
        flipped[96] ^= 0x01;
        assert!(
            GraphSage::from_bytes(&flipped).is_ok(),
            "flip stays decodable"
        );
        std::fs::write(&path, &flipped).expect("write");
        assert!(cache.load_model(key).is_none(), "flipped weight must miss");

        // A file without the trailer, as earlier caches wrote, misses too.
        std::fs::write(&path, model.to_bytes()).expect("write");
        assert!(
            cache.load_model(key).is_none(),
            "trailer-less file must miss"
        );
        std::fs::write(&path, &pristine).expect("write");
        assert!(cache.load_model(key).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
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
