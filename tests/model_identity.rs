//! Bit identity of every estimator `train_models` fits.
//!
//! The GraphSAGE bytes are pinned elsewhere as well (the benchmark's
//! `train-model` digest and the 2-thread training `cmp` of
//! `scripts/check.sh`); this file also pins the three baselines, through
//! their estimates on the held-out program, at the default thread count
//! and serially, and a small MLP fit whose layer-1 products are large
//! enough to fan out over threads.
//!
//! The full-size case is ignored by default: it prepares six programs and
//! trains every model at the `train` workload's shape, which is slow in a
//! debug build. `scripts/check.sh` runs it in release:
//!
//! ```text
//! cargo test --release --offline --test model_identity -- --ignored
//! ```

use glaive::{train_models, train_set, BenchData, Method, Pipeline, PipelineConfig};
use glaive_bench_suite::{suite, Category, Split};
use glaive_ml::{MlpClassifier, MlpConfig};
use glaive_nn::Matrix;

/// FNV-1a, restated locally so the pinned digests are independent of the
/// crates they check.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of `f32` values as little-endian bit patterns.
fn f32_digest(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// A one-hot dataset of 1,024 rows over 64 features with a 64-wide hidden
/// layer: rows × hidden × features is 2²², enough for the matrix kernels
/// to split their output rows over threads on a multi-core host.
#[test]
fn mlp_fit_is_pinned() {
    let (rows, features, classes) = (1024, 64, 3);
    let hot = |r: usize| (r * 37 + r / features) % features;
    let x = Matrix::from_fn(rows, features, |r, c| if c == hot(r) { 1.0 } else { 0.0 });
    let labels: Vec<usize> = (0..rows).map(|r| (hot(r) + r % 5 / 4) % classes).collect();
    let config = MlpConfig {
        hidden: 64,
        lr: 1e-2,
        epochs: 8,
        seed: 5,
    };
    let mut mlp = MlpClassifier::try_new(features, classes, &config).expect("valid model config");
    let losses = mlp.train(&x, &labels, None);
    let digest = f32_digest(
        f32_digest(FNV_OFFSET, &losses),
        mlp.predict_proba(&x).data(),
    );
    assert_eq!(
        digest, 0xb1ea_10c9_c5a7_2f51,
        "MLP losses or probabilities moved: {digest:#018x}"
    );
}

/// The `train` workload's held-out program; its training set is the five
/// control train/test programs.
const HELD_OUT: &str = "inversek2j";

#[test]
#[ignore = "prepares six programs and trains every model; run in release"]
fn train_models_is_pinned() {
    let config = PipelineConfig {
        bit_stride: 16,
        ..PipelineConfig::default()
    };
    let benches = suite(7)
        .into_iter()
        .filter(|b| {
            b.category == Category::Control && (b.split == Split::TrainTest || b.name == HELD_OUT)
        })
        .collect();
    let data = Pipeline::new(config)
        .expect("valid config")
        .prepare_benchmarks(benches)
        .expect("training programs prepare");
    let held = data
        .iter()
        .find(|d| d.bench.name == HELD_OUT)
        .expect("held-out program prepared");
    let train: Vec<&BenchData> = train_set(&data, held).collect();
    assert_eq!(train.len(), 5);
    // The default fans out (the GNN beside the baselines, the GNN's epoch
    // over two threads on a multi-core host); 1 trains serially.
    for train_threads in [config.train_threads, 1] {
        let config = PipelineConfig {
            train_threads,
            ..config
        };
        let models = train_models(&train, &config);

        let model = fnv1a(FNV_OFFSET, &models.glaive_model().to_bytes());
        let estimates = Method::ALL.iter().fold(FNV_OFFSET, |h, &method| {
            models
                .estimate(method, held)
                .iter()
                .flatten()
                .flat_map(|t| [t.crash, t.sdc, t.masked])
                .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
        });
        assert_eq!(
            (model, estimates),
            (0xf7d7_45e3_624d_a8c4, 0x780a_fcb0_8b6c_4d96),
            "train_threads {train_threads}: model bytes or estimates moved: \
             {model:#018x}, {estimates:#018x}"
        );
    }
}
