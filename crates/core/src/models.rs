use glaive_faultsim::VulnTuple;
use glaive_gnn::{GraphSage, TrainGraph};
use glaive_ml::{MlpClassifier, RandomForest, SvrRff};
use glaive_nn::Matrix;
use glaive_sim::Outcome;

use crate::config::PipelineConfig;
use crate::data::BenchData;
use crate::error::Error;

/// The estimation methods compared throughout §V of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// M1: the augmented GraphSAGE on bit-level CDFGs.
    Glaive,
    /// M2: the bit-level MLP baseline.
    MlpBit,
    /// M3: the instruction-level SVR baseline.
    SvmInst,
    /// M4: the instruction-level random-forest baseline.
    RfInst,
}

impl Method {
    /// All methods, in the paper's M1..M4 order.
    pub const ALL: [Method; 4] = [
        Method::Glaive,
        Method::MlpBit,
        Method::SvmInst,
        Method::RfInst,
    ];

    /// The paper's short tag (M1..M4).
    pub fn tag(self) -> &'static str {
        match self {
            Method::Glaive => "M1",
            Method::MlpBit => "M2",
            Method::SvmInst => "M3",
            Method::RfInst => "M4",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Glaive => "GLAIVE",
            Method::MlpBit => "MLP-BIT",
            Method::SvmInst => "SVM-INST",
            Method::RfInst => "RF-INST",
        }
    }

    /// Whether the method consumes bit-level inputs (and therefore yields
    /// per-bit class predictions).
    pub fn is_bit_level(self) -> bool {
        matches!(self, Method::Glaive | Method::MlpBit)
    }
}

/// All four estimators trained on the same training set.
#[derive(Debug)]
pub struct Models {
    glaive: GraphSage,
    /// Vanilla GraphSAGE (all-neighbour aggregation) for the Eq.(1)-vs-(2)
    /// ablation; only trained when the config asks for it.
    vanilla: Option<GraphSage>,
    mlp: MlpClassifier,
    forest: RandomForest,
    svr: SvrRff,
}

/// Trains every estimator on the given training benchmarks.
///
/// # Panics
///
/// Panics if `train` is empty or contains no labelled data.
pub fn train_models(train: &[&BenchData], config: &PipelineConfig) -> Models {
    train_models_with(train, config, None)
}

/// Like [`train_models`], but reusing an already-trained GLAIVE GraphSAGE
/// (from the artifact cache) instead of training one. The cheap baselines
/// are always retrained — only the GNN is worth caching.
pub(crate) fn train_models_with(
    train: &[&BenchData],
    config: &PipelineConfig,
    pretrained_glaive: Option<GraphSage>,
) -> Models {
    assert!(!train.is_empty(), "training set is empty");
    let feature_dim = train[0].features.cols();

    // GLAIVE: one labelled graph per benchmark, predecessor aggregation.
    let glaive = pretrained_glaive.unwrap_or_else(|| {
        let graphs: Vec<TrainGraph<'_>> = train
            .iter()
            .map(|d| TrainGraph {
                features: &d.features,
                graph: &d.preds,
                labels: &d.labels,
                mask: &d.mask,
            })
            .collect();
        let mut glaive = GraphSage::try_new(feature_dim, &config.sage).expect("valid model config");
        glaive.train_with_threads(&graphs, config.train_threads);
        glaive
    });

    // Vanilla ablation: identical except for symmetrised neighbourhoods.
    let vanilla = config.train_vanilla.then(|| {
        let vanilla_graphs: Vec<TrainGraph<'_>> = train
            .iter()
            .map(|d| TrainGraph {
                features: &d.features,
                graph: &d.all_neighbors,
                labels: &d.labels,
                mask: &d.mask,
            })
            .collect();
        let mut vanilla =
            GraphSage::try_new(feature_dim, &config.sage).expect("valid model config");
        vanilla.train_with_threads(&vanilla_graphs, config.train_threads);
        vanilla
    });

    // MLP-BIT: stack every labelled bit node of every training benchmark.
    let labelled: usize = train.iter().map(|d| d.bit_datapoints()).sum();
    assert!(labelled > 0, "no labelled bit nodes in training set");
    let mut x = Matrix::zeros(labelled, feature_dim);
    let mut y = Vec::with_capacity(labelled);
    let mut row = 0;
    for d in train {
        for (i, &m) in d.mask.iter().enumerate() {
            if m {
                x.row_mut(row).copy_from_slice(d.features.row(i));
                y.push(d.labels[i]);
                row += 1;
            }
        }
    }
    let mut mlp = MlpClassifier::try_new(feature_dim, 3, &config.mlp).expect("valid model config");
    mlp.train(&x, &y, None);

    // RF-INST / SVM-INST: instruction features → FI vulnerability tuples.
    let instr_rows: usize = train.iter().map(|d| d.instr_datapoints()).sum();
    let mut xi = Matrix::zeros(instr_rows, glaive_cdfg::INSTR_FEATURE_DIM);
    let mut yi = Matrix::zeros(instr_rows, 3);
    let mut row = 0;
    for d in train {
        for pc in d.covered_pcs() {
            xi.row_mut(row).copy_from_slice(d.instr_features.row(pc));
            let t = d.fi_tuples[pc].expect("covered");
            yi.row_mut(row)
                .copy_from_slice(&[t.crash as f32, t.sdc as f32, t.masked as f32]);
            row += 1;
        }
    }
    let forest = RandomForest::fit(&xi, &yi, &config.forest);
    let svr = SvrRff::fit(&xi, &yi, &config.svr);

    Models {
        glaive,
        vanilla,
        mlp,
        forest,
        svr,
    }
}

impl Models {
    /// The trained GLAIVE GraphSAGE (e.g. for serialisation via
    /// [`GraphSage::to_bytes`]).
    pub fn glaive_model(&self) -> &GraphSage {
        &self.glaive
    }

    /// Per-bit class predictions on `data` for a bit-level method.
    ///
    /// # Errors
    ///
    /// [`Error::NotBitLevel`] for the instruction-level regressors, which
    /// have no per-bit output (check [`Method::is_bit_level`] first).
    pub fn bit_predictions(&self, method: Method, data: &BenchData) -> Result<Vec<usize>, Error> {
        match method {
            Method::Glaive => Ok(self.glaive.predict_labels(&data.features, &data.preds)),
            Method::MlpBit => Ok(self.mlp.predict_labels(&data.features)),
            Method::RfInst | Method::SvmInst => Err(Error::NotBitLevel(method)),
        }
    }

    /// Per-bit predictions of the vanilla (all-neighbour) GraphSAGE
    /// ablation, if it was trained (`PipelineConfig::train_vanilla`).
    pub fn vanilla_bit_predictions(&self, data: &BenchData) -> Option<Vec<usize>> {
        self.vanilla
            .as_ref()
            .map(|v| v.predict_labels(&data.features, &data.all_neighbors))
    }

    /// Estimated instruction vulnerability tuples for every PC of `data`
    /// (`None` where the method has no basis to estimate — instructions
    /// without operands for bit-level methods).
    ///
    /// Bit-level methods aggregate the *bit vulnerability distribution*
    /// (paper §III-D): the instruction tuple is the mean of its bit nodes'
    /// predicted class probabilities.
    pub fn estimate(&self, method: Method, data: &BenchData) -> Vec<Option<VulnTuple>> {
        match method {
            Method::Glaive => aggregate_probs_to_instructions(
                data,
                &self.glaive.predict_proba(&data.features, &data.preds),
            ),
            Method::MlpBit => {
                aggregate_probs_to_instructions(data, &self.mlp.predict_proba(&data.features))
            }
            Method::RfInst => regressed_tuples(&self.forest.predict(&data.instr_features)),
            Method::SvmInst => regressed_tuples(&self.svr.predict(&data.instr_features)),
        }
    }
}

/// Paper §III-D: instruction vulnerability from a model's bit
/// vulnerability distribution — the mean class-probability vector over the
/// instruction's bit nodes (`I_C = N_C / N_U` in expectation).
///
/// `bit_probs` is one class-probability row per CDFG node (the output of
/// [`GraphSage::predict_proba`](glaive_gnn::GraphSage::predict_proba) or
/// an MLP's per-bit probabilities); `program_len` sizes the result, one
/// entry per PC, `None` where the program has no graph nodes (operand-less
/// instructions). Shared by the pipeline estimators, the CLI `apply`
/// command and the `glaive-serve` model server.
pub fn aggregate_bit_probs(
    cdfg: &glaive_cdfg::Cdfg,
    program_len: usize,
    bit_probs: &Matrix,
) -> Vec<Option<VulnTuple>> {
    let mut sums = vec![[0.0f64; 3]; program_len];
    let mut counts = vec![0u64; program_len];
    for (id, node) in cdfg.nodes().iter().enumerate() {
        let row = bit_probs.row(id);
        for (acc, &p) in sums[node.pc].iter_mut().zip(row) {
            *acc += p as f64;
        }
        counts[node.pc] += 1;
    }
    sums.into_iter()
        .zip(counts)
        .map(|(s, c)| {
            if c == 0 {
                None
            } else {
                Some(VulnTuple {
                    crash: s[Outcome::Crash.label()] / c as f64,
                    sdc: s[Outcome::Sdc.label()] / c as f64,
                    masked: s[Outcome::Masked.label()] / c as f64,
                })
            }
        })
        .collect()
}

fn aggregate_probs_to_instructions(data: &BenchData, bit_probs: &Matrix) -> Vec<Option<VulnTuple>> {
    aggregate_bit_probs(&data.cdfg, data.bench.program().len(), bit_probs)
}

/// Clamps and renormalises raw regressor outputs into valid tuples.
fn regressed_tuples(pred: &Matrix) -> Vec<Option<VulnTuple>> {
    (0..pred.rows())
        .map(|r| {
            let row = pred.row(r);
            let crash = row[0].max(0.0) as f64;
            let sdc = row[1].max(0.0) as f64;
            let masked = row[2].max(0.0) as f64;
            let sum = crash + sdc + masked;
            Some(if sum <= 1e-12 {
                VulnTuple::MASKED
            } else {
                VulnTuple {
                    crash: crash / sum,
                    sdc: sdc / sum,
                    masked: masked / sum,
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::prepare_benchmark;
    use crate::PipelineConfig;
    use glaive_bench_suite::control::dijkstra;
    use glaive_bench_suite::data::radix;

    fn models_and_data() -> (Models, BenchData, BenchData) {
        let config = PipelineConfig::quick_test();
        let train = prepare_benchmark(dijkstra::build(1), &config);
        let test = prepare_benchmark(radix::build(1), &config);
        let models = train_models(&[&train], &config);
        (models, train, test)
    }

    #[test]
    fn estimates_cover_fi_covered_instructions() {
        let (models, train, test) = models_and_data();
        for method in Method::ALL {
            for data in [&train, &test] {
                let est = models.estimate(method, data);
                assert_eq!(est.len(), data.bench.program().len());
                for pc in data.covered_pcs() {
                    let t = est[pc].unwrap_or_else(|| {
                        panic!("{} missing estimate at covered pc {pc}", method.name())
                    });
                    assert!(
                        (t.crash + t.sdc + t.masked - 1.0).abs() < 1e-6,
                        "{} tuple not normalised",
                        method.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bit_predictions_exist_only_for_bit_methods() {
        let (models, _, test) = models_and_data();
        assert!(models.bit_predictions(Method::Glaive, &test).is_ok());
        assert!(models.bit_predictions(Method::MlpBit, &test).is_ok());
        assert_eq!(
            models.bit_predictions(Method::RfInst, &test),
            Err(Error::NotBitLevel(Method::RfInst))
        );
        assert_eq!(
            models.bit_predictions(Method::SvmInst, &test),
            Err(Error::NotBitLevel(Method::SvmInst))
        );
        assert_eq!(
            models
                .vanilla_bit_predictions(&test)
                .expect("quick_test trains vanilla")
                .len(),
            test.cdfg.node_count()
        );
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::Glaive.tag(), "M1");
        assert_eq!(Method::RfInst.tag(), "M4");
        assert!(Method::MlpBit.is_bit_level());
        assert!(!Method::SvmInst.is_bit_level());
        assert_eq!(Method::ALL.len(), 4);
    }

    #[test]
    fn regressed_tuples_are_clamped_and_normalised() {
        let raw = Matrix::from_vec(2, 3, vec![-0.2, 0.5, 0.5, 0.0, 0.0, 0.0]);
        let t = regressed_tuples(&raw);
        let a = t[0].expect("some");
        assert_eq!(a.crash, 0.0);
        assert!((a.sdc - 0.5).abs() < 1e-9);
        let b = t[1].expect("some");
        assert_eq!(b.masked, 1.0);
    }
}
