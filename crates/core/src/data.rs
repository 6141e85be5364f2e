use glaive_bench_suite::{Benchmark, Split};
use glaive_cdfg::{instruction_features, Cdfg, INSTR_FEATURE_DIM};
use glaive_faultsim::{Campaign, GroundTruth, PcResidency, Residency, VulnTuple};
use glaive_graph::CsrGraph;
use glaive_nn::Matrix;
use glaive_timing::{try_profile, InOrderCost, TimingProfile};

use crate::config::PipelineConfig;

/// Everything the estimators need about one benchmark: the compiled
/// program, its bit-level CDFG, FI ground truth, and pre-extracted
/// feature/label tensors.
#[derive(Debug, Clone)]
pub struct BenchData {
    /// The benchmark (program, inputs, category, split).
    pub bench: Benchmark,
    /// Its bit-level CDFG.
    pub cdfg: Cdfg,
    /// FI campaign results (ground truth).
    pub truth: GroundTruth,
    /// `node_count × FEATURE_DIM` bit-node features.
    pub features: Matrix,
    /// Ternary FI label per CDFG node (0 where unlabelled; see `mask`).
    pub labels: Vec<usize>,
    /// Whether each CDFG node has an FI label.
    pub mask: Vec<bool>,
    /// Predecessor CSR graph (GLAIVE's aggregation neighbourhood), a copy
    /// of the CDFG's.
    pub preds: CsrGraph,
    /// `program.len() × INSTR_FEATURE_DIM` instruction features.
    pub instr_features: Matrix,
    /// FI instruction vulnerability tuple per PC (None = never injected).
    pub fi_tuples: Vec<Option<VulnTuple>>,
    /// Injections per PC (program-vulnerability weights).
    pub fi_weights: Vec<u64>,
}

impl BenchData {
    /// The symmetrised all-neighbour graph the vanilla GraphSAGE ablation
    /// aggregates over (paper Eq. 1), built on demand from `preds`.
    pub fn all_neighbors(&self) -> CsrGraph {
        self.preds.symmetrised()
    }

    /// The same benchmark and ground truth re-joined onto a CDFG built at
    /// `graph_stride`, with no campaign re-run — the fair word-vs-bit
    /// representation ablation: both representations are scored against
    /// the *same* FI ground truth, the coarser graph simply cannot see
    /// per-bit structure. Graph strides must be multiples of the campaign
    /// stride, otherwise most labels fail to join.
    pub fn with_graph_stride(&self, graph_stride: usize) -> BenchData {
        assemble_bench_data(self.bench.clone(), graph_stride, self.truth.clone())
    }

    /// Number of labelled bit-level datapoints (Table II "BL").
    pub fn bit_datapoints(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// Number of FI-covered instructions (Table II "IL").
    pub fn instr_datapoints(&self) -> usize {
        self.fi_tuples.iter().flatten().count()
    }

    /// PCs with FI ground truth, in ascending order.
    pub fn covered_pcs(&self) -> Vec<usize> {
        self.fi_tuples
            .iter()
            .enumerate()
            .filter_map(|(pc, t)| t.map(|_| pc))
            .collect()
    }
}

/// Runs the FI campaign and graph extraction for one benchmark.
pub fn prepare_benchmark(bench: Benchmark, config: &PipelineConfig) -> BenchData {
    let truth = Campaign::try_new(bench.program(), &bench.init_mem, config.campaign())
        .expect("pipeline campaign config is validated")
        .run();
    assemble_bench_data(bench, config.bit_stride, truth)
}

/// Profiles `bench`'s golden run under the in-order cost model — the
/// dynamic-timing source for the residency-weighted vulnerability metric.
pub fn golden_timing_profile(bench: &Benchmark) -> TimingProfile {
    let (result, profile) = try_profile(
        bench.program(),
        &bench.init_mem,
        &bench.exec_config(),
        InOrderCost::default(),
    )
    .expect("suite benchmarks are well-formed");
    assert!(
        result.status.is_clean(),
        "{}: golden run did not halt cleanly",
        bench.name
    );
    profile
}

/// Converts a collected timing profile into the fault-injection crate's
/// residency table — the glue that lets a [`GroundTruth`] be extended with
/// [`GroundTruth::with_residency`] (and serialised with the GLVFIT01
/// residency extension) without `glaive-faultsim` depending on the timing
/// layer.
pub fn residency_from_profile(profile: &TimingProfile) -> Residency {
    Residency::new(
        profile.total_cycles,
        profile
            .per_pc
            .iter()
            .map(|t| PcResidency {
                sum: t.residency_sum,
                count: t.residency_count,
            })
            .collect(),
    )
}

/// Joins already-computed FI ground truth onto a freshly built CDFG — the
/// deterministic, cheap half of benchmark preparation. The pipeline runtime
/// calls this directly when the campaign was served from the artifact
/// cache.
pub(crate) fn assemble_bench_data(
    bench: Benchmark,
    graph_stride: usize,
    truth: GroundTruth,
) -> BenchData {
    let cdfg = Cdfg::build(
        bench.program(),
        &glaive_cdfg::CdfgConfig {
            bit_stride: graph_stride,
        },
    );

    let features = Matrix::from_vec(
        cdfg.node_count(),
        glaive_cdfg::FEATURE_DIM,
        cdfg.feature_matrix(),
    );

    let bit_labels = truth.bit_labels();
    let mut labels = vec![0usize; cdfg.node_count()];
    let mut mask = vec![false; cdfg.node_count()];
    for (site, outcome) in &bit_labels {
        if let Some(id) = cdfg.node_id(site.pc, site.slot, site.bit) {
            labels[id as usize] = outcome.label();
            mask[id as usize] = true;
        }
    }

    let preds = cdfg.preds_csr().clone();

    let instr_features = Matrix::from_vec(
        bench.program().len(),
        INSTR_FEATURE_DIM,
        instruction_features(bench.program()),
    );
    let mut fi_tuples = vec![None; bench.program().len()];
    let mut fi_weights = vec![0u64; bench.program().len()];
    let instr_vuln = truth
        .try_instruction_vulnerability()
        .expect("every grouped pc has at least one record");
    for iv in instr_vuln {
        fi_tuples[iv.pc] = Some(iv.tuple);
        fi_weights[iv.pc] = iv.injections;
    }

    BenchData {
        bench,
        cdfg,
        truth,
        features,
        labels,
        mask,
        preds,
        instr_features,
        fi_tuples,
        fi_weights,
    }
}

/// The training set for evaluating on `test`, following the paper's regime
/// (§IV): same-category train/test benchmarks, excluding `test` itself —
/// the round-robin n−1 split for train/test members, and all five
/// same-category members for the held-out validation programs.
pub fn train_set<'a>(
    all: &'a [BenchData],
    test: &'a BenchData,
) -> impl Iterator<Item = &'a BenchData> {
    all.iter().filter(move |d| {
        d.bench.category == test.bench.category
            && d.bench.split == Split::TrainTest
            && d.bench.name != test.bench.name
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_bench_suite::control::dijkstra;

    fn quick_data() -> BenchData {
        prepare_benchmark(dijkstra::build(3), &PipelineConfig::quick_test())
    }

    #[test]
    fn labels_join_onto_graph_nodes() {
        let d = quick_data();
        assert!(d.bit_datapoints() > 0, "campaign produced labels");
        // Every label sits on an executed instruction's node.
        for (id, &m) in d.mask.iter().enumerate() {
            if m {
                let node = d.cdfg.nodes()[id];
                assert!(
                    d.truth.golden().exec_counts[node.pc] > 0,
                    "label on never-executed pc {}",
                    node.pc
                );
                assert!(d.labels[id] < 3);
            }
        }
    }

    #[test]
    fn instruction_tuples_cover_executed_instructions() {
        let d = quick_data();
        assert!(d.instr_datapoints() > 0);
        for pc in d.covered_pcs() {
            assert!(d.fi_weights[pc] > 0);
            let t = d.fi_tuples[pc].expect("covered");
            assert!((t.crash + t.sdc + t.masked - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn neighbor_lists_are_symmetrised_supersets() {
        let d = quick_data();
        let all = d.all_neighbors();
        assert_eq!(d.preds.node_count(), d.cdfg.node_count());
        assert_eq!(all.node_count(), d.cdfg.node_count());
        for id in 0..d.preds.node_count() {
            for p in d.preds.neighbors(id) {
                assert!(all.neighbors(id).contains(p));
            }
        }
        // Symmetry: u in all[v] ⇒ v in all[u].
        for v in 0..all.node_count() {
            for &u in all.neighbors(v) {
                assert!(
                    all.neighbors(u as usize).contains(&(v as u32)),
                    "asymmetric neighbourhood {v} ↔ {u}"
                );
            }
        }
    }

    #[test]
    fn residency_glue_feeds_the_weighted_vulnerability_metric() {
        let bench = dijkstra::build(3);
        let profile = golden_timing_profile(&bench);
        assert_eq!(profile.per_pc.len(), bench.program().len());
        let residency = residency_from_profile(&profile);
        assert_eq!(residency.total_cycles(), profile.total_cycles);

        let d = prepare_benchmark(bench, &PipelineConfig::quick_test());
        let truth = d.truth.clone().with_residency(residency).expect("aligned");
        let weighted = truth
            .try_residency_weighted_vulnerability()
            .expect("residency attached");
        assert_eq!(weighted.len(), d.covered_pcs().len());
        assert!(
            weighted.iter().any(|&(_, w)| w > 0.0),
            "every residency-weighted score is zero"
        );
    }

    #[test]
    fn train_set_excludes_test_and_other_category() {
        let config = PipelineConfig::quick_test();
        // Build a miniature suite: two control TT benches + one data TT.
        let all = vec![
            prepare_benchmark(glaive_bench_suite::control::dijkstra::build(1), &config),
            prepare_benchmark(glaive_bench_suite::control::sobel::build(1), &config),
            prepare_benchmark(glaive_bench_suite::data::radix::build(1), &config),
        ];
        let names: Vec<&str> = train_set(&all, &all[0]).map(|d| d.bench.name).collect();
        assert_eq!(names, vec!["sobel"]);
    }
}
