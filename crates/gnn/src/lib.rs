//! The GLAIVE model: GraphSAGE augmented with predecessor-only MEAN
//! aggregation (paper §III-C, Eq. (2)–(3)).
//!
//! Per layer `k`, each node embedding is
//! `h_v^k = σ(W^k · [h_v^{k-1} ‖ mean_{u ∈ PR(v)} h_u^{k-1}])`
//! where `PR(v)` are the node's *predecessors* in the bit-level CDFG — the
//! direction along which soft errors propagate. Aggregating only over
//! predecessors (instead of all neighbours, as vanilla GraphSAGE does) is
//! the paper's key model change; the vanilla variant is available for the
//! ablation by passing symmetrised neighbour lists.
//!
//! The model is **inductive**: it never sees node identities, only features
//! and neighbourhood structure, so a model trained on some programs' graphs
//! transfers to unseen programs without retraining (paper §V-A).
//!
//! Training is full-batch with per-epoch neighbour resampling (sample size
//! 50 as in the paper). The paper's 256-node minibatching is replaced by
//! full-batch gradient steps — with our graph sizes one full-batch step
//! processes roughly as many labelled nodes as the paper's epoch of
//! minibatches (documented substitution, see DESIGN.md §1).
//!
//! Graphs enter and leave this crate as flat CSR adjacencies
//! ([`glaive_graph::CsrGraph`]); the aggregation kernels in [`kernels`]
//! run over contiguous CSR ranges with no per-node allocation, and
//! per-epoch neighbour sampling reuses one [`SampledCsr`] workspace. A
//! server keeps one forward [`Workspace`] across predictions
//! ([`GraphSage::predict_proba_in`]).
//!
//! # Example
//!
//! ```
//! use glaive_graph::CsrGraph;
//! use glaive_nn::Matrix;
//! use glaive_gnn::{GraphSage, SageConfig, TrainGraph};
//!
//! // A 4-node chain 0 → 1 → 2 → 3 whose labels depend on the predecessor:
//! // node v's aggregation row holds its predecessor v-1.
//! let features = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]);
//! let preds = CsrGraph::from_edges(4, (1..4u32).map(|v| (v, v - 1)));
//! let labels = vec![0, 1, 0, 1];
//! let mask = vec![true; 4];
//! let graph = TrainGraph {
//!     features: &features,
//!     graph: &preds,
//!     labels: &labels,
//!     mask: &mask,
//! };
//! let config = SageConfig { hidden: 8, layers: 2, classes: 2, epochs: 60, ..SageConfig::default() };
//! let mut model = GraphSage::try_new(2, &config).expect("valid model config");
//! let stats = model.train(&[graph]);
//! assert!(stats.final_loss() < stats.epoch_losses[0]);
//! let pred = model.predict_labels(&features, &preds);
//! assert_eq!(pred, labels);
//! ```

pub mod kernels;
mod model;
mod serdes;

pub use kernels::SampledCsr;
pub use model::{GraphSage, ModelConfigError, SageConfig, TrainGraph, TrainStats, Workspace};
pub use serdes::ModelDecodeError;
