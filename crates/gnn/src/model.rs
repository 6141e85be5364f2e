use glaive_graph::{CsrGraph, CsrView};
use glaive_nn::{
    par, relu, relu_backward, softmax_cross_entropy, softmax_rows, Adam, DetRng, Linear,
    LinearGrads, Matrix,
};

use crate::kernels::{sage_backward_fused, sage_forward_fused, SampledCsr};

/// Hyperparameters of the augmented GraphSAGE model. Defaults follow the
/// paper (§IV): 3 layers, hidden dimension 128, learning rate 1e-3,
/// 10 epochs, neighbour sample size 50, ReLU, cross-entropy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SageConfig {
    /// Hidden embedding dimension.
    pub hidden: usize,
    /// Number of GraphSAGE layers (the last produces class logits).
    pub layers: usize,
    /// Number of output classes (3: Masked / SDC / Crash).
    pub classes: usize,
    /// Neighbours sampled per node per epoch during training.
    pub sample_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs (full-batch gradient steps per graph).
    pub epochs: usize,
    /// Seed for weight initialisation and neighbour sampling.
    pub seed: u64,
}

impl Default for SageConfig {
    fn default() -> Self {
        SageConfig {
            hidden: 128,
            layers: 3,
            classes: 3,
            sample_size: 50,
            lr: 1e-3,
            epochs: 10,
            seed: 1,
        }
    }
}

/// One labelled training graph: features, the aggregation neighbourhood as
/// a flat CSR graph (predecessors for GLAIVE, the symmetrised view for the
/// vanilla ablation), per-node class labels, and a mask selecting
/// labelled nodes.
#[derive(Debug, Clone, Copy)]
pub struct TrainGraph<'a> {
    /// `n × d` node feature matrix.
    pub features: &'a Matrix,
    /// Aggregation neighbourhood of each node (`graph.neighbors(v)`).
    pub graph: &'a CsrGraph,
    /// Class label per node (ignored where `mask` is false).
    pub labels: &'a [usize],
    /// Which nodes contribute to the loss.
    pub mask: &'a [bool],
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean masked loss per epoch (averaged over graphs).
    pub epoch_losses: Vec<f32>,
}

impl TrainStats {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Rejected model shape: a [`SageConfig`] field (or the feature width)
/// below its minimum legal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfigError {
    /// The offending field.
    pub field: &'static str,
    /// The smallest value the field accepts.
    pub min: usize,
}

impl std::fmt::Display for ModelConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid model config: `{}` must be at least {}",
            self.field, self.min
        )
    }
}

impl std::error::Error for ModelConfigError {}

/// The augmented GraphSAGE model (see crate docs).
#[derive(Debug, Clone)]
pub struct GraphSage {
    layers: Vec<Linear>,
    config: SageConfig,
    rng: DetRng,
}

impl GraphSage {
    /// Creates a model for `in_dim`-dimensional node features.
    ///
    /// # Errors
    ///
    /// [`ModelConfigError`] if the feature width is zero or the
    /// configuration has zero layers, hidden width or sample size, or
    /// fewer than two classes.
    pub fn try_new(in_dim: usize, config: &SageConfig) -> Result<GraphSage, ModelConfigError> {
        let floors = [
            ("in_dim", in_dim, 1),
            ("layers", config.layers, 1),
            ("classes", config.classes, 2),
            ("hidden", config.hidden, 1),
            ("sample_size", config.sample_size, 1),
        ];
        if let Some(&(field, _, min)) = floors.iter().find(|&&(_, value, min)| value < min) {
            return Err(ModelConfigError { field, min });
        }
        let mut rng = DetRng::new(config.seed);
        let mut layers = Vec::with_capacity(config.layers);
        let mut d = in_dim;
        for l in 0..config.layers {
            let out = if l + 1 == config.layers {
                config.classes
            } else {
                config.hidden
            };
            // Input is the concatenation [h_v ‖ mean(preds)].
            layers.push(Linear::glorot(2 * d, out, &mut rng));
            d = out;
        }
        Ok(GraphSage {
            layers,
            config: *config,
            rng,
        })
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &SageConfig {
        &self.config
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// A copy of the model with flat parameter `index` of `layer` shifted
    /// by `delta`. Parameters are ordered row-major weights then bias —
    /// the same flattening as [`glaive_nn::LinearGrads`] — so a
    /// finite-difference probe can walk every parameter and compare the
    /// numerical slope against [`GraphSage::compute_gradients`].
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `index` is out of range.
    pub fn nudged(&self, layer: usize, index: usize, delta: f32) -> GraphSage {
        let mut copy = self.clone();
        let l = &copy.layers[layer];
        let w_len = l.weights().data().len();
        let (mut w, mut b) = (l.weights().clone(), l.bias().to_vec());
        if index < w_len {
            w.data_mut()[index] += delta;
        } else {
            b[index - w_len] += delta;
        }
        copy.layers[layer] = Linear::from_parts(w, b);
        copy
    }

    /// Read access to the layers (used by serialisation).
    pub(crate) fn layer_views(&self) -> &[Linear] {
        &self.layers
    }

    /// Reassembles a model from deserialised layers; `None` if the layer
    /// dimensions are inconsistent with `config` (each layer's input must
    /// be twice the previous output — the [h ‖ agg] concatenation).
    pub(crate) fn from_parts(layers: Vec<Linear>, config: SageConfig) -> Option<GraphSage> {
        if layers.len() != config.layers {
            return None;
        }
        let mut d = layers[0].in_dim() / 2;
        if layers[0].in_dim() != 2 * d {
            return None;
        }
        for (l, layer) in layers.iter().enumerate() {
            if layer.in_dim() != 2 * d {
                return None;
            }
            let want_out = if l + 1 == layers.len() {
                config.classes
            } else {
                config.hidden
            };
            if layer.out_dim() != want_out {
                return None;
            }
            d = layer.out_dim();
        }
        let rng = DetRng::new(config.seed);
        Some(GraphSage {
            layers,
            config,
            rng,
        })
    }

    /// Full forward pass over the given neighbourhood view into `ws`,
    /// through the fused aggregate→concat→linear kernel (the concatenated
    /// `[h ‖ agg]` matrix is never materialised). The first layer reads
    /// `features` in place; each layer's aggregate lands in `ws.aggs`, each
    /// hidden layer's output in `ws.hidden` and the logits in `ws.logits`.
    fn forward(&self, features: &Matrix, neigh: CsrView<'_>, ws: &mut Workspace) {
        let last = self.layers.len() - 1;
        ws.hidden.resize_with(last, Matrix::default);
        ws.aggs.resize_with(last + 1, Matrix::default);
        for (l, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = ws.hidden.split_at_mut(l);
            let h = if l == 0 { features } else { &inputs[l - 1] };
            if l == last {
                sage_forward_fused(layer, h, neigh, &mut ws.aggs[l], &mut ws.logits);
            } else {
                sage_forward_fused(layer, h, neigh, &mut ws.aggs[l], &mut outputs[0]);
                relu(&mut outputs[0]);
            }
        }
    }

    /// Loss and per-layer gradients for one graph under the given
    /// neighbourhood view: the forward pass into `ws`, then the backward
    /// pass, which writes layer `l`'s parameter gradients into `grads[l]`.
    fn backprop(
        &self,
        graph: &TrainGraph<'_>,
        neigh: CsrView<'_>,
        ws: &mut Workspace,
        grads: &mut [LinearGrads],
    ) -> f32 {
        self.forward(graph.features, neigh, ws);
        let loss = softmax_cross_entropy(&mut ws.logits, graph.labels, Some(graph.mask));

        // Backwards through the layers, fused: the [h ‖ agg] gradient is
        // split inside the matmul and the aggregate half scattered back
        // through the mean, with no concatenated intermediate.
        let last = self.layers.len() - 1;
        ws.d_hidden.resize_with(last, Matrix::default);
        for l in (1..=last).rev() {
            let (d_inputs, d_outputs) = ws.d_hidden.split_at_mut(l);
            let d_pre = if l == last { &ws.logits } else { &d_outputs[0] };
            let h = &ws.hidden[l - 1];
            let d_h = &mut d_inputs[l - 1];
            sage_backward_fused(
                &self.layers[l],
                h,
                &ws.aggs[l],
                neigh,
                d_pre,
                d_h,
                &mut ws.d_agg,
                &mut grads[l],
            );
            relu_backward(h, d_h);
        }
        // The raw features are not differentiated: the first layer
        // computes its parameter gradients only.
        let d_pre = ws.d_hidden.first().unwrap_or(&ws.logits);
        self.layers[0].grads_concat(graph.features, &ws.aggs[0], d_pre, &mut grads[0]);
        loss
    }

    /// Loss and per-layer gradients for one graph under the given sampled
    /// neighbourhood view (separated from the private training step, and public,
    /// so finite-difference tests can pin the analytic gradients of the
    /// kernel rewrites against numerical differentiation).
    pub fn compute_gradients(
        &self,
        graph: &TrainGraph<'_>,
        neigh: CsrView<'_>,
    ) -> (f32, Vec<LinearGrads>) {
        let mut grads = vec![LinearGrads::default(); self.layers.len()];
        let loss = self.backprop(graph, neigh, &mut Workspace::default(), &mut grads);
        (loss, grads)
    }

    /// Trains on the given graphs for the configured number of epochs with
    /// automatic data parallelism — equivalent to
    /// [`GraphSage::train_with_threads`] with `threads = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or a graph's shapes are inconsistent.
    pub fn train(&mut self, graphs: &[TrainGraph<'_>]) -> TrainStats {
        self.train_with_threads(graphs, 0)
    }

    /// Trains on the given graphs for the configured number of epochs,
    /// computing per-graph gradients data-parallel across up to `threads`
    /// threads. `threads` sets the width of every fan-out in the call
    /// ([`glaive_nn::par::with_width`]): `0` keeps the calling thread's,
    /// the machine's available parallelism unless the caller is a marked
    /// worker, and `1` runs the whole call on the calling thread, kernels
    /// included. The epoch's threads are marked, so the kernels inside
    /// them run serially; with one graph the epoch runs on the caller and
    /// its kernels may fan out instead.
    ///
    /// The result is **bit-identical at every thread count**: per epoch,
    /// all neighbourhoods are resampled serially from the shared RNG
    /// stream, the per-graph gradients — whose computation is read-only
    /// and embarrassingly parallel — are merged by a reduction tree whose
    /// shape depends only on the graph count, and one optimizer step is
    /// taken on the mean gradient. Threads only change *which worker*
    /// computes a gradient, never any accumulation order. With a single
    /// graph the loop degenerates to exactly the serial resample→step
    /// sequence of earlier releases.
    ///
    /// Every per-epoch buffer lives for the whole call: one neighbour
    /// sample and one gradient set per graph, and one forward/backward
    /// workspace per worker. Once they have grown, steady-state epochs
    /// allocate none of them.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or a graph's shapes are inconsistent.
    pub fn train_with_threads(&mut self, graphs: &[TrainGraph<'_>], threads: usize) -> TrainStats {
        assert!(!graphs.is_empty(), "training needs at least one graph");
        for g in graphs {
            assert_eq!(
                g.features.rows(),
                g.graph.node_count(),
                "feature/neighbour count mismatch"
            );
            assert_eq!(
                g.features.rows(),
                g.labels.len(),
                "feature/label count mismatch"
            );
            assert_eq!(
                g.features.rows(),
                g.mask.len(),
                "feature/mask count mismatch"
            );
        }
        par::with_width(threads, |width| {
            let mut state = TrainState::new(self, graphs.len(), width);
            let epoch_losses = (0..self.config.epochs)
                .map(|_| self.epoch(graphs, &mut state))
                .collect();
            TrainStats { epoch_losses }
        })
    }

    /// One training epoch over `graphs`; returns its mean loss.
    fn epoch(&mut self, graphs: &[TrainGraph<'_>], state: &mut TrainState) -> f32 {
        // Serial resample in graph order: the RNG stream is shared, so
        // this phase is identical regardless of worker count.
        let k = self.config.sample_size;
        for (graph, sample) in graphs.iter().zip(&mut state.samples) {
            sample.resample(graph.graph, k, &mut self.rng);
        }
        // Read-only per-graph gradient computation, fanned out over
        // contiguous graph chunks, each with its own workspace.
        let per = state.per;
        let jobs = graphs
            .chunks(per)
            .zip(state.samples.chunks(per))
            .zip(state.results.chunks_mut(per))
            .zip(&mut state.workspaces);
        let model = &*self;
        par::for_each(jobs, |(((gs, samples), results), ws)| {
            model.backprop_chunk(gs, samples, results, ws);
        });
        reduce_into_first(&mut state.results);
        let (total, grads) = &mut state.results[0];
        if graphs.len() > 1 {
            let inv = 1.0 / graphs.len() as f32;
            for g in grads.iter_mut() {
                g.w.scale(inv);
                for b in &mut g.b {
                    *b *= inv;
                }
            }
            *total *= inv;
        }
        for ((layer, grads), o) in self
            .layers
            .iter_mut()
            .zip(grads.iter())
            .zip(&mut state.opts)
        {
            layer.apply(o, grads);
        }
        *total
    }

    /// Loss and gradients of each graph in a chunk, on one workspace.
    fn backprop_chunk(
        &self,
        graphs: &[TrainGraph<'_>],
        samples: &[SampledCsr],
        results: &mut [(f32, Vec<LinearGrads>)],
        ws: &mut Workspace,
    ) {
        for ((graph, sample), (loss, grads)) in graphs.iter().zip(samples).zip(results) {
            *loss = self.backprop(graph, sample.view(), ws, grads);
        }
    }

    /// Class probabilities for every node of an (unseen) graph, aggregating
    /// over full neighbourhoods: [`GraphSage::predict_proba_in`] on a fresh
    /// workspace.
    pub fn predict_proba(&self, features: &Matrix, graph: &CsrGraph) -> Matrix {
        self.predict_proba_in(features, graph, &mut Workspace::default())
    }

    /// [`GraphSage::predict_proba`] with the forward pass's matrices kept
    /// in `ws` — the serving entry point. A workspace reused across calls
    /// grows to the largest graph it has seen and then allocates nothing
    /// but the returned probabilities. Every kernel refills its output
    /// before writing, so the result is bit-identical to a fresh
    /// workspace's whatever graphs `ws` served before.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different row count than `graph` has
    /// nodes.
    pub fn predict_proba_in(
        &self,
        features: &Matrix,
        graph: &CsrGraph,
        ws: &mut Workspace,
    ) -> Matrix {
        assert_eq!(
            features.rows(),
            graph.node_count(),
            "feature/neighbour count mismatch"
        );
        self.forward(features, graph.view(), ws);
        softmax_rows(&ws.logits)
    }

    /// The model's expected node-feature width (the first layer consumes
    /// `[h ‖ agg]`, twice this). Serving layers use it to reject models
    /// trained for a different feature schema before accepting traffic.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim() / 2
    }

    /// Hard label predictions (argmax of [`GraphSage::predict_proba`]).
    pub fn predict_labels(&self, features: &Matrix, graph: &CsrGraph) -> Vec<usize> {
        self.predict_proba(features, graph).argmax_rows()
    }
}

/// The matrices of one forward and backward pass. Every kernel reshapes
/// its output in place, so a workspace reused across epochs, or across
/// served programs ([`GraphSage::predict_proba_in`]), allocates none of
/// them once each has grown to the largest graph it serves.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Each hidden layer's output, ReLU applied in place: the next layer's
    /// input and the mask of this layer's ReLU backward.
    hidden: Vec<Matrix>,
    /// The mean aggregate of each layer's input.
    aggs: Vec<Matrix>,
    /// The last layer's logits, then `∂L/∂logits`.
    logits: Matrix,
    /// `∂L/∂` each hidden output, then, masked in place, the gradient of
    /// that layer's pre-activation.
    d_hidden: Vec<Matrix>,
    /// The aggregate half of a layer's input gradient, before its scatter.
    d_agg: Matrix,
}

/// What one [`GraphSage::train_with_threads`] call keeps across epochs.
#[derive(Debug)]
struct TrainState {
    opts: Vec<Adam>,
    /// One neighbour sample per graph.
    samples: Vec<SampledCsr>,
    /// One `(loss, gradients)` per graph; the reduction sums into the
    /// first.
    results: Vec<(f32, Vec<LinearGrads>)>,
    /// One workspace per worker; worker `i` takes graphs `i·per..`.
    workspaces: Vec<Workspace>,
    per: usize,
}

impl TrainState {
    fn new(model: &GraphSage, graphs: usize, workers: usize) -> TrainState {
        let per = graphs.div_ceil(workers);
        let layers = model.layers.len();
        TrainState {
            opts: model
                .layers
                .iter()
                .map(|l| Adam::new(model.config.lr, l.param_count()))
                .collect(),
            samples: (0..graphs).map(|_| SampledCsr::new()).collect(),
            results: (0..graphs)
                .map(|_| (0.0, vec![LinearGrads::default(); layers]))
                .collect(),
            workspaces: (0..graphs.div_ceil(per))
                .map(|_| Workspace::default())
                .collect(),
            per,
        }
    }
}

/// Merges all per-graph `(loss, gradients)` results into `results[0]` via
/// a fixed binary reduction tree: the slice splits at `len.div_ceil(2)`,
/// each half reduces recursively, and the right half's root adds into the
/// left's. The tree shape — and therefore every floating-point addition
/// order — depends only on the number of graphs, never on which thread
/// produced which result, which is what makes data-parallel training
/// bit-identical to serial.
fn reduce_into_first(results: &mut [(f32, Vec<LinearGrads>)]) {
    if results.len() <= 1 {
        return;
    }
    let mid = results.len().div_ceil(2);
    let (left, right) = results.split_at_mut(mid);
    reduce_into_first(left);
    reduce_into_first(right);
    let (l, r) = (&mut left[0], &right[0]);
    l.0 += r.0;
    for (gl, gr) in l.1.iter_mut().zip(&r.1) {
        gl.w.add_assign(&gr.w);
        for (a, b) in gl.b.iter_mut().zip(&gr.b) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SageConfig {
        SageConfig {
            hidden: 8,
            layers: 2,
            classes: 2,
            sample_size: 4,
            lr: 0.02,
            epochs: 120,
            seed: 3,
        }
    }

    /// Builds the CSR aggregation graph from per-node neighbour lists
    /// (`lists[v]` = nodes aggregated into `v`).
    fn csr_from_lists(lists: &[Vec<u32>]) -> CsrGraph {
        CsrGraph::from_edges(
            lists.len(),
            lists
                .iter()
                .enumerate()
                .flat_map(|(v, ns)| ns.iter().map(move |&u| (v as u32, u))),
        )
    }

    /// Labels are decided by the predecessor's feature, not the node's own:
    /// only a model that aggregates predecessor information can fit this.
    fn predecessor_xor_task() -> (Matrix, CsrGraph, Vec<usize>) {
        let n = 80;
        let mut rng = DetRng::new(11);
        let mut feats = Matrix::zeros(n, 2);
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut labels = vec![0usize; n];
        let mut classes = vec![0usize; n];
        for v in 0..n {
            let c = rng.next_below(2);
            classes[v] = c;
            feats[(v, c)] = 1.0;
        }
        for v in 1..n {
            let p = rng.next_below(v);
            neighbors[v] = vec![p as u32];
            labels[v] = classes[p];
        }
        labels[0] = classes[0];
        (feats, csr_from_lists(&neighbors), labels)
    }

    #[test]
    fn learns_predecessor_dependent_labels() {
        let (feats, graph, labels) = predecessor_xor_task();
        let mask: Vec<bool> = (0..labels.len()).map(|v| v != 0).collect();
        let graph = TrainGraph {
            features: &feats,
            graph: &graph,
            labels: &labels,
            mask: &mask,
        };
        let mut model = GraphSage::try_new(2, &small_config()).expect("valid model config");
        let stats = model.train(&[graph]);
        assert!(stats.final_loss() < 0.2, "loss {}", stats.final_loss());
        let pred = model.predict_labels(&feats, graph.graph);
        let correct = pred
            .iter()
            .zip(&labels)
            .zip(&mask)
            .filter(|((p, l), &m)| m && p == l)
            .count();
        let total = mask.iter().filter(|&&m| m).count();
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (feats, graph, labels) = predecessor_xor_task();
        let mask = vec![true; labels.len()];
        let graph = TrainGraph {
            features: &feats,
            graph: &graph,
            labels: &labels,
            mask: &mask,
        };
        let mut a = GraphSage::try_new(2, &small_config()).expect("valid model config");
        let mut b = GraphSage::try_new(2, &small_config()).expect("valid model config");
        let sa = a.train(&[graph]);
        let sb = b.train(&[graph]);
        assert_eq!(sa.epoch_losses, sb.epoch_losses);
        assert_eq!(
            a.predict_labels(&feats, graph.graph),
            b.predict_labels(&feats, graph.graph)
        );
    }

    #[test]
    fn transfers_to_unseen_graph_with_same_rule() {
        let (feats, graph, labels) = predecessor_xor_task();
        let mask = vec![true; labels.len()];
        let graph = TrainGraph {
            features: &feats,
            graph: &graph,
            labels: &labels,
            mask: &mask,
        };
        let mut model = GraphSage::try_new(2, &small_config()).expect("valid model config");
        model.train(&[graph]);

        // A fresh graph generated with a different seed but the same rule.
        let n = 30;
        let mut rng = DetRng::new(99);
        let mut feats2 = Matrix::zeros(n, 2);
        let mut neigh2: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut labels2 = vec![0usize; n];
        let mut classes = vec![0usize; n];
        for v in 0..n {
            let c = rng.next_below(2);
            classes[v] = c;
            feats2[(v, c)] = 1.0;
        }
        for v in 1..n {
            let p = rng.next_below(v);
            neigh2[v] = vec![p as u32];
            labels2[v] = classes[p];
        }
        let graph2 = csr_from_lists(&neigh2);
        let pred = model.predict_labels(&feats2, &graph2);
        let correct = pred
            .iter()
            .zip(&labels2)
            .skip(1)
            .filter(|(p, l)| p == l)
            .count();
        assert!(correct as f64 / (n - 1) as f64 > 0.8, "{correct}/{}", n - 1);
    }

    #[test]
    fn probabilities_are_normalised() {
        let (feats, graph, labels) = predecessor_xor_task();
        let mask = vec![true; labels.len()];
        let graph = TrainGraph {
            features: &feats,
            graph: &graph,
            labels: &labels,
            mask: &mask,
        };
        let mut model = GraphSage::try_new(2, &small_config()).expect("valid model config");
        model.train(&[graph]);
        let probs = model.predict_proba(&feats, graph.graph);
        for r in 0..probs.rows() {
            let s: f32 = probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(probs.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn isolated_nodes_aggregate_zero_and_survive() {
        let feats = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let graph = CsrGraph::from_edges(2, []);
        let labels = vec![0, 1];
        let mask = vec![true, true];
        let graph = TrainGraph {
            features: &feats,
            graph: &graph,
            labels: &labels,
            mask: &mask,
        };
        let mut model = GraphSage::try_new(2, &small_config()).expect("valid model config");
        let stats = model.train(&[graph]);
        assert!(stats.final_loss().is_finite());
        assert_eq!(model.predict_labels(&feats, graph.graph), labels);
    }

    #[test]
    fn multiple_graphs_train_jointly() {
        let (f1, g1m, l1) = predecessor_xor_task();
        let m1 = vec![true; l1.len()];
        let g1 = TrainGraph {
            features: &f1,
            graph: &g1m,
            labels: &l1,
            mask: &m1,
        };
        let g2 = TrainGraph {
            features: &f1,
            graph: &g1m,
            labels: &l1,
            mask: &m1,
        };
        let mut model = GraphSage::try_new(2, &small_config()).expect("valid model config");
        let stats = model.train(&[g1, g2]);
        assert!(stats.final_loss() < 0.3);
    }

    #[test]
    #[should_panic(expected = "at least one graph")]
    fn empty_training_set_panics() {
        let mut model = GraphSage::try_new(2, &small_config()).expect("valid model config");
        model.train(&[]);
    }

    /// Finite-difference check of the full SAGE backward pass, including
    /// the gradient scattered through the predecessor-mean aggregation.
    #[test]
    fn analytic_gradients_match_numerical() {
        let feats = Matrix::from_vec(
            5,
            2,
            vec![0.3, -0.7, 1.1, 0.2, -0.4, 0.9, 0.0, 0.5, -1.2, -0.1],
        );
        // A small DAG with shared predecessors to exercise the scatter.
        let lists: Vec<Vec<u32>> = vec![vec![], vec![0], vec![0, 1], vec![1, 2], vec![2, 3]];
        let csr = csr_from_lists(&lists);
        let labels = vec![0usize, 1, 0, 1, 0];
        let mask = vec![true, true, false, true, true];
        let graph = TrainGraph {
            features: &feats,
            graph: &csr,
            labels: &labels,
            mask: &mask,
        };
        let config = SageConfig {
            hidden: 3,
            layers: 3,
            classes: 2,
            sample_size: 10,
            lr: 0.01,
            epochs: 1,
            seed: 4,
        };
        let model = GraphSage::try_new(2, &config).expect("valid model config");
        let (_, grads) = model.compute_gradients(&graph, csr.view());

        let eps = 2e-3f32;
        let loss_of = |m: &GraphSage| {
            let mut ws = Workspace::default();
            m.forward(&feats, csr.view(), &mut ws);
            softmax_cross_entropy(&mut ws.logits, &labels, Some(&mask))
        };
        // Probe several entries in every layer (including the aggregate
        // half of the concatenated input, columns >= in_dim).
        for (l, grad) in grads.iter().enumerate().take(config.layers) {
            let rows = model.layers[l].weights().rows();
            let cols = model.layers[l].weights().cols();
            for &(r, c) in &[(0usize, 0usize), (rows - 1, cols - 1), (rows / 2, 0)] {
                let mut plus = model.clone();
                plus.layers[l] = {
                    let mut w = plus.layers[l].weights().clone();
                    let b = plus.layers[l].bias().to_vec();
                    w[(r, c)] += eps;
                    Linear::from_parts(w, b)
                };
                let mut minus = model.clone();
                minus.layers[l] = {
                    let mut w = minus.layers[l].weights().clone();
                    let b = minus.layers[l].bias().to_vec();
                    w[(r, c)] -= eps;
                    Linear::from_parts(w, b)
                };
                let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps);
                let analytic = grad.w[(r, c)];
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "layer {l} dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Golden parity with the pre-CSR implementation.
    //
    // `legacy_*` below reproduce the nested-`Vec<Vec<u32>>` code path this
    // crate shipped before the CSR refactor, verbatim (including the
    // per-edge row copy in the backward scatter). The tests require the
    // CSR path to be *bit-identical*: same per-epoch losses, same
    // gradients, same probabilities.
    // ------------------------------------------------------------------

    fn legacy_aggregate(h: &Matrix, neigh: &[Vec<u32>]) -> Matrix {
        let mut agg = Matrix::zeros(h.rows(), h.cols());
        for (v, ns) in neigh.iter().enumerate() {
            if ns.is_empty() {
                continue;
            }
            let inv = 1.0 / ns.len() as f32;
            let row = agg.row_mut(v);
            for &u in ns {
                for (a, &b) in row.iter_mut().zip(h.row(u as usize)) {
                    *a += b * inv;
                }
            }
        }
        agg
    }

    fn legacy_sample(rng: &mut DetRng, k: usize, neighbors: &[Vec<u32>]) -> Vec<Vec<u32>> {
        neighbors
            .iter()
            .map(|ns| {
                if ns.len() <= k {
                    ns.clone()
                } else {
                    let mut pool = ns.clone();
                    for i in 0..k {
                        let j = i + rng.next_below(pool.len() - i);
                        pool.swap(i, j);
                    }
                    pool.truncate(k);
                    pool
                }
            })
            .collect()
    }

    fn legacy_forward(
        model: &GraphSage,
        features: &Matrix,
        neigh: &[Vec<u32>],
    ) -> (Vec<Matrix>, Vec<Matrix>, Matrix) {
        let mut h = features.clone();
        let mut inputs = Vec::new();
        let mut pres = Vec::new();
        for (l, layer) in model.layers.iter().enumerate() {
            let agg = legacy_aggregate(&h, neigh);
            let z = h.hconcat(&agg);
            let mut pre = Matrix::zeros(0, 0);
            layer.forward(&z, &mut pre);
            let mut out = pre.clone();
            if l + 1 != model.layers.len() {
                relu(&mut out);
            }
            inputs.push(z);
            pres.push(pre);
            h = out;
        }
        (inputs, pres, h)
    }

    fn legacy_gradients(
        model: &GraphSage,
        features: &Matrix,
        neigh: &[Vec<u32>],
        labels: &[usize],
        mask: &[bool],
    ) -> (f32, Vec<LinearGrads>) {
        let (inputs, pres, mut grad) = legacy_forward(model, features, neigh);
        let loss = softmax_cross_entropy(&mut grad, labels, Some(mask));
        let mut all_grads = Vec::new();
        for l in (0..model.layers.len()).rev() {
            let is_last = l + 1 == model.layers.len();
            let mut d_pre = grad;
            if !is_last {
                relu_backward(&pres[l], &mut d_pre);
            }
            let (mut d_z, mut grads) = (Matrix::zeros(0, 0), LinearGrads::default());
            model.layers[l].backward(&inputs[l], &d_pre, &mut d_z, &mut grads);
            all_grads.push(grads);
            if l > 0 {
                let d_in = inputs[l].cols() / 2;
                let (d_self, d_agg) = d_z.hsplit(d_in);
                let mut d_h = d_self;
                for (v, ns) in neigh.iter().enumerate() {
                    if ns.is_empty() {
                        continue;
                    }
                    let inv = 1.0 / ns.len() as f32;
                    for &u in ns {
                        let src = d_agg.row(v).to_vec();
                        let dst = d_h.row_mut(u as usize);
                        for (a, b) in dst.iter_mut().zip(src) {
                            *a += b * inv;
                        }
                    }
                }
                grad = d_h;
            } else {
                grad = Matrix::zeros(0, 0);
            }
        }
        all_grads.reverse();
        (loss, all_grads)
    }

    fn legacy_train(
        model: &mut GraphSage,
        features: &Matrix,
        neighbors: &[Vec<u32>],
        labels: &[usize],
        mask: &[bool],
    ) -> Vec<f32> {
        let mut opts: Vec<Adam> = model
            .layers
            .iter()
            .map(|l| Adam::new(model.config.lr, l.param_count()))
            .collect();
        let k = model.config.sample_size;
        let mut epoch_losses = Vec::new();
        for _ in 0..model.config.epochs {
            let sampled = legacy_sample(&mut model.rng, k, neighbors);
            let (loss, all_grads) = legacy_gradients(model, features, &sampled, labels, mask);
            for ((layer, grads), o) in model.layers.iter_mut().zip(&all_grads).zip(opts.iter_mut())
            {
                layer.apply(o, grads);
            }
            epoch_losses.push(loss);
        }
        epoch_losses
    }

    /// A dense-ish task where many nodes exceed the sample size, so the
    /// sampler's RNG stream matters, with sorted de-duplicated neighbour
    /// lists (the invariant the legacy builder guaranteed).
    fn dense_task() -> (Matrix, Vec<Vec<u32>>, Vec<usize>, Vec<bool>) {
        dense_task_seeded(21)
    }

    fn dense_task_seeded(seed: u64) -> (Matrix, Vec<Vec<u32>>, Vec<usize>, Vec<bool>) {
        let n = 50;
        let mut rng = DetRng::new(seed);
        let feats = Matrix::from_fn(n, 3, |_, _| rng.uniform(-1.0, 1.0));
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, list) in lists.iter_mut().enumerate().skip(1) {
            let deg = 1 + rng.next_below(9.min(v));
            for _ in 0..deg {
                list.push(rng.next_below(v) as u32);
            }
            list.sort_unstable();
            list.dedup();
        }
        let labels: Vec<usize> = (0..n).map(|v| v % 2).collect();
        let mask: Vec<bool> = (0..n).map(|v| v % 3 != 0).collect();
        (feats, lists, labels, mask)
    }

    // ------------------------------------------------------------------
    // Reduction determinism: data-parallel training must be bit-identical
    // to serial at every thread count.
    // ------------------------------------------------------------------

    /// Five distinct labelled graphs (different seeds) for multi-graph
    /// training, so the chunk boundaries differ at every thread count.
    fn five_tasks() -> Vec<(Matrix, CsrGraph, Vec<usize>, Vec<bool>)> {
        (0..5u64)
            .map(|s| {
                let (f, lists, l, m) = dense_task_seeded(31 + s);
                (f, csr_from_lists(&lists), l, m)
            })
            .collect()
    }

    #[test]
    fn training_is_bit_identical_at_any_thread_count() {
        let tasks = five_tasks();
        let graphs: Vec<TrainGraph<'_>> = tasks
            .iter()
            .map(|(f, g, l, m)| TrainGraph {
                features: f,
                graph: g,
                labels: l,
                mask: m,
            })
            .collect();
        let config = SageConfig {
            hidden: 6,
            layers: 2,
            classes: 2,
            sample_size: 3,
            lr: 0.02,
            epochs: 5,
            seed: 29,
        };
        let mut reference: Option<(Vec<u32>, Vec<u8>)> = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let mut model = GraphSage::try_new(3, &config).expect("valid model config");
            let stats = model.train_with_threads(&graphs, threads);
            let loss_bits: Vec<u32> = stats.epoch_losses.iter().map(|l| l.to_bits()).collect();
            let model_bytes = model.to_bytes();
            match &reference {
                None => reference = Some((loss_bits, model_bytes)),
                Some((want_losses, want_bytes)) => {
                    assert_eq!(&loss_bits, want_losses, "{threads}-thread losses diverged");
                    assert_eq!(
                        &model_bytes, want_bytes,
                        "{threads}-thread model bytes diverged"
                    );
                }
            }
        }
    }

    /// From the second epoch on, every buffer an epoch writes — each
    /// worker's workspace, each graph's gradients — keeps its data
    /// pointer, at one worker and at two: the property that keeps training
    /// epochs free of fresh matrices and their page faults.
    #[test]
    fn warm_epochs_keep_their_buffers() {
        let tasks = five_tasks();
        let graphs: Vec<TrainGraph<'_>> = tasks
            .iter()
            .map(|(f, g, l, m)| TrainGraph {
                features: f,
                graph: g,
                labels: l,
                mask: m,
            })
            .collect();
        let config = SageConfig {
            hidden: 6,
            layers: 3,
            classes: 2,
            sample_size: 3,
            lr: 0.02,
            epochs: 6,
            seed: 29,
        };
        let buffers = |state: &TrainState| {
            let mut mats: Vec<&Matrix> = Vec::new();
            for ws in &state.workspaces {
                mats.extend(ws.hidden.iter().chain(&ws.aggs).chain(&ws.d_hidden));
                mats.extend([&ws.logits, &ws.d_agg]);
            }
            let grads = state.results.iter().flat_map(|(_, g)| g);
            mats.extend(grads.clone().map(|g| &g.w));
            let mut b: Vec<(*const f32, usize)> = mats
                .iter()
                .map(|m| (m.data().as_ptr(), m.data().len()))
                .collect();
            b.extend(grads.map(|g| (g.b.as_ptr(), g.b.capacity())));
            b
        };
        for workers in [1, 2] {
            let mut model = GraphSage::try_new(3, &config).expect("valid model config");
            let mut state = TrainState::new(&model, graphs.len(), workers);
            assert_eq!(state.workspaces.len(), workers);
            let mut warm = None;
            for epoch in 0..config.epochs {
                model.epoch(&graphs, &mut state);
                if epoch >= 1 {
                    let now = buffers(&state);
                    assert!(now.iter().all(|&(_, len)| len > 0), "{now:?}");
                    let want = warm.get_or_insert_with(|| now.clone());
                    assert_eq!(*want, now, "{workers} workers, epoch {epoch}");
                }
            }
        }
    }

    /// One workspace serving a big graph, then a small one, then the big
    /// one again gives every call the bits of a fresh `predict_proba`, and
    /// every forward matrix keeps the buffer of the first call: a served
    /// program allocates none of them once the workspace has grown.
    #[test]
    fn reused_workspace_predicts_serial_bits_in_any_size_order() {
        let task = |n: usize, seed: u64| {
            let mut rng = DetRng::new(seed);
            let feats = Matrix::from_fn(n, 3, |_, _| rng.uniform(-1.0, 1.0));
            let lists: Vec<Vec<u32>> = (0..n)
                .map(|v| (0..v.min(4)).map(|_| rng.next_below(v) as u32).collect())
                .collect();
            (feats, csr_from_lists(&lists))
        };
        let (big, small) = (task(300, 5), task(40, 6));
        let config = SageConfig {
            hidden: 6,
            layers: 3,
            ..small_config()
        };
        let model = GraphSage::try_new(3, &config).expect("valid model config");
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let buffers = |ws: &Workspace| {
            let mats = ws.hidden.iter().chain(&ws.aggs).chain([&ws.logits]);
            mats.map(|m| m.data().as_ptr()).collect::<Vec<_>>()
        };
        let mut ws = Workspace::default();
        let mut first = None;
        for (i, (feats, graph)) in [&big, &small, &big].into_iter().enumerate() {
            let got = model.predict_proba_in(feats, graph, &mut ws);
            assert_eq!(
                bits(&got),
                bits(&model.predict_proba(feats, graph)),
                "call {i}"
            );
            let now = buffers(&ws);
            assert_eq!(now.len(), 2 * config.layers, "call {i}");
            assert_eq!(*first.get_or_insert_with(|| now.clone()), now, "call {i}");
        }
    }

    #[test]
    fn per_graph_gradients_are_thread_invariant_and_merge_deterministically() {
        let tasks = five_tasks();
        let graphs: Vec<TrainGraph<'_>> = tasks
            .iter()
            .map(|(f, g, l, m)| TrainGraph {
                features: f,
                graph: g,
                labels: l,
                mask: m,
            })
            .collect();
        let config = SageConfig {
            hidden: 5,
            layers: 3,
            classes: 2,
            sample_size: 4,
            lr: 0.01,
            epochs: 1,
            seed: 43,
        };
        let model = GraphSage::try_new(3, &config).expect("valid model config");

        // Serial per-graph gradients over full neighbourhoods.
        let serial: Vec<(f32, Vec<glaive_nn::LinearGrads>)> = graphs
            .iter()
            .map(|g| model.compute_gradients(g, g.graph.view()))
            .collect();

        // The same gradients computed concurrently, one thread per graph:
        // compute_gradients is a pure read-only function, so every
        // per-graph result must be bitwise the one serial produced.
        let mut threaded: Vec<Option<(f32, Vec<glaive_nn::LinearGrads>)>> =
            graphs.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            for (g, slot) in graphs.iter().zip(&mut threaded) {
                let model = &model;
                scope.spawn(move || *slot = Some(model.compute_gradients(g, g.graph.view())));
            }
        });
        let mut threaded: Vec<(f32, Vec<glaive_nn::LinearGrads>)> = threaded
            .into_iter()
            .map(|r| r.expect("worker ran"))
            .collect();
        for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
            assert_eq!(s.0.to_bits(), t.0.to_bits(), "graph {i} loss");
            for (gs, gt) in s.1.iter().zip(&t.1) {
                assert_eq!(gs.w.data(), gt.w.data(), "graph {i} weight grads");
                assert_eq!(gs.b, gt.b, "graph {i} bias grads");
            }
        }

        // And the fixed tree merges them identically however they arrived.
        let mut serial = serial;
        reduce_into_first(&mut serial);
        reduce_into_first(&mut threaded);
        assert_eq!(serial[0].0.to_bits(), threaded[0].0.to_bits());
        for (gs, gt) in serial[0].1.iter().zip(&threaded[0].1) {
            assert_eq!(gs.w.data(), gt.w.data());
            assert_eq!(gs.b, gt.b);
        }
    }

    #[test]
    fn csr_gradients_match_legacy_bitwise() {
        let (feats, lists, labels, mask) = dense_task();
        let csr = csr_from_lists(&lists);
        let config = SageConfig {
            hidden: 6,
            layers: 3,
            classes: 2,
            sample_size: 4,
            lr: 0.01,
            epochs: 1,
            seed: 17,
        };
        let model = GraphSage::try_new(3, &config).expect("valid model config");
        let graph = TrainGraph {
            features: &feats,
            graph: &csr,
            labels: &labels,
            mask: &mask,
        };
        let (loss_new, grads_new) = model.compute_gradients(&graph, csr.view());
        let (loss_old, grads_old) = legacy_gradients(&model, &feats, &lists, &labels, &mask);
        assert_eq!(loss_new.to_bits(), loss_old.to_bits());
        assert_eq!(grads_new.len(), grads_old.len());
        for (gn, go) in grads_new.iter().zip(&grads_old) {
            assert_eq!(gn.w.data(), go.w.data());
            assert_eq!(gn.b, go.b);
        }
    }

    #[test]
    fn csr_training_matches_legacy_bitwise() {
        let (feats, lists, labels, mask) = dense_task();
        let csr = csr_from_lists(&lists);
        let config = SageConfig {
            hidden: 6,
            layers: 2,
            classes: 2,
            sample_size: 3,
            lr: 0.02,
            epochs: 8,
            seed: 29,
        };

        let mut legacy = GraphSage::try_new(3, &config).expect("valid model config");
        let legacy_losses = legacy_train(&mut legacy, &feats, &lists, &labels, &mask);

        let mut fresh = GraphSage::try_new(3, &config).expect("valid model config");
        let stats = fresh.train(&[TrainGraph {
            features: &feats,
            graph: &csr,
            labels: &labels,
            mask: &mask,
        }]);

        let new_bits: Vec<u32> = stats.epoch_losses.iter().map(|l| l.to_bits()).collect();
        let old_bits: Vec<u32> = legacy_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(new_bits, old_bits, "per-epoch losses diverged");

        let probs_new = fresh.predict_proba(&feats, &csr);
        let (_, _, logits_old) = legacy_forward(&legacy, &feats, &lists);
        let probs_old = softmax_rows(&logits_old);
        assert_eq!(probs_new.data(), probs_old.data());
        assert_eq!(fresh.predict_labels(&feats, &csr), probs_old.argmax_rows());
    }

    #[test]
    fn sampled_workspace_matches_legacy_sampler() {
        let (_, lists, _, _) = dense_task();
        let csr = csr_from_lists(&lists);
        let mut rng_old = DetRng::new(41);
        let mut rng_new = DetRng::new(41);
        let mut ws = SampledCsr::new();
        for _ in 0..4 {
            let old = legacy_sample(&mut rng_old, 3, &lists);
            ws.resample(&csr, 3, &mut rng_new);
            let v = ws.view();
            for (node, row) in old.iter().enumerate() {
                assert_eq!(v.neighbors(node), &row[..], "node {node}");
            }
        }
    }
}
