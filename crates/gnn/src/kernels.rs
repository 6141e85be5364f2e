//! CSR-driven aggregation kernels and the neighbour-sampling workspace.
//!
//! All kernels operate on flat [`CsrView`] ranges — contiguous `&[u32]`
//! neighbour slices — so the inner loops are allocation-free and touch
//! memory sequentially, and they write into caller-owned matrices, which
//! a trainer reuses across epochs. The forward mean-aggregate splits its
//! output rows over `glaive_nn::par::row_blocks` for large graphs (each
//! output row depends only on the shared input matrix, so the split is
//! deterministic); the backward scatter stays serial because different
//! source rows accumulate into the same destination rows and the
//! summation order is part of the reproducibility contract.

use glaive_graph::{CsrGraph, CsrView};
use glaive_nn::{par, DetRng, Linear, LinearGrads, Matrix};

/// Mean-aggregates `h` over each node's neighbourhood into `out`: row `v`
/// is the mean of `h`'s rows listed in `graph.neighbors(v)`; nodes without
/// neighbours aggregate to zero.
///
/// Rows are accumulated in CSR order, so the result is bit-identical
/// regardless of how many threads run — threads split the *output* rows,
/// never one row's summation.
///
/// # Panics
///
/// Panics if `graph` has a different node count than `h` has rows.
pub fn mean_aggregate(h: &Matrix, graph: CsrView<'_>, out: &mut Matrix) {
    assert_eq!(
        h.rows(),
        graph.node_count(),
        "feature/neighbour count mismatch"
    );
    let cols = h.cols();
    out.reset_zeros(h.rows(), cols);
    let work = graph.edge_count().saturating_mul(cols);
    par::row_blocks(out.data_mut(), cols, work, |start, block| {
        aggregate_rows(h, graph, start, block);
    });
}

/// Fills one contiguous block of output rows, starting at node `start`.
fn aggregate_rows(h: &Matrix, graph: CsrView<'_>, start: usize, block: &mut [f32]) {
    let cols = h.cols();
    for (r, row_out) in block.chunks_mut(cols).enumerate() {
        let ns = graph.neighbors(start + r);
        if ns.is_empty() {
            continue;
        }
        let inv = 1.0 / ns.len() as f32;
        for &u in ns {
            for (a, &b) in row_out.iter_mut().zip(h.row(u as usize)) {
                *a += b * inv;
            }
        }
    }
}

/// Backward of [`mean_aggregate`]: scatters each node's aggregate gradient
/// back onto its neighbours, scaled by `1/deg`. Accumulates into `d_h`.
///
/// The source row is borrowed once per node (`d_agg` and `d_h` are
/// distinct matrices, so no copy is needed) and destination rows receive
/// contributions in ascending source-node order.
///
/// # Panics
///
/// Panics if the matrix shapes disagree with the graph.
pub fn scatter_mean_backward(d_agg: &Matrix, graph: CsrView<'_>, d_h: &mut Matrix) {
    assert_eq!(d_agg.rows(), graph.node_count(), "gradient/graph mismatch");
    assert_eq!(d_agg.rows(), d_h.rows(), "gradient shape mismatch");
    assert_eq!(d_agg.cols(), d_h.cols(), "gradient shape mismatch");
    for v in 0..graph.node_count() {
        let ns = graph.neighbors(v);
        if ns.is_empty() {
            continue;
        }
        let inv = 1.0 / ns.len() as f32;
        let src = d_agg.row(v);
        for &u in ns {
            for (a, &b) in d_h.row_mut(u as usize).iter_mut().zip(src) {
                *a += b * inv;
            }
        }
    }
}

/// Fused GraphSAGE layer forward: aggregate → concat → linear without ever
/// materialising the concatenated `[h ‖ agg]` matrix (the linear layer
/// reads both halves in place via [`Linear::forward_concat`]). Writes the
/// aggregate into `agg` and the pre-activation into `pre` — the backward
/// pass needs both.
///
/// Bit-identical to [`mean_aggregate`] followed by [`Linear::forward`] on
/// `h.hconcat(agg)`: the fused matmul walks the virtual concatenation in
/// the same element order.
pub fn sage_forward_fused(
    layer: &Linear,
    h: &Matrix,
    neigh: CsrView<'_>,
    agg: &mut Matrix,
    pre: &mut Matrix,
) {
    mean_aggregate(h, neigh, agg);
    layer.forward_concat(h, agg, pre);
}

/// Fused GraphSAGE layer backward: splits the pre-activation gradient into
/// its self/aggregate halves inside the matmul (no materialised `d_z`, no
/// `hsplit` copy) and scatters the aggregate half, written to the scratch
/// `d_agg`, back through the mean onto the neighbours. `d_h` receives
/// both the direct and the scattered contribution, `grads` the parameter
/// gradients.
///
/// Bit-identical to the unfused [`Linear::backward`] + `hsplit` +
/// [`scatter_mean_backward`] sequence.
#[allow(clippy::too_many_arguments)]
pub fn sage_backward_fused(
    layer: &Linear,
    h: &Matrix,
    agg: &Matrix,
    neigh: CsrView<'_>,
    d_pre: &Matrix,
    d_h: &mut Matrix,
    d_agg: &mut Matrix,
    grads: &mut LinearGrads,
) {
    layer.backward_concat(h, agg, d_pre, d_h, d_agg, grads);
    scatter_mean_backward(d_agg, neigh, d_h);
}

/// A reusable neighbour-sampling workspace: the sampled neighbourhood of a
/// graph, stored as its own small CSR.
///
/// [`SampledCsr::resample`] draws up to `k` neighbours per node without
/// replacement (partial Fisher–Yates over an index window) and rebuilds
/// the workspace in place. All three buffers retain their capacity across
/// calls — at most `k · n` targets plus an `n + 1` offset array plus a
/// max-degree scratch pool — so steady-state training epochs allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct SampledCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    pool: Vec<u32>,
}

impl SampledCsr {
    /// An empty workspace; buffers grow on first [`SampledCsr::resample`].
    pub fn new() -> SampledCsr {
        SampledCsr::default()
    }

    /// Resamples: each node keeps its full (sorted) neighbour row if it has
    /// at most `k` neighbours, otherwise `k` distinct neighbours drawn via
    /// partial Fisher–Yates, emitted in swap order.
    ///
    /// Only rows longer than `k` consume randomness — exactly `k` draws of
    /// `rng.next_below(deg - i)` each, in ascending node order — so a given
    /// `(graph, k, rng)` state always yields the same sample.
    pub fn resample(&mut self, graph: &CsrGraph, k: usize, rng: &mut DetRng) {
        assert!(k >= 1, "sample size must be positive");
        let n = graph.node_count();
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.targets.clear();
        self.targets.reserve(graph.edge_count().min(k * n));
        self.offsets.push(0);
        for v in 0..n {
            let row = graph.neighbors(v);
            if row.len() <= k {
                self.targets.extend_from_slice(row);
            } else {
                self.pool.clear();
                self.pool.extend_from_slice(row);
                for i in 0..k {
                    let j = i + rng.next_below(self.pool.len() - i);
                    self.pool.swap(i, j);
                }
                self.targets.extend_from_slice(&self.pool[..k]);
            }
            self.offsets.push(self.targets.len() as u32);
        }
    }

    /// The sampled neighbourhood as a CSR view.
    ///
    /// # Panics
    ///
    /// Panics if called before the first [`SampledCsr::resample`].
    pub fn view(&self) -> CsrView<'_> {
        assert!(!self.offsets.is_empty(), "resample before viewing");
        CsrView::new(&self.offsets, &self.targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> CsrGraph {
        CsrGraph::from_edges(n, (1..n).map(|v| (v as u32, v as u32 - 1)))
    }

    #[test]
    fn aggregate_means_neighbour_rows() {
        let g = CsrGraph::from_edges(3, [(1u32, 0u32), (2, 0), (2, 1)]);
        let h = Matrix::from_vec(3, 2, vec![2.0, 4.0, 6.0, 8.0, 1.0, 1.0]);
        let mut agg = Matrix::default();
        mean_aggregate(&h, g.view(), &mut agg);
        assert_eq!(agg.row(0), &[0.0, 0.0]);
        assert_eq!(agg.row(1), &[2.0, 4.0]);
        assert_eq!(agg.row(2), &[4.0, 6.0]);
    }

    #[test]
    fn scatter_is_the_adjoint_of_aggregate() {
        // <aggregate(h), g> == <h, scatter(g)> for any h, g.
        let mut rng = DetRng::new(7);
        let g = CsrGraph::from_edges(
            6,
            (0..12u32).map(|i| {
                let a = i % 6;
                let b = (i * 5 + 1) % 6;
                (a, b)
            }),
        );
        let h = Matrix::from_fn(6, 3, |_, _| rng.uniform(-1.0, 1.0));
        let grad = Matrix::from_fn(6, 3, |_, _| rng.uniform(-1.0, 1.0));
        let mut agg = Matrix::default();
        mean_aggregate(&h, g.view(), &mut agg);
        let mut scattered = Matrix::zeros(6, 3);
        scatter_mean_backward(&grad, g.view(), &mut scattered);
        let lhs: f32 = agg.data().iter().zip(grad.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = h
            .data()
            .iter()
            .zip(scattered.data())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn sampling_caps_rows_and_reuses_buffers() {
        // Node 0's row has 10 entries (sampled down to 3); node 1's has 2
        // (kept verbatim); the rest are empty.
        let g = CsrGraph::from_edges(
            12,
            (1..11u32)
                .map(|t| (0u32, t))
                .chain([(1u32, 10u32), (1, 11)]),
        );
        let mut ws = SampledCsr::new();
        let mut rng = DetRng::new(1);
        ws.resample(&g, 3, &mut rng);
        let v = ws.view();
        assert_eq!(v.node_count(), 12);
        assert_eq!(v.neighbors(0).len(), 3);
        assert_eq!(v.neighbors(1).len(), 2);
        for node in 0..12 {
            assert!(v.neighbors(node).len() <= 3);
            // Sampled entries are distinct members of the original row.
            let mut s = v.neighbors(node).to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), v.neighbors(node).len());
            for &t in v.neighbors(node) {
                assert!(g.neighbors(node).contains(&t));
            }
        }
        // Resampling reuses capacity: pointers stay stable once warm.
        ws.resample(&g, 3, &mut rng);
        let cap = (ws.offsets.capacity(), ws.targets.capacity());
        for _ in 0..5 {
            ws.resample(&g, 3, &mut rng);
        }
        assert_eq!(cap, (ws.offsets.capacity(), ws.targets.capacity()));
    }

    #[test]
    fn sampling_is_deterministic_for_a_given_rng_state() {
        let g = chain(40).symmetrised();
        let mut a = SampledCsr::new();
        let mut b = SampledCsr::new();
        let mut rng_a = DetRng::new(5);
        let mut rng_b = DetRng::new(5);
        for _ in 0..3 {
            a.resample(&g, 1, &mut rng_a);
            b.resample(&g, 1, &mut rng_b);
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.targets, b.targets);
        }
    }

    #[test]
    fn small_rows_are_copied_verbatim_without_consuming_rng() {
        let g = chain(8);
        let mut ws = SampledCsr::new();
        let mut rng = DetRng::new(9);
        ws.resample(&g, 4, &mut rng);
        // Every row has degree <= 1 <= k: no draws happened.
        assert_eq!(rng.next_below(1 << 30), DetRng::new(9).next_below(1 << 30));
        for v in 0..8 {
            assert_eq!(ws.view().neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn fused_sage_kernels_match_unfused_bitwise() {
        let mut rng = DetRng::new(13);
        let g = CsrGraph::from_edges(9, (0..20u32).map(|i| (i % 9, (i * 7 + 2) % 9)));
        let h = Matrix::from_fn(9, 5, |_, _| rng.uniform(-1.0, 1.0));
        let layer = Linear::glorot(10, 4, &mut rng);
        let d_pre = Matrix::from_fn(9, 4, |_, _| rng.uniform(-1.0, 1.0));

        let (mut agg, mut pre) = (Matrix::default(), Matrix::default());
        sage_forward_fused(&layer, &h, g.view(), &mut agg, &mut pre);
        let (mut agg_ref, mut pre_ref) = (Matrix::default(), Matrix::default());
        mean_aggregate(&h, g.view(), &mut agg_ref);
        let z = h.hconcat(&agg_ref);
        layer.forward(&z, &mut pre_ref);
        assert_eq!(agg.data(), agg_ref.data());
        for (a, b) in pre.data().iter().zip(pre_ref.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let (mut d_h, mut scratch) = (Matrix::default(), Matrix::default());
        let mut grads = LinearGrads::default();
        sage_backward_fused(
            &layer,
            &h,
            &agg,
            g.view(),
            &d_pre,
            &mut d_h,
            &mut scratch,
            &mut grads,
        );
        let (mut d_z, mut grads_ref) = (Matrix::default(), LinearGrads::default());
        layer.backward(&z, &d_pre, &mut d_z, &mut grads_ref);
        let (d_self, d_agg) = d_z.hsplit(5);
        let mut d_h_ref = d_self;
        scatter_mean_backward(&d_agg, g.view(), &mut d_h_ref);
        for (a, b) in d_h.data().iter().zip(d_h_ref.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in grads.w.data().iter().zip(grads_ref.w.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(grads.b, grads_ref.b);
    }

    #[test]
    fn parallel_and_serial_aggregation_agree_bitwise() {
        // Big enough to cross PARALLEL_WORK_THRESHOLD with wide features.
        let n = 2000;
        let mut rng = DetRng::new(3);
        let g = CsrGraph::from_edges(
            n,
            (0..8 * n as u32).map(|i| {
                let a = i % n as u32;
                let b = (i * 31 + 7) % n as u32;
                (a, b)
            }),
        );
        let h = Matrix::from_fn(n, 64, |_, _| rng.uniform(-1.0, 1.0));
        let mut fast = Matrix::default();
        mean_aggregate(&h, g.view(), &mut fast);
        let mut slow = Matrix::zeros(n, 64);
        aggregate_rows(&h, g.view(), 0, slow.data_mut());
        assert_eq!(fast.data(), slow.data());
    }
}
