//! Request coalescing: concurrent predict requests are merged into one
//! multi-graph forward pass over a block-diagonal disjoint union of their
//! CDFGs.
//!
//! Batching is **bit-identical** to one-at-a-time inference because every
//! operation in the GraphSAGE forward pass is row-local: mean aggregation
//! reads only a node's own CSR row, the linear layers accumulate per
//! output row, and ReLU/softmax are row-wise. A disjoint union introduces
//! no cross-program edges, so each program's rows see exactly the
//! neighbourhoods — and therefore exactly the floating-point operation
//! sequences — they would see alone.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use glaive_gnn::GraphSage;
use glaive_graph::CsrView;
use glaive_nn::Matrix;

use crate::cache::PreparedProgram;

/// A closable multi-producer queue: connection workers push, the batcher
/// drains everything pending in one go (that drain *is* the coalescing
/// policy — whatever arrived since the last forward pass forms the next
/// batch).
pub struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> JobQueue<T> {
    /// An empty, open queue.
    pub fn new() -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues one item. Returns `false` (dropping the item) if the queue
    /// is already closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("job queue lock");
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        self.cv.notify_one();
        true
    }

    /// Blocks until at least one item is available, then drains *all*
    /// pending items. Returns `None` once the queue is closed and empty.
    pub fn drain_wait(&self) -> Option<Vec<T>> {
        let mut state = self.state.lock().expect("job queue lock");
        loop {
            if !state.items.is_empty() {
                return Some(state.items.drain(..).collect());
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).expect("job queue wait");
        }
    }

    /// Blocks for a single item. Returns `None` once closed and empty.
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.state.lock().expect("job queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).expect("job queue wait");
        }
    }

    /// Closes the queue: pushes start failing, and blocked consumers wake
    /// with `None` once the backlog drains.
    pub fn close(&self) {
        self.state.lock().expect("job queue lock").closed = true;
        self.cv.notify_all();
    }

    /// Closes the queue *and* discards its backlog, returning the dropped
    /// items. For abnormal consumer exits: the caller answers each dropped
    /// item (the server replies with a typed shutdown error), and an item
    /// that owns a reply `Sender` drops it, so producers blocked on the
    /// matching receiver wake with a disconnect error instead of waiting
    /// for a batch that will never run.
    pub fn close_and_drain(&self) -> Vec<T> {
        let mut state = self.state.lock().expect("job queue lock");
        state.closed = true;
        let backlog = state.items.drain(..).collect();
        self.cv.notify_all();
        backlog
    }

    /// Whether [`JobQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("job queue lock").closed
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue::new()
    }
}

/// The result of one coalesced forward pass, from the perspective of a
/// single request.
pub struct BatchResult {
    /// Per-bit-node class probabilities for this request's program only.
    pub probs: Matrix,
    /// How many requests shared the forward pass.
    pub batch_size: u32,
}

/// Reusable staging buffers for the batched forward pass — the
/// `SampledCsr` discipline: allocate on the first batch, reuse capacity
/// forever after, so steady-state serving does no per-request graph
/// allocation.
#[derive(Default)]
pub struct BatchWorkspace {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    feats: Vec<f32>,
}

impl BatchWorkspace {
    /// A workspace with empty buffers.
    pub fn new() -> BatchWorkspace {
        BatchWorkspace::default()
    }

    /// Runs coalesced forward passes over `prepared` and returns one
    /// [`BatchResult`] per program, in input order.
    ///
    /// The staged union indexes nodes and edges with `u32` (the CSR
    /// discipline), so a drained backlog whose totals exceed `u32::MAX` is
    /// split into consecutive chunks that each fit — the bases can never
    /// wrap. Splitting preserves bit-identical results because every
    /// forward-pass operation is row-local (see the module docs).
    pub fn run_prepared(
        &mut self,
        model: &GraphSage,
        prepared: &[Arc<PreparedProgram>],
    ) -> Vec<BatchResult> {
        let mut out = Vec::with_capacity(prepared.len());
        let mut rest = prepared;
        while !rest.is_empty() {
            let take = chunk_len(rest);
            self.run_chunk(model, &rest[..take], &mut out);
            rest = &rest[take..];
        }
        out
    }

    /// One forward pass over `chunk`, whose node/edge totals are already
    /// known to fit in `u32`; appends one result per program to `out`.
    fn run_chunk(
        &mut self,
        model: &GraphSage,
        chunk: &[Arc<PreparedProgram>],
        out: &mut Vec<BatchResult>,
    ) {
        let batch_size = chunk.len() as u32;
        let total_nodes: usize = chunk.iter().map(|p| p.cdfg.node_count()).sum();
        let total_edges: usize = chunk.iter().map(|p| p.cdfg.preds_csr().edge_count()).sum();

        // Block-diagonal disjoint union of the predecessor graphs, staged
        // into the reusable buffers (same shifting scheme as
        // `CsrGraph::disjoint_union`, without the owned-graph allocation).
        self.offsets.clear();
        self.targets.clear();
        self.feats.clear();
        self.offsets.reserve(total_nodes + 1);
        self.targets.reserve(total_edges);
        self.offsets.push(0);
        let mut node_base = 0u32;
        let mut edge_base = 0u32;
        for p in chunk {
            let g = p.cdfg.preds_csr();
            self.offsets
                .extend(g.offsets()[1..].iter().map(|&o| edge_base + o));
            self.targets
                .extend(g.targets().iter().map(|&t| node_base + t));
            self.feats.extend_from_slice(p.features.data());
            node_base += g.node_count() as u32;
            edge_base += g.edge_count() as u32;
        }

        let dim = glaive_cdfg::FEATURE_DIM;
        let features = Matrix::from_vec(total_nodes, dim, std::mem::take(&mut self.feats));
        let probs = model.predict_proba_view(&features, CsrView::new(&self.offsets, &self.targets));
        // Reclaim the staging allocation for the next batch.
        self.feats = features.into_vec();

        let classes = probs.cols();
        let mut row = 0usize;
        for p in chunk {
            let n = p.cdfg.node_count();
            let slice = &probs.data()[row * classes..(row + n) * classes];
            row += n;
            out.push(BatchResult {
                probs: Matrix::from_vec(n, classes, slice.to_vec()),
                batch_size,
            });
        }
    }
}

/// Length of the longest `prepared` prefix whose summed node and edge
/// counts both fit in `u32` (always ≥ 1: a single program's CSR is
/// `u32`-indexed by construction, so one program always fits).
fn chunk_len(prepared: &[Arc<PreparedProgram>]) -> usize {
    chunk_len_by(prepared.iter().map(|p| {
        let g = p.cdfg.preds_csr();
        (g.node_count() as u32, g.edge_count() as u32)
    }))
}

/// [`chunk_len`] over bare `(node_count, edge_count)` sizes, so the
/// overflow boundary is testable without multi-gigabyte graphs.
fn chunk_len_by(sizes: impl Iterator<Item = (u32, u32)>) -> usize {
    let mut nodes = 0u32;
    let mut edges = 0u32;
    let mut len = 0;
    for (n, e) in sizes {
        match (nodes.checked_add(n), edges.checked_add(e)) {
            (Some(n), Some(e)) => {
                nodes = n;
                edges = e;
                len += 1;
            }
            _ => return len.max(1),
        }
    }
    len.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use glaive_cdfg::CdfgConfig;
    use glaive_gnn::SageConfig;
    use glaive_isa::{AluOp, Asm, Reg};

    fn program(tag: i64, extra: usize) -> glaive_isa::Program {
        let mut asm = Asm::new("batch-test");
        asm.set_mem_words(4);
        asm.li(Reg(1), tag);
        for i in 0..extra {
            asm.alu_imm(AluOp::Add, Reg(2), Reg(1), i as i64);
        }
        asm.store(Reg(2), Reg(0), 0).out(Reg(2)).halt();
        asm.finish().expect("assembles")
    }

    fn model() -> GraphSage {
        GraphSage::try_new(
            glaive_cdfg::FEATURE_DIM,
            &SageConfig {
                hidden: 8,
                layers: 2,
                ..SageConfig::default()
            },
        )
        .expect("valid model config")
    }

    #[test]
    fn batched_pass_is_bit_identical_to_serial() {
        let model = model();
        let config = CdfgConfig { bit_stride: 8 };
        let prepared: Vec<Arc<PreparedProgram>> = [(1, 2), (9, 5), (-3, 1)]
            .iter()
            .map(|&(tag, extra)| Arc::new(PreparedProgram::build(program(tag, extra), &config)))
            .collect();

        let mut ws = BatchWorkspace::new();
        let results = ws.run_prepared(&model, &prepared);
        assert_eq!(results.len(), 3);

        for (p, got) in prepared.iter().zip(results) {
            assert_eq!(got.batch_size, 3);
            let serial = model.predict_proba(&p.features, p.cdfg.preds_csr());
            assert_eq!(got.probs.rows(), serial.rows());
            // Bit-identical, not approximately equal.
            let same = got
                .probs
                .data()
                .iter()
                .zip(serial.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "batched probabilities diverge from serial");
        }
    }

    #[test]
    fn workspace_buffers_are_reused_across_batches() {
        let model = model();
        let config = CdfgConfig { bit_stride: 8 };
        let p = Arc::new(PreparedProgram::build(program(5, 3), &config));
        let mut ws = BatchWorkspace::new();
        for round in 0..3 {
            let results = ws.run_prepared(&model, std::slice::from_ref(&p));
            assert_eq!(results.len(), 1, "round {round}");
            assert_eq!(results[0].batch_size, 1, "round {round}");
        }
        assert!(ws.feats.capacity() > 0, "staging buffer retained");
    }

    #[test]
    fn chunking_splits_before_u32_bases_can_wrap() {
        const M: u32 = u32::MAX;
        // Everything fits: one chunk.
        assert_eq!(chunk_len_by([(10, 20), (30, 40)].into_iter()), 2);
        // Node total would wrap at the third item.
        assert_eq!(
            chunk_len_by([(M / 2, 1), (M / 2, 1), (2, 1)].into_iter()),
            2
        );
        // Edge total would wrap at the second item.
        assert_eq!(chunk_len_by([(1, M), (1, 1)].into_iter()), 1);
        // A single over-large head still forms a chunk of one.
        assert_eq!(chunk_len_by([(M, M), (1, 1)].into_iter()), 1);
    }

    #[test]
    fn queue_coalesces_and_closes() {
        let q: JobQueue<u32> = JobQueue::new();
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.drain_wait(), Some(vec![1, 2]));
        q.close();
        assert!(!q.push(3), "closed queue accepts no work");
        assert_eq!(q.drain_wait(), None);
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn close_and_drain_discards_backlog_and_wakes_senders() {
        let q: JobQueue<mpsc::Sender<u32>> = JobQueue::new();
        let (tx, rx) = mpsc::channel();
        q.push(tx);
        assert!(!q.is_closed());
        let backlog = q.close_and_drain();
        assert!(q.is_closed());
        assert_eq!(backlog.len(), 1);
        drop(backlog);
        // The queued sender is gone: a blocked receiver disconnects
        // instead of waiting forever.
        assert!(rx.recv().is_err());
        assert!(q.pop_wait().is_none(), "drained queue has no backlog");
    }

    #[test]
    fn queue_drains_backlog_after_close() {
        let q: JobQueue<u32> = JobQueue::new();
        q.push(7);
        q.close();
        assert_eq!(q.pop_wait(), Some(7), "backlog survives close");
        assert_eq!(q.pop_wait(), None);
    }
}
