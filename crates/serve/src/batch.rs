//! Request coalescing: the batcher drains every pending job at once and
//! runs one GraphSAGE forward pass per program, in drain order, on one
//! forward workspace it keeps for as long as the server runs.
//!
//! Each pass is exactly serial inference on that program — the cached
//! features and predecessor CSR are read in place, and every kernel
//! refills its reused output before writing — so every reply is
//! **bit-identical** to a one-program [`GraphSage::predict_proba`] call,
//! whatever the workspace served before.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use glaive_gnn::{GraphSage, Workspace};
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

/// One drained job's share of a batch, from the perspective of a single
/// request.
pub struct BatchResult {
    /// Per-bit-node class probabilities for this request's program.
    pub probs: Matrix,
    /// How many requests were drained together with this one.
    pub batch_size: u32,
}

/// The batcher's forward workspace, reused for as long as the server
/// runs: each program's pass writes its aggregates, hidden outputs and
/// logits into the same matrices, so once they have grown to the largest
/// program served, steady-state serving allocates only each job's
/// probabilities.
#[derive(Default)]
pub struct BatchWorkspace {
    forward: Workspace,
}

impl BatchWorkspace {
    /// A workspace with empty buffers.
    pub fn new() -> BatchWorkspace {
        BatchWorkspace::default()
    }

    /// Runs one forward pass per program of a drained batch, in order, and
    /// returns one [`BatchResult`] per program. Each pass reads the cached
    /// features and predecessor CSR in place and *is* serial inference,
    /// so its probabilities are bit-identical to
    /// [`GraphSage::predict_proba`] on that program alone.
    pub fn run_prepared(
        &mut self,
        model: &GraphSage,
        prepared: &[Arc<PreparedProgram>],
    ) -> Vec<BatchResult> {
        let batch_size = prepared.len() as u32;
        prepared
            .iter()
            .map(|p| BatchResult {
                probs: model.predict_proba_in(&p.features, p.cdfg.preds_csr(), &mut self.forward),
                batch_size,
            })
            .collect()
    }
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

    /// One workspace serving a big program, then a small one, then the big
    /// one again, across batches and within one, answers each with the
    /// bits of serial `predict_proba`: a pass on a shrunken workspace
    /// leaks nothing into the next.
    #[test]
    fn reused_workspace_is_bit_identical_to_serial_in_any_size_order() {
        let model = model();
        let config = CdfgConfig { bit_stride: 8 };
        let big = Arc::new(PreparedProgram::build(program(7, 64), &config));
        let small = Arc::new(PreparedProgram::build(program(-2, 1), &config));
        assert!(big.cdfg.node_count() > 4 * small.cdfg.node_count());
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let mut ws = BatchWorkspace::new();
        let batches = [
            vec![big.clone()],
            vec![small.clone()],
            vec![big.clone(), small, big],
        ];
        for (i, batch) in batches.iter().enumerate() {
            let results = ws.run_prepared(&model, batch);
            assert_eq!(results.len(), batch.len(), "batch {i}");
            for (p, got) in batch.iter().zip(&results) {
                assert_eq!(got.batch_size as usize, batch.len(), "batch {i}");
                let serial = model.predict_proba(&p.features, p.cdfg.preds_csr());
                assert_eq!(bits(&got.probs), bits(&serial), "batch {i}");
            }
        }
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
