//! Heap allocations of a warm served forward pass and of a warm
//! class-width weight gradient, pinned. The counter is a process-wide
//! `#[global_allocator]`, so this file is a test binary of its own with a
//! single test, and it counts only on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use glaive_gnn::{GraphSage, SageConfig, Workspace};
use glaive_graph::CsrGraph;
use glaive_nn::{par, DetRng, Linear, LinearGrads, Matrix};

/// Counts allocations (fresh and resized) made on a thread that has
/// switched counting on.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let r = f();
    COUNTING.set(false);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, r)
}

const DIM: usize = 32;

#[test]
fn warm_class_width_kernels_allocate_only_their_result() {
    let nodes = 700;
    let mut rng = DetRng::new(3);
    let features = Matrix::from_fn(nodes, DIM, |_, _| rng.uniform(-1.0, 1.0));
    let edges: Vec<(u32, u32)> = (0..nodes as u32)
        .flat_map(|v| (0..4).map(move |k| (v, (v * 5 + k * 11 + 1) % nodes as u32)))
        .collect();
    let graph = CsrGraph::from_edges(nodes, edges);
    let config = SageConfig {
        hidden: 32,
        layers: 3,
        classes: 3,
        ..SageConfig::default()
    };
    let model = GraphSage::try_new(DIM, &config).expect("valid model config");

    // A warm pass at width 1 allocates its `n × 3` probabilities and
    // nothing else (DESIGN.md §16): no kernel, the 3-wide logits product
    // included, takes heap scratch.
    let mut ws = Workspace::default();
    par::with_width(1, |_| {
        let cold = model.predict_proba_in(&features, &graph, &mut ws);
        let (allocs, warm) = allocations_of(|| model.predict_proba_in(&features, &graph, &mut ws));
        assert_eq!(allocs, 1, "a warm forward pass allocates only its result");
        assert_eq!(warm.data(), cold.data());
    });

    // The class-width weight gradient into reused gradients allocates
    // nothing once they have their shape.
    let layer = Linear::glorot(2 * DIM, 3, &mut rng);
    let grad_out = Matrix::from_fn(nodes, 3, |_, _| rng.uniform(-1.0, 1.0));
    let mut grads = LinearGrads::default();
    let x = &features;
    par::with_width(1, |_| {
        layer.grads_concat(x, x, &grad_out, &mut grads);
        let (allocs, ()) = allocations_of(|| layer.grads_concat(x, x, &grad_out, &mut grads));
        assert_eq!(allocs, 0, "a warm weight gradient allocates nothing");
    });
}
