//! Thread spawns of a GraphSAGE fit and of a served forward pass,
//! pinned. `glaive_nn::par` counts every thread it spawns in one
//! process-wide counter, so this file is a test binary of its own with a
//! single test: nothing else spawns while it counts.

use glaive_gnn::{GraphSage, SageConfig, TrainGraph, Workspace};
use glaive_graph::CsrGraph;
use glaive_nn::{par, DetRng, Matrix};

const DIM: usize = 32;

/// A random graph of `nodes` nodes with four predecessors each, random
/// features and three classes, every node labelled.
fn task(nodes: usize, seed: u64) -> (Matrix, CsrGraph, Vec<usize>, Vec<bool>) {
    let mut rng = DetRng::new(seed);
    let features = Matrix::from_fn(nodes, DIM, |_, _| rng.uniform(-1.0, 1.0));
    let edges: Vec<(u32, u32)> = (0..nodes as u32)
        .flat_map(|v| (0..4).map(move |k| (v, (v * 7 + k * 13 + 1) % nodes as u32)))
        .collect();
    let graph = CsrGraph::from_edges(nodes, edges);
    let labels = (0..nodes).map(|v| v % 3).collect();
    (features, graph, labels, vec![true; nodes])
}

/// How many threads one fit on `graphs` at `threads` spawns.
fn spawns_of_fit(graphs: &[TrainGraph<'_>], config: &SageConfig, threads: usize) -> usize {
    let mut model = GraphSage::try_new(DIM, config).expect("valid model config");
    let before = par::spawned();
    model.train_with_threads(graphs, threads);
    par::spawned() - before
}

#[test]
fn spawn_counts_are_pinned() {
    let tasks: Vec<_> = (0..3).map(|s| task(640, 11 + s)).collect();
    let graphs: Vec<TrainGraph<'_>> = tasks
        .iter()
        .map(|(features, graph, labels, mask)| TrainGraph {
            features,
            graph,
            labels,
            mask,
        })
        .collect();
    let config = SageConfig {
        hidden: 32,
        layers: 2,
        classes: 3,
        sample_size: 4,
        lr: 0.01,
        epochs: 3,
        seed: 7,
    };

    // One graph: the epoch runs on the caller, so its kernels spread at
    // width 2. The graphs are large enough for that.
    assert!(spawns_of_fit(&graphs[..1], &config, 2) > 0);

    // Three graphs at width 2: two chunks, the caller's and one marked
    // worker's, per epoch; every kernel inside them runs serially.
    assert_eq!(spawns_of_fit(&graphs, &config, 2), config.epochs);

    // Width 1 runs the whole fit, kernels included, on the caller.
    assert_eq!(spawns_of_fit(&graphs, &config, 1), 0);
    assert_eq!(spawns_of_fit(&graphs[..1], &config, 1), 0);

    // A served program's pass on a serial caller. At 4,096 nodes every
    // kernel is above the threshold (the smallest, each aggregate, does
    // 4 edges × 32 columns a node), so each of the two kernel calls per
    // layer spawns one worker at width 2, and none spawns at width 1, on
    // a warm workspace as on a fresh one.
    let (features, graph, _, _) = task(4096, 5);
    let model = GraphSage::try_new(DIM, &config).expect("valid model config");
    let mut ws = Workspace::default();
    for (width, want) in [(2, 2 * config.layers), (1, 0), (2, 2 * config.layers)] {
        let before = par::spawned();
        let probs = par::with_width(width, |_| {
            model.predict_proba_in(&features, &graph, &mut ws)
        });
        assert_eq!(par::spawned() - before, want, "width {width}");
        assert_eq!(probs.data(), model.predict_proba(&features, &graph).data());
    }

    // A product large enough to spread on a serial caller runs serially
    // inside a marked worker.
    let mut rng = DetRng::new(3);
    let a = Matrix::from_fn(512, 64, |_, _| rng.uniform(-1.0, 1.0));
    let b = Matrix::from_fn(64, 128, |_, _| rng.uniform(-1.0, 1.0));
    par::with_width(2, |_| {
        let before = par::spawned();
        let serial_caller = a.matmul(&b);
        assert_eq!(par::spawned() - before, 1, "the product spreads");
        let before = par::spawned();
        let (_, (inside, product)) = par::join(
            || (),
            || {
                let before = par::spawned();
                let product = a.matmul(&b);
                (par::spawned() - before, product)
            },
        );
        assert_eq!(inside, 0, "a kernel inside a marked worker spawns nothing");
        assert_eq!(par::spawned() - before, 1, "only the join's own worker");
        assert_eq!(product.data(), serial_caller.data());
    });
}
