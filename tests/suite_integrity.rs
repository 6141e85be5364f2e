//! Integrity checks across the benchmark suite: golden runs, graph/site
//! alignment, and stability of the generated inputs.

use glaive_cdfg::{Cdfg, CdfgConfig, FEATURE_DIM};
use glaive_sim::run;

/// Every benchmark's golden run halts cleanly with non-empty output.
#[test]
fn all_golden_runs_are_clean() {
    for b in glaive_bench_suite::suite(42) {
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        assert!(r.status.is_clean(), "{}: {:?}", b.name, r.status);
        assert!(!r.output.is_empty(), "{}: no output", b.name);
        assert!(r.dyn_instrs > 100, "{}: suspiciously short run", b.name);
    }
}

/// Golden runs are identical across process invocations (pure functions of
/// the seed).
#[test]
fn suite_is_deterministic_per_seed() {
    let a = glaive_bench_suite::suite(5);
    let b = glaive_bench_suite::suite(5);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.init_mem, y.init_mem, "{}", x.name);
        let ra = run(x.program(), &x.init_mem, &x.exec_config());
        let rb = run(y.program(), &y.init_mem, &y.exec_config());
        assert_eq!(ra.output, rb.output, "{}", x.name);
    }
}

/// CDFG construction succeeds at several strides and the feature matrix
/// always has the documented width.
#[test]
fn graphs_build_at_multiple_strides() {
    for b in glaive_bench_suite::suite(1).into_iter().take(4) {
        for stride in [8, 16, 64] {
            let g = Cdfg::build(b.program(), &CdfgConfig { bit_stride: stride });
            assert!(g.node_count() > 0, "{} stride {stride}", b.name);
            let m = g.feature_matrix();
            assert_eq!(m.len(), g.node_count() * FEATURE_DIM);
            // Degree sanity: no node may aggregate from itself.
            for id in 0..g.node_count() as u32 {
                assert!(!g.preds(id).contains(&id), "{}: self-loop at {id}", b.name);
            }
        }
    }
}

/// Word-level graphs (stride 64) are strictly smaller than bit-level ones,
/// preserving the bit-vs-word ablation's premise.
#[test]
fn word_level_graphs_are_smaller() {
    let b = glaive_bench_suite::control::dijkstra::build(1);
    let bit = Cdfg::build(b.program(), &CdfgConfig { bit_stride: 8 });
    let word = Cdfg::build(b.program(), &CdfgConfig { bit_stride: 64 });
    assert_eq!(bit.node_count(), 8 * word.node_count());
    assert!(bit.edge_count() > word.edge_count());
}

/// The execution budget declared by each benchmark comfortably covers its
/// golden run scaled by the hang factor the pipeline's campaigns use
/// (fault campaigns scale budgets from the golden length).
#[test]
fn exec_budgets_have_headroom() {
    let hang_factor = glaive::PipelineConfig::default().campaign().hang_factor;
    for b in glaive_bench_suite::suite(2) {
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        assert!(
            r.dyn_instrs * hang_factor < b.exec_config().max_instrs,
            "{}: budget too tight",
            b.name
        );
    }
}

/// FNV-1a over the little-endian bytes of a CSR's `offsets`, then its
/// `targets`.
fn csr_digest(g: &glaive_graph::CsrGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in g.offsets().iter().chain(g.targets()) {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every suite program's predecessor adjacency and its symmetrised
/// all-neighbour view are pinned, at bit strides 8 and 16: row order and
/// de-duplication set the GNN's summation order, so any change to how the
/// graph is built shows here before it shows in model bytes.
#[test]
fn suite_adjacency_is_pinned() {
    // (benchmark, stride, preds digest, symmetrised digest)
    const PINNED: &[(&str, usize, u64, u64)] = &[
        ("dijkstra", 8, 0x706b9cd2c3eddea0, 0x5ab55525fe8aabcb),
        ("dijkstra", 16, 0x21f5eddde8aeb5c3, 0x54192b4d3f7b6171),
        ("astar", 8, 0x9a7196a731738d82, 0x9d51c2231e6c2c58),
        ("astar", 16, 0xf237925c44f1c586, 0xa653db4a5c1b7e62),
        ("streamcluster", 8, 0x2b663b70e9552b61, 0xf7b15cf8bbb853fb),
        ("streamcluster", 16, 0x666636a8d4a9d559, 0x90525311584eafbb),
        ("jmeint", 8, 0x9be197da06a85101, 0xfe0524fb689ca966),
        ("jmeint", 16, 0xddaf39aca73982fa, 0xec66b4ea40133c30),
        ("sobel", 8, 0x40814503fca32593, 0x3ac95ca409b7fd74),
        ("sobel", 16, 0xbe41758670f898bd, 0x5167e3fb72a70818),
        ("inversek2j", 8, 0xde9e44dffc604d3e, 0xb5255dc80d31bb4c),
        ("inversek2j", 16, 0x0cf6dd5003d7bd99, 0x2e9f7039d050e2ca),
        ("blackscholes", 8, 0xd607a75f185a0b2b, 0x1fc9564a982fdf67),
        ("blackscholes", 16, 0x6cbf9fa71f2466a3, 0x68add497ee634911),
        ("swaptions", 8, 0x50a1d3996f745439, 0x4e5807dea77b094e),
        ("swaptions", 16, 0xa993c323e9de1367, 0x95b8cad1d927bf44),
        ("fft", 8, 0xddc473ae207f211d, 0x4ec33683e514f01a),
        ("fft", 16, 0x3f44edfcd9ac6d7e, 0xc843401276bc427c),
        ("radix", 8, 0xde54fc0aaa6ba03c, 0x1f4b438ee1885750),
        ("radix", 16, 0xdd8c0cc58521296f, 0x45fb267fece3f0c0),
        ("ctaes", 8, 0x256918d069a9e209, 0x9cc2c383f7b6aeb2),
        ("ctaes", 16, 0x1f21d0b44b41c4ea, 0x5c18b744c09e1b17),
        ("lu", 8, 0x8189045297ee9d51, 0xc2da85a3c400dbf8),
        ("lu", 16, 0x7a9e336d552b3f4c, 0x2bcc7cd59790ad8e),
    ];
    let mut actual = Vec::new();
    for b in glaive_bench_suite::suite(7) {
        for stride in [8, 16] {
            let g = Cdfg::build(b.program(), &CdfgConfig { bit_stride: stride });
            let preds = g.preds_csr();
            actual.push((
                b.name,
                stride,
                csr_digest(preds),
                csr_digest(&preds.symmetrised()),
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, stride, p, s)| {
            format!("        ({name:?}, {stride}, {p:#018x}, {s:#018x}),\n")
        })
        .collect();
    assert_eq!(actual, PINNED, "adjacency digests drifted; now:\n{table}");
}
