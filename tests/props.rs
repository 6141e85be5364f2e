//! Workspace-level property tests on the metric and aggregation layers,
//! driven by randomly generated vulnerability tuples and rankings from a
//! deterministic inline RNG (no external crates, so the suite builds
//! offline).

use glaive::{metrics, prepare_benchmark, PipelineConfig, VulnTuple};

const CASES: u64 = 64;

/// SplitMix64 — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn tuple(&mut self) -> VulnTuple {
        let (a, b, c) = (self.unit(), self.unit(), self.unit());
        let sum = (a + b + c).max(1e-9);
        VulnTuple {
            crash: a / sum,
            sdc: b / sum,
            masked: c / sum,
        }
    }
}

/// A shared, lazily prepared benchmark so each property case doesn't rerun
/// the fault campaign.
fn shared_data() -> &'static glaive::BenchData {
    use std::sync::OnceLock;
    static DATA: OnceLock<glaive::BenchData> = OnceLock::new();
    DATA.get_or_init(|| {
        prepare_benchmark(
            glaive_bench_suite::control::dijkstra::build(11),
            &PipelineConfig::quick_test(),
        )
    })
}

/// Top-K coverage of arbitrary estimates is always within [0, 1], for
/// any budget.
#[test]
fn coverage_is_bounded() {
    let d = shared_data();
    let mut rng = Rng(41);
    for _ in 0..CASES {
        let k = 1.0 + rng.unit() * 99.0;
        let tuples: Vec<Option<VulnTuple>> = (0..d.bench.program().len())
            .map(|_| Some(rng.tuple()))
            .collect();
        let c = metrics::top_k_coverage(&tuples, d, k);
        assert!((0.0..=1.0).contains(&c));
    }
}

/// The ranking is always a permutation of the FI-covered PCs.
#[test]
fn ranking_is_a_permutation() {
    let d = shared_data();
    let mut rng = Rng(42);
    for _ in 0..CASES {
        let tuples: Vec<Option<VulnTuple>> = (0..d.bench.program().len())
            .map(|_| {
                let x = rng.unit();
                Some(VulnTuple {
                    crash: x,
                    sdc: 0.0,
                    masked: 1.0 - x,
                })
            })
            .collect();
        let mut ranked = metrics::ranking(&tuples, d);
        ranked.sort_unstable();
        assert_eq!(ranked, d.covered_pcs());
    }
}

/// Program vulnerability of any valid tuple assignment is itself a
/// valid distribution.
#[test]
fn program_vulnerability_is_a_distribution() {
    let d = shared_data();
    let mut rng = Rng(43);
    for _ in 0..CASES {
        let tuples = vec![Some(rng.tuple()); d.bench.program().len()];
        let pv = metrics::program_vulnerability(&tuples, d);
        assert!(pv.crash >= 0.0 && pv.sdc >= 0.0 && pv.masked >= 0.0);
        assert!((pv.crash + pv.sdc + pv.masked - 1.0).abs() < 1e-6);
    }
}

/// abs_error is a metric-like distance: nonnegative, zero on identity,
/// symmetric, and bounded by 2 for distributions.
#[test]
fn abs_error_is_distance_like() {
    let mut rng = Rng(44);
    for _ in 0..CASES {
        let (a, b) = (rng.tuple(), rng.tuple());
        assert!(a.abs_error(&b) >= 0.0);
        assert!(a.abs_error(&a) < 1e-12);
        assert!((a.abs_error(&b) - b.abs_error(&a)).abs() < 1e-12);
        assert!(a.abs_error(&b) <= 2.0 + 1e-9);
    }
}

/// The severity ranking key is monotone in crash and sdc probability.
#[test]
fn ranking_key_is_monotone() {
    let mut rng = Rng(45);
    for _ in 0..CASES {
        let t = rng.tuple();
        let eps = 0.001 + rng.unit() * 0.199;
        // Moving mass from masked to crash must increase the key.
        let more_crash = VulnTuple {
            crash: t.crash + eps * t.masked,
            sdc: t.sdc,
            masked: t.masked * (1.0 - eps),
        };
        assert!(more_crash.ranking_key() > t.ranking_key() - 1e-12);
    }
}

// ---------------------------------------------------------------------------
// CsrGraph invariants over random edge lists
// ---------------------------------------------------------------------------

use glaive_graph::CsrGraph;

/// A random edge list (with deliberate duplicates) plus the graph built
/// from it.
fn random_graph(rng: &mut Rng) -> (usize, Vec<(u32, u32)>, CsrGraph) {
    let n = 1 + (rng.next() % 40) as usize;
    let m = (rng.next() % 120) as usize;
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            (
                (rng.next() % n as u64) as u32,
                (rng.next() % n as u64) as u32,
            )
        })
        .collect();
    let graph = CsrGraph::from_edges(n, edges.clone());
    (n, edges, graph)
}

/// Construction from arbitrary edge lists upholds every CSR invariant:
/// offsets start at zero and are monotone, rows are strictly increasing
/// (sorted and duplicate-free).
#[test]
fn csr_construction_upholds_invariants() {
    let mut rng = Rng(47);
    for _ in 0..CASES {
        let (_, _, g) = random_graph(&mut rng);
        g.check_invariants().expect("invariants hold");
    }
}

/// Duplicate pairs collapse to one edge: the rows hold exactly the
/// distinct inserted pairs — no insertion is lost, none is invented.
#[test]
fn csr_rows_are_the_distinct_pairs() {
    let mut rng = Rng(48);
    for _ in 0..CASES {
        let (n, edges, g) = random_graph(&mut rng);
        let expected: std::collections::BTreeSet<(u32, u32)> = edges.into_iter().collect();
        assert_eq!(g.edge_count(), expected.len(), "one edge per distinct pair");
        let rows: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u as u32, v)))
            .collect();
        assert!(rows.into_iter().eq(expected), "rows are the distinct pairs");
    }
}

/// `symmetrised()` is symmetric, covers the original graph, and adds
/// nothing beyond the reversed edges.
#[test]
fn csr_symmetrised_is_symmetric_superset() {
    let mut rng = Rng(50);
    for _ in 0..CASES {
        let (n, _, g) = random_graph(&mut rng);
        let s = g.symmetrised();
        s.check_invariants().expect("symmetrised invariants hold");
        assert_eq!(s.node_count(), g.node_count());
        for v in 0..n {
            for &t in g.neighbors(v) {
                assert!(s.neighbors(v).contains(&t), "original edge {v}→{t} kept");
            }
            for &t in s.neighbors(v) {
                assert!(
                    s.neighbors(t as usize).contains(&(v as u32)),
                    "symmetric closure broken at {v} ↔ {t}"
                );
                let forward = g.neighbors(v).contains(&t);
                let backward = g.neighbors(t as usize).contains(&(v as u32));
                assert!(
                    forward || backward,
                    "invented edge {v}→{t} with no original direction"
                );
            }
        }
    }
}

/// Tuple construction from counts is scale-invariant.
#[test]
fn from_counts_scale_invariant() {
    let mut rng = Rng(46);
    for _ in 0..CASES {
        let (c, s, m) = (rng.next() % 100, rng.next() % 100, rng.next() % 100);
        let k = 1 + rng.next() % 49;
        if c + s + m == 0 {
            continue;
        }
        let a = VulnTuple::try_from_counts(c, s, m).expect("non-zero counts");
        let b = VulnTuple::try_from_counts(c * k, s * k, m * k).expect("non-zero counts");
        assert!((a.crash - b.crash).abs() < 1e-12);
        assert!((a.sdc - b.sdc).abs() < 1e-12);
        assert!((a.masked - b.masked).abs() < 1e-12);
    }
}
