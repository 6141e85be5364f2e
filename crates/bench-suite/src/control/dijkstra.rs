//! Dijkstra single-source shortest paths on a dense adjacency matrix
//! (Table II: "Path search", control-sensitive).
//!
//! O(N²) classic formulation: repeatedly select the unvisited node with the
//! minimum tentative distance (a branch-heavy argmin scan) and relax its
//! outgoing edges. Outputs the final distance vector.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Number of graph nodes.
pub const NODES: usize = 8;
/// Edge-weight value representing "no edge" / infinity.
pub const INF: i64 = 1 << 30;

/// Builds the benchmark with a random strongly-connected-ish weighted graph
/// derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let n = NODES as i64;
    let mut m = ModuleBuilder::new("dijkstra");
    let adj = m.array("adj", NODES * NODES);
    let dist = m.array("dist", NODES);
    let visited = m.array("visited", NODES);
    let (i, j, best, best_i, iter, du, w, alt) = (
        m.var("i"),
        m.var("j"),
        m.var("best"),
        m.var("best_i"),
        m.var("iter"),
        m.var("du"),
        m.var("w"),
        m.var("alt"),
    );

    // init: dist[i] = INF, visited[i] = 0; dist[0] = 0
    m.push(for_(
        i,
        int(0),
        int(n),
        vec![store(dist, v(i), int(INF)), store(visited, v(i), int(0))],
    ));
    m.push(store(dist, int(0), int(0)));

    // main loop: N iterations of select-min + relax
    m.push(for_(
        iter,
        int(0),
        int(n),
        vec![
            // argmin over unvisited
            assign(best, int(INF)),
            assign(best_i, int(-1)),
            for_(
                i,
                int(0),
                int(n),
                vec![if_(
                    and(eq(ld(visited, v(i)), int(0)), lt(ld(dist, v(i)), v(best))),
                    vec![assign(best, ld(dist, v(i))), assign(best_i, v(i))],
                )],
            ),
            if_(
                ge(v(best_i), int(0)),
                vec![
                    store(visited, v(best_i), int(1)),
                    assign(du, ld(dist, v(best_i))),
                    // relax edges out of best_i
                    for_(
                        j,
                        int(0),
                        int(n),
                        vec![
                            assign(w, ld(adj, add(mul(v(best_i), int(n)), v(j)))),
                            if_(
                                lt(v(w), int(INF)),
                                vec![
                                    assign(alt, add(v(du), v(w))),
                                    if_(
                                        lt(v(alt), ld(dist, v(j))),
                                        vec![store(dist, v(j), v(alt))],
                                    ),
                                ],
                            ),
                        ],
                    ),
                ],
            ),
        ],
    ));

    // output distances
    m.push(for_(i, int(0), int(n), vec![out(ld(dist, v(i)))]));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("dijkstra compiles");
    let init_mem = gen_input(seed, compiled.layout().array_base(adj));
    Benchmark {
        name: "dijkstra",
        category: Category::Control,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates the adjacency matrix used as the program input. `adj_base` is
/// the adjacency array's base address (0: it is the first declared array).
pub fn gen_input(seed: u64, adj_base: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x64696a6b); // "dijk"
    let mut mem = vec![0u64; adj_base + NODES * NODES];
    for r in 0..NODES {
        for c in 0..NODES {
            let w = if r == c {
                0
            } else if rng.next_below(100) < 55 {
                1 + rng.next_below(20) as i64
            } else {
                INF
            };
            mem[adj_base + r * NODES + c] = w as u64;
        }
    }
    // Guarantee a ring so every node is reachable.
    for r in 0..NODES {
        let c = (r + 1) % NODES;
        let w = 1 + rng.next_below(20) as i64;
        mem[adj_base + r * NODES + c] = w as u64;
    }
    mem
}

/// Reference shortest-path distances computed in Rust, for testing.
pub fn reference(adj: &[i64]) -> Vec<i64> {
    let n = NODES;
    let mut dist = vec![INF; n];
    let mut visited = vec![false; n];
    dist[0] = 0;
    for _ in 0..n {
        let mut best = INF;
        let mut best_i = usize::MAX;
        for i in 0..n {
            if !visited[i] && dist[i] < best {
                best = dist[i];
                best_i = i;
            }
        }
        if best_i == usize::MAX {
            break;
        }
        visited[best_i] = true;
        for j in 0..n {
            let w = adj[best_i * n + j];
            if w < INF && dist[best_i] + w < dist[j] {
                dist[j] = dist[best_i] + w;
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference() {
        for seed in [1, 2, 3, 99] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            // adj is the first declared array, so it sits at base 0.
            let adj: Vec<i64> = b.init_mem[..NODES * NODES]
                .iter()
                .map(|&w| w as i64)
                .collect();
            let want: Vec<u64> = reference(&adj).iter().map(|&d| d as u64).collect();
            assert_eq!(r.output, want, "seed {seed}");
        }
    }

    #[test]
    fn all_nodes_reachable() {
        let b = build(5);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        for &d in &r.output {
            assert!((d as i64) < INF, "unreachable node in generated graph");
        }
    }
}
