//! A* grid path search with Manhattan heuristic (Table II: "Path search",
//! control-sensitive).
//!
//! 8×8 grid with obstacles, 4-connectivity, unit step cost. The open set is
//! scanned linearly for the minimum f-score (a branch-dense argmin, like the
//! paper's priority-queue-heavy original). Outputs the goal's g-score, a
//! found flag, and the number of expanded nodes.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Grid side length.
pub const SIDE: usize = 6;
/// Number of grid cells.
pub const CELLS: usize = SIDE * SIDE;
/// The "infinite" g-score.
pub const INF: i64 = 1 << 30;

/// Builds the benchmark with a random obstacle map derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let side = SIDE as i64;
    let cells = CELLS as i64;
    let goal = cells - 1;
    let mut m = ModuleBuilder::new("astar");
    let grid = m.array("grid", CELLS);
    let gscore = m.array("gscore", CELLS);
    let open = m.array("open", CELLS);
    let closed = m.array("closed", CELLS);
    let (i, cur, best, bestf, f, row, col, found, expanded, nb, tent, h) = (
        m.var("i"),
        m.var("cur"),
        m.var("best"),
        m.var("bestf"),
        m.var("f"),
        m.var("row"),
        m.var("col"),
        m.var("found"),
        m.var("expanded"),
        m.var("nb"),
        m.var("tent"),
        m.var("h"),
    );

    m.push(for_(
        i,
        int(0),
        int(cells),
        vec![
            store(gscore, v(i), int(INF)),
            store(open, v(i), int(0)),
            store(closed, v(i), int(0)),
        ],
    ));
    m.push(store(gscore, int(0), int(0)));
    m.push(store(open, int(0), int(1)));
    m.push(assign(found, int(0)));
    m.push(assign(expanded, int(0)));

    // Relaxation of one neighbour `nb` given tentative score `tent`.
    let relax = |nb_expr: glaive_lang::Expr| -> Vec<glaive_lang::Stmt> {
        vec![
            assign(nb, nb_expr),
            if_(
                and(eq(ld(grid, v(nb)), int(0)), eq(ld(closed, v(nb)), int(0))),
                vec![if_(
                    lt(v(tent), ld(gscore, v(nb))),
                    vec![store(gscore, v(nb), v(tent)), store(open, v(nb), int(1))],
                )],
            ),
        ]
    };

    let mut body = vec![
        // Select open node with minimum f = g + manhattan(goal).
        assign(best, int(-1)),
        assign(bestf, int(INF)),
        for_(
            i,
            int(0),
            int(cells),
            vec![if_(
                eq(ld(open, v(i)), int(1)),
                vec![
                    assign(row, div(v(i), int(side))),
                    assign(col, rem(v(i), int(side))),
                    assign(
                        h,
                        add(sub(int(side - 1), v(row)), sub(int(side - 1), v(col))),
                    ),
                    assign(f, add(ld(gscore, v(i)), v(h))),
                    if_(
                        lt(v(f), v(bestf)),
                        vec![assign(bestf, v(f)), assign(best, v(i))],
                    ),
                ],
            )],
        ),
        if_else(
            lt(v(best), int(0)),
            // Open set empty: stop by exhausting the loop counter.
            vec![assign(found, v(found))],
            vec![
                assign(cur, v(best)),
                store(open, v(cur), int(0)),
                store(closed, v(cur), int(1)),
                assign(expanded, add(v(expanded), int(1))),
                if_else(
                    eq(v(cur), int(goal)),
                    vec![assign(found, int(1))],
                    vec![
                        assign(row, div(v(cur), int(side))),
                        assign(col, rem(v(cur), int(side))),
                        assign(tent, add(ld(gscore, v(cur)), int(1))),
                    ],
                ),
            ],
        ),
    ];
    // Neighbour relaxations only when a node was expanded and not the goal.
    let mut neighbor_block = vec![if_(gt(v(row), int(0)), relax(sub(v(cur), int(side))))];
    neighbor_block.push(if_(
        lt(v(row), int(side - 1)),
        relax(add(v(cur), int(side))),
    ));
    neighbor_block.push(if_(gt(v(col), int(0)), relax(sub(v(cur), int(1)))));
    neighbor_block.push(if_(lt(v(col), int(side - 1)), relax(add(v(cur), int(1)))));
    body.push(if_(
        and(ge(v(best), int(0)), eq(v(found), int(0))),
        neighbor_block,
    ));

    let iter = m.var("iter");
    let mut loop_body = vec![if_(eq(v(found), int(0)), body)];
    loop_body.shrink_to_fit();
    m.push(for_(iter, int(0), int(cells), loop_body));

    m.push(out(v(found)));
    m.push(out(ld(gscore, int(goal))));
    m.push(out(v(expanded)));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("astar compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "astar",
        category: Category::Control,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates the obstacle grid (array `grid` at base 0): ~25% obstacles with
/// the top row and right column kept free so a path always exists.
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x61737461); // "asta"
    let mut grid = vec![0u64; CELLS];
    for r in 0..SIDE {
        for c in 0..SIDE {
            if rng.next_below(100) < 25 {
                grid[r * SIDE + c] = 1;
            }
        }
    }
    for cell in grid.iter_mut().take(SIDE) {
        *cell = 0; // top row free
    }
    for r in 0..SIDE {
        grid[r * SIDE + SIDE - 1] = 0; // right column free
    }
    grid[0] = 0;
    grid[CELLS - 1] = 0;
    grid
}

/// Reference A* (g-score of the goal and expansion count) in Rust.
pub fn reference(grid: &[u64]) -> (u64, i64, u64) {
    let side = SIDE;
    let goal = CELLS - 1;
    let mut g = vec![INF; CELLS];
    let mut open = [false; CELLS];
    let mut closed = [false; CELLS];
    g[0] = 0;
    open[0] = true;
    let mut found = 0u64;
    let mut expanded = 0u64;
    for _ in 0..CELLS {
        if found == 1 {
            continue;
        }
        let mut best = usize::MAX;
        let mut bestf = INF;
        for i in 0..CELLS {
            if open[i] {
                let (row, col) = (i / side, i % side);
                let h = (side - 1 - row) as i64 + (side - 1 - col) as i64;
                let f = g[i] + h;
                if f < bestf {
                    bestf = f;
                    best = i;
                }
            }
        }
        if best == usize::MAX {
            continue;
        }
        let cur = best;
        open[cur] = false;
        closed[cur] = true;
        expanded += 1;
        if cur == goal {
            found = 1;
            continue;
        }
        let (row, col) = (cur / side, cur % side);
        let tent = g[cur] + 1;
        let mut relax = |nb: usize| {
            if grid[nb] == 0 && !closed[nb] && tent < g[nb] {
                g[nb] = tent;
                open[nb] = true;
            }
        };
        if row > 0 {
            relax(cur - side);
        }
        if row < side - 1 {
            relax(cur + side);
        }
        if col > 0 {
            relax(cur - 1);
        }
        if col < side - 1 {
            relax(cur + 1);
        }
    }
    (found, g[goal], expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference() {
        for seed in [1, 2, 3, 42] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let (found, cost, expanded) = reference(&b.init_mem);
            assert_eq!(r.output, vec![found, cost as u64, expanded], "seed {seed}");
        }
    }

    #[test]
    fn path_is_always_found() {
        for seed in 0..8 {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert_eq!(r.output[0], 1, "seed {seed}: no path found");
            // Free top row + right column bound the optimal cost at 2*(SIDE-1).
            assert_eq!(
                r.output[1],
                2 * (SIDE as u64 - 1),
                "seed {seed}: manhattan-optimal path expected"
            );
        }
    }
}
