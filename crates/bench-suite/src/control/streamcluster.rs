//! Simplified streamcluster kernel: iterative k-median-style clustering of
//! 2-D points (Table II: "Computer vision", control-sensitive).
//!
//! Each iteration assigns every point to its nearest of K centers (an
//! argmin over float distances — branch-dense like the original's gain
//! computation) and then recomputes the centers as assignment means.
//! Outputs the per-cluster counts and final center coordinates.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Number of points.
pub const POINTS: usize = 16;
/// Number of cluster centers.
pub const K: usize = 3;
/// Clustering iterations.
pub const ITERS: usize = 3;

/// Builds the benchmark with random points derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let n = POINTS as i64;
    let k = K as i64;
    let mut m = ModuleBuilder::new("streamcluster");
    let px = m.array("px", POINTS);
    let py = m.array("py", POINTS);
    let cx = m.array("cx", K);
    let cy = m.array("cy", K);
    let asn = m.array("assign", POINTS);
    let sx = m.array("sx", K);
    let sy = m.array("sy", K);
    let cnt = m.array("cnt", K);
    let (i, c, it, bestc, bestd, dx, dy, d, cc) = (
        m.var("i"),
        m.var("c"),
        m.var("it"),
        m.var("bestc"),
        m.var("bestd"),
        m.var("dx"),
        m.var("dy"),
        m.var("d"),
        m.var("cc"),
    );

    // Centers start at the first K points.
    m.push(for_(
        c,
        int(0),
        int(k),
        vec![store(cx, v(c), ld(px, v(c))), store(cy, v(c), ld(py, v(c)))],
    ));

    m.push(for_(
        it,
        int(0),
        int(ITERS as i64),
        vec![
            // Assignment step.
            for_(
                i,
                int(0),
                int(n),
                vec![
                    assign(bestc, int(0)),
                    assign(bestd, flt(f64::MAX)),
                    for_(
                        c,
                        int(0),
                        int(k),
                        vec![
                            assign(dx, fsub(ld(px, v(i)), ld(cx, v(c)))),
                            assign(dy, fsub(ld(py, v(i)), ld(cy, v(c)))),
                            assign(d, fadd(fmul(v(dx), v(dx)), fmul(v(dy), v(dy)))),
                            if_(
                                flt_(v(d), v(bestd)),
                                vec![assign(bestd, v(d)), assign(bestc, v(c))],
                            ),
                        ],
                    ),
                    store(asn, v(i), v(bestc)),
                ],
            ),
            // Update step.
            for_(
                c,
                int(0),
                int(k),
                vec![
                    store(sx, v(c), flt(0.0)),
                    store(sy, v(c), flt(0.0)),
                    store(cnt, v(c), int(0)),
                ],
            ),
            for_(
                i,
                int(0),
                int(n),
                vec![
                    assign(cc, ld(asn, v(i))),
                    store(sx, v(cc), fadd(ld(sx, v(cc)), ld(px, v(i)))),
                    store(sy, v(cc), fadd(ld(sy, v(cc)), ld(py, v(i)))),
                    store(cnt, v(cc), add(ld(cnt, v(cc)), int(1))),
                ],
            ),
            for_(
                c,
                int(0),
                int(k),
                vec![if_(
                    gt(ld(cnt, v(c)), int(0)),
                    vec![
                        store(cx, v(c), fdiv(ld(sx, v(c)), i2f(ld(cnt, v(c))))),
                        store(cy, v(c), fdiv(ld(sy, v(c)), i2f(ld(cnt, v(c))))),
                    ],
                )],
            ),
        ],
    ));

    m.push(for_(c, int(0), int(k), vec![out(ld(cnt, v(c)))]));
    // Centers are emitted as fixed-point micro-units, like the original's
    // limited-precision printf: faults in low mantissa bits mask.
    m.push(for_(
        c,
        int(0),
        int(k),
        vec![
            out(f2i(fmul(ld(cx, v(c)), flt(1e6)))),
            out(f2i(fmul(ld(cy, v(c)), flt(1e6)))),
        ],
    ));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("streamcluster compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "streamcluster",
        category: Category::Control,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates the point cloud: three loose blobs so clustering is
/// well-conditioned. Arrays `px` (base 0) and `py` (base POINTS).
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x73747265); // "stre"
    let blob_centers = [(0.0, 0.0), (10.0, 2.0), (5.0, 9.0)];
    let mut mem = vec![0u64; 2 * POINTS];
    for i in 0..POINTS {
        let (bx, by) = blob_centers[i % K];
        let x = bx + rng.next_f64() * 2.0 - 1.0;
        let y = by + rng.next_f64() * 2.0 - 1.0;
        mem[i] = x.to_bits();
        mem[POINTS + i] = y.to_bits();
    }
    mem
}

/// Reference clustering in Rust, returning (counts, centers).
pub fn reference(px: &[f64], py: &[f64]) -> (Vec<u64>, Vec<(f64, f64)>) {
    let mut cx: Vec<f64> = px[..K].to_vec();
    let mut cy: Vec<f64> = py[..K].to_vec();
    let mut assign = [0usize; POINTS];
    let mut counts = vec![0u64; K];
    for _ in 0..ITERS {
        for i in 0..POINTS {
            let mut bestc = 0;
            let mut bestd = f64::MAX;
            for c in 0..K {
                let (dx, dy) = (px[i] - cx[c], py[i] - cy[c]);
                let d = dx * dx + dy * dy;
                if d < bestd {
                    bestd = d;
                    bestc = c;
                }
            }
            assign[i] = bestc;
        }
        let mut sx = [0.0; K];
        let mut sy = [0.0; K];
        counts = vec![0u64; K];
        for i in 0..POINTS {
            sx[assign[i]] += px[i];
            sy[assign[i]] += py[i];
            counts[assign[i]] += 1;
        }
        for c in 0..K {
            if counts[c] > 0 {
                cx[c] = sx[c] / counts[c] as f64;
                cy[c] = sy[c] / counts[c] as f64;
            }
        }
    }
    (counts, cx.into_iter().zip(cy).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference_bit_exactly() {
        for seed in [1, 7, 13] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let px: Vec<f64> = b.init_mem[..POINTS]
                .iter()
                .map(|&x| f64::from_bits(x))
                .collect();
            let py: Vec<f64> = b.init_mem[POINTS..]
                .iter()
                .map(|&x| f64::from_bits(x))
                .collect();
            let (counts, centers) = reference(&px, &py);
            let mut want: Vec<u64> = counts.clone();
            for (x, y) in centers {
                want.push(((x * 1e6) as i64) as u64);
                want.push(((y * 1e6) as i64) as u64);
            }
            assert_eq!(r.output, want, "seed {seed}");
        }
    }

    #[test]
    fn every_point_is_assigned() {
        let b = build(3);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let total: u64 = r.output[..K].iter().sum();
        assert_eq!(total, POINTS as u64);
    }
}
