//! Sobel edge detection on a grayscale image (Table II: "Image processing",
//! control-sensitive).
//!
//! 3×3 Sobel gradients over the interior pixels of an 8×8 image, magnitude
//! approximated by `|gx| + |gy|` and clamped to 255 — the clamp and absolute
//! values give the kernel its per-pixel branches.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Image side length.
pub const SIDE: usize = 8;

/// Builds the benchmark with a random image derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let side = SIDE as i64;
    let mut m = ModuleBuilder::new("sobel");
    let img = m.array("img", SIDE * SIDE);
    let (r, c, gx, gy, mag, t) = (
        m.var("r"),
        m.var("c"),
        m.var("gx"),
        m.var("gy"),
        m.var("mag"),
        m.var("t"),
    );

    let px = |dr: i64, dc: i64| {
        ld(
            img,
            add(mul(add(v(r), int(dr)), int(side)), add(v(c), int(dc))),
        )
    };

    m.push(for_(
        r,
        int(1),
        int(side - 1),
        vec![for_(
            c,
            int(1),
            int(side - 1),
            vec![
                // gx = (p[-1][1] + 2 p[0][1] + p[1][1]) - (p[-1][-1] + 2 p[0][-1] + p[1][-1])
                assign(
                    gx,
                    sub(
                        add(add(px(-1, 1), mul(int(2), px(0, 1))), px(1, 1)),
                        add(add(px(-1, -1), mul(int(2), px(0, -1))), px(1, -1)),
                    ),
                ),
                // gy = (p[1][-1] + 2 p[1][0] + p[1][1]) - (p[-1][-1] + 2 p[-1][0] + p[-1][1])
                assign(
                    gy,
                    sub(
                        add(add(px(1, -1), mul(int(2), px(1, 0))), px(1, 1)),
                        add(add(px(-1, -1), mul(int(2), px(-1, 0))), px(-1, 1)),
                    ),
                ),
                if_(lt(v(gx), int(0)), vec![assign(gx, neg(v(gx)))]),
                if_(lt(v(gy), int(0)), vec![assign(gy, neg(v(gy)))]),
                assign(mag, add(v(gx), v(gy))),
                if_(gt(v(mag), int(255)), vec![assign(mag, int(255))]),
                // Simple edge threshold keeps a data-dependent branch in play.
                assign(t, int(0)),
                if_(gt(v(mag), int(96)), vec![assign(t, int(1))]),
                out(v(mag)),
                out(v(t)),
            ],
        )],
    ));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("sobel compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "sobel",
        category: Category::Control,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates a random 8-bit image (array `img` at base 0).
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x736f6265); // "sobe"
    (0..SIDE * SIDE).map(|_| rng.next_below(256)).collect()
}

/// Reference Sobel in Rust: per interior pixel `(magnitude, edge_flag)`.
pub fn reference(img: &[u64]) -> Vec<u64> {
    let side = SIDE as i64;
    let px = |r: i64, c: i64| img[(r * side + c) as usize] as i64;
    let mut outv = Vec::new();
    for r in 1..side - 1 {
        for c in 1..side - 1 {
            let gx = (px(r - 1, c + 1) + 2 * px(r, c + 1) + px(r + 1, c + 1))
                - (px(r - 1, c - 1) + 2 * px(r, c - 1) + px(r + 1, c - 1));
            let gy = (px(r + 1, c - 1) + 2 * px(r + 1, c) + px(r + 1, c + 1))
                - (px(r - 1, c - 1) + 2 * px(r - 1, c) + px(r - 1, c + 1));
            let mag = (gx.abs() + gy.abs()).min(255);
            outv.push(mag as u64);
            outv.push(u64::from(mag > 96));
        }
    }
    outv
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference() {
        for seed in [1, 2, 3] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            assert_eq!(r.output, reference(&b.init_mem), "seed {seed}");
        }
    }

    #[test]
    fn flat_image_has_no_edges() {
        let img = vec![128u64; SIDE * SIDE];
        let outv = reference(&img);
        assert!(outv.iter().all(|&x| x == 0));
    }

    #[test]
    fn output_covers_interior() {
        let b = build(1);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        assert_eq!(r.output.len(), (SIDE - 2) * (SIDE - 2) * 2);
    }
}
