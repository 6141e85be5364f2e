//! Triangle–triangle intersection pretest (Table II: "Robotics",
//! control-sensitive).
//!
//! For each pair of 3-D triangles this kernel runs the plane-separation
//! stage of Möller's test: if all vertices of one triangle lie strictly on
//! one side of the other's supporting plane the pair cannot intersect.
//! Per pair it emits `0` (separated by the second triangle's plane), `1`
//! (separated by the first's), or `2` (potentially intersecting) — a dense
//! cascade of float comparisons and sign branches, the signature of the
//! original AXBench kernel.

use glaive_lang::{dsl::*, Expr, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Number of triangle pairs tested.
pub const PAIRS: usize = 4;
/// Words per pair: 2 triangles × 3 vertices × 3 coordinates.
pub const WORDS_PER_PAIR: usize = 18;

/// Builds the benchmark with random triangle pairs derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let mut m = ModuleBuilder::new("jmeint");
    let tris = m.array("tris", PAIRS * WORDS_PER_PAIR);
    let p = m.var("p");
    let base = m.var("base");

    // Vertex coordinate variables: v[0..3] first triangle, u[0..3] second.
    let coord_names = [
        "v0x", "v0y", "v0z", "v1x", "v1y", "v1z", "v2x", "v2y", "v2z", "u0x", "u0y", "u0z", "u1x",
        "u1y", "u1z", "u2x", "u2y", "u2z",
    ];
    let coords: Vec<_> = coord_names.iter().map(|n| m.var(*n)).collect();
    let (nx, ny, nz, d, s0, s1, s2, verdict) = (
        m.var("nx"),
        m.var("ny"),
        m.var("nz"),
        m.var("d"),
        m.var("s0"),
        m.var("s1"),
        m.var("s2"),
        m.var("verdict"),
    );

    let c = |idx: usize| v(coords[idx]);
    // Indices into `coords` for vertex `t` (0..6) coordinate `axis` (0..3).
    let vi = |t: usize, axis: usize| t * 3 + axis;

    // Statements computing the normal of triangle (a,b,cv) into nx/ny/nz
    // and plane offset into d: n = (b-a) × (cv-a), d = -n·a.
    let plane = |a: usize, b: usize, cv: usize| -> Vec<glaive_lang::Stmt> {
        let e1 = |ax: usize| fsub(c(vi(b, ax)), c(vi(a, ax)));
        let e2 = |ax: usize| fsub(c(vi(cv, ax)), c(vi(a, ax)));
        vec![
            assign(nx, fsub(fmul(e1(1), e2(2)), fmul(e1(2), e2(1)))),
            assign(ny, fsub(fmul(e1(2), e2(0)), fmul(e1(0), e2(2)))),
            assign(nz, fsub(fmul(e1(0), e2(1)), fmul(e1(1), e2(0)))),
            assign(
                d,
                fneg(fadd(
                    fadd(fmul(v(nx), c(vi(a, 0))), fmul(v(ny), c(vi(a, 1)))),
                    fmul(v(nz), c(vi(a, 2))),
                )),
            ),
        ]
    };
    // Signed distance of vertex `t` to the current plane.
    let sdist = |t: usize| -> Expr {
        fadd(
            fadd(
                fadd(fmul(v(nx), c(vi(t, 0))), fmul(v(ny), c(vi(t, 1)))),
                fmul(v(nz), c(vi(t, 2))),
            ),
            v(d),
        )
    };
    let all_positive = |a, b, cc| {
        and(
            and(fgt(v(a), flt(0.0)), fgt(v(b), flt(0.0))),
            fgt(v(cc), flt(0.0)),
        )
    };
    let all_negative = |a, b, cc| {
        and(
            and(flt_(v(a), flt(0.0)), flt_(v(b), flt(0.0))),
            flt_(v(cc), flt(0.0)),
        )
    };

    let mut body = vec![assign(base, mul(v(p), int(WORDS_PER_PAIR as i64)))];
    for (k, &var) in coords.iter().enumerate() {
        body.push(assign(var, ld(tris, add(v(base), int(k as i64)))));
    }
    body.push(assign(verdict, int(2)));
    // Plane of the second triangle (vertices 3,4,5); distances of 0,1,2.
    body.extend(plane(3, 4, 5));
    body.push(assign(s0, sdist(0)));
    body.push(assign(s1, sdist(1)));
    body.push(assign(s2, sdist(2)));
    body.push(if_(
        or(all_positive(s0, s1, s2), all_negative(s0, s1, s2)),
        vec![assign(verdict, int(0))],
    ));
    // Plane of the first triangle; distances of 3,4,5.
    body.push(if_(eq(v(verdict), int(2)), {
        let mut inner = plane(0, 1, 2);
        inner.push(assign(s0, sdist(3)));
        inner.push(assign(s1, sdist(4)));
        inner.push(assign(s2, sdist(5)));
        inner.push(if_(
            or(all_positive(s0, s1, s2), all_negative(s0, s1, s2)),
            vec![assign(verdict, int(1))],
        ));
        inner
    }));
    body.push(out(v(verdict)));
    m.push(for_(p, int(0), int(PAIRS as i64), body));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("jmeint compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "jmeint",
        category: Category::Control,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates random triangle pairs (coordinates in `[-5, 5]`), array `tris`
/// at base 0.
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x6a6d6569); // "jmei"
    (0..PAIRS * WORDS_PER_PAIR)
        .map(|_| (rng.next_f64() * 10.0 - 5.0).to_bits())
        .collect()
}

/// Reference classification in Rust, mirroring the kernel's float op order.
pub fn reference(tris: &[f64]) -> Vec<u64> {
    let mut res = Vec::with_capacity(PAIRS);
    for p in 0..PAIRS {
        let at = |t: usize, ax: usize| tris[p * WORDS_PER_PAIR + t * 3 + ax];
        let plane = |a: usize, b: usize, c: usize| -> ([f64; 3], f64) {
            let e1 = [
                at(b, 0) - at(a, 0),
                at(b, 1) - at(a, 1),
                at(b, 2) - at(a, 2),
            ];
            let e2 = [
                at(c, 0) - at(a, 0),
                at(c, 1) - at(a, 1),
                at(c, 2) - at(a, 2),
            ];
            let n = [
                e1[1] * e2[2] - e1[2] * e2[1],
                e1[2] * e2[0] - e1[0] * e2[2],
                e1[0] * e2[1] - e1[1] * e2[0],
            ];
            let d = -((n[0] * at(a, 0) + n[1] * at(a, 1)) + n[2] * at(a, 2));
            (n, d)
        };
        let sdist = |n: &[f64; 3], d: f64, t: usize| {
            ((n[0] * at(t, 0) + n[1] * at(t, 1)) + n[2] * at(t, 2)) + d
        };
        let same_side = |s: [f64; 3]| {
            (s[0] > 0.0 && s[1] > 0.0 && s[2] > 0.0) || (s[0] < 0.0 && s[1] < 0.0 && s[2] < 0.0)
        };
        let (n2, d2) = plane(3, 4, 5);
        if same_side([sdist(&n2, d2, 0), sdist(&n2, d2, 1), sdist(&n2, d2, 2)]) {
            res.push(0);
            continue;
        }
        let (n1, d1) = plane(0, 1, 2);
        if same_side([sdist(&n1, d1, 3), sdist(&n1, d1, 4), sdist(&n1, d1, 5)]) {
            res.push(1);
        } else {
            res.push(2);
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference() {
        for seed in [1, 2, 3, 4, 5] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let tris: Vec<f64> = b.init_mem.iter().map(|&x| f64::from_bits(x)).collect();
            assert_eq!(r.output, reference(&tris), "seed {seed}");
        }
    }

    #[test]
    fn separated_triangles_classified_zero() {
        // Two triangles far apart along z: first in z=0, second in z=10.
        let mut tris = vec![0.0f64; WORDS_PER_PAIR * PAIRS];
        let t1 = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)];
        let t2 = [(0.0, 0.0, 10.0), (1.0, 0.0, 10.0), (0.0, 1.0, 10.0)];
        for (i, &(x, y, z)) in t1.iter().chain(t2.iter()).enumerate() {
            tris[i * 3] = x;
            tris[i * 3 + 1] = y;
            tris[i * 3 + 2] = z;
        }
        assert_eq!(reference(&tris)[0], 0);
    }

    #[test]
    fn overlapping_triangles_classified_two() {
        let mut tris = vec![0.0f64; WORDS_PER_PAIR * PAIRS];
        // Interpenetrating triangles.
        let t1 = [(0.0, 0.0, -1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)];
        let t2 = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0)];
        for (i, &(x, y, z)) in t1.iter().chain(t2.iter()).enumerate() {
            tris[i * 3] = x;
            tris[i * 3 + 1] = y;
            tris[i * 3 + 2] = z;
        }
        assert_eq!(reference(&tris)[0], 2);
    }
}
