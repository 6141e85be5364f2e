//! Two-joint arm inverse kinematics (Table II: "3-D gaming",
//! control-sensitive, **validation** split).
//!
//! For each target point the kernel computes the elbow and shoulder angles
//! `θ2 = acos((x² + y² − l1² − l2²) / (2·l1·l2))`,
//! `θ1 = atan2(y, x) − atan2(l2·sin θ2, l1 + l2·cos θ2)` — dominated by the
//! branchy range reductions inside `acos`/`atan2`.
//!
//! This benchmark is never trained on: it validates that GLAIVE's learned
//! vulnerability knowledge transfers to unseen programs.

use glaive_lang::{dsl::*, mathlib, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Number of target points.
pub const TARGETS: usize = 4;
/// Upper-arm length.
pub const L1: f64 = 0.5;
/// Forearm length.
pub const L2: f64 = 0.5;

/// Builds the benchmark with reachable random targets derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let mut m = ModuleBuilder::new("inversek2j");
    let xs = m.array("xs", TARGETS);
    let ys = m.array("ys", TARGETS);
    let (i, x, y, d, th2, th1) = (
        m.var("i"),
        m.var("x"),
        m.var("y"),
        m.var("d"),
        m.var("th2"),
        m.var("th1"),
    );

    let mut body = vec![
        assign(x, ld(xs, v(i))),
        assign(y, ld(ys, v(i))),
        assign(
            d,
            fdiv(
                fsub(
                    fadd(fmul(v(x), v(x)), fmul(v(y), v(y))),
                    flt(L1 * L1 + L2 * L2),
                ),
                flt(2.0 * L1 * L2),
            ),
        ),
        if_(fgt(v(d), flt(1.0)), vec![assign(d, flt(1.0))]),
        if_(flt_(v(d), flt(-1.0)), vec![assign(d, flt(-1.0))]),
    ];
    let (acos_stmts, acos_v) = mathlib::acos(&mut m, v(d));
    body.extend(acos_stmts);
    body.push(assign(th2, acos_v));
    let (sin_stmts, sin_v) = mathlib::sin(&mut m, v(th2));
    body.extend(sin_stmts);
    let (cos_stmts, cos_v) = mathlib::cos(&mut m, v(th2));
    body.extend(cos_stmts);
    let (at_target, at_target_v) = mathlib::atan2(&mut m, v(y), v(x));
    body.extend(at_target);
    let (at_elbow, at_elbow_v) = mathlib::atan2(
        &mut m,
        fmul(flt(L2), sin_v),
        fadd(flt(L1), fmul(flt(L2), cos_v)),
    );
    body.extend(at_elbow);
    body.push(assign(th1, fsub(at_target_v, at_elbow_v)));
    // Angles are emitted in fixed-point micro-radians (the original
    // prints with limited precision, masking low mantissa bits).
    body.push(out(f2i(fmul(v(th1), flt(1e6)))));
    body.push(out(f2i(fmul(v(th2), flt(1e6)))));
    m.push(for_(i, int(0), int(TARGETS as i64), body));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("inversek2j compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "inversek2j",
        category: Category::Control,
        split: Split::Validation,
        compiled,
        init_mem,
    }
}

/// Generates reachable targets via forward kinematics from random joint
/// angles (arrays `xs` at base 0 and `ys` at base TARGETS).
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x696b3266); // "ik2f"
    let mut mem = vec![0u64; 2 * TARGETS];
    for i in 0..TARGETS {
        let t1 = rng.next_f64() * std::f64::consts::PI - std::f64::consts::FRAC_PI_2;
        let t2 = rng.next_f64() * 2.0 + 0.3; // elbow clearly bent
        let x = L1 * t1.cos() + L2 * (t1 + t2).cos();
        let y = L1 * t1.sin() + L2 * (t1 + t2).sin();
        mem[i] = x.to_bits();
        mem[TARGETS + i] = y.to_bits();
    }
    mem
}

/// Reference IK angles using Rust std math (approximate comparison only —
/// the in-ISA polynomial math differs in the last few ulps).
pub fn reference(xs: &[f64], ys: &[f64]) -> Vec<(f64, f64)> {
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let d = ((x * x + y * y) - (L1 * L1 + L2 * L2)) / (2.0 * L1 * L2);
            let d = d.clamp(-1.0, 1.0);
            let th2 = d.acos();
            let th1 = y.atan2(x) - (L2 * th2.sin()).atan2(L1 + L2 * th2.cos());
            (th1, th2)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference_approximately() {
        for seed in [1, 4, 9] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let xs: Vec<f64> = b.init_mem[..TARGETS]
                .iter()
                .map(|&v| f64::from_bits(v))
                .collect();
            let ys: Vec<f64> = b.init_mem[TARGETS..]
                .iter()
                .map(|&v| f64::from_bits(v))
                .collect();
            let want = reference(&xs, &ys);
            for (k, &(th1, th2)) in want.iter().enumerate() {
                let got1 = (r.output[2 * k] as i64) as f64 / 1e6;
                let got2 = (r.output[2 * k + 1] as i64) as f64 / 1e6;
                assert!(
                    (got1 - th1).abs() < 1e-4,
                    "seed {seed} θ1[{k}]: {got1} vs {th1}"
                );
                assert!(
                    (got2 - th2).abs() < 1e-4,
                    "seed {seed} θ2[{k}]: {got2} vs {th2}"
                );
            }
        }
    }

    #[test]
    fn forward_kinematics_roundtrip() {
        // Applying forward kinematics to the computed angles must land on
        // the target point.
        let b = build(11);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let xs: Vec<f64> = b.init_mem[..TARGETS]
            .iter()
            .map(|&v| f64::from_bits(v))
            .collect();
        let ys: Vec<f64> = b.init_mem[TARGETS..]
            .iter()
            .map(|&v| f64::from_bits(v))
            .collect();
        for k in 0..TARGETS {
            let th1 = (r.output[2 * k] as i64) as f64 / 1e6;
            let th2 = (r.output[2 * k + 1] as i64) as f64 / 1e6;
            let x = L1 * th1.cos() + L2 * (th1 + th2).cos();
            let y = L1 * th1.sin() + L2 * (th1 + th2).sin();
            assert!((x - xs[k]).abs() < 1e-3, "target {k}: x {x} vs {}", xs[k]);
            assert!((y - ys[k]).abs() < 1e-3, "target {k}: y {y} vs {}", ys[k]);
        }
    }
}
