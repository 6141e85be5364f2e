//! Black–Scholes European option pricing (Table II: "Finance",
//! data-sensitive).
//!
//! Straight-line float dataflow per option: `d1`, `d2`, the cumulative
//! normal via the Abramowitz–Stegun polynomial, and the call/put prices.
//! Faults overwhelmingly corrupt data values rather than control decisions.

use glaive_lang::{dsl::*, mathlib, Expr, ModuleBuilder, Stmt, Var};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Number of options priced.
pub const OPTIONS: usize = 4;
/// Words per option: S, K, r, volatility, T.
pub const WORDS_PER_OPTION: usize = 5;

const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Cumulative normal distribution via the Abramowitz–Stegun 5-term
/// polynomial; returns statements leaving the value in a fresh variable.
fn cndf(m: &mut ModuleBuilder, x: Expr) -> (Vec<Stmt>, Expr) {
    let xv = m.fresh_var("cndx");
    let kv = m.fresh_var("cndk");
    let pdf = m.fresh_var("cndpdf");
    let result = m.fresh_var("cnd");
    let mut stmts = vec![
        assign(xv, x),
        assign(
            kv,
            fdiv(
                flt(1.0),
                fadd(flt(1.0), fmul(flt(0.231_641_9), fabs(v(xv)))),
            ),
        ),
    ];
    let (poly_stmts, poly_v) = mathlib::poly(
        m,
        kv,
        &[
            0.0,
            0.319_381_530,
            -0.356_563_782,
            1.781_477_937,
            -1.821_255_978,
            1.330_274_429,
        ],
    );
    stmts.extend(poly_stmts);
    let (exp_stmts, exp_v) = mathlib::exp(m, fneg(fmul(fmul(v(xv), v(xv)), flt(0.5))));
    stmts.extend(exp_stmts);
    stmts.push(assign(pdf, fmul(flt(INV_SQRT_2PI), exp_v)));
    stmts.push(assign(result, fsub(flt(1.0), fmul(v(pdf), poly_v))));
    stmts.push(if_(
        flt_(v(xv), flt(0.0)),
        vec![assign(result, fsub(flt(1.0), v(result)))],
    ));
    (stmts, v(result))
}

/// Builds the benchmark with random option parameters derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let mut m = ModuleBuilder::new("blackscholes");
    let params = m.array("params", OPTIONS * WORDS_PER_OPTION);
    let (i, base): (Var, Var) = (m.var("i"), m.var("base"));
    let (s, k, r, vol, t) = (m.var("s"), m.var("k"), m.var("r"), m.var("vol"), m.var("t"));
    let (sqrt_t, d1, d2, disc) = (m.var("sqrt_t"), m.var("d1"), m.var("d2"), m.var("disc"));

    let mut body = vec![
        assign(base, mul(v(i), int(WORDS_PER_OPTION as i64))),
        assign(s, ld(params, add(v(base), int(0)))),
        assign(k, ld(params, add(v(base), int(1)))),
        assign(r, ld(params, add(v(base), int(2)))),
        assign(vol, ld(params, add(v(base), int(3)))),
        assign(t, ld(params, add(v(base), int(4)))),
        assign(sqrt_t, fsqrt(v(t))),
    ];
    let (ln_stmts, ln_v) = mathlib::ln(&mut m, fdiv(v(s), v(k)));
    body.extend(ln_stmts);
    body.push(assign(
        d1,
        fdiv(
            fadd(
                ln_v,
                fmul(fadd(v(r), fmul(fmul(v(vol), v(vol)), flt(0.5))), v(t)),
            ),
            fmul(v(vol), v(sqrt_t)),
        ),
    ));
    body.push(assign(d2, fsub(v(d1), fmul(v(vol), v(sqrt_t)))));
    let (nd1_stmts, nd1) = cndf(&mut m, v(d1));
    body.extend(nd1_stmts);
    let nd1_var = m.fresh_var("nd1");
    body.push(assign(nd1_var, nd1));
    let (nd2_stmts, nd2) = cndf(&mut m, v(d2));
    body.extend(nd2_stmts);
    let nd2_var = m.fresh_var("nd2");
    body.push(assign(nd2_var, nd2));
    let (disc_stmts, disc_v) = mathlib::exp(&mut m, fneg(fmul(v(r), v(t))));
    body.extend(disc_stmts);
    body.push(assign(disc, disc_v));
    // Call price, then the put via parity.
    let call = m.fresh_var("call");
    body.push(assign(
        call,
        fsub(
            fmul(v(s), v(nd1_var)),
            fmul(fmul(v(k), v(disc)), v(nd2_var)),
        ),
    ));
    // Prices are emitted in fixed-point micro-dollars (the original prints
    // with limited precision, masking low mantissa bits).
    body.push(out(f2i(fmul(v(call), flt(1e6)))));
    body.push(out(f2i(fmul(
        fadd(fsub(v(call), v(s)), fmul(v(k), v(disc))),
        flt(1e6),
    ))));
    m.push(for_(i, int(0), int(OPTIONS as i64), body));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("blackscholes compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "blackscholes",
        category: Category::Data,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates option parameters (array `params` at base 0): spot 40–120,
/// strike 40–120, rate 1–6 %, volatility 10–50 %, maturity 0.25–2 years.
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x626c6b73); // "blks"
    let mut mem = Vec::with_capacity(OPTIONS * WORDS_PER_OPTION);
    for _ in 0..OPTIONS {
        mem.push((40.0 + rng.next_f64() * 80.0).to_bits());
        mem.push((40.0 + rng.next_f64() * 80.0).to_bits());
        mem.push((0.01 + rng.next_f64() * 0.05).to_bits());
        mem.push((0.10 + rng.next_f64() * 0.40).to_bits());
        mem.push((0.25 + rng.next_f64() * 1.75).to_bits());
    }
    mem
}

/// Reference Black–Scholes (call, put) prices with Rust std math.
pub fn reference(params: &[f64]) -> Vec<(f64, f64)> {
    fn cndf(x: f64) -> f64 {
        let k = 1.0 / (1.0 + 0.231_641_9 * x.abs());
        let poly = k
            * (0.319_381_530
                + k * (-0.356_563_782
                    + k * (1.781_477_937 + k * (-1.821_255_978 + k * 1.330_274_429))));
        let n = 1.0 - INV_SQRT_2PI * (-x * x * 0.5).exp() * poly;
        if x < 0.0 {
            1.0 - n
        } else {
            n
        }
    }
    params
        .chunks(WORDS_PER_OPTION)
        .map(|p| {
            let (s, k, r, vol, t) = (p[0], p[1], p[2], p[3], p[4]);
            let sqrt_t = t.sqrt();
            let d1 = ((s / k).ln() + (r + vol * vol * 0.5) * t) / (vol * sqrt_t);
            let d2 = d1 - vol * sqrt_t;
            let disc = (-r * t).exp();
            let call = s * cndf(d1) - k * disc * cndf(d2);
            let put = call - s + k * disc;
            (call, put)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference_approximately() {
        for seed in [1, 8, 21] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let params: Vec<f64> = b.init_mem.iter().map(|&x| f64::from_bits(x)).collect();
            let want = reference(&params);
            for (k, &(call, put)) in want.iter().enumerate() {
                let got_call = (r.output[2 * k] as i64) as f64 / 1e6;
                let got_put = (r.output[2 * k + 1] as i64) as f64 / 1e6;
                assert!(
                    (got_call - call).abs() < 1e-4,
                    "seed {seed} call[{k}]: {got_call} vs {call}"
                );
                assert!(
                    (got_put - put).abs() < 1e-4,
                    "seed {seed} put[{k}]: {got_put} vs {put}"
                );
            }
        }
    }

    #[test]
    fn prices_are_nonnegative_and_bounded() {
        let b = build(2);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let params: Vec<f64> = b.init_mem.iter().map(|&x| f64::from_bits(x)).collect();
        for (k, p) in params.chunks(WORDS_PER_OPTION).enumerate() {
            let call = (r.output[2 * k] as i64) as f64 / 1e6;
            assert!(call >= -1e-9, "negative call price {call}");
            assert!(call <= p[0], "call {call} exceeds spot {}", p[0]);
        }
    }
}
