//! Monte-Carlo swaption-style pricing (Table II: "Finance",
//! data-sensitive).
//!
//! A reduced HJM-flavoured kernel: per path, an in-program LCG drives a
//! uniform shock that evolves the underlying rate multiplicatively over a
//! few time steps; the discounted positive part of the terminal payoff is
//! averaged over paths. Long multiply/add dependence chains with almost no
//! data-dependent control — the archetypal data-sensitive benchmark.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Monte-Carlo paths.
pub const PATHS: usize = 6;
/// Time steps per path.
pub const STEPS: usize = 4;
/// Drift per year.
pub const MU: f64 = 0.04;
/// Volatility per sqrt-year.
pub const SIGMA: f64 = 0.25;
/// Maturity in years.
pub const MATURITY: f64 = 1.0;
/// Risk-free rate used for discounting.
pub const RATE: f64 = 0.03;

const DT: f64 = MATURITY / STEPS as f64;
const SQRT12: f64 = 3.464_101_615_137_754_5; // sqrt(12): unit-variance uniform
const TWO53: f64 = 9_007_199_254_740_992.0;
const LCG_A: i64 = 6_364_136_223_846_793_005;
const LCG_C: i64 = 1_442_695_040_888_963_407;

/// Builds the benchmark with spot/strike/seed inputs derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let mut m = ModuleBuilder::new("swaptions");
    let params = m.array("params", 3); // S0, K, rng seed
    let (p, t, x, s, u, z, payoff, acc) = (
        m.var("p"),
        m.var("t"),
        m.var("x"),
        m.var("s"),
        m.var("u"),
        m.var("z"),
        m.var("payoff"),
        m.var("acc"),
    );
    let sqdt = DT.sqrt();
    let disc = (-RATE * MATURITY).exp();

    m.push(assign(acc, flt(0.0)));
    m.push(for_(
        p,
        int(0),
        int(PATHS as i64),
        vec![
            // Per-path seed: mix the path index into the base seed.
            assign(
                x,
                xor(
                    ld(params, int(2)),
                    mul(add(v(p), int(1)), int(0x9e37_79b9_7f4a_7c15u64 as i64)),
                ),
            ),
            assign(s, ld(params, int(0))),
            for_(
                t,
                int(0),
                int(STEPS as i64),
                vec![
                    assign(x, add(mul(v(x), int(LCG_A)), int(LCG_C))),
                    assign(u, fdiv(i2f(shr(v(x), int(11))), flt(TWO53))),
                    assign(z, fmul(fsub(v(u), flt(0.5)), flt(SQRT12))),
                    assign(
                        s,
                        fmul(
                            v(s),
                            fadd(flt(1.0 + MU * DT), fmul(flt(SIGMA * sqdt), v(z))),
                        ),
                    ),
                ],
            ),
            assign(payoff, fmax(fsub(v(s), ld(params, int(1))), flt(0.0))),
            // Fixed-point micro-unit output, like limited-precision printing.
            out(f2i(fmul(v(payoff), flt(1e6)))),
            assign(acc, fadd(v(acc), fmul(v(payoff), flt(disc)))),
        ],
    ));
    m.push(out(f2i(fmul(fdiv(v(acc), flt(PATHS as f64)), flt(1e6)))));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("swaptions compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "swaptions",
        category: Category::Data,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates `[S0, K, rng_seed]` at base 0.
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x73776170); // "swap"
    vec![
        (80.0 + rng.next_f64() * 40.0).to_bits(),
        (80.0 + rng.next_f64() * 40.0).to_bits(),
        rng.next_u64(),
    ]
}

/// Reference pricer mirroring the kernel's arithmetic exactly
/// (bit-reproducible).
pub fn reference(s0: f64, k: f64, rng_seed: u64) -> (Vec<f64>, f64) {
    let sqdt = DT.sqrt();
    let disc = (-RATE * MATURITY).exp();
    let mut payoffs = Vec::with_capacity(PATHS);
    let mut acc = 0.0f64;
    for p in 0..PATHS {
        let mut x = (rng_seed ^ ((p as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))) as i64;
        let mut s = s0;
        for _ in 0..STEPS {
            x = x.wrapping_mul(LCG_A).wrapping_add(LCG_C);
            let u = ((x as u64) >> 11) as i64 as f64 / TWO53;
            let z = (u - 0.5) * SQRT12;
            s *= (1.0 + MU * DT) + (SIGMA * sqdt) * z;
        }
        let payoff = (s - k).max(0.0);
        payoffs.push(payoff);
        acc += payoff * disc;
    }
    (payoffs, acc / PATHS as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference_bit_exactly() {
        for seed in [1, 5, 17] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let s0 = f64::from_bits(b.init_mem[0]);
            let k = f64::from_bits(b.init_mem[1]);
            let (payoffs, price) = reference(s0, k, b.init_mem[2]);
            let mut want: Vec<u64> = payoffs.iter().map(|&x| ((x * 1e6) as i64) as u64).collect();
            want.push(((price * 1e6) as i64) as u64);
            assert_eq!(r.output, want, "seed {seed}");
        }
    }

    #[test]
    fn price_is_mean_of_discounted_payoffs() {
        let b = build(9);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let disc = (-RATE * MATURITY).exp();
        let payoffs: Vec<f64> = r.output[..PATHS]
            .iter()
            .map(|&x| (x as i64) as f64 / 1e6)
            .collect();
        let price = (r.output[PATHS] as i64) as f64 / 1e6;
        let mean: f64 = payoffs.iter().map(|&p| p * disc).sum::<f64>() / PATHS as f64;
        assert!((price - mean).abs() < 1e-4);
        assert!(payoffs.iter().all(|&p| p >= 0.0));
    }
}
