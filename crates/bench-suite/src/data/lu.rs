//! LU decomposition without pivoting (Table II: "Computing",
//! data-sensitive, **validation** split).
//!
//! In-place Doolittle factorisation of a diagonally dominant 4×4 matrix —
//! triple-nested float multiply-subtract dataflow. Like `inversek2j`, this
//! benchmark is never trained on; it validates transfer to unseen programs.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Matrix dimension.
pub const DIM: usize = 4;

/// Builds the benchmark with a random diagonally dominant matrix derived
/// from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let n = DIM as i64;
    let mut m = ModuleBuilder::new("lu");
    let a = m.array("a", DIM * DIM);
    let (i, j, k, factor) = (m.var("i"), m.var("j"), m.var("k"), m.var("factor"));
    let at = |r: glaive_lang::Expr, c: glaive_lang::Expr| ld(a, add(mul(r, int(n)), c));

    m.push(for_(
        k,
        int(0),
        int(n),
        vec![for_(
            i,
            add(v(k), int(1)),
            int(n),
            vec![
                assign(factor, fdiv(at(v(i), v(k)), at(v(k), v(k)))),
                store(a, add(mul(v(i), int(n)), v(k)), v(factor)),
                for_(
                    j,
                    add(v(k), int(1)),
                    int(n),
                    vec![store(
                        a,
                        add(mul(v(i), int(n)), v(j)),
                        fsub(at(v(i), v(j)), fmul(v(factor), at(v(k), v(j)))),
                    )],
                ),
            ],
        )],
    ));
    // Factor entries are emitted in fixed-point micro-units, like the
    // original's limited-precision output.
    m.push(for_(
        i,
        int(0),
        int(n * n),
        vec![out(f2i(fmul(ld(a, v(i)), flt(1e6))))],
    ));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("lu compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "lu",
        category: Category::Data,
        split: Split::Validation,
        compiled,
        init_mem,
    }
}

/// Generates a diagonally dominant matrix (array `a` at base 0), so the
/// factorisation is stable without pivoting.
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x6c755f5f); // "lu__"
    let mut a = [0.0f64; DIM * DIM];
    for r in 0..DIM {
        for c in 0..DIM {
            a[r * DIM + c] = rng.next_f64() * 2.0 - 1.0;
        }
        a[r * DIM + r] = 4.0 + rng.next_f64();
    }
    a.iter().map(|x| x.to_bits()).collect()
}

/// Reference in-place LU mirroring the kernel's arithmetic exactly.
pub fn reference(a_in: &[f64]) -> Vec<f64> {
    let n = DIM;
    let mut a = a_in.to_vec();
    for k in 0..n {
        for i in k + 1..n {
            let factor = a[i * n + k] / a[k * n + k];
            a[i * n + k] = factor;
            for j in k + 1..n {
                a[i * n + j] -= factor * a[k * n + j];
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn matches_reference_bit_exactly() {
        for seed in [1, 2, 3] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            let a: Vec<f64> = b.init_mem.iter().map(|&x| f64::from_bits(x)).collect();
            let want: Vec<u64> = reference(&a)
                .iter()
                .map(|&x| ((x * 1e6) as i64) as u64)
                .collect();
            assert_eq!(r.output, want, "seed {seed}");
        }
    }

    #[test]
    fn l_times_u_reconstructs_matrix() {
        let b = build(8);
        let a_in: Vec<f64> = b.init_mem.iter().map(|&x| f64::from_bits(x)).collect();
        let lu = reference(&a_in);
        let n = DIM;
        for r in 0..n {
            for c in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    let l = if k < r {
                        lu[r * n + k]
                    } else if k == r {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if k <= c { lu[k * n + c] } else { 0.0 };
                    sum += l * u;
                }
                assert!(
                    (sum - a_in[r * n + c]).abs() < 1e-9,
                    "reconstruction mismatch at ({r},{c})"
                );
            }
        }
    }
}
