//! LSD radix sort (Table II: "Sorting", data-sensitive).
//!
//! Four 4-bit counting-sort passes over 16-bit keys: histogram, exclusive
//! prefix sum, stable scatter into an auxiliary array, copy back. Almost
//! every instruction is address arithmetic or a memory move — corrupted
//! data flows straight to the output.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Number of keys sorted.
pub const KEYS: usize = 16;
/// Radix bits per pass.
pub const DIGIT_BITS: usize = 4;
/// Number of buckets per pass.
pub const BUCKETS: usize = 1 << DIGIT_BITS;
/// Key width in bits (number of passes × digit bits).
pub const KEY_BITS: usize = 16;

/// Builds the benchmark with random keys derived from `seed`.
pub fn build(seed: u64) -> Benchmark {
    let n = KEYS as i64;
    let mut m = ModuleBuilder::new("radix");
    let keys = m.array("keys", KEYS);
    let aux = m.array("aux", KEYS);
    let count = m.array("count", BUCKETS);
    let (i, pass, d, acc, t, pos) = (
        m.var("i"),
        m.var("pass"),
        m.var("d"),
        m.var("acc"),
        m.var("t"),
        m.var("pos"),
    );

    let digit_of = |key_expr| {
        and(
            shr(key_expr, mul(v(pass), int(DIGIT_BITS as i64))),
            int(BUCKETS as i64 - 1),
        )
    };

    m.push(for_(
        pass,
        int(0),
        int((KEY_BITS / DIGIT_BITS) as i64),
        vec![
            // Histogram.
            for_(
                i,
                int(0),
                int(BUCKETS as i64),
                vec![store(count, v(i), int(0))],
            ),
            for_(
                i,
                int(0),
                int(n),
                vec![
                    assign(d, digit_of(ld(keys, v(i)))),
                    store(count, v(d), add(ld(count, v(d)), int(1))),
                ],
            ),
            // Exclusive prefix sum.
            assign(acc, int(0)),
            for_(
                i,
                int(0),
                int(BUCKETS as i64),
                vec![
                    assign(t, ld(count, v(i))),
                    store(count, v(i), v(acc)),
                    assign(acc, add(v(acc), v(t))),
                ],
            ),
            // Stable scatter.
            for_(
                i,
                int(0),
                int(n),
                vec![
                    assign(d, digit_of(ld(keys, v(i)))),
                    assign(pos, ld(count, v(d))),
                    store(aux, v(pos), ld(keys, v(i))),
                    store(count, v(d), add(v(pos), int(1))),
                ],
            ),
            // Copy back.
            for_(i, int(0), int(n), vec![store(keys, v(i), ld(aux, v(i)))]),
        ],
    ));

    m.push(for_(i, int(0), int(n), vec![out(ld(keys, v(i)))]));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("radix compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "radix",
        category: Category::Data,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Generates random 16-bit keys (array `keys` at base 0).
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x72616469); // "radi"
    (0..KEYS).map(|_| rng.next_below(1 << KEY_BITS)).collect()
}

/// Reference sorted keys.
pub fn reference(keys: &[u64]) -> Vec<u64> {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::run;

    #[test]
    fn sorts_correctly() {
        for seed in [1, 2, 3, 4, 100] {
            let b = build(seed);
            let r = run(b.program(), &b.init_mem, &b.exec_config());
            assert!(r.status.is_clean(), "seed {seed}: {:?}", r.status);
            assert_eq!(r.output, reference(&b.init_mem), "seed {seed}");
        }
    }

    #[test]
    fn output_is_permutation_of_input() {
        let b = build(7);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let mut input = b.init_mem.clone();
        let mut output = r.output.clone();
        input.sort_unstable();
        output.sort_unstable();
        assert_eq!(input, output);
    }

    #[test]
    fn already_sorted_input_is_stable() {
        let sorted: Vec<u64> = (0..KEYS as u64).map(|i| i * 3).collect();
        let b = build(1);
        let r = run(b.program(), &sorted, &b.exec_config());
        assert_eq!(r.output, sorted);
    }
}
