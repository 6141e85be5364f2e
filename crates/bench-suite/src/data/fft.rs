//! Iterative radix-2 FFT (Table II: "Signal processing", data-sensitive).
//!
//! In-place decimation-in-time FFT on 8 complex points with an in-program
//! bit-reversal permutation and twiddle factors supplied in the input image
//! (as a real table would be). Butterfly stages are pure float dataflow.

use glaive_lang::{dsl::*, ModuleBuilder};

use crate::{Benchmark, Category, Split, SplitMix64};

/// Transform size (power of two).
pub const N: usize = 8;
const LOG2N: usize = 3;

/// Builds the benchmark with a random complex input signal derived from
/// `seed`.
pub fn build(seed: u64) -> Benchmark {
    let n = N as i64;
    let mut m = ModuleBuilder::new("fft");
    let re = m.array("re", N);
    let im = m.array("im", N);
    let wre = m.array("wre", N / 2);
    let wim = m.array("wim", N / 2);
    let (i, j, k, s, m2, half, widx, tr, ti, ur, ui, wr, wi, tmp, bi) = (
        m.var("i"),
        m.var("j"),
        m.var("k"),
        m.var("s"),
        m.var("m2"),
        m.var("half"),
        m.var("widx"),
        m.var("tr"),
        m.var("ti"),
        m.var("ur"),
        m.var("ui"),
        m.var("wr"),
        m.var("wi"),
        m.var("tmp"),
        m.var("bi"),
    );

    // Bit-reversal permutation (3-bit reversal computed with shifts/masks).
    m.push(for_(
        i,
        int(0),
        int(n),
        vec![
            assign(
                j,
                or(
                    or(shl(and(v(i), int(1)), int(2)), and(v(i), int(2))),
                    shr(and(v(i), int(4)), int(2)),
                ),
            ),
            if_(
                lt(v(i), v(j)),
                vec![
                    assign(tmp, ld(re, v(i))),
                    store(re, v(i), ld(re, v(j))),
                    store(re, v(j), v(tmp)),
                    assign(tmp, ld(im, v(i))),
                    store(im, v(i), ld(im, v(j))),
                    store(im, v(j), v(tmp)),
                ],
            ),
        ],
    ));

    // Butterfly stages.
    m.push(for_(
        s,
        int(1),
        int(LOG2N as i64 + 1),
        vec![
            assign(m2, shl(int(1), v(s))),
            assign(half, shr(v(m2), int(1))),
            assign(k, int(0)),
            while_(
                lt(v(k), int(n)),
                vec![
                    for_(
                        j,
                        int(0),
                        v(half),
                        vec![
                            // Twiddle index: j * (n / m2).
                            assign(widx, mul(v(j), div(int(n), v(m2)))),
                            assign(wr, ld(wre, v(widx))),
                            assign(wi, ld(wim, v(widx))),
                            assign(bi, add(add(v(k), v(j)), v(half))),
                            // t = w * a[bi]
                            assign(
                                tr,
                                fsub(fmul(v(wr), ld(re, v(bi))), fmul(v(wi), ld(im, v(bi)))),
                            ),
                            assign(
                                ti,
                                fadd(fmul(v(wr), ld(im, v(bi))), fmul(v(wi), ld(re, v(bi)))),
                            ),
                            assign(ur, ld(re, add(v(k), v(j)))),
                            assign(ui, ld(im, add(v(k), v(j)))),
                            store(re, add(v(k), v(j)), fadd(v(ur), v(tr))),
                            store(im, add(v(k), v(j)), fadd(v(ui), v(ti))),
                            store(re, v(bi), fsub(v(ur), v(tr))),
                            store(im, v(bi), fsub(v(ui), v(ti))),
                        ],
                    ),
                    assign(k, add(v(k), v(m2))),
                ],
            ),
        ],
    ));

    // Spectra are emitted in fixed-point micro-units, like the original's
    // limited-precision output: faults in low mantissa bits mask.
    m.push(for_(
        i,
        int(0),
        int(n),
        vec![
            out(f2i(fmul(ld(re, v(i)), flt(1e6)))),
            out(f2i(fmul(ld(im, v(i)), flt(1e6)))),
        ],
    ));

    m.reserve_mem(crate::MEM_PAD_WORDS);
    let compiled = m.compile().expect("fft compiles");
    let init_mem = gen_input(seed);
    Benchmark {
        name: "fft",
        category: Category::Data,
        split: Split::TrainTest,
        compiled,
        init_mem,
    }
}

/// Twiddle factors `w[k] = exp(-2πi·k/N)` for `k < N/2`.
pub fn twiddles() -> (Vec<f64>, Vec<f64>) {
    let mut wre = Vec::with_capacity(N / 2);
    let mut wim = Vec::with_capacity(N / 2);
    for k in 0..N / 2 {
        let ang = -2.0 * std::f64::consts::PI * k as f64 / N as f64;
        wre.push(ang.cos());
        wim.push(ang.sin());
    }
    (wre, wim)
}

/// Generates the memory image: `re` (base 0), `im` (base N), twiddle tables.
pub fn gen_input(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x66667421); // "fft!"
    let mut mem = Vec::with_capacity(3 * N);
    for _ in 0..N {
        mem.push((rng.next_f64() * 2.0 - 1.0).to_bits());
    }
    for _ in 0..N {
        mem.push((rng.next_f64() * 2.0 - 1.0).to_bits());
    }
    let (wre, wim) = twiddles();
    mem.extend(wre.iter().map(|x| x.to_bits()));
    mem.extend(wim.iter().map(|x| x.to_bits()));
    mem
}

/// Reference FFT mirroring the kernel's arithmetic exactly
/// (bit-reproducible given the same twiddle bits).
pub fn reference(re_in: &[f64], im_in: &[f64], wre: &[f64], wim: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = N;
    let mut re = re_in.to_vec();
    let mut im = im_in.to_vec();
    for i in 0..n {
        let j = ((i & 1) << 2) | (i & 2) | ((i & 4) >> 2);
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    for s in 1..=LOG2N {
        let m2 = 1usize << s;
        let half = m2 >> 1;
        let mut k = 0;
        while k < n {
            for j in 0..half {
                let widx = j * (n / m2);
                let (wr, wi) = (wre[widx], wim[widx]);
                let bi = k + j + half;
                let tr = wr * re[bi] - wi * im[bi];
                let ti = wr * im[bi] + wi * re[bi];
                let (ur, ui) = (re[k + j], im[k + j]);
                re[k + j] = ur + tr;
                im[k + j] = ui + ti;
                re[bi] = ur - tr;
                im[bi] = ui - ti;
            }
            k += m2;
        }
    }
    (re, im)
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
            let f = |i: usize| f64::from_bits(b.init_mem[i]);
            let re: Vec<f64> = (0..N).map(f).collect();
            let im: Vec<f64> = (N..2 * N).map(f).collect();
            let wre: Vec<f64> = (2 * N..2 * N + N / 2).map(f).collect();
            let wim: Vec<f64> = (2 * N + N / 2..3 * N).map(f).collect();
            let (rre, rim) = reference(&re, &im, &wre, &wim);
            let mut want = Vec::new();
            for i in 0..N {
                want.push(((rre[i] * 1e6) as i64) as u64);
                want.push(((rim[i] * 1e6) as i64) as u64);
            }
            assert_eq!(r.output, want, "seed {seed}");
        }
    }

    #[test]
    fn dc_component_is_signal_sum() {
        let b = build(4);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let re: Vec<f64> = (0..N).map(|i| f64::from_bits(b.init_mem[i])).collect();
        let dc = (r.output[0] as i64) as f64 / 1e6;
        let sum: f64 = re.iter().sum();
        assert!((dc - sum).abs() < 1e-5, "DC {dc} vs sum {sum}");
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let b = build(6);
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        let f = |i: usize| f64::from_bits(b.init_mem[i]);
        let time_energy: f64 = (0..N).map(|i| f(i) * f(i) + f(N + i) * f(N + i)).sum();
        let freq_energy: f64 = (0..N)
            .map(|i| {
                let re = (r.output[2 * i] as i64) as f64 / 1e6;
                let im = (r.output[2 * i + 1] as i64) as f64 / 1e6;
                re * re + im * im
            })
            .sum::<f64>()
            / N as f64;
        assert!(
            (time_energy - freq_energy).abs() < 1e-3,
            "Parseval: {time_energy} vs {freq_energy}"
        );
    }
}
