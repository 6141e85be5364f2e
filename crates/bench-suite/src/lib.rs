//! The twelve GLAIVE paper benchmarks (Table II), re-implemented for the
//! GLAIVE ISA at reduced input sizes.
//!
//! | Category | Train/Test | Validation |
//! |---|---|---|
//! | Control-sensitive | dijkstra, astar, streamcluster, jmeint, sobel | inversek2j |
//! | Data-sensitive | blackscholes, swaptions, fft, radix, ctaes | lu |
//!
//! Each benchmark module exposes `build(seed) -> Benchmark`: the compiled
//! program, its input memory image, and metadata (category, dataset split).
//! Input sizes are scaled down from the paper so that an exhaustive-ish
//! fault-injection campaign completes in seconds while preserving each
//! kernel's instruction mix and dependence structure (see DESIGN.md §1).
//!
//! # Example
//!
//! ```
//! use glaive_bench_suite::suite;
//! use glaive_sim::run;
//!
//! let benchmarks = suite(7);
//! assert_eq!(benchmarks.len(), 12);
//! let b = &benchmarks[0];
//! let r = run(b.program(), &b.init_mem, &b.exec_config());
//! assert!(r.status.is_clean(), "{} failed: {:?}", b.name, r.status);
//! ```

mod aes;
pub mod control {
    //! Control-sensitive benchmarks (path search, vision, robotics, image
    //! processing, 3-D gaming).
    pub mod astar;
    pub mod dijkstra;
    pub mod inversek2j;
    pub mod jmeint;
    pub mod sobel;
    pub mod streamcluster;
}
pub mod data {
    //! Data-sensitive benchmarks (finance, signal processing, sorting,
    //! crypto, numerical computing).
    pub mod blackscholes;
    pub mod ctaes;
    pub mod fft;
    pub mod lu;
    pub mod radix;
    pub mod swaptions;
}

pub use aes::Aes128;

use glaive_lang::CompiledProgram;
use glaive_sim::ExecConfig;

/// Scratch data-memory words added to every benchmark beyond its live
/// arrays, emulating the mapped-but-unused address space of a real process:
/// a fault that flips a low or middle address bit then lands in mapped
/// memory (usually masked) instead of trapping, as it would under virtual
/// memory. Without this, almost every address-bit flip crashes and the
/// suite's outcome mix is far more crash-heavy than the paper's (Fig. 2).
pub const MEM_PAD_WORDS: usize = 1 << 17;

/// The paper's benchmark categorisation (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Control-sensitive: outcome dominated by branches on (possibly
    /// corrupted) comparisons.
    Control,
    /// Data-sensitive: outcome dominated by arithmetic dataflow.
    Data,
}

impl Category {
    /// The paper's single-letter tag (`C` / `D`).
    pub fn tag(self) -> char {
        match self {
            Category::Control => 'C',
            Category::Data => 'D',
        }
    }
}

/// Dataset split (Table II): round-robin train/test member, or held-out
/// validation program used to demonstrate transferability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Participates in the round-robin n−1 train/test regime.
    TrainTest,
    /// Held out entirely; used only to validate transfer to unseen programs.
    Validation,
}

/// A compiled benchmark with its input image and metadata.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as in Table II (lowercase).
    pub name: &'static str,
    /// Control- or data-sensitive.
    pub category: Category,
    /// Dataset split.
    pub split: Split,
    /// The compiled program and memory layout.
    pub compiled: CompiledProgram,
    /// Initial data-memory image holding the benchmark inputs.
    pub init_mem: Vec<u64>,
}

impl Benchmark {
    /// The executable program.
    pub fn program(&self) -> &glaive_isa::Program {
        self.compiled.program()
    }

    /// An execution budget generous enough for the golden run; fault
    /// campaigns derive a tighter budget from the golden run length.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            max_instrs: 4_000_000,
        }
    }
}

/// Builds all 12 benchmarks of Table II with deterministic inputs derived
/// from `seed`.
pub fn suite(seed: u64) -> Vec<Benchmark> {
    vec![
        control::dijkstra::build(seed),
        control::astar::build(seed),
        control::streamcluster::build(seed),
        control::jmeint::build(seed),
        control::sobel::build(seed),
        control::inversek2j::build(seed),
        data::blackscholes::build(seed),
        data::swaptions::build(seed),
        data::fft::build(seed),
        data::radix::build(seed),
        data::ctaes::build(seed),
        data::lu::build(seed),
    ]
}

/// A tiny deterministic PRNG (splitmix64) used by benchmark input
/// generators; avoids seeding differences across `rand` versions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_table_ii_composition() {
        let s = suite(1);
        assert_eq!(s.len(), 12);
        let control: Vec<_> = s
            .iter()
            .filter(|b| b.category == Category::Control)
            .collect();
        let data: Vec<_> = s.iter().filter(|b| b.category == Category::Data).collect();
        assert_eq!(control.len(), 6);
        assert_eq!(data.len(), 6);
        let validation: Vec<_> = s
            .iter()
            .filter(|b| b.split == Split::Validation)
            .map(|b| b.name)
            .collect();
        assert_eq!(validation, vec!["inversek2j", "lu"]);
    }

    #[test]
    fn names_are_unique() {
        let s = suite(1);
        let mut names: Vec<_> = s.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let a = control::dijkstra::build(1);
        let b = control::dijkstra::build(2);
        assert_ne!(a.init_mem, b.init_mem);
    }

    #[test]
    fn category_tags() {
        assert_eq!(Category::Control.tag(), 'C');
        assert_eq!(Category::Data.tag(), 'D');
    }
}
