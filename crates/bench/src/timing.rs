//! A minimal std-only micro-benchmark harness for the `benches/` targets
//! (`harness = false`), replacing the external Criterion dependency so the
//! workspace builds fully offline.
//!
//! Methodology: one untimed warm-up call, then batches of iterations are
//! timed until either the time budget or the iteration cap is reached;
//! mean and minimum per-iteration times are reported. This is deliberately
//! simple — the benches exist to show relative magnitudes (the paper's
//! orders-of-magnitude speedup claims), not microsecond-precision deltas.

use std::time::{Duration, Instant};

/// Per-bench measurement settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Stop after roughly this much measured time.
    pub budget: Duration,
    /// Hard cap on timed iterations.
    pub max_iters: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            budget: Duration::from_secs(2),
            max_iters: 1000,
        }
    }
}

impl Settings {
    /// Settings for expensive workloads (few, long iterations).
    pub fn heavy() -> Settings {
        Settings {
            budget: Duration::from_secs(5),
            max_iters: 10,
        }
    }
}

/// One bench result, printed as a TSV row by [`report`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Bench label.
    pub name: String,
    /// Timed iterations.
    pub iters: u64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest observed iteration, seconds.
    pub min_s: f64,
}

/// Times `f` under `settings` and returns the measurement.
pub fn bench<F: FnMut()>(name: &str, settings: Settings, mut f: F) -> Measurement {
    f(); // warm-up, untimed

    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    while iters < settings.max_iters && total < settings.budget {
        let t = Instant::now();
        f();
        let dt = t.elapsed();
        total += dt;
        min = min.min(dt);
        iters += 1;
    }
    Measurement {
        name: name.to_string(),
        iters,
        mean_s: total.as_secs_f64() / iters as f64,
        min_s: min.as_secs_f64(),
    }
}

/// Prints a TSV header followed by one row per measurement.
pub fn report(measurements: &[Measurement]) {
    println!("bench\titers\tmean_s\tmin_s");
    for m in measurements {
        println!("{}\t{}\t{:.6}\t{:.6}", m.name, m.iters, m.mean_s, m.min_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_times_the_closure() {
        let mut calls = 0u64;
        let m = bench(
            "noop",
            Settings {
                budget: Duration::from_millis(10),
                max_iters: 5,
            },
            || calls += 1,
        );
        // warm-up + timed iterations
        assert_eq!(calls, m.iters + 1);
        assert!(m.iters >= 1 && m.iters <= 5);
        assert!(m.min_s <= m.mean_s);
    }
}
