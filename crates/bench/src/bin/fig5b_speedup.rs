//! Fig. 5b — instruction-vulnerability-estimation speedup of each method
//! over the fault-injection baseline, reported as log10(speedup) like the
//! paper's log-scale plot.
//!
//! The FI baseline re-runs the full campaign (which is itself parallel,
//! matching the paper's 16-way-parallel FI baseline); each method's time is
//! its inference over the already-extracted features with pre-trained
//! models, as in the paper.
//!
//! Paper shape: all ML methods gain 2–3 orders of magnitude; GLAIVE is
//! slower than MLP-BIT (graph aggregation costs more) and up to an order
//! slower than RF/SVM, but still ≫ FI (average 221× in the paper).

use glaive::Method;

const DATA_ORDER: [&str; 6] = ["blackscholes", "fft", "swaptions", "radix", "ctaes", "lu"];
const CONTROL_ORDER: [&str; 6] = [
    "dijkstra",
    "streamcluster",
    "jmeint",
    "astar",
    "sobel",
    "inversek2j",
];

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (eval, config) = glaive_bench::standard_evaluation()?;
        println!("# Fig. 5b: speedup over fault injection (log10)");
        println!("label\tbenchmark\tFI_s\tM1_log10\tM2_log10\tM3_log10\tM4_log10");
        let mut glaive_speedups = Vec::new();
        for (order, tag) in [(DATA_ORDER, 'D'), (CONTROL_ORDER, 'C')] {
            for (i, name) in order.iter().enumerate() {
                let report = eval.runtime_report(name, &config)?;
                let sp = report.speedups();
                glaive_speedups.push(sp[0]);
                println!(
                    "{tag}{}\t{}\t{:.3}\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
                    i + 1,
                    name,
                    report.fi_seconds,
                    sp[0].log10(),
                    sp[1].log10(),
                    sp[2].log10(),
                    sp[3].log10()
                );
            }
        }
        let geo =
            glaive_speedups.iter().map(|s| s.ln()).sum::<f64>() / glaive_speedups.len() as f64;
        println!(
            "# GLAIVE geometric-mean speedup over FI: {:.0}x (paper: average 221x); methods: {}",
            geo.exp(),
            Method::ALL.map(|m| m.name()).join(", ")
        );

        Ok(())
    })
}
