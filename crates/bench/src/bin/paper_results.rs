//! All six paper artefacts from one trained evaluation: Table II, Fig. 2,
//! Table III, Fig. 4, Fig. 5a and Fig. 5b, in that order, exactly as the
//! single-artefact binaries print them (the round-robin model sets are
//! trained once instead of once per binary).
//!
//! Run with: `cargo run -p glaive-bench --bin paper_results --release`

use glaive_bench::paper;

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (eval, config) = glaive_bench::standard_evaluation()?;
        paper::table2(eval.suite(), &config);
        paper::fig2(eval.suite(), &config);
        paper::table3(&eval);
        paper::fig4(&eval);
        paper::fig5a(&eval);
        paper::fig5b(&eval, &config)
    })
}
