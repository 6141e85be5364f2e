//! Fig. 5b — estimation speedup over fault injection; see
//! [`glaive_bench::paper::fig5b`].

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (eval, config) = glaive_bench::standard_evaluation()?;
        glaive_bench::paper::fig5b(&eval, &config)
    })
}
