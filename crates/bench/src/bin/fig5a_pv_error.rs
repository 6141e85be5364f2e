//! Fig. 5a — program vulnerability error per benchmark and method; see
//! [`glaive_bench::paper::fig5a`].

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (eval, _) = glaive_bench::standard_evaluation()?;
        glaive_bench::paper::fig5a(&eval);
        Ok(())
    })
}
