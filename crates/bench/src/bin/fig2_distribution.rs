//! Fig. 2 — vulnerability distributions per benchmark; see
//! [`glaive_bench::paper::fig2`].

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (suite, config) = glaive_bench::standard_suite()?;
        glaive_bench::paper::fig2(&suite, &config);
        Ok(())
    })
}
