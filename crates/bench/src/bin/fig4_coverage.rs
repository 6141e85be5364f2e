//! Fig. 4 — top-K coverage vs protection budget; see
//! [`glaive_bench::paper::fig4`].

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (eval, _) = glaive_bench::standard_evaluation()?;
        glaive_bench::paper::fig4(&eval);
        Ok(())
    })
}
