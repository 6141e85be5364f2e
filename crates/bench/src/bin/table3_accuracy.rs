//! Table III — GLAIVE vs MLP-BIT bit-classification accuracy; see
//! [`glaive_bench::paper::table3`].

fn main() -> std::process::ExitCode {
    glaive_bench::run_experiment(|| {
        let (eval, _) = glaive_bench::standard_evaluation()?;
        glaive_bench::paper::table3(&eval);
        Ok(())
    })
}
