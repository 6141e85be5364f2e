//! One printer per paper artefact (§V). Each function prints its table or
//! figure as TSV to stdout; the single-artefact binaries and
//! `paper_results` both call these, so every artefact has exactly one
//! layout.

use glaive::experiments::{paper_budgets, CoverageCurve, Evaluation};
use glaive::{BenchData, Error, Method, PipelineConfig};
use glaive_bench_suite::{Category, Split};

/// The paper's Fig. 5 row order: labels D1..D6, then C1..C6.
const DATA_ORDER: [&str; 6] = ["blackscholes", "fft", "swaptions", "radix", "ctaes", "lu"];
const CONTROL_ORDER: [&str; 6] = [
    "dijkstra",
    "streamcluster",
    "jmeint",
    "astar",
    "sobel",
    "inversek2j",
];

fn split_tag(split: Split) -> &'static str {
    match split {
        Split::TrainTest => "TT",
        Split::Validation => "V",
    }
}

/// Table II — experimental benchmarks with dataset split: bit-level (BL)
/// and instruction-level (IL) datapoint counts per benchmark, with category
/// and train-test/validation membership.
///
/// Absolute counts are smaller than the paper's (inputs are scaled down and
/// bit positions subsampled; see DESIGN.md §1) — the composition (6 control
/// + 6 data, one validation program per category) matches Table II exactly.
pub fn table2(suite: &[BenchData], config: &PipelineConfig) {
    println!(
        "# Table II: datasets (bit stride {}, {} instances/site)",
        config.bit_stride, config.instances_per_site
    );
    println!("benchmark\tcategory\tsplit\tBL\tIL\tstatic_instrs\tdyn_instrs");
    for d in suite {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            d.bench.name,
            d.bench.category.tag(),
            split_tag(d.bench.split),
            d.bit_datapoints(),
            d.instr_datapoints(),
            d.bench.program().len(),
            d.truth.golden().dyn_instrs,
        );
    }
    let bl: usize = suite.iter().map(|d| d.bit_datapoints()).sum();
    let il: usize = suite.iter().map(|d| d.instr_datapoints()).sum();
    println!("# totals: BL={bl} IL={il}");
}

/// Fig. 2 — vulnerability distributions of the benchmarks: fraction of
/// instructions whose sampled bits are all-Masked / all-SDC / all-Crash
/// versus *mixed*, per benchmark.
///
/// Paper shape: a substantial fraction of instructions (up to 87.8%, on
/// average 51.88% in the paper) has mixed bit-level outcomes, motivating
/// bit-level features.
pub fn fig2(suite: &[BenchData], config: &PipelineConfig) {
    println!(
        "# Fig. 2: vulnerability distributions (bit stride {})",
        config.bit_stride
    );
    println!("benchmark\tcategory\tinstructions\tpure_masked\tpure_sdc\tpure_crash\tmixed");
    let mut mixed_sum = 0.0;
    let mut mixed_max: (f64, &str) = (0.0, "");
    for d in suite {
        let v = glaive::stats::vulnerability_distribution(d);
        println!(
            "{}\t{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
            d.bench.name,
            d.bench.category.tag(),
            v.instructions,
            v.pure_masked,
            v.pure_sdc,
            v.pure_crash,
            v.mixed
        );
        mixed_sum += v.mixed;
        if v.mixed > mixed_max.0 {
            mixed_max = (v.mixed, d.bench.name);
        }
    }
    println!(
        "# average mixed fraction: {:.4} (paper: 0.5188); max: {:.4} on {} (paper: 0.878)",
        mixed_sum / suite.len() as f64,
        mixed_max.0,
        mixed_max.1
    );
}

/// Table III — bit-node classification accuracy of GLAIVE vs MLP-BIT per
/// benchmark, under the round-robin n−1 regime with the two held-out
/// validation programs (inversek2j, lu).
///
/// Paper shape: GLAIVE ≥ MLP-BIT on data-sensitive benchmarks (clear
/// margins on Radix and Ctaes), comparable on control-sensitive ones, and
/// high accuracy on the *unseen* validation programs demonstrating
/// transferability.
pub fn table3(eval: &Evaluation) {
    println!("# Table III: GLAIVE vs MLP-BIT bit-classification accuracy");
    println!("benchmark\tcategory\tsplit\tGLAIVE\tMLP-BIT");
    let rows = eval.accuracy_rows();
    for r in &rows {
        println!(
            "{}\t{}\t{}\t{:.3}\t{:.3}",
            r.benchmark,
            r.category.tag(),
            split_tag(r.split),
            r.glaive,
            r.mlp_bit
        );
    }
    for cat in [Category::Data, Category::Control] {
        let sel: Vec<_> = rows.iter().filter(|r| r.category == cat).collect();
        let g: f64 = sel.iter().map(|r| r.glaive).sum::<f64>() / sel.len() as f64;
        let m: f64 = sel.iter().map(|r| r.mlp_bit).sum::<f64>() / sel.len() as f64;
        println!(
            "# {cat:?} average: GLAIVE={g:.3} MLP-BIT={m:.3} (GLAIVE {:+.2}% vs MLP)",
            (g - m) / m * 100.0
        );
    }
}

/// One Fig. 4 panel: per budget, each method's coverage averaged over the
/// selected curves.
fn print_series(title: &str, curves: &[&CoverageCurve], ks: &[f64]) {
    println!("## {title}");
    print!("K%");
    for m in Method::ALL {
        print!("\t{}", m.name());
    }
    println!();
    for (i, &k) in ks.iter().enumerate() {
        print!("{k}");
        for m in Method::ALL {
            let sel: Vec<f64> = curves
                .iter()
                .filter(|c| c.method == m)
                .map(|c| c.points[i].1)
                .collect();
            let avg = sel.iter().sum::<f64>() / sel.len() as f64;
            print!("\t{avg:.3}");
        }
        println!();
    }
}

/// Fig. 4 — top-K coverage for varying protection budget K (5%..100% in
/// steps of 5) for all four methods:
///
/// * (a) Radix (data-sensitive),
/// * (b) Swaptions (data-sensitive),
/// * (c) average over the control-sensitive benchmarks,
///
/// plus each method's mean coverage over all budgets and benchmarks.
///
/// Paper shape: bit-level methods (GLAIVE, MLP-BIT) dominate
/// instruction-level regressors below K ≈ 70%; GLAIVE averages ~90% top-K
/// coverage in the paper's testbed.
pub fn fig4(eval: &Evaluation) {
    let ks = paper_budgets();
    let curves = eval.coverage_curves(&ks);

    println!("# Fig. 4: top-K coverage vs protection budget");
    let radix: Vec<&CoverageCurve> = curves.iter().filter(|c| c.benchmark == "radix").collect();
    print_series("(a) Radix", &radix, &ks);
    let swaptions: Vec<&CoverageCurve> = curves
        .iter()
        .filter(|c| c.benchmark == "swaptions")
        .collect();
    print_series("(b) Swaptions", &swaptions, &ks);
    let control: Vec<&CoverageCurve> = curves
        .iter()
        .filter(|c| c.category == Category::Control)
        .collect();
    print_series("(c) Control-sensitive average", &control, &ks);

    println!("## Mean coverage over all budgets and benchmarks");
    for m in Method::ALL {
        let sel: Vec<f64> = curves
            .iter()
            .filter(|c| c.method == m)
            .map(CoverageCurve::mean_coverage)
            .collect();
        println!(
            "{}\t{:.4}",
            m.name(),
            sel.iter().sum::<f64>() / sel.len() as f64
        );
    }
    println!("# paper: GLAIVE averages 90.23% coverage, up to 21.3%/23.18% above RF/SVM");
}

/// Fig. 5a — program vulnerability error (Σ per-class |estimate − FI|) per
/// benchmark × method, with the paper's D1..D6 / C1..C6 labelling.
///
/// Paper shape: on data-sensitive benchmarks GLAIVE averages 26.24%,
/// 33.09% and 16.78% lower error than RF-INST, SVM-INST and MLP-BIT; on
/// control-sensitive benchmarks the methods are close (GLAIVE within ~1%
/// of MLP-BIT).
pub fn fig5a(eval: &Evaluation) {
    let rows = eval.pv_error_rows();
    println!("# Fig. 5a: program vulnerability error (lower is better)");
    println!("label\tbenchmark\tM1:GLAIVE\tM2:MLP-BIT\tM3:SVM-INST\tM4:RF-INST");
    for (cat, order, tag) in [
        (Category::Data, DATA_ORDER, 'D'),
        (Category::Control, CONTROL_ORDER, 'C'),
    ] {
        let mut sums = [0.0f64; 4];
        for (i, name) in order.iter().enumerate() {
            let r = rows
                .iter()
                .find(|r| r.benchmark == *name)
                .unwrap_or_else(|| panic!("missing row for {name}"));
            println!(
                "{tag}{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
                i + 1,
                r.benchmark,
                r.errors[0],
                r.errors[1],
                r.errors[2],
                r.errors[3]
            );
            for (s, e) in sums.iter_mut().zip(r.errors) {
                *s += e;
            }
        }
        let avg = sums.map(|s| s / order.len() as f64);
        println!(
            "# {cat:?} averages: M1={:.3} M2={:.3} M3={:.3} M4={:.3}",
            avg[0], avg[1], avg[2], avg[3]
        );
        for (k, m) in Method::ALL.iter().enumerate().skip(1) {
            println!(
                "#   GLAIVE vs {}: {:+.1}% error",
                m.name(),
                (avg[0] - avg[k]) / avg[k] * 100.0
            );
        }
    }
}

/// Fig. 5b — instruction-vulnerability-estimation speedup of each method
/// over the fault-injection baseline, reported as log10(speedup) like the
/// paper's log-scale plot.
///
/// The FI baseline re-runs the full campaign (which is itself parallel,
/// matching the paper's 16-way-parallel FI baseline); each method's time is
/// its inference over the already-extracted features with pre-trained
/// models, as in the paper. The times are wall-clock, so only this
/// artefact differs between runs.
///
/// Paper shape: all ML methods gain 2–3 orders of magnitude; GLAIVE is
/// slower than MLP-BIT (graph aggregation costs more) and up to an order
/// slower than RF/SVM, but still ≫ FI (average 221× in the paper).
///
/// # Errors
///
/// [`Error`] if a benchmark of the Fig. 5 order is missing from `eval`.
pub fn fig5b(eval: &Evaluation, config: &PipelineConfig) -> Result<(), Error> {
    println!("# Fig. 5b: speedup over fault injection (log10)");
    println!("label\tbenchmark\tFI_s\tM1_log10\tM2_log10\tM3_log10\tM4_log10");
    let mut glaive_speedups = Vec::new();
    for (order, tag) in [(DATA_ORDER, 'D'), (CONTROL_ORDER, 'C')] {
        for (i, name) in order.iter().enumerate() {
            let report = eval.runtime_report(name, config)?;
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
    let geo = glaive_speedups.iter().map(|s| s.ln()).sum::<f64>() / glaive_speedups.len() as f64;
    println!(
        "# GLAIVE geometric-mean speedup over FI: {:.0}x (paper: average 221x); methods: {}",
        geo.exp(),
        Method::ALL.map(|m| m.name()).join(", ")
    );
    Ok(())
}
