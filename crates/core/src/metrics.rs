//! Evaluation metrics of the paper (§II-B): bit-classification accuracy,
//! instruction ranking, top-K vulnerable sets and coverage, program
//! vulnerability and its error.

use glaive_faultsim::VulnTuple;

use crate::data::BenchData;

/// Bit-node classification accuracy over the FI-labelled nodes (Table III).
///
/// # Panics
///
/// Panics if `bit_preds` does not cover every CDFG node.
pub fn bit_accuracy(bit_preds: &[usize], data: &BenchData) -> f64 {
    assert_eq!(
        bit_preds.len(),
        data.labels.len(),
        "one prediction per node"
    );
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, &m) in data.mask.iter().enumerate() {
        if m {
            total += 1;
            if bit_preds[i] == data.labels[i] {
                correct += 1;
            }
        }
    }
    if total == 0 {
        return 0.0;
    }
    correct as f64 / total as f64
}

/// The instruction ranking R induced by estimated tuples over the
/// FI-covered instructions: descending severity-weighted failure
/// probability (`2·crash + sdc`, encoding Crash → SDC → Masked), ties
/// broken by PC for determinism. Instructions the estimator could not
/// score rank last.
pub fn ranking(tuples: &[Option<VulnTuple>], data: &BenchData) -> Vec<usize> {
    let mut pcs = data.covered_pcs();
    pcs.sort_by(|&a, &b| {
        let ka = tuples[a].map_or(-1.0, |t| t.ranking_key());
        let kb = tuples[b].map_or(-1.0, |t| t.ranking_key());
        kb.total_cmp(&ka).then(a.cmp(&b))
    });
    pcs
}

/// Size of the top-K protection set: `min(⌈N·K%⌉, N_v)` where `N` counts
/// FI-covered instructions and `N_v` the FI-vulnerable ones (paper §II-B).
pub fn top_k_size(data: &BenchData, k_percent: f64) -> usize {
    let n = data.covered_pcs().len();
    let n_v = data
        .covered_pcs()
        .iter()
        .filter(|&&pc| data.fi_tuples[pc].expect("covered").failure() > 0.0)
        .count();
    let budget = ((n as f64) * k_percent / 100.0).ceil() as usize;
    budget.min(n_v)
}

/// Top-K coverage `|S* ∩ S_K| / |S_K|` (paper §II-B): the fraction of the
/// FI-ideal top-K vulnerable set that the estimated ranking also selects.
/// Returns 1.0 when the protection set is empty (nothing to protect).
pub fn top_k_coverage(tuples: &[Option<VulnTuple>], data: &BenchData, k_percent: f64) -> f64 {
    let size = top_k_size(data, k_percent);
    if size == 0 {
        return 1.0;
    }
    let ideal = ranking(&data.fi_tuples, data);
    let estimated = ranking(tuples, data);
    let s_star: std::collections::HashSet<usize> = ideal[..size].iter().copied().collect();
    let hits = estimated[..size]
        .iter()
        .filter(|pc| s_star.contains(pc))
        .count();
    hits as f64 / size as f64
}

/// Program vulnerability P_v: the injection-weighted sum of instruction
/// tuples (paper §II-B). Instructions the estimator could not score count
/// as fully masked.
pub fn program_vulnerability(tuples: &[Option<VulnTuple>], data: &BenchData) -> VulnTuple {
    let total: u64 = data.fi_weights.iter().sum();
    assert!(total > 0, "no injections recorded");
    let mut crash = 0.0;
    let mut sdc = 0.0;
    let mut masked = 0.0;
    for pc in data.covered_pcs() {
        let w = data.fi_weights[pc] as f64 / total as f64;
        let t = tuples[pc].unwrap_or(VulnTuple::MASKED);
        crash += w * t.crash;
        sdc += w * t.sdc;
        masked += w * t.masked;
    }
    VulnTuple { crash, sdc, masked }
}

/// Program vulnerability error: `Σ_class |estimated − FI|` (paper §II-B).
pub fn program_vulnerability_error(tuples: &[Option<VulnTuple>], data: &BenchData) -> f64 {
    let est = program_vulnerability(tuples, data);
    let fi = data
        .truth
        .try_program_vulnerability()
        .expect("prepared benchmarks have at least one record");
    est.abs_error(&fi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::prepare_benchmark;
    use crate::PipelineConfig;
    use glaive_bench_suite::control::dijkstra;

    fn data() -> BenchData {
        prepare_benchmark(dijkstra::build(2), &PipelineConfig::quick_test())
    }

    #[test]
    fn fi_oracle_has_perfect_metrics() {
        let d = data();
        // Predicting the FI labels themselves gives accuracy 1.
        assert_eq!(bit_accuracy(&d.labels, &d), 1.0);
        // FI tuples rank identically to themselves: full coverage at any K.
        for k in [5.0, 25.0, 50.0, 100.0] {
            assert_eq!(top_k_coverage(&d.fi_tuples, &d, k), 1.0);
        }
        // Zero program vulnerability error against itself.
        assert!(program_vulnerability_error(&d.fi_tuples, &d) < 1e-12);
    }

    #[test]
    fn all_masked_estimate_has_nonzero_error() {
        let d = data();
        let masked: Vec<Option<VulnTuple>> = vec![Some(VulnTuple::MASKED); d.bench.program().len()];
        let err = program_vulnerability_error(&masked, &d);
        // Dijkstra certainly has some failing faults.
        assert!(err > 0.01, "error {err}");
        let pv = program_vulnerability(&masked, &d);
        assert!((pv.masked - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_bounds_and_monotone_set_size() {
        let d = data();
        let masked: Vec<Option<VulnTuple>> = vec![Some(VulnTuple::MASKED); d.bench.program().len()];
        for k in [5.0, 20.0, 60.0, 100.0] {
            let c = top_k_coverage(&masked, &d, k);
            assert!((0.0..=1.0).contains(&c));
        }
        assert!(top_k_size(&d, 10.0) <= top_k_size(&d, 50.0));
        assert!(top_k_size(&d, 100.0) <= d.covered_pcs().len());
    }

    #[test]
    fn at_full_budget_coverage_is_total_when_sets_saturate() {
        let d = data();
        // At K = 100%, |S_K| = N_v and both rankings' prefixes contain all
        // vulnerable instructions iff the estimator ranks all vulnerable
        // ones above non-vulnerable ones; the FI oracle trivially does.
        assert_eq!(top_k_coverage(&d.fi_tuples, &d, 100.0), 1.0);
    }

    #[test]
    fn ranking_is_deterministic_and_severity_ordered() {
        let d = data();
        let r1 = ranking(&d.fi_tuples, &d);
        let r2 = ranking(&d.fi_tuples, &d);
        assert_eq!(r1, r2);
        for w in r1.windows(2) {
            let ka = d.fi_tuples[w[0]].expect("covered").ranking_key();
            let kb = d.fi_tuples[w[1]].expect("covered").ranking_key();
            assert!(ka >= kb, "ranking not descending");
        }
    }

    #[test]
    fn program_vulnerability_components_sum_to_one() {
        let d = data();
        let pv = program_vulnerability(&d.fi_tuples, &d);
        assert!((pv.crash + pv.sdc + pv.masked - 1.0).abs() < 1e-9);
    }
}
