//! Ledger arithmetic: percentiles that refuse to extrapolate, and the
//! parent = children + residual identity every ledger row obeys.

/// A percentile estimate needs at least this many samples beyond it;
/// with fewer, the "tail" is a handful of outliers and is refused.
pub const MIN_BEYOND: usize = 10;

/// Share of its parent above which a residual is flagged as
/// unattributed instead of being absorbed into the children.
pub const RESIDUAL_FLAG_SHARE: f64 = 0.15;

/// The nearest-rank `pct`-th percentile of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it — so p99
/// needs 1000 samples, p95 needs 200 and the median needs 20.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    assert!((1..100).contains(&pct), "percentile {pct} out of 1..100");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let n = sorted.len();
    // 1-based nearest rank, in integers so p99 of 1000 is exactly 990.
    let rank = (pct as usize * n).div_ceil(100);
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of `candidates` (descending) that `sorted` supports, with
/// its value.
pub fn highest_percentile(sorted: &[f64], candidates: &[u32]) -> Option<(u32, f64)> {
    candidates
        .iter()
        .find_map(|&p| percentile(sorted, p).map(|v| (p, v)))
}

/// The value a share `q` of the way through the sorted samples, linearly
/// interpolated between neighbours (so any sample count works; this is a
/// summary of the bulk, not a tail estimate).
fn interpolated(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&next) => v[lo] + frac * (next - v[lo]),
        None => v[lo],
    }
}

/// The middle of the samples (mean of the two middle ones for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    interpolated(values, 0.5)
}

/// The first decile (tenth percentile) of the samples: the summary every
/// end-to-end timing reports. Other tenants of a shared host slow a
/// drifting share of the work by up to half: over two minutes of fixed
/// work on a 2-CPU host, the median of 20-second windows moved by 30%
/// while their first decile moved by 3%. A change to the code moves every
/// repetition, so the first decile shows it as well. The median and the
/// tails are reported beside it.
pub fn first_decile(values: &[f64]) -> f64 {
    interpolated(values, 0.1)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether `children` sum to `parent` within `tolerance` (a share of the
/// parent).
pub fn sums_within(parent: f64, children: &[f64], tolerance: f64) -> bool {
    let sum: f64 = children.iter().sum();
    (parent - sum).abs() <= tolerance * parent.abs()
}

/// One ledger identity: a measured parent, the children measured from
/// outside, and the named residual that makes the row add up exactly.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub parent: (String, f64),
    pub children: Vec<(String, f64)>,
    pub residual_name: String,
    pub unit: &'static str,
}

impl LedgerRow {
    pub fn new(parent: &str, value: f64, unit: &'static str, residual_name: &str) -> LedgerRow {
        LedgerRow {
            parent: (parent.to_string(), value),
            children: Vec::new(),
            residual_name: residual_name.to_string(),
            unit,
        }
    }

    pub fn child(mut self, name: &str, value: f64) -> LedgerRow {
        self.children.push((name.to_string(), value));
        self
    }

    /// Parent minus the children: what the named layers do not explain.
    pub fn residual(&self) -> f64 {
        self.parent.1 - self.children.iter().map(|c| c.1).sum::<f64>()
    }

    pub fn residual_share(&self) -> f64 {
        if self.parent.1 == 0.0 {
            0.0
        } else {
            self.residual() / self.parent.1
        }
    }

    /// A residual above [`RESIDUAL_FLAG_SHARE`] of the parent is reported
    /// as unattributed time, never folded into a child.
    pub fn flagged(&self) -> bool {
        self.residual_share().abs() > RESIDUAL_FLAG_SHARE
    }

    /// Children plus the residual reproduce the parent (a guard against
    /// arithmetic slips when rows are assembled).
    pub fn balances(&self) -> bool {
        let mut parts: Vec<f64> = self.children.iter().map(|c| c.1).collect();
        parts.push(self.residual());
        sums_within(self.parent.1, &parts, 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(5000), 99), Some(4950.0));
    }

    #[test]
    fn every_percentile_keeps_ten_samples_beyond() {
        for pct in [50, 90, 95, 99] {
            let edge = 100 * MIN_BEYOND / (100 - pct as usize);
            assert!(percentile(&ramp(edge), pct).is_some(), "p{pct} at {edge}");
            assert!(
                percentile(&ramp(edge - 1), pct).is_none(),
                "p{pct} below {edge}"
            );
        }
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn highest_supported_percentile_is_chosen() {
        assert_eq!(
            highest_percentile(&ramp(300), &[99, 95, 50]),
            Some((95, 285.0))
        );
        assert_eq!(highest_percentile(&ramp(5), &[99, 95, 50]), None);
    }

    #[test]
    fn median_and_decile_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let ramp: Vec<f64> = (0..=20).rev().map(f64::from).collect();
        assert_eq!(first_decile(&ramp), 2.0);
        assert!((first_decile(&[4.0, 1.0, 2.0, 3.0]) - 1.3).abs() < 1e-12);
        assert_eq!(first_decile(&[7.0]), 7.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn children_must_sum_to_parent_within_tolerance() {
        assert!(sums_within(10.0, &[4.0, 5.0], 0.15));
        assert!(!sums_within(10.0, &[4.0, 4.0], 0.15));
        assert!(sums_within(10.0, &[6.0, 5.0], 0.15));
        assert!(!sums_within(10.0, &[7.0, 5.0], 0.15));
    }

    #[test]
    fn residual_balances_the_row_and_large_ones_are_flagged() {
        let small = LedgerRow::new("wall", 10.0, "s", "other")
            .child("a", 6.0)
            .child("b", 3.0);
        assert!((small.residual() - 1.0).abs() < 1e-12);
        assert!(small.balances());
        assert!(!small.flagged());

        let large = LedgerRow::new("wall", 10.0, "s", "other").child("a", 5.0);
        assert!(large.balances());
        assert!(large.flagged(), "a 50% residual must be flagged");

        let over = LedgerRow::new("wall", 10.0, "s", "other").child("a", 12.0);
        assert!(over.balances());
        assert!(
            over.flagged(),
            "children exceeding the parent are flagged too"
        );
    }
}
