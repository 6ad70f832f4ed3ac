//! Order statistics over measured samples.

use crate::sys::STEAL_LIMIT;

/// Nearest-rank quantiles of a sample, with the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub mean: f64,
}

impl Summary {
    /// Summarise `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: sorted.len(),
            p50: quantile(&sorted, 0.50),
            p99: quantile(&sorted, 0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q` quantile of an ascending sample (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The values of `(value, steal share)` pairs measured while the host was
/// quiet: those with a share of at most [`STEAL_LIMIT`] when they are at
/// least half of them, or else the least disturbed half. A stretch the
/// hypervisor took CPU from was slowed by the host, not by the program;
/// the choice looks at the steal share alone, never at the value. Returns
/// the values kept and how many were left out.
pub fn quiet(samples: &[(f64, f64)]) -> (Vec<f64>, usize) {
    let mut by_steal: Vec<&(f64, f64)> = samples.iter().collect();
    by_steal.sort_by(|a, b| a.1.total_cmp(&b.1));
    let calm = samples.iter().filter(|s| s.1 <= STEAL_LIMIT).count();
    let keep = calm.max(samples.len().div_ceil(2));
    let kept = by_steal[..keep].iter().map(|s| s.0).collect();
    (kept, samples.len() - keep)
}

/// Median of `values`, or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_its_sample_count() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.p99, 198.0);
    }

    #[test]
    fn summary_of_nothing_is_none() {
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_keeps_the_calm_samples_and_at_least_half() {
        let samples = [(1.0, 0.0), (2.0, 0.01), (9.0, 0.2), (3.0, 0.05)];
        assert_eq!(quiet(&samples), (vec![1.0, 2.0, 3.0], 1));
        // Fewer calm samples than half: the least disturbed half, chosen
        // by steal share and not by value.
        let noisy = [(1.0, 0.3), (8.0, 0.06), (9.0, 0.2), (3.0, 0.5)];
        assert_eq!(quiet(&noisy), (vec![8.0, 9.0], 2));
        assert_eq!(quiet(&[]), (vec![], 0));
    }

    #[test]
    fn quantiles_ignore_input_order() {
        let a = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((a.n, a.p50, a.p99), (5, 3.0, 5.0));
    }
}
