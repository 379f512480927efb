//! Estimators the benchmark reports with, and the ladder's arithmetic.
//!
//! The round-level estimator is the *quiet decile*: the mean of the best
//! tenth of the rounds.  On the hosts this runs on, interference — another
//! tenant on the core, two workers sharing a vCPU — only ever slows a round
//! down, and how often it does varies from run to run far more than the
//! undisturbed figure does (see the README's host caveats for the numbers).

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (latency, footprint, time).
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "estimator needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured series"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the middle half of `values` (the interquartile mean): as robust
/// as the median, without collapsing a series of whole nanoseconds onto one
/// of two neighbouring integers.
pub fn midmean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Mean of the best tenth of `values` (at least one value) in the metric's
/// own direction: the fastest rounds for a throughput, the shortest for a
/// time.
pub fn quiet_decile(values: &[f64], better: Better) -> f64 {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    let take = (v.len() / 10).max(1);
    v[..take].iter().sum::<f64>() / take as f64
}

/// Geometric mean (all values must be positive): a gain of factor `f` on any
/// one lane moves the figure by `f^(1/lanes)` whichever lane it is.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean needs at least one value");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The `p`-quantile (0 < p < 1) by the *exclusive* method — the one Python's
/// `statistics.quantiles` uses by default, so the spreads printed here are
/// the spreads the acceptance pipeline computes.
pub fn quantile_exclusive(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    // Not clamped: like Python, tiny series extrapolate past their ends.
    let delta = pos - j as f64;
    v[j - 1] + delta * (v[j] - v[j - 1])
}

/// Interquartile range as a share of the median — the repeatability figure
/// every bound is judged against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile_exclusive(values, 0.75) - quantile_exclusive(values, 0.25)) / m.abs()
}

/// How many of `samples` sorted samples lie beyond the `pct`-th percentile.
pub fn samples_beyond(samples: usize, pct: f64) -> usize {
    (samples as f64 * (1.0 - pct / 100.0)).floor() as usize
}

/// A percentile may be reported only with at least ten samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `samples` samples are enough to report the `pct`-th percentile.
pub fn percentile_is_supported(samples: usize, pct: f64) -> bool {
    samples_beyond(samples, pct) >= MIN_SAMPLES_BEYOND
}

/// Self time of a ladder rung: its per-call time minus the per-call time of
/// the child rungs it calls once each.
pub fn self_time(rung_ns: f64, children_ns: &[f64]) -> f64 {
    rung_ns - children_ns.iter().sum::<f64>()
}

/// The share of a rung its child rungs do *not* explain (negative when the
/// children, measured in isolation, cost more than they do inside the rung).
pub fn residual_share(rung_ns: f64, children_ns: &[f64]) -> f64 {
    self_time(rung_ns, children_ns) / rung_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn midmean_drops_both_outer_quarters() {
        assert_eq!(
            midmean(&[1.0, 70.0, 71.0, 72.0, 73.0, 74.0, 75.0, 9000.0]),
            72.5
        );
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[4.0, 6.0]), 5.0);
    }

    #[test]
    fn quiet_decile_takes_the_best_tenth_in_the_metrics_direction() {
        let rounds: Vec<f64> = (1..=20).map(f64::from).collect();
        // Best tenth of 20 rounds = 2 rounds.
        assert_eq!(quiet_decile(&rounds, Better::Higher), 19.5);
        assert_eq!(quiet_decile(&rounds, Better::Lower), 1.5);
        // Fewer than ten rounds: the single best one.
        assert_eq!(quiet_decile(&[5.0, 9.0, 7.0], Better::Higher), 9.0);
        assert_eq!(quiet_decile(&[5.0, 9.0, 7.0], Better::Lower), 5.0);
    }

    #[test]
    fn quiet_decile_ignores_slow_outliers_that_move_a_median() {
        let mut rounds = vec![100.0; 10];
        rounds.extend([60.0; 12]); // the host spent most of the run disturbed
        assert_eq!(quiet_decile(&rounds, Better::Higher), 100.0);
        assert_eq!(median(&rounds), 60.0);
    }

    #[test]
    fn geomean_moves_by_the_same_factor_whichever_lane_gains() {
        let base = geomean(&[10.0, 20.0, 40.0]);
        let a = geomean(&[20.0, 20.0, 40.0]);
        let b = geomean(&[10.0, 20.0, 80.0]);
        assert!((a - b).abs() < 1e-9);
        assert!((a / base - 2f64.powf(1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile_exclusive(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile_exclusive(&v, 0.50) - 5.5).abs() < 1e-12);
        assert!((quantile_exclusive(&v, 0.75) - 8.25).abs() < 1e-12);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: extrapolates.
        assert!((quantile_exclusive(&[3.0, 1.0], 0.25) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert!(percentile_is_supported(1_000, 99.0));
        assert!(!percentile_is_supported(999, 99.0));
        assert!(percentile_is_supported(20, 50.0));
        assert!(!percentile_is_supported(19, 50.0));
        assert!(!percentile_is_supported(5_000, 99.9));
    }

    #[test]
    fn ladder_self_time_and_residual() {
        assert_eq!(self_time(100.0, &[30.0, 20.0]), 50.0);
        assert_eq!(residual_share(100.0, &[30.0, 20.0]), 0.5);
        assert_eq!(residual_share(100.0, &[]), 1.0);
        // Children measured in isolation may exceed the rung: reported as a
        // negative residual, never clamped.
        assert!(residual_share(100.0, &[80.0, 40.0]) < 0.0);
    }
}
