//! Order statistics and the init-vs-slope fit.

/// Percentiles tried, in tenths of a percent, when naming a tail: the
/// reported tail is the highest of these with at least [`TAIL_BEYOND`]
/// samples beyond it.
const TAIL_LADDER_PERMILLE: [usize; 7] = [500, 750, 900, 950, 990, 995, 999];

/// Samples that must lie beyond a percentile for it to count as a tail.
const TAIL_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of `xs` by linear interpolation
/// between closest ranks.  `xs` need not be sorted.  Panics on an empty
/// slice: every caller measures at least one sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let r = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = r.floor() as usize;
    let hi = r.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (r - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples strictly above the rank of the `permille`-th per-mille among
/// `n` (integer arithmetic, so ladder steps land exactly).
fn beyond(n: usize, permille: usize) -> usize {
    n - (permille * n).div_ceil(1000)
}

/// The highest ladder percentile that has at least [`TAIL_BEYOND`]
/// samples beyond it among `n` samples (the median when `n` is too small
/// for any).
pub fn tail_percentile(n: usize) -> f64 {
    let pm = TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|&pm| beyond(n, pm) >= TAIL_BEYOND)
        .max()
        .unwrap_or(500);
    pm as f64 / 10.0
}

/// Fixed cost and per-unit slope from timings at two run lengths:
/// `(k, seconds)` pairs, where every `k` is either `short` or `long`.
/// Medians per length make the fit robust to the odd preempted trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Seconds per unit of `k` (one steady iteration).
    pub slope: f64,
    /// Seconds at `k = 0`: initialization, priming and per-run set-up.
    pub intercept: f64,
}

pub fn fit_two_lengths(samples: &[(u64, f64)], short: u64, long: u64) -> Fit {
    assert!(long > short, "long run must be longer");
    let at = |k: u64| -> Vec<f64> { samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect() };
    let (ts, tl) = (median(&at(short)), median(&at(long)));
    let slope = (tl - ts) / (long - short) as f64;
    Fit {
        slope,
        intercept: ts - slope * short as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(2000), 99.5);
        assert_eq!(tail_percentile(10_000), 99.9);
        // 100 samples: p90 leaves 10, p95 leaves 5.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        // Too few for any ladder step: fall back to the median.
        assert_eq!(tail_percentile(5), 50.0);
        for n in [20, 40, 100, 1000, 1999, 12_345] {
            let p = tail_percentile(n);
            assert!(beyond(n, (p * 10.0) as usize) >= TAIL_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn slope_fit_separates_init_from_steady_cost() {
        // t = 0.25 s init + 2 ms per iteration, with one preempted
        // trial at each length that the medians must ignore.
        let t = |k: u64| 0.25 + 0.002 * k as f64;
        let mut s = Vec::new();
        for i in 0..9 {
            let jitter = (i as f64 - 4.0) * 1e-6;
            s.push((100, t(100) + jitter));
            s.push((400, t(400) - jitter));
        }
        s.push((100, t(100) + 3.0));
        s.push((400, t(400) + 3.0));
        let f = fit_two_lengths(&s, 100, 400);
        assert!((f.slope - 0.002).abs() < 1e-9, "{f:?}");
        assert!((f.intercept - 0.25).abs() < 1e-6, "{f:?}");
    }
}
