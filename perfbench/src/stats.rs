//! Order statistics shared by the runner and `perf_diff`.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_SAMPLES`] samples beyond it; a percentile without that
//! support is noise, so [`tail_supported`] says whether a fixed-name tail
//! metric (`*_p90`, `*_p99`) is backed by enough samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `[0, 1]`: the
/// smallest sample with at least `q` of the samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank position of `q` in a
/// sample of size `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// `true` if percentile `q` of `n` samples has at least [`TAIL_SAMPLES`]
/// samples beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= TAIL_SAMPLES
}

/// The highest percentile of `n` samples with at least [`TAIL_SAMPLES`]
/// samples beyond it, as a fraction (`None` when `n` is too small for even
/// the median to qualify).
pub fn highest_supported(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES {
        return None;
    }
    Some((n - TAIL_SAMPLES) as f64 / n as f64)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => {
            let hi = v.swap_remove(n / 2);
            Some((v[n / 2 - 1] + hi) / 2.0)
        }
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (the run-to-run spread
/// the bounds in `BENCHMARK.json` are compared against).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A sorted copy (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond it; of 99 only 9.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        // p99 needs 1000 samples.
        assert!(tail_supported(1_000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.5));
        // The highest supported percentile leaves exactly ten beyond.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        let q = highest_supported(250).expect("supported");
        assert_eq!(samples_beyond(250, q), TAIL_SAMPLES);
        assert!(!tail_supported(250, q + 0.001));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&v).expect("spread");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
