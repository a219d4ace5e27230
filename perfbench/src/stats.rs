//! Order statistics, the output digest, and process memory.

/// Quartiles `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this program reports match the ones the acceptance check
/// computes. A single value is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let len = sorted.len() as i64;
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    // A line-for-line port, including the clamp that extrapolates below
    // the first and above the last value for tiny samples.
    let cut = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile range over the median: the run-to-run spread measure
/// every bound in `BENCHMARK.json` is checked against.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Percentiles a tail latency is reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of the standard percentiles that still has at least ten
/// samples beyond it, and its value (nearest-rank). With fewer than 20
/// samples no percentile above the median qualifies and the median is
/// returned, so the result always exists for a non-empty sample.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n - rank.min(n) >= 10 {
            return (p, sorted[rank.max(1) - 1]);
        }
    }
    (50.0, median(&sorted))
}

/// 64-bit FNV-1a: a stable digest of serialized simulation results.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in MiB.
///
/// # Errors
///
/// Returns a message where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Lowers the peak resident set size to the current one, so the next
/// [`peak_rss_mib`] covers only what ran since. Where the kernel refuses,
/// the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    // Linux: writing 5 to clear_refs resets VmHWM (since 4.0).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 120 samples: p95 leaves 6 beyond, p90 leaves 12.
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 108.0));
        // 1000 samples: p99 leaves exactly 10.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 40 samples: p75 leaves 10.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75.0, 30.0));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        // Reference value of 64-bit FNV-1a for "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"run"), fnv1a(b"run"));
        assert_ne!(fnv1a(b"run"), fnv1a(b"ruN"));
    }
}
