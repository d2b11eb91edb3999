//! Order statistics over small sample sets — median, percentiles, tails —
//! and the quiet-time estimator every timing in the benchmark goes through.

/// Sorted copy of `values` (NaNs are a bug upstream and sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n >= 1` sorted samples.
/// (`p * n` first: `0.9 * 100` is not 90 in floating point, `90 * 100 / 100` is.)
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p`: at least ten
/// samples must lie beyond it, otherwise the figure is one outlier's luck.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n >= 1 && n - rank(n, p) >= 10
}

/// The tail figure of a span population: percentile `want` when supported,
/// otherwise the highest whole percentile that still has ten samples beyond
/// it, otherwise (fewer than twenty samples) the median. Returns
/// `(percentile used, value)`.
pub fn tail(values: &[f64], want: f64) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut p = want;
    while p > 50.0 && !supports_percentile(values.len(), p) {
        p -= 1.0;
    }
    let p = p.max(50.0);
    percentile(values, p).map(|v| (p, v))
}

/// The quiet time of a fixed-work round, from the segment timings of
/// several runs of it (`rounds[i][j]` = segment `j` of round `i`, ns): the
/// sum over segments of each segment's fastest showing. On a shared box
/// interference only ever adds time, and it comes in bursts; a segment short
/// enough to fit between bursts shows its true cost in at least one round,
/// so the sum is what the round costs on a quiet machine. `None` when there
/// are no rounds or they disagree on the segment count.
pub fn quiet_ns(rounds: &[Vec<u64>]) -> Option<u64> {
    let first = rounds.first()?;
    if rounds.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|j| rounds.iter().map(|r| r[j]).min().unwrap_or(0))
            .sum(),
    )
}
