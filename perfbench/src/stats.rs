//! Order statistics for the benchmark's timing samples.

/// The percentile ladder a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must have beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` in `n` samples (the epsilon
/// keeps `99.9% of 10 000` at rank 9990 despite rounding).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest percentile on the ladder that has at least
/// [`TAIL_MIN_BEYOND`] samples above its rank, as `(percentile, value)`.
/// Falls back to the median when the sample is too small for any rung.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for p in TAIL_LADDER {
        if n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND {
            return (p, percentile(sorted, p));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// [`tail`] capped at percentile `cap`: a fixed percentile whenever the
/// sample supports it, so a run that completes a few more or fewer
/// samples does not jump between rungs.
pub fn tail_at(sorted: &[f64], cap: f64) -> (f64, f64) {
    let (p, v) = tail(sorted);
    if p > cap {
        (cap, percentile(sorted, cap))
    } else {
        (p, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn tail_reports_only_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        // 999 samples: p99 has 9 beyond, so the tail falls to p95.
        assert_eq!(tail(&ramp(999)), (95.0, 950.0));
        // 10 000 samples support p99.9.
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
        // 40 samples: p75 is the first rung with 10 beyond.
        assert_eq!(tail(&ramp(40)), (75.0, 30.0));
        // Too few for any rung: the median, never a made-up tail.
        assert_eq!(tail(&ramp(12)).0, 50.0);
        for n in [1, 5, 39, 100, 101, 200, 1999, 2000] {
            let (p, _) = tail(&ramp(n));
            if p > 50.0 {
                assert!(n - rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
            let higher = TAIL_LADDER.iter().filter(|&&q| q > p);
            for &q in higher {
                assert!(n - rank(q, n) < TAIL_MIN_BEYOND, "n={n} skipped p{q}");
            }
        }
    }

    #[test]
    fn capped_tail_stays_on_its_rung() {
        assert_eq!(tail_at(&ramp(1000), 95.0), (95.0, 950.0));
        assert_eq!(tail_at(&ramp(1000), 99.9), (99.0, 990.0));
        assert_eq!(tail_at(&ramp(30), 90.0).0, 50.0);
    }

    #[test]
    fn median_and_percentile_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&ramp(100), 50.0), 50.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
