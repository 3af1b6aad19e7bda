//! Summary statistics and process measurements shared by every workload.

use std::time::Duration;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of already sorted samples.
fn nearest_rank(sorted: &[f64], pct: f64) -> usize {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    rank.clamp(1, sorted.len())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest rank) of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    s[nearest_rank(&s, 50.0) - 1]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`], at most `max_pct`, that has at
/// least ten samples beyond it (the median for tiny sample sets).
///
/// Callers pass as `max_pct` the highest percentile that keeps ten samples
/// beyond it in every run of standard length, so the reported percentile
/// does not change from run to run with the sample count.
pub fn tail(samples: &[f64], max_pct: f64) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let pct = LADDER
        .into_iter()
        .find(|&p| p <= max_pct && n - nearest_rank(&s, p) >= 10)
        .unwrap_or(50.0);
    let rank = nearest_rank(&s, pct);
    Tail {
        pct,
        value: s[rank - 1],
        beyond: n - rank,
        samples: n,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&samples, 99.9);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 475.0);
        assert_eq!(t.beyond, 25);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.9).pct, 99.0);
        assert_eq!(tail(&big, 95.0).pct, 95.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
