//! Percentiles and run-to-run spread.

use std::time::Instant;

/// A latency report needs at least this many samples inside the measured
/// window; p99 then has at least ten samples beyond it.
const MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of a latency sample, with its size.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50: f64,
    pub p99: f64,
    pub count: usize,
}

/// Summarise a sample, refusing one too small to support its p99.
pub fn latency(samples: &[f64]) -> Result<Latency, String> {
    if samples.len() < MIN_SAMPLES {
        return Err(format!(
            "{} latency samples in the window, fewer than the {MIN_SAMPLES} a p99 needs",
            samples.len()
        ));
    }
    let sorted = sorted(samples);
    Ok(Latency {
        p50: percentile(&sorted, 0.50),
        p99: percentile(&sorted, 0.99),
        count: sorted.len(),
    })
}

/// Throughput as the median, over the window's whole seconds, of the
/// completions each second saw: a second in which the host stalled the
/// benchmark does not drag the figure down. `done` holds completion
/// instants with their weight (decisions answered).
pub fn median_rate(done: &[(Instant, u64)], start: Instant, seconds: u64) -> f64 {
    let mut per_second = vec![0.0; seconds.max(1) as usize];
    for (t, n) in done {
        let slot = t.saturating_duration_since(start).as_secs() as usize;
        if let Some(count) = per_second.get_mut(slot) {
            *count += *n as f64;
        }
    }
    median(&per_second)
}

/// Median of any non-empty sample (the mean of the middle two when the
/// count is even), with no minimum size: set-up repeats, layer spans.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The p-th percentile of any non-empty sample.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    percentile(&sorted(samples), p)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the `--runs` summary matches how the benchmark's spread is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return (data[0], data[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let short: Vec<f64> = (0..MIN_SAMPLES - 1).map(|i| i as f64).collect();
        assert!(latency(&short).is_err());
        let mut enough = short.clone();
        enough.push(5000.0);
        let l = latency(&enough).expect("exactly the minimum is enough");
        assert_eq!(l.count, MIN_SAMPLES);
        // Ten samples lie beyond the p99 of a 1000-sample window.
        let beyond = enough.iter().filter(|&&x| x > l.p99).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn rates_are_medians_over_whole_seconds() {
        let start = Instant::now();
        let at = |ms: u64| start + std::time::Duration::from_millis(ms);
        // 10, 12, 3 and 11 completions in seconds 0..4; one too late.
        let mut done = Vec::new();
        for (second, n) in [(0u64, 10u64), (1, 12), (2, 3), (3, 11)] {
            done.extend((0..n).map(|i| (at(second * 1000 + i * 10), 1)));
        }
        done.push((at(4500), 1));
        assert_eq!(median_rate(&done, start, 4), 10.5);
        assert_eq!(median_rate(&[(at(1500), 8)], start, 3), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), (1.25, 4.5));
    }
}
