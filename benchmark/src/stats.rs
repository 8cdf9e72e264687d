//! Order statistics, the tail-percentile rule, and the host-speed probe.

use std::hint::black_box;
use std::time::Instant;

/// Five-number summary of a host-time sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// "exclusive" method), so a spread printed here is the spread the driver
/// computes. With fewer than two values every cut is the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        n: values.len(),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median,
        q3,
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile distance as a share of the median: the steadiness figure
/// `run.sh --check` prints and the driver gates on.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Index of the `p`-quantile in a sorted sample of `n` — the rule
/// `crates/bench/src/scale.rs` uses, so ported percentiles compare equal.
fn quantile_index(n: usize, p: f64) -> usize {
    ((n - 1) as f64 * p) as usize
}

/// The `p`-quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[quantile_index(sorted.len(), p)]
}

/// Tail levels a latency may be reported at, lowest first.
pub const TAIL_LEVELS: [(&str, f64); 6] = [
    ("p50", 0.50),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
    ("p9999", 0.9999),
];

/// The highest level that still has at least ten samples beyond it; a
/// percentile resting on fewer is one outlier's opinion.
pub fn tail_level(n: usize) -> (&'static str, f64) {
    let mut best = TAIL_LEVELS[0];
    for level in TAIL_LEVELS {
        if n > 0 && n - 1 - quantile_index(n, level.1) >= 10 {
            best = level;
        }
    }
    best
}

/// Product-code-free host-speed calibration: FNV-1a over a fixed buffer,
/// best of three ~20 ms runs, in bytes per second. The same loop `perf` and
/// `scale` record, so a history row can tell a slower host from slower code.
pub fn host_speed() -> f64 {
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut best = 0.0f64;
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..3 {
        let started = Instant::now();
        for round in 0..400u64 {
            acc ^= round;
            for &b in &buf {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        best = best.max((400 * buf.len() as u64) as f64 / secs);
    }
    black_box(acc);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            (2.0, 8.0, 32.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 1.0);
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        assert_eq!(tail_level(11_200).0, "p999"); // 11 beyond
        assert_eq!(tail_level(20_000).0, "p999"); // 20 beyond, 2 beyond p9999
        assert_eq!(tail_level(300).0, "p95"); // 15 beyond, 3 beyond p99
        assert_eq!(tail_level(100).0, "p90"); // exactly 10 beyond
        assert_eq!(tail_level(8_192).0, "p99"); // 9 beyond p999
        assert_eq!(tail_level(32_768).0, "p999");
        assert_eq!(tail_level(12).0, "p50");
        assert_eq!(tail_level(0).0, "p50");
    }

    #[test]
    fn quantile_picks_scale_rs_index() {
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(quantile(&v, 0.5), 49);
        assert_eq!(quantile(&v, 0.9), 89);
        assert_eq!(quantile(&v, 0.999), 98);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
