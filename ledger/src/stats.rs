//! Order statistics the ledger reports: medians, quartiles, and the highest
//! percentile a sample can support.

use serde::Value;

/// Sorts a sample ascending (NaN-free by construction: every input is a
/// measured duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sorted, non-empty
/// sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a sorted, non-empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    quantile_sorted(sorted, 0.5)
}

/// Median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values.to_vec()))
}

/// One timing with the yardstick speed of the CPUs it ran on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// The figure as the clock gave it.
    pub as_timed: f64,
    /// Yardstick speed while it was taken (1.0 = the reference box alone).
    pub speed: f64,
    /// What the figure would have been at speed 1.0.
    pub at_speed_one: f64,
}

impl Timed {
    /// A duration, or anything that grows as the machine slows.
    pub fn time(as_timed: f64, speed: f64) -> Timed {
        Timed {
            as_timed,
            speed,
            at_speed_one: as_timed * speed,
        }
    }

    /// A rate: it shrinks as the machine slows.
    pub fn rate(as_timed: f64, speed: f64) -> Timed {
        Timed {
            as_timed,
            speed,
            at_speed_one: as_timed / speed,
        }
    }
}

/// Quantile `q` of a timing sampled over rounds, at yardstick speed 1.0,
/// over the calm half of the rounds: those in which the yardstick found the
/// machine fastest (all of them up to three).
///
/// The yardstick slows more than most of the program does when the host is
/// at its worst (four times against two), so a round taken then is dropped
/// rather than corrected; in the calmer half the correction is a few
/// percent and its error a fraction of that. Rounds are chosen by the
/// yardstick, never by their own outcome, so a lucky round has no better
/// chance of being kept than an unlucky one.
pub fn calm_quantile(samples: &[Timed], q: f64) -> f64 {
    assert!(!samples.is_empty(), "calm quantile of an empty sample");
    let mut by_speed = samples.to_vec();
    by_speed.sort_by(|a, b| b.speed.total_cmp(&a.speed));
    let keep = samples.len().div_ceil(2).max(samples.len().min(3));
    let calm = by_speed[..keep].iter().map(|t| t.at_speed_one).collect();
    quantile_sorted(&sorted(calm), q)
}

/// The calm median: what every end-to-end timing but one reports.
pub fn calm_median(samples: &[Timed]) -> f64 {
    calm_quantile(samples, 0.5)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver uses for its own spread check — so `--compare` and the driver
/// agree on what a spread is. A sample of one has no spread.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The `p`-th percentile (nearest rank) of a sorted sample, or `None` when
/// fewer than ten samples lie beyond it — a tail estimated from a handful
/// of points is noise, not a percentile.
pub fn percentile_supported(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n >= rank + 10).then(|| sorted[rank - 1])
}

/// The highest of p99.9 / p99 / p90 / p50 the sample supports, with the
/// percentile it is.
pub fn highest_supported_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| percentile_supported(sorted, p).map(|v| (p, v)))
}

/// Median, quartiles and count of one metric over trials or runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values.to_vec());
        let (p25, p75) = quartiles_sorted(&s);
        Summary {
            median: median_sorted(&s),
            p25,
            p75,
            n: s.len(),
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }

    pub fn to_value(self) -> Value {
        Value::Map(vec![
            ("median".into(), Value::Float(self.median)),
            ("p25".into(), Value::Float(self.p25)),
            ("p75".into(), Value::Float(self.p75)),
            ("n".into(), Value::UInt(self.n as u64)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<Summary> {
        Some(Summary {
            median: number(v.get("median")?)?,
            p25: number(v.get("p25")?)?,
            p75: number(v.get("p75")?)?,
            n: number(v.get("n")?)? as usize,
        })
    }
}

/// Any JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(x) => Some(x),
        Value::UInt(x) => Some(x as f64),
        Value::Int(x) => Some(x as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.9), 9.0);
        assert_eq!(quantile_sorted(&[2.0, 4.0], 0.1), 2.2);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 4.0], 0.75), 3.0);
    }

    #[test]
    fn calm_median_keeps_the_fastest_half_at_speed_one() {
        // Six rounds of a 10 ms step: two taken at full speed, two at 0.8
        // (12.5 ms on the clock) and two while the host was at its worst,
        // where the yardstick (0.25) overstates the slowdown (20 ms).
        let rounds = [
            Timed::time(20.0, 0.25),
            Timed::time(10.0, 1.0),
            Timed::time(12.5, 0.8),
            Timed::time(20.0, 0.25),
            Timed::time(12.5, 0.8),
            Timed::time(10.0, 1.0),
        ];
        assert_eq!(calm_median(&rounds), 10.0);
        // A rate is divided where a time is multiplied.
        let rates = [Timed::rate(80.0, 0.8), Timed::rate(100.0, 1.0)];
        assert_eq!(calm_median(&rates), 100.0);
        // Up to three samples all count.
        assert_eq!(calm_median(&rounds[..3]), 10.0);
        assert_eq!(calm_median(&rounds[..1]), 5.0);
        // The calm half here is {10, 10, 10}: every quantile of it is 10.
        assert_eq!(calm_quantile(&rounds, 0.25), 10.0);
        let steps = [1.0, 2.0, 3.0, 4.0, 5.0].map(|ms| Timed::time(ms, 1.0));
        assert_eq!(calm_quantile(&steps, 0.25), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&s), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_sorted(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles_sorted(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::from_value(&s.to_value()), Some(s));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990, with exactly ten beyond it.
        assert_eq!(percentile_supported(&s, 99.0), Some(990.0));
        assert_eq!(percentile_supported(&s[..999], 99.0), None);
        assert_eq!(percentile_supported(&s, 99.9), None);
        assert_eq!(highest_supported_percentile(&s), Some((99.0, 990.0)));
        assert_eq!(highest_supported_percentile(&s[..100]), Some((90.0, 90.0)));
        assert_eq!(highest_supported_percentile(&s[..20]), Some((50.0, 10.0)));
        assert_eq!(highest_supported_percentile(&s[..15]), None);
    }
}
