//! Mergeable log-scale latency histograms. Power-of-two nanosecond buckets
//! keep recording to a couple of integer ops, and shard histograms merge
//! losslessly into a gateway-wide aggregate.
//!
//! It lives here, below the gateway, so the metrics
//! [`Registry`](crate::registry::Registry) can expose histograms without
//! depending on the gateway; the gateway and shards import it from here.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

const BUCKETS: usize = 64;

/// A histogram of durations in power-of-two nanosecond buckets: bucket `b`
/// counts samples with `nanos` in `[2^(b-1), 2^b)` (bucket 0 holds 0 ns,
/// and the last bucket absorbs everything from `2^62` up to saturated
/// `u64::MAX` samples).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample, clamped into `0..BUCKETS` so a saturated
    /// sample (`u64::MAX` nanos, produced by the `Duration::MAX` overflow
    /// path in [`LatencyHistogram::record`]) lands in the last bucket
    /// instead of indexing out of bounds.
    fn bucket_of(nanos: u64) -> usize {
        ((u64::BITS - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Records `count` samples of the same duration in O(1): the batched
    /// hot loop times a whole batch once and attributes the mean per-frame
    /// cost to every frame, instead of calling `Instant::now` per frame.
    pub fn record_n(&mut self, latency: Duration, count: u64) {
        if count == 0 {
            return;
        }
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(nanos)] += count;
        self.count += count;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos.saturating_mul(count));
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Folds another histogram into this one (shard → aggregate).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Empties the histogram in place, keeping its bucket allocation.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum_nanos = 0;
        self.max_nanos = 0;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds (saturating).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Iterates the non-empty prefix of buckets as
    /// `(upper_bound_nanos, count)` pairs, in increasing bound order — the
    /// exposition-friendly view used by the Prometheus renderer. The last
    /// bucket's bound is `u64::MAX` (it holds clamped samples).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n != 0)
            .map_or(0, |i| i + 1);
        self.buckets[..last].iter().enumerate().map(|(b, &n)| {
            let bound = match b {
                0 => 0,
                _ if b == BUCKETS - 1 => u64::MAX,
                _ => 1u64 << b,
            };
            (bound, n)
        })
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> Duration {
        match self.sum_nanos.checked_div(self.count) {
            Some(mean) => Duration::from_nanos(mean),
            None => Duration::ZERO,
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// The `q`-quantile (`0.0..=1.0`), resolved to the upper bound of the
    /// bucket holding that rank — within 2× of the true value by
    /// construction. Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if b == 0 { 0 } else { 1u64 << b };
                return Duration::from_nanos(upper.min(self.max_nanos));
            }
        }
        self.max()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, mean {:?}, p50 {:?}, p99 {:?}, max {:?}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = LatencyHistogram::new();
        for nanos in [100u64, 200, 400, 800, 100_000] {
            h.record(Duration::from_nanos(nanos));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), Duration::from_nanos(100_000));
        assert_eq!(h.mean(), Duration::from_nanos(101_500 / 5));
        // p50 lands in the bucket holding 400ns: upper bound 512ns.
        assert_eq!(h.quantile(0.5), Duration::from_nanos(512));
        // The top quantile resolves to at most the observed max.
        assert_eq!(h.quantile(1.0), Duration::from_nanos(100_000));
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.buckets().count(), 0);
        assert!(h.to_string().contains("0 samples"));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let samples_a = [10u64, 20, 3000];
        let samples_b = [40u64, 50_000, 7];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for &n in &samples_a {
            a.record(Duration::from_nanos(n));
            whole.record(Duration::from_nanos(n));
        }
        for &n in &samples_b {
            b.record(Duration::from_nanos(n));
            whole.record(Duration::from_nanos(n));
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn zero_duration_goes_to_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.buckets().next(), Some((0, 1)));
    }

    #[test]
    fn saturated_sample_clamps_to_last_bucket() {
        // Regression: Duration::MAX overflows u64 nanos and saturates to
        // u64::MAX, whose bucket index used to be 64 — one past the end.
        let mut h = LatencyHistogram::new();
        h.record(Duration::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Duration::from_nanos(u64::MAX));
        let (bound, n) = h.buckets().last().unwrap();
        assert_eq!((bound, n), (u64::MAX, 1));
    }

    #[test]
    fn buckets_iterator_matches_recorded_counts() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 1, bound 2
        h.record(Duration::from_nanos(3)); // bucket 2, bound 4
        h.record(Duration::from_nanos(3));
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 0), (2, 1), (4, 2)]);
        assert_eq!(h.buckets().map(|(_, n)| n).sum::<u64>(), h.count());
        // Bounds are strictly increasing — required by the exposition format.
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
