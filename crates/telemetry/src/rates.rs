//! The one windowed view of the registry: a ring of samples, each one
//! counter snapshot plus the forward-latency buckets per tenant. Every
//! [`RateWindows::tick`] takes a sample and, from it and one base sample
//! per window, sets the `<base>:rate_1s`/`_10s` gauges and the SLO burn
//! gauges in the registry itself, so the registry's own exposition
//! (`/metrics`, `/metrics.json`) carries them.
//!
//! A window's base is the newest sample at or before `now − window`, else
//! the oldest retained one: once history covers the window, a rate or a
//! burn spans at least the window (at most one sampler interval more).

use crate::histogram::LatencyHistogram;
use crate::registry::{Labels, Registry};
use crate::slo::{tenant_of, SloBoard};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two windows: span, rate-gauge suffix (`<base>:rate_1s`), and the
/// SLO burn gauge with its help text.
pub(crate) const WINDOWS: [(Duration, &str, &str, &str); 2] = [
    (
        Duration::from_secs(1),
        "1s",
        "p4guard_slo_burn_fast",
        "Error-budget burn rate over the fast (1s) window",
    ),
    (
        Duration::from_secs(10),
        "10s",
        "p4guard_slo_burn_slow",
        "Error-budget burn rate over the slow (10s) window",
    ),
];

/// Samples older than this are dropped (keeping at least one besides the
/// newest): a little more than the longest window, so its base is kept.
const RETAIN: Duration = Duration::from_secs(15);

/// At most this many samples are kept however often [`RateWindows::tick`]
/// is called; the 200 ms sampler thread fills 75 of them over [`RETAIN`].
const MAX_SAMPLES: usize = 128;

/// One tick's view of the registry.
pub(crate) struct Sample {
    at: Instant,
    /// `(family, labels, value)` of every counter series, in the registry's
    /// (sorted) order.
    pub(crate) counters: Vec<(String, Labels, u64)>,
    /// `p4guard_forward_latency_seconds` merged per tenant.
    pub(crate) latency: BTreeMap<String, LatencyHistogram>,
}

impl Sample {
    fn take(registry: &Registry) -> Sample {
        let mut latency: BTreeMap<String, LatencyHistogram> = BTreeMap::new();
        for (family, labels, histogram) in registry.histogram_snapshot() {
            if family == "p4guard_forward_latency_seconds" {
                let merged = latency.entry(tenant_of(&labels)).or_default();
                merged.merge(&histogram);
            }
        }
        Sample {
            at: Instant::now(),
            counters: registry.counter_snapshot(),
            latency,
        }
    }

    /// One counter series' value; 0 for a series registered after this
    /// sample was taken.
    fn counter(&self, name: &str, labels: &Labels) -> u64 {
        self.counters
            .binary_search_by(|(n, l, _)| (n.as_str(), l).cmp(&(name, labels)))
            .map_or(0, |i| self.counters[i].2)
    }
}

/// The sample ring over one [`Registry`]; see the module docs.
pub struct RateWindows {
    registry: Arc<Registry>,
    samples: Mutex<VecDeque<Sample>>,
}

impl RateWindows {
    /// Creates an empty ring over `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        RateWindows {
            registry,
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Takes one sample and, for each window, differences it against the
    /// window's base: every counter's per-second rate lands in the gauge
    /// `<family without _total>:rate_<window>` (once two samples exist),
    /// and `slo`'s burns over the same pair in its burn gauge.
    pub fn tick(&self, slo: &SloBoard) {
        // Sampled under the lock, so the ring stays in time order.
        let mut samples = self.samples.lock();
        let sample = Sample::take(&self.registry);
        let now = sample.at;
        samples.push_back(sample);
        while samples.len() > MAX_SAMPLES
            || (samples.len() > 2
                && samples
                    .front()
                    .is_some_and(|s| now.duration_since(s.at) > RETAIN))
        {
            samples.pop_front();
        }
        let (Some(newest), Some(oldest)) = (samples.back(), samples.front()) else {
            return;
        };
        for (w, (window, suffix, ..)) in WINDOWS.iter().enumerate() {
            let base = newest
                .at
                .checked_sub(*window)
                .and_then(|start| samples.iter().rev().find(|s| s.at <= start))
                .unwrap_or(oldest);
            let span = newest.at.duration_since(base.at).as_secs_f64();
            if span > 0.0 {
                for (name, labels, value) in &newest.counters {
                    let rate = value.saturating_sub(base.counter(name, labels)) as f64 / span;
                    let family = name.strip_suffix("_total").unwrap_or(name);
                    let labels: Vec<(&str, &str)> = labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    self.registry
                        .gauge(
                            &format!("{family}:rate_{suffix}"),
                            &format!("Per-second rate of {name} over the trailing {suffix}"),
                            &labels,
                        )
                        .set(rate);
                }
            }
            slo.evaluate(&self.registry, w, base, newest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloSpec, GLOBAL_TENANT};
    use std::thread;

    /// Ticks `rates` with no SLOs to evaluate.
    fn tick(rates: &RateWindows) {
        rates.tick(&SloBoard::new(Vec::new()));
    }

    #[test]
    fn rate_reflects_counter_deltas() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("pkts_total", "", &[("shard", "0")]);
        let rates = RateWindows::new(Arc::clone(&registry));
        tick(&rates);
        c.add(100);
        thread::sleep(Duration::from_millis(60));
        tick(&rates);
        let r = registry.gauge("pkts:rate_1s", "", &[("shard", "0")]).get();
        // 100 packets over ≥60ms: a positive, finite rate well above zero.
        assert!(r > 0.0 && r.is_finite(), "rate was {r}");
        let text = registry.render_prometheus();
        assert!(text.contains("pkts:rate_1s{shard=\"0\"}"), "{text}");
        assert!(text.contains("# TYPE pkts:rate_1s gauge"));
    }

    #[test]
    fn rate_is_none_without_history() {
        let registry = Arc::new(Registry::new());
        registry.counter("x_total", "", &[]);
        let rates = RateWindows::new(Arc::clone(&registry));
        tick(&rates);
        assert!(
            !registry.render_prometheus().contains(":rate_"),
            "a single snapshot has no delta"
        );
    }

    #[test]
    fn tight_ticks_stay_within_the_ring_cap() {
        let registry = Arc::new(Registry::new());
        registry.counter("x_total", "", &[]).inc();
        let rates = RateWindows::new(registry);
        for _ in 0..1000 {
            tick(&rates);
        }
        assert!(rates.samples.lock().len() <= MAX_SAMPLES);
    }

    /// The base is the newest sample at or before `now − window`: with
    /// ticks at 0, ≥0.9 s and ≥1.2 s, the 1 s rate reaches back to the first
    /// tick (the only counts are between it and the second), over a span of
    /// at least the window.
    #[test]
    fn a_window_reaches_back_to_its_full_length() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("span_total", "", &[]);
        let rates = RateWindows::new(Arc::clone(&registry));
        tick(&rates);
        c.add(1000);
        thread::sleep(Duration::from_millis(900));
        tick(&rates);
        thread::sleep(Duration::from_millis(300));
        tick(&rates);
        let r = registry.gauge("span:rate_1s", "", &[]).get();
        assert!(r > 0.0 && r <= 1000.0, "rate was {r}");
    }

    #[test]
    fn rate_label_values_are_escaped() {
        let registry = Arc::new(Registry::new());
        let c = registry.counter("esc_total", "", &[("path", "a\\b\"c\nd")]);
        let rates = RateWindows::new(Arc::clone(&registry));
        tick(&rates);
        c.add(5);
        thread::sleep(Duration::from_millis(60));
        tick(&rates);
        let text = registry.render_prometheus();
        assert!(
            text.contains("esc:rate_1s{path=\"a\\\\b\\\"c\\nd\"}"),
            "rate labels must escape like the registry: {text}"
        );
    }

    #[test]
    fn series_appearing_later_count_from_zero() {
        let registry = Arc::new(Registry::new());
        let rates = RateWindows::new(Arc::clone(&registry));
        tick(&rates);
        thread::sleep(Duration::from_millis(60));
        // Counter registered after the first snapshot: old value treated as 0.
        registry.counter("late_total", "", &[]).add(10);
        tick(&rates);
        let g = registry.gauge("late:rate_1s", "", &[]);
        assert!(g.get() > 0.0);
    }

    /// A burn and the rates it is read against come from the same pair of
    /// samples: burn × budget is Δdrops / Δ(received + shed), read back from
    /// the `:rate_1s` gauges.
    #[test]
    fn burns_and_rates_share_one_window() {
        let registry = Arc::new(Registry::new());
        let received = registry.counter("p4guard_frames_received_total", "", &[("shard", "0")]);
        let drops = |reason| {
            let labels = [("shard", "0"), ("reason", reason)];
            registry.counter("p4guard_drops_total", "", &labels)
        };
        let (rule, shed) = (drops("rule_drop"), drops("backpressure"));
        let board = SloBoard::new(SloSpec::defaults());
        let rates = RateWindows::new(Arc::clone(&registry));
        for (r, d, s) in [(500, 5, 0), (1000, 40, 250), (700, 100, 30)] {
            received.add(r);
            rule.add(d);
            shed.add(s);
            rates.tick(&board);
            thread::sleep(Duration::from_millis(20));
        }
        let gauge = |name: &str, labels: &[(&str, &str)]| registry.gauge(name, "", labels).get();
        let drop_rate = |reason| {
            gauge(
                "p4guard_drops:rate_1s",
                &[("shard", "0"), ("reason", reason)],
            )
        };
        let shed_rate = drop_rate("backpressure");
        let bad = drop_rate("rule_drop") + shed_rate;
        let total = gauge("p4guard_frames_received:rate_1s", &[("shard", "0")]) + shed_rate;
        let burn = gauge(
            "p4guard_slo_burn_fast",
            &[("slo", "drop-rate"), ("tenant", GLOBAL_TENANT)],
        );
        assert!(total > 0.0);
        assert!(
            (burn * 0.05 - bad / total).abs() < 1e-9,
            "burn {burn} vs rates {bad} / {total}"
        );
    }
}
