//! Declarative SLOs evaluated from the metrics registry into multi-window
//! burn-rate gauges.
//!
//! An [`SloSpec`] names a bad-event fraction and its error budget; the
//! [`SloBoard`] snapshots the registry's counters (and latency
//! histograms), groups them by `tenant` label, and maintains a short ring
//! of cumulative `(bad, total)` points per `(slo, tenant)`. Each
//! [`SloBoard::tick`] recomputes the burn rate over a fast (~1 s) and a
//! slow (~10 s) window — `burn = (Δbad/Δtotal) / budget`, so burn > 1
//! means the tenant is consuming error budget faster than it accrues —
//! and publishes them as `p4guard_slo_burn_fast` / `p4guard_slo_burn_slow`
//! gauges labelled `{slo, tenant}`.

use crate::registry::Registry;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The fast burn window.
pub const FAST_WINDOW: Duration = Duration::from_secs(1);
/// The slow burn window.
pub const SLOW_WINDOW: Duration = Duration::from_secs(10);
/// How long `(bad, total)` points are retained.
const RETAIN: Duration = Duration::from_secs(15);

/// Tenant label assigned to series that carry no `tenant` label (the
/// single-tenant gateway).
pub const GLOBAL_TENANT: &str = "_all";

/// What counts as a bad event for an SLO.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Bad = dropped frames (`p4guard_drops_total`), total = received
    /// frames. `budget` is the tolerated drop fraction.
    DropRate {
        /// Tolerated fraction of dropped frames.
        budget: f64,
    },
    /// Bad = forwarding latency samples above `threshold`, total = all
    /// samples (`p4guard_forward_latency_seconds`). `budget` is the
    /// tolerated slow fraction — 0.01 makes this a p99 latency SLO.
    LatencyAbove {
        /// Latency bound in nanoseconds.
        threshold_nanos: u64,
        /// Tolerated fraction of samples above the bound.
        budget: f64,
    },
}

/// One declarative SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// The `slo` label value.
    pub name: String,
    /// Bad-event definition and budget.
    pub kind: SloKind,
}

impl SloSpec {
    /// The default pair every bundle evaluates: a 5% drop-rate SLO and a
    /// p99 < 1 ms latency SLO.
    pub fn defaults() -> Vec<SloSpec> {
        vec![
            SloSpec {
                name: "drop-rate".to_string(),
                kind: SloKind::DropRate { budget: 0.05 },
            },
            SloSpec {
                name: "p99-latency".to_string(),
                kind: SloKind::LatencyAbove {
                    threshold_nanos: 1_000_000,
                    budget: 0.01,
                },
            },
        ]
    }
}

/// Cumulative observation points for one `(slo, tenant)` pair.
#[derive(Debug, Default)]
struct SloSeries {
    points: Vec<(Instant, u64, u64)>,
}

impl SloSeries {
    fn push(&mut self, now: Instant, bad: u64, total: u64) {
        self.points.push((now, bad, total));
        if let Some(cutoff) = now.checked_sub(RETAIN) {
            self.points.retain(|(at, _, _)| *at >= cutoff);
        }
    }

    /// Burn over `window`: the bad fraction of the delta between the
    /// newest point and the oldest point inside the window, over `budget`.
    fn burn(&self, window: Duration, budget: f64) -> f64 {
        let Some(&(newest_at, newest_bad, newest_total)) = self.points.last() else {
            return 0.0;
        };
        let start = newest_at.checked_sub(window);
        let base = start
            .and_then(|start| {
                self.points
                    .iter()
                    .take_while(|(at, _, _)| *at <= start)
                    .last()
            })
            .or_else(|| self.points.first())
            .copied();
        let Some((_, base_bad, base_total)) = base else {
            return 0.0;
        };
        let d_total = newest_total.saturating_sub(base_total);
        if d_total == 0 || budget <= 0.0 {
            return 0.0;
        }
        let d_bad = newest_bad.saturating_sub(base_bad);
        (d_bad as f64 / d_total as f64) / budget
    }
}

/// Evaluates a set of [`SloSpec`]s against a [`Registry`] and publishes
/// burn-rate gauges back into it.
#[derive(Debug)]
pub struct SloBoard {
    specs: Vec<SloSpec>,
    inner: Mutex<BTreeMap<(usize, String), SloSeries>>,
}

impl SloBoard {
    /// Builds a board over `specs`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloBoard {
            specs,
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// The evaluated specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Snapshots the registry, appends one observation point per
    /// `(slo, tenant)`, and refreshes the burn gauges.
    pub fn tick(&self, registry: &Registry) {
        let now = Instant::now();
        let counters = registry.counter_snapshot();
        // tenant → (received, dropped) from the counter families.
        let mut frames: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (family, labels, value) in &counters {
            let is_received = family == "p4guard_frames_received_total";
            let is_dropped = family == "p4guard_drops_total";
            if !is_received && !is_dropped {
                continue;
            }
            let tenant = labels
                .iter()
                .find(|(k, _)| k == "tenant")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| GLOBAL_TENANT.to_string());
            let entry = frames.entry(tenant).or_default();
            if is_received {
                entry.0 += value;
            } else {
                entry.1 += value;
            }
        }
        // tenant → (slow, total) latency samples.
        let mut latency: BTreeMap<String, BTreeMap<u64, (u64, u64)>> = BTreeMap::new();
        for (family, labels, histogram) in registry.histogram_snapshot() {
            if family != "p4guard_forward_latency_seconds" {
                continue;
            }
            let tenant = labels
                .iter()
                .find(|(k, _)| k == "tenant")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| GLOBAL_TENANT.to_string());
            let buckets = latency.entry(tenant).or_default();
            for (bound, count) in histogram.buckets() {
                let b = buckets.entry(bound).or_default();
                b.1 += count;
            }
        }

        let mut inner = self.inner.lock();
        for (spec_idx, spec) in self.specs.iter().enumerate() {
            let observations: Vec<(String, u64, u64, f64)> = match &spec.kind {
                SloKind::DropRate { budget } => frames
                    .iter()
                    .map(|(tenant, (received, dropped))| {
                        (tenant.clone(), *dropped, *received, *budget)
                    })
                    .collect(),
                SloKind::LatencyAbove {
                    threshold_nanos,
                    budget,
                } => latency
                    .iter()
                    .map(|(tenant, buckets)| {
                        let total: u64 = buckets.values().map(|(_, n)| n).sum();
                        let bad: u64 = buckets
                            .iter()
                            .filter(|(bound, _)| **bound > *threshold_nanos)
                            .map(|(_, (_, n))| n)
                            .sum();
                        (tenant.clone(), bad, total, *budget)
                    })
                    .collect(),
            };
            for (tenant, bad, total, budget) in observations {
                let series = inner.entry((spec_idx, tenant.clone())).or_default();
                series.push(now, bad, total);
                let fast = series.burn(FAST_WINDOW, budget);
                let slow = series.burn(SLOW_WINDOW, budget);
                let labels: &[(&str, &str)] = &[("slo", &spec.name), ("tenant", &tenant)];
                registry
                    .gauge(
                        "p4guard_slo_burn_fast",
                        "Error-budget burn rate over the fast (1s) window",
                        labels,
                    )
                    .set(fast);
                registry
                    .gauge(
                        "p4guard_slo_burn_slow",
                        "Error-budget burn rate over the slow (10s) window",
                        labels,
                    )
                    .set(slow);
            }
        }
    }

    /// The most recent fast-window burn for `(slo, tenant)`, if observed.
    pub fn burn_fast(&self, slo: &str, tenant: &str) -> Option<f64> {
        self.burn(slo, tenant, FAST_WINDOW)
    }

    /// The most recent slow-window burn for `(slo, tenant)`, if observed.
    pub fn burn_slow(&self, slo: &str, tenant: &str) -> Option<f64> {
        self.burn(slo, tenant, SLOW_WINDOW)
    }

    fn burn(&self, slo: &str, tenant: &str, window: Duration) -> Option<f64> {
        let (spec_idx, spec) = self.specs.iter().enumerate().find(|(_, s)| s.name == slo)?;
        let budget = match &spec.kind {
            SloKind::DropRate { budget } => *budget,
            SloKind::LatencyAbove { budget, .. } => *budget,
        };
        let inner = self.inner.lock();
        let series = inner.get(&(spec_idx, tenant.to_string()))?;
        Some(series.burn(window, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn drop_rate_board() -> SloBoard {
        SloBoard::new(vec![SloSpec {
            name: "drop-rate".to_string(),
            kind: SloKind::DropRate { budget: 0.05 },
        }])
    }

    #[test]
    fn burn_trips_when_drops_exceed_budget() {
        let registry = Arc::new(Registry::new());
        let received = registry.counter("p4guard_frames_received_total", "", &[("tenant", "cams")]);
        let dropped = registry.counter(
            "p4guard_drops_total",
            "",
            &[("tenant", "cams"), ("reason", "rule_drop")],
        );
        let board = drop_rate_board();
        received.add(1000);
        board.tick(&registry);
        // Quiet phase: 1% drops against a 5% budget → burn < 1.
        received.add(1000);
        dropped.add(10);
        board.tick(&registry);
        let quiet = board.burn_fast("drop-rate", "cams").unwrap();
        assert!(quiet < 1.0, "quiet burn {quiet}");
        // Attack wave: 50% drops → burn 10.
        received.add(1000);
        dropped.add(500);
        board.tick(&registry);
        let hot = board.burn_fast("drop-rate", "cams").unwrap();
        assert!(hot > 1.0, "attack burn {hot}");
        // Gauges landed in the registry with slo/tenant labels.
        let text = registry.render_prometheus();
        assert!(text.contains("p4guard_slo_burn_fast{slo=\"drop-rate\",tenant=\"cams\"}"));
        assert!(text.contains("p4guard_slo_burn_slow"));
    }

    #[test]
    fn unlabelled_series_roll_up_under_the_global_tenant() {
        let registry = Arc::new(Registry::new());
        registry
            .counter("p4guard_frames_received_total", "", &[("shard", "0")])
            .add(100);
        registry
            .counter(
                "p4guard_drops_total",
                "",
                &[("shard", "0"), ("reason", "rule_drop")],
            )
            .add(100);
        let board = drop_rate_board();
        board.tick(&registry);
        board.tick(&registry);
        // Cumulative baseline from the first tick; no new traffic since →
        // burn 0, but the series exists under "_all".
        assert!(board.burn_fast("drop-rate", GLOBAL_TENANT).is_some());
    }

    #[test]
    fn latency_slo_counts_slow_samples() {
        let registry = Arc::new(Registry::new());
        let h = registry.histogram("p4guard_forward_latency_seconds", "", &[("shard", "0")]);
        let board = SloBoard::new(vec![SloSpec {
            name: "p99-latency".to_string(),
            kind: SloKind::LatencyAbove {
                threshold_nanos: 1_000_000,
                budget: 0.01,
            },
        }]);
        board.tick(&registry);
        for _ in 0..50 {
            h.observe(Duration::from_micros(10));
        }
        for _ in 0..50 {
            h.observe(Duration::from_millis(20));
        }
        board.tick(&registry);
        let burn = board.burn_fast("p99-latency", GLOBAL_TENANT).unwrap();
        // Half the samples above 1ms against a 1% budget: burn ≈ 50.
        assert!(burn > 1.0, "latency burn {burn}");
    }
}
