//! Declarative SLOs evaluated into multi-window burn-rate gauges.
//!
//! An [`SloSpec`] names a bad-event fraction and its error budget; the
//! [`SloBoard`] holds the specs and the last burns. The registry's one
//! sampler ([`RateWindows::tick`](crate::RateWindows::tick)) hands it the
//! same pair of samples each window's rate gauges come from; the board
//! groups both samples' counters (and latency buckets) by `tenant` label
//! and publishes `burn = (Δbad/Δtotal) / budget` over the fast (1 s) and
//! slow (10 s) window as `p4guard_slo_burn_fast` / `p4guard_slo_burn_slow`
//! gauges labelled `{slo, tenant}`. Burn > 1 means the tenant is
//! consuming error budget faster than it accrues.

use crate::rates::{Sample, WINDOWS};
use crate::registry::{Labels, Registry};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Tenant label assigned to series that carry no `tenant` label (the
/// single-tenant gateway, and frames shed at ingest).
pub const GLOBAL_TENANT: &str = "_all";

/// What counts as a bad event for an SLO.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Bad = dropped frames (`p4guard_drops_total`), total = received
    /// frames plus frames shed at ingest (`reason="backpressure"`, which
    /// never reach `p4guard_frames_received_total`), so every bad event
    /// is also a total event. `budget` is the tolerated drop fraction.
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

    fn budget(&self) -> f64 {
        match self.kind {
            SloKind::DropRate { budget } | SloKind::LatencyAbove { budget, .. } => budget,
        }
    }

    /// Cumulative `(bad, total)` events per tenant in `sample`.
    fn events(&self, sample: &Sample) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        match self.kind {
            SloKind::DropRate { .. } => {
                for (family, labels, value) in &sample.counters {
                    let (bad, total) = match family.as_str() {
                        "p4guard_frames_received_total" => (0, *value),
                        "p4guard_drops_total" => {
                            let shed = labels
                                .iter()
                                .any(|(k, v)| k == "reason" && v == "backpressure");
                            (*value, if shed { *value } else { 0 })
                        }
                        _ => continue,
                    };
                    let entry = out.entry(tenant_of(labels)).or_default();
                    entry.0 += bad;
                    entry.1 += total;
                }
            }
            SloKind::LatencyAbove {
                threshold_nanos, ..
            } => {
                for (tenant, histogram) in &sample.latency {
                    let bad = histogram
                        .buckets()
                        .filter(|(bound, _)| *bound > threshold_nanos)
                        .map(|(_, n)| n)
                        .sum();
                    out.insert(tenant.clone(), (bad, histogram.count()));
                }
            }
        }
        out
    }
}

/// A series' `tenant` label, or [`GLOBAL_TENANT`] when it has none.
pub(crate) fn tenant_of(labels: &Labels) -> String {
    labels
        .iter()
        .find(|(k, _)| k == "tenant")
        .map_or_else(|| GLOBAL_TENANT.to_string(), |(_, v)| v.clone())
}

/// A set of [`SloSpec`]s and the burns the last tick computed for them.
#[derive(Debug)]
pub struct SloBoard {
    specs: Vec<SloSpec>,
    /// `(slo, tenant)` → burn per window (fast, slow).
    burns: Mutex<BTreeMap<(String, String), [f64; 2]>>,
}

impl SloBoard {
    /// Builds a board over `specs`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        SloBoard {
            specs,
            burns: Mutex::new(BTreeMap::new()),
        }
    }

    /// Sets every `(slo, tenant)`'s burn over window `w` (an index into
    /// [`WINDOWS`]) from the events between `base` and `newest`, and its
    /// burn gauge in `registry`.
    pub(crate) fn evaluate(&self, registry: &Registry, w: usize, base: &Sample, newest: &Sample) {
        let (_, _, gauge, help) = WINDOWS[w];
        let mut burns = self.burns.lock();
        for spec in &self.specs {
            let budget = spec.budget();
            let before = spec.events(base);
            for (tenant, (bad, total)) in spec.events(newest) {
                let (base_bad, base_total) = before.get(&tenant).copied().unwrap_or_default();
                let d_total = total.saturating_sub(base_total);
                let burn = if d_total == 0 || budget <= 0.0 {
                    0.0
                } else {
                    let d_bad = bad.saturating_sub(base_bad);
                    (d_bad as f64 / d_total as f64) / budget
                };
                registry
                    .gauge(gauge, help, &[("slo", &spec.name), ("tenant", &tenant)])
                    .set(burn);
                burns.entry((spec.name.clone(), tenant)).or_default()[w] = burn;
            }
        }
    }

    /// The most recent fast-window burn for `(slo, tenant)`, if observed.
    pub fn burn_fast(&self, slo: &str, tenant: &str) -> Option<f64> {
        self.burn(slo, tenant, 0)
    }

    /// The most recent slow-window burn for `(slo, tenant)`, if observed.
    pub fn burn_slow(&self, slo: &str, tenant: &str) -> Option<f64> {
        self.burn(slo, tenant, 1)
    }

    fn burn(&self, slo: &str, tenant: &str, w: usize) -> Option<f64> {
        let key = (slo.to_string(), tenant.to_string());
        self.burns.lock().get(&key).map(|b| b[w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RateWindows;
    use std::sync::Arc;
    use std::time::Duration;

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
        let rates = RateWindows::new(Arc::clone(&registry));
        received.add(1000);
        rates.tick(&board);
        // Quiet phase: 1% drops against a 5% budget → burn < 1.
        received.add(1000);
        dropped.add(10);
        rates.tick(&board);
        let quiet = board.burn_fast("drop-rate", "cams").unwrap();
        assert!(quiet < 1.0, "quiet burn {quiet}");
        // Attack wave: 50% drops → burn 10.
        received.add(1000);
        dropped.add(500);
        rates.tick(&board);
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
        let rates = RateWindows::new(Arc::clone(&registry));
        rates.tick(&board);
        rates.tick(&board);
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
        let rates = RateWindows::new(Arc::clone(&registry));
        rates.tick(&board);
        for _ in 0..50 {
            h.observe(Duration::from_micros(10));
        }
        for _ in 0..50 {
            h.observe(Duration::from_millis(20));
        }
        rates.tick(&board);
        let burn = board.burn_fast("p99-latency", GLOBAL_TENANT).unwrap();
        // Half the samples above 1ms against a 1% budget: burn ≈ 50.
        assert!(burn > 1.0, "latency burn {burn}");
    }

    #[test]
    fn shed_frames_count_in_the_drop_rate_total() {
        let registry = Arc::new(Registry::new());
        let board = drop_rate_board();
        let rates = RateWindows::new(Arc::clone(&registry));
        let received = registry.counter("p4guard_frames_received_total", "", &[("shard", "0")]);
        let shed = registry.counter(
            "p4guard_drops_total",
            "",
            &[("shard", "0"), ("reason", "backpressure")],
        );
        rates.tick(&board);
        received.add(100);
        shed.add(300);
        rates.tick(&board);
        // 300 bad of 400 offered, not 300 bad of 100 received.
        let burn = board.burn_fast("drop-rate", GLOBAL_TENANT).unwrap();
        assert!(
            (burn * 0.05 - 0.75).abs() < 1e-12,
            "drop fraction {}",
            burn * 0.05
        );
    }
}
