//! Observability layer for p4guard: a metrics [`Registry`]
//! (counters/gauges/latency histograms with labels, Prometheus text and
//! JSON exposition), a [`FlightRecorder`] ring of recent structured
//! events, rolling [`RateWindows`] computed from counter deltas, and a
//! hand-rolled blocking HTTP responder ([`MetricsServer`]) that serves
//! `GET /metrics` and `GET /events` on a background thread.
//!
//! The crate is dependency-free beyond the workspace's vendored
//! `parking_lot`/`serde` shims: no tokio, no hyper, no prometheus client.
//!
//! Frames are counted in one place: the dataplane's stage walkers fill a
//! [`SwitchCounters`] block per lane (the type lives here, below the
//! dataplane, so a sink can take it as it is), and the shard loop hands
//! that block to [`TelemetrySink::batch_end`] once per drain. A sink keeps
//! no counts of its own — [`RegistrySink`] adds the block to the series
//! below — and per frame sees only the [`TelemetrySink::verdict`] sampling
//! stream; with the [`NoopSink`] default the hot path is the
//! un-instrumented code.
//!
//! A sampled frame is picked in one place too: each lane's sink owns one
//! [`FrameSampler`], built from [`TelemetryConfig`]'s stride and seed, whose
//! 1-in-N branch names the frame. The [`FlightRecorder`]'s verdict event
//! carries that id, and with tracing armed the frame's span tree in the
//! [`TraceStore`] is rooted at it, so `/events` joins against
//! `/traces?id=`; recorder and store are rings with no sampling state.
//!
//! Metric name schema (see DESIGN.md "Telemetry" for the full table):
//!
//! | Metric | Kind | Labels |
//! |--------|------|--------|
//! | `p4guard_frames_received_total` | counter | `shard` |
//! | `p4guard_frames_forwarded_total` | counter | `shard` |
//! | `p4guard_drops_total` | counter | `shard`, `reason` |
//! | `p4guard_table_hits_total` / `_misses_total` | counter | `shard`, `stage`, `table` |
//! | `p4guard_ruleset_version` | gauge | `shard` |
//! | `p4guard_ruleset_swaps_total` | counter | `shard` |
//! | `p4guard_forward_latency_seconds` | histogram | `shard` |
//! | `p4guard_conservation_violations_total` | counter | `shard` |
//! | `p4guard_stage_seconds` | histogram | `shard`, `stage`, `table` |
//! | `p4guard_slo_burn_fast` / `_slow` | gauge | `slo`, `tenant` |
//!
//! Every `shard`-labelled series above additionally carries `tenant` on a
//! fleet gateway, where each shard runs one lane (and one sink) per tenant
//! — except `reason="backpressure"` drops and the conservation check, which
//! the gateway counts per shard, outside any lane.
//!
//! When tracing is armed ([`TelemetryConfig::tracing`]) the bundle also
//! carries a [`TraceStore`] of sampled span trees (`/traces`), a
//! [`ProfileBoard`] of per-stage timings (`/profile`), and an [`SloBoard`]
//! evaluating burn rates; all three stay inert on the default config.

#![warn(missing_docs)]

pub mod counters;
pub mod histogram;
pub mod http;
pub mod rates;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod slo;
pub mod trace;

pub use counters::SwitchCounters;
pub use histogram::LatencyHistogram;
pub use http::{http_get, MetricsServer};
pub use rates::RateWindows;
pub use recorder::{Event, FlightRecorder, RecordedEvent};
pub use registry::{Counter, Gauge, Histogram, Labels, MetricKind, Registry};
pub use sink::{frame_digest, DropReason, NoopSink, RegistrySink, TelemetrySink, VerdictKind};
pub use slo::{SloBoard, SloKind, SloSpec, GLOBAL_TENANT};
pub use trace::{control_trace_id, FrameSampler, ProfileBoard, SpanRecord, StageKind, TraceStore};

use std::sync::Arc;

/// Tuning knobs for a [`Telemetry`] instance.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Flight-recorder capacity in events.
    pub events_capacity: usize,
    /// Verdict sampling stride: one frame in `sample_every` is recorded.
    pub sample_every: u64,
    /// Seed offsetting which frame in each stride is sampled (the
    /// sampling stays deterministic for any fixed seed).
    pub seed: u64,
    /// Whether span sampling and stage profiling are armed. Off by
    /// default: the trace store stays empty and shard sinks skip all
    /// stage timing.
    pub tracing: bool,
    /// Span ring capacity when tracing is armed.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            events_capacity: 1024,
            sample_every: 64,
            seed: 0,
            tracing: false,
            trace_capacity: 4096,
        }
    }
}

/// The bundle a process shares between its dataplane shards, publisher,
/// and metrics endpoint: one registry, one flight recorder, one rate
/// tracker.
pub struct Telemetry {
    /// Metric families (counters, gauges, histograms).
    pub registry: Arc<Registry>,
    /// Recent structured events.
    pub recorder: Arc<FlightRecorder>,
    /// Rolling 1s/10s rates over the registry's counters.
    pub rates: Arc<RateWindows>,
    /// Ring of sampled spans (empty and inert unless tracing is armed).
    pub traces: Arc<TraceStore>,
    /// Per-stage timing rollups behind `/profile`.
    pub profile: Arc<ProfileBoard>,
    /// Burn-rate evaluation of the default SLOs over the registry.
    pub slo: Arc<SloBoard>,
    /// The config's stride and seed, kept for the one place they are used:
    /// the [`FrameSampler`] of each lane [`Telemetry::shard_sink`] builds.
    sample_every: u64,
    seed: u64,
}

impl Telemetry {
    /// Builds a telemetry bundle from `config`.
    pub fn new(config: TelemetryConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let rates = Arc::new(RateWindows::new(Arc::clone(&registry)));
        Telemetry {
            registry,
            recorder: Arc::new(FlightRecorder::new(config.events_capacity)),
            rates,
            traces: Arc::new(TraceStore::new(config.trace_capacity, config.tracing)),
            profile: Arc::new(ProfileBoard::new()),
            slo: Arc::new(SloBoard::new(SloSpec::defaults())),
            sample_every: config.sample_every,
            seed: config.seed,
        }
    }

    /// Builds the [`RegistrySink`] of one lane of `shard`, wired to this
    /// bundle; `tenant` labels the lane's series on a fleet gateway. The
    /// sink samples verdicts at the config's stride and seed; when the
    /// config armed tracing, it also gives the sampled frames of profiled
    /// batches span trees and profiles stages.
    pub fn shard_sink(&self, shard: usize, tenant: Option<&str>) -> RegistrySink {
        let sink = RegistrySink::new(
            Arc::clone(&self.registry),
            Arc::clone(&self.recorder),
            self.sample_every,
            self.seed,
            shard,
            tenant,
        );
        if self.traces.enabled() {
            sink.with_tracing(Arc::clone(&self.traces), Arc::clone(&self.profile))
        } else {
            sink
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_one_registry() {
        let t = Telemetry::default();
        let mut sink = t.shard_sink(0, None);
        let drain = SwitchCounters {
            received: 1,
            forwarded: 1,
            ..SwitchCounters::default()
        };
        sink.batch_end(&drain, &LatencyHistogram::new());
        assert_eq!(t.registry.family_sum("p4guard_frames_received_total"), 1);
        assert_eq!(t.recorder.capacity(), 1024);
        // The config's stride reaches the lane's sampler: 1 verdict in 64.
        for _ in 0..128 {
            sink.verdict(VerdictKind::Forward, b"frame", None);
        }
        assert_eq!(t.recorder.len(), 2);
    }
}
