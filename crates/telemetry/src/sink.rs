//! The instrumentation seam between the packet hot path and the metrics
//! layer: a [`TelemetrySink`] trait the dataplane and the shard loop call
//! into, a zero-cost [`NoopSink`] (the default — benchmarks and
//! un-instrumented callers monomorphize to the un-instrumented code), and
//! a [`RegistrySink`] that feeds a [`Registry`] and [`FlightRecorder`].
//!
//! A sink **counts nothing per frame**. Frames are counted once, by the
//! stage walkers, into the lane's [`SwitchCounters`] block; the shard hands
//! that block to [`TelemetrySink::batch_end`] once per drain and the sink
//! adds it to the registry series it holds. What a sink sees per frame is
//! the frame-order [`TelemetrySink::verdict`] stream, which exists for
//! positional *sampling* only: the lane's one [`FrameSampler`] picks 1 frame
//! in N from it and names the frame, and the flight-recorder event and the
//! span tree both hang off that pick.

use crate::counters::SwitchCounters;
use crate::histogram::LatencyHistogram;
use crate::recorder::{Event, FlightRecorder};
use crate::registry::{Counter, Gauge, Histogram, Registry};
use crate::trace::{FrameSampler, ProfileBoard, SpanRecord, StageKind, TraceStore};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Instant;

/// Why a frame was not forwarded. [`SwitchCounters`] stores one count per
/// reason a pipeline can give ([`DropReason::LANE`]); `Backpressure` is
/// counted by the gateway, before a frame ever reaches a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The parser could not extract the configured key fields.
    ParserRejected,
    /// A table entry matched and its action was an explicit drop.
    RuleDrop,
    /// No entry matched and the table's default action dropped the frame.
    NoRule,
    /// The extracted key width did not match the compiled table width.
    WrongWidth,
    /// The shard ingest queue was full; the frame never reached a pipeline.
    Backpressure,
}

impl DropReason {
    /// The reasons a lane's pipeline can give — every one but
    /// `Backpressure` — in rendering order.
    pub const LANE: [DropReason; 4] = [
        DropReason::ParserRejected,
        DropReason::RuleDrop,
        DropReason::NoRule,
        DropReason::WrongWidth,
    ];

    /// The `reason` label value.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::ParserRejected => "parser_rejected",
            DropReason::RuleDrop => "rule_drop",
            DropReason::NoRule => "no_rule",
            DropReason::WrongWidth => "wrong_width",
            DropReason::Backpressure => "backpressure",
        }
    }
}

/// Final disposition of a processed frame, mirroring the dataplane's
/// `Verdict` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Forwarded out an egress port.
    Forward,
    /// Dropped by policy.
    Drop,
    /// Rejected by the parser.
    ParserReject,
}

impl VerdictKind {
    /// Short label used in flight-recorder events.
    pub fn as_str(&self) -> &'static str {
        match self {
            VerdictKind::Forward => "forward",
            VerdictKind::Drop => "drop",
            VerdictKind::ParserReject => "parser_reject",
        }
    }
}

/// On the wire a verdict is its [`VerdictKind::as_str`] label.
impl Serialize for VerdictKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for VerdictKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        [
            VerdictKind::Forward,
            VerdictKind::Drop,
            VerdictKind::ParserReject,
        ]
        .into_iter()
        .find(|kind| v.as_str() == Some(kind.as_str()))
        .ok_or_else(|| DeError::expected("a verdict label", v))
    }
}

/// Observer of a lane's dataplane activity. Every method has a no-op
/// default, so the hot path stays free of branches when compiled against
/// [`NoopSink`] — the compiler erases the calls entirely.
///
/// Methods take `&mut self` so per-shard sinks can keep plain (non-atomic)
/// scratch state; sinks are owned by their shard thread.
pub trait TelemetrySink {
    /// A new pipeline snapshot became visible to this observer:
    /// `version` is the published ruleset version and `tables` lists
    /// `(stage, table_name)` pairs so the sink can (re)build per-stage
    /// series.
    fn swap_seen(&mut self, _version: u64, _tables: &[(usize, String)]) {}

    /// A frame finished processing — called once per frame, in frame
    /// order, so a positional sampler sees the same stream on every
    /// walker. `frame` is the raw bytes (digested only when the flight
    /// recorder samples this event) and `matched` is the `(stage, rank)`
    /// of the last matching entry, when any matched. Not a counting hook:
    /// the frame is already in the lane's [`SwitchCounters`].
    fn verdict(&mut self, _verdict: VerdictKind, _frame: &[u8], _matched: Option<(usize, u32)>) {}

    /// Whether the caller should measure per-stage wall time and report it
    /// via [`TelemetrySink::stage_time`]. Defaults to `false`, so the
    /// [`NoopSink`] hot path compiles the timing calls away entirely.
    fn profiling_enabled(&self) -> bool {
        false
    }

    /// `nanos` of wall time spent in `stage` (on table stage index
    /// `table`, when the phase is per-table) covering `frames` frames.
    /// Only called when [`TelemetrySink::profiling_enabled`] returns true.
    fn stage_time(&mut self, _stage: StageKind, _table: Option<usize>, _nanos: u64, _frames: u64) {}

    /// The shard finished a drain. `counts` is everything the lane counted
    /// during it and `latency` its per-frame latency samples — the drain's
    /// own numbers, not running totals, so a sink *adds* them to shared
    /// state and two gateways on one registry stay monotone.
    fn batch_end(&mut self, _counts: &SwitchCounters, _latency: &LatencyHistogram) {}
}

/// The do-nothing sink: a walker instantiated with it compiles to the
/// un-instrumented path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

/// 64-bit FNV-1a over (a prefix of) a frame — the packet digest recorded
/// with verdict samples. Stable across runs; cheap enough to compute only
/// on the sampled 1-in-N path.
pub fn frame_digest(frame: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in frame.iter().take(64) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= frame.len() as u64;
    h.wrapping_mul(PRIME)
}

/// A [`TelemetrySink`] that publishes a lane's counts into a [`Registry`]
/// and samples verdicts into a [`FlightRecorder`]. One instance per shard
/// lane: every series it registers carries the `shard` label, plus
/// `tenant` when the lane serves a named tenant of a fleet.
///
/// It holds no counts of its own: [`TelemetrySink::batch_end`] adds the
/// drain's [`SwitchCounters`] block to the registered handles, so scrapers
/// see totals at most one drain stale and exact once the shard drains.
pub struct RegistrySink {
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    shard: String,
    tenant: Option<String>,
    shard_idx: usize,
    version: u64,
    received: Counter,
    forwarded: Counter,
    /// One series per [`DropReason::LANE`] reason, in that order.
    drops: [Counter; 4],
    stage_hits: Vec<(Counter, Counter)>,
    latency: Histogram,
    version_gauge: Gauge,
    swaps: Counter,
    /// The lane's one pick over its verdict stream: an unsampled frame
    /// costs its countdown's decrement and branch, nothing else.
    sampler: FrameSampler,
    tracing: Option<TraceBits>,
}

/// Every `PROFILE_STRIDE`-th batch on a tracing-armed sink is profiled:
/// its stages are wall-timed, folded into the stage histograms and the
/// profile board, and its sampled frames get full span trees. The other
/// batches pay nothing for tracing, keeping its overhead a small fraction
/// of the registry sink's own cost.
const PROFILE_STRIDE: u64 = 32;

/// Span and stage-profiling state, armed by [`RegistrySink::with_tracing`].
/// Tracing adds no per-frame work at all: it has no sampler of its own —
/// the frames a profiled batch gives span trees to are the ones the lane's
/// [`FrameSampler`] picked for the flight recorder — and spans and
/// histogram folds happen at the end of each profiled ([`PROFILE_STRIDE`])
/// batch.
struct TraceBits {
    store: Arc<TraceStore>,
    profile: Arc<ProfileBoard>,
    /// Batches finished so far; selects the profiled stride.
    batch_idx: u64,
    /// Ids of the frames picked from this batch, when it is profiled.
    pending: Vec<u64>,
    /// `(stage, table stage index, nanos, frames)` accumulated this batch.
    stage_acc: Vec<(StageKind, Option<usize>, u64, u64)>,
    /// Registered `p4guard_stage_seconds` handles plus the profile-board
    /// key, cached per `(stage, table)` so profiled batches do no label
    /// formatting after the first.
    histograms: Vec<((StageKind, Option<usize>), Histogram, String)>,
    /// `(stage, table name)` pairs from the last swap, for labels.
    tables: Vec<(usize, String)>,
}

impl TraceBits {
    /// Whether the batch in progress is a profiled one.
    fn profiled(&self) -> bool {
        self.batch_idx.is_multiple_of(PROFILE_STRIDE)
    }
}

/// The label set of one lane's series: `shard`, `tenant` when the lane has
/// one, then `extra`.
fn lane_labels<'a>(
    shard: &'a str,
    tenant: Option<&'a str>,
    extra: &[(&'a str, &'a str)],
) -> Vec<(&'a str, &'a str)> {
    let mut labels = vec![("shard", shard)];
    labels.extend(tenant.map(|t| ("tenant", t)));
    labels.extend_from_slice(extra);
    labels
}

impl RegistrySink {
    /// Builds a sink for one lane of `shard`, registering its series.
    /// `tenant` names the fleet tenant the lane serves (`None` on a
    /// single-tenant gateway) and is appended to every series' labels.
    /// One verdict in `sample_every`, offset by `seed`, reaches `recorder`.
    pub fn new(
        registry: Arc<Registry>,
        recorder: Arc<FlightRecorder>,
        sample_every: u64,
        seed: u64,
        shard: usize,
        tenant: Option<&str>,
    ) -> Self {
        let shard_label = shard.to_string();
        let labels = lane_labels(&shard_label, tenant, &[]);
        let counter = |name, help| registry.counter(name, help, &labels);
        let received = counter(
            "p4guard_frames_received_total",
            "Frames that reached a shard pipeline",
        );
        let forwarded = counter(
            "p4guard_frames_forwarded_total",
            "Frames forwarded out an egress port",
        );
        let swaps = counter(
            "p4guard_ruleset_swaps_total",
            "Pipeline snapshot swaps observed",
        );
        // Only the reasons a lane can give: backpressure is shed before
        // any lane sees the frame and is the gateway's series, per shard.
        let drops = DropReason::LANE.map(|reason| {
            registry.counter(
                "p4guard_drops_total",
                "Frames dropped, by reason",
                &lane_labels(&shard_label, tenant, &[("reason", reason.as_str())]),
            )
        });
        let latency = registry.histogram(
            "p4guard_forward_latency_seconds",
            "Per-frame processing latency",
            &labels,
        );
        let version_gauge = registry.gauge(
            "p4guard_ruleset_version",
            "Version of the pipeline snapshot this shard is serving",
            &labels,
        );
        RegistrySink {
            registry,
            recorder,
            sampler: FrameSampler::new(sample_every, seed, shard, tenant),
            tenant: tenant.map(str::to_owned),
            shard: shard_label.clone(),
            shard_idx: shard,
            version: u64::MAX,
            received,
            forwarded,
            drops,
            stage_hits: Vec::new(),
            latency,
            version_gauge,
            swaps,
            tracing: None,
        }
    }

    /// Arms span trees and stage profiling: every `PROFILE_STRIDE`-th (32)
    /// batch emits a span tree into `store` for each frame the lane's
    /// sampler picked from it, folds stage timings into
    /// `p4guard_stage_seconds` histograms, and updates `profile`.
    pub fn with_tracing(mut self, store: Arc<TraceStore>, profile: Arc<ProfileBoard>) -> Self {
        self.tracing = Some(TraceBits {
            store,
            profile,
            batch_idx: 0,
            pending: Vec::new(),
            stage_acc: Vec::new(),
            histograms: Vec::new(),
            tables: Vec::new(),
        });
        self
    }

    /// Adds one drain's counts to the shared registry (all-zero adds are
    /// skipped: an idle lane touches no shared cache line).
    fn publish(&mut self, counts: &SwitchCounters, latency: &LatencyHistogram) {
        let add = |counter: &Counter, n: u64| {
            if n > 0 {
                counter.add(n);
            }
        };
        add(&self.received, counts.received);
        add(&self.forwarded, counts.forwarded);
        for (counter, n) in self.drops.iter().zip(counts.drops()) {
            add(counter, n);
        }
        for ((hits, misses), (h, m)) in self.stage_hits.iter().zip(&counts.stages) {
            add(hits, *h);
            add(misses, *m);
        }
        if latency.count() > 0 {
            self.latency.merge(latency);
        }
    }

    /// The sampled 1-in-N path of [`RegistrySink::verdict`]: `trace_id` is
    /// what the sampler named the frame. The event always carries it; a
    /// profiled batch also roots the frame's span tree at it.
    #[cold]
    fn record_verdict(
        &mut self,
        trace_id: u64,
        verdict: VerdictKind,
        frame: &[u8],
        matched: Option<(usize, u32)>,
    ) {
        // Only profiled batches have the stage laps a span tree needs.
        if let Some(tb) = self.tracing.as_mut().filter(|tb| tb.profiled()) {
            tb.pending.push(trace_id);
        }
        self.recorder.record(Event::Verdict {
            verdict,
            digest: frame_digest(frame),
            len: frame.len(),
            shard: self.shard_idx,
            version: self.version,
            matched_stage: matched.map(|(s, _)| s),
            matched_rank: matched.map(|(_, r)| r),
            trace_id,
        });
    }

    /// Ends a profiled batch: emits its sampled span trees, folds stage
    /// timings into the stage histograms and the profile board, then
    /// resets the per-batch tracing state. `flush_nanos` is the measured
    /// cost of the counter publish that just ran, attributed as the
    /// `flush` stage; `latency` is the drain's frame latency.
    fn trace_batch_end(&mut self, flush_nanos: u64, latency: &LatencyHistogram) {
        let Some(tb) = self.tracing.as_mut() else {
            return;
        };
        let (latency_total, frames) = (latency.sum_nanos(), latency.count());
        if frames > 0 {
            tb.stage_acc
                .push((StageKind::Flush, None, flush_nanos, frames));
        }
        let exemplar = tb.pending.first().copied();
        for i in 0..tb.stage_acc.len() {
            let (stage, table, nanos, stage_frames) = tb.stage_acc[i];
            if stage_frames == 0 {
                continue;
            }
            let mean = nanos / stage_frames;
            let idx = match tb
                .histograms
                .iter()
                .position(|(k, _, _)| *k == (stage, table))
            {
                Some(idx) => idx,
                None => {
                    let table_name = table
                        .and_then(|t| tb.tables.iter().find(|(s, _)| *s == t))
                        .map(|(_, n)| n.as_str());
                    let h = self.registry.histogram(
                        "p4guard_stage_seconds",
                        "Per-frame wall time attributed to one hot-path stage",
                        &lane_labels(
                            &self.shard,
                            self.tenant.as_deref(),
                            &[
                                ("stage", stage.as_str()),
                                ("table", table_name.unwrap_or("-")),
                            ],
                        ),
                    );
                    // Profile rows are keyed `shard[/tenant]/stage[/table]`.
                    let key = [
                        Some(self.shard.as_str()),
                        self.tenant.as_deref(),
                        Some(stage.as_str()),
                        table_name,
                    ]
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
                    .join("/");
                    tb.histograms.push(((stage, table), h, key));
                    tb.histograms.len() - 1
                }
            };
            let (_, histogram, key) = &tb.histograms[idx];
            histogram.observe_nanos_n(mean, stage_frames);
            tb.profile.record_stage(key, nanos, stage_frames, exemplar);
        }
        let now = tb.store.now_ns();
        let mean_latency = latency_total.checked_div(frames).unwrap_or(0);
        if let Some(id) = exemplar {
            if frames > 0 {
                tb.profile
                    .note_latency_exemplar(mean_latency.next_power_of_two().max(1), id);
            }
        }
        for &trace_id in &tb.pending {
            let root = tb.store.next_span_id();
            tb.store.record(SpanRecord {
                trace_id,
                span_id: root,
                parent_id: None,
                name: "frame".to_string(),
                start_ns: now.saturating_sub(mean_latency),
                duration_ns: mean_latency,
                meta: lane_labels(
                    &self.shard,
                    self.tenant.as_deref(),
                    &[
                        ("version", &self.version.to_string()),
                        ("batch_frames", &frames.to_string()),
                    ],
                )
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            });
            let mut offset = now.saturating_sub(mean_latency);
            for &(stage, table, nanos, stage_frames) in &tb.stage_acc {
                if stage_frames == 0 {
                    continue;
                }
                let duration = nanos / stage_frames;
                let meta = match table.and_then(|t| tb.tables.iter().find(|(s, _)| *s == t)) {
                    Some((_, name)) => vec![("table".to_string(), name.clone())],
                    None => Vec::new(),
                };
                tb.store.record(SpanRecord {
                    trace_id,
                    span_id: tb.store.next_span_id(),
                    parent_id: Some(root),
                    name: stage.as_str().to_string(),
                    start_ns: offset,
                    duration_ns: duration,
                    meta,
                });
                offset += duration;
            }
        }
    }
}

impl TelemetrySink for RegistrySink {
    fn swap_seen(&mut self, version: u64, tables: &[(usize, String)]) {
        if self.version == version {
            return;
        }
        let first = self.version == u64::MAX;
        self.version = version;
        self.version_gauge.set(version as f64);
        if !first {
            self.swaps.inc();
        }
        if let Some(tb) = self.tracing.as_mut() {
            tb.tables = tables.to_vec();
            // Stage histogram labels embed table names; re-resolve them
            // against the new snapshot.
            tb.histograms.clear();
        }
        self.stage_hits = tables
            .iter()
            .map(|(stage, name)| {
                let stage_label = stage.to_string();
                let labels = lane_labels(
                    &self.shard,
                    self.tenant.as_deref(),
                    &[("stage", &stage_label), ("table", name)],
                );
                (
                    self.registry.counter(
                        "p4guard_table_hits_total",
                        "Compiled-table lookups that matched an entry",
                        &labels,
                    ),
                    self.registry.counter(
                        "p4guard_table_misses_total",
                        "Compiled-table lookups that fell through to the default action",
                        &labels,
                    ),
                )
            })
            .collect();
    }

    #[inline]
    fn verdict(&mut self, verdict: VerdictKind, frame: &[u8], matched: Option<(usize, u32)>) {
        if let Some(trace_id) = self.sampler.tick() {
            self.record_verdict(trace_id, verdict, frame, matched);
        }
    }

    #[inline]
    fn profiling_enabled(&self) -> bool {
        self.tracing.as_ref().is_some_and(TraceBits::profiled)
    }

    fn stage_time(&mut self, stage: StageKind, table: Option<usize>, nanos: u64, frames: u64) {
        if let Some(tb) = self.tracing.as_mut() {
            match tb
                .stage_acc
                .iter_mut()
                .find(|(s, t, _, _)| *s == stage && *t == table)
            {
                Some(acc) => {
                    acc.2 += nanos;
                    acc.3 += frames;
                }
                None => tb.stage_acc.push((stage, table, nanos, frames)),
            }
        }
    }

    fn batch_end(&mut self, counts: &SwitchCounters, latency: &LatencyHistogram) {
        // The verdict path keys its pending-id collection off `batch_idx`,
        // so the index advances only after the batch fully settles.
        if self.profiling_enabled() {
            let flush_start = Instant::now();
            self.publish(counts, latency);
            let flush_nanos = u64::try_from(flush_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.trace_batch_end(flush_nanos, latency);
        } else {
            self.publish(counts, latency);
        }
        if let Some(tb) = self.tracing.as_mut() {
            tb.pending.clear();
            tb.stage_acc.clear();
            tb.batch_idx = tb.batch_idx.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;

    fn sink() -> (Arc<Registry>, Arc<FlightRecorder>, RegistrySink) {
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(8));
        let sink = RegistrySink::new(Arc::clone(&registry), Arc::clone(&recorder), 1, 0, 3, None);
        (registry, recorder, sink)
    }

    #[test]
    fn batch_end_adds_the_drain_block_and_verdicts_only_sample() {
        let (registry, recorder, mut sink) = sink();
        sink.swap_seen(7, &[(0, "acl".to_string())]);
        sink.verdict(VerdictKind::Forward, b"abc", Some((0, 2)));
        sink.verdict(VerdictKind::Drop, b"xyz", None);
        // sample_every=1 records every verdict — and that is all a verdict
        // does: an empty drain publishes nothing.
        assert_eq!(recorder.len(), 2);
        sink.batch_end(&SwitchCounters::default(), &LatencyHistogram::new());
        let received =
            || registry.counter_value("p4guard_frames_received_total", &[("shard", "3")]);
        assert_eq!(received(), Some(0));
        let drain = SwitchCounters {
            received: 2,
            forwarded: 1,
            dropped: 1,
            no_rule: 1,
            ..SwitchCounters::default()
        };
        let mut latency = LatencyHistogram::new();
        latency.record_n(std::time::Duration::from_nanos(500), 2);
        sink.batch_end(&drain, &latency);
        assert_eq!(received(), Some(2));
        let drops = |reason| {
            registry.counter_value("p4guard_drops_total", &[("reason", reason), ("shard", "3")])
        };
        assert_eq!(drops("no_rule"), Some(1));
        // A lane cannot shed: that series is the gateway's to register.
        assert_eq!(drops("backpressure"), None);
        // The block is a drain's worth, added — not a running total stored.
        sink.batch_end(&drain, &latency);
        assert_eq!(received(), Some(4));
        assert_eq!(registry.histogram_snapshot()[0].2.count(), 4);
    }

    #[test]
    fn table_lookups_track_per_stage_series() {
        let (registry, _recorder, mut sink) = sink();
        sink.swap_seen(1, &[(0, "acl".to_string()), (1, "nat".to_string())]);
        let drain = SwitchCounters {
            // A third slot left over from a wider pipeline: no series, ignored.
            stages: vec![(2, 0), (0, 1), (9, 9)],
            ..SwitchCounters::default()
        };
        sink.batch_end(&drain, &LatencyHistogram::new());
        assert_eq!(
            registry.counter_value(
                "p4guard_table_hits_total",
                &[("shard", "3"), ("stage", "0"), ("table", "acl")]
            ),
            Some(2)
        );
        assert_eq!(
            registry.counter_value(
                "p4guard_table_misses_total",
                &[("shard", "3"), ("stage", "1"), ("table", "nat")]
            ),
            Some(1)
        );
        assert_eq!(registry.family_sum("p4guard_table_hits_total"), 2);
    }

    #[test]
    fn verdict_countdown_visits_the_recorders_sampled_positions() {
        for (every, seed) in [(1u64, 0u64), (5, 3), (64, 2020)] {
            let recorder = Arc::new(FlightRecorder::new(256));
            let registry = Arc::new(Registry::new());
            let mut sink = RegistrySink::new(registry, Arc::clone(&recorder), every, seed, 0, None);
            // The frame's length is its stream position.
            for position in 0..200usize {
                sink.verdict(VerdictKind::Forward, &vec![0u8; position], None);
            }
            let sampled = recorder.events().into_iter().map(|e| match e.event {
                Event::Verdict { len, .. } => len as u64,
                other => panic!("unexpected event {other:?}"),
            });
            // The residue class written out, not asked of the sampler: which
            // positions a (stride, seed) picks is a contract the adaptation
            // loop and the conformance schedules replay against.
            let mixed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let phase = mixed % every;
            let expected = (0..200u64).filter(|p| (p + phase) % every == 0);
            assert!(sampled.eq(expected), "every {every}, seed {seed}");
        }
    }

    #[test]
    fn swaps_count_only_version_changes() {
        let (registry, _recorder, mut sink) = sink();
        let tables = vec![(0, "acl".to_string())];
        sink.swap_seen(1, &tables);
        sink.swap_seen(1, &tables);
        sink.swap_seen(2, &tables);
        assert_eq!(
            registry.counter_value("p4guard_ruleset_swaps_total", &[("shard", "3")]),
            Some(1)
        );
    }

    #[test]
    fn digest_is_stable_and_length_sensitive() {
        assert_eq!(frame_digest(b"hello"), frame_digest(b"hello"));
        assert_ne!(frame_digest(b"hello"), frame_digest(b"hellp"));
        let long = vec![0u8; 100];
        let longer = vec![0u8; 200];
        // Prefix-limited hashing still distinguishes lengths.
        assert_ne!(frame_digest(&long), frame_digest(&longer));
    }

    #[test]
    fn tracing_sink_emits_spans_and_stage_rollups() {
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(8));
        let store = Arc::new(TraceStore::new(64, true));
        let profile = Arc::new(ProfileBoard::new());
        let mut sink = RegistrySink::new(Arc::clone(&registry), recorder, 2, 0, 0, None)
            .with_tracing(Arc::clone(&store), Arc::clone(&profile));
        assert!(sink.profiling_enabled());
        sink.swap_seen(5, &[(0, "acl".to_string())]);
        for _ in 0..4 {
            sink.verdict(VerdictKind::Forward, b"frame", None);
        }
        sink.stage_time(StageKind::Parse, None, 4_000, 4);
        sink.stage_time(StageKind::Lookup, Some(0), 8_000, 4);
        let drain = SwitchCounters {
            received: 4,
            forwarded: 4,
            ..SwitchCounters::default()
        };
        let mut latency = LatencyHistogram::new();
        latency.record_n(std::time::Duration::from_nanos(3_000), 4);
        sink.batch_end(&drain, &latency);

        // 1-in-2 sampling over four frames → two sampled traces, each a
        // `frame` root with per-stage children (including `flush`).
        let ids = store.recent_trace_ids(10);
        assert_eq!(ids.len(), 2, "spans: {:?}", store.recent(100));
        let tree = store.by_trace(ids[0]);
        let root = tree.iter().find(|s| s.parent_id.is_none()).unwrap();
        assert_eq!(root.name, "frame");
        let children: Vec<&str> = tree
            .iter()
            .filter(|s| s.parent_id == Some(root.span_id))
            .map(|s| s.name.as_str())
            .collect();
        assert!(
            children.contains(&"parse")
                && children.contains(&"lookup")
                && children.contains(&"flush"),
            "{children:?}"
        );

        // Stage histograms landed with shard/stage/table labels.
        let text = registry.render_prometheus();
        assert!(text.contains("p4guard_stage_seconds_bucket"), "{text}");
        assert!(text.contains("stage=\"lookup\""), "{text}");
        assert!(text.contains("table=\"acl\""), "{text}");

        // Profile rows keyed shard/stage[/table], with trace exemplars.
        let snap = profile.snapshot();
        assert!(snap.iter().any(|(k, _)| k == "0/lookup/acl"), "{snap:?}");
        assert!(snap
            .iter()
            .any(|(k, p)| k == "0/parse" && p.exemplar_trace.is_some()));
        assert!(profile.high_latency_exemplar().is_some());
    }

    /// Verdict events in `recorder`, as `(trace_id, shard)`.
    fn verdict_ids(recorder: &FlightRecorder) -> Vec<(u64, usize)> {
        recorder
            .events()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::Verdict {
                    trace_id, shard, ..
                } => Some((trace_id, shard)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_sampled_verdict_and_its_span_tree_share_one_id_across_lanes() {
        // 2 shards x 2 tenants on one bundle: same stride, same seed, so
        // every lane picks the same positions — and must name them apart.
        let telemetry = crate::Telemetry::new(crate::TelemetryConfig {
            sample_every: 8,
            tracing: true,
            ..crate::TelemetryConfig::default()
        });
        let drain = SwitchCounters {
            received: 16,
            forwarded: 16,
            ..SwitchCounters::default()
        };
        let mut latency = LatencyHistogram::new();
        latency.record_n(std::time::Duration::from_nanos(900), 16);
        for shard in 0..2 {
            for tenant in ["a", "b"] {
                let mut sink = telemetry.shard_sink(shard, Some(tenant));
                sink.swap_seen(1, &[(0, "acl".to_string())]);
                for _ in 0..16 {
                    sink.verdict(VerdictKind::Drop, b"frame", Some((0, 0)));
                }
                sink.stage_time(StageKind::Lookup, Some(0), 1_600, 16);
                sink.batch_end(&drain, &latency);
            }
        }
        let verdicts = verdict_ids(&telemetry.recorder);
        assert_eq!(verdicts.len(), 8, "two picks a lane: {verdicts:?}");
        for (i, &(id, shard)) in verdicts.iter().enumerate() {
            assert_ne!(id, 0);
            assert!(
                verdicts[..i].iter().all(|&(other, _)| other != id),
                "id {id:#x} names two frames: {verdicts:?}"
            );
            let tree = telemetry.traces.by_trace(id);
            let roots: Vec<_> = tree.iter().filter(|s| s.parent_id.is_none()).collect();
            assert_eq!(roots.len(), 1, "trace {id:#x}: {tree:?}");
            assert_eq!(roots[0].name, "frame");
            assert!(
                roots[0]
                    .meta
                    .contains(&("shard".to_string(), shard.to_string())),
                "the root is the event's shard's: {:?}",
                roots[0]
            );
        }
    }

    #[test]
    fn an_untraced_or_unprofiled_verdict_still_carries_its_id() {
        // Tracing off: events are named, the store stays empty.
        let off = crate::Telemetry::new(crate::TelemetryConfig {
            sample_every: 4,
            ..crate::TelemetryConfig::default()
        });
        let mut sink = off.shard_sink(0, None);
        for _ in 0..8 {
            sink.verdict(VerdictKind::Forward, b"frame", None);
        }
        sink.batch_end(&SwitchCounters::default(), &LatencyHistogram::new());
        let ids = verdict_ids(&off.recorder);
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&(id, _)| id != 0) && ids[0].0 != ids[1].0);
        assert!(off.traces.is_empty());

        // Tracing on: only a profiled batch (the first of every
        // PROFILE_STRIDE) turns its picks into span trees.
        let on = crate::Telemetry::new(crate::TelemetryConfig {
            sample_every: 4,
            tracing: true,
            ..crate::TelemetryConfig::default()
        });
        let mut sink = on.shard_sink(0, None);
        for _ in 0..2 {
            for _ in 0..4 {
                sink.verdict(VerdictKind::Forward, b"frame", None);
            }
            sink.batch_end(&SwitchCounters::default(), &LatencyHistogram::new());
        }
        let ids = verdict_ids(&on.recorder);
        assert_eq!(ids.len(), 2);
        assert_eq!(on.traces.recent_trace_ids(8), vec![ids[0].0]);
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let mut s = NoopSink;
        s.swap_seen(1, &[]);
        s.verdict(VerdictKind::ParserReject, b"", None);
        s.batch_end(&SwitchCounters::default(), &LatencyHistogram::new());
    }
}
