//! The instrumentation seam between the packet hot path and the metrics
//! layer: a [`TelemetrySink`] trait the dataplane calls into, a zero-cost
//! [`NoopSink`] (the default — benchmarks and un-instrumented callers
//! monomorphize to exactly the pre-telemetry code), and a [`RegistrySink`]
//! that feeds a [`Registry`] and [`FlightRecorder`].

use crate::recorder::{Event, FlightRecorder};
use crate::registry::{Counter, Gauge, Histogram, Registry};
use crate::trace::{ProfileBoard, SpanRecord, StageKind, TraceSampler, TraceStore};
use std::sync::Arc;
use std::time::Instant;

/// Why a frame was not forwarded. The taxonomy refines the legacy
/// `SwitchCounters { dropped, parser_rejected }` pair: `ParserRejected`
/// corresponds to the old `parser_rejected` total, and the remaining
/// reasons partition the old `dropped` total (plus `Backpressure`, which
/// is counted before a frame ever reaches a pipeline).
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
    /// Every reason, in rendering order.
    pub const ALL: [DropReason; 5] = [
        DropReason::ParserRejected,
        DropReason::RuleDrop,
        DropReason::NoRule,
        DropReason::WrongWidth,
        DropReason::Backpressure,
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

    fn index(&self) -> usize {
        match self {
            DropReason::ParserRejected => 0,
            DropReason::RuleDrop => 1,
            DropReason::NoRule => 2,
            DropReason::WrongWidth => 3,
            DropReason::Backpressure => 4,
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

/// Observer for per-frame dataplane activity. Every method has a no-op
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

    /// One compiled-table lookup finished: `hit` is whether an entry
    /// matched (a miss means the default action applied).
    fn table_lookup(&mut self, _stage: usize, _hit: bool) {}

    /// A frame was dropped for `reason`.
    fn drop_frame(&mut self, _reason: DropReason) {}

    /// A frame finished processing. `frame` is the raw bytes (digested
    /// only when the flight recorder samples this event) and `matched` is
    /// the `(stage, rank)` of the last matching entry, when any matched.
    fn verdict(&mut self, _verdict: VerdictKind, _frame: &[u8], _matched: Option<(usize, u32)>) {}

    /// `count` frames that shared one measured batch, each costing `nanos`
    /// (the batch mean).
    fn latency_n(&mut self, _nanos: u64, _count: u64) {}

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

    /// The shard finished a batch of frames. Buffering sinks flush their
    /// locally accumulated counts to shared state here, so the per-frame
    /// path stays free of atomics and locks.
    fn batch_end(&mut self) {}
}

/// The do-nothing sink. `process_with::<NoopSink>` compiles to the same
/// machine code as the un-instrumented path.
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

/// A [`TelemetrySink`] that counts into a [`Registry`] and samples verdicts
/// into a [`FlightRecorder`]. One instance per shard lane: every series it
/// registers carries the `shard` label, plus `tenant` when the lane serves
/// a named tenant of a fleet.
///
/// Per-frame events accumulate in plain (non-atomic) buffers and flush to
/// the shared registry on [`TelemetrySink::batch_end`], on swaps, and on
/// drop — so the hot path costs a handful of local adds per frame while
/// scrapers still see totals at most one batch stale (and exact once the
/// shard drains or exits).
pub struct RegistrySink {
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    shard: String,
    tenant: Option<String>,
    shard_idx: usize,
    version: u64,
    received: Counter,
    forwarded: Counter,
    drops: [Counter; 5],
    stage_hits: Vec<(Counter, Counter)>,
    latency: Histogram,
    version_gauge: Gauge,
    swaps: Counter,
    buf: SinkBuffer,
    /// Local stream position feeding the recorder's residue-class check,
    /// so sampling needs no shared opportunity counter.
    sample_position: u64,
    tracing: Option<TraceBits>,
}

/// The per-batch accumulation state of a [`RegistrySink`].
#[derive(Default)]
struct SinkBuffer {
    received: u64,
    forwarded: u64,
    drops: [u64; 5],
    stage_hits: Vec<(u64, u64)>,
    latency: crate::histogram::LatencyHistogram,
}

/// Every `PROFILE_STRIDE`-th batch on a tracing-armed sink is profiled:
/// its stages are wall-timed, folded into the stage histograms and the
/// profile board, and its sampled frames get full span trees. The other
/// batches pay only one bulk sampler advance at flush, keeping the
/// tracing overhead a small fraction of the registry sink's own cost.
const PROFILE_STRIDE: u64 = 32;

/// Span-sampling and stage-profiling state, armed by
/// [`RegistrySink::with_tracing`]. Tracing adds no per-frame work at all:
/// the positional sampler advances in bulk at each flush, and spans and
/// histogram folds happen at the end of each profiled
/// ([`PROFILE_STRIDE`]) batch.
struct TraceBits {
    store: Arc<TraceStore>,
    profile: Arc<ProfileBoard>,
    sampler: TraceSampler,
    /// Batches finished so far; selects the profiled stride.
    batch_idx: u64,
    /// Trace ids the sampler selected from this batch's report stream.
    pending: Vec<u64>,
    /// `(stage, table stage index, nanos, frames)` accumulated this batch.
    stage_acc: Vec<(StageKind, Option<usize>, u64, u64)>,
    /// Registered `p4guard_stage_seconds` handles plus the profile-board
    /// key, cached per `(stage, table)` so profiled batches do no label
    /// formatting after the first.
    histograms: Vec<((StageKind, Option<usize>), Histogram, String)>,
    /// `(stage, table name)` pairs from the last swap, for labels.
    tables: Vec<(usize, String)>,
    /// Total measured frame-latency nanos and frame count this batch.
    batch_latency: (u64, u64),
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
    pub fn new(
        registry: Arc<Registry>,
        recorder: Arc<FlightRecorder>,
        shard: usize,
        tenant: Option<&str>,
    ) -> Self {
        let shard_label = shard.to_string();
        let labels = lane_labels(&shard_label, tenant, &[]);
        let received = registry.counter(
            "p4guard_frames_received_total",
            "Frames that reached a shard pipeline",
            &labels,
        );
        let forwarded = registry.counter(
            "p4guard_frames_forwarded_total",
            "Frames forwarded out an egress port",
            &labels,
        );
        let drops = DropReason::ALL.map(|reason| {
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
        let swaps = registry.counter(
            "p4guard_ruleset_swaps_total",
            "Pipeline snapshot swaps observed",
            &labels,
        );
        RegistrySink {
            registry,
            recorder,
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
            buf: SinkBuffer::default(),
            sample_position: 0,
            tracing: None,
        }
    }

    /// Arms span sampling and stage profiling: the sampler minted from
    /// `store` selects 1-in-N frames from the verdict stream, and every
    /// `PROFILE_STRIDE`-th (32) batch emits its sampled span trees into
    /// `store`, folds stage timings into `p4guard_stage_seconds`
    /// histograms, and updates `profile`.
    pub fn with_tracing(mut self, store: Arc<TraceStore>, profile: Arc<ProfileBoard>) -> Self {
        let sampler = store.sampler();
        self.tracing = Some(TraceBits {
            store,
            profile,
            sampler,
            batch_idx: 0,
            pending: Vec::new(),
            stage_acc: Vec::new(),
            histograms: Vec::new(),
            tables: Vec::new(),
            batch_latency: (0, 0),
        });
        self
    }

    /// The shard index this sink instruments.
    pub fn shard(&self) -> usize {
        self.shard_idx
    }

    /// Pushes every buffered count into the shared registry. Cheap when
    /// nothing accumulated (all-zero adds are skipped).
    ///
    /// This is also where the trace sampler advances: trace ids are
    /// positional, so one bulk [`TraceSampler::advance`] over the batch's
    /// verdict count yields exactly the ids per-frame ticks would have —
    /// without any per-frame tracing work in [`RegistrySink::verdict`].
    fn flush(&mut self) {
        if self.buf.received > 0 {
            if let Some(tb) = self.tracing.as_mut() {
                let TraceBits {
                    sampler,
                    pending,
                    batch_idx,
                    ..
                } = tb;
                if *batch_idx % PROFILE_STRIDE == 0 {
                    sampler.advance(self.buf.received, |ctx| pending.push(ctx.trace_id));
                } else {
                    // Unprofiled batch: keep the position stream exact but
                    // drop the ids — only profiled batches have the stage
                    // laps a span tree needs.
                    sampler.advance(self.buf.received, |_| {});
                }
            }
            self.received.add(self.buf.received);
            self.buf.received = 0;
        }
        if self.buf.forwarded > 0 {
            self.forwarded.add(self.buf.forwarded);
            self.buf.forwarded = 0;
        }
        for (counter, buffered) in self.drops.iter().zip(self.buf.drops.iter_mut()) {
            if *buffered > 0 {
                counter.add(*buffered);
                *buffered = 0;
            }
        }
        for ((hits, misses), (h, m)) in self.stage_hits.iter().zip(self.buf.stage_hits.iter_mut()) {
            if *h > 0 {
                hits.add(*h);
                *h = 0;
            }
            if *m > 0 {
                misses.add(*m);
                *m = 0;
            }
        }
        if self.buf.latency.count() > 0 {
            self.latency.merge(&self.buf.latency);
            self.buf.latency = crate::histogram::LatencyHistogram::new();
        }
    }

    /// Ends a profiled batch: emits its sampled span trees, folds stage
    /// timings into the stage histograms and the profile board, then
    /// resets the per-batch tracing state. `flush_nanos` is the measured
    /// cost of the counter flush that just ran, attributed as the `flush`
    /// stage.
    fn trace_batch_end(&mut self, flush_nanos: u64) {
        let Some(tb) = self.tracing.as_mut() else {
            return;
        };
        let (latency_total, frames) = tb.batch_latency;
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
        tb.pending.clear();
        tb.stage_acc.clear();
        tb.batch_latency = (0, 0);
    }
}

impl TelemetrySink for RegistrySink {
    fn swap_seen(&mut self, version: u64, tables: &[(usize, String)]) {
        if self.version == version {
            return;
        }
        // Flush before re-targeting, so buffered lookups still land on the
        // table series they belong to.
        self.flush();
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
        self.buf.stage_hits = vec![(0, 0); tables.len()];
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
    fn table_lookup(&mut self, stage: usize, hit: bool) {
        if let Some((hits, misses)) = self.buf.stage_hits.get_mut(stage) {
            if hit {
                *hits += 1;
            } else {
                *misses += 1;
            }
        }
    }

    #[inline]
    fn drop_frame(&mut self, reason: DropReason) {
        self.buf.drops[reason.index()] += 1;
    }

    fn verdict(&mut self, verdict: VerdictKind, frame: &[u8], matched: Option<(usize, u32)>) {
        self.buf.received += 1;
        if verdict == VerdictKind::Forward {
            self.buf.forwarded += 1;
        }
        let position = self.sample_position;
        self.sample_position += 1;
        if self.recorder.samples_at(position) {
            self.recorder.record(Event::Verdict {
                verdict: verdict.as_str().to_string(),
                digest: frame_digest(frame),
                len: frame.len(),
                shard: self.shard_idx,
                version: self.version,
                matched_stage: matched.map(|(s, _)| s),
                matched_rank: matched.map(|(_, r)| r),
            });
        }
    }

    #[inline]
    fn latency_n(&mut self, nanos: u64, count: u64) {
        self.buf
            .latency
            .record_n(std::time::Duration::from_nanos(nanos), count);
        if let Some(tb) = self.tracing.as_mut() {
            tb.batch_latency.0 += nanos.saturating_mul(count);
            tb.batch_latency.1 += count;
        }
    }

    #[inline]
    fn profiling_enabled(&self) -> bool {
        self.tracing
            .as_ref()
            .is_some_and(|tb| tb.batch_idx % PROFILE_STRIDE == 0)
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

    fn batch_end(&mut self) {
        // `flush` keys the sampler's pending-id collection off `batch_idx`,
        // so the index advances only after the batch fully settles.
        if self.profiling_enabled() {
            let flush_start = Instant::now();
            self.flush();
            let flush_nanos = u64::try_from(flush_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.trace_batch_end(flush_nanos);
        } else {
            self.flush();
        }
        if let Some(tb) = self.tracing.as_mut() {
            tb.pending.clear();
            tb.stage_acc.clear();
            tb.batch_latency = (0, 0);
            tb.batch_idx = tb.batch_idx.wrapping_add(1);
        }
    }
}

impl Drop for RegistrySink {
    /// A shard exiting mid-batch still publishes its final counts.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;

    fn sink() -> (Arc<Registry>, Arc<FlightRecorder>, RegistrySink) {
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(8, 1, 0));
        let sink = RegistrySink::new(Arc::clone(&registry), Arc::clone(&recorder), 3, None);
        (registry, recorder, sink)
    }

    #[test]
    fn verdicts_count_received_and_forwarded() {
        let (registry, recorder, mut sink) = sink();
        sink.swap_seen(7, &[(0, "acl".to_string())]);
        sink.verdict(VerdictKind::Forward, b"abc", Some((0, 2)));
        sink.verdict(VerdictKind::Drop, b"xyz", None);
        sink.drop_frame(DropReason::NoRule);
        // Counts are batch-buffered: invisible until a flush point.
        assert_eq!(
            registry.counter_value("p4guard_frames_received_total", &[("shard", "3")]),
            Some(0)
        );
        sink.batch_end();
        assert_eq!(
            registry.counter_value("p4guard_frames_received_total", &[("shard", "3")]),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("p4guard_frames_forwarded_total", &[("shard", "3")]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value(
                "p4guard_drops_total",
                &[("reason", "no_rule"), ("shard", "3")]
            ),
            Some(1)
        );
        // sample_every=1 records every verdict.
        assert_eq!(recorder.len(), 2);
    }

    #[test]
    fn table_lookups_track_per_stage_series() {
        let (registry, _recorder, mut sink) = sink();
        sink.swap_seen(1, &[(0, "acl".to_string()), (1, "nat".to_string())]);
        sink.table_lookup(0, true);
        sink.table_lookup(0, true);
        sink.table_lookup(1, false);
        sink.table_lookup(9, true); // unknown stage: ignored, not a panic
        sink.batch_end();
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
        let recorder = Arc::new(FlightRecorder::new(8, 1024, 0));
        let store = Arc::new(TraceStore::new(64, 2, 0, true));
        let profile = Arc::new(ProfileBoard::new());
        let mut sink = RegistrySink::new(Arc::clone(&registry), recorder, 0, None)
            .with_tracing(Arc::clone(&store), Arc::clone(&profile));
        assert!(sink.profiling_enabled());
        sink.swap_seen(5, &[(0, "acl".to_string())]);
        for _ in 0..4 {
            sink.verdict(VerdictKind::Forward, b"pkt", None);
        }
        sink.stage_time(StageKind::Parse, None, 4_000, 4);
        sink.stage_time(StageKind::Lookup, Some(0), 8_000, 4);
        sink.latency_n(3_000, 4);
        sink.batch_end();

        // 1-in-2 sampling over four verdicts → two sampled traces, each a
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

    #[test]
    fn noop_sink_accepts_everything() {
        let mut s = NoopSink;
        s.swap_seen(1, &[]);
        s.table_lookup(0, true);
        s.drop_frame(DropReason::Backpressure);
        s.verdict(VerdictKind::ParserReject, b"", None);
        s.latency_n(5, 1);
    }
}
