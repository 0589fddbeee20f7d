//! Sampled structured tracing: the one positional 1-in-N [`FrameSampler`]
//! that picks a frame and names it, span storage in a bounded ring, and the
//! per-stage profile board that `/profile` renders.
//!
//! A trace is a set of [`SpanRecord`]s sharing a `trace_id`. A frame's id is
//! minted once, by its lane's [`FrameSampler`], when the frame is picked;
//! the flight recorder's verdict event and (on a profiled drain) the span
//! tree both carry that id, so `/events` joins against `/traces?id=`.
//! Control plane traces (publish / republish / rollback and adaptation
//! transitions) use ids derived from the ruleset version with the top bit
//! set, so the two id spaces never collide and a swap's spans can be
//! joined from its audit event.

use crate::sink::frame_digest;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Bit marking control-plane trace ids, keeping them disjoint from the
/// splitmix-mixed frame ids (whose top bit is cleared).
const CONTROL_TRACE_BIT: u64 = 1 << 63;

/// One completed span of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique (per store) span id.
    pub span_id: u64,
    /// Parent span id, `None` for the root.
    pub parent_id: Option<u64>,
    /// Operation name (`frame`, `parse`, `lookup`, `swap`, …).
    pub name: String,
    /// Start offset in nanoseconds since the store's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Free-form key/value annotations (shard, table, version, …).
    pub meta: Vec<(String, String)>,
}

/// The deterministic 1-in-N pick over one lane's frame-order verdict
/// stream, and the only place a frame trace id is minted. It samples every
/// stream position `p` with `(p + phase) % N == 0`, `phase` derived from
/// the seed, so any walker that reports the same stream picks the same
/// frames; the lane (`shard`, `tenant`) enters only the *id*, never the
/// positions, so every lane of a bundle samples alike and no two name a
/// frame the same.
#[derive(Debug, Clone)]
pub struct FrameSampler {
    sample_every: u64,
    /// Seed and lane mixed together: the id space of this lane.
    lane_key: u64,
    /// Ticks left before the next pick — a countdown, so an unsampled tick
    /// is a branch and a decrement, not a division.
    until_next: u64,
    /// Stream position of the next pick. Stepped by the stride when a pick
    /// is taken; the stream itself is never counted per frame.
    next_position: u64,
}

impl FrameSampler {
    /// Builds the sampler of one lane: one frame in `sample_every` (0
    /// behaves like 1, sample all), offset by `seed`; `shard` and `tenant`
    /// identify the lane whose ids it mints.
    pub fn new(sample_every: u64, seed: u64, shard: usize, tenant: Option<&str>) -> Self {
        let sample_every = sample_every.max(1);
        // Mix the seed so nearby seeds land on different phases.
        let phase = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % sample_every;
        // The first position p with (p + phase) % sample_every == 0.
        let first = (sample_every - phase) % sample_every;
        let tenant = tenant.map_or(0, |t| frame_digest(t.as_bytes()));
        FrameSampler {
            sample_every,
            // Two mixes, so for one seed the key differs between shards
            // whatever the tenant, and between tenants of a shard unless
            // their name digests collide.
            lane_key: splitmix64(splitmix64(seed ^ shard as u64) ^ tenant),
            until_next: first,
            next_position: first,
        }
    }

    /// Advances the stream by one frame; returns the frame's trace id when
    /// it is picked.
    #[inline]
    pub fn tick(&mut self) -> Option<u64> {
        if self.until_next > 0 {
            self.until_next -= 1;
            None
        } else {
            Some(self.pick())
        }
    }

    /// The sampled 1-in-N branch: re-arms the countdown and names the frame
    /// at this position — a splitmix64 mix of (seed, lane, position) with
    /// the control bit cleared, and never 0.
    #[cold]
    fn pick(&mut self) -> u64 {
        self.until_next = self.sample_every - 1;
        let position = self.next_position;
        self.next_position += self.sample_every;
        let id = splitmix64(self.lane_key ^ position.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (id & !CONTROL_TRACE_BIT).max(1)
    }
}

/// The splitmix64 finalizer: a bijection on `u64`, so distinct inputs stay
/// distinct.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Trace id of the control-plane operation that produced ruleset
/// `version` (publish, republish, rollback, adaptation transition).
pub fn control_trace_id(version: u64) -> u64 {
    CONTROL_TRACE_BIT | version
}

struct TraceInner {
    spans: VecDeque<SpanRecord>,
}

/// Span capacity of the [`TraceStore`] every [`Telemetry`](crate::Telemetry)
/// bundle carries.
pub const TRACE_CAPACITY: usize = 4096;

/// Bounded ring of completed spans shared by the shard sinks, the control
/// plane, and the `/traces` endpoint.
pub struct TraceStore {
    enabled: bool,
    capacity: usize,
    epoch: Instant,
    next_span: AtomicU64,
    inner: Mutex<TraceInner>,
}

impl TraceStore {
    /// Builds a store holding at most `capacity` spans. When `enabled` is
    /// false the store accepts nothing, keeping the hot path untraced.
    pub fn new(capacity: usize, enabled: bool) -> Self {
        TraceStore {
            enabled,
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            inner: Mutex::new(TraceInner {
                spans: VecDeque::new(),
            }),
        }
    }

    /// Whether tracing is armed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the store's epoch — span timestamps.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh span id.
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a completed span, evicting the oldest past capacity.
    /// Ignored when the store is disabled.
    pub fn record(&self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.spans.len() == self.capacity {
            inner.spans.pop_front();
        }
        inner.spans.push_back(span);
    }

    /// Spans recorded so far (post-eviction).
    pub fn len(&self) -> usize {
        self.inner.lock().spans.len()
    }

    /// Whether no spans are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `n` most recently recorded spans, newest last.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let inner = self.inner.lock();
        inner
            .spans
            .iter()
            .skip(inner.spans.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Every stored span of trace `id`, in recording order.
    pub fn by_trace(&self, id: u64) -> Vec<SpanRecord> {
        self.inner
            .lock()
            .spans
            .iter()
            .filter(|s| s.trace_id == id)
            .cloned()
            .collect()
    }

    /// Trace ids of the most recently recorded root spans (spans with no
    /// parent), newest first, deduplicated.
    pub fn recent_trace_ids(&self, n: usize) -> Vec<u64> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for span in inner.spans.iter().rev() {
            if span.parent_id.is_none() && !out.contains(&span.trace_id) {
                out.push(span.trace_id);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// JSON array of spans: the full trace for `id=`, or the spans of the
    /// `recent` most recent traces otherwise.
    pub fn to_json(&self, id: Option<u64>, recent: usize) -> String {
        let spans: Vec<SpanRecord> = match id {
            Some(id) => self.by_trace(id),
            None => {
                let ids = self.recent_trace_ids(recent);
                let inner = self.inner.lock();
                inner
                    .spans
                    .iter()
                    .filter(|s| ids.contains(&s.trace_id))
                    .cloned()
                    .collect()
            }
        };
        serde_json::to_string(&spans).expect("spans serialize")
    }
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("enabled", &self.enabled)
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

/// Hot-path phases of the batched pipeline whose time the profiler
/// attributes. `Flush` covers the sink's own counter flush at batch end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Parser acceptance pass over the batch.
    Parse,
    /// Key extraction for one table stage.
    KeyExtract,
    /// `lookup_batch` over one table stage.
    Lookup,
    /// Action application / alive-set compaction for one table stage.
    Apply,
    /// The frame-order verdict/drop report pass.
    Report,
    /// Counter flush into the shared registry.
    Flush,
}

impl StageKind {
    /// The `stage` label value / span name.
    pub fn as_str(&self) -> &'static str {
        match self {
            StageKind::Parse => "parse",
            StageKind::KeyExtract => "key_extract",
            StageKind::Lookup => "lookup",
            StageKind::Apply => "apply",
            StageKind::Report => "report",
            StageKind::Flush => "flush",
        }
    }
}

/// Rollup of one profiled stage across every batch a sink flushed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Total nanoseconds attributed to the stage.
    pub total_nanos: u64,
    /// Frames the stage processed.
    pub frames: u64,
    /// Batches that contributed.
    pub batches: u64,
    /// Worst per-frame mean over any contributing batch, in nanoseconds.
    pub max_mean_nanos: u64,
    /// Trace id sampled from a batch near the worst mean, if any — the
    /// exemplar an operator follows from `/profile` into `/traces`.
    pub exemplar_trace: Option<u64>,
}

/// Aggregated per-stage timing (keyed `shard/stage[/table]`) plus latency
/// bucket exemplars, rendered by the `/profile` endpoint.
#[derive(Debug, Default)]
pub struct ProfileBoard {
    inner: Mutex<ProfileInner>,
}

#[derive(Debug, Default)]
struct ProfileInner {
    stages: std::collections::BTreeMap<String, StageProfile>,
    /// `bucket upper bound (ns) → trace id` for sampled batches whose mean
    /// frame latency fell in that bucket; high buckets are the p99
    /// exemplars.
    latency_exemplars: std::collections::BTreeMap<u64, u64>,
}

impl ProfileBoard {
    /// Creates an empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one batch's timing for `key` into the rollup. `exemplar`
    /// attaches when this batch's mean is the worst seen (or none is set).
    pub fn record_stage(&self, key: &str, nanos: u64, frames: u64, exemplar: Option<u64>) {
        let mut inner = self.inner.lock();
        let p = inner.stages.entry(key.to_string()).or_default();
        p.total_nanos += nanos;
        p.frames += frames;
        p.batches += 1;
        let mean = nanos / frames.max(1);
        if mean >= p.max_mean_nanos || p.exemplar_trace.is_none() {
            if let Some(id) = exemplar {
                p.exemplar_trace = Some(id);
            }
        }
        p.max_mean_nanos = p.max_mean_nanos.max(mean);
    }

    /// Remembers `trace_id` as the latest exemplar for the latency bucket
    /// whose upper bound is `bucket_nanos`.
    pub fn note_latency_exemplar(&self, bucket_nanos: u64, trace_id: u64) {
        self.inner
            .lock()
            .latency_exemplars
            .insert(bucket_nanos, trace_id);
    }

    /// The exemplar trace id from the highest populated latency bucket.
    pub fn high_latency_exemplar(&self) -> Option<u64> {
        self.inner
            .lock()
            .latency_exemplars
            .iter()
            .next_back()
            .map(|(_, id)| *id)
    }

    /// Sorted `(key, profile)` rows.
    pub fn snapshot(&self) -> Vec<(String, StageProfile)> {
        self.inner
            .lock()
            .stages
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// JSON for `/profile`: per-stage rollups with mean nanoseconds plus
    /// the latency-bucket exemplars.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock();
        let stages: Vec<Value> = inner
            .stages
            .iter()
            .map(|(key, p)| {
                let mut fields = vec![
                    ("stage".to_string(), Value::Str(key.clone())),
                    ("total_nanos".to_string(), Value::UInt(p.total_nanos)),
                    ("frames".to_string(), Value::UInt(p.frames)),
                    ("batches".to_string(), Value::UInt(p.batches)),
                    (
                        "mean_nanos".to_string(),
                        Value::UInt(p.total_nanos / p.frames.max(1)),
                    ),
                    ("max_mean_nanos".to_string(), Value::UInt(p.max_mean_nanos)),
                ];
                if let Some(id) = p.exemplar_trace {
                    fields.push(("exemplar_trace".to_string(), Value::UInt(id)));
                }
                Value::Map(fields)
            })
            .collect();
        let exemplars: Vec<Value> = inner
            .latency_exemplars
            .iter()
            .map(|(bucket, id)| {
                Value::Map(vec![
                    ("le_nanos".to_string(), Value::UInt(*bucket)),
                    ("trace_id".to_string(), Value::UInt(*id)),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Map(vec![
            ("stages".to_string(), Value::Seq(stages)),
            ("latency_exemplars".to_string(), Value::Seq(exemplars)),
        ]))
        .expect("profile JSON serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(sampler: &mut FrameSampler, ticks: usize) -> Vec<Option<u64>> {
        (0..ticks).map(|_| sampler.tick()).collect()
    }

    #[test]
    fn sampler_is_deterministic_and_strided() {
        let ids_a = ids(&mut FrameSampler::new(8, 42, 0, None), 64);
        let ids_b = ids(&mut FrameSampler::new(8, 42, 0, None), 64);
        assert_eq!(ids_a, ids_b);
        assert_eq!(ids_a.iter().flatten().count(), 8);
        // A different seed shifts the residue class, not just the ids.
        let ids_c = ids(&mut FrameSampler::new(8, 43, 0, None), 64);
        let first = |ids: &[Option<u64>]| ids.iter().position(Option::is_some);
        assert_ne!(first(&ids_a), first(&ids_c));
    }

    #[test]
    fn lanes_pick_the_same_positions_under_different_ids() {
        let lanes = [(0, None), (1, None), (0, Some("a")), (0, Some("b"))];
        let picked: Vec<Vec<Option<u64>>> = lanes
            .iter()
            .map(|&(shard, tenant)| ids(&mut FrameSampler::new(8, 0, shard, tenant), 64))
            .collect();
        let positions = |ids: &[Option<u64>]| ids.iter().map(Option::is_some).collect::<Vec<_>>();
        for other in &picked[1..] {
            assert_eq!(positions(other), positions(&picked[0]));
        }
        let mut all: Vec<u64> = picked.iter().flatten().flatten().copied().collect();
        assert_eq!(all.len(), 32);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 32, "an id names one frame of one lane");
    }

    #[test]
    fn frame_and_control_id_spaces_are_disjoint() {
        // Seed 0 on shard 0 at position 0 is where an unmixed id would be 0.
        for id in ids(&mut FrameSampler::new(1, 0, 0, None), 1000) {
            let id = id.expect("stride 1 picks every frame");
            assert_eq!(id & CONTROL_TRACE_BIT, 0);
            assert_ne!(id, 0);
        }
        assert_ne!(control_trace_id(1) & CONTROL_TRACE_BIT, 0);
        assert_ne!(control_trace_id(1), control_trace_id(2));
    }

    #[test]
    fn store_rings_and_queries_by_trace() {
        let store = TraceStore::new(4, true);
        for i in 0..6u64 {
            store.record(SpanRecord {
                trace_id: i % 2,
                span_id: store.next_span_id(),
                parent_id: None,
                name: format!("s{i}"),
                start_ns: i,
                duration_ns: 1,
                meta: vec![],
            });
        }
        assert_eq!(store.len(), 4);
        let t0 = store.by_trace(0);
        assert_eq!(t0.len(), 2, "evicted spans are gone: {t0:?}");
        assert_eq!(store.recent(2).len(), 2);
        assert_eq!(store.recent_trace_ids(1), vec![1]);
        let json = store.to_json(None, 1);
        assert!(json.contains("\"trace_id\""));
    }

    #[test]
    fn disabled_store_records_nothing() {
        let store = TraceStore::new(8, false);
        store.record(SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_id: None,
            name: "x".into(),
            start_ns: 0,
            duration_ns: 0,
            meta: vec![],
        });
        assert!(store.is_empty());
    }

    #[test]
    fn profile_board_tracks_worst_mean_and_exemplars() {
        let board = ProfileBoard::new();
        board.record_stage("0/lookup/acl", 1000, 10, Some(11)); // mean 100
        board.record_stage("0/lookup/acl", 4000, 10, Some(22)); // mean 400
        board.record_stage("0/lookup/acl", 2000, 10, Some(33)); // mean 200
        let snap = board.snapshot();
        assert_eq!(snap.len(), 1);
        let p = &snap[0].1;
        assert_eq!(p.total_nanos, 7000);
        assert_eq!(p.frames, 30);
        assert_eq!(p.batches, 3);
        assert_eq!(p.max_mean_nanos, 400);
        assert_eq!(p.exemplar_trace, Some(22));
        board.note_latency_exemplar(1024, 5);
        board.note_latency_exemplar(4096, 9);
        assert_eq!(board.high_latency_exemplar(), Some(9));
        assert!(board.to_json().contains("exemplar_trace"));
    }
}
