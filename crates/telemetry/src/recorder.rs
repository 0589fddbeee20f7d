//! The flight recorder: a fixed-capacity ring buffer of recent structured
//! events — sampled verdicts, ruleset swaps, overload onsets — dumpable as
//! JSON on demand. The "what just happened" tool for conformance failures
//! and live incidents. It is a ring and nothing else: which verdicts are
//! sampled into it is the lane's [`FrameSampler`](crate::trace::FrameSampler)'s
//! decision, and the id that sampler gave the frame rides in the event.

use crate::sink::VerdictKind;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One structured occurrence worth keeping around.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A sampled per-frame disposition.
    Verdict {
        /// `forward` / `drop` / `parser_reject` on the wire.
        verdict: VerdictKind,
        /// FNV-1a digest of the frame prefix (see `sink::frame_digest`).
        digest: u64,
        /// Frame length in bytes.
        len: usize,
        /// Shard that processed the frame.
        shard: usize,
        /// Ruleset version the shard was serving.
        version: u64,
        /// Stage of the last matching entry, if any matched.
        matched_stage: Option<usize>,
        /// Rank (install order) of the matching entry within its table.
        matched_rank: Option<u32>,
        /// The id the lane's sampler gave the frame when it picked it. On a
        /// profiled drain the frame's span tree carries the same id, so the
        /// entry joins against `/traces?id=`.
        trace_id: u64,
    },
    /// A ruleset publish/swap audit record.
    Swap {
        /// Version number assigned to the published snapshot.
        version: u64,
        /// Total entries in the published snapshot.
        entries: usize,
        /// Pipeline cells that received the snapshot.
        subscribers: usize,
        /// Entries added relative to the previous ruleset (when known).
        added: usize,
        /// Entries removed relative to the previous ruleset (when known).
        removed: usize,
        /// Whether shards were drained before the swap.
        drained: bool,
        /// Publish duration in nanoseconds.
        duration_ns: u64,
        /// Trace id of the swap's span tree when tracing was active, so
        /// `/events` entries join against `/traces?id=`.
        #[serde(default)]
        trace_id: Option<u64>,
    },
    /// A shard ingest queue started shedding frames.
    Overload {
        /// The overloaded shard.
        shard: usize,
        /// Total frames this shard has shed so far.
        dropped: u64,
    },
    /// A drift detector fired on a telemetry baseline.
    Drift {
        /// Which statistic fired (`page_hinkley` / `chi_squared`).
        metric: String,
        /// The statistic's value when it crossed the threshold.
        statistic: f64,
        /// The configured firing threshold.
        threshold: f64,
        /// Ruleset version that was live when drift was declared.
        at_version: u64,
    },
    /// A rollout-lifecycle audit record from the adaptation loop.
    Rollout {
        /// Lifecycle phase: `shadow_start`, `shadow_reject`, `canary_start`,
        /// `promoted` or `rolled_back`.
        phase: String,
        /// Candidate ruleset version (0 while still unpublished).
        version: u64,
        /// The version that was live when the phase began (the rollback
        /// target).
        baseline: u64,
        /// Shards the phase touched (canary subset; empty = fleet-wide).
        shards: Vec<usize>,
        /// Human-readable cause (guardrail that tripped, promotion gate).
        reason: String,
        /// Trace id of the rollout's span tree when tracing was active.
        #[serde(default)]
        trace_id: Option<u64>,
    },
}

impl Event {
    /// Short tag for display and filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Verdict { .. } => "verdict",
            Event::Swap { .. } => "swap",
            Event::Overload { .. } => "overload",
            Event::Drift { .. } => "drift",
            Event::Rollout { .. } => "rollout",
        }
    }
}

/// An [`Event`] plus its position in the stream and capture time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedEvent {
    /// Strictly increasing sequence number (never reset, so gaps reveal
    /// how much the ring has evicted).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// The event itself.
    pub event: Event,
}

/// Fixed-capacity ring of [`RecordedEvent`]s. It records what it is handed:
/// which verdicts reach it is the lane's
/// [`FrameSampler`](crate::trace::FrameSampler)'s decision, swap and
/// overload events arrive unconditionally.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    seq: AtomicU64,
    start: Instant,
    ring: Mutex<VecDeque<RecordedEvent>>,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            start: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(RecordedEvent { seq, at_ns, event });
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The retained events as a JSON array, oldest first.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.events()).expect("recorder events always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(shard: usize) -> Event {
        Event::Verdict {
            verdict: VerdictKind::Forward,
            digest: 1,
            len: 64,
            shard,
            version: 1,
            matched_stage: Some(0),
            matched_rank: Some(0),
            trace_id: 9,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(verdict(i));
        }
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2);
        assert_eq!(events[2].seq, 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn json_dump_parses_and_tags_kinds() {
        let r = FlightRecorder::new(4);
        r.record(verdict(0));
        r.record(Event::Swap {
            version: 2,
            entries: 10,
            subscribers: 1,
            added: 3,
            removed: 1,
            drained: false,
            duration_ns: 500,
            trace_id: Some(0x8000_0000_0000_0002),
        });
        r.record(Event::Overload {
            shard: 1,
            dropped: 9,
        });
        r.record(Event::Drift {
            metric: "chi_squared".to_string(),
            statistic: 21.4,
            threshold: 16.0,
            at_version: 2,
        });
        assert_eq!(r.events()[1].event.kind(), "swap");
        assert_eq!(r.events()[3].event.kind(), "drift");
        assert_eq!(
            Event::Rollout {
                phase: "rolled_back".to_string(),
                version: 3,
                baseline: 2,
                shards: vec![0],
                reason: "drop-rate guardrail".to_string(),
                trace_id: None,
            }
            .kind(),
            "rollout"
        );
        let json = r.to_json();
        let v = serde_json::parse_value_str(&json).unwrap();
        assert_eq!(v.as_seq().unwrap().len(), 4);
        // The wire spelling of a verdict entry: the kind by its label, the
        // frame's id beside it.
        assert!(
            json.contains(r#""verdict":"forward""#) && json.contains(r#""trace_id":9"#),
            "{json}"
        );
        // Round-trip through the typed model.
        let back: Vec<RecordedEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r.events());
    }
}
