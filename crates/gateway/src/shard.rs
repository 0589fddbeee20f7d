//! The shard worker — the one loop every served frame goes through: drains
//! a bounded queue of [`FrameBatch`] messages, regroups each by **lane**
//! (one lane per tenant; a single-tenant gateway has exactly one), and runs
//! every lane's frames through that lane's current
//! [`ReadPipeline`] snapshot, refreshing snapshots between drains when a
//! control plane has published a new version.

use crossbeam::channel::Receiver;
use p4guard_dataplane::pipeline::{BatchScratch, PipelineCell, ReadPipeline};
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_dataplane::Verdict;
use p4guard_packet::arena::FrameBatch;
use p4guard_telemetry::histogram::LatencyHistogram;
use p4guard_telemetry::TelemetrySink;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Live statistics of one lane of a shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LaneStats {
    /// Packet counters, same semantics as a single switch's counters.
    pub counters: SwitchCounters,
    /// Version of the snapshot the lane last processed with.
    pub ruleset_version: u64,
}

/// Live statistics of one shard, readable while the shard runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index within the gateway.
    pub shard: usize,
    /// Per-lane statistics, indexed by lane.
    pub lanes: Vec<LaneStats>,
    /// Frames the classifier mapped to no lane (counted, not processed).
    /// Always 0 on a single-lane gateway, which never classifies.
    pub unclassified: u64,
    /// Per-frame forwarding latency across all lanes.
    pub latency: LatencyHistogram,
    /// Frames taken off the queue:
    /// `Σ lanes.counters.received + unclassified`.
    pub processed: u64,
    /// Queue drains (the ruleset-swap granularity).
    pub batches: u64,
    /// Ruleset swaps this shard picked up, summed over lanes.
    pub swaps_seen: u64,
    /// [`FrameBatch`] messages processed (feeds the
    /// `p4guard_batch_fill` gauge: `processed / frame_batches`).
    #[serde(default)]
    pub frame_batches: u64,
    /// Frames whose ensemble vote early-exited before the last per-tree
    /// stage, skipping the remaining table lookups. Always 0 unless a
    /// published pipeline carries a
    /// [`VoteStage`](p4guard_dataplane::vote::VoteStage) with an early
    /// exit.
    #[serde(default)]
    pub vote_exits: u64,
}

impl ShardStats {
    /// Packet counters summed over the shard's lanes.
    pub fn counters(&self) -> SwitchCounters {
        let mut total = SwitchCounters::default();
        for lane in &self.lanes {
            total.merge(&lane.counters);
        }
        total
    }

    /// Mean frames per processed [`FrameBatch`] (0 before the first batch).
    pub fn batch_fill(&self) -> f64 {
        if self.frame_batches == 0 {
            0.0
        } else {
            self.processed as f64 / self.frame_batches as f64
        }
    }
}

/// One lane of a shard worker: the publication cell it follows, the
/// snapshot it last loaded from it, and its telemetry sink.
pub(crate) struct Lane<S> {
    cell: Arc<PipelineCell>,
    pipeline: Arc<ReadPipeline>,
    sink: S,
}

impl<S: TelemetrySink> Lane<S> {
    pub(crate) fn new(cell: Arc<PipelineCell>, mut sink: S) -> Self {
        let pipeline = cell.load();
        sink.swap_seen(pipeline.version(), &pipeline.stage_names());
        Lane {
            cell,
            pipeline,
            sink,
        }
    }

    /// Picks up the cell's current snapshot if it moved (one atomic load
    /// when it did not). Returns whether a swap happened.
    fn refresh(&mut self) -> bool {
        if self.cell.version() == self.pipeline.version() {
            return false;
        }
        self.pipeline = self.cell.load();
        self.sink
            .swap_seen(self.pipeline.version(), &self.pipeline.stage_names());
        true
    }

    /// Runs the non-empty `batch` through the lane's snapshot into lane
    /// `idx` of `stats`, with one `Instant` read per batch: the batch-mean
    /// cost is attributed to each frame.
    fn serve(
        &mut self,
        batch: &FrameBatch,
        stats: &mut ShardStats,
        idx: usize,
        scratch: &mut BatchScratch,
        verdicts: &mut Vec<Verdict>,
    ) {
        let n = batch.len() as u64;
        let t0 = Instant::now();
        verdicts.clear();
        self.pipeline.process_batch_with(
            batch.data(),
            batch.spans(),
            &mut stats.lanes[idx].counters,
            scratch,
            verdicts,
            &mut self.sink,
        );
        let per_frame = t0.elapsed() / n as u32;
        stats.latency.record_n(per_frame, n);
        self.sink
            .latency_n(u64::try_from(per_frame.as_nanos()).unwrap_or(u64::MAX), n);
        stats.vote_exits += scratch.vote_early_exits();
    }
}

/// Runs one shard to queue exhaustion: blocks for the next message, drains
/// opportunistically up to `batch_size` frames, refreshes every lane's
/// snapshot once per drain, then processes the drained messages.
///
/// The snapshot check is a single atomic load per lane on the fast path,
/// so a concurrent
/// [`ControlPlane::publish`](p4guard_dataplane::control::ControlPlane::publish)
/// never blocks frame processing — the new ruleset simply takes effect at
/// the next drain. A [`FrameBatch`] already in flight when a swap lands is
/// processed entirely against one snapshot.
///
/// With one lane (a single-tenant gateway) each message is processed
/// whole and `classify` is never called. With more, a message is
/// regrouped by `classify(frame)` — lane indices `0..lanes.len()`, anything
/// else counted as unclassified — sharing the chunk, and each lane's
/// frames run through that lane's snapshot into that lane's counters and
/// sink.
pub(crate) fn run_shard<C, S>(
    rx: Receiver<FrameBatch>,
    mut lanes: Vec<Lane<S>>,
    classify: C,
    state: Arc<Mutex<ShardStats>>,
    batch_size: usize,
) where
    C: Fn(&[u8]) -> usize,
    S: TelemetrySink,
{
    let note_versions = |lanes: &[Lane<S>], st: &mut ShardStats| {
        for (lane, stats) in lanes.iter().zip(&mut st.lanes) {
            stats.ruleset_version = lane.pipeline.version();
        }
    };
    note_versions(&lanes, &mut state.lock());
    let mut scratch = BatchScratch::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut queue: Vec<FrameBatch> = Vec::with_capacity(batch_size);
    while let Ok(first) = rx.recv() {
        let mut frames = first.len();
        queue.push(first);
        while frames < batch_size {
            match rx.try_recv() {
                Ok(msg) => {
                    frames += msg.len();
                    queue.push(msg);
                }
                Err(_) => break,
            }
        }
        let swapped = lanes
            .iter_mut()
            .map(|l| u64::from(l.refresh()))
            .sum::<u64>();
        let mut st = state.lock();
        if swapped > 0 {
            st.swaps_seen += swapped;
            note_versions(&lanes, &mut st);
        }
        for batch in queue.drain(..) {
            if batch.is_empty() {
                continue;
            }
            if let [lane] = lanes.as_mut_slice() {
                lane.serve(&batch, &mut st, 0, &mut scratch, &mut verdicts);
            } else {
                let mut parts = batch.partition_by(lanes.len() + 1, &classify);
                let unclassified = parts.pop().map_or(0, |p| p.len());
                st.unclassified += unclassified as u64;
                for (idx, (lane, part)) in lanes.iter_mut().zip(&parts).enumerate() {
                    if !part.is_empty() {
                        lane.serve(part, &mut st, idx, &mut scratch, &mut verdicts);
                    }
                }
            }
            st.processed += batch.len() as u64;
            st.frame_batches += 1;
        }
        st.batches += 1;
        // Flush buffered telemetry while still holding the stats lock:
        // any observer that sees this drain in `ShardStats` (snapshot,
        // drain loops) is guaranteed to find the registry caught up too.
        for lane in &mut lanes {
            lane.sink.batch_end();
        }
    }
}
