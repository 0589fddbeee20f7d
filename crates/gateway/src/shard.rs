//! The shard worker — the one loop every served frame goes through: drains
//! a bounded queue of [`FrameBatch`] messages, regroups each by **lane**
//! (one lane per tenant; a single-tenant gateway has exactly one), and runs
//! every lane's frames through that lane's current
//! [`ReadPipeline`] snapshot, refreshing snapshots between drains when a
//! control plane has published a new version.
//!
//! The worker counts into a [`ShardStats`] block it owns — no lock is held
//! while frames are served — and publishes that block once per drain: each
//! lane's part goes to the lane's sink, then the whole block is added to
//! the shared stats under the mutex.

use crossbeam::channel::Receiver;
use p4guard_dataplane::pipeline::{BatchScratch, PipelineCell, ReadPipeline};
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_dataplane::Verdict;
use p4guard_packet::arena::FrameBatch;
use p4guard_telemetry::histogram::LatencyHistogram;
use p4guard_telemetry::{Counter, TelemetrySink};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::mem::take;
use std::sync::Arc;
use std::time::Instant;

/// Live statistics of one lane of a shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LaneStats {
    /// Packet counters, same semantics as a single switch's counters.
    pub counters: SwitchCounters,
    /// Version of the snapshot the lane last processed with.
    pub ruleset_version: u64,
    /// Per-frame forwarding latency of the lane's frames.
    #[serde(default)]
    pub latency: LatencyHistogram,
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
    /// Frames whose ensemble vote the early exit decided before the last
    /// per-tree stage: their verdict and per-stage counts stop there (one
    /// probe answered every tree, so no lookup is skipped). Always 0
    /// unless a published pipeline carries a
    /// [`VoteStage`](p4guard_dataplane::vote::VoteStage) with an early
    /// exit.
    #[serde(default)]
    pub vote_exits: u64,
    /// Conservation identities found broken when a drain was published:
    /// per lane `received == forwarded + dropped + parser_rejected` and
    /// `dropped ==` its reason split
    /// ([`SwitchCounters::conserved`]), per shard
    /// `processed == Σ lanes.received + unclassified`. Anything but 0 is a
    /// miscount in the serving path.
    #[serde(default)]
    pub conservation_violations: u64,
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

    /// Per-frame forwarding latency across all lanes.
    pub fn latency(&self) -> LatencyHistogram {
        let mut total = LatencyHistogram::new();
        for lane in &self.lanes {
            total.merge(&lane.latency);
        }
        total
    }

    /// Conservation identities `self`, read as one drain's counts, breaks.
    fn conservation_breaches(&self) -> u64 {
        let lanes = self.lanes.iter().filter(|l| !l.counters.conserved());
        let received: u64 = self.lanes.iter().map(|l| l.counters.received).sum();
        lanes.count() as u64 + u64::from(self.processed != received + self.unclassified)
    }

    /// Moves this drain block's counts into the running `totals` (the
    /// lanes' versions are taken over, not added), leaving the block zeroed
    /// in place — every vector keeps its allocation for the next drain.
    fn drain_into(&mut self, totals: &mut ShardStats) {
        for (total, lane) in totals.lanes.iter_mut().zip(&mut self.lanes) {
            total.counters.merge(&lane.counters);
            total.latency.merge(&lane.latency);
            total.ruleset_version = lane.ruleset_version;
            lane.counters.clear();
            lane.latency.clear();
        }
        totals.unclassified += take(&mut self.unclassified);
        totals.processed += take(&mut self.processed);
        totals.batches += take(&mut self.batches);
        totals.swaps_seen += take(&mut self.swaps_seen);
        totals.frame_batches += take(&mut self.frame_batches);
        totals.vote_exits += take(&mut self.vote_exits);
        totals.conservation_violations += take(&mut self.conservation_violations);
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
    /// when it did not) and notes the version served in `stats`. Returns
    /// whether a swap happened.
    fn refresh(&mut self, stats: &mut LaneStats) -> bool {
        let moved = self.cell.version() != self.pipeline.version();
        if moved {
            self.pipeline = self.cell.load();
            self.sink
                .swap_seen(self.pipeline.version(), &self.pipeline.stage_names());
        }
        stats.ruleset_version = self.pipeline.version();
        moved
    }

    /// Runs the non-empty `batch` through the lane's snapshot into lane
    /// `idx` of `stats` (the worker's own drain block), with one `Instant`
    /// read per batch: the batch-mean cost is attributed to each frame.
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
        stats.lanes[idx]
            .latency
            .record_n(t0.elapsed() / n as u32, n);
        stats.vote_exits += scratch.vote_early_exits();
    }
}

/// Runs one shard to queue exhaustion: blocks for the next message, drains
/// opportunistically up to `batch_size` frames, refreshes every lane's
/// snapshot once per drain, processes the drained messages, then publishes
/// what the drain counted.
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
/// frames run through that lane's snapshot into that lane's counters.
///
/// A drain is counted into a block this worker owns, so `state` is never
/// locked while frames are classified or served. It is published in two
/// steps, sinks first: each lane's sink adds the lane's counts to the
/// metrics registry, then the block is added to `state` under its mutex.
/// An observer that finds a drain in `state` therefore finds the registry
/// caught up too. Conservation is checked on the block on the way;
/// breaches are counted in [`ShardStats::conservation_violations`] and,
/// when given, `violations`.
pub(crate) fn run_shard<C, S>(
    rx: Receiver<FrameBatch>,
    mut lanes: Vec<Lane<S>>,
    classify: C,
    state: Arc<Mutex<ShardStats>>,
    batch_size: usize,
    violations: Option<Counter>,
) where
    C: Fn(&[u8]) -> usize,
    S: TelemetrySink,
{
    let mut drain = ShardStats {
        lanes: vec![LaneStats::default(); lanes.len()],
        ..ShardStats::default()
    };
    // Refreshes every lane, counting the swaps into the drain block.
    let refresh = |lanes: &mut [Lane<S>], drain: &mut ShardStats| {
        let swaps = lanes.iter_mut().zip(&mut drain.lanes);
        drain.swaps_seen = swaps.map(|(l, stats)| u64::from(l.refresh(stats))).sum();
    };
    refresh(&mut lanes, &mut drain);
    drain.drain_into(&mut state.lock());
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
        refresh(&mut lanes, &mut drain);
        for batch in queue.drain(..) {
            if batch.is_empty() {
                continue;
            }
            if let [lane] = lanes.as_mut_slice() {
                lane.serve(&batch, &mut drain, 0, &mut scratch, &mut verdicts);
            } else {
                let mut parts = batch.partition_by(lanes.len() + 1, &classify);
                let unclassified = parts.pop().map_or(0, |p| p.len());
                drain.unclassified += unclassified as u64;
                for (idx, (lane, part)) in lanes.iter_mut().zip(&parts).enumerate() {
                    if !part.is_empty() {
                        lane.serve(part, &mut drain, idx, &mut scratch, &mut verdicts);
                    }
                }
            }
            drain.processed += batch.len() as u64;
            drain.frame_batches += 1;
        }
        drain.batches = 1;
        drain.conservation_violations = drain.conservation_breaches();
        for (lane, stats) in lanes.iter_mut().zip(&drain.lanes) {
            lane.sink.batch_end(&stats.counters, &stats.latency);
        }
        if drain.conservation_violations > 0 {
            if let Some(counter) = &violations {
                counter.add(drain.conservation_violations);
            }
        }
        drain.drain_into(&mut state.lock());
    }
}
