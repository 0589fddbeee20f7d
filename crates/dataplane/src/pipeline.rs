//! The shareable read path: an immutable snapshot of a switch's parser and
//! match-action stages, plus the RCU-style cell that lets worker shards pick
//! up new snapshots between batches without stalling on a lock.
//!
//! [`Switch::process`](crate::switch::Switch::process) mutates the switch
//! (hit counters, per-switch counters), so it cannot be shared across
//! threads without a write lock on the hot path. [`ReadPipeline`] splits
//! that coupling: each table is lowered into its
//! [`CompiledTable`] engine at snapshot
//! time (a bit-vector intersect — see
//! [`compiled`](crate::compiled)), while packet counters live in a
//! caller-owned [`SwitchCounters`]. N shards can then share one snapshot
//! through an `Arc` and their counters sum to exactly what a single switch
//! replay would have produced.

use crate::action::{Action, Verdict};
use crate::compiled::{CompiledTable, LookupOutcome, VoteIndex};
use crate::minimize::Edit;
use crate::parser::ParserSpec;
use crate::switch::SwitchCounters;
use crate::table::Table;
use crate::vote::{self, Combine, Tally, VoteStage};
use p4guard_packet::arena::FrameSpan;
use p4guard_telemetry::{NoopSink, StageKind, TelemetrySink};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reports the wall time since `*stamp` as one profiled stage and
/// advances the stamp. Inert (no clock reads) when profiling is off —
/// `stamp` is `None` unless the sink asked for stage timing.
#[inline]
fn lap<S: TelemetrySink>(
    stamp: &mut Option<Instant>,
    sink: &mut S,
    stage: StageKind,
    table: Option<usize>,
    frames: u64,
) {
    if let Some(s) = stamp.as_mut() {
        let now = Instant::now();
        let nanos = u64::try_from(now.duration_since(*s).as_nanos()).unwrap_or(u64::MAX);
        sink.stage_time(stage, table, nanos, frames);
        *s = now;
    }
}

/// An immutable, shareable snapshot of a switch's forwarding behaviour.
///
/// Created with [`Switch::read_pipeline`](crate::switch::Switch::read_pipeline)
/// or published by
/// [`ControlPlane::publish`](crate::control::ControlPlane::publish).
/// Table hit/miss counters are *not* updated on this path (the snapshot is
/// frozen); packet-level counters go to the [`SwitchCounters`] handed to
/// [`ReadPipeline::process_into`].
#[derive(Debug, Clone)]
pub struct ReadPipeline {
    parser: ParserSpec,
    /// Stages are individually reference-counted so delta compilation can
    /// share unchanged [`CompiledTable`]s across pipeline versions: a
    /// republish that touches one table clones the other stages' `Arc`s
    /// instead of re-lowering them.
    stages: Vec<Arc<CompiledTable>>,
    default_port: u16,
    version: u64,
    /// Widest stage key, fixed at build time so the hot path sizes its
    /// scratch once per packet instead of once per stage.
    max_key_width: usize,
    /// Per stage, whether its [`KeyLayout`](crate::key::KeyLayout) equals
    /// the previous stage's, so the key that stage gathered is this
    /// stage's too.
    key_shared: Vec<bool>,
    /// The combine policy over the stages: `None` is the sequential
    /// first-hit chain, `Some` makes them parallel per-tree lookups feeding
    /// a majority vote (see [`vote`]).
    vote: Option<VoteStage>,
    /// Under a vote, every stage's rows in one index over the union of the
    /// bytes they key on: the table engine built over the stages' rows
    /// when the snapshot is built afresh, and spliced from the previous
    /// snapshot's by the stages' edits on a delta publish. The batched
    /// walker answers the whole vote from one probe per frame.
    fused: Option<VoteIndex>,
}

impl ReadPipeline {
    pub(crate) fn from_parts(
        parser: ParserSpec,
        stages: Vec<Table>,
        default_port: u16,
        version: u64,
        vote: Option<VoteStage>,
    ) -> Self {
        let stages: Vec<Arc<CompiledTable>> = stages
            .iter()
            .map(|t| Arc::new(CompiledTable::compile(t)))
            .collect();
        Self::from_compiled(parser, stages, default_port, version, vote, None)
    }

    /// Assembles a snapshot from already-compiled stages (the delta
    /// compilation path: unchanged stages arrive as `Arc` clones from
    /// `prev`'s snapshot, changed ones patched or freshly lowered). `prev`
    /// is the previous snapshot and the edit each stage's patch made from
    /// its stage there (`None` for a stage shared or compiled afresh): a
    /// vote's fused index is spliced from `prev`'s by those edits where
    /// they apply, and built otherwise (see `VoteIndex::new`).
    pub(crate) fn from_compiled(
        parser: ParserSpec,
        stages: Vec<Arc<CompiledTable>>,
        default_port: u16,
        version: u64,
        vote: Option<VoteStage>,
        prev: Option<(&ReadPipeline, &[Option<Edit>])>,
    ) -> Self {
        let max_key_width = stages.iter().map(|s| s.key().width()).max().unwrap_or(0);
        let key_shared = (0..stages.len())
            .map(|i| i > 0 && stages[i].key() == stages[i - 1].key())
            .collect();
        let prev = prev.and_then(|(p, edits)| Some((p.fused.as_ref()?, &p.stages[..], edits)));
        let fused = vote.map(|_| VoteIndex::new(&stages, prev));
        ReadPipeline {
            parser,
            stages,
            default_port,
            version,
            max_key_width,
            key_shared,
            vote,
            fused,
        }
    }

    /// Whether stage `stage` exists and reads the key the stage before it
    /// gathered: the per-frame walker and the batched first-hit walker
    /// gather once per run of stages with equal layouts.
    fn reuses_key(&self, stage: usize) -> bool {
        self.key_shared.get(stage) == Some(&true)
    }

    /// The ensemble vote configuration this snapshot was built with
    /// (`None` = sequential match-action semantics).
    pub fn vote(&self) -> Option<VoteStage> {
        self.vote
    }

    /// The ruleset version this snapshot was published as.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of match-action stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total installed entries across all stages (source counts, before
    /// minimization).
    pub fn entry_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }

    /// Total rows the lowered engines index across all stages: entries
    /// after minimization, folded into boxes — not the ternary form's TCAM
    /// entries, which `TableUsage` counts.
    pub fn minimized_entry_count(&self) -> usize {
        self.stages.iter().map(|s| s.minimized_len()).sum()
    }

    /// Borrows the compiled stages (e.g. to inspect which lookup engine
    /// each table lowered to, or to `Arc`-share unchanged stages into the
    /// next snapshot).
    pub fn stages(&self) -> &[Arc<CompiledTable>] {
        &self.stages
    }

    /// The scratch length [`ReadPipeline::process_into`] needs: one key of
    /// the widest stage's width (a lookup keeps its probe state on the
    /// stack). Callers may pre-size their scratch to this to avoid even the
    /// first-packet resize.
    pub fn scratch_len(&self) -> usize {
        self.max_key_width
    }

    /// Processes one frame to a verdict, accumulating into `counters` —
    /// the per-frame reference walker. The gateway serves through
    /// [`ReadPipeline::process_batch_with`]; this walk is what the
    /// differential suites compare the batched one against, and the shadow
    /// evaluator's entry point.
    ///
    /// Semantics mirror [`Switch::process`](crate::switch::Switch::process)
    /// exactly, so per-shard counters from this path sum to the totals a
    /// single mutable switch would report for the same frames. `scratch` is
    /// a reusable buffer grown once to [`ReadPipeline::scratch_len`] (the
    /// max key width is precomputed at snapshot build) and never shrunk, so
    /// the steady state allocates nothing.
    pub fn process_into(
        &self,
        frame: &[u8],
        counters: &mut SwitchCounters,
        scratch: &mut Vec<u8>,
    ) -> Verdict {
        self.process_with(frame, counters, scratch, &mut NoopSink)
    }

    /// [`ReadPipeline::process_into`] plus the sampling stream: the final
    /// verdict (with the matched `(stage, rank)`) is reported to `sink`.
    /// With [`NoopSink`] the report is a no-op the compiler erases.
    pub fn process_with<S: TelemetrySink>(
        &self,
        frame: &[u8],
        counters: &mut SwitchCounters,
        scratch: &mut Vec<u8>,
        sink: &mut S,
    ) -> Verdict {
        counters.received += 1;
        if !self.parser.accepts(frame) {
            return vote::parser_reject(frame, counters, sink);
        }
        if scratch.len() < self.max_key_width {
            scratch.resize(self.max_key_width, 0);
        }
        let combine = Combine::of(self.vote);
        let mut tally = Tally::new(self.default_port);
        for (stage, table) in self.stages.iter().enumerate() {
            let width = table.key().width();
            if !self.reuses_key(stage) {
                table.key().build_key_into(frame, &mut scratch[..width]);
            }
            let (action, outcome) = table.lookup_traced(&scratch[..width], &mut []);
            Combine::count_lookups(counters, stage, std::iter::once(outcome));
            if combine.stage(stage, action, outcome, &mut tally, counters) {
                break;
            }
        }
        combine.finish(&tally, frame, counters, sink)
    }

    /// Processes a whole batch of frames (contiguous `data` + one
    /// [`FrameSpan`] per frame), appending one verdict per frame to
    /// `verdicts`, in frame order. This is the only hot path: every frame
    /// the gateway serves goes through it. After a batch parse:
    ///
    /// - **first-hit** stages run as tight staged loops: batch key-extract
    ///   into a contiguous key matrix (once per run of stages with equal
    ///   key layouts — see [`BatchScratch::keys_built`]) → batch lookup via
    ///   [`CompiledTable::lookup_batch`] → combine. A frame leaves the alive
    ///   set at the stage whose action drops it and costs nothing in the
    ///   stages after.
    /// - a **vote** is answered from one bit-vector over every stage's
    ///   rows, derived when the snapshot is built: one gather of the union
    ///   of the bytes the stages key on and one probe per parsed frame,
    ///   whose stage
    ///   outcomes replay through the combine in stage order. The
    ///   [`EarlyExit`](crate::vote::EarlyExit) decides the verdict and the
    ///   counts — the walk over the probe's words ends with the vote — but
    ///   saves no lookup: the one probe answers every stage. Votes decided
    ///   with at least one stage still ahead are counted in
    ///   [`BatchScratch::vote_early_exits`].
    ///
    /// Results are **bit-identical** to calling
    /// [`ReadPipeline::process_with`] once per frame: counters — drop
    /// reasons and per-stage hits included — accumulate to the same totals,
    /// `verdicts` matches the per-frame verdict sequence, and sink `verdict`
    /// reports are emitted in frame order (in a deferred pass after the
    /// staged loops) so positional samplers like the flight recorder
    /// observe the same stream.
    pub fn process_batch_with<S: TelemetrySink>(
        &self,
        data: &[u8],
        spans: &[FrameSpan],
        counters: &mut SwitchCounters,
        scratch: &mut BatchScratch,
        verdicts: &mut Vec<Verdict>,
        sink: &mut S,
    ) {
        let n = spans.len();
        counters.received += n as u64;
        scratch.reset(n, self.default_port);
        let combine = Combine::of(self.vote);
        let frame_of = |s: &FrameSpan| &data[s.offset as usize..s.end()];
        // One clock read per stage boundary, and none at all unless the
        // sink opted into profiling.
        let mut stamp = sink.profiling_enabled().then(Instant::now);

        // Stage 0: batch parse. Rejected frames never enter the alive set.
        for (i, span) in spans.iter().enumerate() {
            if self.parser.accepts(frame_of(span)) {
                scratch.alive.push(i as u32);
            } else {
                scratch.parsed[i] = false;
            }
        }
        lap(&mut stamp, sink, StageKind::Parse, None, n as u64);

        if let Some(fused) = &self.fused {
            // A vote: one gather of the union key and one probe per parsed
            // frame, whose stage outcomes replay through the combine in
            // stage order until the vote is decided.
            let width = fused.key().width();
            let alive_len = scratch.alive.len();
            grow(&mut scratch.keys, alive_len * width, 0);
            fused.key().gather_into(
                scratch.alive.iter().map(|&i| frame_of(&spans[i as usize])),
                &mut scratch.keys[..alive_len * width],
            );
            scratch.keys_built += alive_len as u64;
            lap(
                &mut stamp,
                sink,
                StageKind::KeyExtract,
                None,
                alive_len as u64,
            );
            self.vote_walk(fused, counters, scratch);
            lap(&mut stamp, sink, StageKind::Lookup, None, alive_len as u64);
        } else {
            // First-hit: stage by stage over the frames still alive.
            for (stage, table) in self.stages.iter().enumerate() {
                if scratch.alive.is_empty() {
                    break;
                }
                let width = table.key().width();
                let alive_len = scratch.alive.len();
                // Batch key extraction: one contiguous row per alive frame, so
                // the extraction loop touches the key matrix strictly forward.
                // A stage sharing the previous stage's layout finds its rows
                // already there, compacted beside the alive set. The matrix
                // and the lookup buffer only grow: every row and slot a stage
                // reads is written first.
                if !self.reuses_key(stage) {
                    grow(&mut scratch.keys, alive_len * width, 0);
                    table.key().gather_into(
                        scratch.alive.iter().map(|&i| frame_of(&spans[i as usize])),
                        &mut scratch.keys[..alive_len * width],
                    );
                    scratch.keys_built += alive_len as u64;
                    lap(
                        &mut stamp,
                        sink,
                        StageKind::KeyExtract,
                        Some(stage),
                        alive_len as u64,
                    );
                }
                grow(
                    &mut scratch.lookups,
                    alive_len,
                    (Action::NoOp, LookupOutcome::Miss),
                );
                let lookups = &mut scratch.lookups[..alive_len];
                table.lookup_batch(&scratch.keys, width, &mut [], lookups);
                lap(
                    &mut stamp,
                    sink,
                    StageKind::Lookup,
                    Some(stage),
                    alive_len as u64,
                );
                let outcomes = lookups.iter().map(|&(_, outcome)| outcome);
                Combine::count_lookups(counters, stage, outcomes);
                // Combine, compacting the alive set in place — and the key
                // rows with it, when the next stage will read them.
                let keep_keys = self.reuses_key(stage + 1);
                let mut kept = 0usize;
                for (j, &(action, outcome)) in lookups.iter().enumerate() {
                    let i = scratch.alive[j] as usize;
                    let tally = &mut scratch.tally[i];
                    if combine.stage(stage, action, outcome, tally, counters) {
                        continue;
                    }
                    scratch.alive[kept] = i as u32;
                    if keep_keys && kept != j {
                        scratch
                            .keys
                            .copy_within(j * width..(j + 1) * width, kept * width);
                    }
                    kept += 1;
                }
                scratch.alive.truncate(kept);
                lap(
                    &mut stamp,
                    sink,
                    StageKind::Apply,
                    Some(stage),
                    alive_len as u64,
                );
            }
        }

        // Deferred frame-order pass: form and count each verdict and emit
        // its report exactly as the per-frame walk would have.
        verdicts.reserve(n);
        for (i, span) in spans.iter().enumerate() {
            let frame = frame_of(span);
            verdicts.push(if scratch.parsed[i] {
                combine.finish(&scratch.tally[i], frame, counters, sink)
            } else {
                vote::parser_reject(frame, counters, sink)
            });
        }
        lap(&mut stamp, sink, StageKind::Report, None, n as u64);
    }

    /// The batched vote's probe and replay: each alive frame's key, gathered
    /// into `scratch`, probed once through `fused`, its stage outcomes
    /// counted and combined in stage order until the vote is decided. Out
    /// of line, so the first-hit walker's loops compile as they would
    /// alone.
    #[inline(never)]
    fn vote_walk(
        &self,
        fused: &VoteIndex,
        counters: &mut SwitchCounters,
        scratch: &mut BatchScratch,
    ) {
        let combine = Combine::of(self.vote);
        let last_stage = self.stages.len().saturating_sub(1);
        let BatchScratch {
            keys,
            alive,
            tally,
            exited,
            ..
        } = scratch;
        fused.lookup_batch(keys, alive, |&mut i, stage, action, outcome| {
            Combine::count_lookups(counters, stage, std::iter::once(outcome));
            let decided = combine.stage(stage, action, outcome, &mut tally[i as usize], counters);
            *exited += u64::from(decided && stage < last_stage);
            decided
        });
    }

    /// [`ReadPipeline::process_batch_with`] without telemetry.
    pub fn process_batch_into(
        &self,
        data: &[u8],
        spans: &[FrameSpan],
        counters: &mut SwitchCounters,
        scratch: &mut BatchScratch,
        verdicts: &mut Vec<Verdict>,
    ) {
        self.process_batch_with(data, spans, counters, scratch, verdicts, &mut NoopSink)
    }

    /// `(stage index, table name)` pairs for telemetry sinks rebuilding
    /// their per-stage series after a swap.
    pub fn stage_names(&self) -> Vec<(usize, String)> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.name().to_string()))
            .collect()
    }
}

/// Lengthens `buf` to at least `len` with `fill`, never shortening it.
fn grow<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T) {
    if buf.len() < len {
        buf.resize(len, fill);
    }
}

/// Reusable working memory for [`ReadPipeline::process_batch_with`].
///
/// All vectors grow to the high-water batch size once and are reused across
/// batches, so the steady-state batched hot loop allocates nothing. One
/// scratch belongs to one worker; it carries no state across batches.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Contiguous key matrix: a row of the current stage's key width — a
    /// vote's union key — per alive frame (rows past `alive.len()` are
    /// stale).
    keys: Vec<u8>,
    /// Per-alive-frame lookup results for the current stage (slots past
    /// the stage's alive count are stale).
    lookups: Vec<(Action, LookupOutcome)>,
    /// Indices of frames still flowing through the stages.
    alive: Vec<u32>,
    /// Whether the parser accepted each frame.
    parsed: Vec<bool>,
    /// What each frame accumulated through the stages.
    tally: Vec<Tally>,
    /// Frames whose vote early-exited with at least one stage left, in
    /// the most recent batch.
    exited: u64,
    /// Key rows gathered from frames in the most recent batch.
    keys_built: u64,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Frames in the most recent batch whose ensemble vote was decided by
    /// the early exit before the last stage: their verdict and per-stage
    /// counts stop there. No lookup is skipped — one probe answered every
    /// stage — only the rest of the walk over its words. Always 0 for
    /// pipelines without a [`VoteStage`].
    pub fn vote_early_exits(&self) -> u64 {
        self.exited
    }

    /// Keys gathered from frame bytes in the most recent batch: under a
    /// vote, one per parsed frame, however many trees vote; under
    /// first-hit, one per frame alive at the first stage of each run of
    /// stages with equal key layouts.
    pub fn keys_built(&self) -> u64 {
        self.keys_built
    }

    fn reset(&mut self, n: usize, default_port: u16) {
        self.alive.clear();
        self.alive.reserve(n);
        self.parsed.clear();
        self.parsed.resize(n, true);
        self.tally.clear();
        self.tally.resize(n, Tally::new(default_port));
        self.exited = 0;
        self.keys_built = 0;
    }
}

/// An RCU-style publication point for [`ReadPipeline`] snapshots.
///
/// Readers poll [`PipelineCell::version`] (one atomic load) between batches
/// and only take the read lock when the version actually moved, so a swap
/// never stalls the forwarding path: workers finish their in-flight batch
/// on the old snapshot and pick up the new one at the next batch boundary.
#[derive(Debug)]
pub struct PipelineCell {
    version: AtomicU64,
    current: RwLock<Arc<ReadPipeline>>,
}

impl PipelineCell {
    /// Creates a cell holding `pipeline` as the current snapshot.
    pub fn new(pipeline: ReadPipeline) -> Self {
        PipelineCell {
            version: AtomicU64::new(pipeline.version()),
            current: RwLock::new(Arc::new(pipeline)),
        }
    }

    /// The version of the current snapshot (one atomic load; the fast-path
    /// check for workers).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones out the current snapshot.
    pub fn load(&self) -> Arc<ReadPipeline> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replaces the current snapshot, returning its version.
    pub fn publish(&self, pipeline: Arc<ReadPipeline>) -> u64 {
        let version = pipeline.version();
        *self.current.write() = pipeline;
        // Bump the fast-path version only after the snapshot is visible, so
        // a reader that observes the new version always loads the new
        // snapshot.
        self.version.store(version, Ordering::Release);
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyLayout;
    use crate::switch::tests::firewall_switch as switch_with_acl;
    use crate::switch::Switch;
    use crate::table::{MatchKind, MatchSpec};

    #[test]
    fn read_pipeline_matches_switch_process() {
        let mut sw = switch_with_acl();
        let pipeline = sw.read_pipeline(1);
        let frames: Vec<Vec<u8>> = (0..40u8)
            .map(|i| vec![i.wrapping_mul(7), i, 0, 0])
            .collect();
        let mut counters = SwitchCounters::default();
        let mut scratch = Vec::new();
        for frame in &frames {
            let a = sw.process(frame);
            let b = pipeline.process_into(frame, &mut counters, &mut scratch);
            assert_eq!(a, b);
        }
        assert_eq!(&counters, sw.counters());
    }

    #[test]
    fn read_pipeline_is_frozen_at_snapshot_time() {
        let mut sw = switch_with_acl();
        let pipeline = sw.read_pipeline(1);
        sw.stage_mut(0).clear();
        // The snapshot still drops; the mutated switch no longer does.
        let mut counters = SwitchCounters::default();
        let mut scratch = Vec::new();
        assert!(pipeline
            .process_into(&[0xbb, 0, 0, 0], &mut counters, &mut scratch)
            .is_drop());
        assert!(!sw.process(&[0xbb, 0, 0, 0]).is_drop());
        assert_eq!(pipeline.entry_count(), 1);
    }

    #[test]
    fn snapshot_compiles_stages_and_sizes_scratch() {
        let sw = switch_with_acl();
        let pipeline = sw.read_pipeline(1);
        assert_eq!(pipeline.stages().len(), 1);
        assert_eq!(pipeline.stages()[0].strategy(), "bit-vector");
        // Key width 2 → one key of two bytes.
        assert_eq!(pipeline.scratch_len(), 2);
        // A pre-sized scratch is never regrown by the hot path.
        let mut counters = SwitchCounters::default();
        let mut scratch = vec![0u8; pipeline.scratch_len()];
        pipeline.process_into(&[0xaa, 0, 0, 0], &mut counters, &mut scratch);
        assert_eq!(scratch.len(), pipeline.scratch_len());
    }

    #[test]
    fn batched_processing_matches_per_frame_path() {
        let sw = switch_with_acl();
        let pipeline = sw.read_pipeline(1);
        // Mix of forwards, rule drops, and short frames.
        let mut arena = p4guard_packet::arena::FrameArena::new(1024);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for i in 0..64u8 {
            let frame = if i % 5 == 0 {
                vec![0xbb, i, 0, 0, 0, 0, 0, 0]
            } else if i % 11 == 0 {
                vec![i, i] // too short for the 8-byte parser window
            } else {
                vec![i.wrapping_mul(7), i, 0, 0, 0, 0, 0, 0]
            };
            arena.push(&frame);
            frames.push(frame);
        }
        let batch = arena.seal_batch();

        let mut per_counters = SwitchCounters::default();
        let mut scratch = Vec::new();
        let per_verdicts: Vec<Verdict> = frames
            .iter()
            .map(|f| pipeline.process_into(f, &mut per_counters, &mut scratch))
            .collect();

        let mut batch_counters = SwitchCounters::default();
        let mut batch_scratch = BatchScratch::new();
        let mut batch_verdicts = Vec::new();
        pipeline.process_batch_into(
            batch.data(),
            batch.spans(),
            &mut batch_counters,
            &mut batch_scratch,
            &mut batch_verdicts,
        );
        assert_eq!(batch_verdicts, per_verdicts);
        assert_eq!(batch_counters, per_counters);
    }

    #[test]
    fn batched_scratch_is_reusable_across_batches() {
        let sw = switch_with_acl();
        let pipeline = sw.read_pipeline(1);
        let mut arena = p4guard_packet::arena::FrameArena::new(256);
        arena.push(&[0x01, 0, 0, 0, 0, 0, 0, 0]);
        let first = arena.seal_batch();
        arena.push(&[0xbb, 0, 0, 0, 0, 0, 0, 0]);
        arena.push(&[0x02, 0, 0, 0, 0, 0, 0, 0]);
        let second = arena.seal_batch();
        let mut counters = SwitchCounters::default();
        let mut scratch = BatchScratch::new();
        let mut verdicts = Vec::new();
        pipeline.process_batch_into(
            first.data(),
            first.spans(),
            &mut counters,
            &mut scratch,
            &mut verdicts,
        );
        pipeline.process_batch_into(
            second.data(),
            second.spans(),
            &mut counters,
            &mut scratch,
            &mut verdicts,
        );
        assert_eq!(
            verdicts,
            [Verdict::Forward(1), Verdict::Drop, Verdict::Forward(1)]
        );
        assert_eq!(counters.received, 3);
        assert_eq!(counters.dropped, 1);
        assert_eq!(counters.forwarded, 2);
    }

    /// A 3-stage "forest" over one key byte: tree 0 hits on the top bit,
    /// tree 1 on the next bit, tree 2 is benign-only (empty stage).
    fn forest_switch(vote: VoteStage) -> Switch {
        let mut sw = Switch::new("forest", ParserSpec::raw_window(8, 1), 1);
        for (name, bit) in [("tree0", 0x80u8), ("tree1", 0x40u8)] {
            let mut t = Table::new(
                name,
                MatchKind::Ternary,
                KeyLayout::window(1),
                8,
                Action::NoOp,
            );
            t.insert(
                MatchSpec::Ternary {
                    value: vec![bit],
                    mask: vec![bit],
                },
                Action::Drop,
                1,
            )
            .unwrap();
            sw.add_stage(t);
        }
        sw.add_stage(Table::new(
            "tree2",
            MatchKind::Ternary,
            KeyLayout::window(1),
            8,
            Action::NoOp,
        ));
        sw.set_vote(Some(vote));
        sw
    }

    #[test]
    fn vote_mode_majority_decides_and_paths_agree() {
        for early_exit in [
            None,
            Some(crate::vote::EarlyExit {
                min_votes: 2,
                margin: 2,
            }),
        ] {
            let mut sw = forest_switch(VoteStage { early_exit });
            let pipeline = sw.read_pipeline(1);
            let mut arena = p4guard_packet::arena::FrameArena::new(8192);
            let frames: Vec<Vec<u8>> = (0..=255u8).map(|v| vec![v, 0, 0, 0, 0, 0, 0, 0]).collect();
            for f in &frames {
                arena.push(f);
            }
            let batch = arena.seal_batch();

            let mut per_counters = SwitchCounters::default();
            let mut scratch = Vec::new();
            let per: Vec<Verdict> = frames
                .iter()
                .map(|f| pipeline.process_into(f, &mut per_counters, &mut scratch))
                .collect();
            let mut batch_counters = SwitchCounters::default();
            let mut bs = BatchScratch::new();
            let mut batched = Vec::new();
            pipeline.process_batch_into(
                batch.data(),
                batch.spans(),
                &mut batch_counters,
                &mut bs,
                &mut batched,
            );
            assert_eq!(per, batched);
            assert_eq!(per_counters, batch_counters);
            for (v, verdict) in per.iter().enumerate() {
                // 2-of-3 majority: attack only when both top bits are set
                // (the empty tree 2 always votes benign).
                let expect_drop = v & 0xc0 == 0xc0;
                assert_eq!(verdict.is_drop(), expect_drop, "byte {v:#x}");
                assert_eq!(sw.process(&frames[v]).is_drop(), expect_drop);
            }
            if early_exit.is_some() {
                // Exactly the frames whose first two trees agree reach a
                // 2-0 lead and skip the third lookup.
                let decided_early = (0..=255usize)
                    .filter(|v| (v & 0xc0 == 0xc0) || (v & 0xc0 == 0))
                    .count() as u64;
                assert_eq!(bs.vote_early_exits(), decided_early);
            } else {
                assert_eq!(bs.vote_early_exits(), 0);
            }
        }
    }

    #[test]
    fn empty_stages_still_vote_benign() {
        // One attack tree outvoted by two benign-only (empty) stages: the
        // electorate must include the empty stages, so nothing drops.
        let mut sw = Switch::new("outvoted", ParserSpec::raw_window(8, 1), 1);
        let mut t = Table::new(
            "tree0",
            MatchKind::Ternary,
            KeyLayout::window(1),
            8,
            Action::NoOp,
        );
        t.insert(
            MatchSpec::Ternary {
                value: vec![0x00],
                mask: vec![0x00],
            },
            Action::Drop,
            1,
        )
        .unwrap();
        sw.add_stage(t);
        for name in ["tree1", "tree2"] {
            sw.add_stage(Table::new(
                name,
                MatchKind::Ternary,
                KeyLayout::window(1),
                8,
                Action::NoOp,
            ));
        }
        sw.set_vote(Some(VoteStage::majority()));
        let pipeline = sw.read_pipeline(1);
        let mut counters = SwitchCounters::default();
        let mut scratch = Vec::new();
        let v = pipeline.process_into(&[0xff, 0, 0, 0, 0, 0, 0, 0], &mut counters, &mut scratch);
        assert_eq!(v, Verdict::Forward(1), "1 attack vs 2 benign forwards");
        // Removing the empty stages flips the vote: 1-tree forest drops.
        sw.remove_stage(2);
        sw.remove_stage(1);
        let one_tree = sw.read_pipeline(2);
        assert_eq!(one_tree.stage_count(), 1);
        assert!(one_tree
            .process_into(&[0xff, 0, 0, 0, 0, 0, 0, 0], &mut counters, &mut scratch)
            .is_drop());
    }

    #[test]
    fn cell_publish_bumps_version_and_swaps_snapshot() {
        let mut sw = switch_with_acl();
        let cell = PipelineCell::new(sw.read_pipeline(1));
        assert_eq!(cell.version(), 1);
        let old = cell.load();
        sw.stage_mut(0).clear();
        cell.publish(Arc::new(sw.read_pipeline(2)));
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.load().entry_count(), 0);
        // The old snapshot stays valid for readers still holding it.
        assert_eq!(old.entry_count(), 1);
    }
}
