//! The software switch: parser + match-action pipeline + counters, with a
//! throughput harness (experiment F4).
//!
//! [`Switch`] is the mutable behavioural model the control plane edits and
//! the **reference oracle** of the serving path: it scans its tables
//! linearly, so nothing here is tuned for speed. Traffic is served by the
//! compiled [`ReadPipeline`](crate::pipeline::ReadPipeline) snapshots taken
//! from it; every differential proptest, conformance schedule and the
//! ledger's fate check replay the same frames through [`Switch::process`]
//! and require identical verdicts and counters.

use crate::action::Verdict;
use crate::compiled::LookupOutcome;
use crate::parser::ParserSpec;
use crate::resources::SwitchResources;
use crate::table::Table;
use crate::vote::{self, Combine, Tally, VoteStage};
use p4guard_packet::trace::Trace;
use p4guard_telemetry::{NoopSink, TelemetrySink};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// Per-switch packet counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchCounters {
    /// Frames handed to the switch.
    pub received: u64,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped by table action.
    pub dropped: u64,
    /// Frames rejected by the parser.
    pub parser_rejected: u64,
    /// Frames mirrored.
    pub mirrored: u64,
    /// User counters (indexed by `Action::Count` ids).
    pub user: Vec<u64>,
}

impl SwitchCounters {
    /// Folds another counter set into this one (shard → gateway totals).
    /// User counters are summed index-wise, growing this set as needed.
    pub fn merge(&mut self, other: &SwitchCounters) {
        self.received += other.received;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        self.parser_rejected += other.parser_rejected;
        self.mirrored += other.mirrored;
        if self.user.len() < other.user.len() {
            self.user.resize(other.user.len(), 0);
        }
        for (acc, v) in self.user.iter_mut().zip(&other.user) {
            *acc += v;
        }
    }
}

/// Result of replaying a batch of frames through the switch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Frames processed.
    pub packets: usize,
    /// Frames dropped (including parser rejects).
    pub dropped: usize,
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// Throughput in packets per second.
    pub pps: f64,
}

/// Throughput in packets per second, defined as 0 for empty or
/// unmeasurably fast runs so serialized stats never carry `inf`/NaN.
pub fn compute_pps(packets: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if packets == 0 || secs <= 0.0 {
        return 0.0;
    }
    packets as f64 / secs
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} packets in {:?} ({:.0} pps), {} dropped",
            self.packets, self.elapsed, self.pps, self.dropped
        )
    }
}

/// A behavioural-model switch: one parser, a pipeline of match-action
/// stages, and a default egress port. See the module docs for its role as
/// the serving path's oracle.
#[derive(Debug, Clone)]
pub struct Switch {
    name: String,
    parser: ParserSpec,
    stages: Vec<Table>,
    default_port: u16,
    counters: SwitchCounters,
    key_buffers: Vec<Vec<u8>>,
    vote: Option<VoteStage>,
}

impl Switch {
    /// Creates a switch with no stages.
    pub fn new(name: impl Into<String>, parser: ParserSpec, default_port: u16) -> Self {
        Switch {
            name: name.into(),
            parser,
            stages: Vec::new(),
            default_port,
            counters: SwitchCounters::default(),
            key_buffers: Vec::new(),
            vote: None,
        }
    }

    /// Switch name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a pipeline stage, returning its index.
    pub fn add_stage(&mut self, table: Table) -> usize {
        self.key_buffers.push(vec![0u8; table.key().width()]);
        self.stages.push(table);
        self.stages.len() - 1
    }

    /// Removes the stage at `idx`, returning its table. Later stages
    /// shift down — relevant under a [`VoteStage`], where stage order is
    /// the vote order and the electorate shrinks by one tree.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn remove_stage(&mut self, idx: usize) -> Table {
        self.key_buffers.remove(idx);
        self.stages.remove(idx)
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Sets (or clears) the ensemble vote interpretation of this switch's
    /// stages. See [`VoteStage`] for the semantics; snapshots taken after
    /// this call carry the vote configuration into the read path.
    pub fn set_vote(&mut self, vote: Option<VoteStage>) {
        self.vote = vote;
    }

    /// The current ensemble vote configuration (`None` = sequential
    /// match-action semantics).
    pub fn vote(&self) -> Option<VoteStage> {
        self.vote
    }

    /// Borrows a stage.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn stage(&self, idx: usize) -> &Table {
        &self.stages[idx]
    }

    /// Mutably borrows a stage (the control-plane entry point).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn stage_mut(&mut self, idx: usize) -> &mut Table {
        &mut self.stages[idx]
    }

    /// Borrows the counters.
    pub fn counters(&self) -> &SwitchCounters {
        &self.counters
    }

    /// Resets all counters.
    pub fn reset_counters(&mut self) {
        self.counters = SwitchCounters::default();
    }

    /// Resource usage of the pipeline.
    pub fn resources(&self) -> SwitchResources {
        SwitchResources::of(&self.stages)
    }

    /// Processes one frame to a verdict, updating counters.
    pub fn process(&mut self, frame: &[u8]) -> Verdict {
        self.process_with(frame, &mut NoopSink)
    }

    /// [`Switch::process`] plus telemetry: per-stage hit/miss, refined
    /// drop reason, and a final verdict report go to `sink`. With
    /// [`NoopSink`] (what [`Switch::process`] passes) the reports compile
    /// to nothing. The behavioral model has no compiled width check — a
    /// wrong-width key simply misses — so the mutable path never reports
    /// `wrong_width`; see
    /// [`ReadPipeline::process_with`](crate::pipeline::ReadPipeline::process_with)
    /// for the compiled path that does.
    pub fn process_with<S: TelemetrySink>(&mut self, frame: &[u8], sink: &mut S) -> Verdict {
        self.counters.received += 1;
        if !self.parser.parse(frame).accepted {
            return vote::parser_reject(frame, &mut self.counters, sink);
        }
        let combine = Combine::of(self.vote);
        let mut tally = Tally::new(self.default_port);
        for (stage, (table, buf)) in self
            .stages
            .iter_mut()
            .zip(&mut self.key_buffers)
            .enumerate()
        {
            table.key().build_key_into(frame, buf);
            let (action, rank) = table.lookup_traced(buf);
            let outcome = rank.map_or(LookupOutcome::Miss, LookupOutcome::Hit);
            if combine.stage(stage, action, outcome, &mut tally, &mut self.counters, sink) {
                break;
            }
        }
        combine.finish(&tally, frame, &mut self.counters, sink)
    }

    /// Replays every frame of `trace`, returning throughput stats.
    pub fn run_trace(&mut self, trace: &Trace) -> RunStats {
        let start = Instant::now();
        let mut dropped = 0usize;
        for record in trace.iter() {
            if self.process(&record.frame).is_drop() {
                dropped += 1;
            }
        }
        let elapsed = start.elapsed();
        let packets = trace.len();
        RunStats {
            packets,
            dropped,
            elapsed,
            pps: compute_pps(packets, elapsed),
        }
    }

    /// Replays raw frames (no labels), returning throughput stats.
    pub fn run_frames<'a>(&mut self, frames: impl IntoIterator<Item = &'a [u8]>) -> RunStats {
        let start = Instant::now();
        let mut packets = 0usize;
        let mut dropped = 0usize;
        for frame in frames {
            packets += 1;
            if self.process(frame).is_drop() {
                dropped += 1;
            }
        }
        let elapsed = start.elapsed();
        RunStats {
            packets,
            dropped,
            elapsed,
            pps: compute_pps(packets, elapsed),
        }
    }

    /// Freezes the current parser, stages and default port into a shareable
    /// read-path snapshot tagged with `version`, lowering every table into
    /// its compiled lookup engine
    /// ([`CompiledTable`](crate::compiled::CompiledTable)). See
    /// [`ReadPipeline`](crate::pipeline::ReadPipeline).
    pub fn read_pipeline(&self, version: u64) -> crate::pipeline::ReadPipeline {
        crate::pipeline::ReadPipeline::from_parts(
            self.parser.clone(),
            self.stages.clone(),
            self.default_port,
            version,
            self.vote,
        )
    }

    /// [`Switch::read_pipeline`] with delta compilation against a previous
    /// snapshot: each stage is re-lowered only if its entries changed since
    /// `prev` was built ([`CompiledTable::recompile`](crate::compiled::CompiledTable::recompile));
    /// unchanged stages are shared as `Arc` clones, and pure entry
    /// additions/removals patch the previous minimized form instead of
    /// re-running the O(n²) minimizer. Falls back to a from-scratch build
    /// when `prev` is absent or its stage count differs (stages were added
    /// or removed). The parser, default port and vote configuration are
    /// always taken fresh, so the snapshot never serves a stale program.
    pub fn read_pipeline_incremental(
        &self,
        version: u64,
        prev: Option<&crate::pipeline::ReadPipeline>,
    ) -> crate::pipeline::ReadPipeline {
        let Some(prev) = prev else {
            return self.read_pipeline(version);
        };
        if prev.stages().len() != self.stages.len() {
            return self.read_pipeline(version);
        }
        let stages: Vec<std::sync::Arc<crate::compiled::CompiledTable>> = self
            .stages
            .iter()
            .zip(prev.stages())
            .map(|(table, prev_stage)| crate::compiled::CompiledTable::recompile(prev_stage, table))
            .collect();
        crate::pipeline::ReadPipeline::from_compiled(
            self.parser.clone(),
            stages,
            self.default_port,
            version,
            self.vote,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::key::KeyLayout;
    use crate::table::{MatchKind, MatchSpec};

    fn firewall_switch() -> Switch {
        let mut sw = Switch::new("gw", ParserSpec::raw_window(8, 1), 1);
        let mut acl = Table::new(
            "acl",
            MatchKind::Ternary,
            KeyLayout::window(2),
            64,
            Action::NoOp,
        );
        acl.insert(
            MatchSpec::Ternary {
                value: vec![0xbb, 0x00],
                mask: vec![0xff, 0x00],
            },
            Action::Drop,
            1,
        )
        .unwrap();
        sw.add_stage(acl);
        sw
    }

    #[test]
    fn pipeline_drops_and_forwards() {
        let mut sw = firewall_switch();
        assert_eq!(sw.process(&[0xbb, 1, 2, 3]), Verdict::Drop);
        assert_eq!(sw.process(&[0xaa, 1, 2, 3]), Verdict::Forward(1));
        let c = sw.counters();
        assert_eq!(c.received, 2);
        assert_eq!(c.dropped, 1);
        assert_eq!(c.forwarded, 1);
    }

    #[test]
    fn parser_rejects_short_frames() {
        let mut sw = Switch::new("s", ParserSpec::raw_window(8, 4), 0);
        assert_eq!(sw.process(&[1, 2]), Verdict::ParserReject);
        assert_eq!(sw.counters().parser_rejected, 1);
    }

    #[test]
    fn forward_action_overrides_port() {
        let mut sw = Switch::new("s", ParserSpec::raw_window(4, 1), 9);
        let mut t = Table::new(
            "route",
            MatchKind::Exact,
            KeyLayout::window(1),
            8,
            Action::NoOp,
        );
        t.insert(MatchSpec::Exact(vec![5]), Action::Forward(2), 0)
            .unwrap();
        sw.add_stage(t);
        assert_eq!(sw.process(&[5, 0, 0, 0]), Verdict::Forward(2));
        assert_eq!(sw.process(&[6, 0, 0, 0]), Verdict::Forward(9));
    }

    #[test]
    fn count_and_mirror_actions() {
        let mut sw = Switch::new("s", ParserSpec::raw_window(4, 1), 0);
        let mut t = Table::new(
            "mon",
            MatchKind::Exact,
            KeyLayout::window(1),
            8,
            Action::NoOp,
        );
        t.insert(MatchSpec::Exact(vec![1]), Action::Count(3), 0)
            .unwrap();
        t.insert(MatchSpec::Exact(vec![2]), Action::Mirror(7), 0)
            .unwrap();
        sw.add_stage(t);
        sw.process(&[1]);
        sw.process(&[1]);
        sw.process(&[2]);
        assert_eq!(sw.counters().user[3], 2);
        assert_eq!(sw.counters().mirrored, 1);
        assert_eq!(sw.counters().forwarded, 3);
    }

    #[test]
    fn multi_stage_pipeline_runs_in_order() {
        let mut sw = Switch::new("s", ParserSpec::raw_window(4, 1), 0);
        let mut allow = Table::new(
            "allow",
            MatchKind::Exact,
            KeyLayout::window(1),
            8,
            Action::NoOp,
        );
        allow
            .insert(MatchSpec::Exact(vec![9]), Action::Forward(5), 0)
            .unwrap();
        let mut deny = Table::new(
            "deny",
            MatchKind::Exact,
            KeyLayout::window(1),
            8,
            Action::NoOp,
        );
        deny.insert(MatchSpec::Exact(vec![9]), Action::Drop, 0)
            .unwrap();
        sw.add_stage(allow);
        sw.add_stage(deny);
        // The deny stage runs after allow and wins with Drop.
        assert_eq!(sw.process(&[9]), Verdict::Drop);
    }

    #[test]
    fn run_frames_reports_stats() {
        let mut sw = firewall_switch();
        let frames: Vec<Vec<u8>> = (0..100u8)
            .map(|i| vec![if i % 4 == 0 { 0xbb } else { 0x11 }, i, 0, 0])
            .collect();
        let stats = sw.run_frames(frames.iter().map(|f| f.as_slice()));
        assert_eq!(stats.packets, 100);
        assert_eq!(stats.dropped, 25);
        assert!(stats.pps > 0.0);
        assert!(stats.to_string().contains("100 packets"));
    }

    #[test]
    fn pps_is_zero_for_degenerate_runs() {
        assert_eq!(compute_pps(0, Duration::from_secs(1)), 0.0);
        assert_eq!(compute_pps(100, Duration::ZERO), 0.0);
        assert_eq!(compute_pps(100, Duration::from_secs(2)), 50.0);
        // An empty replay must serialize finite numbers.
        let mut sw = firewall_switch();
        let stats = sw.run_frames(std::iter::empty());
        assert_eq!(stats.pps, 0.0);
        assert!(stats.pps.is_finite());
        let json = serde_json::to_string(&stats).unwrap();
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn reset_counters() {
        let mut sw = firewall_switch();
        sw.process(&[0xbb, 0, 0, 0]);
        sw.reset_counters();
        assert_eq!(sw.counters(), &SwitchCounters::default());
    }

    #[test]
    fn merge_sums_all_fields_and_grows_user_counters() {
        let mut a = SwitchCounters {
            received: 10,
            forwarded: 6,
            dropped: 2,
            parser_rejected: 2,
            mirrored: 1,
            user: vec![3],
        };
        let b = SwitchCounters {
            received: 5,
            forwarded: 5,
            dropped: 0,
            parser_rejected: 0,
            mirrored: 0,
            user: vec![1, 7],
        };
        a.merge(&b);
        assert_eq!(a.received, 15);
        assert_eq!(a.forwarded, 11);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.parser_rejected, 2);
        assert_eq!(a.mirrored, 1);
        assert_eq!(a.user, vec![4, 7]);
        // Merging into a default is identity.
        let mut zero = SwitchCounters::default();
        zero.merge(&a);
        assert_eq!(zero, a);
    }

    #[test]
    fn process_with_reports_drop_taxonomy() {
        use p4guard_telemetry::{DropReason, TelemetrySink, VerdictKind};

        #[derive(Default)]
        struct Probe {
            drops: Vec<DropReason>,
            verdicts: Vec<(VerdictKind, Option<(usize, u32)>)>,
            lookups: Vec<(usize, bool)>,
        }
        impl TelemetrySink for Probe {
            fn table_lookup(&mut self, stage: usize, hit: bool) {
                self.lookups.push((stage, hit));
            }
            fn drop_frame(&mut self, reason: DropReason) {
                self.drops.push(reason);
            }
            fn verdict(
                &mut self,
                verdict: VerdictKind,
                _frame: &[u8],
                matched: Option<(usize, u32)>,
            ) {
                self.verdicts.push((verdict, matched));
            }
        }

        let mut sw = firewall_switch();
        let mut probe = Probe::default();
        sw.process_with(&[0xbb, 0, 0, 0], &mut probe); // rule drop, rank 0
        sw.process_with(&[0x11, 0, 0, 0], &mut probe); // forward, no match
        assert_eq!(probe.drops, vec![DropReason::RuleDrop]);
        assert_eq!(probe.lookups, vec![(0, true), (0, false)]);
        assert_eq!(
            probe.verdicts,
            vec![
                (VerdictKind::Drop, Some((0, 0))),
                (VerdictKind::Forward, None),
            ]
        );
        // Telemetry and legacy counters agree.
        assert_eq!(sw.counters().dropped, 1);
        assert_eq!(sw.counters().forwarded, 1);
    }
}
