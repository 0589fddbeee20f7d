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
use p4guard_telemetry::NoopSink;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

pub use p4guard_telemetry::SwitchCounters;

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

    /// Processes one frame to a verdict, updating counters — drop reason
    /// and per-stage hits included, so `counters()` compares `==` with what
    /// the compiled walkers count for the same frames. The behavioral model
    /// has no compiled width check — it builds each key to its stage's
    /// width, as the compiled walkers do — so no path counts
    /// `wrong_width`.
    pub fn process(&mut self, frame: &[u8]) -> Verdict {
        self.counters.received += 1;
        if !self.parser.accepts(frame) {
            return vote::parser_reject(frame, &mut self.counters, &mut NoopSink);
        }
        let combine = Combine::of(self.vote);
        let mut tally = Tally::new(self.default_port);
        for (stage, (table, buf)) in self.stages.iter().zip(&mut self.key_buffers).enumerate() {
            table.key().build_key_into(frame, buf);
            let (action, rank) = table.lookup_traced(buf);
            let outcome = rank.map_or(LookupOutcome::Miss, LookupOutcome::Hit);
            Combine::count_lookups(&mut self.counters, stage, std::iter::once(outcome));
            if combine.stage(stage, action, outcome, &mut tally, &mut self.counters) {
                break;
            }
        }
        combine.finish(&tally, frame, &mut self.counters, &mut NoopSink)
    }

    /// Replays every frame of `trace`, returning throughput stats.
    pub fn run_trace(&mut self, trace: &Trace) -> RunStats {
        self.run_frames(trace.iter().map(|record| &record.frame[..]))
    }

    /// Replays raw frames (no labels), returning throughput stats read off
    /// the counters the replay moved.
    pub fn run_frames<'a>(&mut self, frames: impl IntoIterator<Item = &'a [u8]>) -> RunStats {
        let (received, forwarded) = (self.counters.received, self.counters.forwarded);
        let start = Instant::now();
        for frame in frames {
            self.process(frame);
        }
        let elapsed = start.elapsed();
        let packets = (self.counters.received - received) as usize;
        RunStats {
            packets,
            dropped: packets - (self.counters.forwarded - forwarded) as usize,
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
    /// snapshot: each stage is re-lowered only if it was edited since
    /// `prev` was built ([`CompiledTable::recompile`](crate::compiled::CompiledTable::recompile));
    /// unchanged stages are shared as `Arc` clones, and pure entry
    /// additions/removals patch the previous minimized form instead of
    /// re-running the O(n²) minimizer: a walk over the stage's entries,
    /// the minimized list patched with each kept row's box shared, and the
    /// previous engine spliced by the same edit, and so is a vote's fused
    /// index, by every patched stage's edit. A stage replaced by
    /// another table (one [`Table::new`](crate::table::Table::new) made,
    /// not a clone of the old one) compiles from scratch, and so does
    /// every stage when `prev` is absent or its stage count differs
    /// (stages were added or removed). The parser, default port and vote
    /// configuration are always taken fresh, so the snapshot never serves a
    /// stale program.
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
        let (stages, edits): (Vec<_>, Vec<_>) = self
            .stages
            .iter()
            .zip(prev.stages())
            .map(|(table, prev_stage)| {
                crate::compiled::CompiledTable::recompile_with_edit(prev_stage, table)
            })
            .unzip();
        crate::pipeline::ReadPipeline::from_compiled(
            self.parser.clone(),
            stages,
            self.default_port,
            version,
            self.vote,
            Some((prev, &edits)),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::action::Action;
    use crate::key::KeyLayout;
    use crate::table::{MatchKind, MatchSpec};

    /// An 8-byte-window switch whose one ternary stage drops `0xbb ..`.
    pub(crate) fn firewall_switch() -> Switch {
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
            rule_drop: 1,
            no_rule: 1,
            wrong_width: 0,
            stages: vec![(3, 5)],
        };
        let b = SwitchCounters {
            received: 5,
            forwarded: 4,
            dropped: 1,
            rule_drop: 1,
            user: vec![1, 7],
            stages: vec![(1, 4), (0, 4)],
            ..SwitchCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.received, 15);
        assert_eq!(a.forwarded, 10);
        assert_eq!(a.dropped, 3);
        assert_eq!((a.rule_drop, a.no_rule, a.wrong_width), (2, 1, 0));
        assert_eq!(a.parser_rejected, 2);
        assert_eq!(a.mirrored, 1);
        assert_eq!(a.user, vec![4, 7]);
        assert_eq!(a.stages, vec![(4, 9), (0, 4)]);
        assert!(a.conserved());
        // Merging into a default is identity.
        let mut zero = SwitchCounters::default();
        zero.merge(&a);
        assert_eq!(zero, a);
        // A cleared block merges as nothing and keeps its vectors.
        zero.clear();
        assert_eq!((zero.user.capacity() >= 2, zero.stages.len()), (true, 2));
        let before = a.clone();
        a.merge(&zero);
        assert_eq!(a, before);
    }

    #[test]
    fn counters_carry_drop_reasons_and_stage_hits() {
        let mut sw = firewall_switch();
        sw.process(&[0xbb, 0, 0, 0]); // rule drop, rank 0
        sw.process(&[0x11, 0, 0, 0]); // forward, no match
        let c = sw.counters();
        assert_eq!((c.dropped, c.forwarded), (1, 1));
        assert_eq!((c.rule_drop, c.no_rule, c.wrong_width), (1, 0, 0));
        assert_eq!(c.stages, vec![(1, 1)]);
        assert!(c.conserved());

        // A default-drop stage: the miss is a `no_rule` drop.
        let mut sw = Switch::new("s", ParserSpec::raw_window(8, 1), 1);
        sw.add_stage(Table::new(
            "deny",
            MatchKind::Exact,
            KeyLayout::window(1),
            8,
            Action::Drop,
        ));
        assert_eq!(sw.process(&[7]), Verdict::Drop);
        assert_eq!(sw.process(&[]), Verdict::ParserReject);
        let c = sw.counters();
        assert_eq!((c.dropped, c.no_rule, c.parser_rejected), (1, 1, 1));
        assert_eq!(c.stages, vec![(0, 1)], "a rejected frame reaches no stage");
        assert!(c.conserved());
    }
}
