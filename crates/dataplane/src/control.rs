//! The control plane: swaps compiled rule sets into switch tables and
//! publishes the result (the "dynamically reconfigurable" claim). One verb
//! writes rules — [`ControlPlane::replace_rulesets`], whose one-stage call
//! is [`ControlPlane::replace_ruleset`] — and one body,
//! `publish_snapshot`, fans a snapshot out to the subscribed cells.
//! [`ControlPlane::apply_ruleset_diff`] is kept as a reference-only path
//! for the ledger and the `delta_swap` oracle; experiment F10 times the
//! table primitives underneath (`Table::insert` / `Table::remove`), not
//! this API.

use crate::action::Action;
use crate::pipeline::{PipelineCell, ReadPipeline};
use crate::switch::Switch;
use crate::table::{MatchKind, MatchSpec, Table, TableError};
use p4guard_rules::ruleset::{RuleSet, RuleSetDiff};
use p4guard_rules::ternary::TernaryEntry;
use p4guard_telemetry::{control_trace_id, Event, FlightRecorder, SpanRecord, TraceStore};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many published snapshots the control plane retains for
/// [`ControlPlane::republish`] / [`ControlPlane::rollback_to`].
const HISTORY_CAP: usize = 16;

/// Outcome of publishing a pipeline snapshot to subscribed cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublishReport {
    /// Version assigned to the published snapshot.
    pub version: u64,
    /// Entries in the published snapshot, across all stages.
    pub entries: usize,
    /// Cells the snapshot was pushed to.
    pub subscribers: usize,
    /// Wall-clock time to snapshot and publish.
    pub elapsed: Duration,
    /// Stages re-lowered for this snapshot (delta compilation rebuilt or
    /// patched them because their entries changed).
    #[serde(default)]
    pub stages_recompiled: usize,
    /// Stages shared unchanged (`Arc` clones) from the previous snapshot.
    #[serde(default)]
    pub stages_shared: usize,
}

/// Errors from targeted publication and version-history operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// A subscriber index in a targeted publish was out of range.
    NoSuchSubscriber {
        /// The offending index.
        index: usize,
        /// How many cells are subscribed.
        subscribers: usize,
    },
    /// The requested version is not (or no longer) in the retained history.
    UnknownVersion {
        /// The version that was asked for.
        version: u64,
        /// Versions currently retained, oldest first.
        retained: Vec<u64>,
    },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::NoSuchSubscriber { index, subscribers } => {
                write!(f, "no subscriber {index} (have {subscribers})")
            }
            PublishError::UnknownVersion { version, retained } => {
                write!(
                    f,
                    "version {version} not in history (retained {retained:?})"
                )
            }
        }
    }
}

impl Error for PublishError {}

/// A control plane bound to one switch. Clones share the switch, the
/// subscriber list, the version counter, the snapshot history and the
/// audit recorder.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    switch: Arc<RwLock<Switch>>,
    subscribers: Arc<Mutex<Vec<Arc<PipelineCell>>>>,
    next_version: Arc<AtomicU64>,
    recorder: Arc<Mutex<Option<Arc<FlightRecorder>>>>,
    tracer: Arc<Mutex<Option<Arc<TraceStore>>>>,
    history: Arc<Mutex<VecDeque<Arc<ReadPipeline>>>>,
    /// The most recently compiled snapshot, kept as the delta-compilation
    /// baseline: the next [`ControlPlane::snapshot`] re-lowers only the
    /// stages whose entries changed since this one was built and shares
    /// the rest by `Arc` clone.
    last_compiled: Arc<Mutex<Option<Arc<ReadPipeline>>>>,
}

impl ControlPlane {
    /// Wraps a switch for control-plane management.
    pub fn new(switch: Switch) -> Self {
        ControlPlane {
            switch: Arc::new(RwLock::new(switch)),
            subscribers: Arc::new(Mutex::new(Vec::new())),
            next_version: Arc::new(AtomicU64::new(1)),
            recorder: Arc::new(Mutex::new(None)),
            tracer: Arc::new(Mutex::new(None)),
            history: Arc::new(Mutex::new(VecDeque::new())),
            last_compiled: Arc::new(Mutex::new(None)),
        }
    }

    /// Attaches a flight recorder; every publish from any clone then
    /// leaves a swap audit event ([`Event::Swap`]) in it.
    pub fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.recorder.lock() = Some(recorder);
    }

    /// Attaches a trace store; every publish / republish / rollback from
    /// any clone then records a span tree under the control-plane trace id
    /// of the involved version ([`control_trace_id`]), joinable from the
    /// `trace_id` its audit event carries.
    pub fn set_tracer(&self, tracer: Arc<TraceStore>) {
        *self.tracer.lock() = Some(tracer);
    }

    /// Records the span tree of one control-plane operation: a root named
    /// `name` (trace id derived from `version`) spanning `total_ns`, with
    /// one sequential child per `(name, duration)` pair. Returns the trace
    /// id for the caller's audit event, or `None` when no enabled tracer
    /// is attached.
    fn trace_control(
        &self,
        name: &str,
        version: u64,
        total_ns: u64,
        children: &[(&str, u64)],
    ) -> Option<u64> {
        let tracer = self.tracer.lock().clone()?;
        if !tracer.enabled() {
            return None;
        }
        let trace_id = control_trace_id(version);
        let start = tracer.now_ns().saturating_sub(total_ns);
        let root = tracer.next_span_id();
        tracer.record(SpanRecord {
            trace_id,
            span_id: root,
            parent_id: None,
            name: name.to_string(),
            start_ns: start,
            duration_ns: total_ns,
            meta: vec![("version".to_string(), version.to_string())],
        });
        let mut offset = start;
        for &(child, duration) in children {
            tracer.record(SpanRecord {
                trace_id,
                span_id: tracer.next_span_id(),
                parent_id: Some(root),
                name: child.to_string(),
                start_ns: offset,
                duration_ns: duration,
                meta: Vec::new(),
            });
            offset += duration;
        }
        Some(trace_id)
    }

    fn stage_checked(sw: &mut Switch, stage: usize) -> Result<&mut Table, TableError> {
        let stages = sw.stage_count();
        if stage >= stages {
            return Err(TableError::NoSuchStage { stage, stages });
        }
        Ok(sw.stage_mut(stage))
    }

    /// Runs `f` with shared access to the switch.
    pub fn with_switch<R>(&self, f: impl FnOnce(&Switch) -> R) -> R {
        f(&self.switch.read())
    }

    /// Runs `f` with exclusive access to the switch: to process traffic,
    /// to add or remove stages, or to edit a table entry by entry (what a
    /// from-scratch test oracle does; rules go in through
    /// [`ControlPlane::replace_ruleset`]).
    pub fn with_switch_mut<R>(&self, f: impl FnOnce(&mut Switch) -> R) -> R {
        f(&mut self.switch.write())
    }

    /// Applies a [`RuleSetDiff`] to stage `stage`: removes each `removed`
    /// entry by spec + priority (in one pass, [`Table::remove_ternary`],
    /// which reads one stored fingerprint per installed entry and a spec
    /// only where a fingerprint matches), then installs each `added` entry
    /// with `on_match`, fingerprinting each as it goes in. Removals run first
    /// so capacity they free is available to the inserts. Returns
    /// `(removed, installed)` counts; a `removed` entry that is not present
    /// in the table is skipped, not an error (the diff may predate other
    /// edits).
    ///
    /// Reference-only: the ledger's churn loop and conformance's
    /// `delta_swap` oracle are its callers. It is not all-or-nothing and
    /// takes the caller's word for what is installed; production swaps go
    /// through [`ControlPlane::replace_ruleset`], which computes the same
    /// delta from the table itself.
    ///
    /// # Errors
    ///
    /// Returns the first table error from an insert (missing stage,
    /// capacity, width); entries applied before the failure remain.
    pub fn apply_ruleset_diff(
        &self,
        stage: usize,
        diff: &RuleSetDiff,
        on_match: Action,
    ) -> Result<(usize, usize), TableError> {
        let mut sw = self.switch.write();
        let table = Self::stage_checked(&mut sw, stage)?;
        let removed = table.remove_ternary(
            diff.removed
                .iter()
                .map(|e| (&e.value[..], &e.mask[..], e.priority)),
        );
        Self::insert_ternary(table, &diff.added, on_match)?;
        Ok((removed, diff.added.len()))
    }

    /// Inserts `entries` in order; stops at the first table error, leaving
    /// what was inserted before it.
    fn insert_ternary(
        table: &mut Table,
        entries: &[TernaryEntry],
        on_match: Action,
    ) -> Result<(), TableError> {
        for e in entries {
            let spec = MatchSpec::Ternary {
                value: e.value.clone(),
                mask: e.mask.clone(),
            };
            table.insert(spec, on_match, e.priority)?;
        }
        Ok(())
    }

    /// Makes stage `stage` hold exactly `ruleset` under `on_match`: the
    /// one-stage call of [`ControlPlane::replace_rulesets`], the control
    /// plane's one rule writer.
    ///
    /// # Errors
    ///
    /// As [`ControlPlane::replace_rulesets`]: all-or-nothing.
    pub fn replace_ruleset(
        &self,
        stage: usize,
        ruleset: &RuleSet,
        on_match: Action,
    ) -> Result<RuleSetDiff, TableError> {
        let mut diffs = self.replace_rulesets(&[(stage, ruleset, on_match)])?;
        Ok(diffs.pop().unwrap_or_default())
    }

    /// Makes each listed stage hold exactly its ruleset under its action,
    /// touching only the entries that differ — install, update, rebind and
    /// clear are all this one swap (into an empty stage it installs the
    /// ruleset in order; to the empty ruleset it clears). What is installed
    /// is read back from the table itself (the only record of it) as a
    /// multiset of `(value & mask, mask, priority)`, [`RuleSet::diff`]'s
    /// normalization; an entry installed under a different action counts
    /// as different. Stale entries are removed, missing ones inserted, and
    /// the rest keep their handles, so the next publish compiles
    /// incrementally: an identical ruleset shares every stage, a few
    /// changed entries patch the previous minimized form. As with any
    /// patched stage (see
    /// [`CompiledTable::recompile`](crate::compiled::CompiledTable::recompile)),
    /// the lowered engine may then hold more minimized rows than a fresh
    /// compile of the same entries — never different verdicts.
    ///
    /// Returns, per listed swap, what was removed and added, values masked,
    /// `added` in the ruleset's order. `removed` entries carry class 0: a
    /// table stores the action, not the compile class.
    ///
    /// # Errors
    ///
    /// All stages or none, under one write lock: each swap runs on a copy
    /// of its stage and the copies replace the stages only once every swap
    /// has succeeded, so a missing stage, a non-ternary stage, a key-width
    /// mismatch or a ruleset that overflows a stage's capacity leaves every
    /// table as it was — a forest never serves with a tree missing.
    pub fn replace_rulesets(
        &self,
        swaps: &[(usize, &RuleSet, Action)],
    ) -> Result<Vec<RuleSetDiff>, TableError> {
        let mut sw = self.switch.write();
        let mut staged: BTreeMap<usize, Table> = BTreeMap::new();
        let mut diffs = Vec::with_capacity(swaps.len());
        for &(stage, ruleset, on_match) in swaps {
            // A stage listed again is swapped on top of its own copy.
            let table = match staged.entry(stage) {
                Entry::Occupied(copy) => copy.into_mut(),
                Entry::Vacant(slot) => slot.insert(Self::stage_checked(&mut sw, stage)?.clone()),
            };
            diffs.push(Self::swap_table(table, ruleset, on_match)?);
        }
        for (stage, table) in staged {
            *sw.stage_mut(stage) = table;
        }
        Ok(diffs)
    }

    /// One stage's swap, in place; an error can leave `table` half-edited,
    /// which is why [`ControlPlane::replace_rulesets`] hands it a copy.
    /// Entry widths and capacity are [`Table::insert`]'s checks.
    fn swap_table(
        table: &mut Table,
        ruleset: &RuleSet,
        on_match: Action,
    ) -> Result<RuleSetDiff, TableError> {
        let kind_mismatch = |entry: MatchKind| TableError::KindMismatch {
            table: table.kind(),
            entry,
        };
        if table.kind() != MatchKind::Ternary {
            return Err(kind_mismatch(MatchKind::Ternary));
        }
        if ruleset.key_width() != table.key().width() {
            return Err(TableError::WidthMismatch {
                table: table.key().width(),
                entry: ruleset.key_width(),
            });
        }
        type Key = (Vec<u8>, Vec<u8>, i32);
        let key = |value: &[u8], mask: &[u8], priority: i32| -> Key {
            let masked = value.iter().zip(mask).map(|(v, m)| v & m).collect();
            (masked, mask.to_vec(), priority)
        };
        // How many wanted entries of each key nothing accounts for yet;
        // `claim` takes one.
        let mut missing: BTreeMap<Key, usize> = BTreeMap::new();
        for e in ruleset.entries() {
            *missing
                .entry(key(&e.value, &e.mask, e.priority))
                .or_default() += 1;
        }
        let mut claim = |k: &Key| {
            missing.get_mut(k).is_some_and(|n| {
                let some = *n > 0;
                *n -= usize::from(some);
                some
            })
        };
        let mut diff = RuleSetDiff::default();
        let mut stale = Vec::new();
        for installed in table.entries() {
            let MatchSpec::Ternary { value, mask } = &installed.spec else {
                return Err(kind_mismatch(installed.spec.kind()));
            };
            let k = key(value, mask, installed.priority);
            if !(installed.action == on_match && claim(&k)) {
                stale.push(installed.handle);
                diff.removed.push(TernaryEntry::new(k.0, k.1, 0, k.2));
            }
        }
        // What is still missing goes in in the ruleset's own order, so a
        // swap into an empty stage is an in-order install (values masked).
        for e in ruleset.entries() {
            let k = key(&e.value, &e.mask, e.priority);
            if claim(&k) {
                diff.added
                    .push(TernaryEntry::new(k.0, k.1, e.class, e.priority));
            }
        }
        table.remove_all(&stale)?;
        Self::insert_ternary(table, &diff.added, on_match)?;
        Ok(diff)
    }

    /// Registers a pipeline cell to receive future [`ControlPlane::publish`]
    /// snapshots. The cell's current snapshot is left untouched; call
    /// `publish` to push one immediately.
    pub fn subscribe(&self, cell: Arc<PipelineCell>) {
        self.subscribers.lock().push(cell);
    }

    /// Snapshots the switch into a cell pre-loaded with the current
    /// pipeline and subscribes it. This is how a gateway attaches its
    /// shards' shared cell.
    pub fn attach_cell(&self) -> Arc<PipelineCell> {
        let snapshot = self.snapshot();
        let cell = Arc::new(PipelineCell::new(
            Arc::try_unwrap(snapshot).unwrap_or_else(|arc| (*arc).clone()),
        ));
        self.subscribe(Arc::clone(&cell));
        cell
    }

    /// Freezes the switch's current pipeline into a versioned read-path
    /// snapshot without publishing it.
    ///
    /// Compilation is incremental: stages unchanged since the last
    /// snapshot are shared (`Arc` clones) rather than re-lowered, and pure
    /// entry additions/removals patch the previous minimized form (see
    /// [`Switch::read_pipeline_incremental`]). A changed stage still costs
    /// O(its entries): a walk over them, the minimized list patched (a
    /// kept row's box shared, not copied), and its lookup engine spliced
    /// from the previous one — no minimization and no engine build. A
    /// full compile of a folded 2,196-entry stage takes ≈ 1.5 ms on cold
    /// caches, almost all of it the fold.
    pub fn snapshot(&self) -> Arc<ReadPipeline> {
        self.snapshot_with_stats().0
    }

    /// [`ControlPlane::snapshot`] plus `(stages recompiled, stages shared)`
    /// relative to the previous compiled snapshot.
    fn snapshot_with_stats(&self) -> (Arc<ReadPipeline>, usize, usize) {
        let mut cache = self.last_compiled.lock();
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let snapshot = Arc::new(
            self.switch
                .read()
                .read_pipeline_incremental(version, cache.as_deref()),
        );
        let shared = match cache.as_deref() {
            Some(prev) if prev.stages().len() == snapshot.stages().len() => snapshot
                .stages()
                .iter()
                .zip(prev.stages())
                .filter(|(a, b)| Arc::ptr_eq(a, b))
                .count(),
            _ => 0,
        };
        let recompiled = snapshot.stages().len() - shared;
        *cache = Some(Arc::clone(&snapshot));
        (snapshot, recompiled, shared)
    }

    /// Snapshots the switch and atomically publishes the snapshot to every
    /// subscribed cell (RCU swap: workers pick it up at their next batch
    /// boundary; no forwarding stall). Snapshotting compiles each frozen
    /// table into its O(1)/O(log n) lookup engine
    /// ([`CompiledTable`](crate::compiled::CompiledTable)) — the compile
    /// cost is paid here, once per publish, never on the packet path.
    pub fn publish(&self) -> PublishReport {
        self.publish_audited(None, false)
    }

    /// [`ControlPlane::publish`] plus an audit trail: when a recorder is
    /// attached (see [`ControlPlane::set_recorder`]), records an
    /// [`Event::Swap`] carrying the published version, entry count,
    /// subscriber count, the entry delta (when the caller knows the
    /// [`RuleSetDiff`] that produced this publish), whether shards were
    /// drained first, and the publish duration.
    pub fn publish_audited(&self, delta: Option<&RuleSetDiff>, drained: bool) -> PublishReport {
        let (added, removed) = delta.map_or((0, 0), |d| (d.added.len(), d.removed.len()));
        let cells = self.subscribers.lock();
        self.publish_snapshot(cells.iter(), "swap", None, added, removed, drained)
    }

    /// The one publish body: obtain the snapshot → fan out to `cells` →
    /// report → control trace (`span`). With `retained: None` the snapshot
    /// is compiled now, kept in the history and audited as an
    /// [`Event::Swap`]; a `retained` one is history's exact bytes, so
    /// nothing is compiled, retained again or audited as a swap. The
    /// caller holds the subscriber lock `cells` borrows from.
    fn publish_snapshot<'a>(
        &self,
        cells: impl ExactSizeIterator<Item = &'a Arc<PipelineCell>>,
        span: &str,
        retained: Option<Arc<ReadPipeline>>,
        added: usize,
        removed: usize,
        drained: bool,
    ) -> PublishReport {
        let elapsed_ns =
            |since: Instant| u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start = Instant::now();
        let fresh = retained.is_none();
        let (snapshot, stages_recompiled, stages_shared) = match retained {
            Some(snapshot) => {
                let stages = snapshot.stages().len();
                (snapshot, 0, stages)
            }
            None => self.snapshot_with_stats(),
        };
        let snapshot_ns = elapsed_ns(start);
        let fanout_start = Instant::now();
        if fresh {
            self.retain(Arc::clone(&snapshot));
        }
        let subscribers = cells.len();
        for cell in cells {
            cell.publish(Arc::clone(&snapshot));
        }
        let fanout_ns = elapsed_ns(fanout_start);
        let report = PublishReport {
            version: snapshot.version(),
            entries: snapshot.entry_count(),
            subscribers,
            elapsed: start.elapsed(),
            stages_recompiled,
            stages_shared,
        };
        let duration_ns = u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let children: &[_] = if fresh {
            &[("snapshot", snapshot_ns), ("fanout", fanout_ns)]
        } else {
            &[("fanout", fanout_ns)]
        };
        let trace_id = self.trace_control(span, report.version, duration_ns, children);
        if !fresh {
            return report;
        }
        if let Some(recorder) = self.recorder.lock().as_ref() {
            recorder.record(Event::Swap {
                version: report.version,
                entries: report.entries,
                subscribers: report.subscribers,
                added,
                removed,
                drained,
                duration_ns,
                trace_id,
            });
        }
        report
    }

    /// Number of subscribed pipeline cells (with a gateway attached via
    /// [`Gateway::start`](https://docs.rs/p4guard-gateway), cell index ==
    /// shard index, so targeted publishes address shards directly).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().len()
    }

    /// Keeps `snapshot` in the bounded publish history for later
    /// [`ControlPlane::republish`] / [`ControlPlane::rollback_to`].
    fn retain(&self, snapshot: Arc<ReadPipeline>) {
        let mut history = self.history.lock();
        if history.len() == HISTORY_CAP {
            history.pop_front();
        }
        history.push_back(snapshot);
    }

    /// Versions currently retained in the publish history, oldest first.
    pub fn retained_versions(&self) -> Vec<u64> {
        self.history.lock().iter().map(|p| p.version()).collect()
    }

    /// Snapshots the switch and publishes the snapshot **only** to the
    /// subscriber cells listed in `targets` — the canary primitive: with a
    /// gateway attached, subscriber index equals shard index, so a rollout
    /// engine can stage a candidate on a shard subset while the rest of
    /// the fleet keeps serving the previous version. The snapshot is
    /// retained in the history so the same version can later be promoted
    /// fleet-wide with [`ControlPlane::republish`].
    ///
    /// # Errors
    ///
    /// Returns [`PublishError::NoSuchSubscriber`] (before publishing to
    /// anyone) when any target index is out of range.
    pub fn publish_to(&self, targets: &[usize]) -> Result<PublishReport, PublishError> {
        let cells = self.subscribers.lock();
        // Targets are a set: a repeated index is one cell, published once.
        let targets: BTreeSet<usize> = targets.iter().copied().collect();
        if let Some(&index) = targets.iter().find(|&&t| t >= cells.len()) {
            return Err(PublishError::NoSuchSubscriber {
                index,
                subscribers: cells.len(),
            });
        }
        let targeted = targets.iter().map(|&t| &cells[t]);
        Ok(self.publish_snapshot(targeted, "canary_publish", None, 0, 0, false))
    }

    /// Re-publishes a retained historical snapshot — exact bytes, original
    /// version number — to every subscribed cell. Promotion uses this to
    /// take a canaried version fleet-wide without recompiling; it is not a
    /// new swap, so it leaves no [`Event::Swap`] and the history as it was.
    ///
    /// # Errors
    ///
    /// Returns [`PublishError::UnknownVersion`] when `version` has been
    /// evicted from (or never entered) the bounded history.
    pub fn republish(&self, version: u64) -> Result<PublishReport, PublishError> {
        let snapshot = {
            let history = self.history.lock();
            history
                .iter()
                .find(|p| p.version() == version)
                .cloned()
                .ok_or_else(|| PublishError::UnknownVersion {
                    version,
                    retained: history.iter().map(|p| p.version()).collect(),
                })?
        };
        let cells = self.subscribers.lock();
        Ok(self.publish_snapshot(cells.iter(), "republish", Some(snapshot), 0, 0, false))
    }

    /// Rolls every subscriber back to a retained prior `version` and leaves
    /// an [`Event::Rollout`] audit record (phase `rolled_back`) carrying
    /// `reason` — the canary engine's abort path. The data plane is
    /// guaranteed to serve exactly the bytes it served at `version`; the
    /// caller is responsible for re-synchronising the mutable switch tables
    /// (see `p4guard-adapt`).
    ///
    /// # Errors
    ///
    /// Returns [`PublishError::UnknownVersion`] when the version has left
    /// the bounded history.
    pub fn rollback_to(&self, version: u64, reason: &str) -> Result<PublishReport, PublishError> {
        let start = Instant::now();
        let from = self.retained_versions().last().copied().unwrap_or(0);
        let report = self.republish(version)?;
        let trace_id = self.trace_control(
            "rollback",
            version,
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            &[],
        );
        if let Some(recorder) = self.recorder.lock().as_ref() {
            recorder.record(Event::Rollout {
                phase: "rolled_back".to_string(),
                version: from,
                baseline: version,
                shards: Vec::new(),
                reason: reason.to_string(),
                trace_id,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyLayout;
    use crate::parser::ParserSpec;
    use crate::table::EntryHandle;

    /// A switch with one `kind` stage per listed capacity.
    fn control_with_stages(kind: MatchKind, width: usize, capacities: &[usize]) -> ControlPlane {
        let mut sw = Switch::new("gw", ParserSpec::raw_window(width, 1), 0);
        for &capacity in capacities {
            sw.add_stage(Table::new(
                "acl",
                kind,
                KeyLayout::window(width),
                capacity,
                Action::NoOp,
            ));
        }
        ControlPlane::new(sw)
    }

    fn ruleset() -> RuleSet {
        let mut rs = RuleSet::new(2, 0);
        rs.push(TernaryEntry::new(vec![0x17, 0x00], vec![0xff, 0x00], 1, 1));
        rs.push(TernaryEntry::new(vec![0x00, 0x50], vec![0x00, 0xff], 1, 1));
        rs
    }

    fn handles(cp: &ControlPlane, stage: usize) -> Vec<EntryHandle> {
        cp.with_switch(|sw| sw.stage(stage).entries().iter().map(|e| e.handle).collect())
    }

    #[test]
    fn install_and_enforce() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let diff = cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        // Into an empty stage everything is added, in the ruleset's order.
        assert!(diff.removed.is_empty());
        assert_eq!(diff.added, ruleset().entries());
        cp.with_switch_mut(|sw| {
            assert!(sw.process(&[0x17, 0x99]).is_drop());
            assert!(sw.process(&[0x99, 0x50]).is_drop());
            assert!(!sw.process(&[0x99, 0x99]).is_drop());
        });
    }

    /// The staged rollout of `examples/mirai_gateway.rs`: the action is part
    /// of an entry's identity, so observe-only → enforce is the same ruleset
    /// swapped in under another action, and every entry is re-installed.
    #[test]
    fn swap_under_a_different_action_reinstalls_every_entry() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        cp.replace_ruleset(0, &ruleset(), Action::Mirror(99))
            .unwrap();
        cp.with_switch_mut(|sw| assert!(!sw.process(&[0x17, 0x99]).is_drop()));
        let diff = cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        assert_eq!((diff.removed.len(), diff.added.len()), (2, 2));
        cp.with_switch_mut(|sw| {
            assert!(sw.process(&[0x17, 0x99]).is_drop());
            assert_eq!(sw.counters().mirrored, 1);
        });
    }

    #[test]
    fn capacity_error_propagates() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[1]);
        let err = cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap_err();
        assert!(matches!(err, TableError::Full { capacity: 1 }));
        // All or nothing: not even the entry that would have fit went in.
        cp.with_switch(|sw| assert!(sw.stage(0).is_empty()));
    }

    /// What the chain proptest in `tests/minimize_differential.rs` cannot
    /// see: a swap into an empty stage equals the reference path's in-order
    /// insert, surviving entries keep their handles (what delta compilation
    /// keys on), uncared value bits do not count as a change, and the action
    /// is part of an entry's identity.
    #[test]
    fn replace_ruleset_keeps_handles_and_compares_actions() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        // Into an empty stage a swap is an install: same order, same handles.
        let installed = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let all = RuleSetDiff {
            added: ruleset().entries().to_vec(),
            removed: Vec::new(),
        };
        installed.apply_ruleset_diff(0, &all, Action::Drop).unwrap();
        cp.with_switch(|a| installed.with_switch(|b| assert_eq!(a.stage(0), b.stage(0))));
        cp.publish();
        let before = handles(&cp, 0);

        let mut respelled = RuleSet::new(2, 0);
        respelled.push(TernaryEntry::new(vec![0x17, 0xaa], vec![0xff, 0x00], 1, 1));
        respelled.push(TernaryEntry::new(vec![0xbb, 0x50], vec![0x00, 0xff], 1, 1));
        let diff = cp.replace_ruleset(0, &respelled, Action::Drop).unwrap();
        assert!(diff.is_empty());
        assert_eq!(handles(&cp, 0), before);
        let idle = cp.publish();
        assert_eq!((idle.stages_recompiled, idle.stages_shared), (0, 1));

        let rebound = cp
            .replace_ruleset(0, &ruleset(), Action::Mirror(9))
            .unwrap();
        assert_eq!((rebound.removed.len(), rebound.added.len()), (2, 2));
        assert!(handles(&cp, 0).iter().all(|h| !before.contains(h)));
    }

    #[test]
    fn replace_ruleset_that_cannot_fit_leaves_the_stage_untouched() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[2]);
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        let before = cp.with_switch(|sw| sw.stage(0).clone());

        // Disjoint three-entry target: 2 - 2 + 3 exceeds the capacity of 2.
        let mut big = RuleSet::new(2, 0);
        for v in 1..=3u8 {
            big.push(TernaryEntry::new(vec![v, v], vec![0xff, 0xff], 1, 1));
        }
        assert_eq!(
            cp.replace_ruleset(0, &big, Action::Drop).unwrap_err(),
            TableError::Full { capacity: 2 }
        );
        assert_eq!(
            cp.replace_ruleset(0, &RuleSet::new(3, 0), Action::Drop)
                .unwrap_err(),
            TableError::WidthMismatch { table: 2, entry: 3 }
        );
        assert_eq!(
            cp.replace_ruleset(1, &ruleset(), Action::Drop).unwrap_err(),
            TableError::NoSuchStage {
                stage: 1,
                stages: 1
            }
        );
        cp.with_switch(|sw| assert_eq!(*sw.stage(0), before));

        let exact = control_with_stages(MatchKind::Exact, 2, &[16]);
        assert_eq!(
            exact
                .replace_ruleset(0, &ruleset(), Action::Drop)
                .unwrap_err(),
            TableError::KindMismatch {
                table: MatchKind::Exact,
                entry: MatchKind::Ternary
            }
        );
    }

    /// A forest with a tree missing is a different classifier, not a
    /// degraded one: a five-tree deploy whose stage 3 cannot hold its tree
    /// leaves stages 0–2 (validated first), every subscribed cell and the
    /// version counter exactly as they were.
    #[test]
    fn multi_stage_swap_is_all_stages_or_none() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16, 16, 16, 1, 16]);
        let cell = cp.attach_cell();
        let served = cp.publish();
        let tree = ruleset();
        let mut forest: Vec<_> = (0..5).map(|stage| (stage, &tree, Action::Drop)).collect();
        assert_eq!(
            cp.replace_rulesets(&forest).unwrap_err(),
            TableError::Full { capacity: 1 }
        );
        cp.with_switch(|sw| assert!((0..5).all(|stage| sw.stage(stage).is_empty())));
        assert_eq!(cell.version(), served.version);
        assert_eq!(cp.publish().version, served.version + 1);

        // The four trees that fit go in together, one diff per listed stage.
        forest.remove(3);
        let diffs = cp.replace_rulesets(&forest).unwrap();
        assert!(diffs.len() == 4 && diffs.iter().all(|d| d.added.len() == 2));
        // A stage listed twice is swapped twice, the later on the earlier.
        let twice = [forest[0], (0, &tree, Action::Mirror(9))];
        let rebound = &cp.replace_rulesets(&twice).unwrap()[1];
        assert_eq!((rebound.removed.len(), rebound.added.len()), (2, 2));
    }

    #[test]
    fn missing_stage_is_an_error_not_a_panic() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let tree = ruleset();
        let missing = TableError::NoSuchStage {
            stage: 3,
            stages: 1,
        };
        // Also behind a stage that exists, which is then not touched.
        for swaps in [
            &[(3, &tree, Action::Drop)][..],
            &[(0, &tree, Action::Drop), (3, &tree, Action::Drop)],
        ] {
            assert_eq!(cp.replace_rulesets(swaps).unwrap_err(), missing);
        }
        cp.with_switch(|sw| assert!(sw.stage(0).is_empty()));
        let nothing = RuleSetDiff::default();
        assert_eq!(
            cp.apply_ruleset_diff(3, &nothing, Action::Drop)
                .unwrap_err(),
            missing
        );
        assert!(missing.to_string().contains("no stage 3"));
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        let before = handles(&cp, 0);
        assert!(cp.replace_rulesets(&[]).unwrap().is_empty());
        let nothing = RuleSetDiff::default();
        assert_eq!(cp.apply_ruleset_diff(0, &nothing, Action::Drop), Ok((0, 0)));
        let same = cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        assert!(same.is_empty());
        assert_eq!(handles(&cp, 0), before);
    }

    #[test]
    fn publish_pushes_snapshots_to_subscribed_cells() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let cell = cp.attach_cell();
        assert!(cell.load().entry_count() == 0);
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        // Not yet published: the cell still serves the old snapshot.
        assert_eq!(cell.load().entry_count(), 0);
        let report = cp.publish();
        assert_eq!(report.subscribers, 1);
        assert_eq!(report.entries, 2);
        assert!(report.version > 0);
        assert_eq!(cell.version(), report.version);
        assert_eq!(cell.load().entry_count(), 2);
        // Versions are strictly increasing across publishes.
        let next = cp.publish();
        assert!(next.version > report.version);
    }

    #[test]
    fn snapshots_share_unchanged_stages_and_recompile_changed_ones() {
        // Two stages; touching only stage 1 must leave stage 0 shared by
        // pointer identity across snapshots.
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16, 16]);
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        let first = cp.publish();
        assert_eq!(
            (first.stages_recompiled, first.stages_shared),
            (2, 0),
            "first publish compiles everything"
        );
        let s1 = cp.snapshot();

        cp.replace_ruleset(1, &ruleset(), Action::Mirror(7))
            .unwrap();
        let s2 = cp.snapshot();
        assert!(
            Arc::ptr_eq(&s1.stages()[0], &s2.stages()[0]),
            "untouched stage is shared, not re-lowered"
        );
        assert!(
            !Arc::ptr_eq(&s1.stages()[1], &s2.stages()[1]),
            "modified stage is recompiled"
        );

        // A no-op publish shares every stage.
        let idle = cp.publish();
        assert_eq!((idle.stages_recompiled, idle.stages_shared), (0, 2));

        // The shared snapshot still enforces both stages' rules.
        let mut counters = crate::switch::SwitchCounters::default();
        let mut scratch = Vec::new();
        assert!(s2
            .process_into(&[0x17, 0x99], &mut counters, &mut scratch)
            .is_drop());
    }

    #[test]
    fn incremental_snapshot_matches_scratch_after_entry_churn() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[64]);
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        let _warm = cp.snapshot();
        // Add and remove entries so the patch path runs, then compare the
        // incremental snapshot against a from-scratch twin on every key.
        let mut churned = RuleSet::new(2, 0);
        churned.push(ruleset().entries()[1].clone());
        churned.push(TernaryEntry::new(vec![0x17, 0x00], vec![0xff, 0x00], 1, 2));
        churned.push(TernaryEntry::new(vec![0x20, 0x50], vec![0xf0, 0xff], 1, 0));
        let diff = cp.replace_ruleset(0, &churned, Action::Drop).unwrap();
        assert_eq!((diff.removed.len(), diff.added.len()), (1, 2));
        let incremental = cp.snapshot();
        let scratch_twin = cp.with_switch(|sw| sw.read_pipeline(999));
        let mut c1 = crate::switch::SwitchCounters::default();
        let mut c2 = crate::switch::SwitchCounters::default();
        let mut buf1 = Vec::new();
        let mut buf2 = Vec::new();
        for k in 0..=u16::MAX {
            let frame = k.to_be_bytes();
            assert_eq!(
                incremental.process_into(&frame, &mut c1, &mut buf1),
                scratch_twin.process_into(&frame, &mut c2, &mut buf2),
                "verdict diverged on key {frame:02x?}"
            );
        }
        assert_eq!(c1, c2);
    }

    /// A stage replaced wholesale by a new table of the same name, kind
    /// and key is compiled afresh. Its handles restart at 1, so its
    /// `(handle, action)` fingerprint can equal the old table's: only the
    /// table's identity tells the two apart.
    #[test]
    fn a_stage_replaced_by_a_new_table_is_not_served_stale() {
        let acl = |byte: u8| {
            let mut t = Table::new(
                "acl",
                MatchKind::Ternary,
                KeyLayout::window(1),
                16,
                Action::NoOp,
            );
            let spec = MatchSpec::Ternary {
                value: vec![byte],
                mask: vec![0xff],
            };
            t.insert(spec, Action::Drop, 1).unwrap();
            t
        };
        let mut sw = Switch::new("gw", ParserSpec::raw_window(1, 1), 1);
        sw.add_stage(acl(0xaa));
        let cp = ControlPlane::new(sw);
        let cell = cp.attach_cell();
        cp.with_switch_mut(|sw| *sw.stage_mut(0) = acl(0xbb));
        let report = cp.publish();
        assert_eq!((report.stages_recompiled, report.stages_shared), (1, 0));
        let mut counters = crate::switch::SwitchCounters::default();
        let mut scratch = Vec::new();
        for byte in [0xaa, 0xbb] {
            let served = cell
                .load()
                .process_into(&[byte], &mut counters, &mut scratch);
            assert_eq!(served.is_drop(), byte == 0xbb);
            assert_eq!(served, cp.with_switch_mut(|sw| sw.process(&[byte])));
        }
    }

    /// A delta publish copies a pointer per kept minimized row: after a
    /// one-entry addition, and again after its removal, every row of the
    /// stage but the changed one holds the previous snapshot's box, the
    /// very allocation.
    #[test]
    fn a_delta_publish_shares_every_kept_rows_box() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[64]);
        // One disjoint exact row per priority: nothing merges or shadows.
        let mut rs = RuleSet::new(2, 0);
        for v in 0..32u8 {
            rs.push(TernaryEntry::new(vec![v, v], vec![0xff; 2], 1, v.into()));
        }
        cp.replace_ruleset(0, &rs, Action::Drop).unwrap();
        let one = TernaryEntry::new(vec![0x99, 0x99], vec![0xff; 2], 1, 7);
        let add = RuleSetDiff {
            added: vec![one.clone()],
            removed: Vec::new(),
        };
        let remove = RuleSetDiff {
            added: Vec::new(),
            removed: vec![one],
        };
        let mut prev = cp.snapshot();
        for (diff, grows) in [(add, true), (remove, false)] {
            cp.apply_ruleset_diff(0, &diff, Action::Drop).unwrap();
            assert_eq!(cp.publish().stages_recompiled, 1);
            let next = cp.snapshot();
            let (old, new) = (
                &prev.stages()[0].minimized().entries,
                &next.stages()[0].minimized().entries,
            );
            let shared = new
                .iter()
                .filter(|m| old.iter().any(|o| Arc::ptr_eq(&o.sets, &m.sets)))
                .count();
            assert_eq!(shared, old.len() - usize::from(!grows));
            assert_eq!(new.len(), shared + usize::from(grows));
            prev = next;
        }
    }

    #[test]
    fn control_plane_clones_share_the_switch() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let cp2 = cp.clone();
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        cp2.with_switch(|sw| assert_eq!(sw.stage(0).len(), 2));
    }

    #[test]
    fn publish_to_targets_a_subset_of_cells() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let canary = cp.attach_cell();
        let steady = cp.attach_cell();
        assert_eq!(cp.subscriber_count(), 2);
        let baseline = cp.publish();
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        let report = cp.publish_to(&[0]).unwrap();
        assert_eq!(report.subscribers, 1);
        assert_eq!(report.entries, 2);
        // Only the targeted cell moved; the other still serves baseline.
        assert_eq!(canary.version(), report.version);
        assert_eq!(canary.load().entry_count(), 2);
        assert_eq!(steady.version(), baseline.version);
        assert_eq!(steady.load().entry_count(), 0);
    }

    #[test]
    fn publish_to_rejects_bad_indices_before_publishing() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let cell = cp.attach_cell();
        let before = cell.version();
        let err = cp.publish_to(&[0, 3]).unwrap_err();
        assert_eq!(
            err,
            PublishError::NoSuchSubscriber {
                index: 3,
                subscribers: 1
            }
        );
        assert!(err.to_string().contains("no subscriber 3"));
        // Validation happens first: the in-range target was not touched.
        assert_eq!(cell.version(), before);
    }

    #[test]
    fn publish_to_treats_its_targets_as_a_set() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let (canary, steady) = (cp.attach_cell(), cp.attach_cell());
        let baseline = steady.version();
        let report = cp.publish_to(&[0, 0]).unwrap();
        // One cell, published once and counted once.
        assert_eq!(report.subscribers, 1);
        assert_eq!(canary.version(), report.version);
        assert_eq!(steady.version(), baseline);
    }

    #[test]
    fn republish_and_rollback_restore_a_retained_version() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let recorder = Arc::new(FlightRecorder::new(16));
        cp.set_recorder(Arc::clone(&recorder));
        let cell = cp.attach_cell();

        let empty = cp.publish(); // baseline: no entries
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();
        let full = cp.publish(); // candidate: two entries
        assert_eq!(cp.retained_versions(), vec![empty.version, full.version]);
        assert_eq!(cell.load().entry_count(), 2);

        let back = cp
            .rollback_to(empty.version, "drop-rate guardrail")
            .unwrap();
        assert_eq!(back.version, empty.version);
        assert_eq!(cell.version(), empty.version);
        assert_eq!(cell.load().entry_count(), 0);

        let fwd = cp.republish(full.version).unwrap();
        assert_eq!(fwd.version, full.version);
        assert_eq!(cell.load().entry_count(), 2);
        // Serving retained bytes again is not a swap: nothing is compiled,
        // audited as one, or added to the history (pins the one fan-out).
        assert_eq!((fwd.stages_recompiled, fwd.stages_shared), (0, 1));
        assert_eq!(cp.retained_versions(), vec![empty.version, full.version]);

        let rollouts: Vec<_> = recorder
            .events()
            .into_iter()
            .filter(|e| e.event.kind() == "rollout")
            .collect();
        assert_eq!(rollouts.len(), 1);
        assert_eq!(recorder.events().len(), 3, "and a swap per publish only");
        match &rollouts[0].event {
            Event::Rollout {
                phase,
                version,
                baseline,
                reason,
                ..
            } => {
                assert_eq!(phase, "rolled_back");
                assert_eq!(*version, full.version);
                assert_eq!(*baseline, empty.version);
                assert_eq!(reason, "drop-rate guardrail");
            }
            other => panic!("expected a rollout event, got {other:?}"),
        }
    }

    #[test]
    fn history_is_bounded_and_unknown_versions_error() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let first = cp.publish();
        for _ in 0..HISTORY_CAP {
            cp.publish();
        }
        let retained = cp.retained_versions();
        assert_eq!(retained.len(), HISTORY_CAP);
        assert!(!retained.contains(&first.version), "oldest evicted");
        let err = cp.republish(first.version).unwrap_err();
        assert_eq!(
            err,
            PublishError::UnknownVersion {
                version: first.version,
                retained,
            }
        );
        assert!(err.to_string().contains("not in history"));
        assert_eq!(
            cp.rollback_to(first.version, "x").unwrap_err(),
            cp.republish(first.version).unwrap_err()
        );
    }

    #[test]
    fn audited_publish_records_swap_events() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let recorder = Arc::new(FlightRecorder::new(16));
        cp.set_recorder(Arc::clone(&recorder));
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();

        let old = RuleSet::new(2, 0);
        let diff = old.diff(&ruleset());
        let report = cp.publish_audited(Some(&diff), true);

        // A clone shares the recorder: its plain publish is audited too.
        cp.clone().publish();

        let events = recorder.events();
        assert_eq!(events.len(), 2);
        match &events[0].event {
            Event::Swap {
                version,
                entries,
                subscribers,
                added,
                removed,
                drained,
                ..
            } => {
                assert_eq!(*version, report.version);
                assert_eq!(*entries, 2);
                assert_eq!(*subscribers, 0);
                assert_eq!(*added, 2);
                assert_eq!(*removed, 0);
                assert!(*drained);
            }
            other => panic!("expected a swap event, got {other:?}"),
        }
        match &events[1].event {
            Event::Swap {
                added,
                removed,
                drained,
                ..
            } => {
                // Plain publish carries no delta knowledge.
                assert_eq!((*added, *removed, *drained), (0, 0, false));
            }
            other => panic!("expected a swap event, got {other:?}"),
        }
    }

    #[test]
    fn swap_audit_events_join_against_the_trace_store() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let recorder = Arc::new(FlightRecorder::new(16));
        let tracer = Arc::new(TraceStore::new(64, true));
        cp.set_recorder(Arc::clone(&recorder));
        cp.set_tracer(Arc::clone(&tracer));
        cp.replace_ruleset(0, &ruleset(), Action::Drop).unwrap();

        let report = cp.publish_audited(None, false);

        // The audit event carries the control trace id of its version...
        let trace_id = match &recorder.events()[0].event {
            Event::Swap { trace_id, .. } => trace_id.expect("tracer attached → id set"),
            other => panic!("expected a swap event, got {other:?}"),
        };
        assert_eq!(trace_id, control_trace_id(report.version));
        // ...and that id resolves to the publish's full span tree.
        let spans = tracer.by_trace(trace_id);
        let root = spans
            .iter()
            .find(|s| s.parent_id.is_none())
            .expect("swap root span");
        assert_eq!(root.name, "swap");
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent_id == Some(root.span_id))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(children, ["snapshot", "fanout"]);

        // Rollback events join the same way.
        cp.publish();
        cp.rollback_to(report.version, "test").unwrap();
        let rollback = recorder
            .events()
            .into_iter()
            .rev()
            .find(|e| e.event.kind() == "rollout")
            .unwrap();
        let rollback_trace = match &rollback.event {
            Event::Rollout { trace_id, .. } => trace_id.expect("tracer attached → id set"),
            other => panic!("expected a rollout event, got {other:?}"),
        };
        assert!(tracer
            .by_trace(rollback_trace)
            .iter()
            .any(|s| s.name == "rollback"));
    }

    #[test]
    fn untraced_publishes_leave_no_trace_ids() {
        let cp = control_with_stages(MatchKind::Ternary, 2, &[16]);
        let recorder = Arc::new(FlightRecorder::new(16));
        cp.set_recorder(Arc::clone(&recorder));
        cp.publish_audited(None, false);
        match &recorder.events()[0].event {
            Event::Swap { trace_id, .. } => assert_eq!(*trace_id, None),
            other => panic!("expected a swap event, got {other:?}"),
        }
    }
}
