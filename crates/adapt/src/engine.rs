//! The closed-loop rollout engine: drift → retrain → shadow → canary →
//! promote, with automatic rollback when a canary guardrail trips.
//!
//! [`AdaptEngine::step`] is called at *drained checkpoints* — moments
//! where every dispatched frame has been processed and the telemetry
//! registry is caught up ([`Gateway::wait_drained`] returns at exactly
//! such a moment). Because every input the engine looks at (counter deltas,
//! mirror samples, scenario traces) is deterministic at such checkpoints,
//! the whole loop is replayable: same seed, same decisions, same
//! published versions.
//!
//! Rollback restores **both** halves of the dataplane state: the shards'
//! pipeline cells (via
//! [`ControlPlane::rollback_to`], which republishes the retained baseline
//! snapshot) and the mutable switch tables (by swapping the baseline
//! [`RuleSet`] the engine keeps as its active ruleset back in), so a
//! later publish compiles the pre-canary rules again. Every ruleset change
//! — baseline, canary, rollback — is one
//! [`ControlPlane::replace_ruleset`], so the publish after it re-lowers
//! only what changed.

use crate::drift::{DriftConfig, DriftMonitor};
use crate::retrain::{RetrainError, Retrainer};
use crate::shadow::ShadowScore;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::{ControlPlane, PublishError, PublishReport};
use p4guard_dataplane::pipeline::ReadPipeline;
use p4guard_dataplane::table::TableError;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewaySnapshot};
use p4guard_rules::RuleSet;
use p4guard_telemetry::{control_trace_id, Counter, Event, Gauge, SpanRecord, Telemetry};
use p4guard_traffic::Scenario;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Tuning for the whole adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Drift-detector thresholds.
    pub drift: DriftConfig,
    /// Switch stage holding the learned ACL.
    pub stage: usize,
    /// Mirror-tap sampling stride while shadowing (1 in N frames).
    pub mirror_stride: u64,
    /// Mirror-tap channel capacity.
    pub mirror_capacity: usize,
    /// Mirrored samples required before the shadow gate decides.
    pub shadow_min_samples: u64,
    /// Reject the candidate when its shadow drop rate exceeds this.
    pub shadow_max_drop_rate: f64,
    /// Shards that receive the candidate during canary (clamped so at
    /// least one non-canary shard remains whenever the gateway has more
    /// than one).
    pub canary_shards: usize,
    /// Frames the canary (and control) shards must each process before
    /// the guardrail decides.
    pub min_canary_frames: u64,
    /// Roll back when the canary shards' drop rate exceeds the control
    /// shards' by more than this.
    pub guardrail_max_drop_increase: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            drift: DriftConfig::default(),
            stage: 0,
            mirror_stride: 4,
            mirror_capacity: 4096,
            shadow_min_samples: 64,
            shadow_max_drop_rate: 0.9,
            canary_shards: 1,
            min_canary_frames: 256,
            guardrail_max_drop_increase: 0.25,
        }
    }
}

/// What one [`AdaptEngine::step`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// Stable, no drift.
    Idle,
    /// Drift fired but retraining reproduced the active ruleset.
    CandidateUnchanged,
    /// A candidate entered shadow evaluation (`reason` says why).
    ShadowStarted {
        /// Drift signal or proposal reason that produced the candidate.
        reason: String,
    },
    /// Shadowing, below the sample quorum.
    ShadowProgress {
        /// Mirror samples scored so far.
        samples: u64,
    },
    /// The shadow gate rejected the candidate.
    ShadowRejected {
        /// The candidate's shadow drop rate.
        drop_rate: f64,
    },
    /// The candidate was published to the canary shards.
    CanaryStarted {
        /// The candidate's published version.
        version: u64,
        /// Canary shard indices.
        shards: Vec<usize>,
    },
    /// Canarying, below the frame quorum.
    CanaryProgress {
        /// Frames the canary shards processed since canary start.
        canary_frames: u64,
        /// Frames the control shards processed since canary start.
        control_frames: u64,
    },
    /// The candidate was promoted fleet-wide.
    Promoted {
        /// The promoted version.
        version: u64,
    },
    /// A guardrail tripped; the previous ruleset is back everywhere.
    RolledBack {
        /// The candidate version that was rolled back.
        from: u64,
        /// The restored baseline version.
        to: u64,
    },
}

/// Errors from engine operations.
#[derive(Debug)]
pub enum AdaptError {
    /// No baseline installed yet ([`AdaptEngine::install_initial`]).
    NoBaseline,
    /// The operation needs the engine to be in the stable phase.
    NotStable(&'static str),
    /// A proposed candidate's key width does not match the ACL layout.
    WidthMismatch {
        /// Offsets in the engine's key layout.
        expected: usize,
        /// The candidate's key width.
        got: usize,
    },
    /// A switch-table operation failed.
    Table(TableError),
    /// A publish/rollback failed.
    Publish(PublishError),
    /// Retraining failed.
    Retrain(RetrainError),
}

impl fmt::Display for AdaptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptError::NoBaseline => write!(f, "no baseline ruleset installed"),
            AdaptError::NotStable(phase) => {
                write!(f, "operation requires the stable phase (currently {phase})")
            }
            AdaptError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "candidate key width {got} != ACL layout width {expected}"
                )
            }
            AdaptError::Table(e) => write!(f, "table operation failed: {e}"),
            AdaptError::Publish(e) => write!(f, "publish failed: {e}"),
            AdaptError::Retrain(e) => write!(f, "retrain failed: {e}"),
        }
    }
}

impl Error for AdaptError {}

impl From<TableError> for AdaptError {
    fn from(e: TableError) -> Self {
        AdaptError::Table(e)
    }
}

impl From<PublishError> for AdaptError {
    fn from(e: PublishError) -> Self {
        AdaptError::Publish(e)
    }
}

impl From<RetrainError> for AdaptError {
    fn from(e: RetrainError) -> Self {
        AdaptError::Retrain(e)
    }
}

/// Which part of the loop the engine is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Watching for drift.
    Stable,
    /// Scoring a candidate on mirrored traffic.
    Shadowing,
    /// Candidate live on a shard subset, the guardrail watching.
    Canarying,
}

impl PhaseKind {
    fn name(self) -> &'static str {
        match self {
            PhaseKind::Stable => "stable",
            PhaseKind::Shadowing => "shadowing",
            PhaseKind::Canarying => "canarying",
        }
    }

    fn gauge_value(self) -> f64 {
        match self {
            PhaseKind::Stable => 0.0,
            PhaseKind::Shadowing => 1.0,
            PhaseKind::Canarying => 2.0,
        }
    }
}

enum Phase {
    Stable,
    Shadowing {
        candidate: RuleSet,
        pipeline: Arc<ReadPipeline>,
        live: Arc<ReadPipeline>,
        rx: Receiver<Bytes>,
        score: ShadowScore,
        baseline_version: u64,
        reason: String,
    },
    Canarying {
        candidate: RuleSet,
        candidate_version: u64,
        baseline_version: u64,
        shards: Vec<usize>,
        /// The gateway at canary start (boxed: inline it would size every
        /// phase).
        start: Box<GatewaySnapshot>,
        /// Pre-canary fleet drop rate, used as the guardrail reference
        /// when every shard is canaried (no live control group).
        fallback_reference: f64,
    },
}

impl Phase {
    fn kind(&self) -> PhaseKind {
        match self {
            Phase::Stable => PhaseKind::Stable,
            Phase::Shadowing { .. } => PhaseKind::Shadowing,
            Phase::Canarying { .. } => PhaseKind::Canarying,
        }
    }
}

/// Pre-registered `adapt_*` metric handles.
struct AdaptMetrics {
    retrains: Counter,
    shadow_samples: Counter,
    shadow_disagreements: Counter,
    shadow_rejects: Counter,
    promoted: Counter,
    rolled_back: Counter,
    phase: Gauge,
}

impl AdaptMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let r = &telemetry.registry;
        AdaptMetrics {
            retrains: r.counter(
                "adapt_retrains_total",
                "Candidate rulesets retrained after drift",
                &[],
            ),
            shadow_samples: r.counter(
                "adapt_shadow_samples_total",
                "Mirrored frames scored by shadow evaluation",
                &[],
            ),
            shadow_disagreements: r.counter(
                "adapt_shadow_disagreements_total",
                "Shadow samples where candidate and live verdicts differ",
                &[],
            ),
            shadow_rejects: r.counter(
                "adapt_candidate_rejects_total",
                "Candidates rejected, by gate",
                &[("gate", "shadow")],
            ),
            promoted: r.counter(
                "adapt_rollouts_total",
                "Completed rollouts, by outcome",
                &[("outcome", "promoted")],
            ),
            rolled_back: r.counter(
                "adapt_rollouts_total",
                "Completed rollouts, by outcome",
                &[("outcome", "rolled_back")],
            ),
            phase: r.gauge(
                "adapt_phase",
                "Adaptation loop phase (0=stable, 1=shadowing, 2=canarying)",
                &[],
            ),
        }
    }
}

/// The adaptation loop. One engine drives one [`ControlPlane`] /
/// [`Gateway`] pair; see the crate docs for the full lifecycle.
pub struct AdaptEngine {
    config: AdaptConfig,
    control: ControlPlane,
    telemetry: Arc<Telemetry>,
    retrainer: Retrainer,
    /// Deterministic source of labelled retraining windows (stands in
    /// for a live labelled capture).
    window_source: Scenario,
    monitor: DriftMonitor,
    phase: Phase,
    /// `(published version, ruleset)` of the initial baseline or the
    /// newest promotion: what a canary is judged against and what a
    /// rollback puts back. No promotion lands before a canary's verdict,
    /// so it is always the rollout's baseline.
    active: Option<(u64, RuleSet)>,
    metrics: AdaptMetrics,
    /// When the engine entered its current phase; transition spans cover
    /// the phase being left.
    phase_entered: Instant,
}

impl AdaptEngine {
    /// Builds an engine around an existing control plane and telemetry
    /// bundle. Call [`AdaptEngine::install_initial`] (after the gateway
    /// has started) to publish the first baseline.
    pub fn new(
        control: ControlPlane,
        telemetry: Arc<Telemetry>,
        retrainer: Retrainer,
        window_source: Scenario,
        config: AdaptConfig,
    ) -> Self {
        let metrics = AdaptMetrics::new(&telemetry);
        metrics.phase.set(PhaseKind::Stable.gauge_value());
        AdaptEngine {
            monitor: DriftMonitor::new(config.drift),
            config,
            control,
            telemetry,
            retrainer,
            window_source,
            phase: Phase::Stable,
            active: None,
            metrics,
            phase_entered: Instant::now(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }

    /// Current loop phase.
    pub fn phase(&self) -> PhaseKind {
        self.phase.kind()
    }

    /// The drift monitor (for inspection in tests and experiments).
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// Version of the newest promoted (or initial) ruleset.
    pub fn active_version(&self) -> Option<u64> {
        self.active.as_ref().map(|(v, _)| *v)
    }

    /// The newest promoted (or initial) ruleset.
    pub fn active_ruleset(&self) -> Option<&RuleSet> {
        self.active.as_ref().map(|(_, r)| r)
    }

    /// Installs and publishes the first baseline ruleset fleet-wide and
    /// makes it the active one. Call once, after the gateway has
    /// subscribed its cells.
    ///
    /// # Errors
    ///
    /// [`AdaptError::NotStable`] while a rollout is in flight (it is judged
    /// against the active ruleset); otherwise propagates table errors from
    /// installing into the ACL stage.
    pub fn install_initial(&mut self, ruleset: &RuleSet) -> Result<PublishReport, AdaptError> {
        if !matches!(self.phase, Phase::Stable) {
            return Err(AdaptError::NotStable(self.phase.kind().name()));
        }
        self.check_width(ruleset)?;
        self.control
            .replace_ruleset(self.config.stage, ruleset, Action::Drop)?;
        let report = self.control.publish_audited(None, false);
        self.active = Some((report.version, ruleset.clone()));
        Ok(report)
    }

    /// Proposes a candidate directly (operator override or an external
    /// trainer), bypassing drift detection and retraining but going
    /// through the same shadow → canary → promote/rollback lifecycle.
    ///
    /// # Errors
    ///
    /// [`AdaptError::NotStable`] unless the engine is stable;
    /// [`AdaptError::WidthMismatch`] for a candidate that does not fit
    /// the ACL key layout.
    pub fn propose(
        &mut self,
        gateway: &Gateway,
        candidate: RuleSet,
        reason: &str,
    ) -> Result<StepOutcome, AdaptError> {
        if !matches!(self.phase, Phase::Stable) {
            return Err(AdaptError::NotStable(self.phase.kind().name()));
        }
        self.check_width(&candidate)?;
        if self.active.is_none() {
            return Err(AdaptError::NoBaseline);
        }
        self.enter_shadow(gateway, candidate, format!("proposed:{reason}"))
    }

    /// Advances the loop one checkpoint. Call only when the gateway is
    /// drained (all dispatched frames processed), so counter deltas and
    /// mirror samples are exact.
    ///
    /// # Errors
    ///
    /// [`AdaptError::NoBaseline`] before [`AdaptEngine::install_initial`];
    /// otherwise propagates table/publish/retrain failures.
    pub fn step(&mut self, gateway: &Gateway) -> Result<StepOutcome, AdaptError> {
        if self.active.is_none() {
            return Err(AdaptError::NoBaseline);
        }
        match std::mem::replace(&mut self.phase, Phase::Stable) {
            Phase::Stable => self.step_stable(gateway),
            Phase::Shadowing {
                candidate,
                pipeline,
                live,
                rx,
                score,
                baseline_version,
                reason,
            } => self.step_shadowing(
                gateway,
                candidate,
                pipeline,
                live,
                rx,
                score,
                baseline_version,
                reason,
            ),
            Phase::Canarying {
                candidate,
                candidate_version,
                baseline_version,
                shards,
                start,
                fallback_reference,
            } => self.step_canarying(
                gateway,
                candidate,
                candidate_version,
                baseline_version,
                shards,
                start,
                fallback_reference,
            ),
        }
    }

    fn step_stable(&mut self, gateway: &Gateway) -> Result<StepOutcome, AdaptError> {
        let Some(signal) = self.monitor.observe(&self.telemetry.registry) else {
            return Ok(StepOutcome::Idle);
        };
        let at_version = self.active_version().unwrap_or(0);
        self.telemetry.recorder.record(Event::Drift {
            metric: signal.metric.clone(),
            statistic: signal.statistic,
            threshold: signal.threshold,
            at_version,
        });
        self.telemetry
            .registry
            .counter(
                "adapt_drift_total",
                "Drift detections, by statistic",
                &[("metric", &signal.metric)],
            )
            .inc();
        let window = self
            .retrainer
            .assemble_window(&self.window_source, &self.telemetry.recorder)?;
        let candidate = self.retrainer.retrain(&window.trace)?;
        self.metrics.retrains.inc();
        let unchanged = self
            .active_ruleset()
            .map(|active| candidate.diff(active).is_empty())
            .unwrap_or(false);
        if unchanged {
            return Ok(StepOutcome::CandidateUnchanged);
        }
        self.enter_shadow(gateway, candidate, format!("drift:{}", signal.metric))
    }

    fn enter_shadow(
        &mut self,
        gateway: &Gateway,
        candidate: RuleSet,
        reason: String,
    ) -> Result<StepOutcome, AdaptError> {
        let pipeline = Arc::new(self.build_candidate_pipeline(&candidate)?);
        let live = gateway.cells()[0].load();
        let rx = gateway
            .mirror()
            .open(self.config.mirror_stride, self.config.mirror_capacity);
        let baseline_version = self.active_version().unwrap_or(0);
        self.telemetry.recorder.record(Event::Rollout {
            phase: "shadow_start".to_string(),
            version: 0,
            baseline: baseline_version,
            shards: Vec::new(),
            reason: reason.clone(),
            trace_id: self.rollout_trace_id(0, baseline_version),
        });
        self.set_phase(Phase::Shadowing {
            candidate,
            pipeline,
            live,
            rx,
            score: ShadowScore::default(),
            baseline_version,
            reason: reason.clone(),
        });
        Ok(StepOutcome::ShadowStarted { reason })
    }

    #[allow(clippy::too_many_arguments)]
    fn step_shadowing(
        &mut self,
        gateway: &Gateway,
        candidate: RuleSet,
        pipeline: Arc<ReadPipeline>,
        live: Arc<ReadPipeline>,
        rx: Receiver<Bytes>,
        mut score: ShadowScore,
        baseline_version: u64,
        reason: String,
    ) -> Result<StepOutcome, AdaptError> {
        let before_disagreements = score.disagreements;
        let drained = score.drain(&rx, &pipeline, &live);
        self.metrics.shadow_samples.add(drained);
        self.metrics
            .shadow_disagreements
            .add(score.disagreements - before_disagreements);
        if score.samples < self.config.shadow_min_samples {
            let samples = score.samples;
            self.set_phase(Phase::Shadowing {
                candidate,
                pipeline,
                live,
                rx,
                score,
                baseline_version,
                reason,
            });
            return Ok(StepOutcome::ShadowProgress { samples });
        }
        gateway.mirror().close();
        let drop_rate = score.candidate_drop_rate();
        if drop_rate > self.config.shadow_max_drop_rate {
            self.telemetry.recorder.record(Event::Rollout {
                phase: "shadow_reject".to_string(),
                version: 0,
                baseline: baseline_version,
                shards: Vec::new(),
                reason: format!(
                    "shadow drop rate {:.3} over {} samples exceeds {:.3}",
                    drop_rate, score.samples, self.config.shadow_max_drop_rate
                ),
                trace_id: self.rollout_trace_id(0, baseline_version),
            });
            self.metrics.shadow_rejects.inc();
            self.set_phase(Phase::Stable);
            self.monitor.reset();
            return Ok(StepOutcome::ShadowRejected { drop_rate });
        }
        self.enter_canary(gateway, candidate, baseline_version, reason)
    }

    fn enter_canary(
        &mut self,
        gateway: &Gateway,
        candidate: RuleSet,
        baseline_version: u64,
        reason: String,
    ) -> Result<StepOutcome, AdaptError> {
        let total_shards = gateway.config().shards;
        let canary_count = if total_shards > 1 {
            self.config.canary_shards.clamp(1, total_shards - 1)
        } else {
            1
        };
        let shards: Vec<usize> = (0..canary_count).collect();
        self.control
            .replace_ruleset(self.config.stage, &candidate, Action::Drop)?;
        let report = self.control.publish_to(&shards)?;
        let start = Box::new(gateway.snapshot());
        let fallback_reference = if start.totals.received > 0 {
            start.totals.dropped as f64 / start.totals.received as f64
        } else {
            0.0
        };
        self.telemetry.recorder.record(Event::Rollout {
            phase: "canary_start".to_string(),
            version: report.version,
            baseline: baseline_version,
            shards: shards.clone(),
            reason,
            trace_id: self.rollout_trace_id(report.version, baseline_version),
        });
        self.set_phase(Phase::Canarying {
            candidate,
            candidate_version: report.version,
            baseline_version,
            shards: shards.clone(),
            start,
            fallback_reference,
        });
        Ok(StepOutcome::CanaryStarted {
            version: report.version,
            shards,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn step_canarying(
        &mut self,
        gateway: &Gateway,
        candidate: RuleSet,
        candidate_version: u64,
        baseline_version: u64,
        shards: Vec<usize>,
        start: Box<GatewaySnapshot>,
        fallback_reference: f64,
    ) -> Result<StepOutcome, AdaptError> {
        let now = gateway.snapshot();
        let mut canary = (0u64, 0u64); // (received, dropped) deltas
        let mut control = (0u64, 0u64);
        for s in 0..now.shards.len() {
            let (after, before) = (now.shards[s].counters(), start.shards[s].counters());
            let recv = after.received - before.received;
            let drop = after.dropped - before.dropped;
            if shards.contains(&s) {
                canary.0 += recv;
                canary.1 += drop;
            } else {
                control.0 += recv;
                control.1 += drop;
            }
        }
        let has_control = now.shards.len() > shards.len();
        let quorum = canary.0 >= self.config.min_canary_frames
            && (!has_control || control.0 >= self.config.min_canary_frames);
        if !quorum {
            self.set_phase(Phase::Canarying {
                candidate,
                candidate_version,
                baseline_version,
                shards,
                start,
                fallback_reference,
            });
            return Ok(StepOutcome::CanaryProgress {
                canary_frames: canary.0,
                control_frames: control.0,
            });
        }

        let canary_rate = canary.1 as f64 / canary.0 as f64;
        let reference_rate = if has_control && control.0 > 0 {
            control.1 as f64 / control.0 as f64
        } else {
            fallback_reference
        };
        if canary_rate > reference_rate + self.config.guardrail_max_drop_increase {
            let reason = format!(
                "canary drop rate {canary_rate:.3} exceeds reference {reference_rate:.3} by more than {:.3}",
                self.config.guardrail_max_drop_increase
            );
            // Restore the shards' cells to the retained baseline snapshot
            // (records the `rolled_back` audit event) ...
            self.control.rollback_to(baseline_version, &reason)?;
            // ... and the mutable switch tables to the baseline rules, so
            // the next publish compiles the pre-canary state.
            let (_, baseline) = self.active.as_ref().ok_or(AdaptError::NoBaseline)?;
            self.control
                .replace_ruleset(self.config.stage, baseline, Action::Drop)?;
            self.metrics.rolled_back.inc();
            self.set_phase(Phase::Stable);
            self.monitor.reset();
            return Ok(StepOutcome::RolledBack {
                from: candidate_version,
                to: baseline_version,
            });
        }

        self.control.republish(candidate_version)?;
        self.telemetry.recorder.record(Event::Rollout {
            phase: "promoted".to_string(),
            version: candidate_version,
            baseline: baseline_version,
            shards: Vec::new(),
            reason: format!(
                "canary healthy: drop rate {canary_rate:.3} vs reference {reference_rate:.3}"
            ),
            trace_id: self.rollout_trace_id(candidate_version, baseline_version),
        });
        self.active = Some((candidate_version, candidate));
        self.metrics.promoted.inc();
        self.set_phase(Phase::Stable);
        self.monitor.reset();
        Ok(StepOutcome::Promoted {
            version: candidate_version,
        })
    }

    /// Builds an unpublished (version 0) pipeline with the candidate
    /// installed, shaped like the live ACL: same parser window, same key
    /// layout, one ternary stage.
    fn build_candidate_pipeline(&self, candidate: &RuleSet) -> Result<ReadPipeline, AdaptError> {
        let layout = AclLayout {
            window: self.retrainer.window,
            offsets: self.retrainer.offsets.clone(),
            capacity: candidate.len().max(1),
        };
        let shadow = ControlPlane::new(layout.switch("adapt-candidate", ["acl"]));
        shadow.replace_ruleset(0, candidate, Action::Drop)?;
        Ok(shadow.with_switch(|sw| sw.read_pipeline(0)))
    }

    fn check_width(&self, ruleset: &RuleSet) -> Result<(), AdaptError> {
        if ruleset.key_width() != self.retrainer.offsets.len() {
            return Err(AdaptError::WidthMismatch {
                expected: self.retrainer.offsets.len(),
                got: ruleset.key_width(),
            });
        }
        Ok(())
    }

    fn set_phase(&mut self, phase: Phase) {
        let now = Instant::now();
        if self.telemetry.traces.enabled() && phase.kind() != self.phase.kind() {
            // One span per transition, covering the phase being left, so a
            // rollout's trace reads as the sequence of adaptation states
            // the candidate moved through.
            let traces = &self.telemetry.traces;
            let duration_ns = u64::try_from(now.duration_since(self.phase_entered).as_nanos())
                .unwrap_or(u64::MAX);
            let end = traces.now_ns();
            traces.record(SpanRecord {
                trace_id: control_trace_id(self.active_version().unwrap_or(0)),
                span_id: traces.next_span_id(),
                parent_id: None,
                name: format!("adapt:{}", self.phase.kind().name()),
                start_ns: end.saturating_sub(duration_ns),
                duration_ns,
                meta: vec![("to".to_string(), phase.kind().name().to_string())],
            });
        }
        self.phase_entered = now;
        self.metrics.phase.set(phase.kind().gauge_value());
        self.phase = phase;
    }

    /// Control-plane trace id carried by a rollout audit event: derived
    /// from the candidate `version` when it is published, else from the
    /// `baseline` it is judged against. `None` when tracing is off.
    fn rollout_trace_id(&self, version: u64, baseline: u64) -> Option<u64> {
        self.telemetry
            .traces
            .enabled()
            .then(|| control_trace_id(if version != 0 { version } else { baseline }))
    }
}
