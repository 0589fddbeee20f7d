//! F18-adapt: detection → recovery time of the closed adaptation loop
//! after an injected traffic shift.
//!
//! Two paths of the [`p4guard_adapt::AdaptEngine`] lifecycle are driven
//! against a live sharded gateway, both seed-deterministic:
//!
//! - **promote**: the traffic regime shifts from a TCP SYN flood to a UDP
//!   flood; the drift detector fires, the engine retrains, shadows the
//!   candidate on mirrored frames, canaries it on a shard subset, and
//!   promotes it fleet-wide. We report how many frames into the shift each
//!   milestone landed.
//! - **rollback**: a poisoned candidate (drops all TCP/UDP) is proposed on
//!   benign traffic; the canary drop-rate guardrail trips and the fleet is
//!   restored to the exact prior version.

use crate::experiments::live;
use crate::report::{yes_no, TextTable};
use p4guard_adapt::{AdaptConfig, AdaptEngine, DriftConfig, Retrainer, StepOutcome};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::arena::FrameBatch;
use p4guard_packet::trace::{AttackFamily, Trace};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use p4guard_traffic::scenario::{AttackEvent, Scenario};
use p4guard_traffic::Fleet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Byte window the ACL parser captures.
const WINDOW: usize = 64;
/// ACL key: IPv4 protocol byte plus source/destination port bytes.
const OFFSETS: [usize; 5] = [23, 34, 35, 36, 37];
/// Frames dispatched between engine checkpoints.
const CHUNK: usize = 300;

/// One driven path of the adaptation loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptPath {
    /// `"promote"` or `"rollback"`.
    pub path: String,
    /// Version of the baseline ruleset published before the event.
    pub baseline_version: u64,
    /// Frames replayed after the shift/proposal before the candidate
    /// entered shadow evaluation.
    pub frames_to_shadow: u64,
    /// Frames replayed before the candidate reached the canary shards.
    pub frames_to_canary: u64,
    /// Frames replayed before the loop reached its terminal outcome.
    pub frames_to_outcome: u64,
    /// Terminal outcome: `"promoted"` or `"rolled_back"`.
    pub outcome: String,
    /// Version the fleet converged on.
    pub final_version: u64,
    /// Whether every shard's published version equals `final_version`.
    pub fleet_converged: bool,
}

/// The F18-adapt report: recovery behaviour on both lifecycle paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptRecoveryReport {
    /// Scenario seed.
    pub seed: u64,
    /// Gateway shards.
    pub shards: usize,
    /// The promote and rollback paths, in that order.
    pub paths: Vec<AdaptPath>,
}

impl fmt::Display for AdaptRecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F18-adapt: closed-loop recovery after a traffic shift (seed {}, {} shards)",
            self.seed, self.shards
        )?;
        let table = TextTable::of(
            &self.paths,
            &[
                ("path", |p| p.path.clone()),
                ("baseline", |p| format!("v{}", p.baseline_version)),
                ("to shadow", |p| format!("{} frames", p.frames_to_shadow)),
                ("to canary", |p| format!("{} frames", p.frames_to_canary)),
                ("to outcome", |p| format!("{} frames", p.frames_to_outcome)),
                ("outcome", |p| p.outcome.clone()),
                ("final", |p| format!("v{}", p.final_version)),
                ("converged", |p| yes_no(p.fleet_converged)),
            ],
        );
        write!(f, "{table}")
    }
}

fn scenario(family: Option<AttackFamily>, duration_s: f64, seed: u64) -> Scenario {
    Scenario {
        fleet: Fleet::mixed(),
        duration_s,
        seed,
        benign_intensity: 8.0,
        attacks: family
            .map(|f| {
                vec![AttackEvent {
                    family: f,
                    start_s: 0.0,
                    end_s: duration_s,
                    intensity: 0.5,
                }]
            })
            .unwrap_or_default(),
    }
}

fn retrainer() -> Retrainer {
    Retrainer::new(WINDOW, OFFSETS.to_vec())
}

fn build_control() -> ControlPlane {
    let layout = AclLayout {
        window: WINDOW,
        offsets: OFFSETS.to_vec(),
        capacity: 8192,
    };
    ControlPlane::new(layout.switch("adapt-exp", ["acl"]))
}

/// Feeds `trace` in chunks, stepping `engine` at each drained checkpoint,
/// and returns the frames-to-milestone counters plus the terminal outcome
/// (if reached).
fn drive(
    gateway: &Gateway,
    engine: &mut AdaptEngine,
    trace: &Trace,
) -> (u64, u64, u64, Option<StepOutcome>) {
    let frames: Vec<_> = trace
        .iter()
        .map(|r| FrameBatch::single(r.frame.clone()))
        .collect();
    let before = gateway.snapshot().offered;
    let replayed = || gateway.snapshot().offered - before;
    let mut to_shadow = 0u64;
    let mut to_canary = 0u64;
    let mut outcome = None;
    live::feed(
        gateway,
        frames.chunks(CHUNK).map(|c| c.iter().cloned()),
        true,
        || {
            let replayed = replayed();
            match engine.step(gateway).expect("adaptation step") {
                StepOutcome::ShadowStarted { .. } => to_shadow = replayed,
                StepOutcome::CanaryStarted { .. } => to_canary = replayed,
                done @ (StepOutcome::Promoted { .. } | StepOutcome::RolledBack { .. }) => {
                    outcome = Some(done);
                    return ControlFlow::Break(());
                }
                _ => {}
            }
            ControlFlow::Continue(())
        },
    );
    (to_shadow, to_canary, replayed(), outcome)
}

/// Drives one lifecycle path against a fresh gateway: a SYN-flood
/// baseline is installed, then `regime` traffic is served under `config`
/// until the engine reaches a terminal outcome. Without a `proposal` the
/// drift baseline is first warmed on the pre-shift regime, so the engine
/// has to notice the shift itself; with one, the candidate is put to the
/// engine directly and enters shadow immediately.
fn run_path(
    path: &str,
    seed: u64,
    (gw_config, tel): (GatewayConfig, &Arc<Telemetry>),
    regime: Scenario,
    config: AdaptConfig,
    proposal: Option<RuleSet>,
) -> AdaptPath {
    let baseline_trace = scenario(Some(AttackFamily::SynFlood), 16.0, seed)
        .generate()
        .expect("baseline generates");
    let regime_trace = regime.generate().expect("regime generates");
    let control = build_control();
    let gw = Gateway::start_with_telemetry(&control, gw_config, Some(Arc::clone(tel)));
    let r0 = retrainer()
        .retrain(&baseline_trace)
        .expect("baseline trains");
    let mut engine = AdaptEngine::new(
        control.clone(),
        Arc::clone(tel),
        retrainer(),
        regime,
        config,
    );
    let initial = engine.install_initial(&r0).expect("baseline publishes");
    let proposed = proposal.is_some();
    if let Some(candidate) = proposal {
        engine
            .propose(&gw, candidate, "f12-poisoned")
            .expect("proposal accepted");
    } else {
        drive(&gw, &mut engine, &baseline_trace);
    }
    let (to_shadow, to_canary, replayed, outcome) = drive(&gw, &mut engine, &regime_trace);
    let snap = gw.finish();
    // A rollback must also put the exact baseline ruleset back.
    let restored = || {
        let active = engine.active_ruleset();
        active.is_some_and(|r| r.diff(&r0).is_empty())
    };
    AdaptPath {
        path: path.to_string(),
        baseline_version: initial.version,
        frames_to_shadow: if proposed { 0 } else { to_shadow },
        frames_to_canary: to_canary,
        frames_to_outcome: replayed,
        outcome: match outcome {
            Some(StepOutcome::Promoted { .. }) => "promoted".to_string(),
            Some(StepOutcome::RolledBack { .. }) => "rolled_back".to_string(),
            other => format!("{other:?}"),
        },
        final_version: snap.version,
        fleet_converged: snap.shard_versions.iter().all(|v| *v == snap.version)
            && (!proposed || restored()),
    }
}

/// Runs both adaptation paths and reports detection → recovery frame
/// counts. The optional `telemetry` (e.g. one already served over HTTP by
/// `p4guard-cli serve --adapt --metrics-addr ...`) collects the `adapt_*`
/// counters and rollout audit events from both paths.
pub fn run_f18_adapt(
    seed: u64,
    shards: usize,
    telemetry: Option<Arc<Telemetry>>,
) -> AdaptRecoveryReport {
    let tel = telemetry.unwrap_or_else(|| {
        Arc::new(Telemetry::new(TelemetryConfig {
            events_capacity: 8192,
            sample_every: 8,
            seed,
            ..TelemetryConfig::default()
        }))
    });
    let gw_config = GatewayConfig {
        shards: shards.max(2),
        queue_capacity: 8192,
        batch_size: 32,
    };
    let drift = |ph_lambda, chi_threshold| DriftConfig {
        warmup_checks: 2,
        min_frames: 250,
        ph_delta: 0.01,
        ph_lambda,
        chi_threshold,
    };

    // Promote: the SYN-flood baseline shifts to a UDP flood.
    let promote = run_path(
        "promote",
        seed,
        (gw_config, &tel),
        scenario(Some(AttackFamily::UdpFlood), 16.0, seed.wrapping_add(2)),
        AdaptConfig {
            drift: drift(10.0, 60.0),
            canary_shards: gw_config.shards / 2,
            min_canary_frames: 120,
            shadow_max_drop_rate: 0.8,
            guardrail_max_drop_increase: 0.7,
            ..AdaptConfig::default()
        },
        None,
    );

    // Rollback: a poisoned candidate (drops all TCP/UDP) on benign traffic.
    let mut poisoned = RuleSet::new(OFFSETS.len(), 0);
    for proto in [6u8, 17u8] {
        poisoned.push(TernaryEntry::new(
            vec![proto, 0, 0, 0, 0],
            vec![0xff, 0, 0, 0, 0],
            1,
            5,
        ));
    }
    let rollback = run_path(
        "rollback",
        seed,
        (gw_config, &tel),
        scenario(None, 32.0, seed.wrapping_add(5)),
        AdaptConfig {
            drift: drift(50.0, 1e9),
            min_canary_frames: 100,
            shadow_max_drop_rate: 0.95,
            guardrail_max_drop_increase: 0.2,
            ..AdaptConfig::default()
        },
        Some(poisoned),
    );

    AdaptRecoveryReport {
        seed,
        shards: gw_config.shards,
        paths: vec![promote, rollback],
    }
}
