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

use p4guard_adapt::{AdaptConfig, AdaptEngine, DriftConfig, Retrainer, StepOutcome};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::trace::{AttackFamily, Trace};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use p4guard_traffic::scenario::{AttackEvent, Scenario};
use p4guard_traffic::Fleet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

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
        let mut table = crate::report::TextTable::new([
            "path",
            "baseline",
            "to shadow",
            "to canary",
            "to outcome",
            "outcome",
            "final",
            "converged",
        ]);
        for p in &self.paths {
            table.row([
                p.path.as_str(),
                &format!("v{}", p.baseline_version),
                &format!("{} frames", p.frames_to_shadow),
                &format!("{} frames", p.frames_to_canary),
                &format!("{} frames", p.frames_to_outcome),
                p.outcome.as_str(),
                &format!("v{}", p.final_version),
                if p.fleet_converged { "yes" } else { "no" },
            ]);
        }
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

/// Dispatches `trace` frames in chunks, stepping `engine` at each drained
/// checkpoint, and returns the frames-to-milestone counters plus the
/// terminal outcome (if reached).
fn drive(
    gw: &Gateway,
    engine: &mut AdaptEngine,
    trace: &Trace,
    expected: &mut u64,
) -> (u64, u64, u64, Option<StepOutcome>) {
    let frames: Vec<_> = trace.iter().map(|r| r.frame.clone()).collect();
    let mut replayed = 0u64;
    let mut to_shadow = 0u64;
    let mut to_canary = 0u64;
    for chunk in frames.chunks(CHUNK) {
        for f in chunk {
            gw.dispatch(f.clone());
        }
        *expected += chunk.len() as u64;
        replayed += chunk.len() as u64;
        gw.wait_drained(*expected, Duration::from_secs(30))
            .expect("gateway drains to the checkpoint");
        match engine.step(gw).expect("adaptation step") {
            StepOutcome::ShadowStarted { .. } => to_shadow = replayed,
            StepOutcome::CanaryStarted { .. } => to_canary = replayed,
            done @ (StepOutcome::Promoted { .. } | StepOutcome::RolledBack { .. }) => {
                return (to_shadow, to_canary, replayed, Some(done));
            }
            _ => {}
        }
    }
    (to_shadow, to_canary, replayed, None)
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
    let mut paths = Vec::new();

    // Path 1 — promote: SYN-flood baseline shifts to a UDP flood.
    {
        let baseline_sc = scenario(Some(AttackFamily::SynFlood), 16.0, seed);
        let shift_sc = scenario(Some(AttackFamily::UdpFlood), 16.0, seed.wrapping_add(2));
        let baseline_trace = baseline_sc.generate().expect("baseline generates");
        let shift_trace = shift_sc.generate().expect("shift generates");

        let control = build_control();
        let gw = Gateway::start_with_telemetry(&control, gw_config, Some(Arc::clone(&tel)));
        let r0 = retrainer()
            .retrain(&baseline_trace)
            .expect("baseline trains");
        let config = AdaptConfig {
            drift: DriftConfig {
                warmup_checks: 2,
                min_frames: 250,
                ph_delta: 0.01,
                ph_lambda: 10.0,
                chi_threshold: 60.0,
            },
            canary_shards: gw_config.shards / 2,
            min_canary_frames: 120,
            shadow_max_drop_rate: 0.8,
            guardrail_max_drop_increase: 0.7,
            ..AdaptConfig::default()
        };
        let mut engine = AdaptEngine::new(
            control.clone(),
            Arc::clone(&tel),
            retrainer(),
            shift_sc.clone(),
            config,
        );
        let initial = engine.install_initial(&r0).expect("baseline publishes");
        let mut expected = 0u64;
        // Warm the drift baseline on the pre-shift regime.
        drive(&gw, &mut engine, &baseline_trace, &mut expected);
        // Inject the shift and drive to the terminal outcome.
        let (to_shadow, to_canary, replayed, outcome) =
            drive(&gw, &mut engine, &shift_trace, &mut expected);
        let snap = gw.snapshot();
        paths.push(AdaptPath {
            path: "promote".to_string(),
            baseline_version: initial.version,
            frames_to_shadow: to_shadow,
            frames_to_canary: to_canary,
            frames_to_outcome: replayed,
            outcome: match outcome {
                Some(StepOutcome::Promoted { .. }) => "promoted".to_string(),
                other => format!("{other:?}"),
            },
            final_version: snap.version,
            fleet_converged: snap.shard_versions.iter().all(|v| *v == snap.version),
        });
    }

    // Path 2 — rollback: a poisoned candidate on benign traffic.
    {
        let benign_sc = scenario(None, 32.0, seed.wrapping_add(5));
        let benign_trace = benign_sc.generate().expect("benign generates");
        let baseline_trace = scenario(Some(AttackFamily::SynFlood), 16.0, seed)
            .generate()
            .expect("baseline generates");

        let control = build_control();
        let gw = Gateway::start_with_telemetry(&control, gw_config, Some(Arc::clone(&tel)));
        let r0 = retrainer()
            .retrain(&baseline_trace)
            .expect("baseline trains");
        let config = AdaptConfig {
            drift: DriftConfig {
                warmup_checks: 2,
                min_frames: 250,
                ph_delta: 0.01,
                ph_lambda: 50.0,
                chi_threshold: 1e9,
            },
            min_canary_frames: 100,
            shadow_max_drop_rate: 0.95,
            guardrail_max_drop_increase: 0.2,
            ..AdaptConfig::default()
        };
        let mut engine = AdaptEngine::new(
            control.clone(),
            Arc::clone(&tel),
            retrainer(),
            benign_sc.clone(),
            config,
        );
        let initial = engine.install_initial(&r0).expect("baseline publishes");
        let mut poisoned = RuleSet::new(OFFSETS.len(), 0);
        for proto in [6u8, 17u8] {
            poisoned.push(TernaryEntry::new(
                vec![proto, 0, 0, 0, 0],
                vec![0xff, 0, 0, 0, 0],
                1,
                5,
            ));
        }
        let mut expected = 0u64;
        engine
            .propose(&gw, poisoned, "f12-poisoned")
            .expect("proposal accepted");
        let (_, to_canary, replayed, outcome) =
            drive(&gw, &mut engine, &benign_trace, &mut expected);
        let snap = gw.snapshot();
        let exact_restore = engine
            .active_ruleset()
            .map(|r| r.diff(&r0).is_empty())
            .unwrap_or(false);
        paths.push(AdaptPath {
            path: "rollback".to_string(),
            baseline_version: initial.version,
            frames_to_shadow: 0, // proposal enters shadow immediately
            frames_to_canary: to_canary,
            frames_to_outcome: replayed,
            outcome: match outcome {
                Some(StepOutcome::RolledBack { .. }) => "rolled_back".to_string(),
                other => format!("{other:?}"),
            },
            final_version: snap.version,
            fleet_converged: snap.shard_versions.iter().all(|v| *v == snap.version)
                && exact_restore,
        });
    }

    AdaptRecoveryReport {
        seed,
        shards: gw_config.shards,
        paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f18_adapt_promotes_and_rolls_back() {
        let report = run_f18_adapt(7, 4, None);
        assert_eq!(report.paths.len(), 2);
        let promote = &report.paths[0];
        assert_eq!(promote.outcome, "promoted");
        assert!(promote.fleet_converged);
        assert_eq!(promote.final_version, promote.baseline_version + 1);
        assert!(promote.frames_to_shadow > 0);
        assert!(promote.frames_to_shadow <= promote.frames_to_canary);
        assert!(promote.frames_to_canary <= promote.frames_to_outcome);
        let rollback = &report.paths[1];
        assert_eq!(rollback.outcome, "rolled_back");
        assert!(
            rollback.fleet_converged,
            "exact baseline restored fleet-wide"
        );
        assert_eq!(rollback.final_version, rollback.baseline_version);
        let text = report.to_string();
        assert!(text.contains("promoted") && text.contains("rolled_back"));
    }
}
