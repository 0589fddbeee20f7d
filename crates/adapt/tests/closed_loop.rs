//! End-to-end closed-loop adaptation tests.
//!
//! Each test drives a real sharded [`Gateway`] with scenario traffic in
//! chunks, stepping the [`AdaptEngine`] only at drained checkpoints
//! (every dispatched frame processed, registry flushed), so every run is
//! seed-deterministic: same traffic, same drift decision, same published
//! versions.
//!
//! Covered paths:
//! - regime shift → drift → retrain → shadow → canary → **promote**,
//!   with `/metrics` and `/events` scrape assertions;
//! - operator-proposed poisoned candidate → shadow passes → canary
//!   guardrail trips → **rollback** restores the exact prior version;
//! - drop-everything candidate → **shadow reject**, plus the NotStable
//!   guard against concurrent proposals.

use bytes::Bytes;
use p4guard_adapt::{
    AdaptConfig, AdaptEngine, AdaptError, DriftConfig, PhaseKind, Retrainer, StepOutcome,
};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_features::ByteDataset;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::{AttackFamily, Trace};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::{http_get, MetricsServer, Telemetry, TelemetryConfig};
use p4guard_traffic::{AttackEvent, Fleet, Scenario};
use std::sync::Arc;
use std::time::Duration;

/// Byte window the ACL parser captures.
const WINDOW: usize = 64;
/// ACL key: IPv4 protocol byte plus source/destination port bytes.
const OFFSETS: [usize; 5] = [23, 34, 35, 36, 37];
/// Frames dispatched between engine checkpoints.
const CHUNK: usize = 300;

/// A mixed-fleet scenario with benign traffic boosted (~55 fps) and an
/// optional full-duration attack damped to ~half the frame share, so
/// drift statistics see a balanced mix.
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

/// A control plane over a one-stage ternary ACL shaped like the
/// retrainer's key layout.
fn build_control() -> ControlPlane {
    let layout = AclLayout {
        window: WINDOW,
        offsets: OFFSETS.to_vec(),
        capacity: 8192,
    };
    ControlPlane::new(layout.switch("closed-loop", ["acl"]))
}

fn telemetry() -> Arc<Telemetry> {
    Arc::new(Telemetry::new(TelemetryConfig {
        events_capacity: 8192,
        sample_every: 8,
        seed: 1,
        ..TelemetryConfig::default()
    }))
}

/// Dispatches `frames` and blocks until the gateway has drained them all
/// (and with them the telemetry registry: see `Gateway::wait_drained`).
fn replay_chunk(gw: &Gateway, frames: &[Bytes], expected: &mut u64) {
    for f in frames {
        gw.dispatch(f.clone());
    }
    *expected += frames.len() as u64;
    gw.wait_drained(*expected, Duration::from_secs(30))
        .expect("gateway drains the chunk");
}

fn frames_of(trace: &Trace) -> Vec<Bytes> {
    trace.iter().map(|r| r.frame.clone()).collect()
}

/// Sums a counter family across label sets, optionally requiring one
/// label pair.
fn counter_value(telemetry: &Telemetry, name: &str, label: Option<(&str, &str)>) -> u64 {
    telemetry
        .registry
        .counter_snapshot()
        .into_iter()
        .filter(|(n, labels, _)| {
            n == name
                && label
                    .map(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
                    .unwrap_or(true)
        })
        .map(|(_, _, v)| v)
        .sum()
}

/// Classification recall of `rules` on the attack frames of `trace`.
fn attack_recall(rules: &RuleSet, trace: &Trace) -> f64 {
    let projected = ByteDataset::from_trace(trace, WINDOW).project(&OFFSETS);
    let mut attacks = 0usize;
    let mut hit = 0usize;
    for i in 0..projected.len() {
        if projected.labels()[i] == 1 {
            attacks += 1;
            hit += usize::from(rules.classify(projected.sample(i)) == 1);
        }
    }
    assert!(attacks > 0, "trace has attack frames");
    hit as f64 / attacks as f64
}

/// The full loop: a TCP SYN-flood baseline regime shifts to a UDP flood;
/// drift fires, the engine retrains on the new regime, shadows the
/// candidate on mirrored traffic, canaries it on two of four shards, and
/// promotes it fleet-wide. Deterministic for the fixed seeds.
#[test]
fn drift_shadow_canary_promote_end_to_end() {
    let baseline_sc = scenario(Some(AttackFamily::SynFlood), 16.0, 7);
    let shift_sc = scenario(Some(AttackFamily::UdpFlood), 16.0, 9);
    let baseline_trace = baseline_sc.generate().unwrap();
    let shift_trace = shift_sc.generate().unwrap();

    let control = build_control();
    let tel = telemetry();
    let gw = Gateway::start_with_telemetry(
        &control,
        GatewayConfig {
            shards: 4,
            queue_capacity: 8192,
            batch_size: 32,
        },
        Some(Arc::clone(&tel)),
    );

    let r0 = retrainer().retrain(&baseline_trace).unwrap();
    // Thresholds are policy: after a genuine regime shift a good candidate
    // drops ~ the attack share (~0.5 here), so the drift path runs with
    // generous shadow/canary allowances and tight drift thresholds.
    let config = AdaptConfig {
        drift: DriftConfig {
            warmup_checks: 2,
            min_frames: 250,
            ph_delta: 0.01,
            ph_lambda: 10.0,
            chi_threshold: 60.0,
        },
        stage: 0,
        mirror_stride: 4,
        mirror_capacity: 4096,
        shadow_min_samples: 64,
        shadow_max_drop_rate: 0.8,
        canary_shards: 2,
        min_canary_frames: 120,
        guardrail_max_drop_increase: 0.7,
        guardrail_max_p99_factor: None,
    };
    let mut engine = AdaptEngine::new(
        control.clone(),
        Arc::clone(&tel),
        retrainer(),
        shift_sc.clone(),
        config,
    );
    let initial = engine.install_initial(&r0).unwrap();
    assert_eq!(engine.active_version(), Some(initial.version));
    assert_eq!(engine.phase(), PhaseKind::Stable);

    let mut expected = 0u64;
    // Baseline regime: the monitor warms up, freezes its baseline, then
    // stays quiet on the stationary mix.
    for (i, chunk) in frames_of(&baseline_trace).chunks(CHUNK).enumerate() {
        replay_chunk(&gw, chunk, &mut expected);
        let outcome = engine.step(&gw).unwrap();
        assert_eq!(
            outcome,
            StepOutcome::Idle,
            "baseline chunk {i} must be quiet"
        );
    }
    assert!(engine.monitor().warmed_up(), "baseline froze during warmup");

    // Regime shift: keep stepping through the shifted traffic and record
    // the interesting transitions.
    let mut transitions = Vec::new();
    for chunk in frames_of(&shift_trace).chunks(CHUNK) {
        replay_chunk(&gw, chunk, &mut expected);
        let outcome = engine.step(&gw).unwrap();
        match &outcome {
            StepOutcome::Idle
            | StepOutcome::ShadowProgress { .. }
            | StepOutcome::CanaryProgress { .. } => {}
            other => transitions.push(other.clone()),
        }
        if matches!(outcome, StepOutcome::Promoted { .. }) {
            break;
        }
    }

    assert_eq!(transitions.len(), 3, "shift transitions: {transitions:?}");
    let StepOutcome::ShadowStarted { reason } = &transitions[0] else {
        panic!("expected ShadowStarted, got {:?}", transitions[0]);
    };
    assert!(reason.starts_with("drift:"), "drift-triggered: {reason}");
    let drift_metric = reason.strip_prefix("drift:").unwrap().to_string();
    let StepOutcome::CanaryStarted { version, shards } = &transitions[1] else {
        panic!("expected CanaryStarted, got {:?}", transitions[1]);
    };
    assert_eq!(shards, &vec![0, 1], "two canary shards, in shard order");
    assert_eq!(*version, initial.version + 1);
    let StepOutcome::Promoted { version: promoted } = &transitions[2] else {
        panic!("expected Promoted, got {:?}", transitions[2]);
    };
    assert_eq!(*promoted, initial.version + 1);

    // Fleet converged on the promoted version, and the engine's history
    // agrees.
    let snap = gw.snapshot();
    assert_eq!(snap.version, *promoted);
    assert!(snap.shard_versions.iter().all(|v| *v == *promoted));
    assert_eq!(engine.active_version(), Some(*promoted));
    assert_eq!(engine.phase(), PhaseKind::Stable);

    // The promoted ruleset actually learned the new regime.
    let active = engine.active_ruleset().unwrap();
    assert!(
        !active.diff(&r0).is_empty(),
        "promoted ruleset differs from the stale baseline"
    );
    assert!(
        attack_recall(active, &shift_trace) >= 0.7,
        "promoted ruleset catches the UDP flood"
    );

    // Counters: one drift, one retrain, one promoted rollout, no rejects.
    assert_eq!(
        counter_value(&tel, "adapt_drift_total", Some(("metric", &drift_metric))),
        1
    );
    assert_eq!(counter_value(&tel, "adapt_retrains_total", None), 1);
    assert_eq!(
        counter_value(&tel, "adapt_rollouts_total", Some(("outcome", "promoted"))),
        1
    );
    assert_eq!(
        counter_value(
            &tel,
            "adapt_rollouts_total",
            Some(("outcome", "rolled_back"))
        ),
        0
    );
    assert_eq!(
        counter_value(&tel, "adapt_candidate_rejects_total", None),
        0
    );
    assert!(counter_value(&tel, "adapt_shadow_samples_total", None) >= 64);

    // The whole story is visible over HTTP: adapt_* counters at /metrics,
    // the audit trail at /events.
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&tel)).unwrap();
    let addr = server.local_addr().to_string();
    let (code, metrics) = http_get(&addr, "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(code, 200);
    for needle in [
        "adapt_drift_total",
        "adapt_retrains_total 1",
        "adapt_rollouts_total",
        "adapt_phase 0",
    ] {
        assert!(metrics.contains(needle), "/metrics missing {needle:?}");
    }
    let (code, events) = http_get(&addr, "/events", Duration::from_secs(5)).unwrap();
    assert_eq!(code, 200);
    for needle in ["Drift", "shadow_start", "canary_start", "promoted"] {
        assert!(events.contains(needle), "/events missing {needle:?}");
    }
}

/// A poisoned candidate (drops all TCP and UDP — ~85% of benign traffic)
/// passes the coarse shadow gate but trips the canary drop-rate guardrail
/// against the control shards; the engine rolls the fleet back to the
/// exact prior version, cells and switch tables both.
#[test]
fn poisoned_candidate_trips_guardrail_and_rolls_back() {
    let benign_sc = scenario(None, 32.0, 3);
    let benign_trace = benign_sc.generate().unwrap();
    let baseline_trace = scenario(Some(AttackFamily::SynFlood), 16.0, 7)
        .generate()
        .unwrap();

    let control = build_control();
    let tel = telemetry();
    let gw = Gateway::start_with_telemetry(
        &control,
        GatewayConfig {
            shards: 4,
            queue_capacity: 8192,
            batch_size: 32,
        },
        Some(Arc::clone(&tel)),
    );

    let r0 = retrainer().retrain(&baseline_trace).unwrap();
    let config = AdaptConfig {
        drift: DriftConfig {
            warmup_checks: 2,
            min_frames: 250,
            ph_delta: 0.01,
            ph_lambda: 50.0,
            chi_threshold: 1e9, // propose path only; drift must stay quiet
        },
        stage: 0,
        mirror_stride: 4,
        mirror_capacity: 4096,
        shadow_min_samples: 64,
        shadow_max_drop_rate: 0.95,
        canary_shards: 1,
        min_canary_frames: 100,
        guardrail_max_drop_increase: 0.2,
        guardrail_max_p99_factor: None,
    };
    let mut engine = AdaptEngine::new(
        control.clone(),
        Arc::clone(&tel),
        retrainer(),
        benign_sc.clone(),
        config,
    );
    let initial = engine.install_initial(&r0).unwrap();

    // Poisoned candidate: drop every TCP and UDP frame.
    let mut poisoned = RuleSet::new(OFFSETS.len(), 0);
    for proto in [6u8, 17u8] {
        poisoned.push(TernaryEntry::new(
            vec![proto, 0, 0, 0, 0],
            vec![0xff, 0, 0, 0, 0],
            1,
            5,
        ));
    }

    let frames = frames_of(&benign_trace);
    let mut chunks = frames.chunks(CHUNK);
    let mut expected = 0u64;

    // Establish pre-canary counters, then propose.
    replay_chunk(&gw, chunks.next().unwrap(), &mut expected);
    let outcome = engine.propose(&gw, poisoned.clone(), "poisoned").unwrap();
    assert_eq!(
        outcome,
        StepOutcome::ShadowStarted {
            reason: "proposed:poisoned".to_string()
        }
    );

    // Drive the lifecycle to its terminal outcome.
    let mut rolled_back = None;
    let mut saw_canary_start = false;
    for chunk in chunks {
        replay_chunk(&gw, chunk, &mut expected);
        match engine.step(&gw).unwrap() {
            StepOutcome::CanaryStarted { version, .. } => {
                assert_eq!(version, initial.version + 1);
                saw_canary_start = true;
            }
            StepOutcome::RolledBack { from, to } => {
                rolled_back = Some((from, to));
                break;
            }
            StepOutcome::ShadowProgress { .. } | StepOutcome::CanaryProgress { .. } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(saw_canary_start, "candidate reached the canary phase");
    let (from, to) = rolled_back.expect("guardrail tripped");
    assert_eq!(from, initial.version + 1);
    assert_eq!(to, initial.version);

    // Every shard's cell serves the exact baseline version again.
    let snap = gw.snapshot();
    assert_eq!(snap.version, initial.version);
    assert!(
        snap.shard_versions.iter().all(|v| *v == initial.version),
        "shard versions {:?} != baseline {}",
        snap.shard_versions,
        initial.version
    );
    assert_eq!(engine.active_version(), Some(initial.version));
    assert_eq!(engine.phase(), PhaseKind::Stable);
    assert!(
        engine.active_ruleset().unwrap().diff(&r0).is_empty(),
        "engine history still holds the exact baseline rules"
    );

    // The switch tables were restored too: a fresh publish compiles the
    // baseline entry set, not the poisoned one.
    let report = control.publish_audited(None, false);
    assert_eq!(report.entries, r0.len(), "tables hold the baseline rules");

    // Audit trail and counters tell the rollback story.
    assert_eq!(
        counter_value(
            &tel,
            "adapt_rollouts_total",
            Some(("outcome", "rolled_back"))
        ),
        1
    );
    assert_eq!(
        counter_value(&tel, "adapt_rollouts_total", Some(("outcome", "promoted"))),
        0
    );
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&tel)).unwrap();
    let (code, events) = http_get(
        &server.local_addr().to_string(),
        "/events",
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(code, 200);
    for needle in [
        "shadow_start",
        "canary_start",
        "rolled_back",
        "proposed:poisoned",
    ] {
        assert!(events.contains(needle), "/events missing {needle:?}");
    }
}

/// A drop-everything candidate is rejected by the shadow gate without
/// ever touching an enforcement path, and proposing while a shadow is in
/// flight is refused.
#[test]
fn shadow_gate_rejects_drop_everything_candidate() {
    let benign_sc = scenario(None, 16.0, 5);
    let benign_trace = benign_sc.generate().unwrap();

    let control = build_control();
    let tel = telemetry();
    let gw = Gateway::start_with_telemetry(
        &control,
        GatewayConfig {
            shards: 2,
            queue_capacity: 8192,
            batch_size: 32,
        },
        Some(Arc::clone(&tel)),
    );

    let baseline = RuleSet::new(OFFSETS.len(), 0); // empty: forward all
    let config = AdaptConfig {
        shadow_min_samples: 32,
        shadow_max_drop_rate: 0.5,
        ..AdaptConfig::default()
    };
    let mut engine = AdaptEngine::new(
        control.clone(),
        Arc::clone(&tel),
        retrainer(),
        benign_sc.clone(),
        config,
    );
    let initial = engine.install_initial(&baseline).unwrap();

    // Wildcard drop-all candidate.
    let mut drop_all = RuleSet::new(OFFSETS.len(), 0);
    drop_all.push(TernaryEntry::new(vec![0; 5], vec![0; 5], 1, 1));
    engine.propose(&gw, drop_all.clone(), "drop-all").unwrap();
    assert_eq!(engine.phase(), PhaseKind::Shadowing);

    // A second proposal mid-shadow is refused.
    let err = engine.propose(&gw, drop_all, "again").unwrap_err();
    assert!(matches!(err, AdaptError::NotStable("shadowing")), "{err}");

    let mut expected = 0u64;
    let mut rejected = None;
    for chunk in frames_of(&benign_trace).chunks(CHUNK) {
        replay_chunk(&gw, chunk, &mut expected);
        match engine.step(&gw).unwrap() {
            StepOutcome::ShadowProgress { .. } => {}
            StepOutcome::ShadowRejected { drop_rate } => {
                rejected = Some(drop_rate);
                break;
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let drop_rate = rejected.expect("shadow gate fired");
    assert!(drop_rate > 0.9, "drop-all candidate drops ~everything");

    // Nothing was published: version unchanged, engine stable again, the
    // reject is counted and audited.
    let snap = gw.snapshot();
    assert_eq!(snap.version, initial.version);
    assert_eq!(engine.phase(), PhaseKind::Stable);
    assert_eq!(engine.active_version(), Some(initial.version));
    assert_eq!(
        counter_value(
            &tel,
            "adapt_candidate_rejects_total",
            Some(("gate", "shadow"))
        ),
        1
    );
    assert_eq!(counter_value(&tel, "adapt_rollouts_total", None), 0);
    let events = tel.recorder.events();
    assert!(events
        .iter()
        .any(|e| matches!(&e.event, p4guard_telemetry::Event::Rollout { phase, .. } if phase == "shadow_reject")));
}
