//! Canary-rollback fault schedule: a poisoned candidate passes the
//! shadow gate, reaches the canary shards, trips the drop-rate guardrail
//! mid-rollout, and is rolled back.
//!
//! Oracles:
//! * **Exact restoration** — after rollback every shard cell serves the
//!   baseline *version number* again, and the engine's active ruleset is
//!   multiset-identical to the pre-canary baseline
//!   ([`RuleSet::diff`] emptiness, both directions by construction).
//! * **Behavioural equality** — post-rollback gateway verdict deltas on a
//!   fresh workload equal a single switch replaying the same frames under
//!   the baseline ruleset: the *tables* were restored, not just the
//!   version label.
//! * **Re-entrancy** — the schedule repeats the poisoned proposal; the
//!   engine must be stable after rollback and every cycle must land back
//!   on the same baseline.

use bytes::Bytes;
use p4guard_adapt::{AdaptConfig, AdaptEngine, DriftConfig, PhaseKind, Retrainer, StepOutcome};
use p4guard_conformance::schedule::{build_control, frame, PROTO_OFF};
use p4guard_dataplane::action::Action;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use p4guard_traffic::{Fleet, Scenario};
use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xca9a_12b4;

/// Frames dispatched between engine checkpoints.
const CHUNK: usize = 400;

/// A randomized workload over 16 flows and a fixed protocol palette:
/// TCP, UDP, ICMP, GRE in equal shares. The baseline drops only GRE
/// (~25%); the poisoned candidate drops TCP, UDP and ICMP (~75%), so the
/// canary/control drop-rate gap is ~0.5 — far past the 0.2 guardrail but
/// well inside the 0.9 shadow gate.
fn workload<R: Rng>(rng: &mut R, n: usize) -> Vec<Bytes> {
    (0..n)
        .map(|i| {
            let proto = *[6u8, 17, 1, 47]
                .choose(rng)
                .expect("protocol list is non-empty");
            frame(rng.gen_range(0..16), proto, i as u8)
        })
        .collect()
}

/// Drops exactly the given protocol bytes.
fn drop_protos(protos: &[u8]) -> RuleSet {
    let mut rs = RuleSet::new(1, 0);
    for (i, p) in protos.iter().enumerate() {
        rs.push(TernaryEntry::new(vec![*p], vec![0xff], 1, i as i32 + 1));
    }
    rs
}

/// Dispatches `frames` and blocks until the gateway has drained them, so
/// the next `engine.step` sees exact counters.
fn replay_chunk(gw: &Gateway, frames: &[Bytes]) {
    for f in frames {
        gw.dispatch(f.clone());
    }
    gw.wait_drained(Duration::from_secs(30))
        .expect("gateway drains the chunk");
}

/// A guardrail-quiet engine config: drift statistically disabled (the
/// schedule drives the propose path only), shadow gate loose enough to
/// admit the poisoned candidate, canary guardrail tight enough to trip.
fn config() -> AdaptConfig {
    AdaptConfig {
        drift: DriftConfig {
            warmup_checks: 2,
            min_frames: 250,
            ph_delta: 0.01,
            ph_lambda: 1e9,
            chi_threshold: 1e9,
        },
        stage: 0,
        mirror_stride: 2,
        mirror_capacity: 4096,
        shadow_min_samples: 32,
        shadow_max_drop_rate: 0.9,
        canary_shards: 1,
        min_canary_frames: 200,
        guardrail_max_drop_increase: 0.2,
    }
}

/// Drives one poisoned proposal to its terminal outcome. Returns the
/// `(from, to)` versions of the rollback and whether a canary phase was
/// observed before it.
fn drive_poisoned_cycle<R: Rng>(
    rng: &mut R,
    gw: &Gateway,
    engine: &mut AdaptEngine,
    poisoned: &RuleSet,
) -> (u64, u64, bool) {
    let frames = workload(rng, 4 * CHUNK);
    replay_chunk(gw, &frames[..CHUNK]);
    let outcome = engine
        .propose(gw, poisoned.clone(), "conformance-poison")
        .expect("stable engine accepts a proposal");
    assert!(
        matches!(outcome, StepOutcome::ShadowStarted { .. }),
        "proposal enters shadow, got {outcome:?}"
    );

    let mut saw_canary = false;
    let mut rolled_back = None;
    let mut chunk_start = CHUNK;
    // The schedule keeps generating traffic until the guardrail decides;
    // the loop is bounded by the drain deadline inside replay_chunk.
    while rolled_back.is_none() {
        let chunk: Vec<Bytes> = if chunk_start + CHUNK <= frames.len() {
            let c = frames[chunk_start..chunk_start + CHUNK].to_vec();
            chunk_start += CHUNK;
            c
        } else {
            workload(rng, CHUNK)
        };
        replay_chunk(gw, &chunk);
        match engine.step(gw).expect("step succeeds") {
            StepOutcome::CanaryStarted { .. } => saw_canary = true,
            StepOutcome::RolledBack { from, to } => rolled_back = Some((from, to)),
            StepOutcome::ShadowProgress { .. } | StepOutcome::CanaryProgress { .. } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let (from, to) = rolled_back.expect("guardrail tripped");
    (from, to, saw_canary)
}

/// The full schedule, for 2- and 4-shard gateways: two poisoned-proposal
/// cycles, each ending in a guardrail rollback that restores the exact
/// baseline, then a behavioural check against a single-switch replay.
#[test]
fn canary_guardrail_rollback_restores_exact_baseline() {
    for shards in [2usize, 4] {
        let mut rng = StdRng::seed_from_u64(SEED ^ shards as u64);
        let control = build_control("adapt-conf").0;
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let gw = Gateway::start_with_telemetry(
            &control,
            GatewayConfig {
                shards,
                queue_capacity: 8192,
                batch_size: 32,
            },
            Some(Arc::clone(&telemetry)),
        );

        let r0 = drop_protos(&[47]); // baseline: drop GRE only
        let poisoned = drop_protos(&[6, 17, 1]); // drop TCP+UDP+ICMP
        let window_source = Scenario {
            fleet: Fleet::mixed(),
            duration_s: 1.0,
            seed: SEED,
            benign_intensity: 1.0,
            attacks: Vec::new(),
        };
        let mut engine = AdaptEngine::new(
            control.clone(),
            Arc::clone(&telemetry),
            Retrainer::new(64, vec![PROTO_OFF]),
            window_source,
            config(),
        );
        let initial = engine.install_initial(&r0).expect("baseline installs");

        for cycle in 0..2 {
            let (from, to, saw_canary) =
                drive_poisoned_cycle(&mut rng, &gw, &mut engine, &poisoned);
            assert!(
                saw_canary,
                "{shards}-shard cycle {cycle}: guardrail must trip mid-rollout, after canary start"
            );
            assert!(
                from > initial.version,
                "{shards}-shard cycle {cycle}: canary version advances past the baseline"
            );
            assert_eq!(
                to, initial.version,
                "{shards}-shard cycle {cycle}: rollback targets the baseline version"
            );

            // Exact restoration: version on every shard cell, and the
            // active ruleset multiset-identical to the baseline.
            let snap = gw.snapshot();
            assert_eq!(snap.version, initial.version);
            assert!(
                snap.shard_versions.iter().all(|v| *v == initial.version),
                "{shards}-shard cycle {cycle}: shard versions {:?} != baseline {}",
                snap.shard_versions,
                initial.version
            );
            assert_eq!(engine.phase(), PhaseKind::Stable, "engine is reusable");
            let active = engine.active_ruleset().expect("baseline retained");
            assert!(
                active.diff(&r0).is_empty() && r0.diff(active).is_empty(),
                "{shards}-shard cycle {cycle}: restored ruleset differs from baseline"
            );
        }

        // Behavioural equality: fresh workload through the rolled-back
        // gateway must match a single switch running the baseline rules.
        let probe = workload(&mut rng, 1200);
        let before = gw.snapshot().totals;
        replay_chunk(&gw, &probe);
        let snap = gw.finish();

        let reference = build_control("adapt-conf").0;
        reference
            .replace_ruleset(0, &r0, Action::Drop)
            .expect("baseline installs into reference");
        let single = reference.with_switch_mut(|sw| {
            sw.run_frames(probe.iter().map(|f| f.as_ref()));
            sw.counters().clone()
        });
        assert_eq!(
            snap.totals.received - before.received,
            single.received,
            "{shards}-shard probe receive totals diverge"
        );
        assert_eq!(
            snap.totals.dropped - before.dropped,
            single.dropped,
            "{shards}-shard post-rollback drop verdicts diverge from baseline replay"
        );
        assert_eq!(
            snap.totals.forwarded - before.forwarded,
            single.forwarded,
            "{shards}-shard post-rollback forward verdicts diverge from baseline replay"
        );
    }
}
