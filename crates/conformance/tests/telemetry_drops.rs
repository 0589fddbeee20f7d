//! Drop-taxonomy conservation oracle: under a fault schedule mixing hot
//! swaps, parser-rejectable runts, rule drops and queue overload, the
//! per-reason telemetry counters must reconcile exactly with the legacy
//! [`SwitchCounters`] totals — the taxonomy is a partition of the old
//! aggregate drop counts, not a parallel bookkeeping that can drift.

use bytes::Bytes;
use p4guard_conformance::schedule::{build_control, frame, random_ruleset};
use p4guard_dataplane::action::Action;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_telemetry::{DropReason, Telemetry, TelemetryConfig};
use rand::prelude::*;
use std::sync::Arc;

const SEED: u64 = 0x7e1e_0bed;

/// A runt frame shorter than the parser's minimum window: always
/// parser-rejected, never reaches a table.
fn runt(len: usize, fill: u8) -> Bytes {
    Bytes::from(vec![fill; len])
}

/// A workload mixing well-formed frames over 16 flows (some protocols
/// matched by rulesets, some not) with ~1-in-8 parser-rejectable runts.
fn workload<R: Rng>(rng: &mut R, n: usize) -> Vec<Bytes> {
    (0..n)
        .map(|i| {
            if rng.gen_range(0..8) == 0 {
                runt(rng.gen_range(0..14), i as u8)
            } else {
                let proto = *[6u8, 17, 1, 47, rng.gen()]
                    .choose(rng)
                    .expect("protocol list is non-empty");
                frame(rng.gen_range(0..16), proto, i as u8)
            }
        })
        .collect()
}

/// Sum of every `p4guard_drops_total` series carrying `reason`.
fn drops_for(telemetry: &Telemetry, reason: DropReason) -> u64 {
    telemetry
        .registry
        .counter_snapshot()
        .into_iter()
        .filter(|(name, labels, _)| {
            name == "p4guard_drops_total"
                && labels
                    .iter()
                    .any(|(k, v)| k == "reason" && v == reason.as_str())
        })
        .map(|(_, _, value)| value)
        .sum()
}

/// Fault schedule (undrained hot swaps + runts + overload with small
/// queues), then reconcile: every legacy aggregate must equal the sum of
/// its telemetry refinement, and the taxonomy must cover all drops.
#[test]
fn drop_taxonomy_reconciles_with_legacy_totals() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (control, stage) = build_control("conf-telemetry");
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 16,
        ..TelemetryConfig::default()
    }));
    let gw = Gateway::start_with_telemetry(
        &control,
        GatewayConfig {
            shards: 3,
            queue_capacity: 8,
            batch_size: 4,
        },
        Some(Arc::clone(&telemetry)),
    );

    let frames = workload(&mut rng, 6000);
    let mut accepted = 0u64;
    for (i, f) in frames.iter().enumerate() {
        if i % 1500 == 750 {
            let ruleset = random_ruleset(&mut rng);
            control
                .replace_ruleset(stage, &ruleset, Action::Drop)
                .unwrap();
            control.publish();
        }
        // Alternate blocking and lossy ingest so the schedule exercises
        // both backpressure drops and full-queue stalls.
        if i % 3 == 0 {
            if gw.offer(f.clone()) {
                accepted += 1;
            }
        } else {
            gw.dispatch(f.clone());
            accepted += 1;
        }
    }
    let snap = gw.finish();

    // The gateway's own conservation law still holds.
    assert_eq!(snap.totals.received, accepted);
    assert_eq!(
        snap.totals.received + snap.dropped_backpressure,
        frames.len() as u64
    );

    // Telemetry frame counters mirror the legacy totals exactly.
    let registry = &telemetry.registry;
    assert_eq!(
        registry.family_sum("p4guard_frames_received_total"),
        snap.totals.received
    );
    assert_eq!(
        registry.family_sum("p4guard_frames_forwarded_total"),
        snap.totals.forwarded
    );

    // Per-reason refinement: parser rejects map 1:1; the pipeline reasons
    // partition the legacy `dropped` aggregate; backpressure matches the
    // ingest-side count.
    assert_eq!(
        drops_for(&telemetry, DropReason::ParserRejected),
        snap.totals.parser_rejected,
        "parser_rejected refinement diverged"
    );
    assert_eq!(
        drops_for(&telemetry, DropReason::RuleDrop)
            + drops_for(&telemetry, DropReason::NoRule)
            + drops_for(&telemetry, DropReason::WrongWidth),
        snap.totals.dropped,
        "pipeline drop reasons must partition the legacy dropped total"
    );
    assert_eq!(
        drops_for(&telemetry, DropReason::Backpressure),
        snap.dropped_backpressure,
        "backpressure refinement diverged"
    );

    // Full coverage: summing the whole family accounts for every dropped
    // frame, whatever the reason.
    assert_eq!(
        registry.family_sum("p4guard_drops_total"),
        snap.totals.dropped + snap.totals.parser_rejected + snap.dropped_backpressure
    );

    // The schedule really did exercise the taxonomy.
    assert!(snap.totals.parser_rejected > 0, "schedule sent no runts?");
    assert!(snap.totals.dropped > 0, "schedule matched no drop rules?");
}
