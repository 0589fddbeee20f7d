//! The registry is a view of the snapshot: frames are counted once, into
//! each lane's [`SwitchCounters`](p4guard_dataplane::switch::SwitchCounters)
//! block, and the metrics registry is fed by adding that same block. Under
//! a fault schedule mixing hot swaps, parser-rejectable runts, rule drops
//! and queue overload, every frame series must therefore equal the
//! snapshot field it is added from — per shard, lane and reason — and the
//! drop taxonomy is in the snapshot with telemetry off, per tenant on a
//! fleet.

use bytes::Bytes;
use p4guard_conformance::schedule::{build_control, finish_shedding, frame, random_ruleset};
use p4guard_dataplane::action::Action;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetGateway, FleetSim, FleetSimConfig, TenantRegistry,
    TenantShare, TenantSpec,
};
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::{DropReason, Telemetry, TelemetryConfig};
use rand::prelude::*;
use std::sync::Arc;
use std::time::Duration;

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

/// Fault schedule (undrained hot swaps + runts + overload with small
/// queues), then compare: every series of a shard's lane equals the field
/// of that lane's counter block, and the gateway's own series its own
/// counts.
#[test]
fn registry_equals_snapshot_per_shard_lane_and_reason() {
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
    // The gateway's own conservation law holds, and its workers checked
    // theirs on every drain.
    let snap = finish_shedding(gw, accepted, frames.len());

    let registry = &telemetry.registry;
    let mut shed = 0;
    for s in &snap.shards {
        let shard = s.shard.to_string();
        let series = |family: &str, extra: &[(&str, &str)]| {
            let labels = [&[("shard", shard.as_str())], extra].concat();
            registry
                .counter_value(family, &labels)
                .unwrap_or_else(|| panic!("{family}{labels:?} is not registered"))
        };
        let lane = &s.lanes[0].counters;
        assert_eq!(series("p4guard_frames_received_total", &[]), lane.received);
        assert_eq!(
            series("p4guard_frames_forwarded_total", &[]),
            lane.forwarded
        );
        for (reason, dropped) in DropReason::LANE.into_iter().zip(lane.drops()) {
            assert_eq!(
                series("p4guard_drops_total", &[("reason", reason.as_str())]),
                dropped,
                "shard {shard} {}",
                reason.as_str()
            );
        }
        let stage_labels = [("stage", "0"), ("table", "acl")];
        assert_eq!(
            (
                series("p4guard_table_hits_total", &stage_labels),
                series("p4guard_table_misses_total", &stage_labels)
            ),
            lane.stages[0],
            "shard {shard} stage hits"
        );
        assert_eq!(
            series("p4guard_ruleset_swaps_total", &[]),
            s.swaps_seen,
            "shard {shard} swaps"
        );
        assert_eq!(series("p4guard_conservation_violations_total", &[]), 0);
        shed += series(
            "p4guard_drops_total",
            &[("reason", DropReason::Backpressure.as_str())],
        );
    }
    assert_eq!(shed, snap.dropped_backpressure);
    let latency_samples: u64 = registry
        .histogram_snapshot()
        .iter()
        .filter(|(family, _, _)| family == "p4guard_forward_latency_seconds")
        .map(|(_, _, h)| h.count())
        .sum();
    assert_eq!(latency_samples, snap.latency.count());

    // Nothing is counted beside the blocks: the families add up to the
    // totals, whatever the labels.
    assert_eq!(
        registry.family_sum("p4guard_frames_received_total"),
        snap.totals.received
    );
    assert_eq!(
        registry.family_sum("p4guard_drops_total"),
        snap.totals.dropped + snap.totals.parser_rejected + snap.dropped_backpressure
    );

    // The schedule really did exercise the taxonomy.
    assert!(snap.totals.parser_rejected > 0, "schedule sent no runts?");
    assert!(snap.totals.rule_drop > 0, "schedule matched no drop rules?");
}

/// Two tenants, telemetry **off**: the per-tenant drop taxonomy and stage
/// hits are in `FleetSnapshot::per_tenant`.
#[test]
fn fleet_snapshot_carries_the_per_tenant_taxonomy_without_telemetry() {
    let layout = AclLayout::default();
    let width = layout.offsets.len();
    let mut config = FleetSimConfig::demo(2, 2_000, SEED);
    config.steps = 8;
    config.frames_per_step = 512;
    let specs = config.tenants.iter().map(|t| TenantSpec {
        name: t.name.clone(),
        share: TenantShare::flat(),
    });
    let mut registry = TenantRegistry::new(specs.collect(), BudgetConfig::default(), layout)
        .expect("flat shares fit the default budget");
    // Tenant 0 drops TCP, tenant 1 drops UDP (key byte 0 is the protocol).
    for (tenant, proto) in [6u8, 17].into_iter().enumerate() {
        let (mut value, mut mask) = (vec![0u8; width], vec![0u8; width]);
        (value[0], mask[0]) = (proto, 0xff);
        let mut rules = RuleSet::new(width, 0);
        rules.push(TernaryEntry::new(value, mask, 1, 10));
        registry
            .publish(tenant, &rules, AdmitPolicy::Reject)
            .expect("one entry fits");
    }

    let gw = FleetGateway::start(&registry, GatewayConfig::with_shards(2), None);
    let frames = FleetSim::new(config).run();
    let total = frames.len() as u64;
    for f in frames {
        gw.dispatch(f.frame);
    }
    gw.wait_drained(total, Duration::from_secs(30))
        .expect("fleet gateway drains");
    let snap = gw.finish();

    assert!(snap.shards.iter().all(|s| s.conservation_violations == 0));
    for (tenant, c) in snap.per_tenant.iter().enumerate() {
        // The tenant stage's default action is NoOp and the fleet parser
        // accepts every frame the classifier can read: one reason only,
        // and every hit of the one stage is a drop.
        assert!(c.rule_drop > 0, "tenant {tenant} saw nothing to drop");
        assert_eq!(c.drops(), [0, c.dropped, 0, 0], "tenant {tenant}");
        assert_eq!(c.stages, [(c.dropped, c.forwarded)], "tenant {tenant}");
        assert!(c.conserved(), "tenant {tenant}");
    }
    assert_eq!(snap.totals.received, total);
}
