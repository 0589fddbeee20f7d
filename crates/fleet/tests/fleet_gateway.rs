//! End-to-end fleet test: simulated multi-tenant traffic served by the
//! shared shard workers must produce, per tenant, exactly the verdicts
//! the tenant's own ruleset computes offline.

use p4guard_dataplane::key::KeyLayout;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetGateway, FleetSim, FleetSimConfig, TenantRegistry,
    TenantShare, TenantSpec,
};
use p4guard_gateway::GatewayConfig;
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on any drained checkpoint in this file.
const DRAIN: Duration = Duration::from_secs(30);

/// An equal-share registry for `config`'s tenants over the default ACL
/// layout and table budget.
fn registry(config: &FleetSimConfig) -> TenantRegistry {
    let specs = config.tenants.iter().map(|t| TenantSpec {
        name: t.name.clone(),
        share: TenantShare::flat(),
    });
    TenantRegistry::new(
        specs.collect(),
        BudgetConfig::default(),
        AclLayout::default(),
    )
    .unwrap()
}

/// A ruleset over the default ACL layout (proto + 4 port bytes) dropping
/// the attack source-port band: sport high byte in `[0x04, 0x08)`.
fn drop_attack_sports(width: usize) -> RuleSet {
    let mut rs = RuleSet::new(width, 0);
    for hi in 4u8..8 {
        let mut value = vec![0u8; width];
        let mut mask = vec![0u8; width];
        value[1] = hi; // offset 34 = source port high byte
        mask[1] = 0xff;
        rs.push(TernaryEntry::new(value, mask, 1, 10));
    }
    rs
}

#[test]
fn fleet_verdicts_match_offline_classification() {
    let mut config = FleetSimConfig::demo(4, 100_000, 42);
    config.steps = 16;
    config.frames_per_step = 1024;
    let layout = AclLayout::default();
    let width = layout.offsets.len();
    let mut registry = registry(&config);
    let telemetry = Arc::new(Telemetry::default());
    registry.attach_telemetry(Arc::clone(&telemetry));
    // Tenants 0..3 get the drop ruleset; all within budget.
    for t in 0..4 {
        let publish = registry
            .publish(t, &drop_attack_sports(width), AdmitPolicy::Reject)
            .unwrap();
        assert!(publish.occupancy.within_budget());
    }

    let gw = FleetGateway::start(
        &registry,
        GatewayConfig::with_shards(2),
        Some(Arc::clone(&telemetry)),
    );
    let mut sim = FleetSim::new(config);
    let frames = sim.run();

    // Offline expectation: classify each frame's projected key with its
    // tenant's active ruleset.
    let mut expected_drops = [0u64; 4];
    let mut expected_frames = [0u64; 4];
    let key_layout = KeyLayout::new(layout.offsets.clone());
    for f in &frames {
        let key = key_layout.build_key(&f.frame);
        let rs = registry.active_ruleset(f.tenant).unwrap();
        expected_frames[f.tenant] += 1;
        if rs.classify(&key) == 1 {
            expected_drops[f.tenant] += 1;
        }
    }

    let total = frames.len() as u64;
    for f in frames {
        gw.dispatch(f.frame);
    }
    gw.wait_drained(total, DRAIN).expect("fleet gateway drains");
    let snap = gw.finish();

    assert_eq!(snap.totals.received, total);
    assert_eq!(snap.unknown_tenant, 0);
    for t in 0..4 {
        assert_eq!(
            snap.per_tenant[t].received, expected_frames[t],
            "tenant {t}"
        );
        assert_eq!(snap.per_tenant[t].dropped, expected_drops[t], "tenant {t}");
        assert!(expected_drops[t] > 0, "tenant {t} saw no attack drops");
        assert!(
            snap.per_tenant[t].forwarded > 0,
            "tenant {t} forwarded nothing"
        );
    }

    // Telemetry rollups agree with the snapshot, per tenant.
    for t in 0..4 {
        let name = &registry.spec(t).unwrap().name;
        let received: u64 = (0..2)
            .filter_map(|s| {
                telemetry.registry.counter_value(
                    "p4guard_frames_received_total",
                    &[("shard", &s.to_string()), ("tenant", name)],
                )
            })
            .sum();
        assert_eq!(received, snap.per_tenant[t].received, "tenant {t} metrics");
    }
    let rendered = telemetry.registry.render_prometheus();
    assert!(rendered.contains("p4guard_tenant_budget_bits"));
    assert!(rendered.contains("p4guard_tenant_occupancy_bits"));
    assert!(rendered.contains("tenant=\"smart-home-0\""));
}

#[test]
fn fleet_batched_ingest_matches_per_frame_ingest() {
    let mut config = FleetSimConfig::demo(4, 100_000, 77);
    config.steps = 8;
    config.frames_per_step = 512;
    let layout = AclLayout::default();
    let width = layout.offsets.len();
    let mut registry = registry(&config);
    for t in 0..4 {
        registry
            .publish(t, &drop_attack_sports(width), AdmitPolicy::Reject)
            .unwrap();
    }
    let frames: Vec<_> = FleetSim::new(config).run();
    let total = frames.len() as u64;

    // Per-frame reference run.
    let gw = FleetGateway::start(&registry, GatewayConfig::with_shards(2), None);
    for f in &frames {
        gw.dispatch(f.frame.clone());
    }
    gw.wait_drained(total, DRAIN).expect("per-frame run drains");
    let per_frame = gw.finish();

    // Batched run: pack the same frames into arena-backed batches.
    let gw = FleetGateway::start(&registry, GatewayConfig::with_shards(2), None);
    let mut arena = p4guard_packet::FrameArena::new(64 * 1024);
    for f in &frames {
        arena.push(&f.frame);
        if arena.pending() >= 128 {
            gw.dispatch_batch(arena.seal_batch());
        }
    }
    gw.dispatch_batch(arena.seal_batch());
    gw.wait_drained(total, DRAIN).expect("batched run drains");
    let batched = gw.finish();

    assert_eq!(batched.totals.received, per_frame.totals.received);
    assert_eq!(batched.unknown_tenant, per_frame.unknown_tenant);
    for t in 0..4 {
        assert_eq!(batched.per_tenant[t], per_frame.per_tenant[t], "tenant {t}");
    }
}

/// Fleet tenants get the single-tenant gateway's whole telemetry surface —
/// drop taxonomy, per-stage hit counters, latency histogram — labelled by
/// tenant, and every shard accounts for each frame it took off its queue.
/// Backpressure alone is shed before any tenant's lane sees the frame, so
/// it stays a per-shard series: no `{tenant, reason="backpressure"}` series
/// exists to sit at 0 forever.
#[test]
fn fleet_tenants_get_the_full_telemetry_taxonomy() {
    let mut config = FleetSimConfig::demo(2, 10_000, 9);
    config.steps = 8;
    config.frames_per_step = 512;
    let layout = AclLayout::default();
    let width = layout.offsets.len();
    let mut registry = registry(&config);
    for t in 0..2 {
        registry
            .publish(t, &drop_attack_sports(width), AdmitPolicy::Reject)
            .unwrap();
    }
    let telemetry = Arc::new(Telemetry::default());
    let tiny = GatewayConfig {
        shards: 2,
        queue_capacity: 1,
        batch_size: 1,
    };
    let gw = FleetGateway::start(&registry, tiny, Some(Arc::clone(&telemetry)));

    // Every frame once through blocking ingest, then again as a burst of
    // non-blocking offers the one-slot queues cannot absorb: some shed.
    let frames = FleetSim::new(config).run();
    for f in &frames {
        gw.dispatch(f.frame.clone());
    }
    for f in &frames {
        gw.gateway().offer(f.frame.clone());
    }
    gw.wait_drained(2 * frames.len() as u64, DRAIN)
        .expect("fleet gateway drains");
    let snap = gw.finish();
    assert!(snap.dropped_backpressure > 0, "nothing was shed");
    let mut shed = 0;
    for (family, labels, value) in telemetry.registry.counter_snapshot() {
        let has = |key: &str, want: &str| labels.iter().any(|(k, v)| k == key && v == want);
        if family == "p4guard_drops_total" && has("reason", "backpressure") {
            assert!(labels.iter().all(|(k, _)| k != "tenant"), "{labels:?}");
            shed += value;
        }
    }
    assert_eq!(shed, snap.dropped_backpressure);

    for s in &snap.shards {
        assert_eq!(
            s.conservation_violations, 0,
            "shard {} lost track of a frame",
            s.shard
        );
    }

    let tenant_of = |labels: &[(String, String)]| {
        labels
            .iter()
            .find(|(k, _)| k == "tenant")
            .map(|(_, v)| v.clone())
    };
    for t in 0..2 {
        let name = registry.spec(t).unwrap().name.clone();
        for shard in ["0", "1"] {
            assert!(
                telemetry
                    .registry
                    .counter_value(
                        "p4guard_drops_total",
                        &[("shard", shard), ("tenant", &name), ("reason", "no_rule")],
                    )
                    .is_some(),
                "tenant {name} shard {shard} has no no_rule drop series"
            );
        }
        // One ACL stage whose entries all drop: hits are exactly the drops.
        let hits: u64 = telemetry
            .registry
            .counter_snapshot()
            .into_iter()
            .filter(|(family, labels, _)| {
                family == "p4guard_table_hits_total" && tenant_of(labels).as_ref() == Some(&name)
            })
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(hits, snap.per_tenant[t].dropped, "tenant {name} table hits");
        assert!(hits > 0, "tenant {name} saw no attack traffic");
        let latency_samples: u64 = telemetry
            .registry
            .histogram_snapshot()
            .into_iter()
            .filter(|(family, labels, _)| {
                family == "p4guard_forward_latency_seconds"
                    && tenant_of(labels).as_ref() == Some(&name)
            })
            .map(|(_, _, h)| h.count())
            .sum();
        assert_eq!(
            latency_samples, snap.per_tenant[t].received,
            "tenant {name} latency histogram"
        );
    }
}

/// A frame from inside the fleet address plan under a prefix no tenant
/// owns is counted, not served — and the drained checkpoint accounts for
/// it instead of waiting for `totals.received` to reach a number it never
/// will.
#[test]
fn a_frame_no_tenant_owns_drains_as_unknown() {
    let mut config = FleetSimConfig::demo(2, 1_000, 3);
    config.steps = 1;
    config.frames_per_step = 64;
    let registry = registry(&config);
    let gw = FleetGateway::start(&registry, GatewayConfig::with_shards(2), None);

    let frames = FleetSim::new(config).run();
    let total = frames.len() as u64;
    let mut stray = frames[0].frame.to_vec();
    stray[27] = 200; // 10.200/16: two tenants own 10.0/12 and 10.16/12 only
    gw.dispatch(stray.into());
    for f in frames {
        gw.dispatch(f.frame);
    }
    let snap = gw
        .wait_drained(total + 1, Duration::from_secs(5))
        .expect("the stray frame is accounted for");
    assert_eq!(snap.unknown_tenant, 1);
    assert_eq!(snap.totals.received, total);
    assert_eq!(gw.finish(), snap, "nothing was left in flight");
}
