//! Budget-rejection fault schedule: a tenant proposes a ruleset larger
//! than its allocation while the fleet gateway is serving live traffic.
//!
//! Oracles:
//! * **No version movement** — the rejected publish leaves *every*
//!   tenant's shard pipeline cells at the exact version they served
//!   before the attempt (admission happens strictly before any table
//!   mutation).
//! * **Replay equality** — the same workload replayed before and after
//!   the rejection produces bit-identical per-tenant counter deltas, on
//!   every shard; and a twin registry that never saw the oversized
//!   proposal counts bit-identical blocks (verdicts, drop reasons and
//!   per-stage hits).
//! * **Re-entrancy** — after the rejection the *other* tenant can still
//!   publish a legitimate update, and every shard picks it up.

use bytes::Bytes;
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetError, FleetGateway, FleetSim, FleetSimConfig,
    FleetSnapshot, TenantRegistry, TenantShare, TenantSpec,
};
use p4guard_gateway::GatewayConfig;
use p4guard_rules::{RuleSet, TernaryEntry};
use std::time::Duration;

const SEED: u64 = 0xf1ee_12b4;
const SHARDS: usize = 2;
const TENANTS: usize = 2;
/// Tight global budget: 2 flat-share tenants get 1024 TCAM bits each —
/// room for 12 entries of the 5-byte ACL key, so the 20-entry proposal
/// below must be rejected.
const BUDGET: BudgetConfig = BudgetConfig {
    tcam_bits: 2048,
    sram_bits: 2048,
};

/// A ternary ruleset dropping frames whose IPv4 protocol byte (key
/// offset 0 of the fleet ACL layout) equals `proto`, padded to `entries`
/// by distinct high-priority rows on the source-port high byte.
fn drop_proto(width: usize, proto: u8, entries: usize) -> RuleSet {
    let mut rs = RuleSet::new(width, 0);
    let mut value = vec![0u8; width];
    let mut mask = vec![0u8; width];
    value[0] = proto;
    mask[0] = 0xff;
    rs.push(TernaryEntry::new(value, mask, 1, 100));
    for i in 1..entries {
        let mut value = vec![0u8; width];
        let mut mask = vec![0u8; width];
        value[1] = 0x04; // attack source-port band
        mask[1] = 0xff;
        value[2] = (i % 256) as u8;
        mask[2] = 0xff;
        rs.push(TernaryEntry::new(value, mask, 1, 50 + i as i32));
    }
    rs
}

fn build_registry() -> TenantRegistry {
    let specs = (0..TENANTS)
        .map(|t| TenantSpec {
            name: format!("tenant-{t}"),
            share: TenantShare::flat(),
        })
        .collect();
    let mut registry = TenantRegistry::new(specs, BUDGET, AclLayout::default())
        .expect("flat shares fit the tight budget");
    let width = registry.layout().offsets.len();
    // Tenant 0 drops TCP SYN-band sources, tenant 1 drops UDP: distinct
    // verdict surfaces, both within the 12-entry allocation.
    registry
        .publish(0, &drop_proto(width, 6, 4), AdmitPolicy::Reject)
        .expect("baseline 0 fits");
    registry
        .publish(1, &drop_proto(width, 17, 4), AdmitPolicy::Reject)
        .expect("baseline 1 fits");
    registry
}

fn workload() -> Vec<Bytes> {
    let mut config = FleetSimConfig::demo(TENANTS, 2_000, SEED);
    config.steps = 8;
    config.frames_per_step = 1024;
    FleetSim::new(config)
        .run()
        .into_iter()
        .map(|f| f.frame)
        .collect()
}

/// Replays `frames` and waits for the gateway to drain them.
fn replay(gw: &FleetGateway, frames: &[Bytes]) -> FleetSnapshot {
    for f in frames {
        gw.dispatch(f.clone());
    }
    gw.wait_drained(Duration::from_secs(30))
        .expect("fleet gateway drains the replay")
}

/// What a counter block reads after the same frames went through again:
/// every count — verdicts, drop reasons, per-stage hits — doubled.
fn twice(once: &SwitchCounters) -> SwitchCounters {
    let mut twice = once.clone();
    twice.merge(once);
    twice
}

#[test]
fn rejected_publish_is_invisible_to_every_tenant() {
    let frames = workload();
    let width = AclLayout::default().offsets.len();

    // Twin registry/gateway that never sees the oversized proposal: the
    // behavioural reference.
    let twin_registry = build_registry();
    let twin_gw = FleetGateway::start(&twin_registry, GatewayConfig::with_shards(SHARDS), None);
    let twin_snap = replay(&twin_gw, &frames);
    let twin_final = twin_gw.finish();

    let mut registry = build_registry();
    let gw = FleetGateway::start(&registry, GatewayConfig::with_shards(SHARDS), None);
    let first = replay(&gw, &frames);

    // Both gateways served identical verdicts per tenant and per shard.
    assert_eq!(first.unknown_tenant, 0);
    assert_eq!(twin_snap.unknown_tenant, 0);
    for t in 0..TENANTS {
        assert_eq!(
            first.per_tenant[t], twin_snap.per_tenant[t],
            "tenant {t} diverged from the twin"
        );
        assert!(
            first.per_tenant[t].dropped > 0,
            "tenant {t} dropped nothing"
        );
    }
    for s in 0..SHARDS {
        for t in 0..TENANTS {
            assert_eq!(
                first.shards[s].lanes[t].counters, twin_final.shards[s].lanes[t].counters,
                "shard {s} tenant {t} diverged from the twin"
            );
        }
    }

    // The fault: tenant 1 proposes 20 entries against a 12-entry
    // allocation, mid-serve.
    let versions_before: Vec<Vec<u64>> = (0..TENANTS)
        .map(|t| gw.tenant_cells(t).iter().map(|c| c.version()).collect())
        .collect();
    match registry.publish(1, &drop_proto(width, 17, 20), AdmitPolicy::Reject) {
        Err(FleetError::Budget(_)) => {}
        other => panic!("oversized publish must be rejected, got {other:?}"),
    }
    assert_eq!(registry.rejected_publishes(1), 1);

    // Oracle 1: no pipeline cell moved — any tenant, any shard.
    for (t, before) in versions_before.iter().enumerate() {
        let now: Vec<u64> = gw.tenant_cells(t).iter().map(|c| c.version()).collect();
        assert_eq!(&now, before, "tenant {t} cell version moved");
    }
    // The registry still serves the baseline ruleset.
    assert_eq!(
        registry
            .active_ruleset(1)
            .expect("published")
            .entries()
            .len(),
        4
    );

    // Oracle 2: the same workload replays with bit-identical per-tenant,
    // per-shard verdict deltas.
    let second = replay(&gw, &frames);
    for t in 0..TENANTS {
        assert_eq!(
            second.per_tenant[t],
            twice(&first.per_tenant[t]),
            "tenant {t} verdicts changed after the rejected publish"
        );
    }
    for s in 0..SHARDS {
        for t in 0..TENANTS {
            assert_eq!(
                second.shards[s].lanes[t].counters,
                twice(&first.shards[s].lanes[t].counters),
                "shard {s} tenant {t} verdicts changed after the rejected publish"
            );
        }
    }

    // Oracle 3: the fleet is not wedged — tenant 0 publishes a
    // legitimate update and every shard picks it up.
    let before0 = versions_before[0].clone();
    let publish = registry
        .publish(0, &drop_proto(width, 6, 6), AdmitPolicy::Reject)
        .expect("legitimate update fits");
    // A publish stores into every subscribed cell before it returns.
    let now: Vec<u64> = gw.tenant_cells(0).iter().map(|c| c.version()).collect();
    assert!(
        now.iter().all(|&v| v == publish.version),
        "shards never saw the new version"
    );
    assert!(now.iter().zip(&before0).all(|(n, b)| n > b));
    for snap in [gw.finish(), twin_final] {
        assert!(snap.shards.iter().all(|s| s.conservation_violations == 0));
    }
}
