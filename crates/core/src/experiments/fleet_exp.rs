//! F19-fleet: multi-tenant gateway at fleet scale.
//!
//! One physical gateway serves ≥4 tenants (device classes) totalling
//! 10⁵–10⁶ simulated IoT devices. Per tenant, a detector is trained on a
//! deterministic training trace, compiled to ternary rules, and published
//! through the tenant's control plane under the shared table budget. The
//! full fleet simulation (device churn, diurnal load, per-tenant attack
//! waves) is then replayed through the shared shard workers and we report,
//! per tenant: detection accuracy, table occupancy against the budgeted
//! allocation, and agreement between the data-plane verdicts and an
//! offline replay of the same ruleset. The budgeter's two enforcement
//! paths — reject and trim — are both exercised along the way.

use crate::experiments::live;
use crate::report::{num3, TextTable};
use p4guard_dataplane::key::KeyLayout;
use p4guard_features::extract::ByteDataset;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetError, FleetGateway, FleetSim, FleetSimConfig,
    TableBudgeter, TenantRegistry, TenantShare, TenantSpec,
};
use p4guard_gateway::GatewayConfig;
use p4guard_packet::arena::FrameBatch;
use p4guard_rules::compile::{compile_tree, CompileConfig};
use p4guard_rules::tree::{DecisionTree, TreeConfig};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

/// Training frames drawn per tenant.
const TRAIN_FRAMES: usize = 12_000;
/// An IPv4 protocol number no simulated device emits; filler entries key
/// on it so they can pad a ruleset past its allocation without ever
/// matching traffic.
const UNUSED_PROTO: u8 = 0xbb;

/// One tenant's row of the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant index.
    pub tenant: usize,
    /// Tenant (device-class) name.
    pub name: String,
    /// Simulated devices in this tenant.
    pub devices: u64,
    /// Frames the tenant contributed to the replay.
    pub frames: u64,
    /// Attack frames among them.
    pub attack_frames: u64,
    /// Detection accuracy of the served ruleset on the replay.
    pub accuracy: f64,
    /// Attack recall.
    pub recall: f64,
    /// Benign false-positive rate.
    pub false_positive_rate: f64,
    /// Installed ACL entries.
    pub entries: usize,
    /// Live TCAM occupancy in bits.
    pub occupancy_tcam_bits: usize,
    /// TCAM bits the budgeter allocated to this tenant.
    pub allocated_tcam_bits: usize,
    /// Whether occupancy is within the allocation (must always hold).
    pub within_budget: bool,
    /// Pipeline version the fleet converged on.
    pub version: u64,
    /// Whether the gateway's per-tenant counters match the offline replay
    /// of the same ruleset exactly.
    pub gateway_agrees: bool,
}

/// The F19-fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Scenario seed.
    pub seed: u64,
    /// Total simulated devices across tenants.
    pub devices: u64,
    /// Gateway shards (shared across tenants).
    pub shards: usize,
    /// Global TCAM budget in bits.
    pub budget_tcam_bits: usize,
    /// Per-tenant rows.
    pub tenants: Vec<TenantReport>,
    /// Frames replayed in total.
    pub total_frames: u64,
    /// Frames that resolved to no tenant (must be 0).
    pub unknown_tenant: u64,
    /// Replay wall-clock seconds.
    pub elapsed_s: f64,
    /// Aggregate forwarding throughput over the replay.
    pub pps: f64,
    /// Publishes the budgeter rejected while exercising the reject path.
    pub rejected_publishes: u64,
    /// Entries cut while exercising the trim path.
    pub trimmed_entries: usize,
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F19-fleet: {} tenants, {} devices, {} shards (seed {})",
            self.tenants.len(),
            self.devices,
            self.shards,
            self.seed
        )?;
        let table = TextTable::of(
            &self.tenants,
            &[
                ("tenant", |t| t.name.clone()),
                ("devices", |t| t.devices.to_string()),
                ("frames", |t| t.frames.to_string()),
                ("accuracy", |t| num3(t.accuracy)),
                ("recall", |t| num3(t.recall)),
                ("FPR", |t| num3(t.false_positive_rate)),
                ("entries", |t| t.entries.to_string()),
                ("tcam bits", |t| t.occupancy_tcam_bits.to_string()),
                ("allocated", |t| t.allocated_tcam_bits.to_string()),
                ("in budget", |t| {
                    if t.within_budget { "yes" } else { "NO" }.to_owned()
                }),
            ],
        );
        write!(f, "{table}")?;
        writeln!(
            f,
            "replay: {} frames in {:.2} s ({:.0} pps aggregate), {} unclassified",
            self.total_frames, self.elapsed_s, self.pps, self.unknown_tenant
        )?;
        writeln!(
            f,
            "budget: {} TCAM bits global, {} publish(es) rejected, {} entr(ies) trimmed",
            self.budget_tcam_bits, self.rejected_publishes, self.trimmed_entries
        )
    }
}

/// Trains one tenant's detector on its deterministic training trace and
/// compiles it to ternary rules over the fleet ACL layout. Shared with
/// the F15-observe experiment, which drives the same fleet under SLOs.
pub(crate) fn train_tenant(sim: &FleetSim, tenant: usize, layout: &AclLayout) -> RuleSet {
    let trace = sim.training_trace(tenant, TRAIN_FRAMES);
    let dataset = ByteDataset::from_trace(&trace, layout.window).project(&layout.offsets);
    let tree = DecisionTree::fit(
        layout.offsets.len(),
        dataset.data(),
        dataset.labels(),
        TreeConfig::default(),
    );
    compile_tree(&tree, &CompileConfig::default())
        .expect("fleet ACL trees compile within the entry budget")
        .ternary
}

/// One tenant per simulated device class: table share weighted by device
/// count on top of an 8 Kbit guarantee per memory.
pub(crate) fn tenant_specs(config: &FleetSimConfig) -> Vec<TenantSpec> {
    let specs = config.tenants.iter().map(|t| TenantSpec {
        name: t.name.clone(),
        share: TenantShare {
            weight: t.devices.max(1),
            min_tcam_bits: 8 * 1024,
            min_sram_bits: 8 * 1024,
        },
    });
    specs.collect()
}

/// A ruleset guaranteed to overflow `tcam_bits` *after minimization*:
/// filler entries keyed on a protocol number no device emits, at minimum
/// priority so trimming cuts them first. Broad learned entries can shadow
/// part of the filler space (the minimizer then eliminates those fillers
/// as dead), so the filler count cannot be derived from raw bits alone —
/// we pad in chunks until the budgeter's minimized occupancy overflows.
fn oversized(base: &RuleSet, tcam_bits: usize) -> RuleSet {
    let width = base.key_width();
    let mut rs = base.clone();
    let mut i = 0usize;
    while TableBudgeter::minimized_tcam_bits(&rs) <= tcam_bits {
        for _ in 0..128 {
            let mut value = vec![0u8; width];
            let mut mask = vec![0u8; width];
            value[0] = UNUSED_PROTO; // offset 0 of the key = IPv4 protocol
            mask[0] = 0xff;
            // Two distinct value bytes keep every filler spec unique, so
            // the minimizer cannot merge or deduplicate fillers among
            // themselves.
            value[1] = (i % 256) as u8;
            mask[1] = 0xff;
            value[2] = ((i / 256) % 256) as u8;
            mask[2] = 0xff;
            rs.push(TernaryEntry::new(value, mask, 1, i32::MIN + i as i32));
            i += 1;
        }
    }
    rs
}

/// Runs the F19-fleet experiment: `devices` simulated IoT devices split
/// across `tenants` device classes, served by `shards` shared shard
/// workers under the default global table budget.
///
/// # Panics
///
/// Panics if a tenant's learned ruleset does not fit its fair-share
/// allocation, if the budgeter fails to reject a deliberately oversized
/// publish, or if the gateway fails to drain the replay.
pub fn run_f19_fleet(
    seed: u64,
    devices: u64,
    tenants: usize,
    shards: usize,
    telemetry: Option<Arc<Telemetry>>,
) -> FleetReport {
    let config = FleetSimConfig::demo(tenants, devices, seed);
    let layout = AclLayout::default();
    let budget = BudgetConfig::default();
    let total_devices = config.total_devices();
    let mut registry = TenantRegistry::new(tenant_specs(&config), budget, layout.clone())
        .expect("demo minimum guarantees fit the default budget");
    if let Some(t) = &telemetry {
        registry.attach_telemetry(Arc::clone(t));
    }

    let mut sim = FleetSim::new(config.clone());
    let mut entries: Vec<usize> = (0..tenants)
        .map(|tenant| {
            let ruleset = train_tenant(&sim, tenant, &layout);
            let publish = registry
                .publish(tenant, &ruleset, AdmitPolicy::Reject)
                .expect("learned ruleset fits the tenant's fair share");
            publish.installed
        })
        .collect();

    // Exercise the reject path: tenant 0 proposes a ruleset larger than
    // the *global* TCAM budget. The budgeter must refuse it and leave the
    // tenant serving its learned ruleset at the same version.
    let learned0 = registry
        .active_ruleset(0)
        .expect("tenant 0 published")
        .clone();
    let giant = oversized(&learned0, budget.tcam_bits);
    match registry.publish(0, &giant, AdmitPolicy::Reject) {
        Err(FleetError::Budget(_)) => {}
        other => panic!("oversized publish must be rejected, got {other:?}"),
    }
    let rejected_publishes: u64 = (0..tenants).map(|t| registry.rejected_publishes(t)).sum();

    // Exercise the trim path: the same oversized set under `Trim` keeps
    // the high-priority learned entries and cuts the filler; the tenant
    // keeps classifying identically because filler never matches traffic.
    let alloc0 = registry
        .budgeter()
        .allocation(0)
        .expect("tenant 0 exists")
        .tcam_bits;
    let padded = oversized(&learned0, alloc0);
    let trim_publish = registry
        .publish(0, &padded, AdmitPolicy::Trim)
        .expect("trim publish always fits");
    let trimmed_entries = trim_publish.trimmed;
    entries[0] = trim_publish.installed;
    assert!(trimmed_entries > 0, "trim path must cut filler entries");
    assert!(trim_publish.occupancy.within_budget());

    // Replay the fleet through the shared shard workers.
    let gw = FleetGateway::start(
        &registry,
        GatewayConfig::with_shards(shards),
        telemetry.clone(),
    );
    let frames = sim.run();
    let total_frames = frames.len() as u64;

    // Offline expectation: per-tenant confusion matrix of the *served*
    // ruleset against the simulator's ground-truth labels, indexed
    // `[tenant][attack?][dropped?]`.
    let mut confusion = vec![[[0u64; 2]; 2]; tenants];
    let key_layout = KeyLayout::new(layout.offsets.clone());
    for f in &frames {
        let key = key_layout.build_key(&f.frame);
        let ruleset = registry.active_ruleset(f.tenant).expect("tenant published");
        confusion[f.tenant][f.label.class()][ruleset.classify(&key)] += 1;
    }

    let started = Instant::now();
    let replay = frames.into_iter().map(|f| FrameBatch::single(f.frame));
    live::feed(gw.gateway(), [replay], true, || ControlFlow::Continue(()));
    let elapsed = started.elapsed();
    let snapshot = gw.finish();

    let occupancies = registry.occupancies();
    let rows: Vec<TenantReport> = (0..tenants)
        .map(|t| {
            let [[tn, fp], [fn_, tp]] = confusion[t];
            let (attack, benign) = (tp + fn_, tn + fp);
            let frames_t = attack + benign;
            let counters = &snapshot.per_tenant[t];
            let occ = &occupancies[t];
            TenantReport {
                tenant: t,
                name: registry.spec(t).expect("tenant exists").name.clone(),
                devices: u64::from(config.tenants[t].devices),
                frames: frames_t,
                attack_frames: attack,
                accuracy: (tp + tn) as f64 / frames_t.max(1) as f64,
                recall: tp as f64 / attack.max(1) as f64,
                false_positive_rate: fp as f64 / benign.max(1) as f64,
                entries: entries[t],
                occupancy_tcam_bits: occ.tcam_bits,
                allocated_tcam_bits: occ.allocated_tcam_bits,
                within_budget: occ.within_budget(),
                version: snapshot.tenant_versions[t]
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0),
                gateway_agrees: counters.received == frames_t && counters.dropped == tp + fp,
            }
        })
        .collect();

    FleetReport {
        seed,
        devices: total_devices,
        shards,
        budget_tcam_bits: budget.tcam_bits,
        tenants: rows,
        total_frames,
        unknown_tenant: snapshot.unknown_tenant,
        elapsed_s: elapsed.as_secs_f64(),
        pps: total_frames as f64 / elapsed.as_secs_f64().max(1e-9),
        rejected_publishes,
        trimmed_entries,
    }
}
