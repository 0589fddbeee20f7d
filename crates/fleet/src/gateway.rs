//! The multi-tenant serving runtime: a [`Gateway`] whose shards serve one
//! lane per tenant.
//!
//! There are **no per-tenant thread pools** and no second worker loop: the
//! gateway's N shard workers serve every tenant. Each worker keeps one
//! lane per tenant — a cached
//! [`ReadPipeline`](p4guard_dataplane::pipeline::ReadPipeline) snapshot
//! (refreshed per drain with one atomic version load), counters and a
//! telemetry sink — regroups every batch by the O(1)
//! [`TenantClassifier`](crate::tenant::TenantClassifier), and runs each
//! tenant's frames through that tenant's pipeline. [`FleetGateway`] only
//! wires a [`TenantRegistry`] into [`Gateway::start_lanes`] and reads the
//! per-lane statistics back as per-tenant ones.
//!
//! Per-tenant telemetry is the single-tenant gateway's, with a `tenant`
//! label on every series: the full drop taxonomy, per-stage hit/miss, the
//! latency histogram, swaps, and — when tracing is armed — `/profile` rows
//! and `/traces` spans.

use crate::tenant::TenantRegistry;
use bytes::Bytes;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::pipeline::PipelineCell;
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_gateway::{DrainTimeout, Gateway, GatewayConfig, GatewaySnapshot, ShardStats};
use p4guard_packet::arena::FrameBatch;
use p4guard_telemetry::histogram::LatencyHistogram;
use p4guard_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Point-in-time view of the fleet gateway.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Per-shard statistics, indexed by shard — the gateway's own, read
    /// with `lanes[t]` as tenant `t` and `unclassified` as the frames no
    /// tenant owns.
    pub shards: Vec<ShardStats>,
    /// Frames dropped at ingest because a shard queue was full.
    pub dropped_backpressure: u64,
    /// Frames that resolved to no tenant, summed over shards.
    pub unknown_tenant: u64,
    /// Serving pipeline version per tenant per shard:
    /// `tenant_versions[tenant][shard]`.
    pub tenant_versions: Vec<Vec<u64>>,
    /// Counters summed per tenant across shards, indexed by tenant.
    pub per_tenant: Vec<SwitchCounters>,
    /// Counters summed over everything.
    pub totals: SwitchCounters,
    /// Merged forwarding-latency histogram.
    pub latency: LatencyHistogram,
}

impl fmt::Display for FleetSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} shards × {} tenants, {}, {} backpressure, {} unclassified",
            self.shards.len(),
            self.per_tenant.len(),
            self.totals,
            self.dropped_backpressure,
            self.unknown_tenant,
        )?;
        for (t, c) in self.per_tenant.iter().enumerate() {
            let versions = &self.tenant_versions[t];
            writeln!(
                f,
                "  tenant {t}: {c} (serving v{})",
                versions.iter().copied().max().unwrap_or(0),
            )?;
        }
        Ok(())
    }
}

/// The multi-tenant gateway runtime. Start with [`FleetGateway::start`],
/// ingest with [`FleetGateway::dispatch_batch`] (or any other ingest
/// method of the underlying [`FleetGateway::gateway`]), stop with
/// [`FleetGateway::finish`].
pub struct FleetGateway {
    gateway: Gateway,
    /// `cells[tenant][shard]`.
    cells: Vec<Vec<Arc<PipelineCell>>>,
}

impl FleetGateway {
    /// Starts a gateway with one lane per tenant in `registry`: shard s is
    /// subscriber s of each tenant's control plane, so per-tenant canaries
    /// via
    /// [`ControlPlane::publish_to`](p4guard_dataplane::control::ControlPlane::publish_to)
    /// target shards exactly as in the single-tenant gateway.
    ///
    /// With telemetry, every per-shard series gains a `tenant` label
    /// carrying the tenant's name.
    ///
    /// # Panics
    ///
    /// Panics if the registry has no tenants or `config` has zero shards
    /// or queue capacity.
    pub fn start(
        registry: &TenantRegistry,
        config: GatewayConfig,
        telemetry: Option<Arc<Telemetry>>,
    ) -> FleetGateway {
        let tenants = registry.tenant_count();
        assert!(tenants > 0, "fleet gateway needs at least one tenant");
        if let Some(t) = &telemetry {
            t.registry
                .gauge(
                    "p4guard_tenants",
                    "Tenants served by the fleet gateway",
                    &[],
                )
                .set(tenants as f64);
        }
        let lanes: Vec<(&ControlPlane, Option<&str>)> = (0..tenants)
            .map(|t| {
                let control = registry.control(t).expect("tenant in registry");
                let spec = registry.spec(t).expect("tenant in registry");
                (control, Some(spec.name.as_str()))
            })
            .collect();
        let classifier = registry.classifier();
        let gateway = Gateway::start_lanes(
            &lanes,
            move |frame| classifier.resolve(frame).unwrap_or(tenants),
            config,
            telemetry,
        );
        let cells = (0..tenants)
            .map(|t| gateway.lane_cells(t).to_vec())
            .collect();
        FleetGateway { gateway, cells }
    }

    /// The underlying gateway: sizing, non-blocking ingest, queue depths.
    /// Tenancy never splits a flow across shards — dispatch is the same
    /// flow hash as a single-tenant gateway's.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The pipeline cells for `tenant`, indexed by shard.
    pub fn tenant_cells(&self, tenant: usize) -> &[Arc<PipelineCell>] {
        &self.cells[tenant]
    }

    /// Blocking ingest of one frame.
    pub fn dispatch(&self, frame: Bytes) {
        self.gateway.dispatch(frame);
    }

    /// Blocking batched ingest: splits `batch` per shard and waits for
    /// queue space on each.
    pub fn dispatch_batch(&self, batch: FrameBatch) {
        self.gateway.dispatch_batch(batch);
    }

    /// Aggregates a live snapshot without stopping the workers.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot::derive(self.gateway.snapshot(), &self.cells)
    }

    /// [`Gateway::wait_drained`] read as tenants: returns once every one
    /// of the `offered` frames was served for a tenant, counted as
    /// `unknown_tenant`, or shed at ingest.
    ///
    /// # Errors
    ///
    /// [`DrainTimeout`] when `timeout` elapses first.
    pub fn wait_drained(
        &self,
        offered: u64,
        timeout: Duration,
    ) -> Result<FleetSnapshot, DrainTimeout> {
        let snap = self.gateway.wait_drained(offered, timeout)?;
        Ok(FleetSnapshot::derive(snap, &self.cells))
    }

    /// Closes ingest, drains the queues, joins the workers and returns
    /// the final snapshot.
    pub fn finish(self) -> FleetSnapshot {
        FleetSnapshot::derive(self.gateway.finish(), &self.cells)
    }
}

impl FleetSnapshot {
    /// Reads a gateway snapshot's lanes as tenants.
    fn derive(snap: GatewaySnapshot, cells: &[Vec<Arc<PipelineCell>>]) -> FleetSnapshot {
        let mut per_tenant = vec![SwitchCounters::default(); cells.len()];
        for s in &snap.shards {
            for (acc, lane) in per_tenant.iter_mut().zip(&s.lanes) {
                acc.merge(&lane.counters);
            }
        }
        FleetSnapshot {
            dropped_backpressure: snap.dropped_backpressure,
            unknown_tenant: snap.shards.iter().map(|s| s.unclassified).sum(),
            tenant_versions: cells
                .iter()
                .map(|row| row.iter().map(|c| c.version()).collect())
                .collect(),
            per_tenant,
            totals: snap.totals,
            latency: snap.latency,
            shards: snap.shards,
        }
    }
}
