//! The one live phase every gateway-driving experiment runs: start a
//! gateway (single-tenant or fleet), feed it chunks of frames with an
//! action between chunks (publish a delta, tick the SLO board, step the
//! adaptation engine), wait until every frame sent has its verdict, stop
//! the workers, and say whether every frame was conserved. Modelled on
//! `p4guard-conformance`'s `schedule::{serve_phase, finish_conserved}`,
//! which depends on this crate and so cannot be called from it.

use p4guard_dataplane::control::ControlPlane;
use p4guard_fleet::{FleetGateway, FleetSnapshot, TenantRegistry};
use p4guard_gateway::{Gateway, GatewayConfig, GatewaySnapshot};
use p4guard_packet::arena::FrameBatch;
use p4guard_telemetry::Telemetry;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

/// Longest a checkpoint waits for the shard workers; only a dead worker
/// or a miscounted `sent` gets there.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// What the live phase needs of a gateway kind.
pub(crate) trait Serving: Sized {
    /// What the gateway publishes rulesets from.
    type Control;
    /// The final snapshot [`Live::end`] hands back.
    type Snapshot;
    /// Starts the shard workers.
    fn start(control: &Self::Control, config: GatewayConfig, tel: Option<Arc<Telemetry>>) -> Self;
    /// The gateway frames are dispatched into.
    fn gateway(&self) -> &Gateway;
    /// Joins the workers.
    fn stop(self) -> Self::Snapshot;
}

impl Serving for Gateway {
    type Control = ControlPlane;
    type Snapshot = GatewaySnapshot;
    fn start(control: &ControlPlane, config: GatewayConfig, tel: Option<Arc<Telemetry>>) -> Self {
        Gateway::start_with_telemetry(control, config, tel)
    }
    fn gateway(&self) -> &Gateway {
        self
    }
    fn stop(self) -> GatewaySnapshot {
        self.finish()
    }
}

impl Serving for FleetGateway {
    type Control = TenantRegistry;
    type Snapshot = FleetSnapshot;
    fn start(
        registry: &TenantRegistry,
        config: GatewayConfig,
        tel: Option<Arc<Telemetry>>,
    ) -> Self {
        FleetGateway::start(registry, config, tel)
    }
    fn gateway(&self) -> &Gateway {
        FleetGateway::gateway(self)
    }
    fn stop(self) -> FleetSnapshot {
        self.finish()
    }
}

/// A started gateway and the count of frames sent into it.
pub(crate) struct Live<G: Serving> {
    /// The gateway, for an action that reads or steers it mid-serve.
    pub gateway: G,
    /// Frames dispatched so far.
    pub sent: u64,
}

impl<G: Serving> Live<G> {
    /// Starts the gateway on `control`.
    pub fn start(control: &G::Control, config: GatewayConfig, tel: Option<Arc<Telemetry>>) -> Self {
        Live {
            gateway: G::start(control, config, tel),
            sent: 0,
        }
    }

    /// Dispatches `chunks` in order (blocking ingest; a single frame goes
    /// in as [`FrameBatch::single`], which is all `Gateway::dispatch`
    /// does) and runs `after` behind each chunk, the mid-stream action; a
    /// `Break` stops the feed there. With `checkpoint`, every frame sent
    /// so far has its verdict (and its telemetry) before `after` runs —
    /// what makes a control loop stepped there deterministic; without it
    /// the action lands with frames in flight.
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint times out.
    pub fn feed(
        &mut self,
        chunks: impl IntoIterator<Item = impl IntoIterator<Item = FrameBatch>>,
        checkpoint: bool,
        mut after: impl FnMut(&Self) -> ControlFlow<()>,
    ) {
        for chunk in chunks {
            for batch in chunk {
                self.sent += batch.len() as u64;
                self.gateway.gateway().dispatch_batch(batch);
            }
            if checkpoint {
                self.drained();
            }
            if after(self).is_break() {
                return;
            }
        }
    }

    /// Waits until every frame sent so far has its verdict.
    fn drained(&self) -> GatewaySnapshot {
        self.gateway
            .gateway()
            .wait_drained(self.sent, DRAIN_TIMEOUT)
            .expect("gateway drains to the checkpoint")
    }

    /// Drains, stops the workers, and returns the final snapshot with the
    /// conservation verdict: every frame sent was received by a pipeline,
    /// none shed at ingest, none given other than exactly one verdict.
    ///
    /// # Panics
    ///
    /// Panics if the drain times out or a shard worker panicked.
    pub fn end(self) -> (G::Snapshot, bool) {
        let served = self.drained();
        let conserved = served.totals.received == self.sent
            && served.dropped_backpressure == 0
            && served.conservation_violations() == 0;
        (self.gateway.stop(), conserved)
    }
}
