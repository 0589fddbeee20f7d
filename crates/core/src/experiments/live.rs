//! The one live phase every gateway-driving experiment runs: feed a
//! started gateway (single-tenant, or a fleet's through
//! `FleetGateway::gateway`) chunks of frames with an action between chunks
//! (publish a delta, tick the SLO board, step the adaptation engine),
//! optionally waiting at each chunk boundary until every frame offered has
//! its verdict, and read from the finished gateway's snapshot whether every
//! frame was conserved. The gateway counts what it was offered
//! (`GatewaySnapshot::offered`), so nothing here keeps a frame total. The
//! same steps as `p4guard-conformance`'s
//! `schedule::{serve_phase, finish_conserved}`; neither crate depends on
//! the other, and a conformance check panics where an experiment reports.

use p4guard_gateway::{Gateway, GatewaySnapshot};
use p4guard_packet::arena::FrameBatch;
use std::ops::ControlFlow;
use std::time::Duration;

/// Longest a checkpoint waits for the shard workers; only a dead or stuck
/// worker gets there.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// Dispatches `chunks` into `gateway` in order (blocking ingest; a single
/// frame goes in as [`FrameBatch::single`], which is all
/// `Gateway::dispatch` does) and runs `after` behind each chunk, the
/// mid-stream action; a `Break` stops the feed there. With `checkpoint`,
/// every frame offered so far has its verdict (and its telemetry) before
/// `after` runs — what makes a control loop stepped there deterministic;
/// without it the action lands with frames in flight.
///
/// # Panics
///
/// Panics if a checkpoint times out.
pub(crate) fn feed(
    gateway: &Gateway,
    chunks: impl IntoIterator<Item = impl IntoIterator<Item = FrameBatch>>,
    checkpoint: bool,
    mut after: impl FnMut() -> ControlFlow<()>,
) {
    for chunk in chunks {
        for batch in chunk {
            gateway.dispatch_batch(batch);
        }
        if checkpoint {
            gateway
                .wait_drained(DRAIN_TIMEOUT)
                .expect("gateway drains to the checkpoint");
        }
        if after().is_break() {
            return;
        }
    }
}

/// The conservation verdict on a finished gateway: every frame offered was
/// received by a pipeline, none shed at ingest, none given other than
/// exactly one verdict.
pub(crate) fn conserved(finished: &GatewaySnapshot) -> bool {
    finished.totals.received == finished.offered
        && finished.dropped_backpressure == 0
        && finished.conservation_violations() == 0
}
