//! # p4guard-gateway
//!
//! Online serving runtime for the p4guard data plane: wraps the software
//! switch in a pool of worker shards so traces (or live traffic) can be
//! replayed through the learned ruleset concurrently, while the control
//! plane hot-swaps new rulesets underneath with zero forwarding stalls.
//!
//! ## Architecture
//!
//! There is one serving path: a [`FrameBatch`](p4guard_packet::FrameBatch)
//! message → a shard's lanes → the batched stage walker
//! ([`ReadPipeline::process_batch_with`](p4guard_dataplane::pipeline::ReadPipeline::process_batch_with))
//! → the pipeline's combine policy ([`p4guard_dataplane::vote`]).
//!
//! - **Sharding** ([`flow`]): a batch is split across N workers by an
//!   RSS-style FNV-1a hash of the IPv4 5-tuple, so all packets of one flow
//!   land on the same shard and per-flow ordering is preserved. A single
//!   frame ([`Gateway::dispatch`]) is a batch of one.
//! - **Bounded queues**: each shard drains a bounded `crossbeam` channel of
//!   batches. Under overload the gateway drops at ingest with a counter
//!   ([`GatewaySnapshot::dropped_backpressure`]) — queues never grow
//!   without bound.
//! - **Lanes** ([`shard`]): a shard serves one lane per tenant — its own
//!   publication cell, cached snapshot, counters and telemetry sink. A
//!   single-tenant [`Gateway::start`] is a fleet of one: one lane, never
//!   classified. [`Gateway::start_lanes`] (what `p4guard-fleet` builds on)
//!   regroups each batch by a frame classifier.
//! - **RCU-style hot swap**: workers process batches against a frozen
//!   [`ReadPipeline`](p4guard_dataplane::pipeline::ReadPipeline) snapshot
//!   and re-check each lane's
//!   [`PipelineCell`](p4guard_dataplane::pipeline::PipelineCell) version
//!   (one atomic load) between drains. The control plane compiles the new
//!   ruleset off to the side and publishes it with
//!   [`ControlPlane::publish`](p4guard_dataplane::control::ControlPlane::publish);
//!   no worker ever blocks on a rule update.
//! - **Observability**: each lane keeps its own
//!   [`SwitchCounters`](p4guard_dataplane::switch::SwitchCounters), each
//!   shard a mergeable log-scale
//!   [`LatencyHistogram`](p4guard_telemetry::histogram::LatencyHistogram);
//!   [`Gateway::snapshot`] aggregates them into one [`GatewaySnapshot`]
//!   whose totals match what a single switch would have counted on the
//!   same frames.

pub mod flow;
pub mod gateway;
pub mod mirror;
pub mod replay;
pub mod shard;

pub use flow::{flow_hash, shard_for};
pub use gateway::{DrainTimeout, Gateway, GatewayConfig, GatewaySnapshot};
pub use mirror::MirrorTap;
pub use replay::{replay_batched, ReplayMode, ReplayReport};
pub use shard::{LaneStats, ShardStats};
