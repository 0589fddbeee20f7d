//! Batched-ingest conformance: the arena-batched hot path must preserve
//! every per-frame guarantee under hot swaps, for every shard count.
//!
//! Oracles:
//! * **Phased equality** — with drains between swap points, batched
//!   gateway totals must equal a single switch replaying the same frames
//!   under the same per-phase rulesets.
//! * **Mid-batch swaps** — rulesets published while batches are in flight
//!   (no drains) must conserve every frame, and a batch already dequeued
//!   processes entirely against one snapshot.
//! * **Overload conservation** — non-blocking batched ingest drops whole
//!   sub-batches, and offered = processed + backpressure-dropped exactly.

use p4guard_conformance::schedule::{
    build_control, finish_conserved, finish_shedding, pack, phased_hot_swaps, random_ruleset,
    workload,
};
use p4guard_dataplane::action::Action;
use p4guard_gateway::{Gateway, GatewayConfig};
use rand::prelude::*;

const SEED: u64 = 0xba7c_45ed;

/// Phased hot-swap schedule on the batched path: for every shard count,
/// batched gateway totals (drained at each swap point) must equal a single
/// switch replaying the identical schedule frame by frame.
#[test]
fn phased_hot_swaps_match_single_switch_on_batched_path() {
    // 96 does not divide 400, so phase tails ride in short batches.
    phased_hot_swaps("conf-batch", SEED, true, Some(96));
}

/// Swaps published with batches still in flight (no drains): conservation
/// must hold exactly, the final version must be the last published one,
/// and the shards must have both processed batches and seen the swaps.
#[test]
fn swaps_landing_mid_batch_lose_no_frames() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x001d);
    let (control, stage) = build_control("conf-batch");
    // Tiny queues and shard batch budget force batches to straddle
    // publishes: a dequeued batch finishes on its drain's snapshot while
    // the next drain picks up the new version.
    let gw = Gateway::start(
        &control,
        GatewayConfig {
            shards: 4,
            queue_capacity: 8,
            batch_size: 32,
        },
    );
    let frames = workload(&mut rng, 3000, true);
    let batches = pack(&frames, 64);
    let mut last_version = 0;
    for (i, batch) in batches.into_iter().enumerate() {
        if i % 8 == 4 {
            let ruleset = random_ruleset(&mut rng);
            control
                .replace_ruleset(stage, &ruleset, Action::Drop)
                .unwrap();
            last_version = control.publish().version;
        }
        gw.dispatch_batch(batch);
    }
    let snap = finish_conserved(gw, last_version);
    let frame_batches: u64 = snap.shards.iter().map(|s| s.frame_batches).sum();
    assert!(frame_batches > 0, "no shard processed a FrameBatch");
}

/// Overload burst with non-blocking batched ingest and concurrent swaps:
/// served + backpressure-dropped must equal what the gateway was offered.
#[test]
fn batched_overload_bursts_conserve_every_frame() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xb00);
    let (control, stage) = build_control("conf-batch");
    let gw = Gateway::start(
        &control,
        GatewayConfig {
            shards: 2,
            queue_capacity: 2,
            batch_size: 4,
        },
    );
    let frames = workload(&mut rng, 4000, true);
    let batches = pack(&frames, 32);
    for (i, batch) in batches.into_iter().enumerate() {
        if i % 32 == 16 {
            let ruleset = random_ruleset(&mut rng);
            control
                .replace_ruleset(stage, &ruleset, Action::Drop)
                .unwrap();
            control.publish();
        }
        gw.offer_batch(batch);
    }
    finish_shedding(gw);
}
