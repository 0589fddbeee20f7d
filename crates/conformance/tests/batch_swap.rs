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

use bytes::Bytes;
use p4guard_conformance::schedule::{build_control, drain, frame, pack, random_ruleset};
use p4guard_dataplane::action::Action;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::RuleSet;
use rand::prelude::*;

const SEED: u64 = 0xba7c_45ed;

/// A randomized workload over 16 flows, with short runts mixed in so the
/// batched parse stage exercises its reject lane too.
fn workload<R: Rng>(rng: &mut R, n: usize) -> Vec<Bytes> {
    (0..n)
        .map(|i| {
            if rng.gen_range(0..16u8) == 0 {
                return Bytes::from(vec![i as u8; 4]); // parser-rejected runt
            }
            let proto = *[6u8, 17, 1, 47, rng.gen()]
                .choose(rng)
                .expect("protocol list is non-empty");
            frame(rng.gen_range(0..16), proto, i as u8)
        })
        .collect()
}

/// Phased hot-swap schedule on the batched path: for every shard count,
/// batched gateway totals (drained at each swap point) must equal a single
/// switch replaying the identical schedule frame by frame.
#[test]
fn phased_hot_swaps_match_single_switch_on_batched_path() {
    for shards in [1usize, 2, 4, 8] {
        let mut rng = StdRng::seed_from_u64(SEED ^ shards as u64);
        let phases: Vec<(RuleSet, Vec<Bytes>)> = (0..4)
            .map(|_| (random_ruleset(&mut rng), workload(&mut rng, 400)))
            .collect();

        let (control, stage) = build_control("conf-batch");
        let (reference, ref_stage) = build_control("conf-batch");
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));

        let mut sent = 0u64;
        for (ruleset, frames) in &phases {
            control
                .replace_ruleset(stage, ruleset, Action::Drop)
                .unwrap();
            control.publish();
            reference.clear_stage(ref_stage).unwrap();
            reference
                .install_ruleset(ref_stage, ruleset, Action::Drop)
                .unwrap();

            // 96 does not divide 400, so phase tails ride in short batches.
            for batch in pack(frames, 96) {
                gw.dispatch_batch(batch);
            }
            sent += frames.len() as u64;
            drain(&gw, sent);
            reference.with_switch_mut(|sw| {
                sw.run_frames(frames.iter().map(|f| f.as_ref()));
            });
        }

        let snap = gw.finish();
        let single = reference.with_switch_mut(|sw| sw.counters().clone());
        assert_eq!(
            snap.totals, single,
            "{shards}-shard batched phased totals diverge from single-switch replay"
        );
        assert_eq!(snap.dropped_backpressure, 0, "blocking ingest never drops");
    }
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
    let frames = workload(&mut rng, 3000);
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
    let snap = gw.finish();
    assert_eq!(snap.totals.received, frames.len() as u64);
    assert_eq!(snap.dropped_backpressure, 0);
    assert_eq!(
        snap.totals.forwarded + snap.totals.dropped + snap.totals.parser_rejected,
        snap.totals.received,
        "every received frame must get exactly one verdict"
    );
    assert_eq!(snap.version, last_version);
    let swaps_seen: u64 = snap.shards.iter().map(|s| s.swaps_seen).sum();
    assert!(swaps_seen > 0, "no shard observed a swap");
    let frame_batches: u64 = snap.shards.iter().map(|s| s.frame_batches).sum();
    assert!(frame_batches > 0, "no shard processed a FrameBatch");
}

/// Overload burst with non-blocking batched ingest and concurrent swaps:
/// enqueued + backpressure-dropped must equal offered, and the shards must
/// process exactly the enqueued frames.
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
    let frames = workload(&mut rng, 4000);
    let batches = pack(&frames, 32);
    let mut enqueued = 0u64;
    for (i, batch) in batches.into_iter().enumerate() {
        if i % 32 == 16 {
            let ruleset = random_ruleset(&mut rng);
            control
                .replace_ruleset(stage, &ruleset, Action::Drop)
                .unwrap();
            control.publish();
        }
        enqueued += gw.offer_batch(batch);
    }
    let snap = gw.finish();
    assert_eq!(snap.totals.received, enqueued);
    assert_eq!(
        snap.totals.received + snap.dropped_backpressure,
        frames.len() as u64,
        "offered = processed + backpressure-dropped, nothing vanishes"
    );
    assert_eq!(
        snap.totals.forwarded + snap.totals.dropped + snap.totals.parser_rejected,
        snap.totals.received
    );
}
