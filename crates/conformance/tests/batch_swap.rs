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
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::switch::Switch;
use p4guard_dataplane::table::{MatchKind, Table};
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::{FrameArena, FrameBatch};
use p4guard_rules::{RuleSet, TernaryEntry};
use rand::prelude::*;
use std::time::{Duration, Instant};

const SEED: u64 = 0xba7c_45ed;

/// Offset of the IPv4 protocol byte in an Ethernet frame.
const PROTO_OFF: usize = 14 + 9;

/// An Ethernet+IPv4 frame for `flow` carrying protocol byte `proto`.
fn frame(flow: u8, proto: u8, payload: u8) -> Bytes {
    let mut f = vec![0u8; 14];
    f[12] = 0x08;
    let mut ip = vec![0u8; 20];
    ip[0] = 0x45;
    ip[9] = proto;
    ip[12..16].copy_from_slice(&[10, 0, 0, flow]);
    ip[16..20].copy_from_slice(&[10, 0, 1, 1]);
    f.extend_from_slice(&ip);
    f.extend_from_slice(&(1000 + u16::from(flow)).to_be_bytes());
    f.extend_from_slice(&443u16.to_be_bytes());
    f.extend_from_slice(&[0, 9, 0, 0]);
    f.push(payload);
    Bytes::from(f)
}

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

/// Packs `frames` into arena batches of `batch` frames (last one short).
fn pack(frames: &[Bytes], batch: usize) -> Vec<FrameBatch> {
    let mut arena = FrameArena::new(64 * 1024);
    let mut out = Vec::new();
    for f in frames {
        arena.push(f);
        if arena.pending() >= batch {
            out.push(arena.seal_batch());
        }
    }
    if arena.pending() > 0 {
        out.push(arena.seal_batch());
    }
    out
}

/// A control plane over a one-stage switch keyed on the protocol byte.
fn build_control() -> (ControlPlane, usize) {
    let parser = ParserSpec::raw_window(64, 14);
    let mut switch = Switch::new("conf-batch", parser, 1);
    let acl = Table::new(
        "acl",
        MatchKind::Ternary,
        KeyLayout::new(vec![PROTO_OFF]),
        64,
        Action::NoOp,
    );
    let stage = switch.add_stage(acl);
    (ControlPlane::new(switch), stage)
}

/// A small adversarial ruleset over the protocol byte.
fn random_ruleset<R: Rng>(rng: &mut R) -> RuleSet {
    let mut rs = RuleSet::new(1, 0);
    for _ in 0..rng.gen_range(1..=6) {
        let mask = *[0xffu8, 0xff, 0xf0, 0x0f, 0x00]
            .choose(rng)
            .expect("mask list is non-empty");
        rs.push(TernaryEntry::new(
            vec![rng.gen()],
            vec![mask],
            1,
            rng.gen_range(0..4),
        ));
    }
    rs
}

fn drain(gw: &Gateway, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while gw.snapshot().totals.received < expected {
        assert!(
            Instant::now() < deadline,
            "gateway failed to drain to {expected} received frames"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
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

        let (control, stage) = build_control();
        let (reference, ref_stage) = build_control();
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));

        let mut sent = 0u64;
        for (ruleset, frames) in &phases {
            control.clear_stage(stage).unwrap();
            control
                .install_ruleset(stage, ruleset, Action::Drop)
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
    let (control, stage) = build_control();
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
            control.clear_stage(stage).unwrap();
            control
                .install_ruleset(stage, &ruleset, Action::Drop)
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
    let (control, stage) = build_control();
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
            control.clear_stage(stage).unwrap();
            control
                .install_ruleset(stage, &ruleset, Action::Drop)
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
