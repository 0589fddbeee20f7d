//! Fixtures shared by the gateway fault schedules under `tests/`: frames
//! over a handful of flows, a one-stage ACL keyed on the IPv4 protocol
//! byte, adversarial rulesets over that byte, and the drained checkpoint
//! between a schedule's phases.

use bytes::Bytes;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::table::MatchSpec;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewayConfig, GatewaySnapshot};
use p4guard_packet::{FrameArena, FrameBatch};
use p4guard_rules::{RuleSet, TernaryEntry};
use rand::prelude::*;
use std::time::Duration;

/// Offset of the IPv4 protocol byte in an Ethernet frame.
pub const PROTO_OFF: usize = 14 + 9;

/// An Ethernet+IPv4 frame for `flow` carrying protocol byte `proto` and
/// one payload byte. Distinct flows produce distinct 5-tuples (and so
/// land on distinct shards).
pub fn frame(flow: u8, proto: u8, payload: u8) -> Bytes {
    let mut f = vec![0u8; 14];
    f[12] = 0x08; // EtherType IPv4
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

/// A randomized workload over 16 flows and a protocol mix that includes
/// values no ruleset mentions; with `runts`, one frame in 16 is a 4-byte
/// runt the parser rejects.
pub fn workload<R: Rng>(rng: &mut R, n: usize, runts: bool) -> Vec<Bytes> {
    (0..n)
        .map(|i| {
            if runts && rng.gen_range(0..16u8) == 0 {
                return Bytes::from(vec![i as u8; 4]);
            }
            let proto = *[6u8, 17, 1, 47, rng.gen()]
                .choose(rng)
                .expect("protocol list is non-empty");
            frame(rng.gen_range(0..16), proto, i as u8)
        })
        .collect()
}

/// Packs `frames` into arena batches of `batch` frames (last one short).
pub fn pack(frames: &[Bytes], batch: usize) -> Vec<FrameBatch> {
    FrameArena::new(64 * 1024).pack(frames.iter().map(|f| &f[..]), batch)
}

/// 64-entry ternary stages keyed on the protocol byte.
pub fn proto_acl() -> AclLayout {
    AclLayout {
        window: 64,
        offsets: vec![PROTO_OFF],
        capacity: 64,
    }
}

/// A control plane over a one-stage [`proto_acl`] switch, and the index of
/// that stage. Starts empty (everything forwards).
pub fn build_control(name: &str) -> (ControlPlane, usize) {
    (ControlPlane::new(proto_acl().switch(name, ["acl"])), 0)
}

/// A small adversarial ruleset over the protocol byte: partial masks,
/// duplicate priorities, occasional match-alls.
pub fn random_ruleset<R: Rng>(rng: &mut R) -> RuleSet {
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

/// Blocks until `gw` has accounted for `offered` frames.
///
/// # Panics
///
/// Panics if it has not within 30 seconds, or if a shard has published a
/// drain that broke frame conservation.
pub fn drain(gw: &Gateway, offered: u64) {
    let snap = gw
        .wait_drained(offered, Duration::from_secs(30))
        .expect("gateway drains to the checkpoint");
    assert_eq!(snap.conservation_violations(), 0, "{snap}");
}

/// Makes `ruleset` the whole content of the `reference` switch's `stage`,
/// the way the schedules keep their oracle in step with a live swap —
/// from scratch, out of the table primitives, so the oracle does not run
/// the verb under test (`ControlPlane::replace_ruleset`).
pub fn mirror_ruleset(reference: &ControlPlane, stage: usize, ruleset: &RuleSet) {
    reference.with_switch_mut(|sw| {
        let table = sw.stage_mut(stage);
        table.clear();
        for e in ruleset.entries() {
            let spec = MatchSpec::Ternary {
                value: e.value.clone(),
                mask: e.mask.clone(),
            };
            table.insert(spec, Action::Drop, e.priority).unwrap();
        }
    });
}

/// One drained phase of a differential schedule: `frames` go through `gw`
/// — frame by frame with `batch: None`, else packed `batch` at a time —
/// and, once the gateway has accounted for them (`sent` is the schedule's
/// running total), through the `reference` switch.
pub fn serve_phase(
    gw: &Gateway,
    reference: &ControlPlane,
    frames: &[Bytes],
    batch: Option<usize>,
    sent: &mut u64,
) {
    match batch {
        None => frames.iter().for_each(|f| gw.dispatch(f.clone())),
        Some(n) => pack(frames, n)
            .into_iter()
            .for_each(|b| gw.dispatch_batch(b)),
    }
    *sent += frames.len() as u64;
    drain(gw, *sent);
    reference.with_switch_mut(|sw| sw.run_frames(frames.iter().map(|f| f.as_ref())));
}

/// Ends a differential schedule: the gateway's merged totals — verdicts,
/// drop reasons and per-stage hits alike — must equal the counters of the
/// `reference` switch that replayed the same phases, with nothing shed.
///
/// # Panics
///
/// Panics, naming the schedule `what`, if they do not.
pub fn finish_against(gw: Gateway, reference: &ControlPlane, what: &str) {
    let snap = gw.finish();
    let single = reference.with_switch_mut(|sw| sw.counters().clone());
    assert_eq!(
        snap.totals, single,
        "{what} totals diverge from the single-switch replay"
    );
    assert_eq!(snap.dropped_backpressure, 0, "blocking ingest never drops");
}

/// Ends an undrained schedule (swaps landed with frames in flight, so
/// totals split across versions): every one of the `frames` sent through
/// blocking ingest got exactly one verdict, some shard picked a swap up
/// mid-serve, and the gateway serves `last_version`.
///
/// # Panics
///
/// Panics if a frame was lost or shed, no swap was seen, or another
/// version is live.
pub fn finish_conserved(gw: Gateway, frames: usize, last_version: u64) -> GatewaySnapshot {
    let snap = gw.finish();
    assert_eq!(snap.totals.received, frames as u64);
    assert_eq!(snap.dropped_backpressure, 0);
    assert_eq!(
        snap.conservation_violations(),
        0,
        "every received frame must get exactly one verdict"
    );
    assert_eq!(snap.version, last_version, "gateway lands on last publish");
    let swaps_seen: u64 = snap.shards.iter().map(|s| s.swaps_seen).sum();
    assert!(swaps_seen > 0, "no shard observed a swap");
    snap
}

/// Ends a shedding schedule (non-blocking ingest against small queues): of
/// the `offered` frames, exactly the `accepted` ones were served, each to
/// one verdict, and the rest are counted as backpressure drops.
///
/// # Panics
///
/// Panics if a frame vanished or was served twice.
pub fn finish_shedding(gw: Gateway, accepted: u64, offered: usize) -> GatewaySnapshot {
    let snap = gw.finish();
    assert_eq!(snap.totals.received, accepted);
    assert_eq!(
        snap.totals.received + snap.dropped_backpressure,
        offered as u64,
        "offered = processed + backpressure-dropped, nothing vanishes"
    );
    assert_eq!(snap.conservation_violations(), 0);
    snap
}

/// The phased hot-swap schedule: for 1, 2, 4 and 8 shards, four phases of
/// a fresh [`random_ruleset`] and 400 frames (`runts` and `batch` as in
/// [`workload`] and [`serve_phase`]), drained at each swap point so no
/// queued frame straddles a swap — the gateway's totals must equal a
/// single switch replaying the identical schedule.
pub fn phased_hot_swaps(name: &str, seed: u64, runts: bool, batch: Option<usize>) {
    for shards in [1usize, 2, 4, 8] {
        let mut rng = StdRng::seed_from_u64(seed ^ shards as u64);
        let phases: Vec<(RuleSet, Vec<Bytes>)> = (0..4)
            .map(|_| (random_ruleset(&mut rng), workload(&mut rng, 400, runts)))
            .collect();
        let (control, stage) = build_control(name);
        let (reference, ref_stage) = build_control(name);
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));
        let mut sent = 0u64;
        for (ruleset, frames) in &phases {
            // Swap on the live path, and identically on the reference.
            control
                .replace_ruleset(stage, ruleset, Action::Drop)
                .unwrap();
            control.publish();
            mirror_ruleset(&reference, ref_stage, ruleset);
            serve_phase(&gw, &reference, frames, batch, &mut sent);
        }
        finish_against(gw, &reference, &format!("{shards}-shard {name}"));
    }
}
