//! Fixtures shared by the gateway fault schedules under `tests/`: frames
//! over a handful of flows, a one-stage ACL keyed on the IPv4 protocol
//! byte, adversarial rulesets over that byte, and the drained checkpoint
//! between a schedule's phases.

use bytes::Bytes;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::Gateway;
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

/// Packs `frames` into arena batches of `batch` frames (last one short).
pub fn pack(frames: &[Bytes], batch: usize) -> Vec<FrameBatch> {
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
/// Panics if it has not within 30 seconds.
pub fn drain(gw: &Gateway, offered: u64) {
    gw.wait_drained(offered, Duration::from_secs(30))
        .expect("gateway drains to the checkpoint");
}
