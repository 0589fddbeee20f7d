//! Forest-pipeline conformance: hot swaps of a multi-stage ensemble
//! (one ternary stage per tree feeding the vote stage) must preserve
//! every per-frame guarantee on the batched gateway path.
//!
//! Oracles:
//! * **Phased equality** — with drains between swap points, batched
//!   gateway totals under a vote-mode pipeline (sound early exit on)
//!   must equal a single mutable switch replaying the same frames
//!   per-frame under the same per-phase tree rulesets.
//! * **Structural mid-serve swaps** — trees *added and removed* while
//!   batches are in flight (stage-count changes force the full-rebuild
//!   publish path) must conserve every frame, land on the last published
//!   version, and leave the expected stage count installed.

use bytes::Bytes;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::switch::Switch;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::vote::{EarlyExit, VoteStage};
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::{FrameArena, FrameBatch};
use p4guard_rules::{RuleSet, TernaryEntry};
use rand::prelude::*;
use std::time::{Duration, Instant};

const SEED: u64 = 0xf0e5_7ed5;

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

/// A randomized workload over 16 flows, runts included so the batched
/// parse stage exercises its reject lane under vote mode too.
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

/// An empty per-tree stage keyed on the protocol byte.
fn tree_stage() -> Table {
    Table::new(
        "tree",
        MatchKind::Ternary,
        KeyLayout::new(vec![PROTO_OFF]),
        64,
        Action::NoOp,
    )
}

/// A control plane whose switch is a `trees`-stage vote pipeline.
fn build_forest_control(trees: usize, vote: VoteStage) -> ControlPlane {
    let parser = ParserSpec::raw_window(64, 14);
    let mut switch = Switch::new("conf-forest", parser, 1);
    for _ in 0..trees {
        switch.add_stage(tree_stage());
    }
    switch.set_vote(Some(vote));
    ControlPlane::new(switch)
}

/// A small adversarial per-tree ruleset over the protocol byte.
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

/// Phased hot-swap schedule on a vote-mode pipeline: for every shard
/// count, batched gateway totals (drained at each swap point) must equal
/// a single mutable switch replaying the identical schedule per-frame —
/// with the sound early exit active on both, so skipped lookups are
/// exercised while verdicts stay provably the full-majority ones.
#[test]
fn phased_forest_swaps_match_single_switch_replay() {
    const TREES: usize = 3;
    let vote = VoteStage::with_early_exit(EarlyExit::sound_majority(TREES));
    for shards in [1usize, 2, 4] {
        let mut rng = StdRng::seed_from_u64(SEED ^ shards as u64);
        // Each phase: one fresh ruleset per tree stage, plus a workload.
        let phases: Vec<(Vec<RuleSet>, Vec<Bytes>)> = (0..4)
            .map(|_| {
                (
                    (0..TREES).map(|_| random_ruleset(&mut rng)).collect(),
                    workload(&mut rng, 400),
                )
            })
            .collect();

        let control = build_forest_control(TREES, vote);
        let reference = build_forest_control(TREES, vote);
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));

        let mut sent = 0u64;
        for (rulesets, frames) in &phases {
            for (stage, ruleset) in rulesets.iter().enumerate() {
                control.clear_stage(stage).unwrap();
                control
                    .install_ruleset(stage, ruleset, Action::Drop)
                    .unwrap();
                reference.clear_stage(stage).unwrap();
                reference
                    .install_ruleset(stage, ruleset, Action::Drop)
                    .unwrap();
            }
            control.publish();

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
            "{shards}-shard batched forest totals diverge from per-frame replay"
        );
        assert_eq!(snap.dropped_backpressure, 0, "blocking ingest never drops");
    }
}

/// Trees added and removed while batches are in flight (no drains): the
/// stage-count change takes the full-rebuild publish path, yet every
/// frame is conserved, the gateway lands on the last published version,
/// and the switch ends with exactly the tracked number of tree stages.
#[test]
fn tree_add_remove_mid_serve_conserves_frames() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x001d);
    let control = build_forest_control(3, VoteStage::majority());
    for stage in 0..3 {
        let rs = random_ruleset(&mut rng);
        control.install_ruleset(stage, &rs, Action::Drop).unwrap();
    }
    // Tiny queues and shard batch budget force batches to straddle the
    // structural publishes.
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
    let mut expected_stages = 3usize;
    for (i, batch) in batches.into_iter().enumerate() {
        match i % 8 {
            // Grow the electorate: a new tree with a fresh ruleset.
            2 => {
                let rs = random_ruleset(&mut rng);
                control.with_switch_mut(|sw| {
                    let mut table = tree_stage();
                    for e in rs.entries() {
                        table
                            .insert(
                                MatchSpec::Ternary {
                                    value: e.value.clone(),
                                    mask: e.mask.clone(),
                                },
                                Action::Drop,
                                e.priority,
                            )
                            .unwrap();
                    }
                    sw.add_stage(table);
                });
                expected_stages += 1;
                last_version = control.publish().version;
            }
            // Shrink it again, never below one tree.
            6 if expected_stages > 1 => {
                control.with_switch_mut(|sw| {
                    sw.remove_stage(expected_stages - 1);
                });
                expected_stages -= 1;
                last_version = control.publish().version;
            }
            _ => {}
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
    assert_eq!(snap.version, last_version, "gateway lands on last publish");
    assert_eq!(
        control.with_switch(|sw| sw.stage_count()),
        expected_stages,
        "structural swaps leave the tracked tree count installed"
    );
    let swaps_seen: u64 = snap.shards.iter().map(|s| s.swaps_seen).sum();
    assert!(swaps_seen > 0, "no shard observed a structural swap");
}
