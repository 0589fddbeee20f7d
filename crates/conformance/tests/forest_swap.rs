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
use p4guard_conformance::schedule::{
    finish_against, finish_conserved, mirror_ruleset, pack, proto_acl, random_ruleset, serve_phase,
    workload,
};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::vote::{EarlyExit, VoteStage};
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::RuleSet;
use rand::prelude::*;

const SEED: u64 = 0xf0e5_7ed5;

/// A control plane whose switch is a `trees`-stage vote pipeline.
fn build_forest_control(trees: usize, vote: VoteStage) -> ControlPlane {
    let mut switch = proto_acl().switch("conf-forest", (0..trees).map(|_| "tree"));
    switch.set_vote(Some(vote));
    ControlPlane::new(switch)
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
                    workload(&mut rng, 400, true),
                )
            })
            .collect();

        let control = build_forest_control(TREES, vote);
        let reference = build_forest_control(TREES, vote);
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));

        for (rulesets, frames) in &phases {
            // The whole forest in one swap: all trees or none.
            let forest: Vec<_> = (0..)
                .zip(rulesets)
                .map(|(i, rs)| (i, rs, Action::Drop))
                .collect();
            control.replace_rulesets(&forest).unwrap();
            for (stage, ruleset) in rulesets.iter().enumerate() {
                mirror_ruleset(&reference, stage, ruleset);
            }
            control.publish();

            // 96 does not divide 400, so phase tails ride in short batches.
            serve_phase(&gw, &reference, frames, Some(96));
        }

        finish_against(gw, &reference, &format!("{shards}-shard batched forest"));
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
    let trees: Vec<_> = (0..3).map(|_| random_ruleset(&mut rng)).collect();
    let forest: Vec<_> = (0..)
        .zip(&trees)
        .map(|(i, rs)| (i, rs, Action::Drop))
        .collect();
    control.replace_rulesets(&forest).unwrap();
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
    let frames = workload(&mut rng, 3000, true);
    let batches = pack(&frames, 64);
    let mut last_version = 0;
    let mut expected_stages = 3usize;
    for (i, batch) in batches.into_iter().enumerate() {
        match i % 8 {
            // Grow the electorate: a new tree with a fresh ruleset.
            2 => {
                let rs = random_ruleset(&mut rng);
                let stage = control.with_switch_mut(|sw| sw.add_stage(proto_acl().table("tree")));
                control.replace_ruleset(stage, &rs, Action::Drop).unwrap();
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
    finish_conserved(gw, last_version);
    assert_eq!(
        control.with_switch(|sw| sw.stage_count()),
        expected_stages,
        "structural swaps leave the tracked tree count installed"
    );
}
