//! Gateway fault schedules: deterministic, seed-driven sequences of hot
//! swaps, overload bursts and invalid installs, with differential oracles
//! against a single-switch replay.
//!
//! Oracles:
//! * **Phased equality** — with drains between swap points, the sharded
//!   gateway's merged totals must equal a single switch replaying the same
//!   frames under the same per-phase rulesets, for every shard count.
//! * **Conservation** — under overload and mid-replay swaps (no drains),
//!   every frame is either processed or counted as a backpressure drop;
//!   nothing vanishes.
//! * **Fault rejection** — a wrong-width ruleset install fails loudly and
//!   leaves the gateway serving the previous ruleset.

use p4guard_conformance::schedule::{
    build_control, finish_conserved, finish_shedding, phased_hot_swaps, random_ruleset, workload,
    PROTO_OFF,
};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::table::TableError;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::{RuleSet, TernaryEntry};
use rand::prelude::*;

const SEED: u64 = 0xfa17_5eed;

/// Phased hot-swap schedule: for every shard count, gateway totals under a
/// sequence of ruleset swaps (drained at each swap point) must equal a
/// single switch replaying the identical schedule.
#[test]
fn phased_hot_swaps_match_single_switch_replay() {
    phased_hot_swaps("conf-gw", SEED, false, None);
}

/// Mid-replay swaps with no drain: totals can legitimately split across
/// ruleset versions, but conservation must hold exactly and the final
/// version must be the last published one.
#[test]
fn undrained_swaps_lose_no_frames() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xdead);
    let (control, stage) = build_control("conf-gw");
    let gw = Gateway::start(&control, GatewayConfig::with_shards(4));
    let frames = workload(&mut rng, 3000, false);
    let mut last_version = 0;
    for (i, f) in frames.iter().enumerate() {
        if i % 500 == 250 {
            let ruleset = random_ruleset(&mut rng);
            control
                .replace_ruleset(stage, &ruleset, Action::Drop)
                .unwrap();
            last_version = control.publish().version;
        }
        gw.dispatch(f.clone());
    }
    finish_conserved(gw, last_version);
}

/// Queue-overload burst with non-blocking ingest and concurrent swaps:
/// served + backpressure-dropped must equal what the gateway was offered.
#[test]
fn overload_bursts_conserve_every_frame() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xb00);
    let (control, stage) = build_control("conf-gw");
    let gw = Gateway::start(
        &control,
        GatewayConfig {
            shards: 2,
            queue_capacity: 4,
            batch_size: 2,
        },
    );
    let frames = workload(&mut rng, 4000, false);
    for (i, f) in frames.iter().enumerate() {
        if i % 1000 == 500 {
            let ruleset = random_ruleset(&mut rng);
            control
                .replace_ruleset(stage, &ruleset, Action::Drop)
                .unwrap();
            control.publish();
        }
        gw.offer(f.clone());
    }
    finish_shedding(gw);
}

/// A ruleset whose key width does not match the stage must be rejected
/// with a typed error, and the gateway must keep serving the previously
/// published ruleset untouched.
#[test]
fn wrong_width_ruleset_is_rejected_and_service_continues() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1de);
    let (control, stage) = build_control("conf-gw");

    // Publish a known-good ruleset first: drop TCP.
    let mut good = RuleSet::new(1, 0);
    good.push(TernaryEntry::new(vec![6], vec![0xff], 1, 1));
    control.replace_ruleset(stage, &good, Action::Drop).unwrap();
    let gw = Gateway::start(&control, GatewayConfig::with_shards(2));

    // A two-byte-wide ruleset cannot install into the one-byte stage.
    let mut wide = RuleSet::new(2, 0);
    wide.push(TernaryEntry::new(vec![0xaa, 0xbb], vec![0xff, 0xff], 1, 1));
    let err = control
        .replace_ruleset(stage, &wide, Action::Drop)
        .expect_err("wrong-width install must fail");
    assert!(
        matches!(err, TableError::WidthMismatch { table: 1, entry: 2 }),
        "want WidthMismatch, got {err}"
    );

    // The failed install must not have disturbed the live ruleset.
    let frames = workload(&mut rng, 600, false);
    let tcp = frames.iter().filter(|f| f[PROTO_OFF] == 6).count() as u64;
    for f in &frames {
        gw.dispatch(f.clone());
    }
    let snap = gw.finish();
    assert_eq!(snap.totals.received, frames.len() as u64);
    assert_eq!(
        snap.totals.dropped, tcp,
        "previous ruleset must still apply"
    );
}
