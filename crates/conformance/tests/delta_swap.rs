//! Incremental-publish conformance: long chains of delta publishes
//! (`ControlPlane::apply_ruleset_diff`) and rollbacks (resynced with
//! `ControlPlane::replace_ruleset`, the adapt engine's abort path), applied
//! mid-serve and compiled incrementally, must be indistinguishable from a
//! control plane recompiling every ruleset from scratch.
//!
//! Oracles:
//! * **Phased equality** — with drains between publish points (per-frame
//!   and batched ingest), gateway totals must equal a single switch
//!   replaying the same frames under the same per-phase rulesets through
//!   the unminimized scan path.
//! * **Mid-serve chains** — deltas and rollbacks published with frames in
//!   flight (no drains) conserve every frame and land on the last
//!   published version.
//! * **Pinned repros** — shrunk schedules under `tests/corpus/delta-*.txt`
//!   that once broke verdict equality replay on every run, checked for
//!   full-keyspace verdict + winner-priority equality against a
//!   from-scratch compile.

use bytes::Bytes;
use p4guard_conformance::schedule::{
    build_control, finish_against, finish_conserved, mirror_ruleset, pack, serve_phase, workload,
};
use p4guard_dataplane::action::Action;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::{RuleSet, TernaryEntry};
use rand::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 0xde17_a5a9;

/// Mutates `current` into the next ruleset of the chain: a couple of
/// entries leave, a couple arrive, the rest carry over — the shape of a
/// retrain that shifted a few tree leaves.
fn evolve<R: Rng>(rng: &mut R, current: &RuleSet) -> RuleSet {
    let mut next = RuleSet::new(1, 0);
    for e in current.entries() {
        if rng.gen_range(0..4u8) > 0 {
            next.push(e.clone());
        }
    }
    for _ in 0..rng.gen_range(1..=3) {
        let mask = *[0xffu8, 0xfe, 0xf0, 0x00]
            .choose(rng)
            .expect("mask list is non-empty");
        let value = rng.gen::<u8>() & mask;
        next.push(TernaryEntry::new(
            vec![value],
            vec![mask],
            1,
            rng.gen_range(0..3),
        ));
    }
    next
}

/// Drained delta chain with interleaved rollbacks, per-frame and batched
/// ingest: gateway totals must equal a single switch replaying the same
/// frames per phase through the unminimized scan path. Publishes after the
/// first must be incremental (the single stage recompiles only when the
/// diff is non-empty), and rollbacks must recompile nothing.
#[test]
fn drained_delta_chains_match_scan_replay() {
    for shards in [1usize, 2, 4] {
        let mut rng = StdRng::seed_from_u64(SEED ^ shards as u64);
        let (control, stage) = build_control("conf-delta");
        let (reference, ref_stage) = build_control("conf-delta");
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));

        let mut current = RuleSet::new(1, 0);
        let mut history: Vec<(u64, RuleSet)> = Vec::new();
        let mut sent = 0u64;
        for phase in 0..12 {
            if phase > 0 && phase % 5 == 4 {
                // Rollback to a random retained version, then resync the
                // mutable tables to it (the adapt engine's abort path).
                let (version, baseline) = history[rng.gen_range(0..history.len())].clone();
                let report = control
                    .rollback_to(version, "conformance rollback")
                    .unwrap();
                assert_eq!(
                    report.stages_recompiled, 0,
                    "rollback serves retained bytes"
                );
                control
                    .replace_ruleset(stage, &baseline, Action::Drop)
                    .unwrap();
                current = baseline;
            } else {
                let next = evolve(&mut rng, &current);
                let diff = current.diff(&next);
                let expect_recompiled = usize::from(!diff.is_empty());
                control
                    .apply_ruleset_diff(stage, &diff, Action::Drop)
                    .unwrap();
                let report = control.publish();
                if phase > 0 {
                    assert_eq!(
                        report.stages_recompiled, expect_recompiled,
                        "delta publish must re-lower only the changed stage"
                    );
                }
                history.push((report.version, next.clone()));
                current = next;
            }
            mirror_ruleset(&reference, ref_stage, &current);

            let frames = workload(&mut rng, 300, false);
            let grain = (phase % 2 == 1).then_some(96);
            serve_phase(&gw, &reference, &frames, grain, &mut sent);
        }

        finish_against(gw, &reference, &format!("{shards}-shard delta-chain"));
    }
}

/// Deltas and rollbacks landing with frames in flight (no drains), mixed
/// per-frame and batched ingest: conservation must hold exactly and the
/// gateway must end on the last published version.
#[test]
fn undrained_delta_chains_lose_no_frames() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x17);
    let (control, stage) = build_control("conf-delta");
    let gw = Gateway::start(
        &control,
        GatewayConfig {
            shards: 4,
            queue_capacity: 8,
            batch_size: 32,
        },
    );
    let frames = workload(&mut rng, 3000, false);
    let batches = pack(&frames, 50);
    let mut current = RuleSet::new(1, 0);
    let mut history: Vec<(u64, RuleSet)> = Vec::new();
    let mut last_version = 0u64;
    let mut per_frame_cursor = 0usize;
    for (i, batch) in batches.into_iter().enumerate() {
        if i % 6 == 3 {
            if !history.is_empty() && i % 12 == 9 {
                let (version, baseline) = history[rng.gen_range(0..history.len())].clone();
                control.rollback_to(version, "mid-serve rollback").unwrap();
                control
                    .replace_ruleset(stage, &baseline, Action::Drop)
                    .unwrap();
                current = baseline;
                last_version = version;
            } else {
                let next = evolve(&mut rng, &current);
                let diff = current.diff(&next);
                control
                    .apply_ruleset_diff(stage, &diff, Action::Drop)
                    .unwrap();
                let report = control.publish();
                history.push((report.version, next.clone()));
                current = next;
                last_version = report.version;
            }
        }
        // Alternate ingest grain so swaps land against both hot paths.
        if i % 2 == 0 {
            gw.dispatch_batch(batch);
        } else {
            for f in batch.iter() {
                gw.dispatch(Bytes::from(f.to_vec()));
                per_frame_cursor += 1;
            }
        }
    }
    finish_conserved(gw, frames.len(), last_version);
    assert!(per_frame_cursor > 0, "per-frame lane must see traffic");
}

/// One pinned schedule: `(from entries, to entries)` parsed from a
/// corpus file.
fn parse_pin(path: &PathBuf) -> (RuleSet, RuleSet) {
    let text = std::fs::read_to_string(path).expect("corpus pin readable");
    let mut from = RuleSet::new(1, 0);
    let mut to = RuleSet::new(1, 0);
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let side = parts.next().expect("side column");
        let value = u8::from_str_radix(parts.next().expect("value column"), 16).unwrap();
        let mask = u8::from_str_radix(parts.next().expect("mask column"), 16).unwrap();
        let priority: i32 = parts.next().expect("priority column").parse().unwrap();
        let entry = TernaryEntry::new(vec![value], vec![mask], 1, priority);
        match side {
            "from" => from.push(entry),
            "to" => to.push(entry),
            other => panic!("unknown side {other:?} in {}", path.display()),
        }
    }
    (from, to)
}

/// Replays every `delta-*.txt` pin: install `from`, publish, delta to
/// `to`, publish again, and require full-keyspace verdict + winner
/// priority equality between the incrementally compiled pipeline and a
/// twin control plane compiling `to` from scratch.
#[test]
fn pinned_delta_repros_replay_identically() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut pins: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("delta-") && n.ends_with(".txt"))
        })
        .collect();
    pins.sort();
    assert!(!pins.is_empty(), "no delta pins found in {}", dir.display());

    for pin in pins {
        let (from, to) = parse_pin(&pin);
        let (control, stage) = build_control("conf-delta");
        control.replace_ruleset(stage, &from, Action::Drop).unwrap();
        control.publish();
        let diff = from.diff(&to);
        control
            .apply_ruleset_diff(stage, &diff, Action::Drop)
            .unwrap();
        let incremental = control.snapshot();

        let (scratch_control, scratch_stage) = build_control("conf-delta");
        scratch_control
            .replace_ruleset(scratch_stage, &to, Action::Drop)
            .unwrap();
        let scratch = scratch_control.snapshot();

        let inc_stage = &incremental.stages()[stage];
        let ref_stage = &scratch.stages()[scratch_stage];
        let mut inc_probe = [0u8; 1];
        let mut ref_probe = [0u8; 1];
        for key in 0u8..=255 {
            let (inc_action, inc_outcome) = inc_stage.lookup_traced(&[key], &mut inc_probe);
            let (ref_action, ref_outcome) = ref_stage.lookup_traced(&[key], &mut ref_probe);
            assert_eq!(
                inc_action,
                ref_action,
                "{}: verdict diverges at key {key:#04x}",
                pin.display()
            );
            let inc_priority = match inc_outcome {
                p4guard_dataplane::compiled::LookupOutcome::Hit(r) => inc_stage.rank_priority(r),
                _ => None,
            };
            let ref_priority = match ref_outcome {
                p4guard_dataplane::compiled::LookupOutcome::Hit(r) => ref_stage.rank_priority(r),
                _ => None,
            };
            assert_eq!(
                inc_priority,
                ref_priority,
                "{}: winner priority diverges at key {key:#04x}",
                pin.display()
            );
        }
    }
}
