//! Structural-sharing guarantees of the canary rollout choreography.
//!
//! The adaptation engine's canary path is `replace_ruleset` on the learned
//! ACL stage followed by `publish_to(canary shards)`, and promotion is
//! `republish(candidate_version)`. With incremental compilation these
//! steps must be cheap: only the touched ACL stage is re-lowered (and not
//! even that when the candidate holds the entries already installed),
//! every other stage's `CompiledTable` is shared by `Arc` across pipeline
//! versions, and promotion serves the retained snapshot without compiling
//! anything. This suite probes the `PipelineCell`
//! subscribers directly and pins those identities.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::table::MatchSpec;
use p4guard_dataplane::AclLayout;
use p4guard_rules::{RuleSet, TernaryEntry};
use std::sync::Arc;

/// A two-stage control plane shaped like the adapt deployments: stage 0
/// holds the learned ACL the engine rewrites, stage 1 a static allowlist
/// the engine never touches.
fn build_control() -> ControlPlane {
    let layout = AclLayout {
        window: 16,
        offsets: vec![0, 1],
        capacity: 1024,
    };
    let control = ControlPlane::new(layout.switch("canary-sharing", ["acl", "allowlist"]));
    let allowed = MatchSpec::Ternary {
        value: vec![0xde, 0xad],
        mask: vec![0xff, 0xff],
    };
    control
        .with_switch_mut(|sw| sw.stage_mut(1).insert(allowed, Action::Forward(1), 5))
        .unwrap();
    control
}

fn ruleset(seed: u8) -> RuleSet {
    let mut rs = RuleSet::new(2, 0);
    for i in 0..8u8 {
        rs.push(TernaryEntry::new(vec![seed, i], vec![0xff, 0xff], 1, 1));
    }
    rs
}

#[test]
fn canary_publish_relowers_only_the_acl_stage() {
    let control = build_control();
    control
        .replace_ruleset(0, &ruleset(0x10), Action::Drop)
        .unwrap();
    // Two subscriber cells model a two-shard gateway: shard 0 is the
    // canary, shard 1 the control group.
    let canary_cell = control.attach_cell();
    let control_cell = control.attach_cell();
    let first = control.publish();
    assert_eq!(first.subscribers, 2);
    let baseline = canary_cell.load();
    let control_baseline = control_cell.load();
    assert!(Arc::ptr_eq(&baseline, &control_baseline));

    // A candidate that is the active ruleset over again changes nothing:
    // the canary publish shares every stage with the baseline.
    let unchanged = control
        .replace_ruleset(0, &ruleset(0x10), Action::Drop)
        .unwrap();
    assert!(unchanged.is_empty());
    let same = control.publish_to(&[0]).unwrap();
    assert_eq!((same.stages_recompiled, same.stages_shared), (0, 2));

    // The canary step rewrites stage 0 only, then publishes to shard 0.
    control
        .replace_ruleset(0, &ruleset(0x20), Action::Drop)
        .unwrap();
    let report = control.publish_to(&[0]).unwrap();
    assert_eq!(
        (report.stages_recompiled, report.stages_shared),
        (1, 1),
        "only the rewritten ACL stage may be re-lowered"
    );

    let candidate = canary_cell.load();
    assert_eq!(candidate.version(), report.version);
    // Changed stage: fresh compile. Untouched stage: the same Arc the
    // baseline pipeline holds — shared bytes, zero re-lowering.
    assert!(!Arc::ptr_eq(&candidate.stages()[0], &baseline.stages()[0]));
    assert!(Arc::ptr_eq(&candidate.stages()[1], &baseline.stages()[1]));
    // The control shard still serves the baseline snapshot untouched.
    assert!(Arc::ptr_eq(&control_cell.load(), &baseline));
}

#[test]
fn promotion_republish_serves_retained_bytes_fleet_wide() {
    let control = build_control();
    control
        .replace_ruleset(0, &ruleset(0x10), Action::Drop)
        .unwrap();
    let canary_cell = control.attach_cell();
    let control_cell = control.attach_cell();
    control.publish();

    control
        .replace_ruleset(0, &ruleset(0x20), Action::Drop)
        .unwrap();
    let canaried = control.publish_to(&[0]).unwrap();
    let candidate = canary_cell.load();

    // Promotion: the exact canaried snapshot goes fleet-wide. Nothing is
    // recompiled and every shard ends up holding the identical Arc.
    let promoted = control.republish(canaried.version).unwrap();
    assert_eq!(promoted.version, canaried.version);
    assert_eq!(promoted.stages_recompiled, 0);
    assert_eq!(promoted.stages_shared, candidate.stages().len());
    assert!(Arc::ptr_eq(&canary_cell.load(), &candidate));
    assert!(Arc::ptr_eq(&control_cell.load(), &candidate));
}

#[test]
fn rollback_restores_the_exact_baseline_snapshot() {
    let control = build_control();
    control
        .replace_ruleset(0, &ruleset(0x10), Action::Drop)
        .unwrap();
    let canary_cell = control.attach_cell();
    let control_cell = control.attach_cell();
    let first = control.publish();
    let baseline = canary_cell.load();

    control
        .replace_ruleset(0, &ruleset(0x20), Action::Drop)
        .unwrap();
    control.publish_to(&[0]).unwrap();
    assert!(!Arc::ptr_eq(&canary_cell.load(), &baseline));

    // Guardrail trip: both shards return to the retained baseline — the
    // identical Arc, not a recompiled equivalent.
    control
        .rollback_to(first.version, "guardrail tripped")
        .unwrap();
    assert!(Arc::ptr_eq(&canary_cell.load(), &baseline));
    assert!(Arc::ptr_eq(&control_cell.load(), &baseline));
}
