//! Cross-crate semantics: the compiled rule set, the source decision tree,
//! and the deployed switch must agree packet-for-packet.

use p4guard::config::GuardConfig;
use p4guard::pipeline::TwoStagePipeline;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::switch::Switch;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_rules::compile::{compile_tree, find_disagreement, CompileConfig};
use p4guard_rules::tree::{DecisionTree, TreeConfig};
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fit a small random tree-shaped problem and verify the compiled rules
/// agree with the tree on dense random sampling.
#[test]
fn compiled_rules_equal_tree_on_random_keys() {
    let mut rng = StdRng::seed_from_u64(5150);
    for trial in 0..10 {
        let width = rng.gen_range(2..=4usize);
        let n = 600;
        let mut data = Vec::with_capacity(n * width);
        let mut labels = Vec::with_capacity(n);
        // Random labelling rule: conjunction over two random features.
        let fa = rng.gen_range(0..width);
        let fb = rng.gen_range(0..width);
        let ta: u8 = rng.gen();
        let tb: u8 = rng.gen();
        for _ in 0..n {
            let row: Vec<u8> = (0..width).map(|_| rng.gen()).collect();
            labels.push(usize::from(row[fa] > ta && row[fb] <= tb));
            data.extend_from_slice(&row);
        }
        if labels.iter().all(|&l| l == 0) || labels.iter().all(|&l| l == 1) {
            continue;
        }
        let tree = DecisionTree::fit(width, &data, &labels, TreeConfig::default());
        let compiled = compile_tree(&tree, &CompileConfig::default()).unwrap();
        let keys: Vec<Vec<u8>> = (0..4000)
            .map(|_| (0..width).map(|_| rng.gen()).collect())
            .collect();
        let disagreement = find_disagreement(&tree, &compiled, keys.iter().map(|k| k.as_slice()));
        assert_eq!(disagreement, None, "trial {trial} disagreed");
    }
}

/// Range-table deployment must match ternary-table deployment decision
/// for every test frame (two physical encodings of the same ruleset).
#[test]
fn range_and_ternary_deployments_agree() {
    let trace = Scenario::smart_home_default(61).generate().unwrap();
    let (train, test) = split_temporal(&trace, 0.6);
    let guard = TwoStagePipeline::new(GuardConfig::fast())
        .train(&train)
        .unwrap();

    // Ternary deployment via the normal path.
    let ternary_control = guard.deploy(200_000).unwrap();

    // Range deployment: same key layout, one native range entry per path.
    let mut acl = Table::new(
        "guard_acl_range",
        MatchKind::Range,
        KeyLayout::new(guard.selection.offsets.clone()),
        10_000,
        Action::NoOp,
    );
    let attack = guard.config.compile.compile_class;
    let paths: Vec<_> = guard
        .tree
        .paths()
        .into_iter()
        .filter(|p| p.class == attack)
        .collect();
    for path in &paths {
        let (lo, hi) = path.ranges.iter().copied().unzip();
        acl.insert(MatchSpec::Range { lo, hi }, Action::Drop, 1)
            .unwrap();
    }
    let mut rsw = Switch::new("range-gw", ParserSpec::raw_window(64, 14), 1);
    rsw.add_stage(acl);

    ternary_control.with_switch_mut(|tsw| {
        for r in test.iter() {
            assert_eq!(
                tsw.process(&r.frame).is_drop(),
                rsw.process(&r.frame).is_drop(),
                "encodings disagreed"
            );
        }
    });

    // Range encoding uses one entry per attack path — never more than the
    // ternary expansion.
    assert!(paths.len() <= guard.compiled.ternary.len().max(1));
}

/// Drop counters must add up across a replay.
#[test]
fn switch_counters_are_consistent() {
    let trace = Scenario::smart_home_default(62).generate().unwrap();
    let (train, test) = split_temporal(&trace, 0.6);
    let guard = TwoStagePipeline::new(GuardConfig::fast())
        .train(&train)
        .unwrap();
    let control = guard.deploy(200_000).unwrap();
    let stats = control.with_switch_mut(|sw| sw.run_trace(&test));
    control.with_switch(|sw| {
        let c = sw.counters();
        assert_eq!(c.received as usize, test.len());
        assert!(c.conserved(), "counters must partition received: {c}");
        assert_eq!(stats.dropped as u64, c.dropped + c.parser_rejected);
    });
}
