//! Cross-crate semantics: the compiled rule set, the source decision tree,
//! and the deployed switch must agree packet-for-packet.

use p4guard::config::GuardConfig;
use p4guard::experiments::ExperimentContext;
use p4guard::pipeline::TwoStagePipeline;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::engine_builds;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::switch::Switch;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::AclLayout;
use p4guard_dataplane::{CompiledTable, LookupOutcome};
use p4guard_rules::compile::{compile_tree, find_disagreement, CompileConfig, COMPILE_CLASS};
use p4guard_rules::tree::{DecisionTree, TreeConfig};
use p4guard_rules::{RuleSet, TernaryEntry};
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
    let paths: Vec<_> = guard
        .tree
        .paths()
        .into_iter()
        .filter(|p| p.class == COMPILE_CLASS)
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

/// The ledger's fixtures — the mixed scenario at eight times its traffic,
/// its first 60 % trained on — under the fast and the default profile at
/// seeds 2020 and 31 (default/31 expands to 12,002 ternary entries): the
/// deployed stage's engine, the cross product folded back into boxes,
/// agrees with `DecisionTree::predict` on every train and test frame's
/// key, and indexes at most twice the tree's attack leaves. Then the
/// ledger's churn: the stage's last 1 % removed through
/// `CompiledTable::recompile`, which subtracts the removed boxes, and
/// re-added, which folds them — neither step builds an engine, and at
/// each every key is answered as the table and a fresh compile answer it.
#[test]
fn folded_learned_stages_equal_the_tree_on_every_fixture_key() {
    for seed in [2020, 31] {
        let mut scenario = Scenario::mixed_default(seed);
        scenario.benign_intensity *= 8.0;
        for attack in &mut scenario.attacks {
            attack.intensity *= 8.0;
        }
        let trace = scenario.generate().unwrap();
        let (train, test) = split_temporal(&trace, 0.6);
        for config in [GuardConfig::fast(), GuardConfig::default()] {
            let guard = TwoStagePipeline::new(config).train(&train).unwrap();
            let control = guard.deploy(1 << 16).unwrap();
            control.publish();
            let pipeline = control.snapshot();
            let stage = &pipeline.stages()[0];
            let leaves = guard
                .tree
                .paths()
                .iter()
                .filter(|p| p.class == COMPILE_CLASS)
                .count();
            let case = format!("seed {seed}, {} entries", stage.len());
            assert!(
                stage.minimized_len() <= 2 * leaves,
                "{case}: {} rows for {leaves} attack leaves",
                stage.minimized_len()
            );
            let keys: Vec<Vec<u8>> = train
                .iter()
                .chain(test.iter())
                .map(|record| stage.key().build_key(&record.frame))
                .collect();
            for key in &keys {
                assert_eq!(
                    stage.peek(key) == Action::Drop,
                    guard.tree.predict(key) == COMPILE_CLASS,
                    "{case}: key {key:02x?}"
                );
            }

            let mut table = control.with_switch(|sw| sw.stage(0).clone());
            let take = table.len() / 100;
            let mut delta = table.entries()[table.len() - take..].to_vec();
            for e in &delta {
                table.remove(e.handle).unwrap();
            }
            let removed = patched(stage, &table, &keys, &format!("{case}, 1 % removed"));
            for e in &mut delta {
                e.handle = table.insert(e.spec.clone(), e.action, e.priority).unwrap();
            }
            patched(&removed, &table, &keys, &format!("{case}, 1 % re-added"));
        }
    }
}

/// `table` recompiled against `prev` without an engine build, every key
/// answered as `Table::peek` answers it, with the `(action, priority)` of
/// a fresh compile's winner.
fn patched(
    prev: &Arc<CompiledTable>,
    table: &Table,
    keys: &[Vec<u8>],
    case: &str,
) -> Arc<CompiledTable> {
    let builds = engine_builds();
    let next = CompiledTable::recompile(prev, table);
    assert_eq!(
        engine_builds(),
        builds,
        "{case}: the delta built the engine"
    );
    let fresh = CompiledTable::compile(table);
    let winner = |stage: &CompiledTable, key: &[u8]| {
        let (action, outcome) = stage.lookup_traced(key, &mut []);
        let priority = match outcome {
            LookupOutcome::Hit(rank) => stage.rank_priority(rank),
            _ => None,
        };
        (action, priority)
    };
    for key in keys {
        assert_eq!(next.peek(key), table.peek(key), "{case}: key {key:02x?}");
        assert_eq!(
            winner(&next, key),
            winner(&fresh, key),
            "{case}: key {key:02x?}"
        );
    }
    next
}

/// The fold never leaves more rows than the ternary form's count (subsumed
/// entries dropped, one-bit siblings merged: what `TableUsage` prices) on
/// F20's shapes: its latency ruleset, whose priority levels hold byte-0
/// values four apart, and its four learned margin rulesets (the lab's
/// guard at depth 2, 4, 6 and 8, compiled without optimization).
#[test]
fn the_fold_leaves_no_more_rows_than_the_sibling_merge_on_f20s_rulesets() {
    let installed = |rs: &RuleSet| {
        let layout = AclLayout {
            window: 64,
            offsets: (0..rs.key_width()).collect(),
            capacity: rs.len().max(1),
        };
        let control = ControlPlane::new(layout.switch("fold", ["acl"]));
        control.replace_ruleset(0, rs, Action::Drop).unwrap();
        control.publish();
        let priced = control.with_switch(|sw| sw.resources().tcam_entries_minimized);
        (control.snapshot().stages()[0].minimized_len(), priced)
    };
    let mut latency = RuleSet::new(3, 0);
    for i in 0..1024usize {
        latency.push(TernaryEntry::new(
            vec![(i % 256) as u8, (i / 256) as u8, 0xaa],
            vec![0xff; 3],
            1,
            (i % 4) as i32,
        ));
    }
    let (rows, priced) = installed(&latency);
    assert!(
        rows <= priced,
        "latency ruleset: {rows} rows, {priced} priced"
    );
    let lab = ExperimentContext::standard(2020, false);
    for depth in [2, 4, 6, 8] {
        let config = GuardConfig {
            compile: CompileConfig {
                optimize: false,
                ..lab.config.compile
            },
            ..lab.config_at_depth(depth)
        };
        let (rows, priced) = installed(&lab.guard(&config).guard().compiled.ternary);
        assert!(
            rows <= priced,
            "depth {depth}: {rows} rows, {priced} priced"
        );
    }
}
