//! Differential property suite for in-network ensemble inference: a
//! [`RandomForest`] compiled stage-per-tree and installed into a
//! vote-mode switch must classify **exactly** like the reference
//! software predictor.
//!
//! Three invariants are pinned, over randomized training sets that
//! exercise bootstrap bagging, per-split feature subsampling, multiple
//! widths, and the benign-only-tree → empty-stage edge:
//!
//! 1. **Full majority.** With no early exit, both the per-frame path
//!    (`process_into`) and the batched path (`process_batch_into`)
//!    return `Drop` exactly where [`RandomForest::predict`] says 1 and
//!    `Forward` where it says 0, for every probed key — the full 256-key
//!    space at width 1.
//! 2. **Sound early exit.** Under [`EarlyExit::sound_majority`] the
//!    verdicts still equal `predict` (the exit can never flip the full
//!    vote), and per-frame equals batched.
//! 3. **Arbitrary early exit.** For any `(min_votes, margin)` the
//!    pipeline equals [`RandomForest::predict_early_exit`] with the same
//!    rule — the exit is verdict *semantics*, applied identically by the
//!    reference predictor and both data-plane paths.

use p4guard_dataplane::action::{Action, Verdict};
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::pipeline::{BatchScratch, ReadPipeline};
use p4guard_dataplane::switch::{Switch, SwitchCounters};
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_dataplane::vote::VoteStage;
use p4guard_packet::arena::FrameArena;
use p4guard_rules::forest::{EarlyExit, ForestConfig, RandomForest};
use p4guard_rules::{CompileConfig, TreeConfig};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const DEFAULT_PORT: u16 = 9;

/// Raw training material: rows of 2 seed bytes (truncated to the chosen
/// width) plus a label bit.
type RawRows = Vec<(Vec<u8>, bool)>;

fn fit_forest(
    width: usize,
    rows: &RawRows,
    trees: usize,
    depth: usize,
    bootstrap: bool,
    max_features_sel: usize,
    seed: u64,
) -> RandomForest {
    let mut data = Vec::with_capacity(rows.len() * width);
    let mut labels = Vec::with_capacity(rows.len());
    for (bytes, attack) in rows {
        data.extend_from_slice(&bytes[..width]);
        labels.push(usize::from(*attack));
    }
    let config = ForestConfig {
        trees,
        tree: TreeConfig {
            max_depth: depth,
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..TreeConfig::default()
        },
        // 0 → all features, 1 → one feature per split, 2 → explicit full
        // width: both the subsampled and the unrestricted split paths run.
        max_features: match max_features_sel % 3 {
            0 => None,
            1 => Some(1),
            _ => Some(width),
        },
        bootstrap,
        seed,
    };
    RandomForest::fit(width, &data, &labels, config)
}

/// Compiles the forest and lowers it into a vote-mode pipeline: one
/// ternary stage per tree (empty stages kept — a benign-only tree votes
/// by missing), entries installed with the ruleset's own priorities.
fn deploy(width: usize, forest: &RandomForest, exit: Option<EarlyExit>) -> ReadPipeline {
    let compiled = forest
        .compile(&CompileConfig::default())
        .expect("tiny forests stay far below the entry cap");
    let mut sw = Switch::new(
        "forest-prop",
        ParserSpec::raw_window(width, width),
        DEFAULT_PORT,
    );
    for (i, rs) in compiled.rulesets().iter().enumerate() {
        let mut table = Table::new(
            format!("tree{i}"),
            MatchKind::Ternary,
            KeyLayout::window(width),
            rs.len().max(1),
            Action::NoOp,
        );
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
                .expect("compiled entries fit the sized stage");
        }
        sw.add_stage(table);
    }
    assert_eq!(
        sw.stage_count(),
        forest.trees().len(),
        "every tree must keep its stage, benign-only trees included"
    );
    sw.set_vote(Some(match exit {
        Some(e) => VoteStage::with_early_exit(e),
        None => VoteStage::majority(),
    }));
    sw.read_pipeline(1)
}

/// Keys worth probing: the full keyspace at width 1; at width 2 the
/// training rows plus axis-aligned sweeps through every byte value.
fn probe_keys(width: usize, rows: &RawRows) -> Vec<Vec<u8>> {
    if width == 1 {
        return (0u8..=255).map(|b| vec![b]).collect();
    }
    let mut keys: Vec<Vec<u8>> = rows
        .iter()
        .map(|(bytes, _)| bytes[..width].to_vec())
        .collect();
    for b in 0u8..=255 {
        keys.push(vec![b, 0]);
        keys.push(vec![0, b]);
        keys.push(vec![b, 255]);
        keys.push(vec![b, b]);
    }
    keys
}

/// Runs every key through both data-plane paths and checks the verdicts
/// against `expect` (the reference predictor's 0/1 answer per key).
fn assert_paths_match_reference(pipeline: &ReadPipeline, keys: &[Vec<u8>], expect: &[usize]) {
    // Per-frame path.
    let mut counters = SwitchCounters::default();
    let mut scratch = Vec::new();
    let per_frame: Vec<Verdict> = keys
        .iter()
        .map(|k| pipeline.process_into(k, &mut counters, &mut scratch))
        .collect();
    for ((key, verdict), &class) in keys.iter().zip(&per_frame).zip(expect) {
        let want = if class == 1 {
            Verdict::Drop
        } else {
            Verdict::Forward(DEFAULT_PORT)
        };
        assert_eq!(*verdict, want, "per-frame verdict for key {key:?}");
    }

    // Batched path over the same keys must be bit-identical, both as one
    // whole batch and as one-frame batches (the per-frame ingest shape).
    for batch_len in [keys.len(), 1] {
        let mut arena = FrameArena::new(keys.len().max(1) * keys[0].len());
        let mut batch_counters = SwitchCounters::default();
        let mut batch_scratch = BatchScratch::new();
        let mut batch_verdicts = Vec::new();
        for chunk in keys.chunks(batch_len) {
            for key in chunk {
                arena.push(key);
            }
            let batch = arena.seal_batch();
            pipeline.process_batch_into(
                batch.data(),
                batch.spans(),
                &mut batch_counters,
                &mut batch_scratch,
                &mut batch_verdicts,
            );
        }
        assert_eq!(
            batch_verdicts, per_frame,
            "batched vs per-frame verdicts, batches of {batch_len}"
        );
        assert_eq!(
            batch_counters, counters,
            "batched vs per-frame counters, batches of {batch_len}"
        );
    }
}

proptest! {
    /// Invariants 1 + 2: compiled ensemble == `predict` under the full
    /// majority vote, and still == `predict` under the sound early exit
    /// (which additionally must never disagree with the full vote).
    #[test]
    fn compiled_ensemble_equals_reference_predict(
        width in 1usize..=2,
        rows in pvec((pvec(any::<u8>(), 2usize), any::<bool>()), 1..48),
        trees in 1usize..=5,
        depth in 1usize..=4,
        bootstrap in any::<bool>(),
        max_features_sel in 0usize..3,
        seed in any::<u64>(),
    ) {
        let forest = fit_forest(width, &rows, trees, depth, bootstrap, max_features_sel, seed);
        let keys = probe_keys(width, &rows);
        let expect: Vec<usize> = keys.iter().map(|k| forest.predict(k)).collect();

        let full = deploy(width, &forest, None);
        assert_paths_match_reference(&full, &keys, &expect);

        let sound = EarlyExit::sound_majority(trees);
        for (key, &class) in keys.iter().zip(&expect) {
            prop_assert_eq!(
                forest.predict_early_exit(key, sound),
                class,
                "sound exit flipped the full vote for key {:?}",
                key
            );
        }
        let exited = deploy(width, &forest, Some(sound));
        assert_paths_match_reference(&exited, &keys, &expect);
    }

    /// Invariant 3: for arbitrary `(min_votes, margin)` exits — including
    /// aggressive ones that legitimately disagree with the full majority —
    /// the pipeline equals `predict_early_exit` with the same rule.
    #[test]
    fn early_exit_pipeline_equals_reference_early_exit(
        rows in pvec((pvec(any::<u8>(), 2usize), any::<bool>()), 1..48),
        trees in 1usize..=5,
        depth in 1usize..=4,
        bootstrap in any::<bool>(),
        seed in any::<u64>(),
        min_votes in 1usize..=5,
        margin in 1usize..=5,
    ) {
        let forest = fit_forest(1, &rows, trees, depth, bootstrap, 0, seed);
        let exit = EarlyExit { min_votes, margin };
        let keys = probe_keys(1, &rows);
        let expect: Vec<usize> = keys
            .iter()
            .map(|k| forest.predict_early_exit(k, exit))
            .collect();
        let pipeline = deploy(1, &forest, Some(exit));
        assert_paths_match_reference(&pipeline, &keys, &expect);
    }
}

/// A forest's trees match on the same selected bytes, so the batched
/// walker gathers one key per parsed frame however many trees vote: five
/// trees under the sound early exit look a frame up three to five times
/// and build its key once.
#[test]
fn a_shared_layout_forest_gathers_one_key_per_frame() {
    let rows: RawRows = (0..=255u8)
        .map(|b| (vec![b, b.wrapping_mul(89)], b % 3 == 0 || b > 200))
        .collect();
    let forest = fit_forest(2, &rows, 5, 4, true, 1, 11);
    assert_eq!(forest.trees().len(), 5);
    let pipeline = deploy(2, &forest, Some(EarlyExit::sound_majority(5)));
    let keys = probe_keys(2, &rows);
    let expect: Vec<usize> = keys.iter().map(|k| forest.predict(k)).collect();
    assert_paths_match_reference(&pipeline, &keys, &expect);

    let mut arena = FrameArena::new(keys.len() * 2);
    for key in &keys {
        arena.push(key);
    }
    let batch = arena.seal_batch();
    let mut counters = SwitchCounters::default();
    let mut scratch = BatchScratch::new();
    let mut verdicts = Vec::new();
    pipeline.process_batch_into(
        batch.data(),
        batch.spans(),
        &mut counters,
        &mut scratch,
        &mut verdicts,
    );
    let frames = keys.len() as u64;
    let lookups: u64 = counters.stages.iter().map(|(hit, miss)| hit + miss).sum();
    assert!(
        lookups >= 3 * frames,
        "{lookups} lookups of {frames} frames"
    );
    assert_eq!(counters.parser_rejected, 0);
    assert_eq!(scratch.keys_built(), frames);
}
