//! F16-forest: the accuracy-vs-table-entries frontier of in-network
//! random forests against the single-tree baseline.
//!
//! The paper's pipeline distills one decision tree into one ternary
//! stage. This experiment compiles a whole *forest* — one ternary stage
//! per tree feeding a majority-vote stage — and charts what the extra
//! table space buys: for each task (the mixed and smart-home scenarios)
//! and each tree-depth limit, forests of 1/3/5/9 trees are fitted on the
//! guard's selected bytes, compiled stage-per-tree, deployed to a
//! vote-mode switch, and scored on the held-out suffix. The 1-tree point
//! (no bootstrap, all features) is exactly the plain CART baseline, so
//! every frontier contains its own baseline. Table cost is read from
//! [`SwitchResources`] — the per-tree `TableUsage` rollup the fleet
//! budgeter admits against — and each forest is put through
//! [`TableBudgeter::admit_forest`]/[`TableBudgeter::trim_forest`] to show
//! whole-tree dropping under a fixed budget. A live phase serves batched
//! frames through a gateway with a sound early exit (early-decided votes
//! are counted, verdicts provably unchanged) and lands a one-tree delta
//! republish mid-serve, which must re-lower exactly the edited stage.

use crate::baselines::GuardDetector;
use crate::config::GuardConfig;
use crate::experiments::live;
use crate::experiments::ExperimentContext;
use crate::report::{yes_no, TextTable};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::vote::VoteStage;
use p4guard_dataplane::AclLayout;
use p4guard_features::extract::ByteDataset;
use p4guard_fleet::{BudgetConfig, TableBudgeter, TenantShare};
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_nn::binary_metrics;
use p4guard_packet::trace::Trace;
use p4guard_rules::forest::{CompiledForest, EarlyExit, ForestConfig, RandomForest};
use p4guard_rules::tree::TreeConfig;
use p4guard_rules::RuleSet;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::ControlFlow;

#[allow(unused_imports)] // doc link target
use p4guard_dataplane::resources::SwitchResources;

/// One point on a task's frontier: a forest configuration, its held-out
/// quality, and its table cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestPoint {
    /// Trees in the ensemble (1 = the CART baseline, no bootstrap).
    pub trees: usize,
    /// Per-tree depth limit.
    pub depth: usize,
    /// Held-out accuracy of the compiled ensemble (majority vote over
    /// per-stage ternary verdicts — the data plane's semantics).
    pub accuracy: f64,
    /// Held-out F1 of the compiled ensemble.
    pub f1: f64,
    /// Installed ternary entries summed across the per-tree stages.
    pub entries: usize,
    /// Minimized entries summed across stages — what the budgeter
    /// charges.
    pub entries_minimized: usize,
    /// Minimized TCAM bits summed across stages.
    pub tcam_bits_minimized: usize,
    /// Whether the whole forest fit the task's TCAM budget.
    pub admitted: bool,
}

/// Outcome of squeezing the largest forest through the budgeter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrimDemo {
    /// Trees submitted.
    pub submitted: usize,
    /// Trees surviving the budget.
    pub kept: usize,
    /// Trees dropped (lowest importance first).
    pub dropped: usize,
    /// Minimized TCAM bits of the surviving stages.
    pub required_bits: usize,
}

/// One task's frontier: every (trees × depth) point plus the budgeter
/// verdicts against a fixed TCAM budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskFrontier {
    /// Task label.
    pub task: String,
    /// Frontier points, depth-major then size-ascending; `trees == 1`
    /// rows are the single-tree baseline.
    pub points: Vec<ForestPoint>,
    /// The TCAM budget forests were admitted against: 3× the largest
    /// single-tree baseline's minimized bits.
    pub budget_bits: usize,
    /// Whole-tree trimming of the largest forest under that budget.
    pub trim: TrimDemo,
    /// Some multi-tree forest strictly beats the same-depth baseline's
    /// accuracy at ≤ 3× its minimized entries.
    pub gate_beats_baseline: bool,
    /// Some multi-tree forest is at least as accurate as the same-depth
    /// baseline.
    pub gate_matches_baseline: bool,
    /// The task's best multi-tree forest fits the budget.
    pub gate_within_budget: bool,
}

/// The live batched-gateway phase: a forest pipeline with a sound early
/// exit serving real frames while a one-tree delta republish lands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LivePhase {
    /// Trees in the served forest.
    pub trees: usize,
    /// Depth limit of the served forest.
    pub depth: usize,
    /// Frames dispatched (batched).
    pub frames: u64,
    /// Frames whose vote early-exited before the last per-tree stage,
    /// skipping the remaining table lookups.
    pub vote_exits: u64,
    /// Stages re-lowered by the mid-serve one-tree republish (must be 1).
    pub delta_recompiled: usize,
    /// Stages shared unchanged across that republish (must be trees − 1).
    pub delta_shared: usize,
    /// Every dispatched frame got exactly one verdict.
    pub conserved: bool,
}

/// The F16-forest report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestReport {
    /// Scenario seed.
    pub seed: u64,
    /// Per-task frontiers.
    pub tasks: Vec<TaskFrontier>,
    /// Any task's gate: a forest strictly beats its single-tree baseline
    /// at ≤ 3× the baseline's minimized entries.
    pub gate_beats_baseline: bool,
    /// Any task's gate: a forest matches or beats its baseline.
    pub gate_matches_baseline: bool,
    /// Any task's gate: its best forest fits the task's budget.
    pub gate_within_budget: bool,
    /// The live batched phase.
    pub live: LivePhase,
}

impl fmt::Display for ForestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F16-forest (seed {})", self.seed)?;
        let points = self
            .tasks
            .iter()
            .flat_map(|t| t.points.iter().map(move |p| (t, p)));
        let table = TextTable::of(
            points,
            &[
                ("task", |(t, _)| t.task.clone()),
                ("trees", |(_, p)| p.trees.to_string()),
                ("depth", |(_, p)| p.depth.to_string()),
                ("accuracy", |(_, p)| format!("{:.4}", p.accuracy)),
                ("f1", |(_, p)| format!("{:.4}", p.f1)),
                ("entries", |(_, p)| p.entries.to_string()),
                ("minimized", |(_, p)| p.entries_minimized.to_string()),
                ("tcam bits", |(_, p)| p.tcam_bits_minimized.to_string()),
                ("admitted", |(_, p)| yes_no(p.admitted)),
            ],
        );
        write!(f, "{table}")?;
        for t in &self.tasks {
            writeln!(
                f,
                "{}: budget {} bits, trim {} -> {} trees ({} dropped), \
                 beats baseline: {}, within budget: {}",
                t.task,
                t.budget_bits,
                t.trim.submitted,
                t.trim.kept,
                t.trim.dropped,
                yes_no(t.gate_beats_baseline),
                yes_no(t.gate_within_budget)
            )?;
        }
        writeln!(
            f,
            "live: {} frames through {} trees @ depth {}, {} early exits, \
             delta republish re-lowered {}/{} stages, conserved: {}",
            self.live.frames,
            self.live.trees,
            self.live.depth,
            self.live.vote_exits,
            self.live.delta_recompiled,
            self.live.delta_recompiled + self.live.delta_shared,
            if self.live.conserved { "yes" } else { "NO" }
        )
    }
}

/// The forest configuration for one frontier point. `trees == 1` turns
/// bagging off and keeps the base tree parameters, making the point
/// exactly the plain CART baseline. Multi-tree points bag bootstrap
/// resamples of *regularized* trees (larger leaf minimum): a bootstrap
/// duplicates ~37% of rows, and unregularized trees spend their depth
/// memorizing that noise — which both costs accuracy and blows up the
/// ternary expansion. Per-split feature subsampling stays off here: the
/// guard has already distilled the window down to `k` informative bytes,
/// and hiding half of them per split consistently hurt on every task.
fn point_config(trees: usize, depth: usize, base: &GuardConfig) -> ForestConfig {
    ForestConfig {
        trees,
        tree: TreeConfig {
            max_depth: depth,
            min_samples_leaf: if trees > 1 {
                base.tree.min_samples_leaf.max(16)
            } else {
                base.tree.min_samples_leaf
            },
            min_samples_split: if trees > 1 {
                base.tree.min_samples_split.max(64)
            } else {
                base.tree.min_samples_split
            },
            ..base.tree
        },
        max_features: None,
        bootstrap: trees > 1,
        seed: base.seed ^ 0xf0_5e_57,
    }
}

/// Builds a vote-mode switch with one ternary stage per tree, installs
/// every per-tree ruleset, and returns the control plane. Empty stages
/// (benign-only trees) are installed too — they vote benign by
/// default-miss and must not be dropped. Every stage is sized for the
/// largest tree.
fn deploy_forest(
    window: usize,
    offsets: &[usize],
    compiled: &CompiledForest,
    exit: Option<EarlyExit>,
) -> ControlPlane {
    let rulesets = compiled.rulesets();
    let layout = AclLayout {
        window,
        offsets: offsets.to_vec(),
        capacity: rulesets.iter().map(|rs| rs.len()).max().unwrap_or(0).max(1),
    };
    let mut sw = layout.switch(
        "f16-forest",
        (0..rulesets.len()).map(|i| format!("tree{i}")),
    );
    sw.set_vote(Some(match exit {
        Some(e) => VoteStage::with_early_exit(e),
        None => VoteStage::majority(),
    }));
    let control = ControlPlane::new(sw);
    let trees: Vec<_> = (0..)
        .zip(rulesets)
        .map(|(i, rs)| (i, rs, Action::Drop))
        .collect();
    control
        .replace_rulesets(&trees)
        .expect("per-tree ruleset fits its own stage");
    control
}

/// Fits, compiles, deploys and scores one frontier point.
fn measure_point(
    trees: usize,
    depth: usize,
    base: &GuardConfig,
    train: &ByteDataset,
    test: &ByteDataset,
    offsets: &[usize],
) -> (ForestPoint, RandomForest, CompiledForest) {
    let forest = RandomForest::fit(
        train.window(),
        train.data(),
        train.labels(),
        point_config(trees, depth, base),
    );
    let compiled = forest
        .compile(&base.compile)
        .expect("forest compiles within the entry budget");
    let control = deploy_forest(base.window, offsets, &compiled, None);
    let resources = control.with_switch(|sw| sw.resources());
    let predicted: Vec<usize> = (0..test.len())
        .map(|i| compiled.classify(test.sample(i)))
        .collect();
    let metrics = binary_metrics(&predicted, test.labels());
    (
        ForestPoint {
            trees,
            depth,
            accuracy: metrics.accuracy,
            f1: metrics.f1,
            entries: resources.tcam_entries,
            entries_minimized: resources.tcam_entries_minimized,
            tcam_bits_minimized: resources.tcam_bits_minimized,
            admitted: false, // filled in once the task budget is known
        },
        forest,
        compiled,
    )
}

/// Runs one task's frontier and budgeter phase over the byte `offsets` the
/// task's guard selected, and returns the frontier with its most accurate
/// multi-tree forest.
fn task_frontier(
    task: &str,
    (train, test): (&Trace, &Trace),
    offsets: &[usize],
    config: &GuardConfig,
    sizes: &[usize],
    depths: &[usize],
) -> (TaskFrontier, RandomForest) {
    // The guard's training fixed the byte selection; forests are fitted on
    // the selected bytes with ground-truth labels, so the frontier
    // isolates the ensemble effect from the NN stages.
    let train_data = ByteDataset::from_trace(train, config.window).project(offsets);
    let test_data = ByteDataset::from_trace(test, config.window).project(offsets);
    let grid = depths
        .iter()
        .flat_map(|&depth| sizes.iter().map(move |&trees| (trees, depth)));
    let mut measured: Vec<(ForestPoint, RandomForest, CompiledForest)> = grid
        .map(|(trees, depth)| measure_point(trees, depth, config, &train_data, &test_data, offsets))
        .collect();

    // Budget: 3× the largest single-tree baseline's minimized bits — the
    // acceptance bar for "a forest is worth its table space".
    let baselines = measured.iter().filter(|(p, ..)| p.trees == 1);
    let budget_bits = 3 * baselines
        .map(|(p, ..)| p.tcam_bits_minimized)
        .max()
        .unwrap_or(1)
        .max(1);
    let budgeter = TableBudgeter::new(
        BudgetConfig {
            tcam_bits: budget_bits,
            sram_bits: 0,
        },
        vec![TenantShare::flat()],
    )
    .expect("single-tenant budget is feasible");
    for (point, _, compiled) in &mut measured {
        point.admitted = budgeter.admit_forest(0, &compiled.rulesets()).is_ok();
    }

    // Trim demo: squeeze the largest forest through the budget, dropping
    // whole lowest-importance trees.
    let multi_tree = || measured.iter().filter(|(p, ..)| p.trees > 1);
    let (largest, largest_forest, largest_compiled) = multi_tree()
        .max_by_key(|(p, ..)| p.tcam_bits_minimized)
        .expect("sizes contains a multi-tree forest");
    let trimmed = budgeter.trim_forest(
        0,
        &largest_compiled.rulesets(),
        largest_forest.tree_importance(),
    );
    let (kept, dropped, required_bits) = match trimmed {
        Ok(adm) => (adm.kept.len(), adm.dropped.len(), adm.required_bits),
        Err(_) => (0, largest.trees, 0),
    };
    let trim = TrimDemo {
        submitted: largest.trees,
        kept,
        dropped,
        required_bits,
    };

    // The most accurate multi-tree forest, the first one on a tie.
    let (best, best_forest, _) = multi_tree()
        .reduce(|best, m| {
            if m.0.accuracy > best.0.accuracy {
                m
            } else {
                best
            }
        })
        .expect("sizes contains a multi-tree forest");
    let baseline = |depth: usize| {
        let mut points = measured.iter().map(|(p, ..)| p);
        points
            .find(|p| p.trees == 1 && p.depth == depth)
            .expect("every depth has its 1-tree baseline")
    };
    let gate_beats_baseline = multi_tree().any(|(p, ..)| {
        let b = baseline(p.depth);
        p.accuracy > b.accuracy && p.entries_minimized <= 3 * b.entries_minimized
    });
    let gate_matches_baseline =
        multi_tree().any(|(p, ..)| p.accuracy >= baseline(p.depth).accuracy);
    let frontier = TaskFrontier {
        task: task.to_string(),
        points: measured.iter().map(|(p, ..)| p.clone()).collect(),
        budget_bits,
        trim,
        gate_beats_baseline,
        gate_matches_baseline,
        gate_within_budget: best.admitted,
    };
    (frontier, best_forest.clone())
}

/// Serves the mixed task's best forest through a 2-shard gateway on the
/// batched path with a sound early exit, landing a one-tree delta
/// republish mid-serve.
fn live_phase(
    config: &GuardConfig,
    forest: &RandomForest,
    offsets: &[usize],
    test: &Trace,
) -> LivePhase {
    let trees = forest.trees().len();
    let compiled = forest.compile(&config.compile).expect("forest compiles");
    let exit = EarlyExit::sound_majority(trees);
    let control = deploy_forest(config.window, offsets, &compiled, Some(exit));
    control.publish();
    let gw = Gateway::start(&control, GatewayConfig::with_shards(2));

    let batches = test.to_batches(64);
    let mid = batches.len() / 2;
    let mut served = 0;
    let mut delta_recompiled = 0;
    let mut delta_shared = 0;
    live::feed(&gw, batches.into_iter().map(|batch| [batch]), false, || {
        served += 1;
        if served == mid {
            // One-tree edit mid-serve: republish must re-lower exactly
            // the edited stage and share the other trees' compiled
            // lookups unchanged.
            let edited = one_tree_edit(compiled.rulesets()[0]);
            control
                .replace_ruleset(0, &edited, Action::Drop)
                .expect("edited tree fits");
            let report = control.publish();
            delta_recompiled = report.stages_recompiled;
            delta_shared = report.stages_shared;
        }
        ControlFlow::Continue(())
    });
    let snap = gw.finish();
    LivePhase {
        trees,
        depth: forest.config().tree.max_depth,
        frames: snap.offered,
        vote_exits: snap.vote_exits(),
        delta_recompiled,
        delta_shared,
        conserved: live::conserved(&snap),
    }
}

/// `stage` with its last entry removed (one leaf retrained away), or a
/// single synthetic attack entry when the stage is empty.
fn one_tree_edit(stage: &RuleSet) -> RuleSet {
    let mut edited = RuleSet::new(stage.key_width(), stage.default_class());
    if stage.is_empty() {
        edited.push(p4guard_rules::TernaryEntry::new(
            vec![0xEE; stage.key_width()],
            vec![0xff; stage.key_width()],
            1,
            1,
        ));
    } else {
        for e in stage.entries().iter().take(stage.len() - 1) {
            edited.push(e.clone());
        }
    }
    edited
}

/// Runs the F16-forest experiment over the mixed (the lab's) and
/// smart-home scenarios: the (sizes × depths) frontier per task, the
/// budgeter phase, and the live batched early-exit phase on the mixed
/// task's best forest.
///
/// # Panics
///
/// Panics if `sizes` lacks the single-tree baseline (1) or a multi-tree
/// forest, a scenario fails to generate, a guard fails to train, a forest
/// blows the per-stage entry budget, or the live gateway fails to drain.
pub fn run_f16_forest(lab: &ExperimentContext, sizes: &[usize], depths: &[usize]) -> ForestReport {
    let config = &lab.config;
    let offsets = lab.guard(config).guard().selection.offsets.clone();
    let (mixed, best_forest) = task_frontier(
        "mixed",
        (&lab.train, &lab.test),
        &offsets,
        config,
        sizes,
        depths,
    );
    let sh_trace = Scenario::smart_home_default(lab.seed ^ 0x5a)
        .generate()
        .expect("smart-home scenario generates");
    let (sh_train, sh_test) = split_temporal(&sh_trace, 0.6);
    let sh_guard = GuardDetector::train(config.clone(), &sh_train)
        .expect("guard trains on the smart-home scenario");
    let (smart_home, _) = task_frontier(
        "smart-home",
        (&sh_train, &sh_test),
        &sh_guard.guard().selection.offsets,
        config,
        sizes,
        depths,
    );

    let live = live_phase(config, &best_forest, &offsets, &lab.test);
    let tasks = vec![mixed, smart_home];
    ForestReport {
        seed: lab.seed,
        gate_beats_baseline: tasks.iter().any(|t| t.gate_beats_baseline),
        gate_matches_baseline: tasks.iter().any(|t| t.gate_matches_baseline),
        gate_within_budget: tasks.iter().any(|t| t.gate_within_budget),
        tasks,
        live,
    }
}
