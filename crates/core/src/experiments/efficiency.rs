//! Experiments F1 (accuracy vs k), F2 (rule count vs accuracy), F3
//! (data-plane resource usage) and F8 (selection-strategy ablation).

use crate::baselines::Detector;
use crate::config::GuardConfig;
use crate::experiments::ExperimentContext;
use crate::report::{num3, yes_no, TextTable};
use p4guard_features::select::SelectionStrategy;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One point of the F1 k-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KPoint {
    /// Number of selected fields.
    pub k: usize,
    /// F1 with learned (saliency) selection.
    pub f1_learned: f64,
    /// Accuracy with learned selection.
    pub accuracy_learned: f64,
    /// F1 with random selection (same k).
    pub f1_random: f64,
    /// Compiled entries with learned selection.
    pub entries_learned: usize,
}

/// Result of F1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KSweep {
    /// Sweep points in increasing k.
    pub points: Vec<KPoint>,
}

/// Runs F1 over `ks`: a learned- and a random-selection guard per k, each
/// selection's sweep trained in parallel.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f1(lab: &ExperimentContext, ks: &[usize]) -> KSweep {
    let sweep_with = |strategy| {
        let at = |&k| GuardConfig {
            k,
            strategy,
            ..lab.config.clone()
        };
        lab.guards(&ks.iter().map(at).collect::<Vec<_>>())
    };
    let learned = sweep_with(SelectionStrategy::Saliency);
    let random = sweep_with(SelectionStrategy::Random);
    let points = ks.iter().zip(&learned).zip(&random).map(|((&k, l), r)| {
        let lm = l.evaluate(&lab.test);
        KPoint {
            k,
            f1_learned: lm.f1,
            accuracy_learned: lm.accuracy,
            f1_random: r.evaluate(&lab.test).f1,
            entries_learned: l.guard().compiled.stats.entries,
        }
    });
    KSweep {
        points: points.collect(),
    }
}

impl fmt::Display for KSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F1 — accuracy vs number of selected fields k")?;
        let table = TextTable::of(
            &self.points,
            &[
                ("k", |p| p.k.to_string()),
                ("F1 (learned)", |p| num3(p.f1_learned)),
                ("acc (learned)", |p| num3(p.accuracy_learned)),
                ("F1 (random)", |p| num3(p.f1_random)),
                ("entries", |p| p.entries_learned.to_string()),
            ],
        );
        write!(f, "{table}")
    }
}

/// One point of the F2 depth sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthPoint {
    /// Tree depth limit.
    pub max_depth: usize,
    /// Compiled ternary entries.
    pub entries: usize,
    /// Tree leaves.
    pub leaves: usize,
    /// Rule-set F1 on the test split.
    pub f1: f64,
}

/// Result of F2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RulesTradeoff {
    /// Sweep points in increasing depth.
    pub points: Vec<DepthPoint>,
}

/// Runs F2 over `depths`.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f2(lab: &ExperimentContext, depths: &[usize]) -> RulesTradeoff {
    let points = lab.sweep_rows(
        depths,
        |&max_depth| lab.config_at_depth(max_depth),
        |&max_depth, g| DepthPoint {
            max_depth,
            entries: g.guard().compiled.stats.entries,
            leaves: g.guard().tree.leaf_count(),
            f1: g.evaluate(&lab.test).f1,
        },
    );
    RulesTradeoff { points }
}

impl fmt::Display for RulesTradeoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F2 — rule count vs accuracy trade-off (tree depth sweep)"
        )?;
        let table = TextTable::of(
            &self.points,
            &[
                ("max depth", |p| p.max_depth.to_string()),
                ("leaves", |p| p.leaves.to_string()),
                ("entries", |p| p.entries.to_string()),
                ("F1", |p| num3(p.f1)),
            ],
        );
        write!(f, "{table}")
    }
}

/// One method's resource row in F3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRow {
    /// Method name.
    pub name: String,
    /// Deployable in the data plane.
    pub deployable: bool,
    /// Table entries.
    pub entries: usize,
    /// Match-key bits.
    pub key_bits: usize,
    /// Memory bits.
    pub memory_bits: usize,
    /// Test-split F1 (context for the cost).
    pub f1: f64,
}

/// Result of F3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceComparison {
    /// One row per method.
    pub rows: Vec<ResourceRow>,
}

/// Runs F3: resource usage of each deployable method.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f3(lab: &ExperimentContext) -> ResourceComparison {
    let row_of = |d: &dyn Detector| {
        let cost = d.data_plane_cost();
        ResourceRow {
            name: d.name().to_owned(),
            deployable: cost.deployable,
            entries: cost.entries,
            key_bits: cost.key_bits,
            memory_bits: cost.memory_bits,
            f1: d.evaluate(&lab.test).f1,
        }
    };
    let guard = lab.guard(&lab.config);
    let two_stage = row_of(&*guard);
    // The same guard deployed on a range-capable table: one entry per
    // attack tree path instead of a prefix expansion.
    let g = guard.guard();
    let attack = g.config.compile.compile_class;
    let paths = g.tree.paths().iter().filter(|p| p.class == attack).count();
    let key_bits = g.compiled.stats.key_width * 8;
    let range_table = ResourceRow {
        name: "two-stage (range table)".into(),
        deployable: true,
        entries: paths,
        key_bits,
        // Range entries store low and high bounds: 2 × key bits each.
        memory_bits: paths * key_bits * 2,
        f1: two_stage.f1,
    };
    ResourceComparison {
        rows: vec![
            two_stage,
            range_table,
            row_of(lab.all_bytes_tree()),
            row_of(lab.five_tuple()),
        ],
    }
}

impl fmt::Display for ResourceComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F3 — data-plane resource usage")?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("method", |r| r.name.clone()),
                ("deployable", |r| yes_no(r.deployable)),
                ("entries", |r| r.entries.to_string()),
                ("key bits", |r| r.key_bits.to_string()),
                ("memory bits", |r| r.memory_bits.to_string()),
                ("F1", |r| num3(r.f1)),
            ],
        );
        write!(f, "{table}")
    }
}

/// One strategy's row in F8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Strategy name.
    pub strategy: String,
    /// Rule-set F1.
    pub f1: f64,
    /// Rule-set accuracy.
    pub accuracy: f64,
    /// Compiled entries.
    pub entries: usize,
}

/// Result of F8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionAblation {
    /// Fixed k the ablation ran at.
    pub k: usize,
    /// One row per strategy.
    pub rows: Vec<AblationRow>,
}

/// Runs F8: every selection strategy at the profile's `k`.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f8(lab: &ExperimentContext) -> SelectionAblation {
    let with = |&strategy: &SelectionStrategy| GuardConfig {
        strategy,
        ..lab.config.clone()
    };
    let rows = lab.sweep_rows(&SelectionStrategy::ALL, with, |strategy, g| {
        let m = g.evaluate(&lab.test);
        AblationRow {
            strategy: strategy.to_string(),
            f1: m.f1,
            accuracy: m.accuracy,
            entries: g.guard().compiled.stats.entries,
        }
    });
    SelectionAblation {
        k: lab.config.k,
        rows,
    }
}

impl fmt::Display for SelectionAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F8 — selection-strategy ablation at k = {}", self.k)?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("strategy", |r| r.strategy.clone()),
                ("F1", |r| num3(r.f1)),
                ("accuracy", |r| num3(r.accuracy)),
                ("entries", |r| r.entries.to_string()),
            ],
        );
        write!(f, "{table}")
    }
}
