//! Random-forest induction and per-tree ternary compilation.
//!
//! A [`RandomForest`] is an ensemble of [`DecisionTree`]s fitted with
//! bootstrap bagging (each tree trains on rows resampled with
//! replacement) and per-split feature subsampling (each split search only
//! considers a random candidate subset), both deterministic from
//! [`ForestConfig::seed`]. The ensemble verdict is a majority vote over
//! per-tree class verdicts, with an optional pForest-style
//! certainty-based [`EarlyExit`]: once at least `min_votes` trees have
//! voted and the leading class holds a lead of at least `margin`, the
//! remaining trees are skipped.
//!
//! Compilation reuses [`compile_tree`] per tree, producing one
//! [`RuleSet`] *stage* per tree ([`CompiledForest`]). A tree whose every
//! leaf predicts benign compiles to an **empty** ruleset; the stage is
//! still materialized and still votes (benign, by default-miss) — see
//! [`CompiledForest::stages`]. Dropping such a stage would silently
//! shrink the electorate and flip close votes.

use crate::compile::{compile_tree, CompileConfig, CompiledRules, TooManyEntries};
use crate::ruleset::RuleSet;
use crate::tree::{DecisionTree, TreeConfig};
use serde::{Deserialize, Serialize};

/// Forest-induction hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub trees: usize,
    /// Per-tree induction parameters.
    pub tree: TreeConfig,
    /// Candidate features considered per split (`None` = all features).
    pub max_features: Option<usize>,
    /// Bootstrap-resample rows per tree (bagging). With `false` every
    /// tree sees the full dataset, so a 1-tree forest with
    /// `max_features: None` is exactly the plain CART tree.
    pub bootstrap: bool,
    /// Seed all per-tree randomness derives from.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            trees: 3,
            tree: TreeConfig::default(),
            max_features: None,
            bootstrap: true,
            seed: 0x1337,
        }
    }
}

/// pForest-style certainty-based early exit for the sequential vote.
///
/// Trees vote in stage order. After each vote, if at least `min_votes`
/// trees have voted and the absolute lead `|attack − benign|` is at least
/// `margin`, voting stops and the current leader wins. The exit is part
/// of the verdict *semantics* — per-frame and batched evaluation apply
/// the identical rule, so they stay bit-identical; what the batched hot
/// path additionally buys is skipping whole per-tree table lookups for
/// frames that already exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EarlyExit {
    /// Minimum number of votes cast before an exit is considered.
    pub min_votes: usize,
    /// Required absolute lead of the winning class to exit.
    pub margin: usize,
}

impl EarlyExit {
    /// Returns `true` when voting may stop under this policy.
    pub fn decided(&self, attack: usize, benign: usize) -> bool {
        attack + benign >= self.min_votes && attack.abs_diff(benign) >= self.margin
    }

    /// The strictest exit that can never flip the full majority verdict
    /// of a `trees`-member ensemble: `min_votes = margin = trees/2 + 1`.
    /// An exit fires only once the leader's lead exceeds every vote still
    /// outstanding (`trees − min_votes < margin`), so skipping the
    /// remaining trees is a pure lookup saving.
    pub fn sound_majority(trees: usize) -> EarlyExit {
        let quorum = trees / 2 + 1;
        EarlyExit {
            min_votes: quorum,
            margin: quorum,
        }
    }
}

/// Final majority verdict over vote counts: attack (class 1) iff strictly
/// more attack than benign votes. Ties fall to benign, consistent with
/// benign being the data plane's default (miss) action.
pub fn majority(attack: usize, benign: usize) -> usize {
    usize::from(attack > benign)
}

/// SplitMix64 — tiny deterministic generator, no external dependency, so
/// forest induction is reproducible from the seed alone.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws `k` distinct feature indices from `0..n`, sorted ascending so
/// equal-gain ties in the split search break deterministically.
fn sample_features(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n).max(1);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below(n - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.sort_unstable();
    pool
}

/// A fitted random forest over byte features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    importance: Vec<f64>,
    num_features: usize,
    config: ForestConfig,
}

impl RandomForest {
    /// Fits `config.trees` trees on row-major byte `data`, each on a
    /// bootstrap resample (when `config.bootstrap`) with per-split
    /// feature subsampling (when `config.max_features` narrows the set).
    /// Deterministic: the same inputs and seed produce the same forest.
    ///
    /// Per-tree importance (training accuracy on the *full* dataset) is
    /// computed at fit time; it orders trees for budget-driven dropping —
    /// see [`RandomForest::tree_importance`].
    ///
    /// # Panics
    ///
    /// Panics if `config.trees == 0` or the dataset is invalid (see
    /// [`DecisionTree::fit_sampled`]).
    pub fn fit(num_features: usize, data: &[u8], labels: &[usize], config: ForestConfig) -> Self {
        assert!(config.trees > 0, "a forest needs at least one tree");
        assert!(!labels.is_empty(), "cannot fit on an empty dataset");
        let rows = labels.len();
        let mut trees = Vec::with_capacity(config.trees);
        for t in 0..config.trees {
            let mut rng = SplitMix64::new(
                config
                    .seed
                    .wrapping_add((t as u64 + 1).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95)),
            );
            let indices: Vec<u32> = if config.bootstrap {
                (0..rows).map(|_| rng.below(rows) as u32).collect()
            } else {
                (0..rows as u32).collect()
            };
            let tree = match config.max_features {
                Some(k) if k < num_features => {
                    let mut sampler = |n: usize| sample_features(&mut rng, n, k);
                    DecisionTree::fit_sampled(
                        num_features,
                        data,
                        labels,
                        indices,
                        config.tree,
                        Some(&mut sampler),
                    )
                }
                _ => DecisionTree::fit_sampled(
                    num_features,
                    data,
                    labels,
                    indices,
                    config.tree,
                    None,
                ),
            };
            trees.push(tree);
        }
        let importance = trees
            .iter()
            .map(|tree| {
                let correct = data
                    .chunks_exact(num_features)
                    .zip(labels)
                    .filter(|(row, &label)| tree.predict(row) == label)
                    .count();
                correct as f64 / rows as f64
            })
            .collect();
        RandomForest {
            trees,
            importance,
            num_features,
            config,
        }
    }

    /// Assembles a forest from pre-fitted trees (synthetic pipelines and
    /// tests). Importance defaults to uniform.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or the trees disagree on feature count.
    pub fn from_trees(trees: Vec<DecisionTree>) -> Self {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        let num_features = trees[0].num_features();
        assert!(
            trees.iter().all(|t| t.num_features() == num_features),
            "all trees must share one feature count"
        );
        let config = ForestConfig {
            trees: trees.len(),
            tree: *trees[0].config(),
            ..ForestConfig::default()
        };
        let importance = vec![1.0; trees.len()];
        RandomForest {
            trees,
            importance,
            num_features,
            config,
        }
    }

    /// The member trees, in vote (stage) order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Per-tree importance, aligned with [`RandomForest::trees`]. The
    /// budgeter drops the *lowest*-importance trees first when a forest
    /// exceeds its table allocation.
    pub fn tree_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of features each tree consumes.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The induction configuration.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Per-tree class votes for one sample as `(attack, benign)` counts.
    pub fn votes(&self, row: &[u8]) -> (usize, usize) {
        let attack = self.trees.iter().filter(|t| t.predict(row) == 1).count();
        (attack, self.trees.len() - attack)
    }

    /// Full majority-vote prediction (no early exit).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != num_features`.
    pub fn predict(&self, row: &[u8]) -> usize {
        let (attack, benign) = self.votes(row);
        majority(attack, benign)
    }

    /// Sequential prediction under an early-exit policy: trees vote in
    /// stage order and voting stops as soon as `exit` is satisfied. This
    /// is the reference semantics the compiled data-plane ensemble must
    /// reproduce bit-for-bit.
    pub fn predict_early_exit(&self, row: &[u8], exit: EarlyExit) -> usize {
        let (mut attack, mut benign) = (0usize, 0usize);
        for tree in &self.trees {
            if tree.predict(row) == 1 {
                attack += 1;
            } else {
                benign += 1;
            }
            if exit.decided(attack, benign) {
                break;
            }
        }
        majority(attack, benign)
    }

    /// Predicts a batch of row-major samples by full majority vote.
    pub fn predict_batch(&self, data: &[u8]) -> Vec<usize> {
        data.chunks_exact(self.num_features)
            .map(|row| self.predict(row))
            .collect()
    }

    /// A new forest keeping only the trees at `keep` (in the given
    /// order), carrying their importance along — the budgeter's
    /// tree-dropping primitive.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or contains an out-of-range index.
    pub fn subset(&self, keep: &[usize]) -> RandomForest {
        assert!(!keep.is_empty(), "a forest needs at least one tree");
        let trees: Vec<DecisionTree> = keep.iter().map(|&i| self.trees[i].clone()).collect();
        let importance: Vec<f64> = keep.iter().map(|&i| self.importance[i]).collect();
        let config = ForestConfig {
            trees: trees.len(),
            ..self.config
        };
        RandomForest {
            trees,
            importance,
            num_features: self.num_features,
            config,
        }
    }

    /// Compiles every tree to its own ternary ruleset stage.
    ///
    /// # Errors
    ///
    /// Returns [`TooManyEntries`] if any single tree blows the per-stage
    /// entry budget.
    pub fn compile(&self, config: &CompileConfig) -> Result<CompiledForest, TooManyEntries> {
        compile_forest(self, config)
    }
}

/// A forest compiled stage-per-tree.
#[derive(Debug, Clone)]
pub struct CompiledForest {
    /// One compiled ruleset per tree, in vote order.
    ///
    /// A benign-only tree (every leaf predicts class 0) compiles to an
    /// *empty* ruleset — [`compile_tree`] only expands attack-class
    /// paths. The stage is kept anyway: at lookup time an empty stage
    /// misses every key and therefore votes benign, which is exactly the
    /// tree's verdict. Dropping it would shrink the electorate and flip
    /// votes that the benign tree should have tied or won.
    pub stages: Vec<CompiledRules>,
}

impl CompiledForest {
    /// Number of per-tree stages (equals the forest's tree count, even
    /// when some stages are empty).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Borrows every per-tree ruleset, in vote order.
    pub fn rulesets(&self) -> Vec<&RuleSet> {
        self.stages.iter().map(|s| &s.ternary).collect()
    }

    /// Majority-vote classification through the *compiled* stages: each
    /// stage votes attack iff its ternary ruleset matches `key` with
    /// class 1 (a miss is a benign vote — see [`CompiledForest::stages`]).
    /// This mirrors the data plane's vote semantics without a switch.
    pub fn classify(&self, key: &[u8]) -> usize {
        let attack = self
            .stages
            .iter()
            .filter(|s| s.ternary.classify(key) == 1)
            .count();
        majority(attack, self.stages.len() - attack)
    }
}

/// Compiles each tree of `forest` with [`compile_tree`], producing one
/// ruleset stage per tree. Benign-only trees yield empty stages that are
/// deliberately retained (see [`CompiledForest::stages`]).
///
/// # Errors
///
/// Returns [`TooManyEntries`] if any single tree exceeds the per-stage
/// entry budget in `config`.
pub fn compile_forest(
    forest: &RandomForest,
    config: &CompileConfig,
) -> Result<CompiledForest, TooManyEntries> {
    let stages = forest
        .trees()
        .iter()
        .map(|tree| compile_tree(tree, config))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CompiledForest { stages })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-feature data: attack iff byte >= 100, with some redundancy so
    /// bootstrap resamples still see both classes.
    fn threshold_data() -> (Vec<u8>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for rep in 0..4 {
            for v in (0..=250u16).step_by(5) {
                data.push((v as u8).wrapping_add(rep % 2));
                labels.push(usize::from(v >= 100));
            }
        }
        (data, labels)
    }

    #[test]
    fn fit_is_seed_deterministic() {
        let (data, labels) = threshold_data();
        let config = ForestConfig {
            trees: 5,
            max_features: Some(1),
            ..ForestConfig::default()
        };
        let a = RandomForest::fit(1, &data, &labels, config);
        let b = RandomForest::fit(1, &data, &labels, config);
        assert_eq!(a, b);
        let c = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                seed: config.seed + 1,
                ..config
            },
        );
        assert_ne!(a, c, "a different seed must change some bootstrap");
    }

    #[test]
    fn single_tree_without_bootstrap_equals_cart() {
        let (data, labels) = threshold_data();
        let forest = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                trees: 1,
                bootstrap: false,
                max_features: None,
                ..ForestConfig::default()
            },
        );
        let tree = DecisionTree::fit(1, &data, &labels, TreeConfig::default());
        assert_eq!(forest.trees()[0], tree);
        for v in 0..=255u8 {
            assert_eq!(forest.predict(&[v]), tree.predict(&[v]));
        }
    }

    #[test]
    fn majority_vote_learns_the_threshold() {
        let (data, labels) = threshold_data();
        let forest = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.predict(&[0]), 0);
        assert_eq!(forest.predict(&[250]), 1);
        let preds = forest.predict_batch(&data);
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(
            correct as f64 / labels.len() as f64 > 0.95,
            "forest should fit the training threshold"
        );
    }

    #[test]
    fn early_exit_with_unreachable_margin_equals_full_vote() {
        let (data, labels) = threshold_data();
        let forest = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
        );
        let never = EarlyExit {
            min_votes: 1,
            margin: 6,
        };
        for v in 0..=255u8 {
            assert_eq!(forest.predict_early_exit(&[v], never), forest.predict(&[v]));
        }
    }

    #[test]
    fn early_exit_matches_sequential_reference() {
        let (data, labels) = threshold_data();
        let forest = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
        );
        let exit = EarlyExit {
            min_votes: 2,
            margin: 2,
        };
        for v in 0..=255u8 {
            // Reference: count votes by hand with the same stopping rule.
            let (mut attack, mut benign) = (0usize, 0usize);
            for tree in forest.trees() {
                if tree.predict(&[v]) == 1 {
                    attack += 1;
                } else {
                    benign += 1;
                }
                if exit.decided(attack, benign) {
                    break;
                }
            }
            assert_eq!(
                forest.predict_early_exit(&[v], exit),
                majority(attack, benign)
            );
        }
    }

    #[test]
    fn importance_orders_trees_and_subset_keeps_them() {
        let (data, labels) = threshold_data();
        let forest = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.tree_importance().len(), 5);
        assert!(forest
            .tree_importance()
            .iter()
            .all(|&a| (0.0..=1.0).contains(&a)));
        let kept = forest.subset(&[0, 2, 4]);
        assert_eq!(kept.trees().len(), 3);
        assert_eq!(kept.trees()[1], forest.trees()[2]);
        assert_eq!(kept.tree_importance()[1], forest.tree_importance()[2]);
        assert_eq!(kept.config().trees, 3);
    }

    /// Satellite regression: a benign-only tree compiles to an empty
    /// stage that is retained, and the ensemble can still outvote it to
    /// "attack". No silent stage drop.
    #[test]
    fn benign_only_tree_keeps_its_stage_and_ensemble_still_attacks() {
        let attack_data: Vec<u8> = (0..=255).collect();
        let attack_labels: Vec<usize> = (0..=255).map(|v| usize::from(v >= 100)).collect();
        let attack_tree = DecisionTree::fit(1, &attack_data, &attack_labels, TreeConfig::default());
        let benign_tree = DecisionTree::fit(1, &[1, 2, 3, 4], &[0, 0, 0, 0], TreeConfig::default());
        let forest = RandomForest::from_trees(vec![benign_tree, attack_tree.clone(), attack_tree]);
        assert_eq!(forest.predict(&[200]), 1, "2-of-3 attack votes win");
        assert_eq!(forest.predict(&[50]), 0);
        let compiled = forest.compile(&CompileConfig::default()).expect("compiles");
        assert_eq!(compiled.stage_count(), 3, "empty stage must not be dropped");
        assert!(compiled.stages[0].ternary.is_empty());
        assert!(!compiled.stages[1].ternary.is_empty());
        assert_eq!(compiled.rulesets().len(), 3);
    }

    #[test]
    fn sound_majority_exit_never_flips_the_full_vote() {
        let (data, labels) = threshold_data();
        for trees in [1usize, 3, 4, 5, 9] {
            let forest = RandomForest::fit(
                1,
                &data,
                &labels,
                ForestConfig {
                    trees,
                    max_features: Some(1),
                    ..ForestConfig::default()
                },
            );
            let exit = EarlyExit::sound_majority(trees);
            assert_eq!(exit.min_votes, trees / 2 + 1);
            for v in 0..=255u8 {
                assert_eq!(
                    forest.predict_early_exit(&[v], exit),
                    forest.predict(&[v]),
                    "sound exit flipped the verdict at {v} with {trees} trees"
                );
            }
        }
    }

    #[test]
    fn compiled_classify_agrees_with_reference_predict() {
        let (data, labels) = threshold_data();
        let forest = RandomForest::fit(
            1,
            &data,
            &labels,
            ForestConfig {
                trees: 5,
                ..ForestConfig::default()
            },
        );
        let compiled = forest.compile(&CompileConfig::default()).expect("compiles");
        for v in 0..=255u8 {
            assert_eq!(compiled.classify(&[v]), forest.predict(&[v]));
        }
    }

    #[test]
    fn feature_subsampling_restricts_split_candidates() {
        // Feature 0 separates perfectly; feature 1 is noise. A sampler
        // pinned to feature 1 must not discover feature 0's split.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..256usize {
            data.push(i as u8);
            data.push((i * 37 % 251) as u8);
            labels.push(usize::from(i >= 128));
        }
        let all = DecisionTree::fit_sampled(
            2,
            &data,
            &labels,
            (0..256u32).collect(),
            TreeConfig::default(),
            None,
        );
        assert_eq!(
            all,
            DecisionTree::fit(2, &data, &labels, TreeConfig::default())
        );
        let mut pin = |_n: usize| vec![1usize];
        let noisy = DecisionTree::fit_sampled(
            2,
            &data,
            &labels,
            (0..256u32).collect(),
            TreeConfig::default(),
            Some(&mut pin),
        );
        let exact = (0..256usize)
            .filter(|&i| noisy.predict(&[i as u8, (i * 37 % 251) as u8]) == usize::from(i >= 128))
            .count();
        let full = (0..256usize)
            .filter(|&i| all.predict(&[i as u8, (i * 37 % 251) as u8]) == usize::from(i >= 128))
            .count();
        assert_eq!(full, 256, "unrestricted tree nails the clean feature");
        assert!(exact < 256, "feature-1-only tree cannot use feature 0");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_tree_forest_panics() {
        let _ = RandomForest::fit(
            1,
            &[1, 2],
            &[0, 1],
            ForestConfig {
                trees: 0,
                ..ForestConfig::default()
            },
        );
    }
}
