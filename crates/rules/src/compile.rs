//! Tree → match-action rule compilation.
//!
//! Each attack-class root→leaf path becomes a conjunction of per-field byte
//! ranges; ranges are prefix-expanded and cross-multiplied into ternary
//! entries. The benign region is the data plane's default action, so only
//! attack paths consume table space — the firewall convention the paper's
//! efficiency numbers rely on.

use crate::ruleset::RuleSet;
use crate::ternary::{range_to_prefixes, TernaryEntry};
use crate::tree::{DecisionTree, TreePath};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileConfig {
    /// The class that receives explicit entries (1 = attack/drop).
    pub compile_class: usize,
    /// Abort if expansion would exceed this many entries.
    pub max_entries: usize,
    /// Run merge/shadow optimization after expansion.
    pub optimize: bool,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            compile_class: 1,
            max_entries: 100_000,
            optimize: true,
        }
    }
}

/// Error returned when compilation exceeds the entry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyEntries {
    /// The configured budget.
    pub budget: usize,
    /// Entries produced before aborting.
    pub reached: usize,
}

impl fmt::Display for TooManyEntries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule expansion exceeded the {}-entry budget (reached {})",
            self.budget, self.reached
        )
    }
}

impl Error for TooManyEntries {}

/// Compilation statistics (the data behind efficiency experiments F2/F3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Attack paths compiled.
    pub paths: usize,
    /// Ternary entries before optimization.
    pub entries_raw: usize,
    /// Ternary entries after optimization.
    pub entries: usize,
    /// Entries merged away.
    pub merged: usize,
    /// Shadowed entries removed.
    pub shadowed: usize,
    /// Key width in bytes.
    pub key_width: usize,
    /// Total TCAM bits of the final rule set.
    pub tcam_bits: usize,
}

/// The output of compilation: the installable ternary rule set and its
/// stats. A range-capable table needs no second copy: its entries are the
/// source tree's [`DecisionTree::paths`] of the compile class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledRules {
    /// Prefix-expanded ternary rules.
    pub ternary: RuleSet,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// Compiles a fitted tree into ternary match-action rules.
///
/// Only leaves predicting `config.compile_class` (the attack class)
/// produce entries; every other class is the table's default miss. A
/// **benign-only tree** — no leaf predicts the compile class — therefore
/// compiles to an *empty* ruleset, and that is a valid, meaningful
/// output, not a failure: installed as a stage it misses every key,
/// which is exactly the tree's verdict. Ensemble callers must keep such
/// stages (an empty stage still votes benign under
/// [`crate::forest::CompiledForest`]'s majority) — silently dropping
/// them would shrink the electorate and can flip close votes.
///
/// # Errors
///
/// Returns [`TooManyEntries`] if prefix expansion exceeds
/// `config.max_entries`.
pub fn compile_tree(
    tree: &DecisionTree,
    config: &CompileConfig,
) -> Result<CompiledRules, TooManyEntries> {
    let key_width = tree.num_features();
    let default_class = if config.compile_class == 1 { 0 } else { 1 };
    let mut ruleset = RuleSet::new(key_width, default_class);
    let attack_paths: Vec<TreePath> = tree
        .paths()
        .into_iter()
        .filter(|p| p.class == config.compile_class)
        .collect();
    let mut entries_raw = 0usize;
    for path in &attack_paths {
        expand_path(path, config, &mut ruleset, &mut entries_raw)?;
    }
    let (merged, shadowed) = if config.optimize {
        ruleset.optimize()
    } else {
        (0, 0)
    };
    let stats = CompileStats {
        paths: attack_paths.len(),
        entries_raw,
        entries: ruleset.len(),
        merged,
        shadowed,
        key_width,
        tcam_bits: ruleset.tcam_bits(),
    };
    Ok(CompiledRules {
        ternary: ruleset,
        stats,
    })
}

/// Cross-multiplies the per-field prefix covers of one path into entries.
fn expand_path(
    path: &TreePath,
    config: &CompileConfig,
    ruleset: &mut RuleSet,
    entries_raw: &mut usize,
) -> Result<(), TooManyEntries> {
    let per_field: Vec<Vec<crate::ternary::BytePrefix>> = path
        .ranges
        .iter()
        .map(|&(lo, hi)| range_to_prefixes(lo, hi))
        .collect();
    // Tree paths are disjoint, so priority among them is irrelevant; use a
    // single priority level above the default action.
    let priority = 1;
    let width = path.ranges.len();
    let mut stack = vec![(0usize, vec![0u8; width], vec![0u8; width])];
    while let Some((field, value, mask)) = stack.pop() {
        if field == width {
            *entries_raw += 1;
            if *entries_raw > config.max_entries {
                return Err(TooManyEntries {
                    budget: config.max_entries,
                    reached: *entries_raw,
                });
            }
            ruleset.push(TernaryEntry::new(
                value,
                mask,
                config.compile_class,
                priority,
            ));
            continue;
        }
        for prefix in &per_field[field] {
            let mut v = value.clone();
            let mut m = mask.clone();
            v[field] = prefix.value & prefix.mask;
            m[field] = prefix.mask;
            stack.push((field + 1, v, m));
        }
    }
    Ok(())
}

/// Checks semantic equivalence of a compiled rule set against its source
/// tree on the given sample keys; returns the first disagreeing key.
pub fn find_disagreement<'a>(
    tree: &DecisionTree,
    compiled: &CompiledRules,
    keys: impl IntoIterator<Item = &'a [u8]>,
) -> Option<Vec<u8>> {
    keys.into_iter()
        .find(|key| tree.predict(key) != compiled.ternary.classify(key))
        .map(|k| k.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;

    /// Attack iff f0 >= 100 (1 feature).
    fn threshold_tree() -> DecisionTree {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for v in 0..=255u16 {
            data.push(v as u8);
            labels.push(usize::from(v >= 100));
        }
        DecisionTree::fit(1, &data, &labels, TreeConfig::default())
    }

    #[test]
    fn compiled_rules_match_the_tree_exhaustively() {
        let tree = threshold_tree();
        let compiled = compile_tree(&tree, &CompileConfig::default()).unwrap();
        for v in 0..=255u8 {
            assert_eq!(
                compiled.ternary.classify(&[v]),
                tree.predict(&[v]),
                "byte {v}"
            );
        }
        // [100, 255] expands into few prefixes.
        assert!(compiled.stats.entries <= 8, "stats = {:?}", compiled.stats);
        assert_eq!(compiled.stats.paths, 1);
    }

    #[test]
    fn two_feature_conjunction_compiles_correctly() {
        // Attack iff f0 > 127 && f1 <= 50.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for a in (0..=255u16).step_by(3) {
            for b in (0..=255u16).step_by(5) {
                data.push(a as u8);
                data.push(b as u8);
                labels.push(usize::from(a > 127 && b <= 50));
            }
        }
        let tree = DecisionTree::fit(2, &data, &labels, TreeConfig::default());
        let compiled = compile_tree(&tree, &CompileConfig::default()).unwrap();
        for a in (0..=255u16).step_by(7) {
            for b in (0..=255u16).step_by(11) {
                let key = [a as u8, b as u8];
                assert_eq!(compiled.ternary.classify(&key), tree.predict(&key));
            }
        }
        assert!(compiled.stats.tcam_bits > 0);
        assert_eq!(compiled.stats.key_width, 2);
    }

    #[test]
    fn optimization_reduces_or_preserves_entries() {
        let tree = threshold_tree();
        let unopt = compile_tree(
            &tree,
            &CompileConfig {
                optimize: false,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        let opt = compile_tree(&tree, &CompileConfig::default()).unwrap();
        assert!(opt.stats.entries <= unopt.stats.entries);
        assert_eq!(opt.stats.entries_raw, unopt.stats.entries_raw);
    }

    #[test]
    fn entry_budget_is_enforced() {
        let tree = threshold_tree();
        let err = compile_tree(
            &tree,
            &CompileConfig {
                max_entries: 1,
                ..CompileConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.budget, 1);
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn benign_only_tree_compiles_to_empty_ruleset() {
        let data = vec![1, 2, 3, 4];
        let labels = vec![0, 0, 0, 0];
        let tree = DecisionTree::fit(1, &data, &labels, TreeConfig::default());
        let compiled = compile_tree(&tree, &CompileConfig::default()).unwrap();
        assert!(compiled.ternary.is_empty());
        assert_eq!(compiled.ternary.classify(&[200]), 0);
    }

    #[test]
    fn find_disagreement_reports_none_for_faithful_compilation() {
        let tree = threshold_tree();
        let compiled = compile_tree(&tree, &CompileConfig::default()).unwrap();
        let keys: Vec<[u8; 1]> = (0..=255u8).map(|v| [v]).collect();
        assert_eq!(
            find_disagreement(&tree, &compiled, keys.iter().map(|k| k.as_slice())),
            None
        );
    }
}
