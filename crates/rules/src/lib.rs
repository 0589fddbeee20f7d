//! # p4guard-rules
//!
//! Stage 2 of the `p4guard` pipeline: CART decision-tree induction over
//! byte features ([`tree::DecisionTree`]) and compilation of attack-class
//! tree paths into TCAM-installable ternary match-action rules
//! ([`compile::compile_tree`]), via minimal range→prefix expansion
//! ([`ternary::range_to_prefixes`]) with merge/shadow optimization
//! ([`ruleset::RuleSet`]). The merge decision itself — which value/mask
//! entries fold together — lives in [`cube`], the one ternary minimizer
//! that both `RuleSet::optimize` and the data plane's lowering-time
//! minimization call.
//!
//! # Examples
//!
//! Fit a tree on byte data and compile it:
//!
//! ```
//! use p4guard_rules::compile::{compile_tree, CompileConfig};
//! use p4guard_rules::tree::{DecisionTree, TreeConfig};
//!
//! // Attack iff the byte is >= 100.
//! let data: Vec<u8> = (0..=255).collect();
//! let labels: Vec<usize> = (0..=255).map(|v| usize::from(v >= 100)).collect();
//! let tree = DecisionTree::fit(1, &data, &labels, TreeConfig::default());
//! let compiled = compile_tree(&tree, &CompileConfig::default())?;
//! assert_eq!(compiled.ternary.classify(&[42]), 0);
//! assert_eq!(compiled.ternary.classify(&[200]), 1);
//! # Ok::<(), p4guard_rules::compile::TooManyEntries>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod cube;
pub mod forest;
pub mod ruleset;
pub mod ternary;
pub mod tree;

pub use compile::{compile_tree, CompileConfig, CompileStats, CompiledRules, TooManyEntries};
pub use forest::{compile_forest, CompiledForest, EarlyExit, ForestConfig, RandomForest};
pub use ruleset::{RuleSet, RuleSetDiff};
pub use ternary::{range_to_prefixes, BytePrefix, TernaryEntry};
pub use tree::{DecisionTree, Node, SplitCriterion, TreeConfig, TreePath};
