//! Extension: attack-family *identification* in the data plane.
//!
//! The paper's pipeline is a binary firewall (benign/attack). A natural
//! extension the two-stage structure supports is telling the operator
//! *which* attack is underway: stage 1's field selection is shared, and
//! stage 2 compiles one rule table **per attack family** (one-vs-rest),
//! each counting and dropping its own family. This mirrors how a real P4
//! deployment would expose per-attack counters to the control plane.

use crate::config::GuardConfig;
use crate::pipeline::{PipelineError, TrainedGuard, TwoStagePipeline};
use crate::report::{num3, TextTable};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::table::TableError;
use p4guard_features::extract::ByteDataset;
use p4guard_packet::trace::{AttackFamily, Trace};
use p4guard_rules::compile::{compile_tree, CompiledRules};
use p4guard_rules::tree::DecisionTree;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-family compiled classifier.
#[derive(Debug, Clone)]
pub struct FamilyRules {
    /// The attack family these rules identify.
    pub family: AttackFamily,
    /// The one-vs-rest decision tree.
    pub tree: DecisionTree,
    /// Compiled ternary rules.
    pub compiled: CompiledRules,
}

/// A family-identifying guard: the binary guard plus one rule set per
/// attack family present in training.
#[derive(Debug, Clone)]
pub struct FamilyGuard {
    /// The underlying binary two-stage guard (shared field selection).
    pub binary: TrainedGuard,
    /// Per-family rules, in [`AttackFamily::ALL`] order (families absent
    /// from training are skipped).
    pub families: Vec<FamilyRules>,
}

impl FamilyGuard {
    /// Trains the binary pipeline, then one one-vs-rest tree per family on
    /// the same selected bytes.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and compilation errors.
    pub fn train(config: GuardConfig, trace: &Trace) -> Result<Self, PipelineError> {
        let binary = TwoStagePipeline::new(config.clone()).train(trace)?;
        let bytes = ByteDataset::from_trace(trace, config.window);
        let selected = bytes.project(&binary.selection.offsets);
        let mut families = Vec::new();
        for family in AttackFamily::ALL {
            let labels: Vec<usize> = trace
                .iter()
                .map(|r| usize::from(r.label.family() == Some(family)))
                .collect();
            let positives: usize = labels.iter().sum();
            if positives == 0 {
                continue;
            }
            let tree = DecisionTree::fit(config.k, selected.data(), &labels, config.tree);
            let compiled = compile_tree(&tree, &config.compile)?;
            families.push(FamilyRules {
                family,
                tree,
                compiled,
            });
        }
        Ok(FamilyGuard { binary, families })
    }

    /// Identifies the attack family of a frame, if any. Families are
    /// checked in training order; the first hit wins (families are
    /// near-disjoint by construction).
    pub fn identify_frame(&self, frame: &[u8]) -> Option<AttackFamily> {
        let key = self.binary.key_layout().build_key(frame);
        self.families
            .iter()
            .find(|f| f.compiled.ternary.classify(&key) == 1)
            .map(|f| f.family)
    }

    /// Evaluates identification on a labelled trace.
    pub fn evaluate(&self, trace: &Trace) -> IdentificationReport {
        let mut rows: Vec<IdentificationRow> = self
            .families
            .iter()
            .map(|f| IdentificationRow {
                family: f.family.to_string(),
                actual: 0,
                identified: 0,
                misidentified: 0,
                rules: f.compiled.stats.entries,
            })
            .collect();
        let mut benign_total = 0usize;
        let mut benign_flagged = 0usize;
        for record in trace.iter() {
            let predicted = self.identify_frame(&record.frame);
            match record.label.family() {
                None => {
                    benign_total += 1;
                    benign_flagged += usize::from(predicted.is_some());
                }
                Some(actual) => {
                    if let Some(row) = rows.iter_mut().find(|r| r.family == actual.to_string()) {
                        row.actual += 1;
                        match predicted {
                            Some(p) if p == actual => row.identified += 1,
                            Some(_) => row.misidentified += 1,
                            None => {}
                        }
                    }
                }
            }
        }
        IdentificationReport {
            rows,
            benign_total,
            benign_flagged,
        }
    }

    /// Total rules across all family tables.
    pub fn total_rules(&self) -> usize {
        self.families.iter().map(|f| f.compiled.stats.entries).sum()
    }

    /// Deploys one ternary table per family: matches drop the packet and
    /// bump a per-family counter (the family's [`AttackFamily::code`]).
    ///
    /// # Errors
    ///
    /// Returns a table error if `capacity_per_family` cannot hold a rule
    /// set.
    pub fn deploy(&self, capacity_per_family: usize) -> Result<ControlPlane, TableError> {
        let layout = self.binary.acl_layout(capacity_per_family);
        let names = self.families.iter().map(|f| format!("guard_{}", f.family));
        let mut switch = layout.switch("p4guard-family-gateway", names);
        // Final stage: the binary guard's drop rules, sized for all of them.
        let final_stage = switch.add_stage(
            self.binary
                .acl_layout(capacity_per_family * self.families.len().max(1))
                .table("guard_acl"),
        );
        let control = ControlPlane::new(switch);
        // Count first (per-family visibility), then drop: encoded as a
        // Count action on the family table plus the binary ACL drop — in
        // this model a single Drop action also stops the pipeline, so we
        // install Count and rely on a final binary drop table. One swap:
        // every table goes in or none does.
        let mut tables: Vec<_> = self
            .families
            .iter()
            .enumerate()
            .map(|(stage, f)| {
                let count = Action::Count(u32::from(f.family.code()));
                (stage, &f.compiled.ternary, count)
            })
            .collect();
        tables.push((final_stage, &self.binary.compiled.ternary, Action::Drop));
        control.replace_rulesets(&tables)?;
        Ok(control)
    }
}

/// One family's identification quality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdentificationRow {
    /// Family name.
    pub family: String,
    /// Attack packets of this family in the trace.
    pub actual: usize,
    /// Correctly identified packets.
    pub identified: usize,
    /// Packets attributed to a *different* family.
    pub misidentified: usize,
    /// Rules in this family's table.
    pub rules: usize,
}

impl IdentificationRow {
    /// Identification recall.
    pub fn recall(&self) -> f64 {
        if self.actual == 0 {
            0.0
        } else {
            self.identified as f64 / self.actual as f64
        }
    }
}

/// Result of the identification evaluation (experiment F13).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdentificationReport {
    /// Per-family rows.
    pub rows: Vec<IdentificationRow>,
    /// Benign packets in the trace.
    pub benign_total: usize,
    /// Benign packets wrongly attributed to some family.
    pub benign_flagged: usize,
}

impl IdentificationReport {
    /// Mean per-family recall.
    pub fn mean_recall(&self) -> f64 {
        let rows: Vec<&IdentificationRow> = self.rows.iter().filter(|r| r.actual > 0).collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.recall()).sum::<f64>() / rows.len() as f64
    }

    /// Benign false-attribution rate.
    pub fn benign_fpr(&self) -> f64 {
        if self.benign_total == 0 {
            0.0
        } else {
            self.benign_flagged as f64 / self.benign_total as f64
        }
    }
}

impl fmt::Display for IdentificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F13 — attack-family identification (one table per family)"
        )?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("family", |r| r.family.clone()),
                ("packets", |r| r.actual.to_string()),
                ("identified", |r| r.identified.to_string()),
                ("confused", |r| r.misidentified.to_string()),
                ("recall", |r| num3(r.recall())),
                ("rules", |r| r.rules.to_string()),
            ],
        );
        write!(f, "{table}")?;
        writeln!(
            f,
            "mean recall {}  benign false-attribution {}",
            num3(self.mean_recall()),
            num3(self.benign_fpr())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_traffic::scenario::Scenario;
    use p4guard_traffic::split_temporal;

    fn trained() -> (FamilyGuard, Trace) {
        let trace = Scenario::mixed_default(81).generate().unwrap();
        let (train, test) = split_temporal(&trace, 0.6);
        let guard = FamilyGuard::train(GuardConfig::fast(), &train).unwrap();
        (guard, test)
    }

    #[test]
    fn identifies_most_attack_families() {
        let (guard, test) = trained();
        assert!(
            guard.families.len() >= 8,
            "families {}",
            guard.families.len()
        );
        let report = guard.evaluate(&test);
        assert!(
            report.mean_recall() > 0.5,
            "mean identification recall {}",
            report.mean_recall()
        );
        assert!(
            report.benign_fpr() < 0.2,
            "benign fpr {}",
            report.benign_fpr()
        );
        assert!(report.to_string().contains("F13"));
    }

    #[test]
    fn deployment_counts_per_family() {
        let (guard, test) = trained();
        let control = guard.deploy(100_000).unwrap();
        control.with_switch_mut(|sw| {
            for r in test.iter() {
                let _ = sw.process(&r.frame);
            }
        });
        control.with_switch(|sw| {
            let user = &sw.counters().user;
            let nonzero = user.iter().filter(|&&c| c > 0).count();
            assert!(nonzero >= 4, "per-family counters hit: {nonzero}");
        });
    }

    #[test]
    fn identify_frame_agrees_with_family_rules() {
        let (guard, test) = trained();
        for r in test.iter().take(500) {
            if let Some(family) = guard.identify_frame(&r.frame) {
                // The identified family's ruleset must actually match.
                let key = guard.binary.key_layout().build_key(&r.frame);
                let rules = guard
                    .families
                    .iter()
                    .find(|f| f.family == family)
                    .expect("family present");
                assert_eq!(rules.compiled.ternary.classify(&key), 1);
            }
        }
    }
}
