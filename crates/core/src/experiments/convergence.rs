//! Experiment F5 — training convergence of the stage-1 and stage-2
//! networks.

use crate::experiments::ExperimentContext;
use crate::report::{num3, TextTable};
use p4guard_nn::train::History;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result of F5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Stage-1 (full window) per-epoch history.
    pub stage1: History,
    /// Stage-2 (selected fields) per-epoch history.
    pub stage2: History,
}

/// Runs F5 on the lab's guard.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f5(lab: &ExperimentContext) -> ConvergenceReport {
    let detector = lab.guard(&lab.config);
    ConvergenceReport {
        stage1: detector.guard().stage1_history.clone(),
        stage2: detector.guard().stage2_history.clone(),
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F5 — training convergence (loss & accuracy per epoch)")?;
        let epochs = self.stage1.epochs.len().max(self.stage2.epochs.len());
        let rows = (0..epochs).map(|i| (i, self.stage1.epochs.get(i), self.stage2.epochs.get(i)));
        let table = TextTable::of(
            rows,
            &[
                ("epoch", |(i, _, _)| i.to_string()),
                ("stage-1 loss", |(_, s1, _)| {
                    s1.map_or(String::new(), |e| num3(f64::from(e.loss)))
                }),
                ("stage-1 acc", |(_, s1, _)| {
                    s1.map_or(String::new(), |e| num3(f64::from(e.train_accuracy)))
                }),
                ("stage-2 loss", |(_, _, s2)| {
                    s2.map_or(String::new(), |e| num3(f64::from(e.loss)))
                }),
                ("stage-2 acc", |(_, _, s2)| {
                    s2.map_or(String::new(), |e| num3(f64::from(e.train_accuracy)))
                }),
            ],
        );
        write!(f, "{table}")
    }
}
