//! Candidate-ruleset retraining.
//!
//! When drift fires, the loop needs a labelled window of the *current*
//! traffic regime to learn from. [`Retrainer::assemble_window`] builds one
//! by replaying a [`Scenario`] (deterministic ground-truth labels for
//! free) and cross-referencing the flight recorder's sampled verdict
//! digests, so the window provably overlaps what the dataplane actually
//! saw. [`Retrainer::retrain`] then reruns the paper's stage-2 path on
//! that window — byte dataset → field projection → decision tree →
//! ternary compilation — producing a candidate [`RuleSet`] for shadow
//! evaluation.

use p4guard_features::ByteDataset;
use p4guard_packet::Trace;
use p4guard_rules::{
    compile_tree, CompileConfig, DecisionTree, RuleSet, TooManyEntries, TreeConfig,
};
use p4guard_telemetry::{frame_digest, Event, FlightRecorder};
use p4guard_traffic::{Scenario, ScenarioError};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Why a retraining attempt produced no candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetrainError {
    /// The labelled window held no frames.
    EmptyWindow,
    /// The window held no attack frames, so there is nothing to compile
    /// (benign is the default action).
    NoAttacks,
    /// Tree compilation blew the ternary entry budget.
    TooManyEntries(TooManyEntries),
    /// The window scenario could not be generated.
    Scenario(ScenarioError),
}

impl fmt::Display for RetrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetrainError::EmptyWindow => write!(f, "labelled window is empty"),
            RetrainError::NoAttacks => {
                write!(f, "labelled window has no attack frames to compile")
            }
            RetrainError::TooManyEntries(e) => write!(f, "{e}"),
            RetrainError::Scenario(e) => write!(f, "{e}"),
        }
    }
}

impl Error for RetrainError {}

impl From<TooManyEntries> for RetrainError {
    fn from(e: TooManyEntries) -> Self {
        RetrainError::TooManyEntries(e)
    }
}

impl From<ScenarioError> for RetrainError {
    fn from(e: ScenarioError) -> Self {
        RetrainError::Scenario(e)
    }
}

/// A labelled retraining window plus provenance about how much of it the
/// dataplane's flight recorder corroborates.
#[derive(Debug, Clone)]
pub struct LabelledWindow {
    /// The labelled frames to learn from.
    pub trace: Trace,
    /// Window frames whose digest also appears in a recorded verdict
    /// sample — evidence the window matches live traffic.
    pub recorder_matched: usize,
}

/// The stage-2 relearning path, parameterised the same way the offline
/// trainer is: byte window, selected field offsets, tree and compile
/// configs. The offsets must match the live ACL table's
/// [`KeyLayout`](p4guard_dataplane::key::KeyLayout), since the compiled
/// entries key on exactly those bytes.
#[derive(Debug, Clone)]
pub struct Retrainer {
    /// Leading frame bytes the dataset captures per sample.
    pub window: usize,
    /// Frame byte offsets the tree learns over (the ACL key layout).
    pub offsets: Vec<usize>,
    /// Decision-tree hyperparameters.
    pub tree: TreeConfig,
    /// Tree → ternary compilation options.
    pub compile: CompileConfig,
}

impl Retrainer {
    /// A retrainer over `offsets` with default tree/compile settings.
    pub fn new(window: usize, offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "retrainer needs at least one offset");
        Retrainer {
            window,
            offsets,
            tree: TreeConfig::default(),
            compile: CompileConfig::default(),
        }
    }

    /// Assembles a labelled window by generating `scenario`'s trace and
    /// counting how many of its frames the flight recorder sampled (by
    /// frame digest). Fully deterministic for a fixed scenario seed.
    ///
    /// # Errors
    ///
    /// Returns [`RetrainError::Scenario`] when the scenario cannot be
    /// generated (e.g. an attack needs a device kind the fleet lacks).
    pub fn assemble_window(
        &self,
        scenario: &Scenario,
        recorder: &FlightRecorder,
    ) -> Result<LabelledWindow, RetrainError> {
        let trace = scenario.generate()?;
        let sampled: HashSet<u64> = recorder
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                Event::Verdict { digest, .. } => Some(*digest),
                _ => None,
            })
            .collect();
        let recorder_matched = trace
            .iter()
            .filter(|r| sampled.contains(&frame_digest(&r.frame)))
            .count();
        Ok(LabelledWindow {
            trace,
            recorder_matched,
        })
    }

    /// Learns a candidate ruleset from a labelled window: projects the
    /// byte dataset onto the configured offsets, fits a decision tree on
    /// the ground-truth labels, and compiles the attack paths to ternary
    /// entries.
    ///
    /// # Errors
    ///
    /// [`RetrainError::EmptyWindow`] / [`RetrainError::NoAttacks`] when
    /// the window cannot support learning, and
    /// [`RetrainError::TooManyEntries`] when compilation exceeds the
    /// configured entry budget.
    pub fn retrain(&self, window: &Trace) -> Result<RuleSet, RetrainError> {
        if window.is_empty() {
            return Err(RetrainError::EmptyWindow);
        }
        if window.attack_count() == 0 {
            return Err(RetrainError::NoAttacks);
        }
        let dataset = ByteDataset::from_trace(window, self.window);
        let projected = dataset.project(&self.offsets);
        let tree = DecisionTree::fit(
            self.offsets.len(),
            projected.data(),
            projected.labels(),
            self.tree,
        );
        let compiled = compile_tree(&tree, &self.compile)?;
        Ok(compiled.ternary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_packet::AttackFamily;
    use p4guard_telemetry::{FlightRecorder, VerdictKind};
    use p4guard_traffic::{AttackEvent, Fleet, Scenario};

    fn scenario(family: AttackFamily, seed: u64) -> Scenario {
        Scenario {
            fleet: Fleet::mixed(),
            duration_s: 10.0,
            seed,
            benign_intensity: 1.0,
            attacks: vec![AttackEvent::new(family, 1.0, 9.0)],
        }
    }

    fn retrainer() -> Retrainer {
        // IPv4 protocol byte plus source/destination port bytes.
        Retrainer::new(64, vec![23, 34, 35, 36, 37])
    }

    #[test]
    fn retrain_learns_a_discriminative_ruleset() {
        let trace = scenario(AttackFamily::SynFlood, 11).generate().unwrap();
        let rules = retrainer().retrain(&trace).unwrap();
        assert!(!rules.is_empty(), "candidate has entries");

        let projected = ByteDataset::from_trace(&trace, 64).project(&[23, 34, 35, 36, 37]);
        let mut hit = 0usize;
        let mut false_pos = 0usize;
        let mut attacks = 0usize;
        let mut benign = 0usize;
        for i in 0..projected.len() {
            let class = rules.classify(projected.sample(i));
            if projected.labels()[i] == 1 {
                attacks += 1;
                hit += usize::from(class == 1);
            } else {
                benign += 1;
                false_pos += usize::from(class == 1);
            }
        }
        assert!(attacks > 0 && benign > 0);
        assert!(hit * 10 >= attacks * 7, "recall {hit}/{attacks} below 0.7");
        assert!(
            false_pos * 10 <= benign * 2,
            "false positives {false_pos}/{benign} above 0.2"
        );
    }

    #[test]
    fn retrain_is_deterministic() {
        let trace = scenario(AttackFamily::UdpFlood, 5).generate().unwrap();
        let a = retrainer().retrain(&trace).unwrap();
        let b = retrainer().retrain(&trace).unwrap();
        assert!(a.diff(&b).is_empty(), "same window, same candidate");
    }

    #[test]
    fn empty_and_benign_windows_are_errors() {
        let r = retrainer();
        assert_eq!(r.retrain(&Trace::new()), Err(RetrainError::EmptyWindow));
        let benign = Scenario::benign_only(Fleet::mixed(), 5.0, 3)
            .generate()
            .unwrap();
        assert_eq!(r.retrain(&benign), Err(RetrainError::NoAttacks));
    }

    #[test]
    fn assemble_window_counts_recorder_overlap() {
        let sc = scenario(AttackFamily::MiraiScan, 21);
        let trace = sc.generate().unwrap();
        let recorder = FlightRecorder::new(64);
        // Record verdicts for a handful of real window frames plus one
        // frame that is not in the window.
        for r in trace.iter().take(5) {
            recorder.record(Event::Verdict {
                verdict: VerdictKind::Forward,
                digest: frame_digest(&r.frame),
                len: r.frame.len(),
                shard: 0,
                version: 1,
                matched_stage: None,
                matched_rank: None,
                trace_id: 1,
            });
        }
        recorder.record(Event::Verdict {
            verdict: VerdictKind::Drop,
            digest: 0xdead_beef,
            len: 60,
            shard: 0,
            version: 1,
            matched_stage: None,
            matched_rank: None,
            trace_id: 2,
        });
        let window = retrainer().assemble_window(&sc, &recorder).unwrap();
        assert_eq!(window.trace.len(), trace.len());
        assert!(
            window.recorder_matched >= 5,
            "recorded digests found in the window"
        );
    }
}
