//! The combine policy: what a stage hit means, when a frame stops walking
//! the stages, and how its final verdict is formed — written once, for all
//! three stage walkers (the batched and per-frame
//! [`ReadPipeline`](crate::pipeline::ReadPipeline) paths and the mutable
//! scan [`Switch`](crate::switch::Switch)).
//!
//! There are two policies. **First-hit** is the sequential match-action
//! chain: each stage's action applies in order and a `Drop` ends the walk.
//! **Vote** ([`VoteStage`]) reinterprets the stages as *parallel* per-tree
//! lookups, one compiled ruleset per forest tree: a **hit** in stage *t*
//! is tree *t* voting "attack", a **miss** (including a wrong-width key)
//! is a "benign" vote, and per-entry actions are ignored. The final
//! verdict is the majority — `Drop` iff strictly more attack than benign
//! votes, ties falling to benign, matching
//! [`p4guard_rules::forest::majority`]. An *empty* stage (a benign-only
//! tree compiles to zero entries) therefore still votes: it misses every
//! key and counts benign, which is exactly its tree's verdict — the stage
//! must never be dropped from the pipeline.
//!
//! The optional [`EarlyExit`] is pForest-style certainty-based truncation
//! and is part of the verdict *semantics*: every walker applies the
//! identical stopping rule through `Combine::stage`, so they stay
//! bit-identical — the verdict, the per-stage counts and the reported
//! `(stage, rank)` stop where the vote is decided. It saves no lookup on
//! the batched walker, which answers every tree from one probe per frame
//! of an index fused over all the stages; it only ends that frame's walk
//! over the probe's words. The per-frame walkers still stop looking up.

use crate::action::{Action, Verdict};
use crate::compiled::{LookupOutcome, Rank};
use p4guard_rules::forest::majority;
use p4guard_telemetry::{SwitchCounters, TelemetrySink, VerdictKind};
use serde::{Deserialize, Serialize};

pub use p4guard_rules::forest::EarlyExit;

/// Selects the vote combine policy for a switch's stages.
///
/// Attach with [`Switch::set_vote`](crate::switch::Switch::set_vote);
/// snapshots carry it into
/// [`ReadPipeline`](crate::pipeline::ReadPipeline), so published
/// pipelines and gateway shards vote identically to the mutable switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VoteStage {
    /// Optional certainty-based early exit. `None` means every tree
    /// always votes (full majority).
    pub early_exit: Option<EarlyExit>,
}

impl VoteStage {
    /// A full majority vote over every stage, no early exit.
    pub fn majority() -> Self {
        VoteStage { early_exit: None }
    }

    /// A majority vote with the given certainty-based early exit.
    pub fn with_early_exit(exit: EarlyExit) -> Self {
        VoteStage {
            early_exit: Some(exit),
        }
    }
}

/// The combine policy of one pipeline: how per-stage lookup results fold
/// into a verdict.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Combine {
    /// Sequential match-action: every stage's action applies in order and
    /// a `Drop` ends the walk.
    FirstHit,
    /// Parallel per-tree stages feeding a majority vote.
    Vote(VoteStage),
}

/// What one frame has accumulated on its way through the stages.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tally {
    /// Egress port (the last `Forward` action under first-hit).
    out_port: u16,
    attack: u16,
    benign: u16,
    /// Set when a first-hit stage dropped the frame.
    dropped: bool,
    /// `(stage, rank)` of the last matching entry, for verdict reports.
    matched: Option<(usize, Rank)>,
}

impl Tally {
    pub(crate) fn new(default_port: u16) -> Self {
        Tally {
            out_port: default_port,
            attack: 0,
            benign: 0,
            dropped: false,
            matched: None,
        }
    }
}

impl Combine {
    pub(crate) fn of(vote: Option<VoteStage>) -> Self {
        vote.map_or(Combine::FirstHit, Combine::Vote)
    }

    /// Counts the lookups of stage `stage` into `counters.stages[stage]`.
    /// Every walker reports each lookup it made exactly once: the per-frame
    /// walkers and the batched vote walk one at a time, the batched
    /// first-hit walker a stage's whole alive set at once — so the hits are
    /// summed here, not in its per-frame loop.
    #[inline]
    pub(crate) fn count_lookups(
        counters: &mut SwitchCounters,
        stage: usize,
        outcomes: impl ExactSizeIterator<Item = LookupOutcome>,
    ) {
        let lookups = outcomes.len() as u64;
        let hits = outcomes
            .filter(|o| matches!(o, LookupOutcome::Hit(_)))
            .count() as u64;
        let slot = counters.stage(stage);
        slot.0 += hits;
        slot.1 += lookups - hits;
    }

    /// Folds stage `stage`'s lookup result into `tally` — and, when a
    /// first-hit action drops the frame, counts the reason. Returns `true`
    /// when the frame is done walking: dropped, or its vote decided by the
    /// [`EarlyExit`].
    #[inline]
    pub(crate) fn stage(
        self,
        stage: usize,
        action: Action,
        outcome: LookupOutcome,
        tally: &mut Tally,
        counters: &mut SwitchCounters,
    ) -> bool {
        let hit = if let LookupOutcome::Hit(rank) = outcome {
            tally.matched = Some((stage, rank));
            true
        } else {
            false
        };
        match self {
            Combine::FirstHit => match action {
                Action::Drop => {
                    match outcome {
                        LookupOutcome::Hit(_) => counters.rule_drop += 1,
                        LookupOutcome::Miss => counters.no_rule += 1,
                        LookupOutcome::WrongWidth => counters.wrong_width += 1,
                    }
                    tally.dropped = true;
                    return true;
                }
                Action::Forward(p) => tally.out_port = p,
                Action::Mirror(_) => counters.mirrored += 1,
                Action::Count(c) => {
                    let idx = c as usize;
                    if counters.user.len() <= idx {
                        counters.user.resize(idx + 1, 0);
                    }
                    counters.user[idx] += 1;
                }
                Action::NoOp => {}
            },
            Combine::Vote(vote) => {
                if hit {
                    tally.attack += 1;
                } else {
                    tally.benign += 1;
                }
                return vote.early_exit.is_some_and(|exit| {
                    exit.decided(usize::from(tally.attack), usize::from(tally.benign))
                });
            }
        }
        false
    }

    /// Forms the verdict of a parsed frame from what it accumulated,
    /// counts it and reports it to `sink`. Under a vote, attack wins only
    /// with at least one hit, so a vote-drop always counts as `rule_drop`
    /// with a matched `(stage, rank)`.
    #[inline]
    pub(crate) fn finish<S: TelemetrySink>(
        self,
        tally: &Tally,
        frame: &[u8],
        counters: &mut SwitchCounters,
        sink: &mut S,
    ) -> Verdict {
        let dropped = match self {
            Combine::FirstHit => tally.dropped,
            Combine::Vote(_) => {
                let attack = majority(usize::from(tally.attack), usize::from(tally.benign)) == 1;
                counters.rule_drop += u64::from(attack);
                attack
            }
        };
        if dropped {
            counters.dropped += 1;
            sink.verdict(VerdictKind::Drop, frame, tally.matched);
            Verdict::Drop
        } else {
            counters.forwarded += 1;
            sink.verdict(VerdictKind::Forward, frame, tally.matched);
            Verdict::Forward(tally.out_port)
        }
    }
}

/// Counts and reports a frame the parser rejected; it never reaches the
/// stages, so no combine policy applies.
#[inline]
pub(crate) fn parser_reject<S: TelemetrySink>(
    frame: &[u8],
    counters: &mut SwitchCounters,
    sink: &mut S,
) -> Verdict {
    counters.parser_rejected += 1;
    sink.verdict(VerdictKind::ParserReject, frame, None);
    Verdict::ParserReject
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn early_exit_decision_rule() {
        let exit = EarlyExit {
            min_votes: 2,
            margin: 2,
        };
        assert!(!exit.decided(1, 0), "below min_votes");
        assert!(!exit.decided(1, 1), "no lead");
        assert!(exit.decided(2, 0));
        assert!(exit.decided(0, 3));
        assert!(!exit.decided(2, 1), "lead below margin");
    }

    #[test]
    fn constructors() {
        assert_eq!(VoteStage::majority().early_exit, None);
        let exit = EarlyExit {
            min_votes: 1,
            margin: 1,
        };
        assert_eq!(VoteStage::with_early_exit(exit).early_exit, Some(exit));
    }
}
