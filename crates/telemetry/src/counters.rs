//! The one tally of what happened to frames: a [`SwitchCounters`] block is
//! filled by the dataplane's stage walkers, summed shard → gateway by
//! [`SwitchCounters::merge`], and handed as-is to
//! [`TelemetrySink::batch_end`](crate::TelemetrySink::batch_end). It lives
//! here, below the dataplane, so the sink can take the block itself instead
//! of a second copy of its numbers; `p4guard_dataplane::switch` re-exports
//! it under the path callers use.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-switch (per-lane, on a gateway) packet counters.
///
/// Every frame handed to a walker lands in exactly one of `forwarded`,
/// `dropped` and `parser_rejected`, and every `dropped` frame in exactly
/// one of the three reasons — [`SwitchCounters::conserved`] checks both.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchCounters {
    /// Frames handed to the switch.
    pub received: u64,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped by table action: the sum of `rule_drop`, `no_rule`
    /// and `wrong_width`.
    pub dropped: u64,
    /// Frames rejected by the parser.
    pub parser_rejected: u64,
    /// Frames mirrored.
    pub mirrored: u64,
    /// User counters (indexed by `Action::Count` ids).
    pub user: Vec<u64>,
    /// `dropped` frames a matching entry dropped.
    #[serde(default)]
    pub rule_drop: u64,
    /// `dropped` frames no entry matched and the stage's default action
    /// dropped.
    #[serde(default)]
    pub no_rule: u64,
    /// `dropped` frames whose key did not have the compiled table's width.
    /// The stage walkers build every key to its stage's width, so this
    /// stays 0 on all of them; the reason exists for a caller that looks a
    /// foreign key up.
    #[serde(default)]
    pub wrong_width: u64,
    /// Per-stage `(hits, misses)`, indexed by stage *position* — a swap
    /// that renames or reorders tables keeps counting into the same slots.
    /// Grown by [`SwitchCounters::stage`] to the deepest stage a frame has
    /// reached and never shrunk.
    #[serde(default)]
    pub stages: Vec<(u64, u64)>,
}

impl SwitchCounters {
    /// Folds another counter set into this one (drain → shard → gateway
    /// totals). User counters and per-stage hits are summed index-wise,
    /// growing this set as needed.
    pub fn merge(&mut self, other: &SwitchCounters) {
        self.received += other.received;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        self.parser_rejected += other.parser_rejected;
        self.mirrored += other.mirrored;
        self.rule_drop += other.rule_drop;
        self.no_rule += other.no_rule;
        self.wrong_width += other.wrong_width;
        if self.user.len() < other.user.len() {
            self.user.resize(other.user.len(), 0);
        }
        for (acc, v) in self.user.iter_mut().zip(&other.user) {
            *acc += v;
        }
        for (stage, (hits, misses)) in other.stages.iter().enumerate() {
            let acc = self.stage(stage);
            acc.0 += hits;
            acc.1 += misses;
        }
    }

    /// Zeroes every count in place, keeping the vectors' lengths and
    /// allocations — how a shard reuses its drain block. The result merges
    /// like a default block but does not compare equal to one.
    pub fn clear(&mut self) {
        self.user.fill(0);
        self.stages.fill((0, 0));
        *self = SwitchCounters {
            user: std::mem::take(&mut self.user),
            stages: std::mem::take(&mut self.stages),
            ..SwitchCounters::default()
        };
    }

    /// The `(hits, misses)` slot of stage `stage`, grown into existence.
    /// Called once per lookup by the per-frame walkers and once per stage
    /// per batch by the batched one, so deliberately not `#[inline]`: the
    /// growth path stays out of the walkers' code.
    pub fn stage(&mut self, stage: usize) -> &mut (u64, u64) {
        if self.stages.len() <= stage {
            self.stages.resize(stage + 1, (0, 0));
        }
        &mut self.stages[stage]
    }

    /// Frames lost to each pipeline reason, in
    /// [`DropReason::LANE`](crate::DropReason::LANE) order.
    /// (`Backpressure` is not one: a shed frame never reaches a switch.)
    pub fn drops(&self) -> [u64; 4] {
        [
            self.parser_rejected,
            self.rule_drop,
            self.no_rule,
            self.wrong_width,
        ]
    }

    /// Whether every received frame has exactly one fate and every dropped
    /// frame exactly one reason.
    pub fn conserved(&self) -> bool {
        self.received == self.forwarded + self.dropped + self.parser_rejected
            && self.dropped == self.rule_drop + self.no_rule + self.wrong_width
    }
}

/// The frame line of a gateway or fleet snapshot, e.g. `9 received / 5
/// forwarded / 3 dropped (2 rule / 1 no-rule / 0 wrong-width), 1
/// parser-rejected`.
impl fmt::Display for SwitchCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} received / {} forwarded / {} dropped ({} rule / {} no-rule / {} wrong-width), \
             {} parser-rejected",
            self.received,
            self.forwarded,
            self.dropped,
            self.rule_drop,
            self.no_rule,
            self.wrong_width,
            self.parser_rejected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shows_the_drop_split() {
        let counts = SwitchCounters {
            received: 9,
            forwarded: 5,
            dropped: 3,
            parser_rejected: 1,
            rule_drop: 2,
            no_rule: 1,
            ..SwitchCounters::default()
        };
        let line = "9 received / 5 forwarded / 3 dropped (2 rule / 1 no-rule / 0 wrong-width), \
                    1 parser-rejected";
        assert_eq!(counts.to_string(), line);
    }
}
