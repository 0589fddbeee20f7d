//! The one shape every learned guard takes on the switch: a raw parse
//! window and ternary ACL stages keyed on selected bytes inside it.

use crate::action::Action;
use crate::key::KeyLayout;
use crate::parser::ParserSpec;
use crate::switch::Switch;
use crate::table::{MatchKind, Table};
use serde::{Deserialize, Serialize};

/// Shortest frame the ACL parser accepts: an Ethernet header.
const MIN_FRAME_LEN: usize = 14;

/// Layout of a learned-ACL switch: which frame bytes form the match key,
/// and how many entries each stage can hold. [`AclLayout::switch`] is how
/// every deployment (single guard, per-family tables, per-tree forest
/// stages, fleet tenants, adaptation candidates) gets its switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AclLayout {
    /// Parser window in bytes.
    pub window: usize,
    /// Byte offsets forming the match key (the learned feature set).
    pub offsets: Vec<usize>,
    /// Per-stage table capacity in entries.
    pub capacity: usize,
}

impl Default for AclLayout {
    fn default() -> Self {
        // IPv4 protocol byte plus the four TCP/UDP port bytes — the
        // feature set the headline experiments learn over.
        AclLayout {
            window: 64,
            offsets: vec![23, 34, 35, 36, 37],
            capacity: 4096,
        }
    }
}

impl AclLayout {
    /// An empty ternary stage keyed on `offsets`; a miss is a no-op, so
    /// the frame falls through to the next stage or the default port.
    pub fn table(&self, name: impl Into<String>) -> Table {
        Table::new(
            name,
            MatchKind::Ternary,
            KeyLayout::new(self.offsets.clone()),
            self.capacity,
            Action::NoOp,
        )
    }

    /// A switch parsing a `window`-byte raw window (frames shorter than an
    /// Ethernet header are rejected), forwarding to port 1 by default, with
    /// one empty [`AclLayout::table`] per name in `stage_names`. Stages
    /// evaluate first-hit in order; a vote pipeline sets its
    /// [`VoteStage`](crate::vote::VoteStage) on the result.
    pub fn switch<S: Into<String>>(
        &self,
        name: impl Into<String>,
        stage_names: impl IntoIterator<Item = S>,
    ) -> Switch {
        let parser = ParserSpec::raw_window(self.window, MIN_FRAME_LEN);
        let mut switch = Switch::new(name, parser, 1);
        for stage in stage_names {
            switch.add_stage(self.table(stage));
        }
        switch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_has_one_ternary_stage_per_name() {
        let layout = AclLayout {
            window: 32,
            offsets: vec![23, 30],
            capacity: 7,
        };
        let sw = layout.switch("gw", ["a", "b"]);
        assert_eq!(sw.stage_count(), 2);
        for (i, name) in ["a", "b"].into_iter().enumerate() {
            let t = sw.stage(i);
            assert_eq!(t.name(), name);
            assert_eq!(t.kind(), MatchKind::Ternary);
            assert_eq!(t.key().offsets(), &[23, 30]);
            assert_eq!(t.capacity(), 7);
            assert_eq!(t.default_action(), Action::NoOp);
        }
        assert_eq!(sw.vote(), None);
    }
}
