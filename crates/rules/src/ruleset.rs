//! Prioritized ternary rule sets with optimization passes.

use crate::cube::{self, Cube};
use crate::ternary::TernaryEntry;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A prioritized list of ternary entries over a fixed-width key, with a
/// default class for keys no entry matches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleSet {
    key_width: usize,
    entries: Vec<TernaryEntry>,
    default_class: usize,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new(key_width: usize, default_class: usize) -> Self {
        RuleSet {
            key_width,
            entries: Vec::new(),
            default_class,
        }
    }

    /// Key width in bytes.
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// The class returned when nothing matches.
    pub fn default_class(&self) -> usize {
        self.default_class
    }

    /// Borrows the entries, highest priority first.
    pub fn entries(&self) -> &[TernaryEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the rule set has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an entry, keeping entries sorted by descending priority
    /// (stable for equal priorities).
    ///
    /// # Panics
    ///
    /// Panics if the entry width differs from the rule-set key width.
    pub fn push(&mut self, entry: TernaryEntry) {
        assert_eq!(entry.width(), self.key_width, "entry width mismatch");
        let at = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(at, entry);
    }

    /// Classifies a key: the highest-priority matching entry's class, or
    /// the default.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the key width.
    pub fn classify(&self, key: &[u8]) -> usize {
        self.entries
            .iter()
            .find(|e| e.matches(key))
            .map_or(self.default_class, |e| e.class)
    }

    /// Checks the invariants [`RuleSet::push`] maintains, for a rule set
    /// that arrived some other way (deserialized from a model file): every
    /// entry's value and mask are `key_width` bytes, and entries are sorted
    /// by descending priority.
    ///
    /// # Errors
    ///
    /// Names the first offending entry.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.value.len() != self.key_width || e.mask.len() != self.key_width {
                return Err(format!(
                    "entry {i}: value is {} byte(s) and mask {} byte(s), key width is {}",
                    e.value.len(),
                    e.mask.len(),
                    self.key_width
                ));
            }
            if i > 0 && self.entries[i - 1].priority < e.priority {
                return Err(format!(
                    "entry {i}: priority {} follows priority {}, entries must be sorted by descending priority",
                    e.priority,
                    self.entries[i - 1].priority
                ));
            }
        }
        Ok(())
    }

    /// Total TCAM bits consumed: each entry stores value and mask, so
    /// `entries × key_bits × 2`.
    pub fn tcam_bits(&self) -> usize {
        self.entries.len() * self.key_width * 8 * 2
    }

    /// Removes entries fully covered by an earlier (higher-priority or
    /// equal-priority-earlier) entry — they can never fire. Returns the
    /// number removed.
    pub fn remove_shadowed(&mut self) -> usize {
        let mut keep: Vec<TernaryEntry> = Vec::with_capacity(self.entries.len());
        let mut removed = 0usize;
        for entry in self.entries.drain(..) {
            if keep.iter().any(|earlier| earlier.covers(&entry)) {
                removed += 1;
            } else {
                keep.push(entry);
            }
        }
        self.entries = keep;
        removed
    }

    /// Merges sibling entries — same mask, same class, same priority,
    /// values differing in exactly one cared bit — into one entry with that
    /// bit wildcarded, and folds exact duplicates. Runs to fixpoint per
    /// priority level. Returns the number of rows merging removed.
    ///
    /// This is a driver over [`cube::merge_siblings`], which owns the
    /// merge decision: it splits the entries into equal-priority levels,
    /// hands each level over labelled by class, and writes the survivors
    /// back (masked values, in the order of the earliest entry each stands
    /// for). The pass is semantics-preserving for **arbitrary** rule sets,
    /// not just tree-compiler output: within one priority level,
    /// [`RuleSet::classify`] is first-match-wins, so a level where two
    /// entries of different classes overlap is passed through byte-for-byte
    /// in its original order.
    pub fn merge_siblings(&mut self) -> usize {
        let before = self.entries.len();
        let mut merged: Vec<TernaryEntry> = Vec::with_capacity(before);
        let mut entries = std::mem::take(&mut self.entries).into_iter().peekable();
        while let Some(first) = entries.next() {
            let priority = first.priority;
            let mut level = vec![first];
            while let Some(e) = entries.next_if(|e| e.priority == priority) {
                level.push(e);
            }
            let cubes = level
                .into_iter()
                .enumerate()
                .map(|(i, e)| Cube {
                    value: e.value,
                    mask: e.mask,
                    label: e.class,
                    sources: vec![i as u64],
                })
                .collect();
            merged.extend(
                cube::merge_siblings(cubes)
                    .into_iter()
                    .map(|c| TernaryEntry::new(c.value, c.mask, c.label, priority)),
            );
        }
        self.entries = merged;
        before - self.entries.len()
    }

    /// Runs both optimization passes; returns the rows removed by
    /// (merging, shadowing).
    pub fn optimize(&mut self) -> (usize, usize) {
        let merged = self.merge_siblings();
        let shadowed = self.remove_shadowed();
        (merged, shadowed)
    }

    /// Computes the entry-level difference from `self` to `next`: what a
    /// hot swap replacing this rule set with `next` adds and removes.
    ///
    /// Entries are compared as multisets of `(value & mask, mask, class,
    /// priority)` — order does not matter, duplicates count, and value
    /// bits under wildcarded mask positions are ignored (two encodings of
    /// the same ternary rule never show up as churn). Swap reports use
    /// this to tell operators what actually changed in the data plane;
    /// reported entries carry the masked value.
    pub fn diff(&self, next: &RuleSet) -> RuleSetDiff {
        use std::collections::BTreeMap;
        type Key = (Vec<u8>, Vec<u8>, usize, i32);
        let key = |e: &TernaryEntry| {
            let masked: Vec<u8> = e.value.iter().zip(&e.mask).map(|(&v, &m)| v & m).collect();
            (masked, e.mask.clone(), e.class, e.priority)
        };
        let mut counts: BTreeMap<Key, i64> = BTreeMap::new();
        for e in &self.entries {
            *counts.entry(key(e)).or_insert(0) -= 1;
        }
        for e in &next.entries {
            *counts.entry(key(e)).or_insert(0) += 1;
        }
        let mut diff = RuleSetDiff::default();
        for ((value, mask, class, priority), n) in counts {
            let entry = TernaryEntry::new(value, mask, class, priority);
            for _ in 0..n.abs() {
                if n > 0 {
                    diff.added.push(entry.clone());
                } else {
                    diff.removed.push(entry.clone());
                }
            }
        }
        diff
    }
}

/// The entry-level change between two rule sets (see [`RuleSet::diff`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleSetDiff {
    /// Entries present in the new rule set but not the old.
    pub added: Vec<TernaryEntry>,
    /// Entries present in the old rule set but not the new.
    pub removed: Vec<TernaryEntry>,
}

impl RuleSetDiff {
    /// Returns `true` when the rule sets hold the same entries.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total entries touched by the swap.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

impl fmt::Display for RuleSetDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{} -{} entries", self.added.len(), self.removed.len())
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ruleset: {} entries over {}-byte key, default class {}",
            self.entries.len(),
            self.key_width,
            self.default_class
        )?;
        for e in &self.entries {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: u8, mask: u8, class: usize, priority: i32) -> TernaryEntry {
        TernaryEntry::new(vec![value], vec![mask], class, priority)
    }

    #[test]
    fn classify_respects_priority() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0x10, 0xf0, 1, 5)); // 0x10..=0x1f -> 1
        rs.push(entry(0x17, 0xff, 2, 10)); // 0x17 -> 2 (higher priority)
        assert_eq!(rs.classify(&[0x17]), 2);
        assert_eq!(rs.classify(&[0x12]), 1);
        assert_eq!(rs.classify(&[0x99]), 0);
        // Entries are stored in priority order.
        assert_eq!(rs.entries()[0].priority, 10);
    }

    #[test]
    fn push_is_stable_for_equal_priorities() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0x01, 0xff, 1, 5));
        rs.push(entry(0x02, 0xff, 2, 5));
        assert_eq!(rs.entries()[0].class, 1);
        assert_eq!(rs.entries()[1].class, 2);
    }

    #[test]
    fn remove_shadowed_drops_dead_entries() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0x00, 0x00, 1, 10)); // wildcard, covers everything
        rs.push(entry(0x42, 0xff, 2, 5)); // can never fire
        let removed = rs.remove_shadowed();
        assert_eq!(removed, 1);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.classify(&[0x42]), 1);
    }

    #[test]
    fn merge_siblings_collapses_adjacent_prefixes() {
        let mut rs = RuleSet::new(1, 0);
        // 0b0000_000x pair → one entry 0b0000_000*.
        rs.push(entry(0b0000_0000, 0xff, 1, 5));
        rs.push(entry(0b0000_0001, 0xff, 1, 5));
        let merges = rs.merge_siblings();
        assert_eq!(merges, 1);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.entries()[0].mask[0], 0xfe);
        assert_eq!(rs.classify(&[0]), 1);
        assert_eq!(rs.classify(&[1]), 1);
        assert_eq!(rs.classify(&[2]), 0);
    }

    #[test]
    fn merge_cascades_to_fixpoint() {
        let mut rs = RuleSet::new(1, 0);
        // Four exact entries 4..=7 collapse to one /6-style entry.
        for v in 4..=7u8 {
            rs.push(entry(v, 0xff, 1, 5));
        }
        let merges = rs.merge_siblings();
        assert_eq!(merges, 3);
        assert_eq!(rs.len(), 1);
        for v in 0..=255u8 {
            assert_eq!(rs.classify(&[v]), usize::from((4..=7).contains(&v)));
        }
    }

    #[test]
    fn merge_leaves_order_dependent_levels_untouched() {
        let mut rs = RuleSet::new(1, 0);
        // Two mergeable exact entries, then a same-priority wildcard
        // fallback of a different class: first-match-wins order is load-
        // bearing here, so the whole level must pass through unchanged.
        rs.push(entry(0x02, 0xff, 2, 5));
        rs.push(entry(0x03, 0xff, 2, 5));
        rs.push(entry(0x00, 0x00, 1, 5));
        let before = rs.entries().to_vec();
        assert_eq!(rs.merge_siblings(), 0);
        assert_eq!(rs.entries(), &before[..]);
        assert_eq!(rs.classify(&[0x02]), 2);
        assert_eq!(rs.classify(&[0x07]), 1);
    }

    #[test]
    fn merge_handles_disjoint_multi_class_levels() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0x10, 0xff, 1, 5));
        rs.push(entry(0x11, 0xff, 1, 5));
        rs.push(entry(0x20, 0xff, 2, 5)); // disjoint, order-free level
        assert_eq!(rs.merge_siblings(), 1);
        assert_eq!(rs.len(), 2);
        for v in 0..=255u8 {
            let expect = match v {
                0x10 | 0x11 => 1,
                0x20 => 2,
                _ => 0,
            };
            assert_eq!(rs.classify(&[v]), expect);
        }
    }

    #[test]
    fn merge_does_not_mix_classes_or_priorities() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0x00, 0xff, 1, 5));
        rs.push(entry(0x01, 0xff, 2, 5)); // different class
        rs.push(entry(0x02, 0xff, 1, 6)); // different priority
        assert_eq!(rs.merge_siblings(), 0);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn merge_counts_rows_removed_including_folded_duplicates() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0x04, 0xff, 1, 5));
        rs.push(entry(0x04, 0xff, 1, 5)); // duplicate
        rs.push(entry(0x05, 0xff, 1, 5)); // sibling
        assert_eq!(rs.merge_siblings(), 2);
        assert_eq!(rs.entries(), &[entry(0x04, 0xfe, 1, 5)]);
    }

    #[test]
    fn validate_accepts_pushed_sets_and_names_the_offending_entry() {
        let mut rs = RuleSet::new(2, 0);
        rs.push(TernaryEntry::new(vec![1, 2], vec![0xff, 0xff], 1, 1));
        rs.push(TernaryEntry::new(vec![3, 4], vec![0xff, 0x00], 1, 7));
        assert_eq!(rs.validate(), Ok(()));
        // Deserialization bypasses `push` and `TernaryEntry::new`; build
        // what it can produce field by field.
        let raw = |value: Vec<u8>, mask: Vec<u8>, priority: i32| TernaryEntry {
            value,
            mask,
            class: 1,
            priority,
        };
        let ragged = RuleSet {
            key_width: 2,
            entries: vec![raw(vec![1], vec![0xff, 0xff], 1)],
            default_class: 0,
        };
        let err = ragged.validate().unwrap_err();
        assert!(err.starts_with("entry 0:"), "{err}");
        let unsorted = RuleSet {
            key_width: 1,
            entries: vec![raw(vec![1], vec![0xff], 1), raw(vec![2], vec![0xff], 2)],
            default_class: 0,
        };
        let err = unsorted.validate().unwrap_err();
        assert!(err.starts_with("entry 1:"), "{err}");
    }

    #[test]
    fn tcam_bits_accounting() {
        let mut rs = RuleSet::new(4, 0);
        assert_eq!(rs.tcam_bits(), 0);
        rs.push(TernaryEntry::new(vec![0; 4], vec![0xff; 4], 1, 0));
        rs.push(TernaryEntry::new(vec![1; 4], vec![0xff; 4], 1, 0));
        assert_eq!(rs.tcam_bits(), 2 * 4 * 8 * 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_entry_panics() {
        let mut rs = RuleSet::new(2, 0);
        rs.push(entry(0x00, 0xff, 1, 0));
    }

    #[test]
    fn diff_reports_added_and_removed() {
        let mut old = RuleSet::new(1, 0);
        old.push(entry(0x01, 0xff, 1, 5));
        old.push(entry(0x02, 0xff, 1, 5));
        let mut new = RuleSet::new(1, 0);
        new.push(entry(0x02, 0xff, 1, 5)); // kept
        new.push(entry(0x03, 0xff, 2, 7)); // added
        let diff = old.diff(&new);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.added[0].value, vec![0x03]);
        assert_eq!(diff.removed[0].value, vec![0x01]);
        assert_eq!(diff.churn(), 2);
        assert_eq!(diff.to_string(), "+1 -1 entries");
        // Identical sets (order-insensitive) diff to empty.
        let mut reordered = RuleSet::new(1, 0);
        reordered.push(entry(0x02, 0xff, 1, 5));
        reordered.push(entry(0x01, 0xff, 1, 5));
        assert!(old.diff(&reordered).is_empty());
        // Duplicates count as a multiset.
        let mut doubled = RuleSet::new(1, 0);
        doubled.push(entry(0x01, 0xff, 1, 5));
        doubled.push(entry(0x01, 0xff, 1, 5));
        let d = old.diff(&doubled);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
    }

    #[test]
    fn diff_ignores_uncared_value_bits() {
        // Same rule, two encodings: the low nibble is wildcarded, so the
        // value bits there are noise. The diff must be empty — otherwise
        // every recompile would churn remove+add pairs for rules that
        // did not change.
        let mut old = RuleSet::new(1, 0);
        old.push(entry(0x5f, 0xf0, 1, 3));
        let mut new = RuleSet::new(1, 0);
        new.push(entry(0x50, 0xf0, 1, 3));
        assert!(old.diff(&new).is_empty());
        // And reported entries carry the masked value.
        let empty = RuleSet::new(1, 0);
        let d = old.diff(&empty);
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.removed[0].value, vec![0x50]);
    }

    #[test]
    fn diff_priority_only_change_is_remove_plus_add() {
        // A priority bump on an otherwise identical entry is semantically
        // delete+insert: the data plane has no in-place priority update.
        let mut old = RuleSet::new(1, 0);
        old.push(entry(0x01, 0xff, 1, 3));
        let mut new = RuleSet::new(1, 0);
        new.push(entry(0x01, 0xff, 1, 7));
        let d = old.diff(&new);
        assert_eq!((d.added.len(), d.removed.len()), (1, 1));
        assert_eq!(d.added[0].priority, 7);
        assert_eq!(d.removed[0].priority, 3);
    }

    #[test]
    fn diff_class_only_change_is_remove_plus_add() {
        // Likewise a class flip: the installed action changes, which the
        // delta path applies as remove-then-insert, never modify-in-place.
        let mut old = RuleSet::new(1, 0);
        old.push(entry(0x01, 0xff, 1, 3));
        let mut new = RuleSet::new(1, 0);
        new.push(entry(0x01, 0xff, 2, 3));
        let d = old.diff(&new);
        assert_eq!((d.added.len(), d.removed.len()), (1, 1));
        assert_eq!(d.added[0].class, 2);
        assert_eq!(d.removed[0].class, 1);
    }

    #[test]
    fn diff_emptied_then_repopulated_round_trips() {
        let mut old = RuleSet::new(1, 0);
        old.push(entry(0x01, 0xff, 1, 3));
        old.push(entry(0x02, 0xff, 1, 3));
        let empty = RuleSet::new(1, 0);
        let drain = old.diff(&empty);
        assert_eq!((drain.added.len(), drain.removed.len()), (0, 2));
        let refill = empty.diff(&old);
        assert_eq!((refill.added.len(), refill.removed.len()), (2, 0));
        // Drain followed by refill nets to the identity.
        assert!(old.diff(&old).is_empty());
    }

    #[test]
    fn display_lists_entries() {
        let mut rs = RuleSet::new(1, 0);
        rs.push(entry(0xff, 0xff, 1, 1));
        let s = rs.to_string();
        assert!(s.contains("1 entries"));
        assert!(s.contains("11111111"));
    }
}
