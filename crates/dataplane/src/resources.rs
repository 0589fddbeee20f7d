//! Data-plane resource accounting: the TCAM/SRAM cost model behind
//! efficiency experiment F3.
//!
//! The model follows standard switch-ASIC costing: exact-match tables live
//! in SRAM at one key width per entry; ternary, LPM and range tables live
//! in TCAM at two words per entry (value + mask, or low + high bound).

use crate::table::{MatchKind, Table};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The memory type a table consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryKind {
    /// Hash-table SRAM.
    Sram,
    /// Ternary CAM.
    Tcam,
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryKind::Sram => write!(f, "sram"),
            MemoryKind::Tcam => write!(f, "tcam"),
        }
    }
}

/// Bits one entry of the given kind consumes per key bit.
pub fn bits_per_key_bit(kind: MatchKind) -> usize {
    match kind {
        MatchKind::Exact => 1,
        MatchKind::Ternary | MatchKind::Lpm | MatchKind::Range => 2,
    }
}

/// The memory type for a match kind.
pub fn memory_kind(kind: MatchKind) -> MemoryKind {
    match kind {
        MatchKind::Exact => MemoryKind::Sram,
        _ => MemoryKind::Tcam,
    }
}

/// Usage of one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableUsage {
    /// Table name.
    pub name: String,
    /// Match kind.
    pub kind: MatchKind,
    /// Memory type.
    pub memory: MemoryKind,
    /// Installed entries.
    pub entries: usize,
    /// Capacity in entries.
    pub capacity: usize,
    /// Key width in bits.
    pub key_bits: usize,
    /// Bits consumed per installed entry.
    pub bits_per_entry: usize,
    /// Total bits consumed.
    pub total_bits: usize,
    /// Entries the table's ternary form holds after subsumed-entry
    /// elimination and one-bit sibling merging
    /// ([`ternary_rows`](crate::minimize::ternary_rows)): what a switch's
    /// memory holds, not the rows the compiled engine indexes, which fold
    /// further.
    #[serde(default)]
    pub minimized_entries: usize,
    /// Bits the minimized form consumes; `<= total_bits`.
    #[serde(default)]
    pub minimized_bits: usize,
}

impl TableUsage {
    /// Computes usage of one table.
    pub fn of(table: &Table) -> Self {
        let key_bits = table.key().bits();
        let bits_per_entry = key_bits * bits_per_key_bit(table.kind());
        let minimized_entries = crate::minimize::ternary_rows(table.entries());
        TableUsage {
            name: table.name().to_owned(),
            kind: table.kind(),
            memory: memory_kind(table.kind()),
            entries: table.len(),
            capacity: table.capacity(),
            key_bits,
            bits_per_entry,
            total_bits: bits_per_entry * table.len(),
            minimized_entries,
            minimized_bits: bits_per_entry * minimized_entries,
        }
    }

    /// Entry occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.entries as f64 / self.capacity as f64
        }
    }

    /// Bits still available before the table hits its entry capacity.
    pub fn headroom_bits(&self) -> usize {
        self.capacity.saturating_sub(self.entries) * self.bits_per_entry
    }
}

/// Aggregate usage across a switch's tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchResources {
    /// Per-table usage, pipeline order.
    pub tables: Vec<TableUsage>,
    /// Total TCAM bits.
    pub tcam_bits: usize,
    /// Total SRAM bits.
    pub sram_bits: usize,
    /// Installed entries across TCAM tables.
    pub tcam_entries: usize,
    /// Installed entries across SRAM tables.
    pub sram_entries: usize,
    /// TCAM bits after ternary minimization — what the tables' ternary
    /// forms occupy in a switch; `<= tcam_bits`.
    #[serde(default)]
    pub tcam_bits_minimized: usize,
    /// TCAM entries after ternary minimization.
    #[serde(default)]
    pub tcam_entries_minimized: usize,
}

impl SwitchResources {
    /// Aggregates usage over `tables`.
    pub fn of(tables: &[Table]) -> Self {
        let usages: Vec<TableUsage> = tables.iter().map(TableUsage::of).collect();
        let mut tcam_bits = 0;
        let mut sram_bits = 0;
        let mut tcam_entries = 0;
        let mut sram_entries = 0;
        let mut tcam_bits_minimized = 0;
        let mut tcam_entries_minimized = 0;
        for u in &usages {
            match u.memory {
                MemoryKind::Tcam => {
                    tcam_bits += u.total_bits;
                    tcam_entries += u.entries;
                    tcam_bits_minimized += u.minimized_bits;
                    tcam_entries_minimized += u.minimized_entries;
                }
                MemoryKind::Sram => {
                    sram_bits += u.total_bits;
                    sram_entries += u.entries;
                }
            }
        }
        SwitchResources {
            tables: usages,
            tcam_bits,
            sram_bits,
            tcam_entries,
            sram_entries,
            tcam_bits_minimized,
            tcam_entries_minimized,
        }
    }

    /// Bits still available before any table of `memory` fills, summed
    /// across the pipeline.
    pub fn headroom_bits(&self, memory: MemoryKind) -> usize {
        self.tables
            .iter()
            .filter(|u| u.memory == memory)
            .map(TableUsage::headroom_bits)
            .sum()
    }
}

impl fmt::Display for SwitchResources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "resources: {} tcam bits ({} minimized), {} sram bits",
            self.tcam_bits, self.tcam_bits_minimized, self.sram_bits
        )?;
        for u in &self.tables {
            writeln!(
                f,
                "  {:<16} {:<7} {:>6}/{:<6} entries × {:>4} bits = {:>8} bits ({})",
                u.name,
                u.kind.to_string(),
                u.entries,
                u.capacity,
                u.bits_per_entry,
                u.total_bits,
                u.memory
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::key::KeyLayout;
    use crate::table::MatchSpec;

    fn ternary_table_with(entries: usize) -> Table {
        let mut t = Table::new(
            "acl",
            MatchKind::Ternary,
            KeyLayout::window(8),
            1024,
            Action::NoOp,
        );
        for i in 0..entries {
            t.insert(
                MatchSpec::Ternary {
                    value: vec![i as u8; 8],
                    mask: vec![0xff; 8],
                },
                Action::Drop,
                0,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn ternary_costs_double() {
        let t = ternary_table_with(10);
        let u = TableUsage::of(&t);
        assert_eq!(u.key_bits, 64);
        assert_eq!(u.bits_per_entry, 128);
        assert_eq!(u.total_bits, 1280);
        assert_eq!(u.memory, MemoryKind::Tcam);
        assert!((u.occupancy() - 10.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn exact_costs_single_and_lands_in_sram() {
        let mut t = Table::new(
            "fwd",
            MatchKind::Exact,
            KeyLayout::window(6),
            128,
            Action::NoOp,
        );
        t.insert(MatchSpec::Exact(vec![0; 6]), Action::Forward(1), 0)
            .unwrap();
        let u = TableUsage::of(&t);
        assert_eq!(u.bits_per_entry, 48);
        assert_eq!(u.memory, MemoryKind::Sram);
    }

    #[test]
    fn aggregate_splits_memories() {
        let mut exact = Table::new(
            "fwd",
            MatchKind::Exact,
            KeyLayout::window(6),
            128,
            Action::NoOp,
        );
        exact
            .insert(MatchSpec::Exact(vec![0; 6]), Action::Forward(1), 0)
            .unwrap();
        let tables = vec![exact, ternary_table_with(2)];
        let r = SwitchResources::of(&tables);
        assert_eq!(r.sram_bits, 48);
        assert_eq!(r.tcam_bits, 2 * 128);
        assert_eq!(r.sram_entries, 1);
        assert_eq!(r.tcam_entries, 2);
        assert!(r.to_string().contains("acl"));
    }

    #[test]
    fn minimized_usage_reflects_merged_entries() {
        // Two sibling entries (values differ in exactly one cared bit,
        // same mask and action) fold into one minimized row.
        let mut t = Table::new(
            "acl",
            MatchKind::Ternary,
            KeyLayout::window(1),
            16,
            Action::NoOp,
        );
        for v in [0x00u8, 0x01] {
            t.insert(
                MatchSpec::Ternary {
                    value: vec![v],
                    mask: vec![0xff],
                },
                Action::Drop,
                1,
            )
            .unwrap();
        }
        let u = TableUsage::of(&t);
        assert_eq!(u.entries, 2);
        assert_eq!(u.minimized_entries, 1);
        assert_eq!(u.minimized_bits, u.bits_per_entry);
        assert_eq!(u.total_bits, 2 * u.bits_per_entry);
        let r = SwitchResources::of(std::slice::from_ref(&t));
        assert_eq!(r.tcam_entries, 2);
        assert_eq!(r.tcam_entries_minimized, 1);
        assert_eq!(r.tcam_bits_minimized, u.bits_per_entry);
        assert!(r.to_string().contains("minimized"));
    }

    #[test]
    fn headroom_tracks_remaining_capacity() {
        let t = ternary_table_with(10);
        let u = TableUsage::of(&t);
        assert_eq!(u.headroom_bits(), (1024 - 10) * 128);
        let r = SwitchResources::of(std::slice::from_ref(&t));
        assert_eq!(r.headroom_bits(MemoryKind::Tcam), (1024 - 10) * 128);
        assert_eq!(r.headroom_bits(MemoryKind::Sram), 0);
    }
}
