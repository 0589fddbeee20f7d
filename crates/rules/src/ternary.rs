//! Ternary (value/mask) match entries and range→prefix expansion.
//!
//! TCAM hardware matches keys against value/mask pairs; a byte range
//! `[lo, hi]` from a tree path must be expanded into a minimal set of
//! prefixes. This module implements the classic greedy aligned-block cover,
//! which is optimal for prefix expansion of a contiguous range.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One ternary match over a multi-byte key: a key matches when
/// `key & mask == value & mask`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TernaryEntry {
    /// Match value, one byte per key byte.
    pub value: Vec<u8>,
    /// Match mask; `1` bits are compared, `0` bits are wildcards.
    pub mask: Vec<u8>,
    /// The class (action index) this entry selects.
    pub class: usize,
    /// Match priority; higher wins when entries overlap.
    pub priority: i32,
}

impl TernaryEntry {
    /// Creates an entry.
    ///
    /// # Panics
    ///
    /// Panics if `value` and `mask` lengths differ.
    pub fn new(value: Vec<u8>, mask: Vec<u8>, class: usize, priority: i32) -> Self {
        assert_eq!(value.len(), mask.len(), "value/mask width mismatch");
        TernaryEntry {
            value,
            mask,
            class,
            priority,
        }
    }

    /// Key width in bytes.
    pub fn width(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if `key` matches this entry.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the entry width.
    pub fn matches(&self, key: &[u8]) -> bool {
        assert_eq!(key.len(), self.width(), "key width mismatch");
        key.iter()
            .zip(&self.value)
            .zip(&self.mask)
            .all(|((&k, &v), &m)| k & m == v & m)
    }

    /// Returns `true` if every key matching `other` also matches `self`
    /// (i.e. `self` covers `other`).
    pub fn covers(&self, other: &TernaryEntry) -> bool {
        crate::cube::covers(&self.value, &self.mask, &other.value, &other.mask)
    }

    /// Number of exactly-matched (non-wildcard) bits.
    pub fn exact_bits(&self) -> usize {
        self.mask.iter().map(|m| m.count_ones() as usize).sum()
    }
}

impl fmt::Display for TernaryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (v, m) in self.value.iter().zip(&self.mask) {
            for bit in (0..8).rev() {
                let mask_bit = (m >> bit) & 1;
                if mask_bit == 0 {
                    write!(f, "*")?;
                } else {
                    write!(f, "{}", (v >> bit) & 1)?;
                }
            }
            write!(f, " ")?;
        }
        write!(f, "-> class {} (prio {})", self.class, self.priority)
    }
}

/// An 8-bit prefix: `value` with the top `prefix_len` bits fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BytePrefix {
    /// Fixed-bit values (low bits zero).
    pub value: u8,
    /// Mask with `1`s on the fixed high bits.
    pub mask: u8,
}

impl BytePrefix {
    /// Returns `true` if `v` falls inside this prefix.
    pub fn contains(&self, v: u8) -> bool {
        v & self.mask == self.value & self.mask
    }
}

/// Expands the inclusive byte range `[lo, hi]` into a minimal set of
/// aligned prefixes.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn range_to_prefixes(lo: u8, hi: u8) -> Vec<BytePrefix> {
    assert!(lo <= hi, "empty range [{lo}, {hi}]");
    let mut prefixes = Vec::new();
    let mut cur = u16::from(lo);
    let end = u16::from(hi);
    while cur <= end {
        // Largest aligned block starting at cur that stays within the range.
        let align = if cur == 0 { 8 } else { cur.trailing_zeros() };
        let span_fit = (end - cur + 1).ilog2();
        let k = align.min(span_fit).min(8);
        let size = 1u16 << k;
        prefixes.push(BytePrefix {
            value: cur as u8,
            mask: (!(size - 1) & 0xff) as u8,
        });
        cur += size;
        if size == 256 {
            break;
        }
    }
    prefixes
}

/// Worst-case prefix count for one byte range (used by resource bounds).
pub const MAX_PREFIXES_PER_BYTE: usize = 14;

#[cfg(test)]
mod tests {
    use super::*;

    fn covered_set(prefixes: &[BytePrefix]) -> Vec<u8> {
        (0..=255u8)
            .filter(|&v| prefixes.iter().any(|p| p.contains(v)))
            .collect()
    }

    #[test]
    fn full_range_is_one_wildcard() {
        let p = range_to_prefixes(0, 255);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].mask, 0);
    }

    #[test]
    fn singleton_is_exact() {
        let p = range_to_prefixes(77, 77);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].value, 77);
        assert_eq!(p[0].mask, 0xff);
    }

    #[test]
    fn expansion_covers_exactly_the_range() {
        for (lo, hi) in [
            (0u8, 100u8),
            (1, 254),
            (13, 200),
            (128, 255),
            (0, 127),
            (37, 42),
        ] {
            let prefixes = range_to_prefixes(lo, hi);
            let covered = covered_set(&prefixes);
            let expected: Vec<u8> = (lo..=hi).collect();
            assert_eq!(covered, expected, "range [{lo}, {hi}] -> {prefixes:?}");
            // No overlaps: total size of prefixes equals range size.
            let total: usize = prefixes
                .iter()
                .map(|p| 1usize << (8 - p.mask.count_ones()))
                .sum();
            assert_eq!(total, (hi - lo) as usize + 1);
        }
    }

    #[test]
    fn worst_case_is_fourteen() {
        // [1, 254] is the classic worst case for 8 bits: 2·8 − 2 = 14.
        assert_eq!(range_to_prefixes(1, 254).len(), 14);
        for lo in 0..=255u8 {
            for hi in lo..=255u8 {
                // Spot-check the bound holds on a sparse grid.
                if (lo as usize + hi as usize).is_multiple_of(37) {
                    assert!(range_to_prefixes(lo, hi).len() <= MAX_PREFIXES_PER_BYTE);
                }
            }
        }
    }

    #[test]
    fn threshold_ranges_are_cheap() {
        // Tree splits generate ranges of the form [0, t] and [t+1, 255];
        // both expand to at most 8 prefixes.
        for t in 0..=254u8 {
            assert!(range_to_prefixes(0, t).len() <= 8);
            assert!(range_to_prefixes(t + 1, 255).len() <= 8);
        }
    }

    #[test]
    fn ternary_entry_matching() {
        let e = TernaryEntry::new(vec![0x17, 0x00], vec![0xff, 0x00], 1, 10);
        assert!(e.matches(&[0x17, 0x99]));
        assert!(!e.matches(&[0x18, 0x99]));
        assert_eq!(e.exact_bits(), 8);
        assert_eq!(e.width(), 2);
    }

    #[test]
    fn covers_relation() {
        let broad = TernaryEntry::new(vec![0x10], vec![0xf0], 1, 0);
        let narrow = TernaryEntry::new(vec![0x17], vec![0xff], 1, 0);
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        assert!(broad.covers(&broad));
        let other = TernaryEntry::new(vec![0x27], vec![0xff], 1, 0);
        assert!(!broad.covers(&other));
    }

    #[test]
    fn display_shows_wildcards() {
        let e = TernaryEntry::new(vec![0b1010_0000], vec![0b1111_0000], 1, 3);
        let s = e.to_string();
        assert!(s.starts_with("1010****"), "got {s}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_panics() {
        let _ = range_to_prefixes(10, 9);
    }
}
