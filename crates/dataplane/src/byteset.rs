//! Sets of byte values: what a match entry accepts at one key position.
//!
//! Every ternary, range and LPM entry is a conjunction of per-byte
//! predicates, so one [`ByteSet`] per key position says exactly which keys
//! it matches. Minimization folds entries as sets, and the bit-vector
//! engine refines its per-position classes over them, whatever match kind
//! the entries came from.

use crate::table::{prefix_mask, MatchSpec};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A set of byte values: bit `b % 64` of word `b / 64` holds byte `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ByteSet(pub [u64; 4]);

/// Per low bit of a byte, the byte values `0..64` that have it set.
const LOW_BITS: [u64; 6] = [
    0xaaaa_aaaa_aaaa_aaaa,
    0xcccc_cccc_cccc_cccc,
    0xf0f0_f0f0_f0f0_f0f0,
    0xff00_ff00_ff00_ff00,
    0xffff_0000_ffff_0000,
    0xffff_ffff_0000_0000,
];

impl ByteSet {
    /// Every byte value.
    pub const ANY: ByteSet = ByteSet([u64::MAX; 4]);

    /// The bytes with `byte & mask == value & mask`: the low six bits pick
    /// a pattern within a word, the high two the words that hold it.
    pub fn masked(mask: u8, value: u8) -> ByteSet {
        let mut word = u64::MAX;
        for (bit, pattern) in LOW_BITS.iter().enumerate() {
            // All ones where the mask cares for the bit, and where the
            // value has it: a cared bit keeps the bytes that agree.
            let care = 0u64.wrapping_sub(u64::from(mask >> bit & 1));
            let set = 0u64.wrapping_sub(u64::from(value >> bit & 1));
            word &= !(care & (pattern ^ set));
        }
        let (high_mask, high_value) = (mask >> 6, value >> 6 & mask >> 6);
        let mut set = [0; 4];
        for (high, slot) in (0u8..).zip(&mut set) {
            if high & high_mask == high_value {
                *slot = word;
            }
        }
        ByteSet(set)
    }

    /// The bytes `lo..=hi`.
    pub fn between(lo: u8, hi: u8) -> ByteSet {
        let (lo, hi) = (usize::from(lo), usize::from(hi));
        let mut set = [0; 4];
        for (w, slot) in set.iter_mut().enumerate() {
            let (from, to) = (lo.max(w * 64), hi.min(w * 64 + 63));
            if from <= to {
                *slot = u64::MAX >> (63 - (to - w * 64)) & u64::MAX << (from - w * 64);
            }
        }
        ByteSet(set)
    }

    /// What `spec` accepts at key position `pos`: an exact byte is a whole
    /// mask, and a prefix masks the bits `table::prefix_mask` says it fixes
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the spec's width.
    pub fn of(spec: &MatchSpec, pos: usize) -> ByteSet {
        match spec {
            MatchSpec::Ternary { value, mask } => ByteSet::masked(mask[pos], value[pos]),
            MatchSpec::Range { lo, hi } => ByteSet::between(lo[pos], hi[pos]),
            MatchSpec::Exact(value) => ByteSet::masked(0xff, value[pos]),
            MatchSpec::Lpm { value, prefix_len } => {
                ByteSet::masked(prefix_mask(*prefix_len, pos), value[pos])
            }
        }
    }

    /// Whether `byte` is in the set.
    pub fn contains(&self, byte: u8) -> bool {
        self.0[usize::from(byte / 64)] >> (byte % 64) & 1 == 1
    }

    /// How many byte values the set holds.
    pub fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Returns `true` when no byte value is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Every byte value is in the set: an entry accepting it leaves the
    /// position free.
    pub fn is_any(&self) -> bool {
        *self == ByteSet::ANY
    }

    /// The smallest byte value in the set, 0 for the empty set.
    pub fn first(&self) -> u8 {
        self.0
            .iter()
            .enumerate()
            .find(|&(_, &word)| word != 0)
            .map_or(0, |(i, word)| {
                (i * 64 + word.trailing_zeros() as usize) as u8
            })
    }

    /// The byte values in the set, ascending; an exact byte costs one step,
    /// not 256 tests.
    pub fn bytes(self) -> impl Iterator<Item = u8> {
        (0..4).flat_map(move |w| {
            let mut word = self.0[w];
            std::iter::from_fn(move || {
                let bit = word.trailing_zeros();
                word &= word.checked_sub(1)?;
                Some((w * 64) as u8 | bit as u8)
            })
        })
    }

    /// The bytes in either set.
    pub fn union(self, other: ByteSet) -> ByteSet {
        ByteSet(std::array::from_fn(|i| self.0[i] | other.0[i]))
    }

    /// The bytes in both sets.
    pub fn intersection(self, other: ByteSet) -> ByteSet {
        ByteSet(std::array::from_fn(|i| self.0[i] & other.0[i]))
    }

    /// The bytes in this set and not in `other`.
    pub fn difference(self, other: ByteSet) -> ByteSet {
        ByteSet(std::array::from_fn(|i| self.0[i] & !other.0[i]))
    }

    /// Every byte of this set is in `other`.
    pub fn is_subset(&self, other: &ByteSet) -> bool {
        self.difference(*other).is_empty()
    }
}

/// A map keyed by byte sets, for numbering them: one multiply per word
/// instead of SipHash's rounds — the keys are the table's own sets, not
/// input an adversary picks to collide.
pub(crate) type ByteSetMap<V> = HashMap<ByteSet, V, BuildHasherDefault<WordHasher>>;

/// Folds each word in with a rotate, an xor and a multiply, and mixes
/// the high bits down at the end (the map picks buckets by the low ones).
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        let h = (self.0 ^ self.0 >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ h >> 33
    }

    /// A set's words arrive as one run of bytes, eight at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_intervals_hold_exactly_their_bytes() {
        for (mask, value) in [
            (0x00, 0x00),
            (0xff, 0x00),
            (0xff, 0xc3),
            (0xf0, 0x5a),
            (0x5a, 0xff),
        ] {
            let set = ByteSet::masked(mask, value);
            for byte in 0..=255u8 {
                assert_eq!(
                    set.contains(byte),
                    byte & mask == value & mask,
                    "{mask:#x}/{value:#x} {byte}"
                );
            }
            assert_eq!(set.len(), 1 << mask.count_zeros());
            assert!(set.bytes().eq((0..=255u8).filter(|b| set.contains(*b))));
        }
        for (lo, hi) in [(0, 0), (0, 255), (63, 64), (5, 200), (255, 255), (128, 191)] {
            let set = ByteSet::between(lo, hi);
            assert!(set.bytes().eq(lo..=hi), "{lo}..={hi}");
            assert_eq!(set.first(), lo);
        }
        assert!(ByteSet::masked(0, 0).is_any());
        assert!(ByteSet::between(3, 4).is_subset(&ByteSet::between(0, 9)));
        assert!(!ByteSet::between(3, 10).is_subset(&ByteSet::between(0, 9)));
    }
}
