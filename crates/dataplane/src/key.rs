//! Match-key construction: which frame bytes a table matches on.
//!
//! This is where P4's programmability shows up in the model: the key layout
//! is an arbitrary list of byte offsets into the frame, not a fixed header
//! tuple — exactly the capability the paper's stage 1 exploits.

use serde::{Deserialize, Serialize};

/// A table's key layout: the frame byte offsets concatenated into the
/// match key, in order. Offsets beyond the frame read as zero (the
/// zero-padding convention the feature extractor also uses).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyLayout {
    offsets: Vec<usize>,
}

impl KeyLayout {
    /// Creates a layout from byte offsets.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "key layout needs at least one byte");
        KeyLayout { offsets }
    }

    /// A contiguous window `[0, width)` — the stage-1 raw-bytes layout.
    pub fn window(width: usize) -> Self {
        KeyLayout::new((0..width).collect())
    }

    /// The classic OpenFlow-style IPv4 5-tuple on untagged Ethernet frames:
    /// protocol, src, dst, and the transport port bytes.
    pub fn five_tuple() -> Self {
        let mut offsets = vec![23]; // ipv4.protocol
        offsets.extend(26..30); // ipv4.src
        offsets.extend(30..34); // ipv4.dst
        offsets.extend(34..38); // l4 ports
        KeyLayout::new(offsets)
    }

    /// Key width in bytes.
    pub fn width(&self) -> usize {
        self.offsets.len()
    }

    /// Key width in bits.
    pub fn bits(&self) -> usize {
        self.offsets.len() * 8
    }

    /// Borrows the offsets.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Builds the match key for `frame`.
    pub fn build_key(&self, frame: &[u8]) -> Vec<u8> {
        let mut key = vec![0u8; self.width()];
        self.build_key_into(frame, &mut key);
        key
    }

    /// Builds the key into a caller-provided buffer (hot path, no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.width()`.
    pub fn build_key_into(&self, frame: &[u8], out: &mut [u8]) {
        assert_eq!(out.len(), self.width(), "key buffer width mismatch");
        for (slot, &o) in out.iter_mut().zip(&self.offsets) {
            *slot = frame.get(o).copied().unwrap_or(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_layout() {
        let l = KeyLayout::window(4);
        assert_eq!(l.width(), 4);
        assert_eq!(l.bits(), 32);
        assert_eq!(l.build_key(&[9, 8, 7, 6, 5]), vec![9, 8, 7, 6]);
    }

    #[test]
    fn short_frames_zero_pad() {
        let l = KeyLayout::new(vec![0, 10, 2]);
        assert_eq!(l.build_key(&[1, 2, 3]), vec![1, 0, 3]);
    }

    #[test]
    fn build_key_into_matches_build_key() {
        let l = KeyLayout::new(vec![3, 1]);
        let frame = [10, 11, 12, 13];
        let mut buf = vec![0u8; 2];
        l.build_key_into(&frame, &mut buf);
        assert_eq!(buf, l.build_key(&frame));
        assert_eq!(buf, vec![13, 11]);
    }

    #[test]
    fn five_tuple_width() {
        let l = KeyLayout::five_tuple();
        assert_eq!(l.width(), 13);
        assert_eq!(l.bits(), 104);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn empty_layout_panics() {
        let _ = KeyLayout::new(vec![]);
    }
}
