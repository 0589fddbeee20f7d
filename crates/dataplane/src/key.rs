//! Match-key construction: which frame bytes a table matches on.
//!
//! This is where P4's programmability shows up in the model: the key layout
//! is an arbitrary list of byte offsets into the frame, not a fixed header
//! tuple — exactly the capability the paper's stage 1 exploits.
//!
//! [`KeyLayout::gather_into`] is the one frame → key gather; the batch
//! walker calls it once per stage with every alive frame (once per batch
//! with the union of a vote's layouts), and
//! [`KeyLayout::build_key_into`] is its one-frame case.

use serde::{Deserialize, Serialize};

/// A table's key layout: the frame byte offsets concatenated into the
/// match key, in order. Offsets beyond the frame read as zero (the
/// zero-padding convention the feature extractor also uses).
///
/// Serialized as its offsets alone; the gather plan is derived from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLayout {
    offsets: Vec<usize>,
    /// The first and last offset when the offsets are one ascending run
    /// (`offsets[i] == first + i`): the key of a frame that holds the run
    /// is then one slice copy.
    run: Option<(usize, usize)>,
}

/// [`KeyLayout`]'s serialized form.
mod form {
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub struct KeyLayout {
        pub offsets: Vec<usize>,
    }
}

impl Serialize for KeyLayout {
    fn to_value(&self) -> serde::Value {
        form::KeyLayout {
            offsets: self.offsets.clone(),
        }
        .to_value()
    }
}

impl Deserialize for KeyLayout {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        form::KeyLayout::from_value(v).map(|form| KeyLayout::planned(form.offsets))
    }
}

impl KeyLayout {
    /// Creates a layout from byte offsets.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "key layout needs at least one byte");
        KeyLayout::planned(offsets)
    }

    /// Derives the gather plan from `offsets` (any offsets: a deserialized
    /// layout is not held to [`KeyLayout::new`]'s rule).
    fn planned(offsets: Vec<usize>) -> Self {
        let one_run = offsets
            .windows(2)
            .all(|w| w[0].checked_add(1) == Some(w[1]));
        let run = match (offsets.first(), offsets.last()) {
            (Some(&first), Some(&last)) if one_run => Some((first, last)),
            _ => None,
        };
        KeyLayout { offsets, run }
    }

    /// `offsets` ascending and once each: the one key a vote pipeline
    /// gathers for all its stages (empty when there are none).
    pub(crate) fn union(offsets: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets: Vec<usize> = offsets.into_iter().collect();
        offsets.sort_unstable();
        offsets.dedup();
        KeyLayout::planned(offsets)
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
    /// allocation): [`KeyLayout::gather_into`] of one frame.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.width()`.
    pub fn build_key_into(&self, frame: &[u8], out: &mut [u8]) {
        assert_eq!(out.len(), self.width(), "key buffer width mismatch");
        self.gather_row(frame, out);
    }

    /// Gathers the key of each frame into consecutive `width`-byte rows of
    /// `out`, as many as there are both frames and whole rows: one slice
    /// copy when the offsets are one run and the frame holds it, otherwise
    /// one read per offset, zero past the frame's end.
    pub fn gather_into<'a>(&self, frames: impl IntoIterator<Item = &'a [u8]>, out: &mut [u8]) {
        if self.offsets.is_empty() {
            return;
        }
        for (row, frame) in out.chunks_exact_mut(self.width()).zip(frames) {
            self.gather_row(frame, row);
        }
    }

    /// The gather of one frame into one `width`-byte row. A plain function
    /// over one row rather than [`KeyLayout::gather_into`] of one frame:
    /// splitting a one-row buffer into rows costs a division, which a
    /// per-frame caller would pay on every key.
    ///
    /// Scattered offsets are read with the zero fallback even when the
    /// frame holds them all: frame lengths straddle a learned layout's
    /// deepest offset (63 on `gw_tree`), so a length test before direct
    /// reads mispredicts, and it measured slower than the branch-free read.
    #[inline(always)]
    fn gather_row(&self, frame: &[u8], row: &mut [u8]) {
        if let Some(key) = self.run.and_then(|(first, last)| frame.get(first..=last)) {
            row.copy_from_slice(key);
        } else {
            for (slot, &o) in row.iter_mut().zip(&self.offsets) {
                *slot = frame.get(o).copied().unwrap_or(0);
            }
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

    /// Frames of length 0, reach − 1, reach and reach + 1 (reach: one past
    /// the deepest offset) — and every length between — on runs and on
    /// scattered layouts, one frame at a time and as one batch, against the
    /// per-byte zero-padding gather.
    #[test]
    fn the_gather_plan_equals_the_per_byte_gather_at_every_length() {
        let layouts = [
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![5, 6, 7],
            vec![9],
            vec![0],
            vec![3, 1],
            vec![23, 26, 27, 34, 35],
            vec![4, 4, 5],
            vec![2, 3, 5, 6],
        ];
        for offsets in layouts {
            let layout = KeyLayout::new(offsets.clone());
            let reach = offsets.iter().max().unwrap() + 1;
            let frames: Vec<Vec<u8>> = (0..=reach + 1)
                .map(|len| (0..len).map(|b| b as u8 ^ 0xa5).collect())
                .collect();
            let reference: Vec<u8> = frames
                .iter()
                .flat_map(|f| offsets.iter().map(|&o| f.get(o).copied().unwrap_or(0)))
                .collect();
            let mut batch = vec![0xee; reference.len()];
            layout.gather_into(frames.iter().map(Vec::as_slice), &mut batch);
            assert_eq!(batch, reference, "{offsets:?} as one batch");
            for (frame, want) in frames.iter().zip(reference.chunks(offsets.len())) {
                assert_eq!(
                    layout.build_key(frame),
                    want,
                    "{offsets:?}, {} B",
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn runs_are_found_and_scattered_layouts_are_not_runs() {
        let run = |offsets: Vec<usize>| KeyLayout::new(offsets).run;
        assert_eq!(run(vec![0, 1, 2, 3]), Some((0, 3)));
        assert_eq!(run(vec![34, 35, 36]), Some((34, 36)));
        assert_eq!(run(vec![7]), Some((7, 7)));
        assert_eq!(run(vec![3, 1]), None);
        assert_eq!(run(vec![4, 4, 5]), None);
        assert_eq!(run(vec![0, 1, 3]), None);
        // A run ending at the last offset there is never overflows.
        let far = KeyLayout::new(vec![usize::MAX - 1, usize::MAX]);
        assert_eq!(far.run, Some((usize::MAX - 1, usize::MAX)));
        assert_eq!(far.build_key(&[1, 2, 3]), [0, 0]);
    }

    #[test]
    fn serialized_form_is_the_offsets_alone() {
        let layout = KeyLayout::new(vec![23, 30, 31]);
        let json = serde_json::to_string(&layout).unwrap();
        assert_eq!(json, r#"{"offsets":[23,30,31]}"#);
        let back: KeyLayout = serde_json::from_str(&json).unwrap();
        assert_eq!(back, layout);
        assert_eq!(back.build_key(&[0; 32])[..], [0, 0, 0]);
        let err = serde_json::from_str::<KeyLayout>("{}").unwrap_err();
        assert!(err.to_string().contains("KeyLayout"), "{err}");
    }
}
