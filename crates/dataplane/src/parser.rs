//! The parser the pipeline deploys: a raw byte window.
//!
//! The paper's stage 1 treats the first `W` bytes of a packet as features
//! "with no protocol knowledge", and the program `core::p4gen` emits is
//! `pkt.extract(hdr.window); transition accept`. [`ParserSpec`] is that
//! program: a window width and the shortest frame it accepts. There is no
//! parse graph — protocol structure is what the learned byte offsets in a
//! [`KeyLayout`](crate::key::KeyLayout) recover, not something the parser
//! is told.

use serde::{Deserialize, Serialize};

/// The window program: extract the first `window` bytes (or the frame, if
/// shorter — bytes past its end read as zero in every key) and accept any
/// frame of at least `min_len` bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParserSpec {
    window: usize,
    min_len: usize,
}

impl ParserSpec {
    /// A `window`-byte raw window accepting frames of at least `min_len`
    /// bytes — no protocol knowledge, pure byte extraction.
    pub fn raw_window(window: usize, min_len: usize) -> Self {
        ParserSpec { window, min_len }
    }

    /// Minimum frame length accepted.
    pub fn min_len(&self) -> usize {
        self.min_len
    }

    /// Whether the parser accepts `frame` — the one parse decision, shared
    /// by [`Switch::process`](crate::switch::Switch::process) and both
    /// [`ReadPipeline`](crate::pipeline::ReadPipeline) walkers.
    #[inline]
    pub fn accepts(&self, frame: &[u8]) -> bool {
        frame.len() >= self.min_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_window_accepts_long_enough_frames() {
        let spec = ParserSpec::raw_window(64, 20);
        assert_eq!(spec.min_len(), 20);
        assert!(spec.accepts(&[0u8; 100]));
        assert!(spec.accepts(&[0u8; 20]));
        assert!(!spec.accepts(&[0u8; 19]));
        assert!(!spec.accepts(&[]));
    }
}
