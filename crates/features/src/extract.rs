//! Protocol-agnostic feature extraction: the first `W` bytes of every frame.
//!
//! This is the core representational idea of the paper: treat the packet as
//! raw bytes so the same pipeline handles *arbitrary* protocols, including
//! non-IP ones a fixed-field (OpenFlow-style) firewall cannot express.

use p4guard_nn::{Dataset, Matrix};
use p4guard_packet::trace::Trace;
use serde::{Deserialize, Serialize};

/// The default byte window: covers Ethernet + IPv4 + TCP plus the leading
/// application bytes where IoT protocol opcodes live.
pub const DEFAULT_WINDOW: usize = 64;

/// A dataset of raw byte windows: `samples × window` bytes plus binary
/// labels. This is the exact-valued form consumed by decision-tree
/// induction and rule compilation; [`ByteDataset::to_nn_dataset`] produces
/// the normalized `f32` view the neural networks train on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByteDataset {
    window: usize,
    data: Vec<u8>,
    labels: Vec<usize>,
}

impl ByteDataset {
    /// Builds a dataset from a labelled trace, truncating or zero-padding
    /// every frame to `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_trace(trace: &Trace, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let mut data = Vec::with_capacity(trace.len() * window);
        let mut labels = Vec::with_capacity(trace.len());
        for record in trace.iter() {
            let frame = &record.frame;
            let take = frame.len().min(window);
            data.extend_from_slice(&frame[..take]);
            data.resize(data.len() + (window - take), 0);
            labels.push(record.label.class());
        }
        ByteDataset {
            window,
            data,
            labels,
        }
    }

    /// Constructs a dataset from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != labels.len() * window`.
    pub fn from_parts(window: usize, data: Vec<u8>, labels: Vec<usize>) -> Self {
        assert_eq!(
            data.len(),
            labels.len() * window,
            "data length does not match labels × window"
        );
        ByteDataset {
            window,
            data,
            labels,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Bytes per sample.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Borrows sample `i` as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> &[u8] {
        &self.data[i * self.window..(i + 1) * self.window]
    }

    /// Borrows every sample back to back, row-major: `len() × window()`
    /// bytes, the layout the tree fitters take.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Borrows the labels (0 = benign, 1 = attack).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Keeps only the byte positions in `offsets`, producing a dataset of
    /// width `offsets.len()`.
    ///
    /// # Panics
    ///
    /// Panics if any offset is out of bounds.
    pub fn project(&self, offsets: &[usize]) -> ByteDataset {
        for &o in offsets {
            assert!(o < self.window, "offset {o} out of window {}", self.window);
        }
        let mut data = Vec::with_capacity(self.len() * offsets.len());
        for i in 0..self.len() {
            let row = self.sample(i);
            data.extend(offsets.iter().map(|&o| row[o]));
        }
        ByteDataset {
            window: offsets.len(),
            data,
            labels: self.labels.clone(),
        }
    }

    /// Converts to the normalized `f32` dataset the networks train on
    /// (bytes divided by 255).
    pub fn to_nn_dataset(&self) -> Dataset {
        let features = Matrix::from_fn(self.len(), self.window, |r, c| {
            f32::from(self.data[r * self.window + c]) / 255.0
        });
        Dataset::new(features, self.labels.clone())
    }

    /// Per-position count of distinct byte values, a cheap constancy probe
    /// (positions with one value carry no information).
    pub fn distinct_values_per_position(&self) -> Vec<usize> {
        (0..self.window)
            .map(|c| {
                let mut seen = [false; 256];
                let mut count = 0usize;
                for i in 0..self.len() {
                    let v = self.sample(i)[c] as usize;
                    if !seen[v] {
                        seen[v] = true;
                        count += 1;
                    }
                }
                count
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use p4guard_packet::trace::{AttackFamily, Label, Record};

    fn trace() -> Trace {
        let mut t = Trace::new();
        t.push(Record {
            timestamp_us: 0,
            frame: Bytes::from_static(&[1, 2, 3]),
            label: Label::Benign,
            flow_id: 1,
        });
        t.push(Record {
            timestamp_us: 1,
            frame: Bytes::from_static(&[9, 8, 7, 6, 5, 4, 3, 2]),
            label: Label::Attack(AttackFamily::SynFlood),
            flow_id: 2,
        });
        t
    }

    #[test]
    fn from_trace_pads_and_truncates() {
        let d = ByteDataset::from_trace(&trace(), 5);
        assert_eq!(d.len(), 2);
        assert_eq!(d.window(), 5);
        assert_eq!(d.sample(0), &[1, 2, 3, 0, 0]);
        assert_eq!(d.sample(1), &[9, 8, 7, 6, 5]);
        assert_eq!(d.labels(), &[0, 1]);
    }

    #[test]
    fn project_keeps_selected_offsets() {
        let d = ByteDataset::from_trace(&trace(), 5);
        let p = d.project(&[4, 0]);
        assert_eq!(p.window(), 2);
        assert_eq!(p.sample(0), &[0, 1]);
        assert_eq!(p.sample(1), &[5, 9]);
        assert_eq!(p.labels(), d.labels());
    }

    #[test]
    fn to_nn_dataset_normalizes() {
        let d = ByteDataset::from_trace(&trace(), 3);
        let nn = d.to_nn_dataset();
        assert_eq!(nn.feature_dim(), 3);
        assert!((nn.features().get(1, 0) - 9.0 / 255.0).abs() < 1e-6);
        assert_eq!(nn.labels(), &[0, 1]);
    }

    #[test]
    fn distinct_values() {
        let d = ByteDataset::from_trace(&trace(), 4);
        let distinct = d.distinct_values_per_position();
        assert_eq!(distinct, vec![2, 2, 2, 2]); // rows differ everywhere
    }

    #[test]
    #[should_panic(expected = "out of window")]
    fn project_rejects_bad_offset() {
        let d = ByteDataset::from_trace(&trace(), 4);
        let _ = d.project(&[4]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = ByteDataset::from_trace(&trace(), 0);
    }

    #[test]
    fn from_parts_validates() {
        let d = ByteDataset::from_parts(2, vec![1, 2, 3, 4], vec![0, 1]);
        assert_eq!(d.sample(1), &[3, 4]);
    }
}
