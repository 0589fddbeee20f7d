//! The mirror tap: a sampled, non-enforcing copy of the ingest stream for
//! shadow evaluation. When closed (the default) the tap costs one relaxed
//! atomic load per batch; when open, every Nth frame is handed out as a
//! zero-copy `Bytes` view into its batch's chunk (a refcount bump, no
//! copy) and offered to a bounded channel the shadow evaluator drains. The tap never blocks ingest: when the shadow
//! side falls behind, samples are shed and counted.

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use p4guard_packet::arena::FrameBatch;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stride-sampled, drop-on-full frame mirror. Sampling is a
/// deterministic 1-in-N stride over the ingest sequence (not random), so
/// a replayed trace mirrors exactly the same frames every run.
#[derive(Default)]
pub struct MirrorTap {
    /// Sampling stride; 0 means the tap is closed.
    stride: AtomicU64,
    /// Frames remaining until the next sample. A countdown instead of a
    /// position counter keeps the per-frame open-tap cost to one
    /// `fetch_sub` — no integer division against a dynamic stride on the
    /// dispatch path.
    countdown: AtomicU64,
    mirrored: AtomicU64,
    shed: AtomicU64,
    tx: Mutex<Option<Sender<Bytes>>>,
}

impl MirrorTap {
    /// A closed tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the tap: one ingest frame in `stride` is mirrored into a new
    /// bounded channel of `capacity` samples, whose receiver is returned.
    /// Re-opening replaces the previous channel (its receiver disconnects)
    /// and restarts the stride counter so runs stay reproducible.
    pub fn open(&self, stride: u64, capacity: usize) -> Receiver<Bytes> {
        let (tx, rx) = bounded(capacity.max(1));
        let mut guard = self.tx.lock();
        *guard = Some(tx);
        // The first observed frame is sampled (countdown of 1), matching
        // a stride sequence starting at position 0.
        self.countdown.store(1, Ordering::Relaxed);
        self.stride.store(stride.max(1), Ordering::Relaxed);
        rx
    }

    /// Closes the tap. The shadow-side receiver disconnects once it has
    /// drained the samples already queued.
    pub fn close(&self) {
        self.stride.store(0, Ordering::Relaxed);
        *self.tx.lock() = None;
    }

    /// Whether the tap is currently open.
    pub fn is_open(&self) -> bool {
        self.stride.load(Ordering::Relaxed) != 0
    }

    /// Samples mirrored into the channel since the tap was created.
    pub fn mirrored(&self) -> u64 {
        self.mirrored.load(Ordering::Relaxed)
    }

    /// Samples shed because the shadow side was behind (channel full).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Observes a whole ingest batch, mirroring the frames that fall on
    /// sampled stride positions of the ingest sequence — however that
    /// sequence is cut into batches. With the tap closed this is a single
    /// relaxed load **per batch**, cheap enough to sit on the enforcement
    /// path (the open/closed decision is hoisted out of the frame loop; a
    /// tap opened mid-batch starts sampling at the next batch). Sampled
    /// frames are handed out as zero-copy `Bytes` views into the batch's
    /// shared chunk.
    pub fn observe_batch(&self, batch: &FrameBatch) {
        let stride = self.stride.load(Ordering::Relaxed);
        if stride == 0 {
            return;
        }
        for i in 0..batch.len() {
            if self.countdown.fetch_sub(1, Ordering::Relaxed) != 1 {
                continue;
            }
            self.countdown.store(stride, Ordering::Relaxed);
            self.send_sample(batch.frame_bytes(i));
        }
    }

    fn send_sample(&self, sample: Bytes) {
        let guard = self.tx.lock();
        if let Some(tx) = guard.as_ref() {
            match tx.try_send(sample) {
                Ok(()) => {
                    self.mirrored.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(i: u8) -> FrameBatch {
        FrameBatch::single(Bytes::from(vec![i; 4]))
    }

    fn drain(rx: &Receiver<Bytes>) -> Vec<u8> {
        let mut got = Vec::new();
        while let Ok(f) = rx.try_recv() {
            got.push(f[0]);
        }
        got
    }

    #[test]
    fn closed_tap_mirrors_nothing() {
        let tap = MirrorTap::new();
        assert!(!tap.is_open());
        for i in 0..10 {
            tap.observe_batch(&frame(i));
        }
        assert_eq!(tap.mirrored(), 0);
        assert_eq!(tap.shed(), 0);
    }

    #[test]
    fn open_tap_samples_one_in_n_deterministically() {
        let tap = MirrorTap::new();
        let rx = tap.open(4, 64);
        for i in 0..16 {
            tap.observe_batch(&frame(i));
        }
        assert_eq!(tap.mirrored(), 4);
        // Positions 0, 4, 8, 12 of the post-open stream.
        assert_eq!(drain(&rx), vec![0, 4, 8, 12]);
        // Re-opening restarts the stride so replays line up.
        let rx = tap.open(4, 64);
        for i in 0..8 {
            tap.observe_batch(&frame(i));
        }
        assert_eq!(drain(&rx), vec![0, 4]);
    }

    #[test]
    fn sampled_positions_do_not_depend_on_batch_boundaries() {
        let per = MirrorTap::new();
        let rx_per = per.open(3, 64);
        for i in 0..10 {
            per.observe_batch(&frame(i));
        }
        let batched = MirrorTap::new();
        let rx_batched = batched.open(3, 64);
        let mut arena = p4guard_packet::arena::FrameArena::new(128);
        for i in 0..10u8 {
            arena.push(&[i; 4]);
            if i % 4 == 3 {
                let b = arena.seal_batch();
                batched.observe_batch(&b);
            }
        }
        let b = arena.seal_batch();
        batched.observe_batch(&b);
        assert_eq!(drain(&rx_per), drain(&rx_batched));
        assert_eq!(per.mirrored(), batched.mirrored());
    }

    #[test]
    fn full_channel_sheds_instead_of_blocking() {
        let tap = MirrorTap::new();
        let _rx = tap.open(1, 2);
        for i in 0..5 {
            tap.observe_batch(&frame(i));
        }
        assert_eq!(tap.mirrored(), 2);
        assert_eq!(tap.shed(), 3);
    }

    #[test]
    fn close_disconnects_the_receiver_after_drain() {
        let tap = MirrorTap::new();
        let rx = tap.open(1, 8);
        tap.observe_batch(&frame(7));
        tap.close();
        assert!(!tap.is_open());
        tap.observe_batch(&frame(8)); // ignored: tap closed
        assert_eq!(rx.recv().unwrap()[0], 7);
        assert!(rx.recv().is_err(), "sender dropped on close");
    }
}
