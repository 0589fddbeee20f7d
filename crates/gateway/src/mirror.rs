//! The mirror tap: a sampled, non-enforcing copy of the ingest stream for
//! shadow evaluation. When closed (the default) the tap costs one relaxed
//! atomic load per batch; when open, every Nth frame is handed out as a
//! zero-copy `Bytes` view into its batch's chunk (a refcount bump, no
//! copy) and offered to a bounded channel the shadow evaluator drains. The tap never blocks ingest: when the shadow
//! side falls behind, samples are shed and counted.

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use p4guard_packet::arena::FrameBatch;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A stride-sampled, drop-on-full frame mirror. Sampling is a
/// deterministic 1-in-N stride over the ingest sequence (not random), so
/// a replayed trace mirrors exactly the same frames every run.
#[derive(Default)]
pub struct MirrorTap {
    /// Sampling stride; 0 means the tap is closed. Read without the lock
    /// so a closed tap costs ingest one relaxed load per batch.
    stride: AtomicU64,
    mirrored: AtomicU64,
    shed: AtomicU64,
    open: Mutex<Option<OpenTap>>,
}

/// The open tap's channel and its place in the stride, under one lock so a
/// batch's samples are one critical section however many threads dispatch.
struct OpenTap {
    tx: Sender<Bytes>,
    stride: u64,
    /// Frames to pass over before the next sample.
    skip: u64,
}

impl MirrorTap {
    /// A closed tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the tap: one ingest frame in `stride` is mirrored into a new
    /// bounded channel of `capacity` samples, whose receiver is returned.
    /// Re-opening replaces the previous channel (its receiver disconnects)
    /// and restarts the stride at position 0 — the first observed frame is
    /// sampled — so runs stay reproducible.
    pub fn open(&self, stride: u64, capacity: usize) -> Receiver<Bytes> {
        let (tx, rx) = bounded(capacity.max(1));
        let stride = stride.max(1);
        let mut guard = self.open.lock();
        *guard = Some(OpenTap {
            tx,
            stride,
            skip: 0,
        });
        self.stride.store(stride, Ordering::Relaxed);
        rx
    }

    /// Closes the tap. The shadow-side receiver disconnects once it has
    /// drained the samples already queued.
    pub fn close(&self) {
        self.stride.store(0, Ordering::Relaxed);
        *self.open.lock() = None;
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
    /// path (a tap opened mid-batch starts sampling at the next batch).
    /// Open, the batch's sampled indices are arithmetic on the frames left
    /// to skip: one lock and one update of each counter per batch, nothing
    /// per unsampled frame. Sampled frames are handed out as zero-copy
    /// `Bytes` views into the batch's shared chunk.
    pub fn observe_batch(&self, batch: &FrameBatch) {
        if !self.is_open() {
            return;
        }
        let mut guard = self.open.lock();
        let Some(tap) = guard.as_mut() else {
            return;
        };
        let len = batch.len() as u64;
        let (mut mirrored, mut shed) = (0u64, 0u64);
        let mut next = tap.skip;
        while next < len {
            match tap.tx.try_send(batch.frame_bytes(next as usize)) {
                Ok(()) => mirrored += 1,
                // Full or disconnected: the shadow side is behind or gone.
                Err(_) => shed += 1,
            }
            next = next.saturating_add(tap.stride);
        }
        tap.skip = next - len;
        drop(guard);
        self.mirrored.fetch_add(mirrored, Ordering::Relaxed);
        self.shed.fetch_add(shed, Ordering::Relaxed);
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
    fn mirrored_plus_shed_counts_every_sampled_position() {
        // Strides below, at and above the batch size, against a channel
        // that fills: each sampled position is counted once, one way or
        // the other, and the stride carries across batch boundaries.
        for (stride, positions) in [(1u64, 23u64), (4, 6), (5, 5), (9, 3), (64, 1)] {
            let tap = MirrorTap::new();
            let _rx = tap.open(stride, 2);
            let mut arena = p4guard_packet::arena::FrameArena::new(128);
            let frames: Vec<[u8; 4]> = (0..23u8).map(|i| [i; 4]).collect();
            for batch in arena.pack(frames.iter().map(|f| &f[..]), 5) {
                tap.observe_batch(&batch);
            }
            assert_eq!(tap.mirrored(), positions.min(2), "stride {stride}");
            assert_eq!(tap.mirrored() + tap.shed(), positions, "stride {stride}");
        }
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
