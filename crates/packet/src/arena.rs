//! Arena-backed frame storage for the batched gateway hot path.
//!
//! The per-frame serving path moves one `Bytes` handle per frame through the
//! shard queues: every enqueue clones an `Arc`, every frame was once its own
//! heap allocation, and every pipeline invocation pays the fixed costs of a
//! channel op, a timestamp, and a telemetry flush. At millions of packets per
//! second those fixed costs dominate the actual match work.
//!
//! This module amortizes them. A [`FrameArena`] accumulates raw frame bytes
//! into one contiguous chunk and seals the chunk into a [`FrameBatch`]:
//! a single refcounted [`Bytes`] buffer plus a vector of [`FrameSpan`]
//! offsets. A batch crosses a thread boundary with **one** `Arc` clone no
//! matter how many frames it carries, and consumers borrow each frame as a
//! plain `&[u8]` view into the shared chunk — no per-frame allocation, no
//! per-frame refcount traffic. Sealing costs three allocations: the
//! `Bytes` handle, and the next chunk and span list, both sized to the
//! largest batch the arena has sealed so far, so neither regrows while a
//! batch of that size is packed.
//!
//! # Lifetime rules
//!
//! - Frame views (`&[u8]`) borrow from the batch; they are valid for as long
//!   as the batch (or any clone of its `data`) is alive.
//! - A batch never reallocates: sealing freezes the chunk. Spans are
//!   validated at construction, so [`FrameBatch::frame`] cannot go out of
//!   bounds.
//! - When a single frame must outlive its batch (e.g. a mirrored sample),
//!   [`FrameBatch::frame_bytes`] hands out a zero-copy `Bytes` slice that
//!   keeps only the shared chunk alive.

use bytes::Bytes;

/// Location of one frame inside a [`FrameBatch`] chunk.
///
/// Offsets are 32-bit: a single batch chunk is far below 4 GiB (the trace
/// format itself caps individual frames at 16 MiB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    /// Byte offset of the frame within the chunk.
    pub offset: u32,
    /// Frame length in bytes.
    pub len: u32,
}

impl FrameSpan {
    /// End offset (exclusive) of the frame within the chunk.
    #[inline]
    pub fn end(&self) -> usize {
        self.offset as usize + self.len as usize
    }
}

/// A sealed group of frames sharing one contiguous byte chunk.
///
/// Cloning a batch is cheap (`Bytes` refcount bump + span vector copy); the
/// common cross-thread move costs a single `Arc` increment for the chunk.
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    data: Bytes,
    spans: Vec<FrameSpan>,
}

impl FrameBatch {
    /// Builds a batch from a chunk and frame spans.
    ///
    /// # Panics
    ///
    /// Panics if any span reaches past the end of `data`; spans are trusted
    /// after construction so the check happens exactly once, here.
    pub fn new(data: Bytes, spans: Vec<FrameSpan>) -> Self {
        for s in &spans {
            assert!(
                s.end() <= data.len(),
                "frame span {}..{} exceeds chunk of {} bytes",
                s.offset,
                s.end(),
                data.len()
            );
        }
        FrameBatch { data, spans }
    }

    /// Wraps a single owned frame as a one-frame batch (used where a
    /// per-frame producer feeds a batch consumer).
    pub fn single(frame: Bytes) -> Self {
        let len = frame.len() as u32;
        FrameBatch {
            data: frame,
            spans: vec![FrameSpan { offset: 0, len }],
        }
    }

    /// Number of frames in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` when the batch holds no frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total payload bytes across all frames (spans may not cover padding).
    pub fn frame_bytes_total(&self) -> usize {
        self.spans.iter().map(|s| s.len as usize).sum()
    }

    /// Borrows frame `i` as a slice of the shared chunk.
    #[inline]
    pub fn frame(&self, i: usize) -> &[u8] {
        let s = self.spans[i];
        &self.data[s.offset as usize..s.end()]
    }

    /// Zero-copy `Bytes` handle to frame `i`; keeps the whole chunk alive.
    pub fn frame_bytes(&self, i: usize) -> Bytes {
        let s = self.spans[i];
        self.data.slice(s.offset as usize..s.end())
    }

    /// Iterates over borrowed frame views in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.spans
            .iter()
            .map(move |s| &self.data[s.offset as usize..s.end()])
    }

    /// The shared byte chunk.
    #[inline]
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// The frame spans, in frame order.
    #[inline]
    pub fn spans(&self) -> &[FrameSpan] {
        &self.spans
    }

    /// Splits the batch into per-lane sub-batches, where `lane(frame)` maps
    /// each frame view to a lane index below `lanes` (called once per
    /// frame, in frame order). Sub-batches share the chunk (refcount bump
    /// only); empty lanes come back as empty batches. Each non-empty lane's
    /// span list is allocated once, at its final size.
    pub fn partition_by<F: FnMut(&[u8]) -> usize>(
        &self,
        lanes: usize,
        mut lane: F,
    ) -> Vec<FrameBatch> {
        let mut sizes = vec![0usize; lanes];
        let lane_of: Vec<usize> = self
            .spans
            .iter()
            .map(|s| {
                let idx = lane(&self.data[s.offset as usize..s.end()]).min(lanes.saturating_sub(1));
                sizes[idx] += 1;
                idx
            })
            .collect();
        let mut out: Vec<FrameBatch> = sizes
            .into_iter()
            .map(|size| FrameBatch {
                data: self.data.clone(),
                spans: Vec::with_capacity(size),
            })
            .collect();
        for (s, idx) in self.spans.iter().zip(lane_of) {
            out[idx].spans.push(*s);
        }
        out
    }
}

/// Cumulative statistics for a [`FrameArena`]; feeds the
/// `p4guard_arena_*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Frames pushed since creation.
    pub frames: u64,
    /// Frame payload bytes pushed since creation.
    pub bytes: u64,
    /// Batches sealed since creation.
    pub batches: u64,
    /// Bytes currently buffered in the open chunk (unsealed).
    pub open_bytes: u64,
    /// Frames currently buffered in the open chunk (unsealed).
    pub open_frames: u64,
}

impl ArenaStats {
    /// Average frames per sealed batch (0 when nothing sealed yet).
    pub fn avg_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.frames - self.open_frames) as f64 / self.batches as f64
        }
    }
}

/// Default chunk capacity: large enough that a 256-frame batch of full-size
/// Ethernet frames fits without reallocating. It is the size of an arena's
/// first chunk and the most any later chunk is allocated with up front;
/// later chunks are sized to the largest batch sealed so far.
pub const DEFAULT_CHUNK_CAPACITY: usize = 512 * 1024;

/// An append-only frame accumulator that seals contiguous chunks into
/// [`FrameBatch`]es.
///
/// The arena owns exactly one open chunk at a time. Pushing copies frame
/// bytes to the chunk tail (the only copy the batched path ever makes);
/// sealing freezes the chunk into a `Bytes` and starts a fresh chunk and
/// span list, each sized to the high-water mark of the batches sealed so
/// far (the chunk at most `chunk_capacity` bytes). Allocation cost is
/// therefore three allocations per *batch*, not per frame, and a chunk is
/// about as large as what it holds (a 256-frame batch of 64 B frames is
/// 16 KiB). A batch above the mark grows its chunk or span list as a `Vec`
/// does and raises the mark.
#[derive(Debug)]
pub struct FrameArena {
    chunk_capacity: usize,
    chunk: Vec<u8>,
    spans: Vec<FrameSpan>,
    /// The most bytes and frames any batch sealed so far held.
    high_bytes: usize,
    high_frames: usize,
    stats: ArenaStats,
}

impl Default for FrameArena {
    fn default() -> Self {
        Self::new(DEFAULT_CHUNK_CAPACITY)
    }
}

impl FrameArena {
    /// Creates an arena whose chunks start at `chunk_capacity` bytes.
    pub fn new(chunk_capacity: usize) -> Self {
        FrameArena {
            chunk_capacity: chunk_capacity.max(64),
            chunk: Vec::with_capacity(chunk_capacity.max(64)),
            spans: Vec::new(),
            high_bytes: 0,
            high_frames: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Appends one frame to the open chunk.
    pub fn push(&mut self, frame: &[u8]) {
        let offset = self.chunk.len() as u32;
        self.chunk.extend_from_slice(frame);
        self.spans.push(FrameSpan {
            offset,
            len: frame.len() as u32,
        });
        self.stats.frames += 1;
        self.stats.bytes += frame.len() as u64;
        self.stats.open_frames += 1;
        self.stats.open_bytes += frame.len() as u64;
    }

    /// Frames currently buffered in the open chunk.
    pub fn pending(&self) -> usize {
        self.spans.len()
    }

    /// Seals the open chunk into a batch and starts a new chunk and span
    /// list sized to the largest batch sealed so far. Returns an empty
    /// batch when nothing is pending.
    pub fn seal_batch(&mut self) -> FrameBatch {
        if self.spans.is_empty() {
            return FrameBatch::default();
        }
        self.high_bytes = self.high_bytes.max(self.chunk.len());
        self.high_frames = self.high_frames.max(self.spans.len());
        let next_chunk = Vec::with_capacity(self.high_bytes.min(self.chunk_capacity));
        let chunk = std::mem::replace(&mut self.chunk, next_chunk);
        let spans = std::mem::replace(&mut self.spans, Vec::with_capacity(self.high_frames));
        self.stats.batches += 1;
        self.stats.open_frames = 0;
        self.stats.open_bytes = 0;
        FrameBatch {
            data: Bytes::from(chunk),
            spans,
        }
    }

    /// Packs `frames` into sealed batches of at most `batch_size` frames
    /// (the last one short), preserving order — the one packer behind
    /// [`Trace::to_batches`](crate::trace::Trace::to_batches), live serving
    /// and the conformance schedules.
    pub fn pack<'a>(
        &mut self,
        frames: impl IntoIterator<Item = &'a [u8]>,
        batch_size: usize,
    ) -> Vec<FrameBatch> {
        let batch_size = batch_size.max(1);
        let frames = frames.into_iter();
        let mut out = Vec::with_capacity(frames.size_hint().0.div_ceil(batch_size));
        for frame in frames {
            self.push(frame);
            if self.pending() >= batch_size {
                out.push(self.seal_batch());
            }
        }
        if self.pending() > 0 {
            out.push(self.seal_batch());
        }
        out
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Configured chunk capacity.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_seal_round_trip() {
        let mut arena = FrameArena::new(1024);
        arena.push(b"alpha");
        arena.push(b"bee");
        arena.push(b"");
        let batch = arena.seal_batch();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.frame(0), b"alpha");
        assert_eq!(batch.frame(1), b"bee");
        assert_eq!(batch.frame(2), b"");
        assert_eq!(batch.frame_bytes_total(), 8);
        let collected: Vec<&[u8]> = batch.iter().collect();
        assert_eq!(collected, vec![b"alpha".as_slice(), b"bee", b""]);
    }

    #[test]
    fn seal_starts_fresh_chunk() {
        let mut arena = FrameArena::new(64);
        arena.push(b"one");
        let first = arena.seal_batch();
        arena.push(b"two");
        let second = arena.seal_batch();
        assert_eq!(first.frame(0), b"one");
        assert_eq!(second.frame(0), b"two");
        assert_eq!(arena.stats().batches, 2);
        assert_eq!(arena.stats().frames, 2);
        assert_eq!(arena.stats().open_frames, 0);
        assert!((arena.stats().avg_batch_fill() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pack_cuts_ordered_batches_and_keeps_counting() {
        let mut arena = FrameArena::new(64);
        let frames: Vec<[u8; 3]> = (0..7u8).map(|i| [i; 3]).collect();
        let batches = arena.pack(frames.iter().map(|f| &f[..]), 3);
        let sizes: Vec<usize> = batches.iter().map(FrameBatch::len).collect();
        assert_eq!(sizes, [3, 3, 1]);
        let packed: Vec<&[u8]> = batches.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(packed, frames.iter().map(|f| &f[..]).collect::<Vec<_>>());
        // One arena can pack several runs (live serving packs both halves
        // of a trace through one); a batch size of 0 means 1.
        assert_eq!(arena.pack(frames[..2].iter().map(|f| &f[..]), 0).len(), 2);
        assert!(arena.pack(std::iter::empty(), 4).is_empty());
        let stats = arena.stats();
        assert_eq!((stats.frames, stats.batches, stats.open_frames), (9, 5, 0));
    }

    #[test]
    fn empty_seal_is_empty_batch() {
        let mut arena = FrameArena::new(64);
        let batch = arena.seal_batch();
        assert!(batch.is_empty());
        assert_eq!(arena.stats().batches, 0);
    }

    #[test]
    fn frame_bytes_is_zero_copy_view() {
        let mut arena = FrameArena::new(64);
        arena.push(b"abcdef");
        arena.push(b"xyz");
        let batch = arena.seal_batch();
        let solo = batch.frame_bytes(1);
        assert_eq!(&solo[..], b"xyz");
        // The view aliases the chunk rather than copying it.
        let chunk_ptr = batch.data().as_ptr() as usize;
        let solo_ptr = solo.as_ptr() as usize;
        assert_eq!(solo_ptr, chunk_ptr + 6);
    }

    #[test]
    fn single_wraps_one_frame() {
        let b = FrameBatch::single(Bytes::from_static(b"frame"));
        assert_eq!(b.len(), 1);
        assert_eq!(b.frame(0), b"frame");
    }

    #[test]
    fn partition_by_groups_frames_and_shares_chunk() {
        let mut arena = FrameArena::new(64);
        arena.push(b"a0");
        arena.push(b"b1");
        arena.push(b"a2");
        arena.push(b"b3");
        let batch = arena.seal_batch();
        let lanes = batch.partition_by(2, |f| usize::from(f[0] == b'b'));
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].len(), 2);
        assert_eq!(lanes[1].len(), 2);
        assert_eq!(lanes[0].frame(1), b"a2");
        assert_eq!(lanes[1].frame(0), b"b1");
        assert_eq!(lanes[0].data().as_ptr(), batch.data().as_ptr());
    }

    #[test]
    fn partition_by_classifies_each_frame_once_into_exact_lanes() {
        let mut arena = FrameArena::new(64);
        let frames: Vec<[u8; 1]> = (0..10u8).map(|i| [i]).collect();
        let batch = arena.pack(frames.iter().map(|f| &f[..]), 10).remove(0);
        let mut seen = Vec::new();
        // Lane 3 is past the last lane and folds into it; lane 1 stays empty.
        let lanes = batch.partition_by(3, |f| {
            seen.push(f[0]);
            [0, 2, 3][usize::from(f[0] % 3)]
        });
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
        let firsts: Vec<Vec<u8>> = lanes
            .iter()
            .map(|l| l.iter().map(|f| f[0]).collect())
            .collect();
        assert_eq!(firsts, [vec![0, 3, 6, 9], vec![], vec![1, 2, 4, 5, 7, 8]]);
        for lane in &lanes {
            assert_eq!(lane.spans.capacity(), lane.len());
        }
    }

    #[test]
    fn chunks_and_span_lists_follow_the_high_water_batch() {
        let mut arena = FrameArena::new(1024);
        let capacities = |a: &FrameArena| (a.chunk.capacity(), a.spans.capacity());
        assert_eq!(
            arena.chunk.capacity(),
            1024,
            "the first chunk is the configured size"
        );
        for _ in 0..3 {
            arena.push(&[1; 100]);
        }
        let first = arena.seal_batch();
        assert_eq!(capacities(&arena), (300, 3));
        // A smaller batch leaves the mark where it was.
        arena.push(&[2; 10]);
        arena.seal_batch();
        assert_eq!(capacities(&arena), (300, 3));
        // A batch above the mark grows while it is packed and raises it.
        for _ in 0..5 {
            arena.push(&[3; 100]);
        }
        let big = arena.seal_batch();
        assert_eq!(big.frame_bytes_total(), 500);
        assert_eq!(capacities(&arena), (500, 5));
        // The configured capacity caps the chunk allocated up front, not
        // what a batch may hold.
        for _ in 0..3 {
            arena.push(&[4; 400]);
        }
        assert_eq!(arena.seal_batch().frame(2), &[4; 400]);
        assert_eq!(capacities(&arena), (1024, 5));
        assert_eq!(first.frame(0), &[1; 100]);
        assert_eq!(arena.stats().batches, 4);
    }

    #[test]
    fn a_first_batch_larger_than_the_chunk_capacity() {
        let mut arena = FrameArena::new(64);
        let frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 50]).collect();
        let batches = arena.pack(frames.iter().map(Vec::as_slice), 4);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].iter().collect::<Vec<_>>(), frames);
        assert_eq!(arena.chunk.capacity(), 64);
        assert_eq!(arena.spans.capacity(), 4);
    }

    #[test]
    fn a_sealed_batch_outlives_the_batches_packed_after_it() {
        let mut arena = FrameArena::new(64);
        arena.push(b"first");
        arena.push(b"batch");
        let held = arena.seal_batch();
        let ptr = held.data().as_ptr();
        for round in 0..50u8 {
            let later = arena.pack([&[round; 7][..], &[round; 3]], 2);
            assert_eq!(later[0].frame(0), &[round; 7]);
            assert_eq!(later[0].frame(1), &[round; 3]);
        }
        assert_eq!(held.iter().collect::<Vec<_>>(), [b"first", b"batch"]);
        assert_eq!(held.data().as_ptr(), ptr);
        assert_eq!(held.data().len(), 10);
    }

    #[test]
    #[should_panic(expected = "exceeds chunk")]
    fn out_of_range_span_panics_at_construction() {
        FrameBatch::new(
            Bytes::from_static(b"abc"),
            vec![FrameSpan { offset: 2, len: 5 }],
        );
    }
}
