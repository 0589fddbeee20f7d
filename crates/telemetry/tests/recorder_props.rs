//! Property suite for the flight recorder ring and the sampler that feeds
//! it: the ring never exceeds its capacity and always keeps the newest
//! events in order, and the 1-in-N [`FrameSampler`] fires exactly the
//! deterministic phase-shifted residue class regardless of seed or lane.

use p4guard_telemetry::{Event, FlightRecorder, FrameSampler};
use proptest::prelude::*;

/// The `shard` field doubles as the stream position so properties can
/// recover which records survived eviction.
fn tagged(position: usize) -> Event {
    Event::Overload {
        shard: position,
        dropped: 1,
    }
}

proptest! {
    /// However many events are pushed, the ring holds at most `capacity`
    /// of them — and exactly the newest ones, oldest first, with strictly
    /// increasing sequence numbers.
    #[test]
    fn ring_keeps_exactly_the_newest_events(
        capacity in 1usize..48,
        total in 0usize..200,
    ) {
        let recorder = FlightRecorder::new(capacity);
        for i in 0..total {
            recorder.record(tagged(i));
        }
        let events = recorder.events();
        prop_assert!(events.len() <= capacity, "ring grew past capacity");
        prop_assert_eq!(events.len(), total.min(capacity));
        let oldest_kept = total.saturating_sub(capacity);
        for (offset, record) in events.iter().enumerate() {
            let Event::Overload { shard, .. } = &record.event else {
                panic!("unexpected event kind");
            };
            prop_assert_eq!(*shard, oldest_kept + offset, "wrong event survived");
            prop_assert_eq!(record.seq, (oldest_kept + offset) as u64);
        }
        for pair in events.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq, "seq must increase");
        }
    }

    /// Sampling admits one event per `sample_every` stream positions: a
    /// fixed residue class shifted by the seed's phase, so any window of
    /// `sample_every` consecutive offers contains exactly one sample.
    #[test]
    fn sampling_admits_one_in_n(
        capacity in 1usize..64,
        sample_every in 1u64..16,
        seed in any::<u64>(),
        total in 0usize..200,
    ) {
        let recorder = FlightRecorder::new(capacity);
        let mut sampler = FrameSampler::new(sample_every, seed, 0, None);
        let mut sampled = Vec::new();
        for i in 0..total {
            if sampler.tick().is_some() {
                sampled.push(i);
                recorder.record(tagged(i));
            }
        }
        // Exactly one residue class fires.
        let expected: Vec<usize> = (0..total)
            .filter(|i| sampled.first().is_some_and(|first| i % sample_every as usize == first % sample_every as usize))
            .collect();
        prop_assert_eq!(&sampled, &expected);
        // Density: never more than ceil(total / sample_every).
        let n = sample_every as usize;
        prop_assert!(sampled.len() <= total.div_ceil(n));
        if total >= n {
            prop_assert!(!sampled.is_empty(), "a full window must contain a sample");
        }
        // The ring saw only sampled events, newest-last, capacity bound.
        let events = recorder.events();
        prop_assert!(events.len() <= capacity);
        prop_assert_eq!(events.len(), sampled.len().min(capacity));
    }

    /// Two samplers with the same seed sample identical positions, whatever
    /// lane they serve: the phase is a pure function of (seed,
    /// sample_every), and the lane only names the picks.
    #[test]
    fn sampling_is_deterministic_per_seed(
        sample_every in 1u64..16,
        seed in any::<u64>(),
    ) {
        let mut a = FrameSampler::new(sample_every, seed, 0, None);
        let mut b = FrameSampler::new(sample_every, seed, 3, Some("tenant"));
        let hits_a: Vec<usize> = (0..100).filter(|_| a.tick().is_some()).collect();
        let hits_b: Vec<usize> = (0..100).filter(|_| b.tick().is_some()).collect();
        prop_assert_eq!(hits_a, hits_b);
    }
}
