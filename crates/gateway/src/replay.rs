//! Paced trace replay into a running gateway: offers frames at a target
//! packet rate (or as fast as possible) through blocking ingest. What the
//! gateway took or shed, it counts itself, in its
//! [`GatewaySnapshot`](crate::GatewaySnapshot).

use crate::gateway::Gateway;
use p4guard_dataplane::switch::compute_pps;
use p4guard_packet::arena::FrameBatch;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How many frames to send between pacing checks; coarse pacing keeps the
/// sleep overhead off the per-frame path.
const PACE_CHUNK: u64 = 256;

/// What a [`replay_batched`] call pushed through the gateway's ingest side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Frames taken from the source.
    pub offered: u64,
    /// Wall time of the replay loop.
    pub elapsed: Duration,
    /// Achieved offer rate in packets per second.
    pub offered_pps: f64,
}

/// Replays pre-built [`FrameBatch`]es into `gateway`, pacing to
/// `target_pps` (frames per second) when given. Each batch enters through
/// [`Gateway::dispatch_batch`], which waits for queue space (lossless; the
/// rate degrades under overload), so ingest costs one flow-hash per frame
/// and one channel send per shard **per batch**.
///
/// Pacing is coarse: the offered rate is checked every `PACE_CHUNK` (256)
/// frames and the loop sleeps off any accumulated lead, so short traces
/// can overshoot slightly but sustained rates converge on the target.
/// `offered` in the report counts frames, not batches.
pub fn replay_batched<I>(gateway: &Gateway, batches: I, target_pps: Option<f64>) -> ReplayReport
where
    I: IntoIterator<Item = FrameBatch>,
{
    let start = Instant::now();
    let mut offered = 0u64;
    let mut since_pace = 0u64;
    for batch in batches {
        if let Some(pps) = target_pps {
            if pps > 0.0 && offered > 0 && since_pace >= PACE_CHUNK {
                since_pace = 0;
                let due = Duration::from_secs_f64(offered as f64 / pps);
                let elapsed = start.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
        }
        let frames = batch.len() as u64;
        offered += frames;
        since_pace += frames;
        gateway.dispatch_batch(batch);
    }
    let elapsed = start.elapsed();
    ReplayReport {
        offered,
        elapsed,
        offered_pps: compute_pps(offered as usize, elapsed),
    }
}
