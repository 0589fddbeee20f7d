//! The serving phases every workload runs: closed-loop through the gateway,
//! inline on one thread, and open-loop on a fixed schedule. Ingest is always
//! inside the timed region: the dispatcher packs 256 frames with
//! `FrameArena::push` + `seal_batch` and hands the batch over.

use crate::fixture::{gateway_config, Fixture, BATCH};
use crate::spans::{self, Tracer};
use crate::yardstick;
use p4guard_dataplane::action::{Action, Verdict};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::pipeline::{BatchScratch, ReadPipeline};
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_dataplane::table::MatchSpec;
use p4guard_gateway::{Gateway, GatewaySnapshot};
use p4guard_packet::arena::DEFAULT_CHUNK_CAPACITY;
use p4guard_packet::{FrameArena, FrameBatch};
use p4guard_rules::ruleset::RuleSetDiff;
use p4guard_rules::TernaryEntry;
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches between two ruleset republishes on the churning workload, and in
/// the short serve that only samples `republish_ms` on the others.
pub const REPUBLISH_EVERY: u64 = 64;
const SAMPLE_EVERY: u64 = 16;
/// Batches between two observer reads (snapshot, queue depths, scrape).
const OBSERVE_EVERY: u64 = 16;

/// Process CPU time (user + system, every thread, dead ones included) in
/// seconds. `/proc/self/stat` has the same figure in 10 ms ticks, too
/// coarse for a quarter-second trial, so this asks the C library that `std`
/// already links for the nanosecond clock.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread alone, in seconds.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Cycles the fixture's distinct frames into sealed batches.
pub struct Packer<'a> {
    fixture: &'a Fixture,
    arena: FrameArena,
    cursor: usize,
}

impl<'a> Packer<'a> {
    pub fn new(fixture: &'a Fixture) -> Self {
        Packer {
            fixture,
            arena: FrameArena::new(DEFAULT_CHUNK_CAPACITY),
            cursor: 0,
        }
    }

    /// Copies the next `n` frames of the cycle into the arena and seals
    /// them; returns the batch and the index of its first frame.
    #[inline]
    pub fn pack(&mut self, n: usize) -> (FrameBatch, usize) {
        let first = self.cursor;
        let frames = &self.fixture.frames;
        for _ in 0..n {
            self.arena.push(&frames[self.cursor]);
            self.cursor += 1;
            if self.cursor == frames.len() {
                self.cursor = 0;
            }
        }
        (self.arena.seal_batch(), first)
    }
}

/// What the dispatcher does to the gateway besides feeding it.
pub struct Churn {
    /// The 1% of stage 0 that is alternately removed and re-added.
    delta: Vec<TernaryEntry>,
    removed: bool,
    /// Batches between two republishes.
    pub every: u64,
    /// Also read the gateway like a metrics scraper (the churning workload
    /// only; elsewhere the phase exists to sample `republish_ms`).
    pub observe: bool,
    telemetry: Option<Arc<Telemetry>>,
    /// Milliseconds of each `apply_ruleset_diff` + `publish`.
    pub republish_ms: Vec<f64>,
    pub stages_recompiled: Vec<f64>,
    /// Microseconds of each `Gateway::snapshot`, milliseconds of each
    /// `render_prometheus`, and the series count of the last scrape.
    pub snapshot_us: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub series: usize,
}

impl Churn {
    pub fn new(fixture: &Fixture) -> Churn {
        let entries = fixture.switch.stage(0).entries();
        let take = (entries.len() / 100).max(1);
        let delta = entries[entries.len() - take..]
            .iter()
            .map(|e| match &e.spec {
                MatchSpec::Ternary { value, mask } => {
                    TernaryEntry::new(value.clone(), mask.clone(), 1, e.priority)
                }
                other => panic!("fixture stages are ternary, found {other:?}"),
            })
            .collect();
        Churn {
            delta,
            removed: false,
            every: if fixture.workload.churn {
                REPUBLISH_EVERY
            } else {
                SAMPLE_EVERY
            },
            observe: fixture.workload.churn,
            telemetry: None,
            republish_ms: Vec::new(),
            stages_recompiled: Vec::new(),
            snapshot_us: Vec::new(),
            scrape_ms: Vec::new(),
            series: 0,
        }
    }

    /// Removes or re-adds the delta and publishes; one `republish_ms`
    /// sample.
    pub fn republish(&mut self, control: &ControlPlane, tracer: &mut Tracer) {
        let diff = if self.removed {
            RuleSetDiff {
                added: self.delta.clone(),
                removed: Vec::new(),
            }
        } else {
            RuleSetDiff {
                added: Vec::new(),
                removed: self.delta.clone(),
            }
        };
        let span = tracer.enter("dataplane.republish");
        let t0 = Instant::now();
        let (removed, added) = control
            .apply_ruleset_diff(0, &diff, Action::Drop)
            .expect("delta fits the table it came from");
        let report = control.publish();
        self.republish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.exit(span);
        assert_eq!(removed + added, self.delta.len(), "whole delta applied");
        self.stages_recompiled.push(report.stages_recompiled as f64);
        self.removed = !self.removed;
    }

    /// What a metrics scraper does to a live gateway.
    fn observe(&mut self, gw: &Gateway, tracer: &mut Tracer) {
        let span = tracer.enter("gateway.snapshot");
        let t0 = Instant::now();
        std::hint::black_box(gw.snapshot());
        self.snapshot_us.push(t0.elapsed().as_secs_f64() * 1e6);
        tracer.exit(span);
        std::hint::black_box(gw.queue_depths());
        if let Some(t) = &self.telemetry {
            let span = tracer.enter("telemetry.scrape");
            let t0 = Instant::now();
            let text = t.registry.render_prometheus();
            self.scrape_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tracer.exit(span);
            self.series = text.lines().filter(|l| !l.starts_with('#')).count();
        }
    }
}

/// How one closed-loop trial is served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// `Gateway::start`.
    Plain,
    /// `Gateway::start_with_telemetry`, registry sink only.
    Registry,
    /// Registry sink with span sampling and stage profiling armed.
    Tracing,
    /// Plain, with the mirror tap open at the production stride and the
    /// dispatcher draining the samples (no third thread).
    Mirror,
}

/// Production shadow-sampling stride and channel depth.
const MIRROR_STRIDE: u64 = 4;
const MIRROR_CAPACITY: usize = 4096;

/// One closed-loop trial's outcome.
pub struct Trial {
    pub frames: u64,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// The part of `cpu_s` spent on the dispatcher's (calling) thread.
    pub dispatcher_cpu_s: f64,
    /// Allocations on every thread inside the timed region (0 unless the
    /// caller turned counting on).
    pub allocs: u64,
    pub snapshot: GatewaySnapshot,
}

impl Trial {
    pub fn pps(&self) -> f64 {
        self.frames as f64 / self.elapsed_s
    }
}

/// Serves `frames` frames closed-loop (blocking ingest) through a fresh
/// gateway on a fresh control plane. The timed region runs from the first
/// `push` until `Gateway::finish` returns; spans `packet.pack`,
/// `gateway.dispatch` and `gateway.drain` hang off the root `serve`.
pub fn closed_trial(
    fixture: &Fixture,
    frames: u64,
    mode: Mode,
    mut churn: Option<&mut Churn>,
    tracer: &mut Tracer,
) -> Trial {
    let control = fixture.control();
    let telemetry = matches!(mode, Mode::Registry | Mode::Tracing).then(|| {
        Arc::new(Telemetry::new(TelemetryConfig {
            tracing: mode == Mode::Tracing,
            ..TelemetryConfig::default()
        }))
    });
    let gw = yardstick::on_shard_cpus(|| {
        Gateway::start_with_telemetry(&control, gateway_config(), telemetry.clone())
    });
    let mirror = (mode == Mode::Mirror).then(|| gw.mirror().open(MIRROR_STRIDE, MIRROR_CAPACITY));
    if let Some(c) = churn.as_deref_mut() {
        c.removed = false;
        c.telemetry = telemetry;
    }
    let mut packer = Packer::new(fixture);
    let (cpu0, own_cpu0) = (process_cpu_s(), thread_cpu_s());
    let allocs0 = spans::allocs_process();
    let t0 = Instant::now();
    let root = tracer.enter("serve");
    let (mut sent, mut batches) = (0u64, 0u64);
    while sent < frames {
        let n = (frames - sent).min(BATCH as u64) as usize;
        let span = tracer.enter("packet.pack");
        let (batch, _) = packer.pack(n);
        tracer.exit(span);
        let span = tracer.enter("gateway.dispatch");
        gw.dispatch_batch(batch);
        tracer.exit(span);
        if let Some(rx) = &mirror {
            while rx.try_recv().is_ok() {}
        }
        sent += n as u64;
        batches += 1;
        if let Some(c) = churn.as_deref_mut() {
            if batches % c.every == 0 {
                c.republish(&control, tracer);
            }
            if c.observe && batches % OBSERVE_EVERY == 0 {
                c.observe(&gw, tracer);
            }
        }
    }
    let span = tracer.enter("gateway.drain");
    let snapshot = gw.finish();
    tracer.exit(span);
    tracer.exit(root);
    Trial {
        frames,
        elapsed_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        dispatcher_cpu_s: thread_cpu_s() - own_cpu0,
        allocs: spans::allocs_process() - allocs0,
        snapshot,
    }
}

/// Forwarded / dropped / parser-rejected counts of a verdict run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fates {
    pub forwarded: u64,
    pub dropped: u64,
    pub rejected: u64,
}

impl Fates {
    fn add(&mut self, v: &Verdict, times: u64) {
        match v {
            Verdict::Forward(_) => self.forwarded += times,
            Verdict::Drop => self.dropped += times,
            Verdict::ParserReject => self.rejected += times,
        }
    }

    /// What the oracle says serving the first `frames` frames of the cycle
    /// over `oracle.len()` distinct frames must add up to.
    pub fn expected(oracle: &[Verdict], frames: u64) -> Fates {
        let (cycles, rest) = (frames / oracle.len() as u64, frames % oracle.len() as u64);
        let mut fates = Fates::default();
        for (i, v) in oracle.iter().enumerate() {
            fates.add(v, cycles + u64::from((i as u64) < rest));
        }
        fates
    }

    pub fn of(totals: &SwitchCounters) -> Fates {
        Fates {
            forwarded: totals.forwarded,
            dropped: totals.dropped,
            rejected: totals.parser_rejected,
        }
    }
}

/// Frames of a closed trial the gateway lost, refused or judged differently
/// from the oracle. A churning trial serves a moving ruleset, so only
/// conservation is checked there.
pub fn closed_failures(trial: &Trial, oracle: &[Verdict], churning: bool) -> u64 {
    let totals = &trial.snapshot.totals;
    let got = Fates::of(totals);
    let lost = trial.frames.abs_diff(totals.received)
        + totals
            .received
            .abs_diff(got.forwarded + got.dropped + got.rejected);
    let wrong = if churning {
        0
    } else {
        let want = Fates::expected(oracle, trial.frames);
        // Every misjudged frame shows in two counters.
        (want.forwarded.abs_diff(got.forwarded)
            + want.dropped.abs_diff(got.dropped)
            + want.rejected.abs_diff(got.rejected))
        .div_ceil(2)
    };
    lost + wrong + trial.snapshot.dropped_backpressure
}

/// Outcome of an inline pass.
pub struct Inline {
    pub frames: u64,
    /// Nanoseconds of each `process_batch_into` call (full batches only).
    pub batch_ns: Vec<f64>,
    /// Frames of the first cycle whose verdict differed from the oracle.
    pub mismatches: u64,
    pub vote_early_exits: u64,
    pub elapsed_s: f64,
}

/// One thread, the same packing loop, `ReadPipeline::process_batch_into`
/// called directly and timed per call, for `batches` batches. The first
/// pass over the distinct frames is checked verdict by verdict against the
/// oracle, when one is given.
pub fn inline_pass(
    fixture: &Fixture,
    pipeline: &ReadPipeline,
    oracle: Option<&[Verdict]>,
    batches: usize,
) -> Inline {
    let mut packer = Packer::new(fixture);
    let mut counters = SwitchCounters::default();
    let mut scratch = BatchScratch::new();
    let mut verdicts = Vec::with_capacity(BATCH);
    let mut out = Inline {
        frames: 0,
        batch_ns: Vec::with_capacity(batches),
        mismatches: 0,
        vote_early_exits: 0,
        elapsed_s: 0.0,
    };
    let distinct = fixture.frames.len() as u64;
    let t0 = Instant::now();
    for _ in 0..batches {
        let (batch, first) = packer.pack(BATCH);
        verdicts.clear();
        let b0 = Instant::now();
        pipeline.process_batch_into(
            batch.data(),
            batch.spans(),
            &mut counters,
            &mut scratch,
            &mut verdicts,
        );
        out.batch_ns.push(b0.elapsed().as_nanos() as f64);
        out.vote_early_exits += scratch.vote_early_exits();
        if let Some(oracle) = oracle.filter(|_| out.frames < distinct) {
            for (i, v) in verdicts.iter().enumerate() {
                out.mismatches += u64::from(*v != oracle[(first + i) % oracle.len()]);
            }
        }
        out.frames += BATCH as u64;
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    assert_eq!(counters.received, out.frames, "every frame processed");
    out
}

/// Fixed-schedule pacing: batch `i` is due at `i · interval` after the
/// start, whatever happened to the batches before it.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    interval_ns: f64,
}

impl Pacer {
    pub fn new(frames_per_batch: usize, offered_pps: f64) -> Pacer {
        Pacer {
            interval_ns: frames_per_batch as f64 * 1e9 / offered_pps,
        }
    }

    pub fn due_ns(&self, batch: u64) -> u64 {
        (batch as f64 * self.interval_ns) as u64
    }

    /// Batches due within `duration_ns`.
    pub fn batches_in(&self, duration_ns: u64) -> u64 {
        (duration_ns as f64 / self.interval_ns) as u64
    }

    /// How late the generator is for `batch` at `now_ns` (0 when early).
    /// A stall is charged to every batch that was due during it, because
    /// due times never move.
    pub fn late_ns(&self, batch: u64, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.due_ns(batch))
    }
}

/// Outcome of an open-loop phase.
pub struct Open {
    pub offered: u64,
    pub refused: u64,
    /// Microseconds between each batch's due time and its hand-over.
    pub late_us: Vec<f64>,
    /// Shard-queue depth (in batches) sampled after each hand-over.
    pub depth: Vec<f64>,
    pub snapshot: GatewaySnapshot,
}

/// Offers batches on a fixed schedule through `Gateway::offer_batch`
/// (drop on full). The pacer is the dispatcher thread itself and spins on
/// `Instant`: the interval is below sleep granularity and a sleeping pacer
/// would add a thread.
pub fn open_phase(fixture: &Fixture, duration: Duration) -> Open {
    let control = fixture.control();
    let gw = yardstick::on_shard_cpus(|| Gateway::start(&control, gateway_config()));
    let pacer = Pacer::new(BATCH, fixture.workload.offered_pps);
    let batches = pacer.batches_in(duration.as_nanos() as u64).max(1);
    let mut packer = Packer::new(fixture);
    let (mut offered, mut refused) = (0u64, 0u64);
    let mut late_us = Vec::with_capacity(batches as usize);
    let mut depth = Vec::with_capacity(batches as usize);
    let t0 = Instant::now();
    for i in 0..batches {
        let due = pacer.due_ns(i);
        while (t0.elapsed().as_nanos() as u64) < due {
            std::hint::spin_loop();
        }
        let (batch, _) = packer.pack(BATCH);
        let accepted = gw.offer_batch(batch);
        late_us.push(pacer.late_ns(i, t0.elapsed().as_nanos() as u64) as f64 / 1e3);
        depth.push(gw.queue_depths().iter().sum::<usize>() as f64);
        offered += BATCH as u64;
        refused += BATCH as u64 - accepted;
    }
    Open {
        offered,
        refused,
        late_us,
        depth,
        snapshot: gw.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_a_fixed_schedule() {
        // 256 frames at 2.56M pps: one batch every 100 µs.
        let p = Pacer::new(256, 2_560_000.0);
        assert_eq!(p.due_ns(0), 0);
        assert_eq!(p.due_ns(10), 1_000_000);
        assert_eq!(p.batches_in(1_000_000_000), 10_000);
        // On time or early is not late.
        assert_eq!(p.late_ns(3, 300_000), 0);
        assert_eq!(p.late_ns(3, 250_000), 0);
    }

    #[test]
    fn a_stall_is_charged_to_every_batch_due_during_it() {
        let p = Pacer::new(256, 2_560_000.0);
        // The generator stalls 350 µs after sending batch 0 on time, then
        // sends back to back: batches 1..=3 were due at 100/200/300 µs.
        let resumed = 350_000;
        assert_eq!(p.late_ns(1, resumed), 250_000);
        assert_eq!(p.late_ns(2, resumed), 150_000);
        assert_eq!(p.late_ns(3, resumed), 50_000);
        assert_eq!(p.late_ns(4, resumed), 0);
    }

    #[test]
    fn expected_fates_follow_the_cycle() {
        let oracle = [
            Verdict::Forward(1),
            Verdict::Drop,
            Verdict::Drop,
            Verdict::ParserReject,
        ];
        // Two full cycles plus the first three frames.
        assert_eq!(
            Fates::expected(&oracle, 11),
            Fates {
                forwarded: 3,
                dropped: 6,
                rejected: 2
            }
        );
        assert_eq!(Fates::expected(&oracle, 0), Fates::default());
    }

    #[test]
    fn process_clocks_read_this_process() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "burning CPU advances the clock");
        assert!(peak_rss_mb() > 0.0);
    }
}
