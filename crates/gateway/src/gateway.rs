//! The gateway runtime: N shard workers behind bounded frame queues, fed
//! by flow-hash dispatch, serving the control plane's latest published
//! ruleset snapshot.

use crate::flow::shard_for;
use crate::mirror::MirrorTap;
use crate::shard::{run_shard, Lane, LaneStats, ShardStats};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::pipeline::PipelineCell;
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_packet::arena::FrameBatch;
use p4guard_telemetry::histogram::LatencyHistogram;
use p4guard_telemetry::{Counter, DropReason, Event, Gauge, NoopSink, Telemetry, TelemetrySink};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// Worker shards (≥ 1).
    pub shards: usize,
    /// Bounded per-shard queue depth; when full, non-blocking ingest drops
    /// with a counter instead of growing without bound.
    pub queue_capacity: usize,
    /// Frames a shard drains per batch (the ruleset-swap granularity).
    pub batch_size: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 2,
            queue_capacity: 1024,
            batch_size: 32,
        }
    }
}

impl GatewayConfig {
    /// A config with `shards` shards and default queue sizing.
    pub fn with_shards(shards: usize) -> Self {
        GatewayConfig {
            shards,
            ..Self::default()
        }
    }
}

/// Point-in-time view of the whole gateway: per-shard stats plus
/// aggregates with the same semantics as a single-switch replay. The
/// version and occupancy fields describe lane 0 — the only lane of a
/// single-tenant gateway; a fleet reads its other lanes through
/// [`Gateway::lane_cells`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewaySnapshot {
    /// Per-shard statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Frames handed to any ingest method since start, counted before
    /// they are mirrored or routed. Read after the shard stats, so every
    /// frame a shard shows as processed is counted here too; once the
    /// gateway is drained,
    /// `Σ shards.processed + dropped_backpressure == offered`.
    pub offered: u64,
    /// Frames dropped at ingest because a shard queue was full.
    pub dropped_backpressure: u64,
    /// Newest ruleset version published to any shard. During a canary
    /// rollout shards intentionally diverge — see
    /// [`GatewaySnapshot::shard_versions`] for the per-shard truth.
    pub version: u64,
    /// Active ruleset version in each shard's publication cell, indexed by
    /// shard. Unlike [`LaneStats::ruleset_version`] (the version the
    /// worker last *processed* with), this is what the shard will serve
    /// next — the value a canary engine compares against its candidate.
    pub shard_versions: Vec<u64>,
    /// Sum of all shard counters.
    pub totals: SwitchCounters,
    /// Merged forwarding-latency histogram.
    pub latency: LatencyHistogram,
    /// Installed entries in the newest serving pipeline (source count,
    /// before minimization), summed over its stages.
    #[serde(default)]
    pub pipeline_entries: usize,
    /// Rows the newest serving pipeline's lowered engines index after
    /// minimization (entries folded into boxes); `<= pipeline_entries`.
    #[serde(default)]
    pub pipeline_entries_minimized: usize,
}

impl GatewaySnapshot {
    /// Frames whose ensemble vote early-exited, summed over shards (see
    /// [`ShardStats::vote_exits`]).
    pub fn vote_exits(&self) -> u64 {
        self.shards.iter().map(|s| s.vote_exits).sum()
    }

    /// Conservation identities found broken, summed over shards (see
    /// [`ShardStats::conservation_violations`]); 0 on a healthy gateway.
    pub fn conservation_violations(&self) -> u64 {
        self.shards.iter().map(|s| s.conservation_violations).sum()
    }

    /// Frames the gateway has accounted for: taken off a shard queue
    /// (served by a lane, or counted unclassified) or shed at ingest.
    fn accounted(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum::<u64>() + self.dropped_backpressure
    }
}

impl fmt::Display for GatewaySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gateway: {} shards, ruleset v{}, {}, {} backpressure drops",
            self.shards.len(),
            self.version,
            self.totals,
            self.dropped_backpressure,
        )?;
        writeln!(f, "latency: {}", self.latency)?;
        for s in &self.shards {
            let active = self.shard_versions.get(s.shard).copied().unwrap_or(0);
            writeln!(
                f,
                "  shard {}: {} frames in {} batches, {} swaps seen (processed v{}, serving v{})",
                s.shard, s.processed, s.batches, s.swaps_seen, s.lanes[0].ruleset_version, active
            )?;
        }
        Ok(())
    }
}

/// [`Gateway::wait_drained`] ran out of time before the gateway had
/// accounted for every frame offered before the call.
#[derive(Clone, PartialEq)]
pub struct DrainTimeout {
    /// Frames the gateway had been offered when the wait began.
    pub offered: u64,
    /// The last snapshot taken before giving up (boxed: the error path
    /// should not make every `Result` carry a second snapshot inline).
    pub snapshot: Box<GatewaySnapshot>,
}

impl fmt::Display for DrainTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gateway accounted for {} of {} offered frames before the deadline \
             ({} received, {} backpressure drops)",
            self.snapshot.accounted(),
            self.offered,
            self.snapshot.totals.received,
            self.snapshot.dropped_backpressure,
        )
    }
}

/// The one-line summary, not the whole snapshot: this is what an
/// `expect` on [`Gateway::wait_drained`] prints.
impl fmt::Debug for DrainTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DrainTimeout({self})")
    }
}

impl std::error::Error for DrainTimeout {}

/// The online serving runtime. See the crate docs for the architecture.
///
/// Created with [`Gateway::start`]; frames enter through
/// [`Gateway::offer_batch`] (drop-on-full) or [`Gateway::dispatch_batch`]
/// (blocking), and the gateway counts every one it is offered
/// ([`GatewaySnapshot::offered`]), so no caller keeps a total;
/// [`Gateway::wait_drained`] is the checkpoint between offering frames
/// and reading what they did; [`Gateway::finish`] drains the queues, joins
/// the workers and returns the final [`GatewaySnapshot`], whose
/// `Σ shards.processed + dropped_backpressure` equals `offered`.
pub struct Gateway {
    senders: Vec<Sender<FrameBatch>>,
    workers: Vec<JoinHandle<()>>,
    states: Vec<Arc<Mutex<ShardStats>>>,
    /// Frames handed to any ingest method, one add per batch in
    /// [`Gateway::route`].
    offered: AtomicU64,
    ingest_drops: Vec<AtomicU64>,
    /// `cells[lane][shard]`.
    cells: Vec<Vec<Arc<PipelineCell>>>,
    mirror: Arc<MirrorTap>,
    config: GatewayConfig,
    telemetry: Option<GatewayTelemetry>,
}

/// The gateway-side telemetry handles: per-shard backpressure counters
/// (ingest drops happen before a frame reaches any shard sink) and the
/// shared bundle for overload flight-recorder events.
struct GatewayTelemetry {
    bundle: Arc<Telemetry>,
    backpressure: Vec<Counter>,
    queue_depth: Vec<Gauge>,
    batch_fill: Vec<Gauge>,
}

fn spawn_shard<C, S>(
    shard: usize,
    rx: Receiver<FrameBatch>,
    lanes: Vec<Lane<S>>,
    classify: C,
    state: Arc<Mutex<ShardStats>>,
    batch_size: usize,
    violations: Option<Counter>,
) -> JoinHandle<()>
where
    C: Fn(&[u8]) -> usize + Send + 'static,
    S: TelemetrySink + Send + 'static,
{
    std::thread::Builder::new()
        .name(format!("p4guard-shard-{shard}"))
        .spawn(move || run_shard(rx, lanes, classify, state, batch_size, violations))
        .expect("spawn shard worker")
}

impl Gateway {
    /// Spawns `config.shards` workers serving the control plane's current
    /// pipeline, and subscribes the gateway to future
    /// [`ControlPlane::publish`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_capacity` is zero.
    pub fn start(control: &ControlPlane, config: GatewayConfig) -> Gateway {
        Self::start_with_telemetry(control, config, None)
    }

    /// [`Gateway::start`] with an optional telemetry bundle. When `Some`,
    /// every shard worker runs with a
    /// [`RegistrySink`](p4guard_telemetry::RegistrySink) feeding the
    /// bundle's registry and flight recorder, and ingest backpressure
    /// drops are counted under `p4guard_drops_total{reason="backpressure"}`
    /// with an [`Event::Overload`] recorded the first time each shard
    /// sheds. When `None`, workers run with [`NoopSink`] and the hot path
    /// is byte-identical to the un-instrumented gateway.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_capacity` is zero.
    pub fn start_with_telemetry(
        control: &ControlPlane,
        config: GatewayConfig,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Gateway {
        // A single-tenant gateway is a fleet of one: one lane, which the
        // shard loop serves whole without ever classifying.
        Self::start_lanes(&[(control, None)], |_| 0, config, telemetry)
    }

    /// Starts a gateway whose shards each serve several **lanes**: lane
    /// *l* follows the pipelines published by `lanes[l].0` and, with
    /// telemetry, labels its series `tenant = lanes[l].1`. Every shard
    /// regroups its frames by `classify(frame)`; an index outside
    /// `0..lanes.len()` counts the frame as
    /// [unclassified](ShardStats::unclassified) instead of serving it.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or `config.shards` or
    /// `config.queue_capacity` is zero.
    pub fn start_lanes<C>(
        lanes: &[(&ControlPlane, Option<&str>)],
        classify: C,
        config: GatewayConfig,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Gateway
    where
        C: Fn(&[u8]) -> usize + Clone + Send + 'static,
    {
        assert!(!lanes.is_empty(), "gateway needs at least one lane");
        assert!(config.shards > 0, "gateway needs at least one shard");
        assert!(config.queue_capacity > 0, "queue capacity must be nonzero");
        // One publication cell per lane per shard, each lane's pre-loaded
        // with the same snapshot and subscribed in shard order — so with
        // the gateway as a control plane's first subscriber, subscriber
        // index equals shard index and `ControlPlane::publish_to` can
        // canary a shard subset while the rest keep their version.
        let cells: Vec<Vec<Arc<PipelineCell>>> = lanes
            .iter()
            .map(|(control, _)| {
                let initial = control.snapshot();
                (0..config.shards)
                    .map(|_| {
                        let cell = Arc::new(PipelineCell::new((*initial).clone()));
                        control.subscribe(Arc::clone(&cell));
                        cell
                    })
                    .collect()
            })
            .collect();
        if let Some(t) = &telemetry {
            for (control, _) in lanes {
                control.set_recorder(Arc::clone(&t.recorder));
                if t.traces.enabled() {
                    control.set_tracer(Arc::clone(&t.traces));
                }
            }
            t.registry
                .gauge("p4guard_shards", "Worker shards in the gateway", &[])
                .set(config.shards as f64);
        }
        let mut senders = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut states = Vec::with_capacity(config.shards);
        let mut ingest_drops = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = bounded::<FrameBatch>(config.queue_capacity);
            let state = Arc::new(Mutex::new(ShardStats {
                shard,
                lanes: vec![LaneStats::default(); lanes.len()],
                ..ShardStats::default()
            }));
            let shard_cells = cells.iter().map(|row| Arc::clone(&row[shard]));
            let (classify, state_w) = (classify.clone(), Arc::clone(&state));
            let batch = config.batch_size.max(1);
            workers.push(match &telemetry {
                Some(t) => {
                    let lanes = shard_cells
                        .zip(lanes)
                        .map(|(cell, (_, tenant))| Lane::new(cell, t.shard_sink(shard, *tenant)))
                        .collect();
                    let violations = t.registry.counter(
                        "p4guard_conservation_violations_total",
                        "Frame-conservation identities found broken when a drain was published",
                        &[("shard", &shard.to_string())],
                    );
                    spawn_shard(shard, rx, lanes, classify, state_w, batch, Some(violations))
                }
                None => {
                    let lanes = shard_cells.map(|cell| Lane::new(cell, NoopSink)).collect();
                    spawn_shard(shard, rx, lanes, classify, state_w, batch, None)
                }
            });
            senders.push(tx);
            states.push(state);
            ingest_drops.push(AtomicU64::new(0));
        }
        let telemetry = telemetry.map(|bundle| {
            let shards = || (0..config.shards).map(|shard| shard.to_string());
            let gauge = |name, help| {
                shards()
                    .map(|shard| bundle.registry.gauge(name, help, &[("shard", &shard)]))
                    .collect()
            };
            GatewayTelemetry {
                backpressure: shards()
                    .map(|shard| {
                        bundle.registry.counter(
                            "p4guard_drops_total",
                            "Frames dropped, by reason",
                            &[
                                ("shard", &shard),
                                ("reason", DropReason::Backpressure.as_str()),
                            ],
                        )
                    })
                    .collect(),
                queue_depth: gauge(
                    "p4guard_queue_depth",
                    "Frames waiting in a shard's ingest queue",
                ),
                batch_fill: gauge(
                    "p4guard_batch_fill",
                    "Mean frames per processed FrameBatch on a shard",
                ),
                bundle,
            }
        });
        Gateway {
            senders,
            workers,
            states,
            offered: AtomicU64::new(0),
            ingest_drops,
            cells,
            mirror: Arc::new(MirrorTap::new()),
            config,
            telemetry,
        }
    }

    /// The gateway's sizing.
    pub fn config(&self) -> GatewayConfig {
        self.config
    }

    /// The per-shard publication cells the shards read from, indexed by
    /// shard (for tests and manual publication) — lane 0's, i.e. all of
    /// them on a single-tenant gateway.
    pub fn cells(&self) -> &[Arc<PipelineCell>] {
        &self.cells[0]
    }

    /// The publication cells of `lane`, indexed by shard.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds.
    pub fn lane_cells(&self, lane: usize) -> &[Arc<PipelineCell>] {
        &self.cells[lane]
    }

    /// The ingest mirror tap feeding shadow evaluation. Closed (zero-cost
    /// beyond one atomic load per batch) until a shadow evaluator opens
    /// it.
    pub fn mirror(&self) -> &Arc<MirrorTap> {
        &self.mirror
    }

    /// Shard index `frame` would be dispatched to.
    pub fn shard_of(&self, frame: &[u8]) -> usize {
        shard_for(frame, self.config.shards)
    }

    /// Non-blocking ingest of one frame — [`Gateway::offer_batch`] of a
    /// one-frame batch. Returns `true` when the frame was enqueued.
    pub fn offer(&self, frame: Bytes) -> bool {
        self.offer_batch(FrameBatch::single(frame)) == 1
    }

    /// Blocking ingest of one frame — [`Gateway::dispatch_batch`] of a
    /// one-frame batch.
    pub fn dispatch(&self, frame: Bytes) {
        self.dispatch_batch(FrameBatch::single(frame));
    }

    /// Counts `batch` as offered, mirrors it, then hands each shard its
    /// flow-hash share of it through `send(shard, sub_batch)`. Sub-batches
    /// share the arena chunk — no frame bytes are copied. With one shard,
    /// or one frame, the batch has a single owner and passes through whole.
    fn route(&self, batch: FrameBatch, mut send: impl FnMut(usize, FrameBatch)) {
        self.offered
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.mirror.observe_batch(&batch);
        let shards = self.config.shards;
        if batch.is_empty() {
            return;
        }
        if shards == 1 {
            send(0, batch);
        } else if batch.len() == 1 {
            send(shard_for(batch.frame(0), shards), batch);
        } else {
            let subs = batch.partition_by(shards, |frame| shard_for(frame, shards));
            for (shard, sub) in subs.into_iter().enumerate() {
                if !sub.is_empty() {
                    send(shard, sub);
                }
            }
        }
    }

    /// Blocking batch ingest: mirrors the batch, splits it per shard by
    /// flow hash, and waits for queue space on each shard. A shard's whole
    /// share crosses its queue as **one** message, so the channel cost is
    /// amortized over the batch.
    pub fn dispatch_batch(&self, batch: FrameBatch) {
        self.route(batch, |shard, sub| {
            let frames = sub.len() as u64;
            if self.senders[shard].send(sub).is_err() {
                self.note_ingest_drops(shard, frames);
            }
        });
    }

    /// Non-blocking batch ingest: like [`Gateway::dispatch_batch`] but a
    /// full shard queue drops that shard's whole sub-batch (counted as one
    /// backpressure drop per frame). Returns the number of frames that made
    /// it into a queue.
    pub fn offer_batch(&self, batch: FrameBatch) -> u64 {
        let mut enqueued = 0u64;
        self.route(batch, |shard, sub| {
            let frames = sub.len() as u64;
            match self.senders[shard].try_send(sub) {
                Ok(()) => enqueued += frames,
                Err(_) => self.note_ingest_drops(shard, frames),
            }
        });
        enqueued
    }

    /// Counts `count` ingest drops; with telemetry attached also bumps the
    /// backpressure drop counter and records an overload-onset event the
    /// first time this shard sheds.
    fn note_ingest_drops(&self, shard: usize, count: u64) {
        let previous = self.ingest_drops[shard].fetch_add(count, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.backpressure[shard].add(count);
            // A shed frame means the queue is at capacity right now — make
            // the overload visible even if nobody snapshots until later.
            t.queue_depth[shard].set(self.senders[shard].len() as f64);
            if previous == 0 {
                t.bundle.recorder.record(Event::Overload {
                    shard,
                    dropped: previous + count,
                });
            }
        }
    }

    /// Messages currently waiting in each shard's ingest queue, indexed by
    /// shard.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.senders.iter().map(Sender::len).collect()
    }

    /// Aggregates a live snapshot without stopping the workers. With
    /// telemetry attached, also refreshes the
    /// `p4guard_queue_depth{shard}` gauges — diurnal overload shows up on
    /// `/metrics` whenever anything observes the gateway.
    pub fn snapshot(&self) -> GatewaySnapshot {
        let shards: Vec<ShardStats> = self.states.iter().map(|s| s.lock().clone()).collect();
        if let Some(t) = &self.telemetry {
            for (s, tx) in shards.iter().zip(&self.senders) {
                t.queue_depth[s.shard].set(tx.len() as f64);
                t.batch_fill[s.shard].set(s.batch_fill());
            }
        }
        let mut totals = SwitchCounters::default();
        let mut latency = LatencyHistogram::new();
        for lane in shards.iter().flat_map(|s| &s.lanes) {
            totals.merge(&lane.counters);
            latency.merge(&lane.latency);
        }
        let shard_versions: Vec<u64> = self.cells().iter().map(|c| c.version()).collect();
        // Occupancy of the newest serving pipeline (any cell at the max
        // version serves identical bytes).
        let (pipeline_entries, pipeline_entries_minimized) = self
            .cells()
            .iter()
            .max_by_key(|c| c.version())
            .map(|c| {
                let p = c.load();
                (p.entry_count(), p.minimized_entry_count())
            })
            .unwrap_or((0, 0));
        let dropped_backpressure = self
            .ingest_drops
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum();
        GatewaySnapshot {
            // Last: a frame is counted before it is sent, so a frame in the
            // shard stats read above is in this load too.
            offered: self.offered.load(Ordering::Relaxed),
            dropped_backpressure,
            version: shard_versions.iter().copied().max().unwrap_or(0),
            shard_versions,
            totals,
            latency,
            shards,
            pipeline_entries,
            pipeline_entries_minimized,
        }
    }

    /// The drained checkpoint: blocks until the gateway has accounted for
    /// every frame offered to it before the call, and returns the snapshot
    /// that showed it.
    ///
    /// "Accounted for" is `Σ shards.processed + dropped_backpressure`, the
    /// two ways a frame leaves ingest: a worker took it off its queue
    /// (served by a lane or counted unclassified) or a full queue shed it.
    /// `totals.received` alone would never get there on a gateway that
    /// sheds or cannot classify one frame. The target is
    /// [`GatewaySnapshot::offered`] as it stands when the call begins;
    /// frames another thread offers meanwhile may or may not be included.
    /// A worker publishes a drain to the metrics registry *before* it adds
    /// it to the stats the snapshot reads (both once per drain, the second
    /// under the stats lock), so once this returns the counters *and* the
    /// registry reflect every frame offered before the call — which is what
    /// makes a control loop stepped at these checkpoints deterministic.
    ///
    /// This is the only polling loop in the workspace; it reads snapshots
    /// and touches nothing on the ingest or shard path.
    ///
    /// # Errors
    ///
    /// [`DrainTimeout`] carrying the last snapshot when `timeout` elapses
    /// first (a worker died or is stuck inside a batch).
    pub fn wait_drained(&self, timeout: Duration) -> Result<GatewaySnapshot, DrainTimeout> {
        let deadline = Instant::now() + timeout;
        let offered = self.offered.load(Ordering::Relaxed);
        loop {
            let snapshot = self.snapshot();
            if snapshot.accounted() >= offered {
                return Ok(snapshot);
            }
            if Instant::now() >= deadline {
                return Err(DrainTimeout {
                    offered,
                    snapshot: Box::new(snapshot),
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Closes ingest, lets every shard drain its queue, joins the workers
    /// and returns the final snapshot.
    pub fn finish(mut self) -> GatewaySnapshot {
        self.senders.clear(); // disconnects the channels; workers exit after draining
        for worker in self.workers.drain(..) {
            worker.join().expect("shard worker panicked");
        }
        self.snapshot()
    }
}
