//! The traced run: one workload's per-layer metrics, every layer measured
//! from outside through its crate's public functions. A layer is a crate;
//! a metric name is `<crate>.<what>`. A measurement that does not apply to
//! the workload (vote metrics without a vote stage, learning metrics for
//! the hand-written ACL, the fleet arm on a multi-stage pipeline) reads 0.

use crate::fixture::{self, Fixture, Sizing, Workload, BATCH};
use crate::report::{self, Metric, RunResult};
use crate::serve::{self, Churn, Mode, Packer};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::yardstick::{self, Yardstick};
use p4guard_dataplane::action::{Action, Verdict};
use p4guard_dataplane::compiled::{CompiledTable, LookupOutcome};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::minimize::minimize;
use p4guard_dataplane::pipeline::{BatchScratch, ReadPipeline};
use p4guard_dataplane::switch::{Switch, SwitchCounters};
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table, TableEntry};
use p4guard_dataplane::vote::VoteStage;
use p4guard_features::extract::ByteDataset;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetGateway, TenantRegistry, TenantShare, TenantSpec,
};
use p4guard_gateway::Gateway;
use p4guard_nn::data::Standardizer;
use p4guard_packet::FrameBatch;
use p4guard_rules::forest::RandomForest;
use p4guard_rules::{compile_tree, CompileConfig, RuleSet, TernaryEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Inline batches re-enacted stage by stage (fixed work; every batch
/// leaves a handful of spans in the trace file).
const REENACT_BATCHES: u64 = 1024;
/// Closed-loop arms are interleaved for at least this many rounds.
const MIN_ROUNDS: usize = 3;
/// Entries in each synthetic per-engine table (the `f11_lookup` shape).
const ENGINE_ENTRIES: usize = 1024;

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Median seconds of `reps` calls of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    sizing: Sizing,
    tracer: &mut Tracer,
) -> RunResult {
    tracer.set_enabled(false);
    let fx = Fixture::build(workload, seed, sizing);
    let oracle = fx.oracle();
    let pipeline = fx.control().snapshot();
    let mut result = RunResult::new(workload.name, seed, 0, 0);
    result.strategies = report::strategies(&pipeline);
    let mut rows = Rows {
        fx: &fx,
        oracle: &oracle,
        pipeline: &pipeline,
        frames: fixture::trial_frames(workload, sizing),
        seconds,
        sizing,
        result,
    };
    // Per-layer rows are read as measured, not brought to yardstick speed:
    // they split one run's time between layers. The speed the machine ran at
    // is a row of its own, probed between the sections.
    let mut yardstick = Yardstick::new();
    let mut speeds = vec![yardstick.probe()];
    rows.learning();
    let plain_pps = rows.closed_arms(tracer);
    speeds.push(yardstick.probe());
    rows.reads_beside_writes(tracer);
    rows.inline(tracer, plain_pps);
    speeds.push(yardstick.probe());
    rows.vote();
    rows.engines();
    speeds.push(yardstick.probe());
    rows.publish(tracer);
    rows.open_loop();
    speeds.push(yardstick.probe());
    let speeds: Vec<f64> = speeds
        .iter()
        .flat_map(|s| [s.dispatcher, s.shards])
        .collect();
    rows.put("ledger.machine_speed", "ratio", stats::median(&speeds));
    rows.result
}

/// One traced run in progress: what every section reads, and the result the
/// sections append their rows to.
struct Rows<'a> {
    fx: &'a Fixture,
    oracle: &'a [Verdict],
    pipeline: &'a ReadPipeline,
    /// Frames per closed-loop trial.
    frames: u64,
    seconds: f64,
    sizing: Sizing,
    result: RunResult,
}

impl Rows<'_> {
    fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.result.metrics.push(Metric::new(name, value, unit));
    }

    /// `traffic` and the learning half, from the set-up just run.
    fn learning(&mut self) {
        let fx = self.fx;
        let learned = &fx.learned;
        let guard = learned.guard.as_ref();
        let timings = guard.map(|g| g.timings).unwrap_or_default();
        let dataset_s = guard.map_or(0.0, |g| {
            median_secs(3, || {
                let view = ByteDataset::from_trace(&fx.train, g.config.window).to_nn_dataset();
                Standardizer::fit(view.features()).transform_dataset(&view)
            })
        });
        let optimize_s = guard.map_or(0.0, |g| {
            let raw = CompileConfig {
                optimize: false,
                ..g.config.compile
            };
            let unoptimized = compile_tree(&g.tree, &raw).expect("fixture tree compiles");
            median_secs(3, || unoptimized.ternary.clone().optimize())
        });
        self.put("traffic.generate_ms", "ms", ms(fx.generate_s));
        self.put("traffic.frames", "count", fx.generated_frames as f64);
        self.put("features.dataset_ms", "ms", ms(dataset_s));
        self.put(
            "features.select_ms",
            "ms",
            ms(timings.selection.as_secs_f64()),
        );
        self.put("nn.stage1_train_s", "s", timings.stage1_train.as_secs_f64());
        self.put("nn.stage2_train_s", "s", timings.stage2_train.as_secs_f64());
        self.put(
            "rules.tree_fit_ms",
            "ms",
            ms(timings.tree_fit.as_secs_f64()),
        );
        self.put("rules.compile_ms", "ms", ms(timings.compile.as_secs_f64()));
        self.put("rules.optimize_ms", "ms", ms(optimize_s));
        self.put("rules.forest_fit_ms", "ms", ms(learned.forest_fit_s));
        self.put(
            "rules.forest_compile_ms",
            "ms",
            ms(learned.forest_compile_s),
        );
        self.put("core.deploy_ms", "ms", ms(learned.deploy_s));
        self.put("core.train_to_live_s", "s", fx.to_live_s);
        // `train` also builds and balances the datasets, which its own phase
        // timings leave out; a wide gap means they no longer tell the story.
        let inside = timings.total().as_secs_f64();
        if (learned.train_s - inside).abs() > 0.15 * learned.train_s {
            self.result.notes.push(format!(
                "trace_divergence: TwoStagePipeline::train took {:.3} s, its phase timings sum to {inside:.3} s",
                learned.train_s
            ));
        }
    }

    /// One checked closed-loop trial; returns its pps and allocations.
    fn closed(&mut self, mode: Mode, tracer: &mut Tracer) -> (f64, u64) {
        let t = serve::closed_trial(self.fx, self.frames, mode, None, tracer);
        self.result.attempted += t.frames;
        self.result.failed += serve::closed_failures(&t, self.oracle, false);
        (t.pps(), t.allocs)
    }

    /// Closed loop: every arm served in turn, round after round, so machine
    /// drift hits all arms alike. Returns the plain arm's pps.
    fn closed_arms(&mut self, tracer: &mut Tracer) -> f64 {
        let fx = self.fx;
        let fleet = single_stage_ruleset(&fx.switch).map(|rs| fleet_registry(fx, &rs));
        let mut arms = Arms::default();
        let mut serve_allocs = 0u64;
        let budget = Duration::from_secs_f64(self.seconds * 0.6);
        let t0 = Instant::now();
        self.closed(Mode::Plain, tracer);
        while arms.plain.len() < MIN_ROUNDS || t0.elapsed() < budget {
            arms.plain.push(self.closed(Mode::Plain, tracer).0);
            // The traced arm: spans on, allocations counted.
            tracer.set_enabled(true);
            tracer.next_trial();
            spans::count_allocs(true);
            let (pps, allocs) = self.closed(Mode::Plain, tracer);
            spans::count_allocs(false);
            tracer.set_enabled(false);
            arms.traced.push(pps);
            serve_allocs += allocs;
            arms.registry.push(self.closed(Mode::Registry, tracer).0);
            arms.tracing.push(self.closed(Mode::Tracing, tracer).0);
            arms.mirror.push(self.closed(Mode::Mirror, tracer).0);
            arms.per_frame
                .push(per_frame_trial(fx, self.frames / 8 + 1));
            if let Some(registry) = &fleet {
                arms.fleet.push(fleet_trial(fx, registry, self.frames));
            }
        }
        // Each arm against the plain trial of its own round: the two are a
        // fraction of a second apart, so most of what the machine's speed
        // did to one it did to the other, and the median over rounds drops
        // the rounds where it did not. An arm that did not run (no fleet on
        // a multi-stage pipeline) is 0.
        let median_pps = |arm: &[f64]| match arm {
            [] => 0.0,
            _ => stats::median(arm),
        };
        let plain_pps = median_pps(&arms.plain);
        let overhead_pct = |arm: &[f64]| match arm {
            [] => 0.0,
            _ => {
                let kept: Vec<f64> = arm.iter().zip(&arms.plain).map(|(a, p)| a / p).collect();
                (1.0 - stats::median(&kept)) * 100.0
            }
        };
        let traced_frames = (arms.traced.len() as u64 * self.frames) as f64;
        let per_traced_frame = |n: u64| n as f64 / traced_frames;
        let (pack_ns, pack_allocs) = tracer.total("packet.pack");
        let (dispatch_ns, _) = tracer.total("gateway.dispatch");
        let (drain_ns, _) = tracer.total("gateway.drain");
        let copied: usize = fx.frames.iter().map(|f| f.len()).sum();
        self.put("packet.pack_ns_per_frame", "ns", per_traced_frame(pack_ns));
        self.put(
            "packet.copied_bytes_per_frame",
            "B",
            copied as f64 / fx.frames.len() as f64,
        );
        self.put(
            "packet.allocs_per_kframe",
            "count",
            per_traced_frame(pack_allocs) * 1e3,
        );
        self.put(
            "gateway.dispatch_ns_per_frame",
            "ns",
            per_traced_frame(dispatch_ns),
        );
        self.put(
            "gateway.drain_ms",
            "ms",
            drain_ns as f64 / 1e6 / arms.traced.len() as f64,
        );
        // Everything the process allocated while serving, less the packing.
        self.put(
            "gateway.allocs_per_kframe",
            "count",
            per_traced_frame(serve_allocs.saturating_sub(pack_allocs)) * 1e3,
        );
        self.put(
            "gateway.per_frame_pps",
            "1/s",
            stats::median(&arms.per_frame),
        );
        self.put(
            "gateway.mirror_overhead_pct",
            "%",
            overhead_pct(&arms.mirror),
        );
        self.put(
            "telemetry.sink_overhead_pct",
            "%",
            overhead_pct(&arms.registry),
        );
        self.put(
            "telemetry.trace_overhead_pct",
            "%",
            overhead_pct(&arms.tracing),
        );
        self.put("fleet.overhead_pct", "%", overhead_pct(&arms.fleet));
        self.put("fleet.pps", "1/s", median_pps(&arms.fleet));
        self.put("ledger.trace_overhead_pct", "%", overhead_pct(&arms.traced));
        plain_pps
    }

    /// Reads beside writes: one churning, scraped trial on the registry sink.
    fn reads_beside_writes(&mut self, tracer: &mut Tracer) {
        let mut churn = Churn::new(self.fx);
        // What `loop_churn` does, whatever the workload.
        churn.observe = true;
        churn.every = serve::REPUBLISH_EVERY;
        tracer.set_enabled(true);
        tracer.next_trial();
        let t = serve::closed_trial(
            self.fx,
            self.frames,
            Mode::Registry,
            Some(&mut churn),
            tracer,
        );
        tracer.set_enabled(false);
        self.result.attempted += t.frames;
        self.result.failed += serve::closed_failures(&t, self.oracle, true);
        self.put(
            "gateway.snapshot_us",
            "us",
            stats::median(&churn.snapshot_us),
        );
        self.put("telemetry.scrape_ms", "ms", stats::median(&churn.scrape_ms));
        self.put("telemetry.series", "count", churn.series as f64);
    }

    /// Inline: the real batch call beside a stage-by-stage re-enactment of it
    /// on the same batch, then the per-frame path.
    fn inline(&mut self, tracer: &mut Tracer, plain_pps: f64) {
        let (fx, pipeline) = (self.fx, self.pipeline);
        let batches = (REENACT_BATCHES / self.sizing.shrink).max(16);
        let mut reenact = Reenact::default();
        let mut packer = Packer::new(fx);
        let mut counters = SwitchCounters::default();
        let mut scratch = BatchScratch::new();
        let mut verdicts = Vec::with_capacity(BATCH);
        tracer.set_enabled(true);
        tracer.next_trial();
        spans::count_allocs(true);
        let root = tracer.enter("inline");
        for _ in 0..batches {
            let (batch, _) = packer.pack(BATCH);
            verdicts.clear();
            let span = tracer.enter("dataplane.batch");
            pipeline.process_batch_into(
                batch.data(),
                batch.spans(),
                &mut counters,
                &mut scratch,
                &mut verdicts,
            );
            tracer.exit(span);
            reenact.batch(fx, pipeline, &batch, tracer);
        }
        tracer.exit(root);
        spans::count_allocs(false);
        tracer.set_enabled(false);

        let frames = (batches * BATCH as u64) as f64;
        let keys = reenact.keys.max(1) as f64;
        let (batch_ns, batch_allocs) = tracer.total("dataplane.batch");
        let (parse_ns, key_ns, lookup_ns) = (
            tracer.total("dataplane.parse").0 as f64,
            tracer.total("dataplane.key").0 as f64,
            tracer.total("dataplane.lookup").0 as f64,
        );
        let batch_ns_per_frame = batch_ns as f64 / frames;
        let batch_us = stats::sorted(tracer.durations_us("dataplane.batch"));
        let batch_p99_us = stats::percentile_supported(&batch_us, 99.0)
            .or_else(|| stats::highest_supported_percentile(&batch_us).map(|(_, v)| v))
            .unwrap_or(batch_us[batch_us.len() - 1]);
        self.put("dataplane.parse_ns_per_frame", "ns", parse_ns / frames);
        self.put("dataplane.key_ns_per_key", "ns", key_ns / keys);
        self.put("dataplane.lookup_ns_per_key", "ns", lookup_ns / keys);
        self.put("dataplane.keys_per_frame", "count", keys / frames);
        self.put("dataplane.batch_ns_per_frame", "ns", batch_ns_per_frame);
        self.put("dataplane.batch_p99_us", "us", batch_p99_us);
        self.put(
            "dataplane.apply_ns_per_frame",
            "ns",
            batch_ns_per_frame - (parse_ns + key_ns + lookup_ns) / frames,
        );
        self.put("dataplane.hit_share", "ratio", reenact.hits as f64 / keys);
        self.put(
            "dataplane.allocs_per_kframe",
            "count",
            batch_allocs as f64 * 1e3 / frames,
        );
        self.put(
            "gateway.hop_ns_per_frame",
            "ns",
            1e9 * fixture::shards() as f64 / plain_pps - batch_ns_per_frame,
        );

        // The per-frame path (`Ingest::Frame` ends in `process_into`).
        let mut frame_scratch = vec![0u8; pipeline.scratch_len()];
        let per_frame_s = median_secs(3, || {
            for frame in &fx.frames {
                std::hint::black_box(pipeline.process_into(
                    frame,
                    &mut counters,
                    &mut frame_scratch,
                ));
            }
        });
        self.put(
            "dataplane.frame_ns_per_frame",
            "ns",
            per_frame_s * 1e9 / fx.frames.len() as f64,
        );
    }

    /// The vote path against its two neighbours: the same forest voting in
    /// full, and the single CART tree of the same recipe.
    fn vote(&mut self) {
        let fx = self.fx;
        let batches = 256 / self.sizing.shrink as usize + 1;
        let inline_ns_per_frame = |p: &ReadPipeline| {
            let pass = serve::inline_pass(fx, p, None, batches);
            (pass.elapsed_s * 1e9 / pass.frames as f64, pass)
        };
        let (mut exit_share, mut full_ns, mut retained) = (0.0, 0.0, 0.0);
        if let (Some(_), Some(guard)) = (self.pipeline.vote(), &fx.learned.guard) {
            let (forest_ns, pass) = inline_ns_per_frame(self.pipeline);
            exit_share = pass.vote_early_exits as f64 / pass.frames as f64;
            let mut full = fx.switch.clone();
            full.set_vote(Some(VoteStage::majority()));
            full_ns = inline_ns_per_frame(&full.read_pipeline(1)).0;
            let offsets = &guard.selection.offsets;
            let (flat, labels) = fixture::forest_inputs(&fx.train, guard.config.window, offsets);
            let tree = RandomForest::fit(offsets.len(), &flat, &labels, fixture::forest_config(1))
                .compile(&CompileConfig::default())
                .expect("single tree compiles");
            let single =
                fixture::forest_switch(&tree, guard.config.window, offsets, VoteStage::majority());
            retained = inline_ns_per_frame(&single.read_pipeline(1)).0 / forest_ns;
        }
        self.put("dataplane.vote_exit_share", "ratio", exit_share);
        self.put("dataplane.vote_full_ns_per_frame", "ns", full_ns);
        self.put("dataplane.vote_retained_share", "ratio", retained);
    }

    /// Which engine a ruleset should land on: the same 1024 entries per kind.
    fn engines(&mut self) {
        for (suffix, kind, diverse_masks, expected) in [
            ("exact", MatchKind::Exact, false, "exact-hash"),
            ("lpm", MatchKind::Lpm, false, "lpm-buckets"),
            ("range", MatchKind::Range, false, "range-index"),
            ("tuple_space", MatchKind::Ternary, false, "tuple-space"),
            ("scan", MatchKind::Ternary, true, "scan"),
        ] {
            let (ns, strategy) = engine_lookup_ns(kind, diverse_masks, ENGINE_ENTRIES);
            self.put(&format!("dataplane.lookup_ns_per_key.{suffix}"), "ns", ns);
            if strategy != expected {
                self.result
                    .notes
                    .push(format!("engine fixture `{suffix}` lowered to `{strategy}`"));
            }
        }
    }

    /// Compile and publish, on an idle gateway.
    fn publish(&mut self, tracer: &mut Tracer) {
        let fx = self.fx;
        let source: Vec<Vec<TableEntry>> = (0..fx.switch.stage_count())
            .map(|i| fx.switch.stage(i).entries().to_vec())
            .collect();
        let minimize_s = median_secs(3, || {
            source
                .iter()
                .map(|e| minimize(MatchKind::Ternary, e).entries.len())
                .sum::<usize>()
        });
        let compile_s = median_secs(3, || fx.switch.read_pipeline(1));
        let control = fx.control();
        let gw = yardstick::on_shard_cpus(|| Gateway::start(&control, fixture::gateway_config()));
        let full_s = median_secs(3, || reinstall_and_publish(&control, &source));
        let mut idle = Churn::new(fx);
        for _ in 0..6 {
            idle.republish(&control, tracer);
        }
        gw.finish();
        self.put("dataplane.minimize_ms", "ms", ms(minimize_s));
        self.put("dataplane.compile_ms", "ms", ms(compile_s));
        self.put("dataplane.publish_full_ms", "ms", ms(full_s));
        self.put(
            "dataplane.publish_delta_ms",
            "ms",
            stats::median(&idle.republish_ms),
        );
        self.put(
            "dataplane.stages_recompiled",
            "count",
            stats::median(&idle.stages_recompiled),
        );
    }

    /// Open loop at the frozen offered rate. A refused batch is reported, not
    /// failed; an accepted frame that never comes out is a failure.
    fn open_loop(&mut self) {
        let open = serve::open_phase(self.fx, Duration::from_secs_f64(self.seconds * 0.2));
        let accepted = open.offered - open.refused;
        self.result.attempted += accepted;
        self.result.failed += accepted.abs_diff(open.snapshot.totals.received);
        let depth = stats::sorted(open.depth);
        let late = stats::sorted(open.late_us);
        let tail = |s: &[f64]| stats::highest_supported_percentile(s).map_or(0.0, |(_, v)| v);
        self.put(
            "gateway.openloop_loss_share",
            "ratio",
            open.refused as f64 / open.offered as f64,
        );
        self.put(
            "gateway.queue_depth_p50",
            "count",
            stats::median_sorted(&depth),
        );
        self.put("gateway.queue_depth_p99", "count", tail(&depth));
        self.put("gateway.gen_late_p99_us", "us", tail(&late));
    }
}

/// `serve_pps` samples of each closed-loop arm.
#[derive(Default)]
struct Arms {
    plain: Vec<f64>,
    traced: Vec<f64>,
    registry: Vec<f64>,
    tracing: Vec<f64>,
    mirror: Vec<f64>,
    per_frame: Vec<f64>,
    fleet: Vec<f64>,
}

/// The classic per-frame ingest path: one owned frame per queue message.
fn per_frame_trial(fx: &Fixture, frames: u64) -> f64 {
    let control = fx.control();
    let gw = yardstick::on_shard_cpus(|| Gateway::start(&control, fixture::gateway_config()));
    let t0 = Instant::now();
    for frame in fx.frames.iter().cycle().take(frames as usize) {
        gw.dispatch(frame.clone());
    }
    let snap = gw.finish();
    assert_eq!(
        snap.totals.received, frames,
        "per-frame path conserves frames"
    );
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// Stage 0 as a `RuleSet`, when the switch is one sequential ternary stage
/// (what a fleet tenant can hold).
fn single_stage_ruleset(sw: &Switch) -> Option<RuleSet> {
    if sw.stage_count() != 1 || sw.vote().is_some() {
        return None;
    }
    let table = sw.stage(0);
    let mut rs = RuleSet::new(table.key().width(), 0);
    for e in table.entries() {
        let MatchSpec::Ternary { value, mask } = &e.spec else {
            return None;
        };
        rs.push(TernaryEntry::new(
            value.clone(),
            mask.clone(),
            1,
            e.priority,
        ));
    }
    Some(rs)
}

/// Four tenants holding the workload's ruleset each, on a budget that never
/// binds.
fn fleet_registry(fx: &Fixture, ruleset: &RuleSet) -> TenantRegistry {
    let specs = (0..4)
        .map(|t| TenantSpec {
            name: format!("tenant{t}"),
            share: TenantShare::flat(),
        })
        .collect();
    let roomy = BudgetConfig {
        tcam_bits: 1 << 40,
        sram_bits: 1 << 40,
    };
    let layout = AclLayout {
        window: 64,
        offsets: fx.switch.stage(0).key().offsets().to_vec(),
        capacity: 1 << 16,
    };
    let mut registry = TenantRegistry::new(specs, roomy, layout).expect("flat shares are feasible");
    for tenant in 0..4 {
        registry
            .publish(tenant, ruleset, AdmitPolicy::Reject)
            .expect("ruleset fits a roomy budget");
    }
    registry
}

/// The closed loop through a `FleetGateway` instead of a `Gateway`.
fn fleet_trial(fx: &Fixture, registry: &TenantRegistry, frames: u64) -> f64 {
    let gw =
        yardstick::on_shard_cpus(|| FleetGateway::start(registry, fixture::gateway_config(), None));
    let mut packer = Packer::new(fx);
    let t0 = Instant::now();
    let mut sent = 0u64;
    while sent < frames {
        let n = (frames - sent).min(BATCH as u64) as usize;
        gw.dispatch_batch(packer.pack(n).0);
        sent += n as u64;
    }
    let snap = gw.finish();
    assert_eq!(snap.totals.received, frames, "fleet path conserves frames");
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// Clears every stage, installs `source` again and publishes: the full
/// reinstall a delta publish is measured against.
fn reinstall_and_publish(control: &ControlPlane, source: &[Vec<TableEntry>]) {
    control.with_switch_mut(|sw| {
        for (stage, entries) in source.iter().enumerate() {
            let table = sw.stage_mut(stage);
            table.clear();
            for e in entries {
                table
                    .insert(e.spec.clone(), e.action, e.priority)
                    .expect("entries fit the table they came from");
            }
        }
    });
    control.publish();
}

/// Re-enacts `process_batch_into` stage by stage through the public
/// functions it is built from — `ParserSpec::accepts`, then per stage
/// `KeyLayout::build_key_into` and `CompiledTable::lookup_batch` over the
/// frames still alive — so each gets a span of its own. The untimed step
/// between stages applies the walker's rule for who stays alive: not
/// dropped (sequential), or vote still undecided (ensemble).
#[derive(Default)]
struct Reenact {
    alive: Vec<u32>,
    key_matrix: Vec<u8>,
    probe: Vec<u8>,
    looked: Vec<(Action, LookupOutcome)>,
    votes: Vec<(usize, usize)>,
    /// Keys built and looked up, and how many of them hit.
    keys: u64,
    hits: u64,
}

impl Reenact {
    fn batch(
        &mut self,
        fx: &Fixture,
        pipeline: &ReadPipeline,
        batch: &FrameBatch,
        tracer: &mut Tracer,
    ) {
        let span = tracer.enter("dataplane.parse");
        self.alive.clear();
        for i in 0..batch.len() {
            if fx.parser.accepts(batch.frame(i)) {
                self.alive.push(i as u32);
            }
        }
        tracer.exit(span);
        let vote = pipeline.vote();
        self.votes.clear();
        self.votes.resize(batch.len(), (0, 0));
        for table in pipeline.stages() {
            if self.alive.is_empty() {
                break;
            }
            let width = table.key().width();
            let span = tracer.enter("dataplane.key");
            self.key_matrix.clear();
            self.key_matrix.resize(self.alive.len() * width, 0);
            for (j, &i) in self.alive.iter().enumerate() {
                table.key().build_key_into(
                    batch.frame(i as usize),
                    &mut self.key_matrix[j * width..(j + 1) * width],
                );
            }
            tracer.exit(span);
            let span = tracer.enter("dataplane.lookup");
            self.looked.clear();
            self.looked
                .resize(self.alive.len(), (Action::NoOp, LookupOutcome::Miss));
            if self.probe.len() < width {
                self.probe.resize(width, 0);
            }
            table.lookup_batch(&self.key_matrix, width, &mut self.probe, &mut self.looked);
            tracer.exit(span);

            self.keys += self.alive.len() as u64;
            let mut kept = 0;
            for j in 0..self.alive.len() {
                let i = self.alive[j];
                let (action, outcome) = self.looked[j];
                let hit = matches!(outcome, LookupOutcome::Hit(_));
                self.hits += u64::from(hit);
                let stays = match vote {
                    Some(v) => {
                        let tally = &mut self.votes[i as usize];
                        if hit {
                            tally.0 += 1;
                        } else {
                            tally.1 += 1;
                        }
                        !v.early_exit.is_some_and(|e| e.decided(tally.0, tally.1))
                    }
                    None => action != Action::Drop,
                };
                if stays {
                    self.alive[kept] = i;
                    kept += 1;
                }
            }
            self.alive.truncate(kept);
        }
    }
}

/// Nanoseconds per key of `CompiledTable::lookup_batch` on a synthetic
/// table of `kind` (half the probe keys hit), and the engine it lowered to.
/// Eight shared byte masks steer a ternary table to tuple-space; a random
/// bit mask per entry (`diverse_masks`) steers it to the scan fallback.
fn engine_lookup_ns(kind: MatchKind, diverse_masks: bool, entries: usize) -> (f64, &'static str) {
    const WIDTH: usize = 8;
    const KEYS: usize = 1024;
    let mut rng = StdRng::seed_from_u64(fixture::FIXTURE_SEED ^ 0xf11);
    let mut table = Table::new(
        "engine",
        kind,
        KeyLayout::window(WIDTH),
        entries,
        Action::NoOp,
    );
    let mask_pool: Vec<Vec<u8>> = (0..if diverse_masks { entries } else { 8 })
        .map(|_| {
            (0..WIDTH)
                .map(|_| match (diverse_masks, rng.gen::<u8>()) {
                    (true, bits) => bits,
                    (false, bits) => 0xff * (bits & 1),
                })
                .collect()
        })
        .collect();
    let mut hit_keys = Vec::with_capacity(entries);
    for i in 0..entries {
        let value: Vec<u8> = (0..WIDTH).map(|_| rng.gen()).collect();
        let spec = match kind {
            MatchKind::Exact => MatchSpec::Exact(value.clone()),
            MatchKind::Ternary => MatchSpec::Ternary {
                value: value.clone(),
                mask: mask_pool[i % mask_pool.len()].clone(),
            },
            MatchKind::Lpm => MatchSpec::Lpm {
                value: value.clone(),
                prefix_len: 8 * rng.gen_range(1..=8usize),
            },
            MatchKind::Range => MatchSpec::Range {
                hi: value
                    .iter()
                    .map(|&lo| lo.saturating_add(rng.gen_range(0..=32)))
                    .collect(),
                lo: value.clone(),
            },
        };
        hit_keys.push(value);
        table
            .insert(spec, Action::Drop, rng.gen_range(0..4))
            .expect("table sized to the entries");
    }
    let compiled = CompiledTable::compile(&table);
    let mut key_matrix = Vec::with_capacity(KEYS * WIDTH);
    for i in 0..KEYS {
        if i % 2 == 0 {
            key_matrix.extend_from_slice(&hit_keys[(i / 2) % hit_keys.len()]);
        } else {
            key_matrix.extend((0..WIDTH).map(|_| rng.gen::<u8>()));
        }
    }
    let mut probe = vec![0u8; WIDTH];
    let mut out = vec![(Action::NoOp, LookupOutcome::Miss); KEYS];
    let secs = median_secs(5, || {
        compiled.lookup_batch(&key_matrix, WIDTH, &mut probe, &mut out);
        out[0]
    });
    (secs * 1e9 / KEYS as f64, compiled.strategy())
}
