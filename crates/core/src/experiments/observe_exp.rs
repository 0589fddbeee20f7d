//! F15-observe: the observability layer driven end to end.
//!
//! Two scripted episodes against live gateways, both seed-deterministic:
//!
//! - **traced replay**: a smart-home trace is replayed through the batched
//!   sharded gateway with tracing enabled. The mid-run hot swap must leave
//!   a flight-recorder event whose `trace_id` joins against the trace
//!   store (resolving to a `swap` span tree), and the stage profiler's
//!   high-latency exemplar must resolve to a full per-frame span tree that
//!   names the slowest stage, with the per-stage child spans summing
//!   (within slack) to the end-to-end frame span.
//! - **SLO wave**: a two-tenant fleet serves a quiet benign phase, then
//!   tenant 0 is hit with its attack frames. The per-tenant drop-rate
//!   burn gauge must stay calm through the quiet phase and trip (burn
//!   above 1) during the wave, while the victim's neighbour stays below
//!   the victim's burn.

use crate::config::GuardConfig;
use crate::experiments::live;
use crate::pipeline::TwoStagePipeline;
use p4guard_fleet::{
    AclLayout, AdmitPolicy, BudgetConfig, FleetGateway, FleetSim, FleetSimConfig, SimFrame,
    TenantRegistry,
};
use p4guard_gateway::GatewayConfig;
use p4guard_packet::arena::FrameBatch;
use p4guard_telemetry::{Event, Telemetry, TelemetryConfig};
use p4guard_traffic::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Simulated devices in the SLO-wave fleet.
const WAVE_DEVICES: u64 = 4_000;
/// Tenants in the SLO-wave fleet (tenant 0 is the attack victim).
const WAVE_TENANTS: usize = 2;

/// The traced-replay half of the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedReplay {
    /// Frames replayed.
    pub frames: u64,
    /// Sampled traces resident in the trace store afterwards.
    pub traces: usize,
    /// Whether the hot swap's audit event carried a `trace_id` that
    /// resolved to a `swap` span tree in the trace store.
    pub swap_trace_joined: bool,
    /// Trace id of the stage profiler's high-latency exemplar.
    pub exemplar_trace: u64,
    /// Spans in the exemplar's tree (root + stage children).
    pub exemplar_spans: usize,
    /// Name of the slowest stage child in the exemplar tree.
    pub slow_stage: String,
    /// Σ(stage child durations) / root frame-span duration. The stage
    /// laps bracket the same interval the frame latency measures, so this
    /// sits near 1; slack absorbs timer quantisation on fast batches.
    pub stage_sum_ratio: f64,
}

/// The SLO-wave half of the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWave {
    /// The victim tenant's name (the `tenant` gauge label).
    pub victim: String,
    /// Fast-window drop-rate burn after the quiet benign phase.
    pub quiet_burn: f64,
    /// Fast-window drop-rate burn after the attack wave.
    pub attack_burn: f64,
    /// The neighbour tenant's burn at the same instant.
    pub neighbour_burn: f64,
    /// Whether the victim's burn tripped (attack burn > 1) while staying
    /// above the neighbour's.
    pub tripped: bool,
}

/// The F15-observe report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct F15ObserveReport {
    /// Scenario seed.
    pub seed: u64,
    /// Gateway shards.
    pub shards: usize,
    /// The traced batched replay.
    pub replay: TracedReplay,
    /// The scripted SLO attack wave.
    pub wave: SloWave,
}

impl fmt::Display for F15ObserveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F15-observe: tracing + SLO burn layer (seed {}, {} shards)",
            self.seed, self.shards
        )?;
        let r = &self.replay;
        writeln!(
            f,
            "replay: {} frames, {} sampled traces, swap joined: {}",
            r.frames,
            r.traces,
            if r.swap_trace_joined { "yes" } else { "NO" }
        )?;
        writeln!(
            f,
            "exemplar: trace {:#x} ({} spans), slowest stage {:?}, stage-sum ratio {:.2}",
            r.exemplar_trace, r.exemplar_spans, r.slow_stage, r.stage_sum_ratio
        )?;
        let w = &self.wave;
        writeln!(
            f,
            "slo wave: tenant {:?} burn {:.2} quiet -> {:.2} under attack (neighbour {:.2}), tripped: {}",
            w.victim,
            w.quiet_burn,
            w.attack_burn,
            w.neighbour_burn,
            if w.tripped { "yes" } else { "NO" }
        )
    }
}

/// Replays a smart-home trace through the gateway with tracing on
/// and reads the swap join, the exemplar span tree, and the stage sums
/// back out of the bundle.
fn traced_replay(seed: u64, shards: usize) -> TracedReplay {
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 32,
        seed,
        tracing: true,
        ..TelemetryConfig::default()
    }));
    let trace = Scenario::smart_home_default(seed)
        .generate()
        .expect("smart-home scenario generates");
    let guard = TwoStagePipeline::new(GuardConfig::fast())
        .train(&trace)
        .expect("fast guard trains");
    let live = guard
        .serve_live(
            &trace,
            GatewayConfig::with_shards(shards),
            None,
            Some(Arc::clone(&telemetry)),
        )
        .expect("live replay");

    // The hot swap's audit event must join against the trace store.
    let swap_trace = telemetry
        .recorder
        .events()
        .iter()
        .find_map(|e| match e.event {
            Event::Swap {
                trace_id: Some(id), ..
            } => Some(id),
            _ => None,
        });
    let swap_trace_joined = swap_trace.is_some_and(|id| {
        telemetry
            .traces
            .by_trace(id)
            .iter()
            .any(|s| s.parent_id.is_none() && s.name == "swap")
    });

    // The profiler's high-latency exemplar must resolve to a span tree.
    let exemplar_trace = telemetry
        .profile
        .high_latency_exemplar()
        .expect("sampled replay leaves a latency exemplar");
    let spans = telemetry.traces.by_trace(exemplar_trace);
    let mut roots = spans.iter().filter(|s| s.parent_id.is_none());
    let root = match (roots.next(), roots.next()) {
        (Some(root), None) if root.name == "frame" => root.clone(),
        _ => panic!("exemplar must resolve to exactly one frame root span: {spans:?}"),
    };
    let children: Vec<_> = spans
        .iter()
        .filter(|s| s.parent_id == Some(root.span_id))
        .collect();
    let slow_stage = children
        .iter()
        .max_by_key(|s| s.duration_ns)
        .map(|s| s.name.clone())
        .unwrap_or_default();
    let stage_sum: u64 = children.iter().map(|s| s.duration_ns).sum();
    TracedReplay {
        frames: live.snapshot.totals.received,
        traces: telemetry.traces.recent_trace_ids(usize::MAX).len(),
        swap_trace_joined,
        exemplar_trace,
        exemplar_spans: spans.len(),
        slow_stage,
        stage_sum_ratio: stage_sum as f64 / root.duration_ns.max(1) as f64,
    }
}

/// Drives a two-tenant fleet through a quiet phase then an attack wave on
/// tenant 0, reading the drop-rate burn gauges between phases.
fn slo_wave(seed: u64, shards: usize) -> SloWave {
    let config = FleetSimConfig::demo(WAVE_TENANTS, WAVE_DEVICES, seed);
    let layout = AclLayout::default();
    let specs = super::fleet_exp::tenant_specs(&config);
    let mut registry = TenantRegistry::new(specs, BudgetConfig::default(), layout.clone())
        .expect("demo minimum guarantees fit the default budget");
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 64,
        seed,
        ..TelemetryConfig::default()
    }));
    registry.attach_telemetry(Arc::clone(&telemetry));

    let mut sim = FleetSim::new(config);
    for tenant in 0..WAVE_TENANTS {
        let ruleset = super::fleet_exp::train_tenant(&sim, tenant, &layout);
        registry
            .publish(tenant, &ruleset, AdmitPolicy::Reject)
            .expect("learned ruleset fits the tenant's fair share");
    }
    let victim = registry.spec(0).expect("tenant 0 exists").name.clone();
    let neighbour = registry.spec(1).expect("tenant 1 exists").name.clone();

    let gw = FleetGateway::start(
        &registry,
        GatewayConfig::with_shards(shards),
        Some(Arc::clone(&telemetry)),
    );
    let frames = sim.run();
    let single = |f: &SimFrame| FrameBatch::single(f.frame.clone());
    let is_benign = |f: &&SimFrame| f.label.class() == 0;
    let hits_victim = |f: &&SimFrame| f.tenant == 0 && f.label.class() == 1;
    let benign: Vec<_> = frames.iter().filter(is_benign).map(single).collect();
    let attack: Vec<_> = frames.iter().filter(hits_victim).map(single).collect();
    assert!(!attack.is_empty(), "the wave needs attack frames to send");

    // Quiet phase in two halves — the first tick lays the baseline sample,
    // the second measures the benign-only burn — then the attack wave on
    // tenant 0. The bundle ticks at each drained checkpoint.
    let (quiet_a, quiet_b) = benign.split_at(benign.len() / 2);
    let burn = |tenant: &str| {
        let fast = telemetry.slo.burn_fast("drop-rate", tenant);
        fast.unwrap_or_default()
    };
    let mut victim_burn = Vec::with_capacity(3);
    live::feed(
        gw.gateway(),
        [quiet_a, quiet_b, &attack].map(|c| c.iter().cloned()),
        true,
        || {
            telemetry.tick();
            victim_burn.push(burn(&victim));
            ControlFlow::Continue(())
        },
    );
    let (quiet_burn, attack_burn) = (victim_burn[1], victim_burn[2]);
    let neighbour_burn = burn(&neighbour);
    gw.finish();

    SloWave {
        victim,
        quiet_burn,
        attack_burn,
        neighbour_burn,
        tripped: attack_burn > 1.0 && attack_burn > neighbour_burn,
    }
}

/// Runs the F15-observe experiment: the traced batched replay followed by
/// the scripted per-tenant SLO attack wave.
///
/// # Panics
///
/// Panics if the gateways fail to drain, if no attack frames exist to
/// script the wave, or if the sampled replay leaves no latency exemplar or
/// one whose id does not resolve to exactly one `frame` root span.
pub fn run_f15_observe(seed: u64, shards: usize) -> F15ObserveReport {
    let replay = traced_replay(seed, shards);
    let wave = slo_wave(seed, shards);
    F15ObserveReport {
        seed,
        shards,
        replay,
        wave,
    }
}
