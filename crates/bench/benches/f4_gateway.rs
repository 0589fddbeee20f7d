//! Bench extending experiment F4 to the online gateway: replay throughput
//! as the shard count scales (1/2/4/8), and experiment F10's update story
//! as hot-swap publication latency versus rule-batch size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p4guard::experiments::dataplane_exp::synthetic_switch;
use p4guard_bench::{standard_split, BENCH_SEED};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{replay, Gateway, GatewayConfig, ReplayMode};
use p4guard_rules::ruleset::RuleSet;
use p4guard_rules::ternary::TernaryEntry;
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const KEY_WIDTH: usize = 8;

/// A control plane over the synthetic F4 switch: one ternary stage with
/// 64 random rules.
fn synthetic_control() -> ControlPlane {
    ControlPlane::new(synthetic_switch(KEY_WIDTH, 64, BENCH_SEED))
}

/// A random ruleset of `entries` rules for hot-swap installs.
fn random_ruleset(entries: usize, seed: u64) -> RuleSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rs = RuleSet::new(KEY_WIDTH, 0);
    for _ in 0..entries {
        rs.push(TernaryEntry {
            value: (0..KEY_WIDTH).map(|_| rng.gen()).collect(),
            mask: (0..KEY_WIDTH)
                .map(|_| if rng.gen::<bool>() { 0xff } else { 0x00 })
                .collect(),
            class: 1,
            priority: 1,
        });
    }
    rs
}

fn f4_gateway(c: &mut Criterion) {
    let (_, test) = standard_split();
    let frames: Vec<bytes::Bytes> = test.iter().map(|r| r.frame.clone()).collect();

    // Replay throughput versus shard count.
    let mut group = c.benchmark_group("f4_gateway_pps");
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                let control = synthetic_control();
                let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));
                let report = replay(&gw, frames.iter().cloned(), None, ReplayMode::Blocking);
                std::hint::black_box((gw.finish(), report))
            })
        });
    }
    group.finish();

    // Replay throughput with the registry telemetry sink attached versus
    // the no-op sink, at a fixed shard count — the overhead budgeted at
    // 3% (the gated measurement is ledger row `telemetry.sink_overhead_pct`).
    let mut group = c.benchmark_group("f4_gateway_telemetry");
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.sample_size(10);
    group.bench_function("noop_sink", |b| {
        b.iter(|| {
            let control = synthetic_control();
            let gw = Gateway::start(&control, GatewayConfig::with_shards(4));
            let report = replay(&gw, frames.iter().cloned(), None, ReplayMode::Blocking);
            std::hint::black_box((gw.finish(), report))
        })
    });
    group.bench_function("registry_sink", |b| {
        b.iter(|| {
            let control = synthetic_control();
            let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
            let gw = Gateway::start_with_telemetry(
                &control,
                GatewayConfig::with_shards(4),
                Some(Arc::clone(&telemetry)),
            );
            let report = replay(&gw, frames.iter().cloned(), None, ReplayMode::Blocking);
            std::hint::black_box((gw.finish(), report, telemetry))
        })
    });
    group.finish();

    // Hot-swap update latency (whole-ruleset swap + publish) versus
    // rule-batch size, with one subscribed gateway cell — the F10 update
    // story online. Iterations alternate between two disjoint rulesets, so
    // every swap churns the full batch.
    let mut group = c.benchmark_group("f4_gateway_update");
    group.sample_size(10);
    for batch in [16usize, 64, 256] {
        let layout = AclLayout {
            window: 64,
            offsets: (0..KEY_WIDTH).collect(),
            capacity: 1024,
        };
        let control = ControlPlane::new(layout.switch("bench-gw", ["acl"]));
        let _cell = control.attach_cell();
        let rulesets = [random_ruleset(batch, 7), random_ruleset(batch, 8)];
        let mut turn = 0usize;
        group.bench_with_input(BenchmarkId::new("rule_batch", batch), &batch, |b, _| {
            b.iter(|| {
                turn += 1;
                control
                    .replace_ruleset(0, &rulesets[turn % 2], Action::Drop)
                    .expect("capacity");
                std::hint::black_box(control.publish())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, f4_gateway);
criterion_main!(benches);
