//! Bench extending experiment F4 to the online gateway: replay throughput
//! as the shard count scales (1/2/4/8), and experiment F10's update story
//! as hot-swap publication latency versus rule-batch size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p4guard_bench::standard_split;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::parser::ParserSpec;
use p4guard_dataplane::switch::Switch;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_gateway::{replay, Gateway, GatewayConfig, ReplayMode};
use p4guard_rules::ruleset::RuleSet;
use p4guard_rules::ternary::TernaryEntry;
use p4guard_telemetry::{Telemetry, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const KEY_WIDTH: usize = 8;

/// A control plane over a one-stage ternary switch with `entries` random
/// rules, mirroring the synthetic F4 setup.
fn synthetic_control(entries: usize) -> ControlPlane {
    let mut rng = StdRng::seed_from_u64(p4guard_bench::BENCH_SEED);
    let mut sw = Switch::new("bench-gw", ParserSpec::raw_window(64, 14), 1);
    let mut acl = Table::new(
        "acl",
        MatchKind::Ternary,
        KeyLayout::window(KEY_WIDTH),
        entries.max(1024),
        Action::NoOp,
    );
    for _ in 0..entries {
        let value: Vec<u8> = (0..KEY_WIDTH).map(|_| rng.gen()).collect();
        let mask: Vec<u8> = (0..KEY_WIDTH)
            .map(|_| if rng.gen::<bool>() { 0xff } else { 0x00 })
            .collect();
        acl.insert(MatchSpec::Ternary { value, mask }, Action::Drop, 1)
            .expect("capacity");
    }
    sw.add_stage(acl);
    ControlPlane::new(sw)
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
                let control = synthetic_control(64);
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
            let control = synthetic_control(64);
            let gw = Gateway::start(&control, GatewayConfig::with_shards(4));
            let report = replay(&gw, frames.iter().cloned(), None, ReplayMode::Blocking);
            std::hint::black_box((gw.finish(), report))
        })
    });
    group.bench_function("registry_sink", |b| {
        b.iter(|| {
            let control = synthetic_control(64);
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

    // Hot-swap update latency (clear + install + publish) versus rule-batch
    // size, with one subscribed gateway cell — the F10 update story online.
    let mut group = c.benchmark_group("f4_gateway_update");
    group.sample_size(10);
    for batch in [16usize, 64, 256] {
        let control = synthetic_control(0);
        let _cell = control.attach_cell();
        let ruleset = random_ruleset(batch, 7);
        group.bench_with_input(BenchmarkId::new("rule_batch", batch), &batch, |b, _| {
            b.iter(|| {
                control.clear_stage(0).expect("stage exists");
                control
                    .install_ruleset(0, &ruleset, Action::Drop)
                    .expect("capacity");
                std::hint::black_box(control.publish())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, f4_gateway);
criterion_main!(benches);
