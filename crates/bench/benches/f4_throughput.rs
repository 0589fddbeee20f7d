//! Bench for experiment F4: per-packet processing cost of the deployed
//! data plane as the match-key width and table size vary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p4guard::experiments::dataplane_exp::synthetic_switch;
use p4guard_bench::{standard_split, trained_guard, BENCH_SEED};

fn f4_throughput(c: &mut Criterion) {
    let (_, test) = standard_split();
    let frames: Vec<&[u8]> = test.iter().map(|r| r.frame.as_ref()).collect();

    let mut group = c.benchmark_group("f4_throughput");
    group.throughput(Throughput::Elements(frames.len() as u64));
    group.sample_size(10);
    for key_width in [4usize, 16, 64] {
        let mut sw = synthetic_switch(key_width, 64, BENCH_SEED);
        group.bench_with_input(
            BenchmarkId::new("key_width", key_width),
            &key_width,
            |b, _| {
                b.iter(|| {
                    for frame in &frames {
                        std::hint::black_box(sw.process(frame));
                    }
                })
            },
        );
    }
    for entries in [16usize, 256, 2048] {
        let mut sw = synthetic_switch(8, entries, BENCH_SEED);
        group.bench_with_input(BenchmarkId::new("table_size", entries), &entries, |b, _| {
            b.iter(|| {
                for frame in &frames {
                    std::hint::black_box(sw.process(frame));
                }
            })
        });
    }
    // The actually-deployed guard.
    let (guard, test2) = trained_guard();
    let control = guard.deploy(200_000).expect("fits");
    group.bench_function("deployed_guard", |b| {
        control.with_switch_mut(|sw| {
            b.iter(|| {
                for r in test2.iter() {
                    std::hint::black_box(sw.process(&r.frame));
                }
            })
        })
    });
    group.finish();
}

criterion_group!(benches, f4_throughput);
criterion_main!(benches);
