//! Bench for experiment F10: table insert/remove latency at different
//! occupancies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::table::{MatchSpec, Table};
use p4guard_dataplane::AclLayout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn filled_table(occupancy: usize) -> Table {
    let mut rng = StdRng::seed_from_u64(p4guard_bench::BENCH_SEED);
    let mut t = AclLayout {
        window: 64,
        offsets: (0..8).collect(),
        capacity: occupancy + 16,
    }
    .table("acl");
    for _ in 0..occupancy {
        let value: Vec<u8> = (0..8).map(|_| rng.gen()).collect();
        t.insert(
            MatchSpec::Ternary {
                value,
                mask: vec![0xff; 8],
            },
            Action::Drop,
            1,
        )
        .expect("capacity");
    }
    t
}

fn f10_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("f10_updates");
    group.sample_size(30);
    for occupancy in [0usize, 1024, 8192] {
        group.bench_with_input(
            BenchmarkId::new("insert_remove", occupancy),
            &occupancy,
            |b, &occ| {
                let mut table = filled_table(occ);
                b.iter(|| {
                    let handle = table
                        .insert(
                            MatchSpec::Ternary {
                                value: vec![0xee; 8],
                                mask: vec![0xff; 8],
                            },
                            Action::Drop,
                            1,
                        )
                        .expect("headroom");
                    table.remove(handle).expect("present");
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, f10_updates);
criterion_main!(benches);
