//! Bench for experiment F17-lookup: per-lookup cost of the mutable
//! table's priority-ordered linear scan versus the compiled engine a
//! published snapshot uses, as the entry count sweeps 16 → 4096 for every
//! match kind. The compiled exact/LPM curves should stay near-flat while
//! the scan degrades linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::CompiledTable;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_WIDTH: usize = 8;
const KEYS: usize = 1024;

/// A table of `kind` with `entries` random entries, plus a half-hit
/// half-random probe-key stream (mirrors the reproduce-side F17 fixture).
fn fixture(kind: MatchKind, entries: usize) -> (Table, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(p4guard_bench::BENCH_SEED ^ 0xf11);
    let mut table = Table::new(
        "f11",
        kind,
        KeyLayout::window(KEY_WIDTH),
        entries.max(1),
        Action::NoOp,
    );
    let masks: Vec<Vec<u8>> = (0..8)
        .map(|_| {
            (0..KEY_WIDTH)
                .map(|_| if rng.gen::<bool>() { 0xff } else { 0x00 })
                .collect()
        })
        .collect();
    let mut hit_keys = Vec::with_capacity(entries);
    for i in 0..entries {
        let value: Vec<u8> = (0..KEY_WIDTH).map(|_| rng.gen()).collect();
        let spec = match kind {
            MatchKind::Exact => MatchSpec::Exact(value.clone()),
            MatchKind::Ternary => MatchSpec::Ternary {
                value: value.clone(),
                mask: masks[i % masks.len()].clone(),
            },
            MatchKind::Lpm => MatchSpec::Lpm {
                value: value.clone(),
                prefix_len: [8, 16, 24, 32, 40, 48, 56, 64][rng.gen_range(0..8)],
            },
            MatchKind::Range => {
                let hi: Vec<u8> = value
                    .iter()
                    .map(|&lo| lo.saturating_add(rng.gen_range(0..=32)))
                    .collect();
                MatchSpec::Range {
                    lo: value.clone(),
                    hi,
                }
            }
        };
        hit_keys.push(value);
        table
            .insert(spec, Action::Drop, rng.gen_range(0..4))
            .expect("capacity");
    }
    let keys = (0..KEYS)
        .map(|i| {
            if i % 2 == 0 && !hit_keys.is_empty() {
                hit_keys[(i / 2) % hit_keys.len()].clone()
            } else {
                (0..KEY_WIDTH).map(|_| rng.gen()).collect()
            }
        })
        .collect();
    (table, keys)
}

fn f17_lookup(c: &mut Criterion) {
    let kinds = [
        MatchKind::Exact,
        MatchKind::Lpm,
        MatchKind::Range,
        MatchKind::Ternary,
    ];
    let mut group = c.benchmark_group("f17_lookup");
    group.throughput(Throughput::Elements(KEYS as u64));
    group.sample_size(10);
    for kind in kinds {
        for entries in [16usize, 64, 256, 1024, 4096] {
            let (table, keys) = fixture(kind, entries);
            let compiled = CompiledTable::compile(&table);
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_scan"), entries),
                &entries,
                |b, _| {
                    b.iter(|| {
                        for key in &keys {
                            std::hint::black_box(table.peek(key));
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{kind}_compiled"), entries),
                &entries,
                |b, _| {
                    let mut probe = vec![0u8; KEY_WIDTH];
                    b.iter(|| {
                        for key in &keys {
                            std::hint::black_box(compiled.lookup(key, &mut probe));
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, f17_lookup);
criterion_main!(benches);
