//! Adversarial match-action tables and probe keys for differential
//! testing of the compiled lookup engines.
//!
//! Generation deliberately mixes ternary tables whose entries share a few
//! masks with ones where every entry has its own, piles up duplicate
//! priorities, uses maximum-width keys, overlapping LPM prefixes and
//! degenerate ranges — the shapes where a fast engine and the reference
//! scan are most likely to disagree.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use rand::prelude::*;

/// A generated table plus probe keys biased toward its entries.
pub struct AdversarialTable {
    /// The table under test (reference semantics via `Table::peek`).
    pub table: Table,
    /// Probe keys: per-entry hits, near-miss bit flips and uniform noise.
    pub probes: Vec<Vec<u8>>,
}

fn rand_action<R: Rng>(rng: &mut R) -> Action {
    match rng.gen_range(0..5) {
        0 => Action::Drop,
        1 => Action::Forward(rng.gen_range(0..8)),
        2 => Action::Mirror(rng.gen_range(0..8)),
        3 => Action::Count(rng.gen_range(0..4)),
        _ => Action::NoOp,
    }
}

fn rand_bytes<R: Rng>(rng: &mut R, width: usize) -> Vec<u8> {
    let mut v = vec![0u8; width];
    rng.fill(v.as_mut_slice());
    v
}

/// Sparse masks keep accidental overlap between entries likely.
fn rand_mask<R: Rng>(rng: &mut R, width: usize) -> Vec<u8> {
    (0..width)
        .map(|_| match rng.gen_range(0..4) {
            0 => 0xff,
            1 => 0xf0,
            2 => 0x0f,
            _ => rng.gen(),
        })
        .collect()
}

fn probes_for<R: Rng>(rng: &mut R, table: &Table) -> Vec<Vec<u8>> {
    let width = table.key().width();
    let mut probes = Vec::new();
    for entry in table.entries() {
        // A key that satisfies the entry, with unconstrained bits random.
        let mut hit = match &entry.spec {
            MatchSpec::Exact(v) => v.clone(),
            MatchSpec::Ternary { value, mask } => value
                .iter()
                .zip(mask)
                .map(|(&v, &m)| (v & m) | (rng.gen::<u8>() & !m))
                .collect(),
            MatchSpec::Lpm { value, prefix_len } => {
                let mut key = rand_bytes(rng, width);
                for (i, k) in key.iter_mut().enumerate() {
                    let bits = prefix_len.saturating_sub(i * 8).min(8);
                    if bits > 0 {
                        let m = 0xffu8 << (8 - bits);
                        *k = (value[i] & m) | (*k & !m);
                    }
                }
                key
            }
            MatchSpec::Range { lo, hi } => lo
                .iter()
                .zip(hi)
                .map(|(&l, &h)| rng.gen_range(l..=h))
                .collect(),
        };
        probes.push(hit.clone());
        // A near-miss one bit away from the hit.
        let at = rng.gen_range(0..width);
        hit[at] ^= 1 << rng.gen_range(0..8);
        probes.push(hit);
    }
    for _ in 0..16 {
        probes.push(rand_bytes(rng, width));
    }
    probes
}

fn table_with<R: Rng>(rng: &mut R, kind: MatchKind, width: usize, specs: Vec<MatchSpec>) -> Table {
    let mut table = Table::new(
        "fuzz",
        kind,
        KeyLayout::window(width),
        specs.len() + 8,
        Action::NoOp,
    );
    for spec in specs {
        // Duplicate priorities on purpose: ties must resolve identically
        // (stable insertion order) in every engine.
        let priority = rng.gen_range(0..4);
        let action = rand_action(rng);
        table
            .insert(spec, action, priority)
            .expect("generated spec must be valid for its table");
    }
    table
}

/// Builds the `index`-th adversarial table.
///
/// The first indices are fixed archetypes that guarantee every match kind
/// appears in a run, each lowered to the one compiled strategy
/// (`bit-vector`); later indices are fully randomized.
pub fn adversarial_table<R: Rng>(rng: &mut R, index: usize) -> AdversarialTable {
    let table = match index {
        // Exact, with duplicate values (first insert must win ties).
        0 => {
            let mut values: Vec<Vec<u8>> = (0..12).map(|_| rand_bytes(rng, 4)).collect();
            values.push(values[0].clone());
            table_with(
                rng,
                MatchKind::Exact,
                4,
                values.into_iter().map(MatchSpec::Exact).collect(),
            )
        }
        // Overlapping LPM prefixes, including the match-all zero prefix.
        1 => {
            let base = rand_bytes(rng, 4);
            let specs = [0usize, 3, 8, 11, 16, 21, 27, 32]
                .iter()
                .map(|&prefix_len| {
                    let mut value = base.clone();
                    for byte in value.iter_mut().skip(prefix_len.div_ceil(8)) {
                        *byte = rng.gen();
                    }
                    MatchSpec::Lpm { value, prefix_len }
                })
                .collect();
            table_with(rng, MatchKind::Lpm, 4, specs)
        }
        // Ranges: degenerate (lo == hi), full-byte and narrow spans.
        2 => {
            let specs = (0..10)
                .map(|i| {
                    let (lo, hi): (Vec<u8>, Vec<u8>) = (0..2)
                        .map(|_| match i % 3 {
                            0 => {
                                let v = rng.gen::<u8>();
                                (v, v)
                            }
                            1 => (0, 255),
                            _ => {
                                let l = rng.gen_range(0..200u8);
                                (l, l + rng.gen_range(0..=55))
                            }
                        })
                        .unzip();
                    MatchSpec::Range { lo, hi }
                })
                .collect();
            table_with(rng, MatchKind::Range, 2, specs)
        }
        // 16 ternary entries sharing 4 masks.
        3 => {
            let masks: Vec<Vec<u8>> = (0..4).map(|_| rand_mask(rng, 2)).collect();
            let specs = (0..16)
                .map(|i| MatchSpec::Ternary {
                    value: rand_bytes(rng, 2),
                    mask: masks[i % masks.len()].clone(),
                })
                .collect();
            table_with(rng, MatchKind::Ternary, 2, specs)
        }
        // 16 ternary entries with 16 distinct masks.
        4 => {
            let specs = (0..16u8)
                .map(|i| MatchSpec::Ternary {
                    value: rand_bytes(rng, 2),
                    mask: vec![i | 0x10, rng.gen()],
                })
                .collect();
            table_with(rng, MatchKind::Ternary, 2, specs)
        }
        // Maximum-width ternary keys.
        5 => {
            let specs = (0..8)
                .map(|_| MatchSpec::Ternary {
                    value: rand_bytes(rng, 16),
                    mask: rand_mask(rng, 16),
                })
                .collect();
            table_with(rng, MatchKind::Ternary, 16, specs)
        }
        // Fully random: any kind, any width, ternary masks anywhere from
        // one shared by all entries to one each.
        _ => {
            let width = *[1usize, 2, 4, 8]
                .choose(rng)
                .expect("width list is non-empty");
            match rng.gen_range(0..4) {
                0 => {
                    let specs = (0..rng.gen_range(1..=20))
                        .map(|_| MatchSpec::Exact(rand_bytes(rng, width)))
                        .collect();
                    table_with(rng, MatchKind::Exact, width, specs)
                }
                1 => {
                    let specs = (0..rng.gen_range(1..=12))
                        .map(|_| MatchSpec::Lpm {
                            value: rand_bytes(rng, width),
                            prefix_len: rng.gen_range(0..=width * 8),
                        })
                        .collect();
                    table_with(rng, MatchKind::Lpm, width, specs)
                }
                2 => {
                    let specs = (0..rng.gen_range(1..=12))
                        .map(|_| {
                            let (lo, hi): (Vec<u8>, Vec<u8>) = (0..width)
                                .map(|_| {
                                    let l: u8 = rng.gen();
                                    (l, rng.gen_range(l..=255))
                                })
                                .unzip();
                            MatchSpec::Range { lo, hi }
                        })
                        .collect();
                    table_with(rng, MatchKind::Range, width, specs)
                }
                _ => {
                    let entries = rng.gen_range(8..=24);
                    let distinct_masks = rng.gen_range(1..=entries);
                    let masks: Vec<Vec<u8>> =
                        (0..distinct_masks).map(|_| rand_mask(rng, width)).collect();
                    let specs = (0..entries)
                        .map(|i| MatchSpec::Ternary {
                            value: rand_bytes(rng, width),
                            mask: masks[i % masks.len()].clone(),
                        })
                        .collect();
                    table_with(rng, MatchKind::Ternary, width, specs)
                }
            }
        }
    };
    let probes = probes_for(rng, &table);
    AdversarialTable { table, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_dataplane::CompiledTable;

    #[test]
    fn archetypes_cover_every_compiled_strategy() {
        let mut rng = StdRng::seed_from_u64(11);
        let strategies: Vec<(MatchKind, &str)> = (0..6)
            .map(|i| {
                let table = adversarial_table(&mut rng, i).table;
                (table.kind(), CompiledTable::compile(&table).strategy())
            })
            .collect();
        for want in [
            (MatchKind::Exact, "bit-vector"),
            (MatchKind::Lpm, "bit-vector"),
            (MatchKind::Range, "bit-vector"),
            (MatchKind::Ternary, "bit-vector"),
        ] {
            assert!(
                strategies.contains(&want),
                "archetypes produced {strategies:?}, missing {want:?}"
            );
        }
    }
}
