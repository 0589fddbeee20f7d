//! Differential property suite pinning the compiled lookup engines to the
//! scan semantics of `Table::peek`: for randomized rulesets and keys
//! across all four match kinds — including priority ties, duplicate
//! specs, wrong-width keys and default-action misses — the compiled
//! verdict must equal the scan verdict.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::CompiledTable;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use proptest::prelude::*;

/// Raw material for one entry: two 4-byte seeds, a (priority, action)
/// pair — priority drawn from a tiny range, forcing ties — and a
/// prefix-length seed.
type RawEntry = (Vec<u8>, Vec<u8>, (i32, u8), usize);

const KINDS: [MatchKind; 4] = [
    MatchKind::Exact,
    MatchKind::Ternary,
    MatchKind::Lpm,
    MatchKind::Range,
];

fn action_for(selector: u8) -> Action {
    match selector % 5 {
        0 => Action::Drop,
        1 => Action::Forward(u16::from(selector)),
        2 => Action::Mirror(u16::from(selector)),
        3 => Action::Count(u32::from(selector) % 4),
        _ => Action::NoOp,
    }
}

/// Builds a valid spec of `kind` and `width` from the raw material.
fn spec_for(kind: MatchKind, width: usize, raw: &RawEntry) -> MatchSpec {
    let (a, b, _, plen) = raw;
    let a = &a[..width];
    let b = &b[..width];
    match kind {
        MatchKind::Exact => MatchSpec::Exact(a.to_vec()),
        MatchKind::Ternary => MatchSpec::Ternary {
            value: a.to_vec(),
            // Draw masks from a coarse pool so entries genuinely share
            // masks and overlap.
            mask: b
                .iter()
                .map(|&m| [0x00, 0x0f, 0xf0, 0xff][m as usize % 4])
                .collect(),
        },
        MatchKind::Lpm => MatchSpec::Lpm {
            value: a.to_vec(),
            prefix_len: plen % (width * 8 + 1),
        },
        MatchKind::Range => MatchSpec::Range {
            lo: a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect(),
            hi: a.iter().zip(b).map(|(&x, &y)| x.max(y)).collect(),
        },
    }
}

/// A key that hits the spec (so the key stream is not all misses).
fn hit_key_for(spec: &MatchSpec) -> Vec<u8> {
    match spec {
        MatchSpec::Exact(v) => v.clone(),
        MatchSpec::Ternary { value, .. } => value.clone(),
        MatchSpec::Lpm { value, .. } => value.clone(),
        MatchSpec::Range { lo, .. } => lo.clone(),
    }
}

proptest! {
    #[test]
    fn compiled_lookup_equals_table_peek(
        kind_sel in 0usize..4,
        width in 1usize..=4,
        raw_entries in collection::vec(
            (
                collection::vec(any::<u8>(), 4usize),
                collection::vec(any::<u8>(), 4usize),
                (0i32..3, any::<u8>()),
                0usize..=32,
            ),
            0..24,
        ),
        raw_keys in collection::vec(collection::vec(any::<u8>(), 4usize), 0..24),
        default_sel in any::<u8>(),
    ) {
        let kind = KINDS[kind_sel];
        let mut table = Table::new(
            "prop",
            kind,
            KeyLayout::window(width),
            raw_entries.len().max(1),
            action_for(default_sel),
        );
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for raw in &raw_entries {
            let spec = spec_for(kind, width, raw);
            keys.push(hit_key_for(&spec));
            let (priority, action_sel) = raw.2;
            table
                .insert(spec, action_for(action_sel), priority)
                .expect("generated specs are valid");
        }
        keys.extend(raw_keys.iter().map(|k| k[..width].to_vec()));
        // Wrong-width keys must miss to the default on both paths.
        keys.push(vec![0; width + 1]);
        if width > 1 {
            keys.push(vec![0; width - 1]);
        }

        let compiled = CompiledTable::compile(&table);
        prop_assert_eq!(compiled.len(), table.len());
        let mut probe = vec![0u8; width];
        for key in &keys {
            let scan = table.peek(key);
            prop_assert_eq!(
                compiled.peek(key),
                scan,
                "kind {:?} width {} engine {} key {:?}",
                kind,
                width,
                compiled.strategy(),
                key
            );
            if key.len() == width {
                // The zero-allocation slice path must agree too.
                prop_assert_eq!(compiled.lookup(key, &mut probe), scan);
            }
        }
    }
}
