//! Edge cases of the bit-vector engine behind every ternary and range
//! `CompiledTable`, drawn from where its layout can break: the padding
//! bits of a row's last word, `rank = word * 64 + trailing_zeros`, the
//! probe loop's pulled-back last step, a position with all 256 classes,
//! masks that are neither prefixes nor whole bytes, and keys wider than a
//! machine word. Every case checks the winning `(action, priority)`
//! against the mutable table's scan — the full key space at width 1–2,
//! sampled keys above — on the single-key and the batched path.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::{CompiledTable, LookupOutcome};
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};

fn table(kind: MatchKind, width: usize) -> Table {
    Table::new("edges", kind, KeyLayout::window(width), 4096, Action::NoOp)
}

fn ternary(value: &[u8], mask: &[u8]) -> MatchSpec {
    MatchSpec::Ternary {
        value: value.to_vec(),
        mask: mask.to_vec(),
    }
}

fn range(lo: &[u8], hi: &[u8]) -> MatchSpec {
    MatchSpec::Range {
        lo: lo.to_vec(),
        hi: hi.to_vec(),
    }
}

/// Every two-byte key.
fn all_keys() -> Vec<Vec<u8>> {
    (0..=u16::MAX).map(|k| k.to_be_bytes().to_vec()).collect()
}

/// Compiles `table` and checks every key's winner — action and effective
/// priority, `None` on a miss — against the first matching entry of the
/// source table in match order, on both lookup paths.
fn check(table: &Table, keys: &[Vec<u8>]) -> CompiledTable {
    let compiled = CompiledTable::compile(table);
    assert_eq!(compiled.strategy(), "bit-vector");
    let width = table.key().width();
    let mut probe = vec![0u8; width];
    let mut batch = vec![(Action::NoOp, LookupOutcome::Miss); keys.len()];
    compiled.lookup_batch(&keys.concat(), width, &mut probe, &mut batch);
    for (key, &batched) in keys.iter().zip(&batch) {
        let single = compiled.lookup_traced(key, &mut probe);
        assert_eq!(single, batched, "key {key:02x?}: batch path diverges");
        let priority = match single.1 {
            LookupOutcome::Hit(rank) => compiled.rank_priority(rank),
            _ => None,
        };
        let scan = table.entries().iter().find(|e| e.spec.matches(key));
        assert_eq!(
            (single.0, priority),
            scan.map_or((table.default_action(), None), |e| {
                (e.action, Some(e.priority))
            }),
            "key {key:02x?} over {} entries",
            table.len()
        );
    }
    compiled
}

/// Row-length edges: `n` disjoint exact entries with distinct actions (so
/// minimization keeps all `n` and a rank that is off by one shows as the
/// wrong action), priorities cycling so rank order is not insertion order.
/// 64 and 256 are the word and wide-step sizes; 300 and 513 end on a
/// pulled-back last step.
#[test]
fn row_lengths_around_word_and_step_boundaries() {
    for n in [0usize, 1, 63, 64, 65, 255, 256, 257, 300, 511, 512, 513] {
        let mut t = table(MatchKind::Ternary, 2);
        for i in 0..n {
            let value = ((i * 127) as u16).to_be_bytes();
            t.insert(
                ternary(&value, &[0xff, 0xff]),
                Action::Forward(i as u16),
                (i % 4) as i32,
            )
            .unwrap();
        }
        // Every key up to 65 entries; above, each entry's key and both
        // neighbours (the scan reference is linear in `n`).
        let keys: Vec<Vec<u8>> = if n <= 65 {
            all_keys()
        } else {
            (0..n * 127)
                .flat_map(|k| [k.wrapping_sub(1), k, k + 1])
                .map(|k| (k as u16).to_be_bytes().to_vec())
                .collect()
        };
        let compiled = check(&t, &keys);
        assert_eq!(compiled.minimized_len(), n, "every entry is indexed");
    }
}

/// One position telling all 256 byte values apart (256 classes: the class
/// id must not wrap), with a match-all behind them.
#[test]
fn a_position_with_every_byte_value_in_its_own_class() {
    let mut t = table(MatchKind::Ternary, 1);
    for b in 0..=255u8 {
        t.insert(ternary(&[b], &[0xff]), Action::Forward(b.into()), 1)
            .unwrap();
    }
    t.insert(ternary(&[0], &[0x00]), Action::Drop, 0).unwrap();
    let keys: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
    check(&t, &keys);
    // The same classes from ranges: 256 points and the full interval.
    let mut r = table(MatchKind::Range, 1);
    for b in 0..=255u8 {
        r.insert(range(&[b], &[b]), Action::Forward(b.into()), 1)
            .unwrap();
    }
    r.insert(range(&[0], &[255]), Action::Drop, 0).unwrap();
    check(&r, &keys);
}

/// Masks with scattered bits, an all-wildcard position, an all-exact one,
/// equal-priority duplicates (first inserted wins) and a match-all both
/// behind and ahead of more specific rows.
#[test]
fn scattered_masks_ties_and_shadowing_over_the_full_key_space() {
    let mut t = table(MatchKind::Ternary, 2);
    let rows: [(&[u8; 2], &[u8; 2], i32); 9] = [
        (&[0x5a, 0x00], &[0x5a, 0x00], 5),
        (&[0x12, 0x34], &[0xff, 0xff], 9),
        (&[0x00, 0x5a], &[0x00, 0x5a], 5),
        (&[0x00, 0x00], &[0x00, 0x00], 3),
        (&[0x00, 0x00], &[0x00, 0x00], 3),
        (&[0xa5, 0x42], &[0xa5, 0x5a], 5),
        (&[0x12, 0x00], &[0xff, 0x00], 3),
        (&[0x10, 0x01], &[0xf0, 0x0f], 7),
        (&[0xab, 0xcd], &[0xff, 0xff], 1),
    ];
    for (i, (value, mask, priority)) in rows.into_iter().enumerate() {
        t.insert(ternary(value, mask), Action::Forward(i as u16), priority)
            .unwrap();
    }
    let compiled = check(&t, &all_keys());
    // Tie between the two match-alls: the first inserted wins, and the
    // priority-9 exact row outranks every wildcard row over it.
    assert_eq!(compiled.peek(&[0x00, 0x00]), Action::Forward(3));
    assert_eq!(compiled.peek(&[0x12, 0x34]), Action::Forward(1));
}

/// Keys past one machine word (9 bytes) and past four (33), constrained
/// in their last byte, and the learned-guard shape: a few hundred rows of
/// prefix masks over 8 bytes.
#[test]
fn wide_keys_agree_on_sampled_keys() {
    // Deterministic byte stream (xorshift), so failures reproduce.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 24) as u8
    };
    for (width, entries) in [(8usize, 300usize), (9, 40), (33, 40)] {
        let mut t = table(MatchKind::Ternary, width);
        let mut keys = Vec::new();
        for i in 0..entries {
            let value: Vec<u8> = (0..width).map(|_| next()).collect();
            // A third of the positions free, the rest a prefix of some length;
            // the last byte always constrained, by a scattered mask.
            let mut mask: Vec<u8> = (0..width)
                .map(|_| [0x00, 0x00, 0x80, 0xc0, 0xf0, 0xff][usize::from(next() % 6)])
                .collect();
            mask[width - 1] = 0x5a;
            for flip in [0x00, 0x02, 0x80] {
                let mut key = value.clone();
                key[width - 1] ^= flip;
                keys.push(key);
            }
            keys.push((0..width).map(|_| next()).collect());
            t.insert(
                ternary(&value, &mask),
                Action::Forward(i as u16),
                (i % 3) as i32,
            )
            .unwrap();
        }
        check(&t, &keys);
    }
}

/// Range edges: a single point, the full interval, adjacent intervals that
/// share no value, and a wide low-priority range under all of them.
#[test]
fn range_points_full_intervals_and_adjacent_neighbours() {
    let mut t = table(MatchKind::Range, 2);
    let rows: [(&[u8; 2], &[u8; 2], i32); 7] = [
        (&[7, 0], &[7, 255], 4),
        (&[0, 10], &[255, 19], 3),
        (&[0, 20], &[255, 29], 3),
        (&[0, 30], &[255, 30], 3),
        (&[200, 255], &[255, 255], 6),
        (&[0, 0], &[255, 255], 1),
        (&[0, 0], &[0, 0], 1),
    ];
    for (i, (lo, hi, priority)) in rows.into_iter().enumerate() {
        t.insert(range(lo, hi), Action::Forward(i as u16), priority)
            .unwrap();
    }
    let compiled = check(&t, &all_keys());
    assert_eq!(compiled.peek(&[1, 19]), Action::Forward(1));
    assert_eq!(compiled.peek(&[1, 20]), Action::Forward(2));
    assert_eq!(compiled.peek(&[1, 31]), Action::Forward(5));
}
