//! Edge cases of the bit-vector engine behind every ternary, range and LPM
//! `CompiledTable`, drawn from where its layout can break: the padding
//! bits of a row's last word, `rank = word * 64 + trailing_zeros`, the
//! summary that picks the words a probe walks, one bit per entry word (the
//! first table that has one at 257 rows, its second word at 4,097, words
//! it rules out next to words it cannot, a live word whose AND comes up
//! empty before the one that holds the match), a position with all 256
//! classes, masks that are neither prefixes nor whole bytes, and keys
//! wider than a machine word or than the row offsets a probe holds.
//! Every case checks the winning `(action, priority)` against the mutable
//! table's scan — the full key space at width 1–2, sampled keys above —
//! on the single-key and the batched path. A proptest covers positions
//! every entry leaves free, which get no rows and are never read, and
//! another the engine a delta publish splices from the previous one,
//! which must equal an engine built over the same entries.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::{CompiledTable, LookupOutcome};
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
use p4guard_rules::ternary::range_to_prefixes;
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

fn table(kind: MatchKind, width: usize) -> Table {
    Table::new("edges", kind, KeyLayout::window(width), 32768, Action::NoOp)
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

/// Compiles `table` and checks it with [`agrees`].
fn check(table: &Table, keys: &[Vec<u8>]) -> CompiledTable {
    let compiled = CompiledTable::compile(table);
    agrees(&compiled, table, keys);
    compiled
}

/// Checks every key's winner in `compiled` — action and effective
/// priority, `None` on a miss — against the first matching entry of the
/// source table in match order, on both lookup paths.
fn agrees(compiled: &CompiledTable, table: &Table, keys: &[Vec<u8>]) {
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
}

/// Words per row `wildcard_form` reports for a table: summary words, then
/// entry words.
fn row_words(compiled: &CompiledTable) -> usize {
    compiled.wildcard_form().rows[0].len()
}

/// Row-length edges: `n` disjoint exact entries with distinct actions (so
/// minimization keeps all `n` and a rank that is off by one shows as the
/// wrong action), priorities cycling so rank order is not insertion order.
/// 64 is the word size; 257 (five words) is the first size whose rows
/// carry a summary, and the empty table and 256 (four words) the last two
/// that do not; 300, 320 and 513 end in a part-filled word behind it. The
/// row layout — summary words, then entry words — is checked at every
/// size.
#[test]
fn row_lengths_around_word_and_step_boundaries() {
    for n in [
        0usize, 1, 63, 64, 65, 255, 256, 257, 300, 320, 321, 511, 512, 513,
    ] {
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
        // A summary word per 64 entry words once a row passes four words.
        let words = n.div_ceil(64).max(1);
        let summary = if words > 4 { words.div_ceil(64) } else { 0 };
        assert_eq!(row_words(&compiled), summary + words, "{n} rows");
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

/// Six words, one summary bit each, laid out so the summary decides alone:
/// the first key byte names the word an entry sits in, the second its
/// bit. Every key's rows share exactly one live word, the one its match
/// sits in, however far into the row; the rows of other first bytes hold
/// bits in every other word, which the probe must never AND; a first
/// byte past the last word selects an all-zero row and misses without
/// walking a word.
#[test]
fn the_summary_picks_the_one_word_that_holds_the_match() {
    let mut t = table(MatchKind::Ternary, 2);
    for rank in 0..6 * 64u16 {
        let value = [(rank / 64) as u8, (rank % 64) as u8];
        t.insert(ternary(&value, &[0xff, 0xff]), Action::Forward(rank), 1)
            .unwrap();
    }
    let keys: Vec<Vec<u8>> = (0..8u8)
        .flat_map(|word| (0..=70u8).map(move |bit| vec![word, bit]))
        .collect();
    let compiled = check(&t, &keys);
    assert_eq!(compiled.minimized_len(), 6 * 64);
    assert_eq!(compiled.peek(&[2, 0]), Action::Forward(128));
    assert_eq!(compiled.peek(&[3, 63]), Action::Forward(255));
    assert_eq!(compiled.peek(&[5, 63]), Action::Forward(383));
}

/// Past 64 entry words (4,096 ranks) the summary grows a second word, and
/// a hit past rank 4,096 is found through it — after every word the first
/// one left live came up empty. 4,096 rows are 64 words behind one summary
/// word; 4,097 are 65 behind two.
#[test]
fn a_table_wide_enough_for_a_second_summary_word() {
    for (n, words) in [(4096u16, 1 + 64), (4097, 2 + 65), (4096 + 200, 2 + 68)] {
        let mut t = table(MatchKind::Ternary, 2);
        for i in 0..n {
            t.insert(
                ternary(&i.to_be_bytes(), &[0xff, 0xff]),
                Action::Forward(i),
                1,
            )
            .unwrap();
        }
        // Either end of each summary word's span, and misses past the
        // table.
        let keys: Vec<Vec<u8>> = [
            0,
            1,
            63,
            64,
            255,
            256,
            4031,
            4032,
            4095,
            4096,
            n - 1,
            n,
            n + 1,
        ]
        .iter()
        .flat_map(|&k: &u16| [k, k.wrapping_add(0x4000)])
        .map(|k| k.to_be_bytes().to_vec())
        .collect();
        let compiled = check(&t, &keys);
        assert_eq!(compiled.minimized_len(), usize::from(n));
        assert_eq!(row_words(&compiled), words, "{n} rows");
        assert_eq!(
            compiled.peek(&(n - 1).to_be_bytes()),
            Action::Forward(n - 1)
        );
    }
}

/// A live word whose AND is empty: the key's two rows each hold a bit in
/// word 5 — an entry that accepts the first byte but not the second, and
/// one the other way round — so the summaries leave word 5 live, the walk
/// ANDs it to nothing, and the match sits in word 7, the next live one.
/// Fillers, exact on first bytes the key under test does not have, make
/// the rows long.
#[test]
fn a_key_whose_first_live_word_is_a_false_positive() {
    let mut t = table(MatchKind::Ternary, 2);
    let (x, y) = (0x12u8, 0x34u8);
    for rank in 0..8 * 64u16 {
        let (value, mask): ([u8; 2], [u8; 2]) = match rank {
            // Word 5: each accepts one of the key's bytes.
            320 => ([x, 0xaa], [0xff, 0xff]),
            321 => ([0xbb, y], [0xff, 0xff]),
            // Word 7: the match, behind more fillers.
            470 => ([x, y], [0xff, 0xff]),
            _ => ([0xe0 | (rank >> 8) as u8, rank as u8], [0xff, 0xff]),
        };
        t.insert(ternary(&value, &mask), Action::Forward(rank), 1)
            .unwrap();
    }
    let keys = vec![
        vec![x, y],
        vec![x, 0xaa],
        vec![0xbb, y],
        vec![x, y ^ 1],
        vec![0xe0, 7],
    ];
    let compiled = check(&t, &keys);
    assert_eq!(compiled.minimized_len(), 8 * 64);
    assert_eq!(compiled.peek(&[x, y]), Action::Forward(470));
    assert_eq!(compiled.peek(&[x, y ^ 1]), Action::NoOp);
}

/// A key keeping more positions than a probe holds row offsets for: 80
/// bytes, every one constrained by some entry, entries past a few hundred
/// so the rows carry a summary. The positions past the held ones are read
/// for every entry word checked, so an entry that differs from the key
/// only in its last byte must not match.
#[test]
fn a_key_keeping_more_positions_than_the_probe_holds() {
    let width = 80;
    let mut t = table(MatchKind::Ternary, width);
    let mut keys = Vec::new();
    for i in 0..300usize {
        let value: Vec<u8> = (0..width).map(|p| ((i + p) % 7) as u8).collect();
        let mut mask = vec![0u8; width];
        // Every entry fixes its own byte, a byte near the end and the last.
        mask[i % width] = 0xff;
        mask[width - 2 - i % 5] = 0xff;
        mask[width - 1] = 0xff;
        let mut miss = value.clone();
        miss[width - 1] ^= 0x80;
        keys.extend([value.clone(), miss]);
        t.insert(
            ternary(&value, &mask),
            Action::Forward(i as u16),
            (i % 3) as i32,
        )
        .unwrap();
    }
    let compiled = check(&t, &keys);
    assert_eq!(compiled.wildcard_form().positions.len(), width);
}

/// The learned shape: sixteen leaf boxes, each lowered to the cross
/// product of its per-byte prefix covers, contiguous in match order — a
/// box or two to a word, so a key's boxes are all the summary lets the
/// probe walk. Hits in every box (the first, the middle and the last
/// among them), keys a whole position rules out, and keys that pass the
/// summary and match no row: the first byte is accepted by one box's
/// entries and the second only by its neighbour's — other rows of the
/// same word.
#[test]
fn leaf_boxes_as_prefix_cross_products() {
    let mut t = table(MatchKind::Ternary, 2);
    let mut rank = 0u16;
    for j in 0..16u8 {
        // Even and odd boxes take opposite halves of the second byte.
        let second = if j % 2 == 0 { (1, 126) } else { (129, 254) };
        for a in range_to_prefixes(15 * j + 1, 15 * j + 13) {
            for b in range_to_prefixes(second.0, second.1) {
                t.insert(
                    ternary(&[a.value, b.value], &[a.mask, b.mask]),
                    Action::Forward(rank),
                    1,
                )
                .unwrap();
                rank += 1;
            }
        }
    }
    assert!(rank > 512, "{rank} entries: more than eight words");
    let keys: Vec<Vec<u8>> = (0..=255u8)
        .flat_map(|first| [0, 1, 64, 126, 127, 128, 129, 200, 254, 255].map(|b| vec![first, b]))
        .collect();
    let compiled = check(&t, &keys);
    assert_eq!(compiled.minimized_len(), usize::from(rank));
    // Box 0 and box 1 share word 0; neither holds this key.
    assert_eq!(compiled.peek(&[5, 200]), Action::NoOp);
    assert_ne!(compiled.peek(&[5, 64]), Action::NoOp);
    assert_ne!(compiled.peek(&[20, 200]), Action::NoOp);
}

/// `CompiledTable::recompile`'s patch path splices the engine for the
/// patched entry list: an addition that starts a new last word changes
/// the row length and every row's summary.
#[test]
fn a_patched_in_entry_that_starts_a_new_last_word() {
    let mut t = table(MatchKind::Ternary, 2);
    for i in 0..320u16 {
        t.insert(
            ternary(&(i * 127).to_be_bytes(), &[0xff, 0xff]),
            Action::Forward(i),
            1,
        )
        .unwrap();
    }
    let keys: Vec<Vec<u8>> = (0..321u16)
        .flat_map(|i| [i * 127, i * 127 + 1])
        .map(|k| k.to_be_bytes().to_vec())
        .collect();
    let prev = Arc::new(check(&t, &keys));
    // Lowest priority: the addition is rank 320, bit 0 of a sixth word.
    t.insert(
        ternary(&(320u16 * 127).to_be_bytes(), &[0xff, 0xff]),
        Action::Drop,
        0,
    )
    .unwrap();
    let patched = CompiledTable::recompile(&prev, &t);
    assert_eq!(patched.minimized_len(), 321);
    agrees(&patched, &t, &keys);
    assert_eq!(patched.peek(&(320u16 * 127).to_be_bytes()), Action::Drop);
    assert_eq!(prev.peek(&(320u16 * 127).to_be_bytes()), Action::NoOp);
}

/// A verbatim row patched in beside a folded one, in one column: at byte 0
/// the fold left byte 0 alone (four rows folded together on byte 1), and
/// the new row leaves byte 0 free — two sets that an id built from a
/// set's form (`mask 0, value 0` against `lo 0, hi 0`) would have told
/// apart only by that form. Each set is numbered by its bytes, so the
/// spliced engine equals a build, and a key only the new row accepts hits
/// it.
#[test]
fn a_verbatim_row_beside_a_folded_one_keeps_its_own_set() {
    let mut t = table(MatchKind::Ternary, 2);
    for low in 0..4u8 {
        t.insert(ternary(&[0x00, low], &[0xff, 0xff]), Action::Drop, 1)
            .unwrap();
    }
    let keys = all_keys();
    let prev = Arc::new(check(&t, &keys));
    assert_eq!(prev.minimized_len(), 1, "the four rows fold into one box");
    t.insert(ternary(&[0x00, 0x10], &[0x00, 0xff]), Action::Forward(2), 1)
        .unwrap();
    let next = CompiledTable::recompile(&prev, &t);
    assert_eq!(next.minimized_len(), 2, "patched in verbatim, not refolded");
    assert_eq!(next.wildcard_form(), next.rebuilt().wildcard_form());
    agrees(&next, &t, &keys);
    assert_eq!(next.peek(&[0x05, 0x10]), Action::Forward(2));
    assert_eq!(next.peek(&[0x05, 0x00]), Action::NoOp);
}

/// What one entry accepts at one position: free when the position is one
/// every entry leaves free or `sel` says so, else a byte, a prefix or a
/// scattered mask (ternary), a point or an interval (range), or a whole
/// byte or its leading bits (LPM, whose prefix [`spec`] ends at the first
/// byte that is not whole).
fn position_spec(kind: MatchKind, free: bool, a: u8, b: u8, sel: u8) -> (u8, u8) {
    match (kind, if free { 0 } else { sel % 4 }) {
        (MatchKind::Exact, _) => (a, 0xff),
        (MatchKind::Range, 0) => (0, 255),
        (MatchKind::Range, 1) => (a, a),
        (MatchKind::Range, _) => (a.min(b), a.max(b)),
        (MatchKind::Lpm, sel) => {
            let mask = [0x00, 0xff, 0xff, 0xff << (b % 8)][usize::from(sel)];
            (a & mask, mask)
        }
        (_, sel) => {
            let mask = [0x00, 0xff, 0xf0, 0x5a][usize::from(sel)];
            (a & mask, mask)
        }
    }
}

/// The entry of `kind` that per-position pairs from [`position_spec`]
/// describe: an exact key, a ternary value and mask, a range's bounds, or
/// the prefix the LPM masks spell, which stops at the first byte that is
/// not whole.
fn spec(kind: MatchKind, x: &[u8], y: &[u8]) -> MatchSpec {
    match kind {
        MatchKind::Exact => MatchSpec::Exact(x.to_vec()),
        MatchKind::Range => range(x, y),
        MatchKind::Lpm => {
            let whole = y.iter().take_while(|&&m| m == 0xff).count();
            MatchSpec::Lpm {
                value: x.to_vec(),
                prefix_len: 8 * whole + y.get(whole).map_or(0, |m| m.leading_ones() as usize),
            }
        }
        _ => ternary(x, y),
    }
}

proptest! {
    /// Ternary and range tables over 1–6 key bytes in which every entry
    /// leaves a random set of positions free (none, some or all of them),
    /// plus the empty table and tables of match-alls only: the batched
    /// lookup, the single-key lookup and `Table::peek` agree on the action,
    /// the two lookups on the rank, and the rank's priority is the scan
    /// winner's. Keys are each entry's own, the same with every free byte
    /// rewritten, and random ones.
    #[test]
    fn positions_every_entry_leaves_free_change_no_winner(
        ranges in any::<bool>(),
        width in 1usize..=6,
        free in pvec(any::<bool>(), 6),
        shape in 0u8..4,
        rows in pvec(
            (pvec(any::<u8>(), 6), pvec(any::<u8>(), 6), pvec(any::<u8>(), 6), 0i32..3),
            0..300,
        ),
        noise in pvec(pvec(any::<u8>(), 6), 1..32),
    ) {
        let kind = if ranges { MatchKind::Range } else { MatchKind::Ternary };
        let mut t = table(kind, width);
        let mut keys: Vec<Vec<u8>> = noise.iter().map(|k| k[..width].to_vec()).collect();
        // Shape 1 is the empty table; shape 2 holds match-alls only, and
        // shape 3 puts one behind the drawn rows.
        let drawn = if shape == 1 || shape == 2 { &rows[..0] } else { &rows[..] };
        for (i, (a, b, sel, priority)) in drawn.iter().enumerate() {
            let (x, y): (Vec<u8>, Vec<u8>) = (0..width)
                .map(|p| position_spec(kind, free[p], a[p], b[p], sel[p]))
                .unzip();
            let spec = if ranges { range(&x, &y) } else { ternary(&x, &y) };
            t.insert(spec, Action::Forward(i as u16), *priority).unwrap();
            keys.push(x.clone());
            let mut rewritten = x;
            for (p, byte) in rewritten.iter_mut().enumerate() {
                if free[p] {
                    *byte = !*byte ^ b[p];
                }
            }
            keys.push(rewritten);
        }
        if shape >= 2 {
            for (port, priority) in [(1, -1), (2, -2)].into_iter().take(usize::from(shape) - 1) {
                let spec = if ranges {
                    range(&vec![0; width], &vec![255; width])
                } else {
                    ternary(&vec![0; width], &vec![0; width])
                };
                t.insert(spec, Action::Mirror(port), priority).unwrap();
            }
        }
        let compiled = check(&t, &keys);
        for key in &keys {
            prop_assert_eq!(compiled.peek(key), t.peek(key), "key {:02x?}", key);
        }
        if shape == 1 {
            prop_assert!(keys.iter().all(|k| compiled.peek(k) == Action::NoOp));
        }
        if shape == 2 {
            let mut probe = vec![0u8; width];
            for key in &keys {
                prop_assert_eq!(
                    compiled.lookup_traced(key, &mut probe),
                    (Action::Mirror(1), LookupOutcome::Hit(0))
                );
            }
        }
    }
}

/// The spec that accepts `byte` at `pos` and every byte elsewhere — for
/// LPM, which fixes every byte its prefix covers, the prefix through `pos`
/// with zeros before `byte`, and for exact, which fixes every byte, the
/// key of zeros but `byte` there.
fn one_byte(kind: MatchKind, width: usize, pos: usize, byte: u8) -> MatchSpec {
    let ranges = kind == MatchKind::Range;
    let (mut x, mut y) = (vec![0; width], vec![if ranges { 255 } else { 0 }; width]);
    (x[pos], y[pos]) = if ranges { (byte, byte) } else { (byte, 0xff) };
    if kind == MatchKind::Lpm {
        y[..pos].fill(0xff);
    }
    spec(kind, &x, &y)
}

/// Whether `spec` accepts fewer than every byte at `pos`.
fn constrains(spec: &MatchSpec, pos: usize) -> bool {
    match spec {
        MatchSpec::Ternary { mask, .. } => mask[pos] != 0,
        MatchSpec::Range { lo, hi } => (lo[pos], hi[pos]) != (0, 255),
        MatchSpec::Lpm { prefix_len, .. } => *prefix_len > 8 * pos,
        MatchSpec::Exact(_) => true,
    }
}

proptest! {
    /// `CompiledTable::recompile` derives the engine from the previous
    /// one. Along a chain of deltas over exact, ternary, range and LPM
    /// tables of 0–300 entries in 1–3 priority levels and 1–9 key bytes — sized
    /// at random or next to 64 or 256 entries, so that chains cross a
    /// second row word and a summary both ways — every link's engine
    /// equals one built in full over the same minimized entries: per key
    /// position and byte value, the row it selects (summary and entry
    /// words), the kept positions and the actions by rank. The two agree
    /// on the rank for each entry's own key and random keys, and with the
    /// scan on the winner. A delta is one to three edits, each of which
    /// removes the entry at any rank; adds one at the end of any level;
    /// adds one that accepts a single byte at one position (for LPM, the
    /// prefix through it), cutting that byte's class; adds the first to
    /// constrain a position the seeds leave free (an exact key leaves
    /// none); removes every entry that constrains a position, the
    /// last of them included; or removes everything.
    #[test]
    fn a_splice_equals_a_build_along_any_delta_chain(
        kind in 0usize..4,
        shape in (1usize..=9, 1i32..=3, pvec(any::<bool>(), 9), (0u8..3, 0usize..301)),
        rows in pvec(
            (pvec(any::<u8>(), 9), pvec(any::<u8>(), 9), pvec(any::<u8>(), 9), any::<i32>()),
            300,
        ),
        deltas in pvec(
            pvec(
                ((0u8..16, any::<usize>()), (any::<u8>(), any::<i32>()), (pvec(any::<u8>(), 9), pvec(any::<u8>(), 9), pvec(any::<u8>(), 9))),
                1..4,
            ),
            1..8,
        ),
        noise in pvec(pvec(any::<u8>(), 9), 8),
    ) {
        let (width, levels, free, (size, n)) = shape;
        let kind = [MatchKind::Ternary, MatchKind::Range, MatchKind::Lpm, MatchKind::Exact][kind];
        let rows = &rows[..[n, 60 + n % 8, 252 + n % 8][usize::from(size)]];
        // A table sized next to a boundary keeps every seed: each is exact
        // on key bytes 0–1, at a value of its own, so none covers another.
        let width = if size == 0 { width } else { width.max(2) };
        let free: Vec<bool> = (0..9).map(|p| free[p] && (size == 0 || p >= 2)).collect();
        let draw = |a: &[u8], b: &[u8], sel: &[u8]| {
            let (x, y): (Vec<u8>, Vec<u8>) = (0..width)
                .map(|p| position_spec(kind, free[p], a[p], b[p], sel[p]))
                .unzip();
            spec(kind, &x, &y)
        };
        let mut t = table(kind, width);
        // An action per entry: nothing merges, so most removals patch.
        let mut port = 0u16;
        for (a, b, sel, level) in rows {
            let mut spec = draw(a, b, sel);
            if size > 0 {
                let own = port.to_be_bytes();
                match &mut spec {
                    MatchSpec::Ternary { value, mask } => {
                        value[..2].copy_from_slice(&own);
                        mask[..2].fill(0xff);
                    }
                    MatchSpec::Range { lo, hi } => {
                        lo[..2].copy_from_slice(&own);
                        hi[..2].copy_from_slice(&own);
                    }
                    MatchSpec::Lpm { value, prefix_len } => {
                        value[..2].copy_from_slice(&own);
                        *prefix_len = (*prefix_len).max(16);
                    }
                    MatchSpec::Exact(value) => value[..2].copy_from_slice(&own),
                }
            }
            t.insert(spec, Action::Forward(port), level.rem_euclid(levels)).unwrap();
            port += 1;
        }
        let mut compiled = Arc::new(CompiledTable::compile(&t));
        for delta in &deltas {
            for ((op, at), (byte, level), (a, b, sel)) in delta {
                let level = level.rem_euclid(levels);
                match op {
                    0..=5 if !t.is_empty() => {
                        let handle = t.entries()[at % t.len()].handle;
                        t.remove(handle).unwrap();
                    }
                    6..=11 => {
                        t.insert(draw(a, b, sel), Action::Forward(port), level).unwrap();
                    }
                    12 | 13 => {
                        let spec = one_byte(kind, width, at % width, *byte);
                        t.insert(spec, Action::Forward(port), level).unwrap();
                    }
                    14 => {
                        let pos = (0..width).find(|&p| free[p]).unwrap_or(width - 1);
                        let spec = one_byte(kind, width, pos, *byte);
                        t.insert(spec, Action::Forward(port), level).unwrap();
                    }
                    15 if at % 2 == 0 => {
                        let pos = at % width;
                        let gone: Vec<_> = t
                            .entries()
                            .iter()
                            .filter(|e| constrains(&e.spec, pos))
                            .map(|e| e.handle)
                            .collect();
                        for handle in gone {
                            t.remove(handle).unwrap();
                        }
                    }
                    15 => t.clear(),
                    _ => {}
                }
                port += 1;
            }
            compiled = CompiledTable::recompile(&compiled, &t);
            let built = compiled.rebuilt();
            prop_assert_eq!(compiled.wildcard_form(), built.wildcard_form());
            let mut keys: Vec<Vec<u8>> = noise.iter().map(|k| k[..width].to_vec()).collect();
            keys.extend(t.entries().iter().map(|e| match &e.spec {
                MatchSpec::Exact(value)
                | MatchSpec::Ternary { value, .. }
                | MatchSpec::Range { lo: value, .. }
                | MatchSpec::Lpm { value, .. } => value.clone(),
            }));
            let mut probe = vec![0u8; width];
            for key in &keys {
                prop_assert_eq!(
                    compiled.lookup_traced(key, &mut probe),
                    built.lookup_traced(key, &mut probe),
                    "key {:02x?}", key
                );
            }
            agrees(&compiled, &t, &keys);
        }
    }
}
