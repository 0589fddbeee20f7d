//! Differential property suite for ternary minimization and incremental
//! recompilation.
//!
//! Two invariants are pinned, both against the scan semantics of
//! `Table::peek` (first match over `Table::entries` in match order):
//!
//! 1. **Minimization preserves winners.** A freshly compiled table —
//!    whose engine indexes the *minimized* entry list — returns the same
//!    action as the unminimized scan for every key, and the winning
//!    entry's effective priority (via `rank_priority`) equals the scan
//!    winner's priority. Merging and subsumption may renumber ranks but
//!    never change the winning `(action, priority)`.
//!
//! 2. **Incremental recompilation equals from-scratch compilation.**
//!    Chaining `CompiledTable::recompile` across a random edit sequence
//!    (inserts, spec-keyed removals, in-place action modifications, a new
//!    table swapped in under the same name) yields the same `(action,
//!    priority)` verdicts as compiling the edited table from scratch at
//!    every step — including the steps where patching bails to a full
//!    recompile.
//!
//!    The same holds one level up, for whole-ruleset swaps through
//!    `ControlPlane::replace_ruleset`: the published pipeline equals a
//!    fresh control plane compiling the target in full, and the scan.
//!
//!    A patch itself is pinned against the per-entry walk: along a chain
//!    of patches, the patched list holds the very entries, in order, and
//!    reports the very `Edit` the walk would. A table read back from JSON
//!    and edited patches to the very form and `Edit` the live table does.
//!
//! 3. **The two minimizers agree with the scan.** `RuleSet::optimize`
//!    (the ternary form, `p4guard_rules::cube`) and lowering (the fold):
//!    for the same single-action ternary rules, the optimized ruleset's
//!    `classify`, the compiled lookup of the raw-installed table and
//!    `Table::peek` give one verdict for every key.
//!
//! 4. **The fold keeps every winner.** Leaf boxes lowered to their prefix
//!    cross products, beside strided and scattered masks, over one to
//!    three actions and priority levels, fold back into boxes without
//!    changing any key's `(action, winning priority)` — at every box's
//!    corners and just outside them — and a `recompile` chain of removals
//!    and verbatim additions over the folded table equals the
//!    from-scratch compile.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::{CompiledTable, LookupOutcome};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::key::KeyLayout;
use p4guard_dataplane::minimize::{minimize, Edit, MinEntry, MinimizedTable};
use p4guard_dataplane::switch::SwitchCounters;
use p4guard_dataplane::table::{MatchKind, MatchSpec, Table, TableEntry};
use p4guard_dataplane::AclLayout;
use p4guard_rules::ternary::range_to_prefixes;
use p4guard_rules::{RuleSet, TernaryEntry};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const KINDS: [MatchKind; 4] = [
    MatchKind::Exact,
    MatchKind::Ternary,
    MatchKind::Lpm,
    MatchKind::Range,
];

/// Few distinct actions so equal-(action, priority) neighbours are common
/// and the merge pass genuinely fires.
fn action_for(selector: u8) -> Action {
    match selector % 3 {
        0 => Action::Drop,
        1 => Action::Forward(7),
        _ => Action::NoOp,
    }
}

/// Raw material for one entry: two seed byte vectors, a (priority,
/// action) pair drawn tie-heavy, and a prefix-length seed.
type RawEntry = (Vec<u8>, Vec<u8>, (i32, u8), usize);

fn spec_for(kind: MatchKind, width: usize, raw: &RawEntry) -> MatchSpec {
    let (a, b, _, plen) = raw;
    let a = &a[..width];
    let b = &b[..width];
    match kind {
        MatchKind::Exact => MatchSpec::Exact(a.to_vec()),
        MatchKind::Ternary => MatchSpec::Ternary {
            value: a.to_vec(),
            // Coarse mask pool: adjacent values under shared masks are
            // exactly the sibling pairs the merge pass folds, and 0x00
            // masks produce wildcards that subsume whole groups.
            mask: b
                .iter()
                .map(|&m| [0x00, 0xfe, 0xf0, 0xff][m as usize % 4])
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

fn hit_key_for(spec: &MatchSpec) -> Vec<u8> {
    match spec {
        MatchSpec::Exact(v) => v.clone(),
        MatchSpec::Ternary { value, .. } => value.clone(),
        MatchSpec::Lpm { value, .. } => value.clone(),
        MatchSpec::Range { lo, .. } => lo.clone(),
    }
}

/// Scan-reference winner: first entry in match order whose spec matches,
/// as `(action, effective priority)`; `None` on miss.
fn scan_winner(table: &Table, key: &[u8]) -> Option<(Action, i32)> {
    table
        .entries()
        .iter()
        .find(|e| e.spec.matches(key))
        .map(|e| (e.action, e.priority))
}

/// Asserts compiled and scan agree on `(action, winner priority)` for
/// `key`, with engine/strategy context on failure.
fn assert_winner_eq(compiled: &CompiledTable, table: &Table, key: &[u8]) {
    let mut probe = vec![0u8; compiled.key().width()];
    let (action, outcome) = compiled.lookup_traced(key, &mut probe);
    let reference = scan_winner(table, key);
    match (outcome, reference) {
        (LookupOutcome::Hit(rank), Some((ref_action, ref_priority))) => {
            assert_eq!(
                (action, compiled.rank_priority(rank)),
                (ref_action, Some(ref_priority)),
                "engine {} key {:?}",
                compiled.strategy(),
                key
            );
        }
        (LookupOutcome::Miss, None) | (LookupOutcome::WrongWidth, None) => {
            assert_eq!(action, table.default_action());
        }
        (outcome, reference) => {
            panic!(
                "engine {} key {key:?}: outcome {outcome:?} vs scan {reference:?}",
                compiled.strategy()
            );
        }
    }
}

/// Keys worth probing: every entry's hit key, the full keyspace at
/// width 1, random keys otherwise, plus a wrong-width key.
fn probe_keys(table: &Table, extra: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let width = table.key().width();
    let mut keys: Vec<Vec<u8>> = table
        .entries()
        .iter()
        .map(|e| hit_key_for(&e.spec))
        .collect();
    if width == 1 {
        keys.extend((0u8..=255).map(|b| vec![b]));
    }
    keys.extend(extra.iter().map(|k| k[..width].to_vec()));
    keys.push(vec![0; width + 1]);
    keys
}

/// A width-1 single-class ruleset from `(value, mask selector, priority)`
/// triples, masks drawn from a merge-friendly pool.
fn ruleset_from(raw: &[(u8, u8, i32)]) -> RuleSet {
    let mut rs = RuleSet::new(1, 0);
    for &(v, m_sel, p) in raw {
        let m = [0xffu8, 0xfe, 0xf0][m_sel as usize % 3];
        rs.push(TernaryEntry::new(vec![v & m], vec![m], 1, p));
    }
    rs
}

/// The `i`-th of a set of ternary rows no two of which merge or shadow:
/// exact on four bytes, two apart in at least two bits.
fn clean_row(i: u16) -> MatchSpec {
    let [hi, lo] = i.to_be_bytes();
    MatchSpec::Ternary {
        value: vec![hi, lo, !hi, !lo],
        mask: vec![0xff; 4],
    }
}

/// The patch as the per-entry walk makes it, the reference for the
/// patch's walk from change to change: every minimized entry of `parent`
/// visited in turn, the removed ones skipped, each added one (in table
/// order) put before the first kept entry of lower priority, and each kept
/// one recorded in the run it continues.
fn per_entry_patch(
    parent: &[MinEntry],
    removed: &HashSet<u64>,
    added: &[&TableEntry],
) -> (Vec<MinEntry>, Edit) {
    let verbatim = |e: &TableEntry| MinEntry::verbatim(e);
    let mut kept: Vec<MinEntry> = Vec::new();
    let mut edit = Edit::default();
    let mut fresh = added.iter().peekable();
    for (rank, m) in parent.iter().enumerate() {
        if removed.contains(&m.order) {
            continue;
        }
        while let Some(e) = fresh.next_if(|e| e.priority > m.priority) {
            edit.fresh.push(kept.len());
            kept.push(verbatim(e));
        }
        match edit.runs.last_mut() {
            Some((from, to, len)) if *from + *len == rank && *to + *len == kept.len() => *len += 1,
            _ => edit.runs.push((rank, kept.len(), 1)),
        }
        kept.push(m.clone());
    }
    for e in fresh {
        edit.fresh.push(kept.len());
        kept.push(verbatim(e));
    }
    (kept, edit)
}

/// One link of a patch chain, checked against the per-entry walk.
fn check_link(parent: &MinimizedTable, table: &Table, removed: &HashSet<u64>) -> MinimizedTable {
    let known: HashSet<_> = parent.source.iter().map(|&(h, _)| h).collect();
    let added: Vec<&TableEntry> = table
        .entries()
        .iter()
        .filter(|e| !known.contains(&e.handle))
        .collect();
    let (child, edit) = parent
        .patch(table.entries(), table.index())
        .expect("clean edits patch");
    let (reference, reference_edit) = per_entry_patch(&parent.entries, removed, &added);
    assert_eq!(child.entries, reference);
    assert_eq!(edit, reference_edit);
    child
}

proptest! {
    /// The patch against the per-entry walk, link by link along chains of
    /// removals (a priority level's first or last rank, or any) and
    /// additions (at the end of a priority level, possibly a new one), over
    /// lists of 0, 1, 63, 64, 65 and 200–260 entries, which put the edits
    /// on both sides of the engine's 64-entry word.
    #[test]
    fn a_patch_equals_the_per_entry_walk(
        size in (0usize..6, 0usize..60),
        priorities in pvec(0i32..3, 260),
        chain in pvec((pvec(any::<u16>(), 0..6), pvec(0i32..4, 0..6)), 1..10),
    ) {
        let len = [0, 1, 63, 64, 65, 200 + size.1][size.0];
        let layout = KeyLayout::window(4);
        let mut table = Table::new("walk", MatchKind::Ternary, layout, 1024, Action::Drop);
        let mut next = 0u16;
        let mut insert = |table: &mut Table, priority: i32| {
            next += 1;
            table.insert(clean_row(next), Action::Drop, priority).unwrap();
        };
        for &priority in &priorities[..len] {
            insert(&mut table, priority);
        }
        let mut parent = minimize(MatchKind::Ternary, table.entries());
        prop_assert_eq!(parent.entries.len(), len, "nothing merges or shadows");
        for (picks, added) in &chain {
            let list = &parent.entries;
            // The first and last rank of each priority level.
            let mut ends = Vec::new();
            let mut start = 0;
            for level in list.chunk_by(|a, b| a.priority == b.priority) {
                ends.extend([start, start + level.len() - 1]);
                start += level.len();
            }
            let mut removed = HashSet::new();
            for &pick in picks {
                if list.is_empty() {
                    break;
                }
                let pick = usize::from(pick);
                let rank = match pick % 3 {
                    0 => ends[pick / 3 % ends.len()],
                    _ => pick / 3 % list.len(),
                };
                removed.insert(list[rank].order);
            }
            for &handle in &removed {
                table.remove(p4guard_dataplane::EntryHandle(handle)).unwrap();
            }
            for &priority in added {
                insert(&mut table, priority);
            }
            parent = check_link(&parent, &table, &removed);
        }
    }

    /// A table read back from JSON (its index column rebuilt there) and
    /// the live one, edited alike — removals, then additions to any
    /// priority level — patch from the live table's form to the same
    /// minimized entries, source and `Edit`, or both take the full
    /// compile. Sibling values fold, so removals subtract as well as drop.
    #[test]
    fn a_read_back_table_patches_like_the_live_one(
        rows in pvec((any::<u8>(), 0u8..3, 0i32..3), 1..80),
        removals in pvec(any::<u8>(), 0..6),
        additions in pvec((any::<u8>(), 0u8..3, 0i32..3), 0..6),
    ) {
        let spec = |(value, mask, _): (u8, u8, i32)| MatchSpec::Ternary {
            value: vec![value, 0x10, !value, 7],
            mask: vec![0xff, [0xff, 0xf0, 0][usize::from(mask)], 0xfe, 0xff],
        };
        let mut live = Table::new("back", MatchKind::Ternary, KeyLayout::window(4), 256, Action::Drop);
        for &row in &rows {
            live.insert(spec(row), action_for(row.0 >> 7), row.2).unwrap();
        }
        let parent = minimize(MatchKind::Ternary, live.entries());
        let json = serde_json::to_string(&live).unwrap();
        let mut back: Table = serde_json::from_str(&json).unwrap();
        for table in [&mut live, &mut back] {
            for &pick in &removals {
                if let Some(e) = table.entries().get(usize::from(pick) % table.len().max(1)) {
                    table.remove(e.handle).unwrap();
                }
            }
            for &row in &additions {
                table.insert(spec(row), action_for(row.0 >> 7), row.2).unwrap();
            }
        }
        let patch = |t: &Table| {
            let patched = parent.patch(t.entries(), t.index());
            patched.map(|(min, edit)| (min.entries, min.source, edit))
        };
        prop_assert_eq!(patch(&back), patch(&live));
    }

    /// Invariant 1: verdict + winner-priority equality between the
    /// minimized compiled engine and the unminimized scan, across all
    /// match kinds, widths, priority ties and merge-heavy mask pools.
    #[test]
    fn minimized_engine_preserves_verdict_and_priority(
        kind_sel in 0usize..4,
        width in 1usize..=3,
        raw_entries in pvec(
            (
                pvec(any::<u8>(), 3usize),
                pvec(any::<u8>(), 3usize),
                (0i32..3, any::<u8>()),
                0usize..=24,
            ),
            0..32,
        ),
        raw_keys in pvec(pvec(any::<u8>(), 3usize), 0..24),
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
        for raw in &raw_entries {
            let spec = spec_for(kind, width, raw);
            let (priority, action_sel) = raw.2;
            table.insert(spec, action_for(action_sel), priority).unwrap();
        }
        let compiled = CompiledTable::compile(&table);
        prop_assert!(compiled.minimized_len() <= compiled.len());
        for key in probe_keys(&table, &raw_keys) {
            assert_winner_eq(&compiled, &table, &key);
        }
    }

    /// Invariant 2: a `recompile` chain over a random edit sequence
    /// (insert / remove-by-spec / modify-action / a new table under the
    /// same name) agrees with from-scratch
    /// compilation after every edit — from a table of a dozen entries, or
    /// of 60–80 or 250–300, past the wildcard engine's one-word rows and
    /// its summary-less ones.
    #[test]
    fn incremental_recompile_equals_scratch_across_edits(
        kind_sel in 0usize..4,
        size in (0usize..3, 0usize..12),
        seed_entries in pvec(
            (
                pvec(any::<u8>(), 1usize),
                pvec(any::<u8>(), 1usize),
                (0i32..3, any::<u8>()),
                0usize..=8,
            ),
            300,
        ),
        // Each edit: (op selector, prefix-length seed), plus raw
        // material for an insert.
        edits in pvec(
            (
                (any::<u8>(), 0usize..=8),
                pvec(any::<u8>(), 1usize),
                pvec(any::<u8>(), 1usize),
                (0i32..3, any::<u8>()),
            ),
            1..16,
        ),
    ) {
        let kind = KINDS[kind_sel];
        let mut table = Table::new("edits", kind, KeyLayout::window(1), 512, Action::NoOp);
        let seeds = [size.1, 60 + 2 * size.1, 250 + 4 * size.1][size.0];
        for raw in &seed_entries[..seeds] {
            let spec = spec_for(kind, 1, raw);
            table.insert(spec, action_for(raw.2 .1), raw.2 .0).unwrap();
        }
        let mut chained = Arc::new(CompiledTable::compile(&table));
        for ((op, plen), a, b, (priority, action_sel)) in &edits {
            let raw = (a.clone(), b.clone(), (*priority, *action_sel), *plen);
            match op % 4 {
                0 => {
                    let spec = spec_for(kind, 1, &raw);
                    table.insert(spec, action_for(*action_sel), *priority).unwrap();
                }
                1 => {
                    let spec = spec_for(kind, 1, &raw);
                    // Remove whatever matches this spec+priority; a miss
                    // leaves the table unchanged, which recompile must
                    // also handle (fingerprint-equal fast path).
                    table.remove_matching(&spec, *priority);
                }
                2 => {
                    if let Some(handle) = table.entries().first().map(|e| e.handle) {
                        table.modify(handle, action_for(*action_sel)).unwrap();
                    }
                }
                _ => {
                    // A new table under the same name, with the same
                    // actions and priorities over another spec: its handles
                    // restart at 1, so its fingerprint can equal the old
                    // table's.
                    let mut fresh = Table::new("edits", kind, KeyLayout::window(1), 512, Action::NoOp);
                    for e in table.entries() {
                        fresh.insert(spec_for(kind, 1, &raw), e.action, e.priority).unwrap();
                    }
                    table = fresh;
                }
            }
            chained = CompiledTable::recompile(&chained, &table);
            let scratch = CompiledTable::compile(&table);
            prop_assert_eq!(chained.len(), scratch.len());
            for key in probe_keys(&table, &[]) {
                assert_winner_eq(&chained, &table, &key);
                assert_winner_eq(&scratch, &table, &key);
            }
        }
    }

    /// Invariant 2 where the wildcard engine's rows move: a patch adds the
    /// first entry to constrain a position every other entry leaves free
    /// (the position gains rows), and the next patch removes it again (the
    /// position loses them). Each link of the `recompile` chain agrees with
    /// a from-scratch compile and the scan, over keys that vary that byte.
    #[test]
    fn a_patch_that_constrains_a_free_position_then_frees_it(
        ranges in any::<bool>(),
        free_pos in 0usize..3,
        seeds in pvec(
            (pvec(any::<u8>(), 3usize), pvec(any::<u8>(), 3usize), (0i32..3, any::<u8>())),
            0..24,
        ),
        added in (pvec(any::<u8>(), 3usize), pvec(any::<u8>(), 3usize), (0i32..4, any::<u8>())),
        raw_keys in pvec(pvec(any::<u8>(), 3usize), 0..16),
    ) {
        let kind = if ranges { MatchKind::Range } else { MatchKind::Ternary };
        let mut table = Table::new("free", kind, KeyLayout::window(3), 64, Action::NoOp);
        for (a, b, (priority, action_sel)) in &seeds {
            let mut spec = spec_for(kind, 3, &(a.clone(), b.clone(), (0, 0), 0));
            match &mut spec {
                MatchSpec::Ternary { mask, .. } => mask[free_pos] = 0,
                MatchSpec::Range { lo, hi } => (lo[free_pos], hi[free_pos]) = (0, 255),
                _ => unreachable!(),
            }
            table.insert(spec, action_for(*action_sel), *priority).unwrap();
        }
        let (a, b, (priority, action_sel)) = &added;
        let mut spec = spec_for(kind, 3, &(a.clone(), b.clone(), (0, 0), 0));
        match &mut spec {
            MatchSpec::Ternary { value, mask } => {
                mask[free_pos] = 0xf0;
                value[free_pos] = a[free_pos] & 0xf0;
            }
            MatchSpec::Range { lo, hi } => (lo[free_pos], hi[free_pos]) = (a[free_pos], a[free_pos]),
            _ => unreachable!(),
        }
        let mut keys = probe_keys(&table, &raw_keys);
        keys.push(hit_key_for(&spec));
        keys = keys
            .iter()
            .flat_map(|k| {
                [0, 0x7f, 0xff, a[free_pos], a[free_pos] ^ 0x10].map(|byte| {
                    let mut k = k.clone();
                    if let Some(slot) = k.get_mut(free_pos) {
                        *slot = byte;
                    }
                    k
                })
            })
            .collect();

        let before = Arc::new(CompiledTable::compile(&table));
        let handle = table.insert(spec, action_for(*action_sel), *priority).unwrap();
        let constrained = CompiledTable::recompile(&before, &table);
        let with_added = table.clone();
        table.remove(handle).unwrap();
        let freed = CompiledTable::recompile(&constrained, &table);
        for (chained, source) in [(&constrained, &with_added), (&freed, &table)] {
            let scratch = CompiledTable::compile(source);
            prop_assert_eq!(chained.len(), scratch.len());
            for key in &keys {
                assert_winner_eq(chained, source, key);
                assert_winner_eq(&scratch, source, key);
            }
        }
    }

    /// Invariant 2 at the control-plane grain: applying `RuleSet::diff`
    /// output (removals then inserts, as the tenant delta path does) and
    /// recompiling incrementally equals compiling the target ruleset from
    /// scratch — full 8-bit keyspace, verdict and winner priority.
    #[test]
    fn ruleset_diff_application_equals_scratch(
        from_raw in pvec((any::<u8>(), any::<u8>(), 0i32..3), 0..20),
        to_raw in pvec((any::<u8>(), any::<u8>(), 0i32..3), 0..20),
    ) {
        let from = ruleset_from(&from_raw);
        let to = ruleset_from(&to_raw);
        let diff = from.diff(&to);

        let mut table = Table::new(
            "delta",
            MatchKind::Ternary,
            KeyLayout::window(1),
            64,
            Action::NoOp,
        );
        for e in from.entries() {
            table
                .insert(
                    MatchSpec::Ternary { value: e.value.clone(), mask: e.mask.clone() },
                    Action::Drop,
                    e.priority,
                )
                .unwrap();
        }
        let before = Arc::new(CompiledTable::compile(&table));
        for e in &diff.removed {
            let spec = MatchSpec::Ternary { value: e.value.clone(), mask: e.mask.clone() };
            prop_assert!(
                table.remove_matching(&spec, e.priority).is_some(),
                "diff removal must exist in the source table"
            );
        }
        for e in &diff.added {
            table
                .insert(
                    MatchSpec::Ternary { value: e.value.clone(), mask: e.mask.clone() },
                    Action::Drop,
                    e.priority,
                )
                .unwrap();
        }
        prop_assert_eq!(table.len(), to.len());
        let chained = CompiledTable::recompile(&before, &table);
        for key in probe_keys(&table, &[]) {
            assert_winner_eq(&chained, &table, &key);
        }
        // The delta-applied table must classify exactly like the target
        // ruleset: uniform on-match action makes equal-priority ordering
        // differences verdict-neutral.
        let mut probe = [0u8; 1];
        for b in 0u8..=255 {
            let expect = if to.classify(&[b]) == 1 { Action::Drop } else { Action::NoOp };
            prop_assert_eq!(chained.lookup(&[b], &mut probe), expect, "key {:#04x}", b);
        }
    }

    /// Invariant 2 through the one swap entry point: along an arbitrary
    /// chain of whole-ruleset swaps — arbitrary targets, the empty
    /// ruleset, the ruleset already installed, a disjoint one —
    /// `replace_ruleset` leaves the stage multiset-equal to its target,
    /// reports exactly the difference it applied, and publishes a pipeline
    /// verdict-equal to a fresh twin's first (full) compile of the target
    /// and to the scan oracle over the whole keyspace; an identical
    /// ruleset re-lowers nothing.
    #[test]
    fn replace_ruleset_chains_equal_clear_and_install(
        chain in pvec((0u8..6, pvec((any::<u8>(), any::<u8>(), 0i32..3), 0..20)), 1..8),
    ) {
        let layout = AclLayout { window: 14, offsets: vec![0], capacity: 64 };
        let control = ControlPlane::new(layout.switch("swap", ["acl"]));
        let cell = control.attach_cell();
        control.publish();
        let mut installed = RuleSet::new(1, 0);
        for (step, (op, raw)) in chain.iter().enumerate() {
            let target = match op {
                0 => RuleSet::new(1, 0),
                1 => installed.clone(),
                2 => {
                    // Priorities no earlier step used: shares no entry
                    // with anything installed before.
                    let lift = 10 * (step as i32 + 1);
                    let raw: Vec<_> = raw.iter().map(|&(v, m, p)| (v, m, p + lift)).collect();
                    ruleset_from(&raw)
                }
                _ => ruleset_from(raw),
            };
            let diff = control.replace_ruleset(0, &target, Action::Drop).unwrap();
            let expect = installed.diff(&target);
            let sorted = |entries: &[TernaryEntry]| {
                let mut keys: Vec<_> =
                    entries.iter().map(|e| (e.value.clone(), e.mask.clone(), e.priority)).collect();
                keys.sort();
                keys
            };
            prop_assert_eq!(sorted(&diff.added), sorted(&expect.added));
            prop_assert_eq!(sorted(&diff.removed), sorted(&expect.removed));
            let mut readback = RuleSet::new(1, 0);
            control.with_switch(|sw| {
                for e in sw.stage(0).entries() {
                    let MatchSpec::Ternary { value, mask } = &e.spec else { unreachable!() };
                    assert_eq!(e.action, Action::Drop);
                    readback.push(TernaryEntry::new(value.clone(), mask.clone(), 1, e.priority));
                }
            });
            prop_assert!(readback.diff(&target).is_empty(), "stage != target at step {}", step);

            let report = control.publish();
            if diff.is_empty() {
                prop_assert_eq!(report.stages_recompiled, 0, "unchanged ruleset re-lowered");
            }
            // A fresh twin per step: its first snapshot has nothing to
            // patch or share, so it cannot silently turn incremental.
            let twin = ControlPlane::new(layout.switch("twin", ["acl"]));
            twin.replace_ruleset(0, &target, Action::Drop).unwrap();
            prop_assert_eq!(twin.publish().stages_shared, 0);
            let (swapped, scratch) = (cell.load(), twin.snapshot());
            let mut counters = SwitchCounters::default();
            let mut buf = Vec::new();
            for k in 0u8..=255 {
                let mut frame = [0u8; 14];
                frame[0] = k;
                let verdict = swapped.process_into(&frame, &mut counters, &mut buf);
                prop_assert_eq!(
                    verdict,
                    scratch.process_into(&frame, &mut counters, &mut buf),
                    "swap vs clear+install, key {:#04x} step {}", k, step
                );
                prop_assert_eq!(
                    verdict,
                    control.with_switch_mut(|sw| sw.process(&frame)),
                    "swap vs scan, key {:#04x} step {}", k, step
                );
            }
            installed = target;
        }
    }

    /// Invariant 3: both consumers of the shared core against the scan,
    /// over the full keyspace at width 1 and 2.
    #[test]
    fn both_minimizer_drivers_agree_with_the_scan(
        width in 1usize..=2,
        raw in pvec((pvec(any::<u8>(), 2usize), pvec(any::<u8>(), 2usize), 0i32..3), 0..16),
    ) {
        let mut rules = RuleSet::new(width, 0);
        for (value, mask_sel, priority) in &raw {
            let mask: Vec<u8> = mask_sel[..width]
                .iter()
                .map(|&m| [0x00, 0xfe, 0xf0, 0xff][m as usize % 4])
                .collect();
            rules.push(TernaryEntry::new(value[..width].to_vec(), mask, 1, *priority));
        }
        let mut table = Table::new(
            "drivers",
            MatchKind::Ternary,
            KeyLayout::window(width),
            raw.len().max(1),
            Action::NoOp,
        );
        for e in rules.entries() {
            table
                .insert(
                    MatchSpec::Ternary { value: e.value.clone(), mask: e.mask.clone() },
                    Action::Drop,
                    e.priority,
                )
                .unwrap();
        }
        let compiled = CompiledTable::compile(&table);
        let mut optimized = rules.clone();
        optimized.optimize();
        let mut probe = vec![0u8; width];
        for k in 0..(1usize << (8 * width)) {
            let key = &[(k >> 8) as u8, k as u8][2 - width..];
            let scan = table.peek(key);
            prop_assert_eq!(compiled.lookup(key, &mut probe), scan, "compiled, key {:?}", key);
            let verdict = if optimized.classify(key) == 1 { Action::Drop } else { Action::NoOp };
            prop_assert_eq!(verdict, scan, "optimized ruleset, key {:?}", key);
        }
    }

    /// Invariant 4: leaf boxes (each position free or an interval) lowered
    /// to their prefix cross products — a position is left free where the
    /// product would pass 256 rows — and entries under strided (`0x03`:
    /// bytes four apart), scattered (`0x5a`) and prefix masks, one to
    /// three actions over one to three priority levels. The folded compile
    /// agrees with the scan on random keys, on every box's corners and on
    /// the bytes just outside them; then a chain of removals and verbatim
    /// additions (copies of installed rows, some under another action)
    /// recompiled link by link agrees with it and with the from-scratch
    /// compile.
    #[test]
    fn the_fold_keeps_every_winner_of_leaf_boxes(
        width in 1usize..=3,
        actions in 1u8..=3,
        levels in 1i32..=3,
        boxes in pvec((pvec((any::<u8>(), any::<u8>(), 0u8..4), 3usize), any::<u8>(), any::<i32>()), 1..8),
        masked in pvec((pvec(any::<u8>(), 3usize), pvec(0u8..5, 3usize), any::<u8>(), any::<i32>()), 0..16),
        raw_keys in pvec(pvec(any::<u8>(), 3usize), 0..24),
        edits in pvec((any::<u16>(), 0u8..3), 0..10),
    ) {
        let level = |p: i32| p.rem_euclid(levels);
        let action = |a: u8| action_for(a % actions);
        let mut table = Table::new("fold", MatchKind::Ternary, KeyLayout::window(width), 4096, Action::NoOp);
        let mut keys: Vec<Vec<u8>> = raw_keys.iter().map(|k| k[..width].to_vec()).collect();
        let filler = raw_keys.first().cloned().unwrap_or_else(|| vec![0x5c; 3]);
        for (ranges, a, p) in &boxes {
            let mut rows = vec![(vec![0u8; width], vec![0u8; width])];
            let mut bounds = Vec::new();
            for (pos, &(x, y, sel)) in ranges[..width].iter().enumerate() {
                let covers = range_to_prefixes(x.min(y), x.max(y));
                if sel == 0 || rows.len() * covers.len() > 256 {
                    continue;
                }
                bounds.push((pos, x.min(y), x.max(y)));
                rows = rows
                    .iter()
                    .flat_map(|(value, mask)| {
                        covers.iter().map(move |c| {
                            let (mut value, mut mask) = (value.clone(), mask.clone());
                            (value[pos], mask[pos]) = (c.value, c.mask);
                            (value, mask)
                        })
                    })
                    .collect();
            }
            for (value, mask) in rows {
                table.insert(MatchSpec::Ternary { value, mask }, action(*a), level(*p)).unwrap();
            }
            for corner in 0..1u32 << bounds.len() {
                let mut key = filler[..width].to_vec();
                for (i, &(pos, lo, hi)) in bounds.iter().enumerate() {
                    key[pos] = if corner >> i & 1 == 1 { hi } else { lo };
                }
                for &(pos, lo, hi) in &bounds {
                    for byte in [lo.wrapping_sub(1), hi.wrapping_add(1)] {
                        let mut outside = key.clone();
                        outside[pos] = byte;
                        keys.push(outside);
                    }
                }
                keys.push(key);
            }
        }
        for (value, sel, a, p) in &masked {
            let mask: Vec<u8> = sel[..width].iter().map(|&m| [0x00, 0xff, 0x03, 0x5a, 0xf0][usize::from(m)]).collect();
            let value = value[..width].to_vec();
            keys.push(value.clone());
            table.insert(MatchSpec::Ternary { value, mask }, action(*a), level(*p)).unwrap();
        }
        keys.extend(probe_keys(&table, &[]));

        let compiled = CompiledTable::compile(&table);
        prop_assert!(compiled.minimized_len() <= compiled.len());
        for key in &keys {
            assert_winner_eq(&compiled, &table, key);
        }
        let mut chained = Arc::new(compiled);
        for &(pick, op) in &edits {
            let entries = table.entries();
            if entries.is_empty() {
                break;
            }
            let e = entries[usize::from(pick) % entries.len()].clone();
            match op {
                0 => {
                    table.remove(e.handle).unwrap();
                }
                1 => {
                    table.insert(e.spec, e.action, e.priority).unwrap();
                }
                _ => {
                    table.insert(e.spec, action((pick >> 8) as u8), e.priority).unwrap();
                }
            }
            chained = CompiledTable::recompile(&chained, &table);
            let scratch = CompiledTable::compile(&table);
            for key in &keys {
                assert_winner_eq(&chained, &table, key);
                assert_winner_eq(&scratch, &table, key);
            }
        }
    }
}
