//! Lowering-time table minimization: every entry becomes a box — one
//! [`ByteSet`] per key position — each order-free priority level is
//! folded, and subsumed entries are
//! eliminated, when a frozen [`Table`](crate::table::Table) is compiled
//! into a [`CompiledTable`](crate::compiled::CompiledTable).
//!
//! The reference semantics are [`Table::peek`](crate::table::Table::peek):
//! the winner is the first
//! matching entry in frozen match order (priority descending, insertion
//! order breaking ties). Minimization rewrites the entry list without
//! changing any lookup's `(action, winning priority)`:
//!
//! * **Fold** (all kinds): within one priority level that is
//!   *order-free* (no two overlapping entries carry different actions),
//!   same-action boxes equal at every position but one are exactly the
//!   box whose set there is the union of theirs, so they collapse into it.
//!   Position by position to a fixpoint, so a decision-tree leaf that
//!   prefix expansion cut into its range → prefix cross product folds back
//!   into its box, and adjacent leaves join where they line up. A one-bit
//!   sibling merge and an interval coalescing are both special cases.
//! * **Subsumption** (all kinds): an entry whose match set is contained in
//!   an earlier kept entry's — per position set inclusion, which for exact
//!   keys is equality — can never be the first match, so it is dropped,
//!   regardless of either action: a shadowed entry is dead. It runs over
//!   the folded entries and is quadratic, so above
//!   [`MINIMIZE_MAX_ENTRIES`] folded entries it is skipped.
//!
//! # The TCAM count is not the engine's rows
//!
//! A folded box is a row of the bit-vector engine, not a TCAM entry: a
//! switch still holds the ternary form. What a table costs in TCAM
//! ([`TableUsage`](crate::resources::TableUsage), and the fleet budgeter
//! through [`minimized_ternary_count`]) is counted by [`ternary_rows`]:
//! subsumption, then [`p4guard_rules::cube`]'s one-bit sibling merge per
//! level — the same sweep `RuleSet::optimize` runs — under the same cap.
//! It is a count; nothing is lowered from it.
//!
//! # Bookkeeping
//!
//! The working entry carries nothing it can derive: its order key is its
//! smallest source, it is merged when it stands for more than one source,
//! and it is a coverer when the subsumption pass recorded it — merged or
//! not — as the shadow of an eliminated entry, so there is no flag a merge
//! could lose.
//!
//! Merged entries keep the *earliest* source position (the minimum source
//! handle) as their order key, so the minimized list replays the source
//! table's relative order level by level. That order preservation is what
//! makes incremental patching
//! ([`CompiledTable::recompile`](crate::compiled::CompiledTable::recompile))
//! sound: an added entry always lands at the end of its priority level in
//! both the source table and the minimized list. The added entries fold
//! among themselves, never into the entries already there.
//!
//! Every source handle is classified ([`SourceClass`]). A patch drops a
//! removed [`SourceClass::Clean`] handle's entry, ignores a removed
//! [`SourceClass::Eliminated`] one, and subtracts a removed
//! [`SourceClass::Merged`] one's box from the entries of its level it
//! meets — exact while the level's sources are pairwise disjoint, which a
//! full minimization checks for every level that holds a folded entry, a
//! patch re-checks on every addition, and the patch that first folds added
//! entries into a level never checked checks once, whole (see
//! [`MinimizedTable::patch`]). A
//! removed [`SourceClass::Coverer`] handle, or a folded one in a level not
//! known to be disjoint, takes the full minimization again. To subtract a
//! box the table no longer holds, every source's box and priority are kept
//! beside the list in source order, two bytes per key position.

use crate::action::Action;
use crate::byteset::{ByteSet, ByteSetMap};
use crate::table::{EntryHandle, EntryIndex, MatchKind, MatchSpec, TableEntry};
use p4guard_rules::cube::{self, Cube};
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::Arc;

/// Above this many folded entries subsumption is skipped (the pass is
/// quadratic), and so is the overlap test that tells whether a level with
/// more than one action is order-free; the TCAM count above this many
/// source entries is the raw count.
pub const MINIMIZE_MAX_ENTRIES: usize = 3072;

/// How the minimization — the last full one, or the patch that added the
/// handle — treated one source handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceClass {
    /// Kept one-to-one: not merged, and covering no eliminated entry.
    /// Removing it just deletes its minimized entry.
    Clean,
    /// Folded into a wider entry with at least one other source, an entry
    /// that shadows nothing. Removing it subtracts its box from the
    /// entries of its priority level it meets, where the level's sources
    /// are known to be pairwise disjoint; elsewhere it takes the full
    /// minimization.
    Merged,
    /// Dropped because an earlier kept entry covers it; removing it is a
    /// no-op on the minimized list.
    Eliminated,
    /// Kept, in an entry — merged or not — that is the recorded shadow of
    /// at least one eliminated entry; removing it could resurrect what
    /// that entry shadowed.
    Coverer,
}

/// `spec` as a box: per key position, the byte values it accepts (an
/// exact key's are single bytes).
fn box_of(spec: &MatchSpec) -> Vec<ByteSet> {
    (0..spec.width())
        .map(|pos| ByteSet::of(spec, pos))
        .collect()
}

/// Every key matching box `b` also matches box `a`.
fn covers(a: &[ByteSet], b: &[ByteSet]) -> bool {
    a.len() == b.len() && b.iter().zip(a).all(|(b, a)| b.is_subset(a))
}

/// Some key matches both boxes.
fn overlaps(a: &[ByteSet], b: &[ByteSet]) -> bool {
    a.iter().zip(b).all(|(a, b)| !a.intersection(*b).is_empty())
}

/// The keys a box matches whose sets hold `sizes` bytes, `None` from 2¹²⁰
/// on (a set holds at most 2⁸ bytes, so below that a product cannot
/// overflow).
fn volume(sizes: impl IntoIterator<Item = usize>) -> Option<u128> {
    (sizes.into_iter()).try_fold(1u128, |keys, size| {
        (keys < 1 << 120).then(|| keys * size as u128)
    })
}

/// Box `a` minus box `b`, appended to `out`: one box per position where
/// `b` leaves part of `a` out, at most one per key position. The box of
/// position `p` takes `a ∩ b` before `p`, `a \ b` at `p` and `a` after it,
/// so the boxes are pairwise disjoint and match exactly the keys of `a`
/// that `b` does not.
fn subtract(a: &[ByteSet], b: &[ByteSet], out: &mut Vec<Vec<ByteSet>>) {
    let mut inside = a.to_vec();
    for (pos, (&a, &b)) in a.iter().zip(b).enumerate() {
        let outside = a.difference(b);
        if !outside.is_empty() {
            let mut piece = inside.clone();
            piece[pos] = outside;
            out.push(piece);
        }
        inside[pos] = a.intersection(b);
    }
}

/// Whether one level's entries stay pairwise disjoint with `new` ones
/// among them, each `new` one standing for sources whose box volumes sum
/// to its second field: each new box meets no `known` one (already
/// disjoint among themselves) and no new one before it, and is as large as
/// that sum — a union of boxes is exactly as large as their sum when no
/// two of them meet. Then the level's sources are pairwise disjoint too.
/// Past [`MINIMIZE_MAX_ENTRIES`] entries (the test is quadratic), or
/// where a volume overflows, not known.
fn disjoint(known: &[&[ByteSet]], new: &[(&[ByteSet], Option<u128>)]) -> bool {
    known.len() + new.len() <= MINIMIZE_MAX_ENTRIES
        && new.iter().enumerate().all(|(i, &(row, sum))| {
            sum.is_some()
                && volume(row.iter().map(ByteSet::len)) == sum
                && known.iter().all(|&other| !overlaps(row, other))
                && new[..i].iter().all(|&(other, _)| !overlaps(row, other))
        })
}

/// One priority level of a minimized list, as a patch needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Level {
    priority: i32,
    /// Sources its entries stand for: all of the level's but the
    /// eliminated ones.
    live: usize,
    /// Whether its sources are pairwise disjoint and its entries match
    /// exactly their keys: each entry a union of sources, or a piece a
    /// subtraction left of one. `None` (not known) until the level holds a
    /// folded entry; checked when one is made, by the minimization or by
    /// the patch that folds it in.
    disjoint: Option<bool>,
}

/// The level of `priority` in `levels` (highest priority first).
fn level_mut(levels: &mut [Level], priority: i32) -> Option<&mut Level> {
    let at = levels
        .binary_search_by_key(&Reverse(priority), |l| Reverse(l.priority))
        .ok()?;
    Some(&mut levels[at])
}

/// One minimized entry, in minimized match order.
#[derive(Debug, Clone, PartialEq)]
pub struct MinEntry {
    /// What the entry matches: per key position, the byte values it
    /// accepts — one each for an exact key, a union where entries folded.
    /// Shared by every version a patch keeps the entry in.
    pub sets: Arc<[ByteSet]>,
    /// Action on hit.
    pub action: Action,
    /// Effective priority (identical to every source it stands for).
    pub priority: i32,
    /// Order key within the priority level: the smallest source handle
    /// this entry stands for. Unmerged entries carry their own handle.
    pub order: u64,
}

impl MinEntry {
    /// A source entry as a box of its own: what an added entry that folds
    /// with no other becomes.
    pub fn verbatim(entry: &TableEntry) -> MinEntry {
        MinEntry {
            sets: box_of(&entry.spec).into(),
            action: entry.action,
            priority: entry.priority,
            order: entry.handle.0,
        }
    }
}

/// The minimized form of one table's entry list plus the bookkeeping the
/// incremental compiler needs: the source `(handle, action)` fingerprint
/// (specs and priorities are immutable per handle, so this detects every
/// possible edit of one [`Table`](crate::table::Table)), each source
/// entry's [`SourceClass`], priority and box, and what each priority level
/// is known to be.
#[derive(Debug, Clone)]
pub struct MinimizedTable {
    /// Minimized entries sorted by (priority descending, order ascending).
    pub entries: Vec<MinEntry>,
    /// `(handle, action)` per source entry, in source match order.
    pub source: Vec<(EntryHandle, Action)>,
    /// Each source entry's class, in source match order.
    classes: Vec<SourceClass>,
    /// Each source entry's priority, in source match order.
    priorities: Vec<i32>,
    /// Each source entry's box, one [`ByteSet::pair`] per key position, in
    /// source match order: what removing a [`SourceClass::Merged`] one
    /// subtracts, since the table no longer holds it. 2,196 sources of an
    /// eight-byte key take 35 KB, where their sets would take 560 KB.
    boxes: Vec<[u8; 2]>,
    /// The table's match kind: a range table's boxes are kept as
    /// intervals, every other kind's as masks.
    kind: MatchKind,
    /// The largest handle this form has known.
    newest: u64,
    /// The priority levels that have a live source, highest first.
    levels: Vec<Level>,
}

impl MinimizedTable {
    /// A form of no entries for a table of `kind`, with room for the
    /// source entries `entries`.
    fn empty(kind: MatchKind, entries: &[TableEntry]) -> MinimizedTable {
        let (sources, width) = (entries.len(), entries.first().map_or(0, |e| e.spec.width()));
        MinimizedTable {
            entries: Vec::new(),
            source: Vec::with_capacity(sources),
            classes: Vec::with_capacity(sources),
            priorities: Vec::with_capacity(sources),
            boxes: Vec::with_capacity(sources * width),
            kind,
            newest: 0,
            levels: Vec::new(),
        }
    }

    /// Appends source entry `e`, of class `class`.
    fn push_source(&mut self, e: &TableEntry, class: SourceClass) {
        self.source.push((e.handle, e.action));
        self.classes.push(class);
        self.priorities.push(e.priority);
        let pairs = (0..e.spec.width()).map(|pos| ByteSet::pair(&e.spec, pos));
        self.boxes.extend(pairs);
        self.newest = self.newest.max(e.handle.0);
    }

    /// Key positions per source entry.
    fn width(&self) -> usize {
        self.boxes.len() / self.source.len().max(1)
    }

    /// Appends this form's source entries `at` to `to`'s.
    fn copy_sources(&self, at: Range<usize>, to: &mut MinimizedTable) {
        let width = self.width();
        to.source.extend_from_slice(&self.source[at.clone()]);
        to.classes.extend_from_slice(&self.classes[at.clone()]);
        to.priorities
            .extend_from_slice(&self.priorities[at.clone()]);
        to.boxes
            .extend_from_slice(&self.boxes[at.start * width..at.end * width]);
    }

    /// The classification of `handle`: by the last full minimization, or
    /// by the patch that added it ([`SourceClass::Clean`], or
    /// [`SourceClass::Merged`] where the added entries folded).
    pub fn class_of(&self, handle: EntryHandle) -> Option<SourceClass> {
        let at = self.source.iter().position(|&(h, _)| h == handle)?;
        Some(self.classes[at])
    }

    /// The ranks of the minimized entries of priority `priority`.
    fn level_ranks(&self, priority: i32) -> Range<usize> {
        let entries = &self.entries;
        entries.partition_point(|e| e.priority > priority)
            ..entries.partition_point(|e| e.priority >= priority)
    }

    /// The minimized form of `entries` — the same table's entries now, in
    /// match order, with `index` their [`Table::index`](crate::table::Table::index)
    /// column — patched from this one without re-minimizing, or `None`
    /// where a patch would be unsound and only a full minimization will
    /// do: an action modified in place, a removed handle whose entry
    /// shadows an eliminated one ([`SourceClass::Coverer`]), a removed
    /// folded one in a level not known to be disjoint, or an `index` not
    /// as long as `entries`.
    ///
    /// One walk over this form's source and `index` tells survivors,
    /// removals and additions apart, and makes the new source: it reads
    /// an entry of `entries` only where one was added, for its box. It relies
    /// on three facts and returns `None` where it finds one broken: both
    /// lists are in match order, surviving entries keep their relative
    /// order, and a handle added since exceeds every handle this form
    /// knows — so an addition lands at the end of its priority level here
    /// as in the table. Then:
    ///
    /// * a removed clean entry is found by its order key, walking the
    ///   minimized entries in source order;
    /// * a removed folded source's box, kept beside the source list, is
    ///   subtracted from every entry of its level it meets. Each
    ///   subtraction leaves at most one box per key position, and the
    ///   pieces take the entry's place and order key. That is exact while
    ///   the level's sources are pairwise disjoint — then the removed box
    ///   lies in the level's entries and meets no other source. A level
    ///   whose sources are all removed loses its entries without a
    ///   subtraction; where the pieces would outnumber the level's
    ///   remaining sources, the full minimization folds it afresh;
    /// * the added entries are folded among themselves, run by run of the
    ///   table, and each row goes before the first entry of lower
    ///   priority. Where the level was known disjoint (or empty), it stays
    ///   so only if the rows meet none of its entries nor each other, and
    ///   each is as large as its sources together. A level never checked
    ///   (none of its rows folded) is checked whole, once, when a folded
    ///   row joins it, so removing one of that row's sources subtracts.
    ///
    /// The [`Edit`] beside the patched form says where every minimized
    /// entry went, so the engine can be patched the same way. A kept entry
    /// shares its box with this form: the patched list copies one pointer
    /// per kept row.
    #[doc(hidden)]
    pub fn patch(
        &self,
        entries: &[TableEntry],
        index: &[EntryIndex],
    ) -> Option<(MinimizedTable, Edit)> {
        if index.len() != entries.len() {
            return None;
        }
        let mut patched = MinimizedTable::empty(self.kind, entries);
        patched.newest = self.newest;
        patched.levels = self.levels.clone();
        // The old indices of the removed source entries, and the indices
        // into `entries` of the added ones.
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        // The next old source entry, and where the run of survivors that
        // ends before it began: survivors are copied a run at a time.
        let (mut next, mut run) = (0, 0);
        for (i, e) in index.iter().enumerate() {
            if self.source.get(next) == Some(&(e.handle, e.action)) {
                next += 1;
                continue;
            }
            self.copy_sources(run..next, &mut patched);
            if e.handle.0 > self.newest {
                added.push(i);
                patched.push_source(&entries[i], SourceClass::Clean);
                run = next;
                continue;
            }
            // A surviving handle: every source entry ahead of it is gone.
            loop {
                let &(handle, action) = self.source.get(next)?;
                if handle == e.handle {
                    if action != e.action {
                        return None;
                    }
                    break;
                }
                removed.push(next);
                next += 1;
            }
            run = next;
            next += 1;
        }
        self.copy_sources(run..next, &mut patched);
        removed.extend(next..self.source.len());

        // Removed clean entries come in source order, which is also their
        // order in the minimized list: each carries its own handle as its
        // order key at its own priority. `drops` are old ranks.
        let mut drops = Vec::new();
        // Removed folded sources: each one's priority and where its box
        // starts in `boxes`.
        let (mut cuts, mut boxes) = (Vec::new(), Vec::new());
        let (width, range) = (self.width(), self.kind == MatchKind::Range);
        let mut from = 0;
        for &at in &removed {
            let priority = self.priorities[at];
            match self.classes[at] {
                SourceClass::Clean => {
                    let handle = self.source[at].0 .0;
                    let rank = from
                        + self.entries[from..]
                            .iter()
                            .position(|e| e.order == handle)?;
                    drops.push(rank);
                    from = rank + 1;
                }
                SourceClass::Merged => {
                    cuts.push((priority, boxes.len()));
                    let pairs = &self.boxes[at * width..][..width];
                    boxes.extend(pairs.iter().map(|&pair| ByteSet::of_pair(pair, range)));
                }
                SourceClass::Eliminated => continue,
                SourceClass::Coverer => return None,
            }
            let level = level_mut(&mut patched.levels, priority)?;
            level.live = level.live.checked_sub(1)?;
        }

        // Made entries, each with the old rank it goes before.
        let mut made: Vec<(usize, MinEntry)> = Vec::new();
        cuts.sort_by_key(|&(priority, _)| Reverse(priority));
        for cut in cuts.chunk_by(|a, b| a.0 == b.0) {
            let level = *level_mut(&mut patched.levels, cut[0].0)?;
            let ranks = self.level_ranks(level.priority);
            if level.live == 0 {
                drops.extend(ranks);
                continue;
            }
            if level.disjoint != Some(true) {
                return None;
            }
            let cut: Vec<&[ByteSet]> = cut.iter().map(|&(_, at)| &boxes[at..at + width]).collect();
            // Per position, every byte some removed box holds: a row that
            // meets none of them meets no removed box.
            let reach: Vec<ByteSet> = (0..width)
                .map(|pos| cut.iter().fold(ByteSet([0; 4]), |all, b| all.union(b[pos])))
                .collect();
            // The level's rows once this cut is made.
            let mut left = ranks.len() - drops.iter().filter(|&d| ranks.contains(d)).count();
            for rank in ranks {
                let entry = &self.entries[rank];
                if !overlaps(&entry.sets, &reach) {
                    continue;
                }
                let mut met = cut.iter().filter(|b| overlaps(&entry.sets, b)).peekable();
                if met.peek().is_none() {
                    continue;
                }
                drops.push(rank);
                left -= 1;
                // The removed sources are disjoint: where the keys they
                // take from the row add up to all of it, it goes whole.
                let taken = met.try_fold(0u128, |sum, b| {
                    let shared = (entry.sets.iter().zip(*b)).map(|(a, b)| a.intersection(*b).len());
                    sum.checked_add(volume(shared)?)
                });
                if taken.is_some() && taken == volume(entry.sets.iter().map(ByteSet::len)) {
                    continue;
                }
                let mut pieces = vec![entry.sets.to_vec()];
                for b in &cut {
                    let mut rest = Vec::with_capacity(pieces.len());
                    for piece in pieces {
                        if overlaps(&piece, b) {
                            subtract(&piece, b, &mut rest);
                        } else {
                            rest.push(piece);
                        }
                    }
                    pieces = rest;
                }
                left += pieces.len();
                made.extend(pieces.into_iter().map(|sets| {
                    let (action, priority, order) = (entry.action, entry.priority, entry.order);
                    let piece = MinEntry {
                        sets: sets.into(),
                        action,
                        priority,
                        order,
                    };
                    (rank, piece)
                }));
            }
            if left > level.live {
                return None;
            }
        }
        drops.sort_unstable();
        drops.dedup();

        // The added entries, folded run by run; each level they land in
        // keeps its disjointness only where they keep it.
        let mut rows = Vec::new();
        for run in added.chunk_by(|a, b| a + 1 == *b) {
            let run = run[0]..run[0] + run.len();
            let folded = rows_of(&entries[run.clone()]);
            rows.extend(folded.into_iter().map(|mut k| {
                k.sources.iter_mut().for_each(|at| *at += run.start);
                k
            }));
        }
        let levels = &mut patched.levels;
        for level_rows in rows.chunk_by(|a, b| a.priority == b.priority) {
            let priority = level_rows[0].priority;
            let at = levels
                .binary_search_by_key(&Reverse(priority), |l| Reverse(l.priority))
                .unwrap_or_else(|at| {
                    let empty = Level {
                        priority,
                        live: 0,
                        disjoint: None,
                    };
                    levels.insert(at, empty);
                    at
                });
            let level = &mut levels[at];
            let merged = level_rows.iter().any(|k| k.sources.len() > 1);
            // An empty level holds nothing to be disjoint from.
            let checked = if level.live == 0 {
                None
            } else {
                level.disjoint
            };
            level.disjoint = match checked {
                Some(false) => Some(false),
                None if !merged => None,
                _ => {
                    let ranks = self.level_ranks(priority);
                    let kept = ranks.filter(|rank| drops.binary_search(rank).is_err());
                    let kept = kept.map(|rank| &self.entries[rank].sets[..]);
                    let pieces = made.iter().filter(|(_, e)| e.priority == priority);
                    let old = kept.chain(pieces.map(|(_, e)| &e.sets[..]));
                    let rows = level_rows.iter().map(|k| (&k.sets[..], k.volume));
                    Some(if checked.is_some() {
                        disjoint(&old.collect::<Vec<_>>(), &rows.collect::<Vec<_>>())
                    } else {
                        // Never checked: each of its rows is one source's
                        // box, checked with the added ones.
                        let own = |sets: &[ByteSet]| volume(sets.iter().map(ByteSet::len));
                        let old = old.map(|sets| (sets, own(sets)));
                        disjoint(&[], &old.chain(rows).collect::<Vec<_>>())
                    })
                }
            };
            level.live += level_rows.iter().map(|k| k.sources.len()).sum::<usize>();
            for k in level_rows.iter().filter(|k| k.sources.len() > 1) {
                for &at in &k.sources {
                    patched.classes[at] = SourceClass::Merged;
                }
            }
        }
        levels.retain(|level| level.live > 0);
        for k in rows {
            let place = self.entries.partition_point(|e| e.priority >= k.priority);
            let entry = MinEntry {
                order: k.order(entries),
                sets: k.sets.into(),
                action: k.label,
                priority: k.priority,
            };
            made.push((place, entry));
        }
        // Where a level's pieces and the next level's additions meet, the
        // higher priority goes first.
        made.sort_by_key(|(at, e)| (*at, Reverse(e.priority)));

        // From change to change: a drop moves the old rank on alone and a
        // made entry the new one, so no run continues the one before it.
        let n = self.entries.len();
        let mut edit = Edit::default();
        let list = &mut patched.entries;
        list.reserve(n - drops.len() + made.len());
        let mut made = made.into_iter().peekable();
        let (mut rank, mut dropped) = (0, 0);
        loop {
            let next_drop = drops.get(dropped).copied().unwrap_or(n);
            let next_made = made.peek().map_or(n, |&(at, _)| at);
            let stop = next_drop.min(next_made);
            if stop > rank {
                edit.runs.push((rank, list.len(), stop - rank));
                list.extend_from_slice(&self.entries[rank..stop]);
                rank = stop;
            }
            if let Some((_, entry)) = made.next_if(|&(at, _)| at <= rank) {
                edit.fresh.push(list.len());
                list.push(entry);
            } else if dropped < drops.len() && next_drop == rank {
                rank += 1;
                dropped += 1;
            } else {
                break;
            }
        }
        Some((patched, edit))
    }
}

/// Where [`MinimizedTable::patch`] moved the minimized entries, by rank:
/// the kept ones in runs, the fresh ones one by one. A rank in neither was
/// removed (old side) or does not exist (new side).
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Edit {
    /// Kept entries as `(old rank, new rank, length)` runs, ascending.
    pub runs: Vec<(usize, usize, usize)>,
    /// The new rank of each entry patched in, ascending.
    pub fresh: Vec<usize>,
}

/// An entry mid-minimization, labelled `L` (the table [`Action`], or `()`
/// when only the row count matters).
struct Kept<L> {
    sets: Vec<ByteSet>,
    label: L,
    priority: i32,
    /// The indices of the source entries this entry stands for, in the
    /// entries minimized.
    sources: Vec<usize>,
    /// The sum of its sources' box volumes, where the fold knows it and
    /// it fits.
    volume: Option<u128>,
}

impl<L> Kept<L> {
    /// The handle of its first source, of `entries`: where the entry sits
    /// in its level.
    fn order(&self, entries: &[TableEntry]) -> u64 {
        let first = self
            .sources
            .iter()
            .min()
            .expect("a kept entry has a source");
        entries[*first].handle.0
    }
}

/// What subsumption made of one table's rows.
struct Reduced<L> {
    /// Survivors in minimized match order.
    kept: Vec<Kept<L>>,
    /// Per kept row: it is the recorded shadow of an eliminated one.
    covering: Vec<bool>,
}

/// Drops every row (frozen match order) covered by an earlier kept one:
/// it can never be the first match, whatever either action is. Above
/// [`MINIMIZE_MAX_ENTRIES`] rows the rows come back as they are.
fn subsume<L>(rows: Vec<Kept<L>>) -> Reduced<L> {
    let mut reduced = Reduced {
        kept: Vec::with_capacity(rows.len()),
        covering: Vec::with_capacity(rows.len()),
    };
    if rows.len() > MINIMIZE_MAX_ENTRIES {
        reduced.covering = vec![false; rows.len()];
        reduced.kept = rows;
        return reduced;
    }
    for row in rows {
        match reduced.kept.iter().position(|k| covers(&k.sets, &row.sets)) {
            Some(shadow) => reduced.covering[shadow] = true,
            None => {
                reduced.kept.push(row);
                reduced.covering.push(false);
            }
        }
    }
    reduced
}

/// Whether matching within one level is independent of entry order: no
/// two overlapping boxes (`width` sets each, back to back, one per entry
/// of `level`) carry different actions. A one-action level is, by
/// inspection; otherwise every pair is tested, up to
/// [`MINIMIZE_MAX_ENTRIES`] entries.
fn order_free(level: &[TableEntry], boxes: &[ByteSet], width: usize) -> bool {
    let action = |i: usize| level[i].action;
    if level.iter().all(|e| e.action == action(0)) {
        return true;
    }
    let of = |i: usize| &boxes[i * width..][..width];
    level.len() <= MINIMIZE_MAX_ENTRIES
        && (0..level.len()).all(|i| {
            (i + 1..level.len()).all(|j| action(i) == action(j) || !overlaps(of(i), of(j)))
        })
}

/// Folds each order-free priority level of `entries` (frozen match order,
/// a ternary, range or LPM table) to a fixpoint: at each key position in
/// turn, the boxes of one action that are equal at every other position
/// become one box whose set there is the union of theirs — exactly the
/// keys they matched, so in an order-free level no lookup changes. The
/// positions go round until a whole round folds nothing. Each distinct
/// set of each position has an id, and a pass sorts the level's rows by
/// action and their ids at the other positions, so the boxes, ids and
/// source chains live in flat arrays and a fold moves none of them: a row
/// is the index of its first entry. A pass at a position where every row
/// has the same set is skipped: there it could fold only rows equal at
/// every position, which the pass of any other position folds too. The
/// rows come back in match order.
fn fold(entries: &[TableEntry]) -> Vec<Kept<Action>> {
    let n = entries.len();
    let width = entries.first().map_or(0, |e| e.spec.width());
    // Every entry's box, back to back; a row's box is its first entry's.
    // Each distinct set has an id, one numbering for every position (a
    // pass compares a position's ids only with the same position's). An
    // entry of a cross product shares most of its bytes with the one
    // before it, and takes the set and id of each byte pair it shares.
    let range = matches!(entries.first(), Some(e) if matches!(e.spec, MatchSpec::Range { .. }));
    let mut numbers: ByteSetMap<u32> =
        ByteSetMap::with_capacity_and_hasher(n.min(1024), Default::default());
    let mut intern = |set: ByteSet| {
        let next = numbers.len() as u32;
        *numbers.entry(set).or_insert(next)
    };
    let (mut sets, mut ids) = (Vec::with_capacity(n * width), Vec::with_capacity(n * width));
    for (i, e) in entries.iter().enumerate() {
        for pos in 0..width {
            let pair = ByteSet::pair(&e.spec, pos);
            if i > 0 && ByteSet::pair(&entries[i - 1].spec, pos) == pair {
                let (set, id) = (sets[sets.len() - width], ids[ids.len() - width]);
                sets.push(set);
                ids.push(id);
            } else {
                let set = ByteSet::of_pair(pair, range);
                sets.push(set);
                ids.push(intern(set));
            }
        }
    }
    // The entries of a row as a chain from its first: each entry's next
    // one (`n` ends the chain), and each row's last.
    let (mut next, mut last): (Vec<usize>, Vec<usize>) =
        ((0..n).map(|_| n).collect(), (0..n).collect());
    let mut rows = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let priority = entries[start].priority;
        let end = start + entries[start..].partition_point(|e| e.priority == priority);
        let mut live: Vec<usize> = (start..end).collect();
        let free = order_free(
            &entries[start..end],
            &sets[start * width..end * width],
            width,
        );
        let (mut pos, mut quiet) = (0, 0);
        // Each pass's group lengths and heads, in buffers kept across passes.
        let (mut groups, mut heads) = (Vec::new(), Vec::with_capacity(live.len()));
        while free && live.len() > 1 && quiet < width {
            let shared = |p: usize| {
                let first = ids[live[0] * width + p];
                live.iter().all(|&i| ids[i * width + p] == first)
            };
            if shared(pos) && !(0..width).all(shared) {
                quiet += 1;
                pos = (pos + 1) % width;
                continue;
            }
            let key = |&i: &usize| {
                let row = &ids[i * width..][..width];
                (entries[i].action, &row[..pos], &row[pos + 1..])
            };
            live.sort_unstable_by(|a, b| key(a).cmp(&key(b)).then(a.cmp(b)));
            groups.clear();
            groups.extend(live.chunk_by(|a, b| key(a) == key(b)).map(<[usize]>::len));
            heads.clear();
            let mut rest = &live[..];
            for &len in &groups {
                let (group, after) = rest.split_at(len);
                rest = after;
                let head = group[0];
                for &other in &group[1..] {
                    sets[head * width + pos] =
                        sets[head * width + pos].union(sets[other * width + pos]);
                    next[last[head]] = other;
                    last[head] = last[other];
                }
                if len > 1 {
                    ids[head * width + pos] = intern(sets[head * width + pos]);
                }
                heads.push(head);
            }
            quiet = if heads.len() < live.len() {
                1
            } else {
                quiet + 1
            };
            std::mem::swap(&mut live, &mut heads);
            pos = (pos + 1) % width;
        }
        live.sort_unstable();
        rows.extend(live.into_iter().map(|head| {
            let mut sources = Vec::new();
            let mut at = head;
            while at < n {
                sources.push(at);
                at = next[at];
            }
            // The sum of the sources' volumes, counted from their bytes.
            let volume = sources.iter().try_fold(0u128, |sum, &at| {
                let spec = &entries[at].spec;
                let sizes =
                    (0..width).map(|pos| ByteSet::pair_len(ByteSet::pair(spec, pos), range));
                sum.checked_add(volume(sizes)?)
            });
            Kept {
                sets: sets[head * width..][..width].to_vec(),
                label: entries[head].action,
                priority,
                sources,
                volume,
            }
        }));
        start = end;
    }
    rows
}

/// `entries` (frozen match order) as rows, each priority level folded. A
/// lone entry is a row of its own, as the fold would leave it.
fn rows_of(entries: &[TableEntry]) -> Vec<Kept<Action>> {
    if entries.len() > 1 {
        return fold(entries);
    }
    let rows = entries.iter().enumerate().map(|(i, e)| {
        let sets = box_of(&e.spec);
        Kept {
            volume: volume(sets.iter().map(ByteSet::len)),
            sets,
            label: e.action,
            priority: e.priority,
            sources: vec![i],
        }
    });
    rows.collect()
}

/// Minimizes `entries` (in frozen match order) for a table of `kind`:
/// each priority level folded, then subsumption over the folded entries.
/// Each level that holds a folded entry is
/// checked for disjoint sources, and every source's box is kept, for a
/// patch to subtract (see [`MinimizedTable::patch`]).
pub fn minimize(kind: MatchKind, entries: &[TableEntry]) -> MinimizedTable {
    let Reduced { kept, covering } = subsume(rows_of(entries));
    let mut min = MinimizedTable::empty(kind, entries);
    // A source no kept entry stands for was eliminated.
    for e in entries {
        min.push_source(e, SourceClass::Eliminated);
    }
    for (k, &shadow) in kept.iter().zip(&covering) {
        let class = match k.sources.len() {
            _ if shadow => SourceClass::Coverer,
            1 => SourceClass::Clean,
            _ => SourceClass::Merged,
        };
        for &at in &k.sources {
            min.classes[at] = class;
        }
    }
    min.levels = kept
        .chunk_by(|a, b| a.priority == b.priority)
        .map(|level| {
            let merged = level.iter().any(|k| k.sources.len() > 1);
            let rows = || -> Vec<_> { level.iter().map(|k| (&k.sets[..], k.volume)).collect() };
            Level {
                priority: level[0].priority,
                live: level.iter().map(|k| k.sources.len()).sum(),
                disjoint: merged.then(|| disjoint(&[], &rows())),
            }
        })
        .collect();
    let kept = kept.into_iter().map(|k| MinEntry {
        order: k.order(entries),
        sets: k.sets.into(),
        action: k.label,
        priority: k.priority,
    });
    min.entries = kept.collect();
    min
}

/// TCAM rows of the ternary form of `entries` (frozen match order,
/// labelled): subsumed entries dropped, then within each priority level
/// of ternary entries one-bit siblings merged by [`cube::merge_siblings`].
/// Nothing folds. Above [`MINIMIZE_MAX_ENTRIES`] entries, the raw count.
fn ternary_form<L: Ord + Copy>(entries: &[(&MatchSpec, L, i32)]) -> usize {
    if entries.len() > MINIMIZE_MAX_ENTRIES {
        return entries.len();
    }
    let rows = entries
        .iter()
        .enumerate()
        .map(|(i, &(spec, label, priority))| Kept {
            sets: box_of(spec),
            label,
            priority,
            sources: vec![i],
            volume: None,
        });
    let kept = subsume(rows.collect()).kept;
    kept.chunk_by(|a, b| a.priority == b.priority)
        .map(|level| {
            let cubes: Option<Vec<Cube<L>>> = level
                .iter()
                .map(|k| match entries[k.sources[0]].0 {
                    MatchSpec::Ternary { value, mask } => Some(Cube {
                        value: value.clone(),
                        mask: mask.clone(),
                        label: k.label,
                        sources: k.sources.iter().map(|&i| i as u64).collect(),
                    }),
                    _ => None,
                })
                .collect();
            cubes.map_or(level.len(), |cubes| cube::merge_siblings(cubes).len())
        })
        .sum()
}

/// TCAM rows the ternary form of a table's `entries` (in match order)
/// occupies: what [`TableUsage`](crate::resources::TableUsage) prices. Not
/// the engine's rows, which fold further.
pub fn ternary_rows(entries: &[TableEntry]) -> usize {
    let labelled: Vec<_> = entries
        .iter()
        .map(|e| (&e.spec, e.action, e.priority))
        .collect();
    ternary_form(&labelled)
}

/// TCAM rows of a pure ternary rule list installed with one uniform
/// action — the form `ControlPlane::replace_ruleset` lowers a `RuleSet`
/// into, and what the fleet budgeter admits against; the same count as
/// [`ternary_rows`]. Entries arrive as `(value, mask, priority)`; order
/// among equal priorities is verdict-neutral under a uniform action, so
/// callers may pass any stable order.
pub fn minimized_ternary_count<'a, I>(rules: I) -> usize
where
    I: IntoIterator<Item = (&'a [u8], &'a [u8], i32)>,
{
    let mut specs: Vec<(MatchSpec, i32)> = rules
        .into_iter()
        .map(|(value, mask, priority)| {
            let (value, mask) = (value.to_vec(), mask.to_vec());
            (MatchSpec::Ternary { value, mask }, priority)
        })
        .collect();
    specs.sort_by_key(|&(_, priority)| std::cmp::Reverse(priority));
    let labelled: Vec<_> = specs.iter().map(|(spec, p)| (spec, (), *p)).collect();
    ternary_form(&labelled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyLayout;
    use crate::table::Table;

    fn ternary(value: Vec<u8>, mask: Vec<u8>) -> MatchSpec {
        MatchSpec::Ternary { value, mask }
    }

    fn build(kind: MatchKind, width: usize, rows: &[(MatchSpec, Action, i32)]) -> Table {
        build_with_capacity(kind, width, rows, 256)
    }

    fn build_with_capacity(
        kind: MatchKind,
        width: usize,
        rows: &[(MatchSpec, Action, i32)],
        capacity: usize,
    ) -> Table {
        let mut t = Table::new("m", kind, KeyLayout::window(width), capacity, Action::NoOp);
        for (spec, action, priority) in rows {
            t.insert(spec.clone(), *action, *priority).unwrap();
        }
        t
    }

    #[test]
    fn siblings_fold_to_a_single_wildcard() {
        // Four values over two low bits, same mask/action/priority: the
        // whole block folds into one entry accepting the four bytes.
        let rows: Vec<_> = (0..4u8)
            .map(|v| (ternary(vec![v], vec![0xff]), Action::Drop, 1))
            .collect();
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 1);
        assert_eq!(min.entries[0].sets[..], [ByteSet::between(0, 3)]);
        assert_eq!(min.entries[0].order, 1);
        for e in t.entries() {
            assert_eq!(min.class_of(e.handle), Some(SourceClass::Merged));
        }
    }

    #[test]
    fn overlapping_different_actions_block_merging() {
        // The match-all overlaps both /8 entries with a different action,
        // so the level is order-sensitive and must stay untouched.
        let rows = [
            (ternary(vec![0x00], vec![0xff]), Action::Drop, 1),
            (ternary(vec![0x01], vec![0xff]), Action::Drop, 1),
            (ternary(vec![0x00], vec![0x00]), Action::Forward(1), 1),
        ];
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 3);
        for e in t.entries() {
            assert_eq!(min.class_of(e.handle), Some(SourceClass::Clean));
        }
    }

    #[test]
    fn subsumed_entries_are_eliminated_and_classified() {
        let rows = [
            (ternary(vec![0x10], vec![0xf0]), Action::Drop, 5),
            // Covered by the /4 above (agrees on the cared bits).
            (ternary(vec![0x17], vec![0xff]), Action::Forward(1), 1),
            (ternary(vec![0x40], vec![0xc0]), Action::Drop, 1),
        ];
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 2);
        let h = |i: usize| t.entries()[i].handle;
        // Match order: priority 5 first.
        assert_eq!(min.class_of(h(0)), Some(SourceClass::Coverer));
        assert_eq!(min.class_of(h(1)), Some(SourceClass::Eliminated));
        assert_eq!(min.class_of(h(2)), Some(SourceClass::Clean));
    }

    #[test]
    fn merged_entries_keep_the_earliest_source_position() {
        // A foreign-action entry sits between the two siblings at a lower
        // priority; the merged entry must order at the first sibling.
        let rows = [
            (ternary(vec![0x02], vec![0xff]), Action::Drop, 3),
            (ternary(vec![0x09], vec![0x0f]), Action::Forward(1), 2),
            (ternary(vec![0x03], vec![0xff]), Action::Drop, 3),
        ];
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 2);
        assert_eq!(min.entries[0].sets[..], [ByteSet::masked(0xfe, 0x02)]);
        assert_eq!(min.entries[0].order, 1);
        assert_eq!(min.entries[1].action, Action::Forward(1));
    }

    #[test]
    fn adjacent_ranges_coalesce() {
        let range = |lo: Vec<u8>, hi: Vec<u8>| MatchSpec::Range { lo, hi };
        let rows = [
            (range(vec![10, 0], vec![20, 50]), Action::Drop, 1),
            (range(vec![21, 0], vec![30, 50]), Action::Drop, 1),
            // Different second dimension: not coalescable with the above.
            (range(vec![10, 60], vec![20, 80]), Action::Drop, 1),
        ];
        let t = build(MatchKind::Range, 2, &rows);
        let min = minimize(MatchKind::Range, t.entries());
        assert_eq!(min.entries.len(), 2);
        assert_eq!(
            min.entries[0].sets[..],
            [ByteSet::between(10, 30), ByteSet::between(0, 50)]
        );
        let classes: Vec<_> = t.entries().iter().map(|e| min.class_of(e.handle)).collect();
        let (merged, clean) = (Some(SourceClass::Merged), Some(SourceClass::Clean));
        assert_eq!(classes, [merged, merged, clean]);
    }

    #[test]
    fn lpm_and_exact_only_drop_duplicates() {
        let t = build(
            MatchKind::Exact,
            1,
            &[
                (MatchSpec::Exact(vec![7]), Action::Drop, 5),
                (MatchSpec::Exact(vec![7]), Action::Forward(1), 1),
                (MatchSpec::Exact(vec![8]), Action::Drop, 1),
            ],
        );
        let min = minimize(MatchKind::Exact, t.entries());
        assert_eq!(min.entries.len(), 2);
        let eliminated = Some(SourceClass::Eliminated);
        assert_eq!(min.class_of(t.entries()[1].handle), eliminated);

        let lpm = |value: Vec<u8>, prefix_len: usize| MatchSpec::Lpm { value, prefix_len };
        let t = build(
            MatchKind::Lpm,
            1,
            &[
                (lpm(vec![0b1010_0000], 4), Action::Drop, 0),
                // Same masked /4 prefix, junk in the uncared bits.
                (lpm(vec![0b1010_1111], 4), Action::Forward(1), 0),
                (lpm(vec![0b1100_0000], 4), Action::Drop, 0),
            ],
        );
        let min = minimize(MatchKind::Lpm, t.entries());
        assert_eq!(min.entries.len(), 2);
        assert_eq!(min.class_of(t.entries()[1].handle), eliminated);
    }

    #[test]
    fn coverer_class_survives_the_ternary_merge_pass() {
        // h1 shadows h4 (the same box one level down). Its level also
        // holds two boxes that fold together (h2, h3: equal on byte 1,
        // adjacent on byte 0), so the fold rebuilds it; h1 lines up with
        // neither and comes back standing for itself alone. Regression:
        // a rebuild used to drop the covering flag, letting the
        // incremental compiler patch h1's removal without resurrecting h4.
        let rows = [
            (ternary(vec![0xc0, 0x00], vec![0xf0, 0xff]), Action::Drop, 1),
            (ternary(vec![0x02, 0x11], vec![0xff, 0xff]), Action::Drop, 1),
            (ternary(vec![0x03, 0x11], vec![0xff, 0xff]), Action::Drop, 1),
            (ternary(vec![0xc0, 0x00], vec![0xf0, 0xff]), Action::Drop, 0),
        ];
        let t = build(MatchKind::Ternary, 2, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        let handles: Vec<_> = t.entries().iter().map(|e| e.handle).collect();
        assert_eq!(min.entries.len(), 2);
        assert_eq!(min.class_of(handles[0]), Some(SourceClass::Coverer));
        assert_eq!(min.class_of(handles[1]), Some(SourceClass::Merged));
        assert_eq!(min.class_of(handles[2]), Some(SourceClass::Merged));
        assert_eq!(min.class_of(handles[3]), Some(SourceClass::Eliminated));
    }

    #[test]
    fn a_folded_coverer_classifies_every_source_it_stands_for() {
        // h1 and h2 fold into 0x00..=0x1f, which shadows h3 one level down:
        // removing either could resurrect h3, so neither is merely merged.
        let rows = [
            (ternary(vec![0x00], vec![0xf0]), Action::Drop, 2),
            (ternary(vec![0x10], vec![0xf0]), Action::Drop, 2),
            (ternary(vec![0x05], vec![0xff]), Action::Forward(1), 1),
        ];
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 1);
        let classes: Vec<_> = t.entries().iter().map(|e| min.class_of(e.handle)).collect();
        let (coverer, eliminated) = (Some(SourceClass::Coverer), Some(SourceClass::Eliminated));
        assert_eq!(classes, [coverer, coverer, eliminated]);
    }

    #[test]
    fn a_subtraction_leaves_disjoint_boxes_of_exactly_the_difference() {
        let cases = [
            (
                [ByteSet::between(0, 99), ByteSet::between(10, 200)],
                [ByteSet::between(50, 60), ByteSet::between(0, 20)],
            ),
            (
                [ByteSet::masked(0xf0, 0x30), ByteSet::ANY],
                [ByteSet::masked(0xff, 0x37), ByteSet::masked(0x01, 0x01)],
            ),
            (
                [ByteSet::between(5, 9), ByteSet::between(5, 9)],
                [ByteSet::between(0, 255), ByteSet::between(7, 7)],
            ),
        ];
        for (a, b) in cases {
            let mut pieces = Vec::new();
            subtract(&a, &b, &mut pieces);
            assert!(pieces.len() <= 2, "{} pieces", pieces.len());
            for k0 in 0..=255u8 {
                for k1 in 0..=255u8 {
                    let within = |x: &[ByteSet]| x[0].contains(k0) && x[1].contains(k1);
                    let hits = pieces.iter().filter(|p| within(p)).count();
                    let expected = usize::from(within(&a) && !within(&b));
                    assert_eq!(hits, expected, "{a:?} - {b:?} at [{k0}, {k1}]");
                }
            }
        }
    }

    #[test]
    fn the_cap_bounds_the_count_not_the_fold() {
        // One past the cap, consecutive 16-bit values under a full mask:
        // the TCAM count stays raw, while the fold makes two boxes of them.
        // Byte 0 folds first: low byte 0 under high bytes 0..=12, each
        // other low byte under 0..=11; then those join on byte 1.
        let rows: Vec<_> = (0..=MINIMIZE_MAX_ENTRIES as u16)
            .map(|i| {
                (
                    ternary(i.to_be_bytes().to_vec(), vec![0xff; 2]),
                    Action::Drop,
                    1,
                )
            })
            .collect();
        let t = build_with_capacity(MatchKind::Ternary, 2, &rows, rows.len());
        assert_eq!(ternary_rows(t.entries()), rows.len());
        let min = minimize(MatchKind::Ternary, t.entries());
        let sets: Vec<_> = min.entries.iter().map(|e| e.sets.to_vec()).collect();
        assert_eq!(
            sets,
            [
                vec![ByteSet::between(0, 12), ByteSet::between(0, 0)],
                vec![ByteSet::between(0, 11), ByteSet::between(1, 255)],
            ]
        );
    }

    #[test]
    fn minimized_ternary_count_matches_table_minimization() {
        let values: Vec<(Vec<u8>, Vec<u8>, i32)> =
            (0..4u8).map(|v| (vec![v], vec![0xff], 1)).collect();
        let n = minimized_ternary_count(
            values
                .iter()
                .map(|(v, m, p)| (v.as_slice(), m.as_slice(), *p)),
        );
        assert_eq!(n, 1);
        let rows: Vec<_> = values
            .iter()
            .map(|(v, m, p)| (ternary(v.clone(), m.clone()), Action::Drop, *p))
            .collect();
        assert_eq!(
            ternary_rows(build(MatchKind::Ternary, 1, &rows).entries()),
            n
        );
    }
}
