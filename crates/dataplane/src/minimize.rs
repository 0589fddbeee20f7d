//! Lowering-time table minimization: every entry becomes a box — one
//! [`ByteSet`] per key position — each order-free priority level of a
//! ternary, range or LPM table is folded, and subsumed entries are
//! eliminated, when a frozen [`Table`](crate::table::Table) is compiled
//! into a [`CompiledTable`](crate::compiled::CompiledTable).
//!
//! The reference semantics are [`Table::peek`](crate::table::Table::peek):
//! the winner is the first
//! matching entry in frozen match order (priority descending, insertion
//! order breaking ties). Minimization rewrites the entry list without
//! changing any lookup's `(action, winning priority)`:
//!
//! * **Fold** (wildcard kinds): within one priority level that is
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
//! and it is a coverer when it is an unmerged survivor whose source the
//! subsumption pass recorded as a shadow — so there is no flag a merge
//! could lose.
//!
//! Merged entries keep the *earliest* source position (the minimum source
//! handle) as their order key, so the minimized list replays the source
//! table's relative order level by level. That order preservation is what
//! makes incremental patching
//! ([`CompiledTable::recompile`](crate::compiled::CompiledTable::recompile))
//! sound: an added entry always lands at the end of its priority level in
//! both the source table and the minimized list, verbatim — a box of its
//! own, not folded.
//!
//! Every source handle is classified ([`SourceClass`]) by how the last
//! full minimization treated it; the incremental compiler patches entry
//! additions and removals of [`SourceClass::Clean`]/
//! [`SourceClass::Eliminated`] handles in place and falls back to a full
//! recompile for anything entangled in a fold or covering relation.

use crate::action::Action;
use crate::byteset::{ByteSet, ByteSetMap};
use crate::table::{EntryHandle, MatchKind, MatchSpec, TableEntry};
use p4guard_rules::cube::{self, Cube};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Above this many folded entries subsumption is skipped (the pass is
/// quadratic), and so is the overlap test that tells whether a level with
/// more than one action is order-free; the TCAM count above this many
/// source entries is the raw count.
pub const MINIMIZE_MAX_ENTRIES: usize = 3072;

/// How the last full minimization treated one source handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceClass {
    /// Kept one-to-one: not merged, and covering no eliminated entry.
    /// Removing it just deletes its minimized entry.
    Clean,
    /// Folded into a wider entry with at least one other source.
    Merged,
    /// Dropped because an earlier kept entry covers it; removing it is a
    /// no-op on the minimized list.
    Eliminated,
    /// Kept, and the recorded shadow of at least one eliminated entry;
    /// removing it could resurrect what it shadowed.
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

/// One minimized entry, in minimized match order.
#[derive(Debug, Clone, PartialEq)]
pub struct MinEntry {
    /// What the entry matches: per key position, the byte values it
    /// accepts — one each for an exact key, a union where entries folded.
    pub sets: Vec<ByteSet>,
    /// Action on hit.
    pub action: Action,
    /// Effective priority (identical to every source it stands for).
    pub priority: i32,
    /// Order key within the priority level: the smallest source handle
    /// this entry stands for. Unmerged entries carry their own handle.
    pub order: u64,
}

impl MinEntry {
    /// A source entry kept as it is: what a patch adds.
    pub fn verbatim(entry: &TableEntry) -> MinEntry {
        MinEntry {
            sets: box_of(&entry.spec),
            action: entry.action,
            priority: entry.priority,
            order: entry.handle.0,
        }
    }
}

/// Entries per chunk: a full minimization packs its list into chunks this
/// long, and a patch packs the entries it adds the same way.
const CHUNK: usize = 64;

/// The minimized entries of one table, in minimized match order.
///
/// The entries live in chunks of up to 64, each behind one `Arc`, and the
/// list is a sequence of pieces, each a range of one chunk. A patch never
/// copies a kept entry: a piece it keeps whole is shared as it is, a piece
/// a removal or an insertion cuts becomes the pieces of the same chunk on
/// either side of the cut, and the entries it adds go into new chunks. So
/// a patch, and the drop of a version, touch one reference count per
/// piece, not per entry. Beside the pieces, flat by rank, each entry's
/// priority and order key: all the patch walk reads.
///
/// A piece keeps its whole chunk alive. Cuts add pieces, so a list that
/// would hold more than [`MinEntries::max_pieces`] is packed afresh
/// instead, into new chunks: that bounds both the pieces a patch copies
/// and the removed entries the chunks keep.
#[derive(Debug, Clone, Default)]
pub struct MinEntries {
    pieces: Vec<Piece>,
    /// Each rank's [`MinEntry::priority`].
    priorities: Vec<i32>,
    /// Each rank's [`MinEntry::order`].
    orders: Vec<u64>,
}

/// Consecutive entries of one chunk.
#[derive(Debug, Clone)]
struct Piece {
    chunk: Arc<[MinEntry]>,
    range: Range<usize>,
    /// The rank of the piece's first entry in its list.
    start: usize,
}

impl Piece {
    fn entries(&self) -> &[MinEntry] {
        &self.chunk[self.range.clone()]
    }
}

impl MinEntries {
    /// `entries`, already in minimized match order, packed into chunks.
    pub(crate) fn new(entries: Vec<MinEntry>) -> MinEntries {
        let (priorities, orders) = entries.iter().map(|e| (e.priority, e.order)).unzip();
        let mut packer = Packer::new(MinEntries {
            pieces: Vec::with_capacity(entries.len().div_ceil(CHUNK)),
            priorities,
            orders,
        });
        let mut entries = entries.into_iter();
        while entries.len() > 0 {
            packer.push(entries.by_ref().take(CHUNK).collect());
        }
        packer.list
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// Returns `true` when the list holds no entry.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// The entries in minimized match order, by rank.
    pub fn iter(&self) -> impl Iterator<Item = &MinEntry> {
        self.pieces.iter().flat_map(Piece::entries)
    }

    /// The priority of the entry of `rank`, read without touching the
    /// entry.
    pub fn priority(&self, rank: usize) -> Option<i32> {
        self.priorities.get(rank).copied()
    }

    /// The pieces in order, each as its chunk and the range of the chunk
    /// it covers: for tests of what a patch shares.
    #[doc(hidden)]
    pub fn pieces(&self) -> impl Iterator<Item = (&Arc<[MinEntry]>, Range<usize>)> {
        self.pieces.iter().map(|p| (&p.chunk, p.range.clone()))
    }

    /// The most pieces a list of `len` entries holds: a sixteenth of its
    /// length, plus four.
    #[doc(hidden)]
    pub fn max_pieces(len: usize) -> usize {
        4 + len / 16
    }

    /// The index of the piece holding `rank`.
    fn piece_of(&self, rank: usize) -> usize {
        self.pieces.partition_point(|p| p.start <= rank) - 1
    }

    /// This list with `edit` applied, `fresh` being the entries patched in
    /// at `edit.fresh`'s ranks, in rank order: each run of kept entries is
    /// the pieces it spans, cut to it; each stretch of fresh entries is
    /// packed into new chunks; a piece cut from a chunk merges with the
    /// piece before it where the two meet in that chunk again. Past
    /// [`MinEntries::max_pieces`], the result is packed afresh.
    fn edited(&self, edit: &Edit, fresh: &[&TableEntry]) -> MinEntries {
        let len = edit.runs.iter().map(|&(_, _, run)| run).sum::<usize>() + edit.fresh.len();
        let mut packer = Packer::new(MinEntries {
            pieces: Vec::with_capacity(self.pieces.len() + 2),
            priorities: Vec::with_capacity(len),
            orders: Vec::with_capacity(len),
        });
        // `fresh[added..]` are still to come.
        let mut added = 0;
        for &(from, to, run) in &edit.runs {
            let before = edit.fresh[added..].partition_point(|&rank| rank < to);
            packer.add(&fresh[added..added + before]);
            added += before;
            let kept = from..from + run;
            let list = &mut packer.list;
            list.priorities
                .extend_from_slice(&self.priorities[kept.clone()]);
            list.orders.extend_from_slice(&self.orders[kept.clone()]);
            for piece in &self.pieces[self.piece_of(from)..] {
                if piece.start >= kept.end {
                    break;
                }
                // The kept ranks this piece holds, as indices into its chunk.
                let (lo, hi) = (
                    kept.start.max(piece.start),
                    kept.end.min(piece.start + piece.range.len()),
                );
                let at = piece.range.start;
                packer.share(&piece.chunk, lo - piece.start + at..hi - piece.start + at);
            }
        }
        packer.add(&fresh[added..]);
        let list = packer.list;
        if list.pieces.len() > MinEntries::max_pieces(len) {
            return MinEntries::new(list.iter().cloned().collect());
        }
        list
    }
}

impl std::ops::Index<usize> for MinEntries {
    type Output = MinEntry;

    /// The entry of `rank`; past the end it panics, as a slice does.
    fn index(&self, rank: usize) -> &MinEntry {
        let piece = &self.pieces[self.piece_of(rank)];
        &piece.entries()[rank - piece.start]
    }
}

/// A list in the making, its pieces appended in order; the caller fills
/// its flat arrays for the entries it shares.
struct Packer {
    list: MinEntries,
    /// Entries in `list.pieces`.
    len: usize,
}

impl Packer {
    fn new(list: MinEntries) -> Packer {
        Packer { list, len: 0 }
    }

    /// Appends `chunk` whole.
    fn push(&mut self, chunk: Arc<[MinEntry]>) {
        let (range, start) = (0..chunk.len(), self.len);
        self.len += chunk.len();
        self.list.pieces.push(Piece {
            chunk,
            range,
            start,
        });
    }

    /// Appends `entries` verbatim, packed into new chunks of [`CHUNK`].
    fn add(&mut self, entries: &[&TableEntry]) {
        for part in entries.chunks(CHUNK) {
            let list = &mut self.list;
            list.priorities.extend(part.iter().map(|e| e.priority));
            list.orders.extend(part.iter().map(|e| e.handle.0));
            self.push(part.iter().map(|e| MinEntry::verbatim(e)).collect());
        }
    }

    /// Appends `range` of `chunk`, merged into the last piece where that
    /// one ends in the same chunk just where `range` starts.
    fn share(&mut self, chunk: &Arc<[MinEntry]>, range: Range<usize>) {
        self.len += range.len();
        match self.list.pieces.last_mut() {
            Some(last) if Arc::ptr_eq(&last.chunk, chunk) && last.range.end == range.start => {
                last.range.end = range.end;
            }
            _ => self.list.pieces.push(Piece {
                chunk: Arc::clone(chunk),
                start: self.len - range.len(),
                range,
            }),
        }
    }
}

/// The minimized form of one table's entry list plus the bookkeeping the
/// incremental compiler needs: the source `(handle, action)` fingerprint
/// (specs and priorities are immutable per handle, so this detects every
/// possible edit of one [`Table`](crate::table::Table)) and a per-handle
/// [`SourceClass`].
#[derive(Debug, Clone)]
pub struct MinimizedTable {
    /// Minimized entries sorted by (priority descending, order ascending),
    /// in chunks shared by every version patched from the one that made
    /// them.
    pub entries: MinEntries,
    /// `(handle, action)` per source entry, in source match order.
    pub source: Vec<(EntryHandle, Action)>,
    /// Per-handle classification, sorted by handle for binary search.
    classes: Vec<(EntryHandle, SourceClass)>,
    /// Source entries dropped by subsumption.
    pub eliminated: usize,
    /// Source entries folded away (sources minus survivors).
    pub merged_away: usize,
}

impl MinimizedTable {
    /// The classification of `handle` from the last full minimization
    /// (patched-in entries classify as [`SourceClass::Clean`]).
    pub fn class_of(&self, handle: EntryHandle) -> Option<SourceClass> {
        self.classes
            .binary_search_by_key(&handle, |&(h, _)| h)
            .ok()
            .map(|i| self.classes[i].1)
    }

    /// The minimized form of `entries` — the same table's entries now, in
    /// match order — patched from this one without re-minimizing, or
    /// `None` where a patch would be unsound and only a full minimization
    /// will do: an action modified in place, or a removed handle that was
    /// merged or covers an eliminated one.
    ///
    /// One walk over this form's source and `entries` tells survivors,
    /// removals and additions apart, and makes the new source. It relies on three facts and returns
    /// `None` where it finds one broken: both lists are in match order,
    /// surviving entries keep their relative order, and a handle added
    /// since exceeds every handle this form knows — so an addition lands
    /// at the end of its priority level here as in the table. A second
    /// walk, over the minimized entries' flat priorities and order keys
    /// (never the entries), drops the removed clean entries and places the
    /// added ones: O(entries + changes × log entries). The [`Edit`] beside
    /// the patched form says where every minimized entry went, so the
    /// engine can be patched the same way, and the patched list keeps the
    /// chunks of this one, cut where the edit cuts them (see
    /// [`MinEntries`]).
    #[doc(hidden)]
    pub fn patch(&self, entries: &[TableEntry]) -> Option<(MinimizedTable, Edit)> {
        let newest = self.classes.last().map_or(0, |&(h, _)| h.0);
        let mut old = self.source.iter();
        let mut source = Vec::with_capacity(entries.len());
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for e in entries {
            source.push((e.handle, e.action));
            if e.handle.0 > newest {
                added.push(e);
                continue;
            }
            // A surviving handle: every source entry ahead of it is gone.
            loop {
                let &(handle, action) = old.next()?;
                if handle == e.handle {
                    if action != e.action {
                        return None;
                    }
                    break;
                }
                removed.push(handle);
            }
        }
        removed.extend(old.map(|&(h, _)| h));

        // Removed clean entries, in source order — which is also their
        // order in the minimized list, since each carries its own handle
        // as its order key at its own priority.
        let mut dropped = Vec::new();
        let mut eliminated = self.eliminated;
        for &h in &removed {
            match self.class_of(h)? {
                SourceClass::Clean => dropped.push(h.0),
                SourceClass::Eliminated => eliminated -= 1,
                SourceClass::Merged | SourceClass::Coverer => return None,
            }
        }

        // From change to change over the flat order keys and priorities: a
        // dropped entry is found by its order key, and an added one goes
        // before the first entry of lower priority (at a dropped one, after
        // it). Between two changes, one run of kept entries: a drop moves
        // the old rank on alone and an addition the new one, so no run
        // continues the one before it.
        let (orders, priorities) = (&self.entries.orders, &self.entries.priorities);
        let n = orders.len();
        let find = |from: usize, order: u64| {
            let at = orders[from..].iter().position(|&o| o == order)?;
            Some(from + at)
        };
        let place = |from: usize, priority: i32| {
            from + priorities[from..]
                .iter()
                .position(|&p| p < priority)
                .unwrap_or(n - from)
        };
        let mut dropped = dropped.into_iter();
        let mut fresh = added.iter();
        let mut next_drop = match dropped.next() {
            Some(order) => Some(find(0, order)?),
            None => None,
        };
        let mut next_fresh = fresh.next().map(|e| place(0, e.priority));
        let mut edit = Edit::default();
        let (mut rank, mut len) = (0, 0);
        loop {
            let stop = next_drop
                .unwrap_or(n)
                .min(next_fresh.map_or(n, |at| at.max(rank)));
            if stop > rank {
                edit.runs.push((rank, len, stop - rank));
            }
            len += stop - rank;
            rank = stop;
            if next_drop == Some(rank) {
                rank += 1;
                next_drop = match dropped.next() {
                    Some(order) => Some(find(rank, order)?),
                    None => None,
                };
            } else if next_fresh.is_some_and(|at| at <= rank) {
                edit.fresh.push(len);
                len += 1;
                next_fresh = fresh.next().map(|e| place(rank, e.priority));
            } else {
                break;
            }
        }

        removed.sort_unstable();
        let mut classes = Vec::with_capacity(self.classes.len() + added.len());
        let mut from = 0;
        for h in &removed {
            let at = self.classes.binary_search_by_key(h, |&(h, _)| h).ok()?;
            classes.extend_from_slice(&self.classes[from..at]);
            from = at + 1;
        }
        classes.extend_from_slice(&self.classes[from..]);
        let tail = classes.len();
        classes.extend(added.iter().map(|e| (e.handle, SourceClass::Clean)));
        classes[tail..].sort_unstable_by_key(|&(h, _)| h);

        let patched = MinimizedTable {
            entries: self.entries.edited(&edit, &added),
            source,
            classes,
            eliminated,
            merged_away: self.merged_away,
        };
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
    /// Source handles this entry stands for; see [`Cube::sources`].
    sources: Vec<u64>,
}

impl<L> Kept<L> {
    /// The smallest source: where the entry sits in its level.
    fn order(&self) -> u64 {
        *self
            .sources
            .iter()
            .min()
            .expect("a kept entry has a source")
    }
}

/// What subsumption made of one table's rows.
struct Reduced<L> {
    /// Survivors in minimized match order.
    kept: Vec<Kept<L>>,
    /// Sources dropped by subsumption.
    eliminated: Vec<u64>,
    /// Sources of the kept rows that shadow an eliminated one.
    shadows: BTreeSet<u64>,
}

/// Drops every row (frozen match order) covered by an earlier kept one:
/// it can never be the first match, whatever either action is. Above
/// [`MINIMIZE_MAX_ENTRIES`] rows the rows come back as they are.
fn subsume<L>(rows: Vec<Kept<L>>) -> Reduced<L> {
    let mut reduced = Reduced {
        kept: Vec::with_capacity(rows.len()),
        eliminated: Vec::new(),
        shadows: BTreeSet::new(),
    };
    if rows.len() > MINIMIZE_MAX_ENTRIES {
        reduced.kept = rows;
        return reduced;
    }
    for row in rows {
        match reduced.kept.iter().find(|k| covers(&k.sets, &row.sets)) {
            Some(shadow) => {
                reduced.shadows.insert(shadow.sources[0]);
                reduced.eliminated.extend(row.sources);
            }
            None => reduced.kept.push(row),
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
/// is the index of its first entry. The rows come back in match order.
fn fold(entries: &[TableEntry]) -> Vec<Kept<Action>> {
    let n = entries.len();
    let width = entries.first().map_or(0, |e| e.spec.width());
    // Every entry's box, back to back; a row's box is its first entry's.
    let mut sets: Vec<ByteSet> = Vec::with_capacity(n * width);
    for e in entries {
        sets.extend((0..width).map(|pos| ByteSet::of(&e.spec, pos)));
    }
    let mut numbers: Vec<ByteSetMap<u32>> = vec![ByteSetMap::default(); width];
    let mut intern = |pos: usize, set: ByteSet| {
        let next = numbers[pos].len() as u32;
        *numbers[pos].entry(set).or_insert(next)
    };
    let mut ids: Vec<u32> = (0..n * width)
        .map(|at| intern(at % width, sets[at]))
        .collect();
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
        while free && live.len() > 1 && quiet < width {
            let key = |&i: &usize| {
                let row = &ids[i * width..][..width];
                (entries[i].action, &row[..pos], &row[pos + 1..])
            };
            live.sort_by(|a, b| key(a).cmp(&key(b)).then(a.cmp(b)));
            let groups: Vec<usize> = live
                .chunk_by(|a, b| key(a) == key(b))
                .map(<[usize]>::len)
                .collect();
            let mut heads = Vec::with_capacity(groups.len());
            let mut rest = &live[..];
            for len in groups {
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
                    ids[head * width + pos] = intern(pos, sets[head * width + pos]);
                }
                heads.push(head);
            }
            quiet = if heads.len() < live.len() {
                1
            } else {
                quiet + 1
            };
            live = heads;
            pos = (pos + 1) % width;
        }
        live.sort_unstable();
        rows.extend(live.into_iter().map(|head| {
            let mut sources = Vec::new();
            let mut at = head;
            while at < n {
                sources.push(entries[at].handle.0);
                at = next[at];
            }
            Kept {
                sets: sets[head * width..][..width].to_vec(),
                label: entries[head].action,
                priority,
                sources,
            }
        }));
        start = end;
    }
    rows
}

/// Minimizes `entries` (in frozen match order) for a table of `kind`:
/// each priority level of a wildcard kind folded, then subsumption over
/// the folded entries. An exact table's keys do not fold: its engine
/// hashes one key per entry.
pub fn minimize(kind: MatchKind, entries: &[TableEntry]) -> MinimizedTable {
    let rows = match kind {
        MatchKind::Exact => entries
            .iter()
            .map(|e| Kept {
                sets: box_of(&e.spec),
                label: e.action,
                priority: e.priority,
                sources: vec![e.handle.0],
            })
            .collect(),
        _ => fold(entries),
    };
    let Reduced {
        kept,
        eliminated,
        shadows,
    } = subsume(rows);

    let mut classes: Vec<(EntryHandle, SourceClass)> = Vec::with_capacity(entries.len());
    for k in &kept {
        let class = match k.sources[..] {
            [only] if shadows.contains(&only) => SourceClass::Coverer,
            [_] => SourceClass::Clean,
            _ => SourceClass::Merged,
        };
        classes.extend(k.sources.iter().map(|&h| (EntryHandle(h), class)));
    }
    classes.extend(
        eliminated
            .iter()
            .map(|&h| (EntryHandle(h), SourceClass::Eliminated)),
    );
    classes.sort_unstable_by_key(|&(h, _)| h);

    MinimizedTable {
        merged_away: kept.iter().map(|k| k.sources.len() - 1).sum(),
        entries: MinEntries::new(
            kept.into_iter()
                .map(|k| MinEntry {
                    order: k.order(),
                    sets: k.sets,
                    action: k.label,
                    priority: k.priority,
                })
                .collect(),
        ),
        source: entries.iter().map(|e| (e.handle, e.action)).collect(),
        classes,
        eliminated: eliminated.len(),
    }
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
            sources: vec![i as u64],
        });
    let kept = subsume(rows.collect()).kept;
    kept.chunk_by(|a, b| a.priority == b.priority)
        .map(|level| {
            let cubes: Option<Vec<Cube<L>>> = level
                .iter()
                .map(|k| match entries[k.sources[0] as usize].0 {
                    MatchSpec::Ternary { value, mask } => Some(Cube {
                        value: value.clone(),
                        mask: mask.clone(),
                        label: k.label,
                        sources: k.sources.clone(),
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
        assert_eq!(min.entries[0].sets, [ByteSet::between(0, 3)]);
        assert_eq!(min.entries[0].order, 1);
        assert_eq!(min.merged_away, 3);
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
        assert_eq!(min.merged_away, 0);
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
        assert_eq!(min.eliminated, 1);
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
        assert_eq!(min.entries[0].sets, [ByteSet::masked(0xfe, 0x02)]);
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
            min.entries[0].sets,
            [ByteSet::between(10, 30), ByteSet::between(0, 50)]
        );
        assert_eq!(min.merged_away, 1);
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
        assert_eq!(min.eliminated, 1);

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
        assert_eq!(min.eliminated, 1);
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
        let sets: Vec<_> = min.entries.iter().map(|e| e.sets.clone()).collect();
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
