//! Lowering-time table minimization: subsumed-entry elimination, ternary
//! sibling merging and range coalescing, applied when a frozen
//! [`Table`](crate::table::Table) is compiled into a
//! [`CompiledTable`](crate::compiled::CompiledTable).
//!
//! The reference semantics are [`Table::peek`](crate::table::Table::peek):
//! the winner is the first
//! matching entry in frozen match order (priority descending, insertion
//! order breaking ties). Minimization rewrites the entry list without
//! changing any lookup's `(action, winning priority)`:
//!
//! * **Subsumption** (all kinds): an entry whose match set is contained in
//!   an earlier kept entry's match set can never be the first match, so it
//!   is dropped — regardless of either action, a shadowed entry is dead.
//! * **Sibling merging** (ternary): within one priority level that is
//!   *order-free* (no two overlapping entries carry different actions),
//!   two entries with the same mask and action whose values differ in a
//!   single cared bit are exactly the union of a one-bit-wider wildcard,
//!   so they collapse into it. Runs to a fixpoint, so whole subtrees of
//!   adjacent decision-tree leaves fold together.
//! * **Interval coalescing** (range): within an order-free level, two
//!   same-action boxes equal on every byte but one, whose intervals on
//!   that byte touch or overlap, are exactly their union box.
//!
//! # One core, two drivers
//!
//! Which ternary entries fold together is decided in one place,
//! [`p4guard_rules::cube`] — the same sweep `RuleSet::optimize` runs.
//! This module is a *driver* over it and keeps only what has no
//! counterpart there:
//!
//! * the kind-generic, handle-aware driver itself ([`minimize`]): the
//!   subsumption loop over [`spec_covers`] and the split into priority
//!   levels, with ternary levels handed to the core labelled by
//!   [`Action`] and sourced by entry handle;
//! * range coalescing and exact/LPM subsumption, which the rule compiler
//!   never needs;
//! * [`SourceClass`], `MinimizedTable::patch` and the incremental
//!   [`CompiledTable::recompile`](crate::compiled::CompiledTable::recompile):
//!   they *consume* the classification, they do not decide merges;
//! * [`MINIMIZE_MAX_ENTRIES`], lowering's publish-time bound on the
//!   quadratic subsumption pass. It lives here, not in the core, because
//!   it is a property of publishing (the fleet budgeter must see the same
//!   bound through [`minimized_ternary_count`]), not of the rule compiler,
//!   whose `optimize` has no such cap.
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
//! both the source table and the minimized list.
//!
//! Every source handle is classified ([`SourceClass`]) by how the last
//! full minimization treated it; the incremental compiler patches entry
//! additions and removals of [`SourceClass::Clean`]/
//! [`SourceClass::Eliminated`] handles in place and falls back to a full
//! recompile for anything entangled in a merge or covering relation.

use crate::action::Action;
use crate::table::{prefix_mask, EntryHandle, MatchKind, MatchSpec, TableEntry};
use p4guard_rules::cube::{self, Cube};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Above this source entry count minimization is skipped (the subsumption
/// pass is quadratic); the table compiles one engine row per source entry
/// and every handle classifies as [`SourceClass::Clean`].
pub const MINIMIZE_MAX_ENTRIES: usize = 3072;

/// How the last full minimization treated one source handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceClass {
    /// Kept one-to-one: not merged, and covering no eliminated entry.
    /// Removing it just deletes its minimized entry.
    Clean,
    /// Folded into a wider merged entry with at least one sibling.
    Merged,
    /// Dropped because an earlier kept entry covers it; removing it is a
    /// no-op on the minimized list.
    Eliminated,
    /// Kept, and the recorded shadow of at least one eliminated entry;
    /// removing it could resurrect what it shadowed.
    Coverer,
}

/// One minimized entry, in minimized match order.
#[derive(Debug, Clone, PartialEq)]
pub struct MinEntry {
    /// The (possibly widened) match spec.
    pub spec: MatchSpec,
    /// Action on hit.
    pub action: Action,
    /// Effective priority (identical to every source it stands for).
    pub priority: i32,
    /// Order key within the priority level: the smallest source handle
    /// this entry stands for. Unmerged entries carry their own handle.
    pub order: u64,
}

impl MinEntry {
    /// A source entry kept as it is.
    fn verbatim(entry: &TableEntry) -> MinEntry {
        MinEntry {
            spec: entry.spec.clone(),
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
    /// Source entries folded away by merging (sources minus survivors).
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

/// A kept entry mid-minimization, labelled `L` (the table [`Action`], or
/// `()` when only the row count matters).
struct Kept<L> {
    spec: MatchSpec,
    label: L,
    priority: i32,
    /// Source handles this entry stands for; see [`Cube::sources`].
    sources: Vec<u64>,
}

/// What the two passes made of one table's rows.
struct Reduced<L> {
    /// Survivors in minimized match order.
    kept: Vec<Kept<L>>,
    /// Sources dropped by subsumption.
    eliminated: Vec<u64>,
    /// Sources of the kept rows that shadow an eliminated one.
    shadows: BTreeSet<u64>,
}

/// Runs subsumption then per-level merging over `rows` (frozen match
/// order, one source each). Above [`MINIMIZE_MAX_ENTRIES`] the rows come
/// back one-to-one.
fn reduce<L: Ord + Copy>(kind: MatchKind, rows: Vec<Kept<L>>) -> Reduced<L> {
    let mut reduced = Reduced {
        kept: Vec::with_capacity(rows.len()),
        eliminated: Vec::new(),
        shadows: BTreeSet::new(),
    };
    if rows.len() > MINIMIZE_MAX_ENTRIES {
        reduced.kept = rows;
        return reduced;
    }
    // Pass 1 — subsumption: an entry covered by an earlier kept entry can
    // never be the first match, whatever either action is.
    for row in rows {
        match reduced
            .kept
            .iter()
            .find(|k| spec_covers(&k.spec, &row.spec))
        {
            Some(shadow) => {
                reduced.shadows.insert(shadow.sources[0]);
                reduced.eliminated.extend(row.sources);
            }
            None => reduced.kept.push(row),
        }
    }
    // Pass 2 — per-level merging for the widenable kinds.
    let merge_level = match kind {
        MatchKind::Ternary => merge_cube_level,
        MatchKind::Range => merge_range_level,
        MatchKind::Exact | MatchKind::Lpm => return reduced,
    };
    let mut levels = std::mem::take(&mut reduced.kept).into_iter().peekable();
    while let Some(first) = levels.next() {
        let mut level = vec![first];
        while let Some(k) = levels.next_if(|k| k.priority == level[0].priority) {
            level.push(k);
        }
        reduced.kept.extend(if level.len() < 2 {
            level
        } else {
            merge_level(level)
        });
    }
    reduced
}

/// Minimizes `entries` (in frozen match order) for a table of `kind`.
pub fn minimize(kind: MatchKind, entries: &[TableEntry]) -> MinimizedTable {
    let rows = entries
        .iter()
        .map(|e| Kept {
            spec: e.spec.clone(),
            label: e.action,
            priority: e.priority,
            sources: vec![e.handle.0],
        })
        .collect();
    let Reduced {
        kept,
        eliminated,
        shadows,
    } = reduce(kind, rows);

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
                    order: *k.sources.iter().min().expect("a kept entry has a source"),
                    spec: k.spec,
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

/// Hands one ternary level to the shared core ([`cube::merge_siblings`])
/// and converts the survivors back, in order of their smallest source. A
/// level holding anything but ternary specs is returned unmerged.
fn merge_cube_level<L: Ord + Copy>(level: Vec<Kept<L>>) -> Vec<Kept<L>> {
    let priority = level[0].priority;
    let cubes: Option<Vec<Cube<L>>> = level
        .iter()
        .map(|k| match &k.spec {
            MatchSpec::Ternary { value, mask } => Some(Cube {
                value: value.clone(),
                mask: mask.clone(),
                label: k.label,
                sources: k.sources.clone(),
            }),
            _ => None,
        })
        .collect();
    let Some(cubes) = cubes else { return level };
    cube::merge_siblings(cubes)
        .into_iter()
        .map(|c| Kept {
            spec: MatchSpec::Ternary {
                value: c.value,
                mask: c.mask,
            },
            label: c.label,
            priority,
            sources: c.sources,
        })
        .collect()
}

/// Returns `true` when no two range boxes of the level that overlap carry
/// different labels — the condition under which relative order inside the
/// level cannot affect any lookup's action, so union-preserving rewrites
/// are free.
fn range_level_order_free<L: PartialEq>(level: &[Kept<L>]) -> bool {
    level.iter().enumerate().all(|(i, a)| {
        level[i + 1..]
            .iter()
            .all(|b| a.label == b.label || !range_overlaps(&a.spec, &b.spec))
    })
}

/// Coalesces adjacent/overlapping same-label range boxes differing in a
/// single byte dimension, within an order-free level, to a fixpoint. The
/// union stays at the earlier box's position, so the level stays sorted
/// by smallest source.
fn merge_range_level<L: Ord + Copy>(level: Vec<Kept<L>>) -> Vec<Kept<L>> {
    if !range_level_order_free(&level) {
        return level;
    }
    let mut items = level;
    loop {
        let mut merged_any = false;
        'scan: for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if items[i].label != items[j].label {
                    continue;
                }
                let (MatchSpec::Range { lo: la, hi: ha }, MatchSpec::Range { lo: lb, hi: hb }) =
                    (&items[i].spec, &items[j].spec)
                else {
                    continue;
                };
                let Some(dim) = coalescable_dim(la, ha, lb, hb) else {
                    continue;
                };
                let mut lo = la.clone();
                let mut hi = ha.clone();
                lo[dim] = lo[dim].min(lb[dim]);
                hi[dim] = hi[dim].max(hb[dim]);
                let b = items.remove(j);
                let a = &mut items[i];
                a.spec = MatchSpec::Range { lo, hi };
                a.sources.extend(b.sources);
                merged_any = true;
                break 'scan;
            }
        }
        if !merged_any {
            break;
        }
    }
    items
}

/// If boxes `a` and `b` are equal on every byte except one where their
/// intervals touch or overlap, returns that dimension.
fn coalescable_dim(la: &[u8], ha: &[u8], lb: &[u8], hb: &[u8]) -> Option<usize> {
    let mut dim = None;
    for i in 0..la.len() {
        if la[i] == lb[i] && ha[i] == hb[i] {
            continue;
        }
        if dim.is_some() {
            return None;
        }
        // Touching or overlapping on this byte (u16 math avoids overflow
        // at 255 + 1).
        let lo = u16::from(la[i].max(lb[i]));
        let hi = u16::from(ha[i].min(hb[i]));
        if lo > hi + 1 {
            return None;
        }
        dim = Some(i);
    }
    dim
}

/// Match-set containment: every key matching `b` also matches `a`. Only
/// defined within one match kind (tables are single-kind).
pub fn spec_covers(a: &MatchSpec, b: &MatchSpec) -> bool {
    match (a, b) {
        (MatchSpec::Exact(va), MatchSpec::Exact(vb)) => va == vb,
        (
            MatchSpec::Ternary {
                value: va,
                mask: ma,
            },
            MatchSpec::Ternary {
                value: vb,
                mask: mb,
            },
        ) => cube::covers(va, ma, vb, mb),
        (
            MatchSpec::Lpm {
                value: va,
                prefix_len: pa,
            },
            MatchSpec::Lpm {
                value: vb,
                prefix_len: pb,
            },
        ) => {
            va.len() == vb.len()
                && pa <= pb
                && va.iter().zip(vb).enumerate().all(|(pos, (&a, &b))| {
                    let m = prefix_mask(*pa, pos);
                    a & m == b & m
                })
        }
        (MatchSpec::Range { lo: la, hi: ha }, MatchSpec::Range { lo: lb, hi: hb }) => {
            la.len() == lb.len()
                && la.iter().zip(lb).all(|(&a, &b)| a <= b)
                && ha.iter().zip(hb).all(|(&a, &b)| a >= b)
        }
        _ => false,
    }
}

/// Range overlap: the boxes intersect on every byte.
fn range_overlaps(a: &MatchSpec, b: &MatchSpec) -> bool {
    match (a, b) {
        (MatchSpec::Range { lo: la, hi: ha }, MatchSpec::Range { lo: lb, hi: hb }) => {
            la.len() == lb.len()
                && la
                    .iter()
                    .zip(ha)
                    .zip(lb.iter().zip(hb))
                    .all(|((&la, &ha), (&lb, &hb))| la.max(lb) <= ha.min(hb))
        }
        _ => false,
    }
}

/// Minimized entry count for a pure ternary rule list installed with one
/// uniform action — the form `ControlPlane::replace_ruleset` lowers a
/// `RuleSet` into, and what the fleet budgeter admits against. Entries
/// arrive as `(value, mask, priority)`; order among equal priorities is
/// verdict-neutral under a uniform action, so callers may pass any stable
/// order.
pub fn minimized_ternary_count<'a, I>(rules: I) -> usize
where
    I: IntoIterator<Item = (&'a [u8], &'a [u8], i32)>,
{
    let mut rows: Vec<Kept<()>> = rules
        .into_iter()
        .enumerate()
        .map(|(i, (value, mask, priority))| Kept {
            spec: MatchSpec::Ternary {
                value: value.to_vec(),
                mask: mask.to_vec(),
            },
            label: (),
            priority,
            sources: vec![i as u64],
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.priority));
    reduce(MatchKind::Ternary, rows).kept.len()
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
        let mut t = Table::new("m", kind, KeyLayout::window(width), 256, Action::NoOp);
        for (spec, action, priority) in rows {
            t.insert(spec.clone(), *action, *priority).unwrap();
        }
        t
    }

    #[test]
    fn siblings_fold_to_a_single_wildcard() {
        // Four values over two low bits, same mask/action/priority: the
        // whole block folds into one entry with the two bits wildcarded.
        let rows: Vec<_> = (0..4u8)
            .map(|v| (ternary(vec![v], vec![0xff]), Action::Drop, 1))
            .collect();
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 1);
        assert_eq!(min.entries[0].spec, ternary(vec![0], vec![0xfc]));
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
        assert_eq!(min.entries[0].spec, ternary(vec![0x02], vec![0xfe]));
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
        assert_eq!(min.entries[0].spec, range(vec![10, 0], vec![30, 50]));
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
        // h1 (c0/f0 @1) shadows h3 (c0/f0 @0) across priority levels; the
        // p=1 level has a second entry so the merge pass rebuilds it.
        // Regression: the rebuild used to drop the covering flag, letting
        // the incremental compiler patch h1's removal without
        // resurrecting h3.
        let rows = [
            (ternary(vec![0xc0], vec![0xf0]), Action::Drop, 1),
            (ternary(vec![0x02], vec![0xfe]), Action::Drop, 1),
            (ternary(vec![0xc0], vec![0xf0]), Action::Drop, 0),
        ];
        let t = build(MatchKind::Ternary, 1, &rows);
        let min = minimize(MatchKind::Ternary, t.entries());
        let handles: Vec<_> = t.entries().iter().map(|e| e.handle).collect();
        assert_eq!(min.class_of(handles[0]), Some(SourceClass::Coverer));
        assert_eq!(min.class_of(handles[2]), Some(SourceClass::Eliminated));
    }

    #[test]
    fn oversized_tables_skip_minimization() {
        let rows: Vec<_> = (0..8u8)
            .map(|v| (ternary(vec![v], vec![0xff]), Action::Drop, 1))
            .collect();
        let t = build(MatchKind::Ternary, 1, &rows);
        // Simulate the cap by checking the identity path directly.
        let min = minimize(MatchKind::Ternary, t.entries());
        assert_eq!(min.entries.len(), 1, "under the cap the block folds");
        // The public cap constant is what compile consults; entries past
        // it classify Clean and pass through one-to-one (covered by the
        // construction at the top of `minimize`).
        const { assert!(MINIMIZE_MAX_ENTRIES >= 1024) };
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
    }
}
