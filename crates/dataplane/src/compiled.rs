//! Compile-at-publish lookup engine: a frozen [`Table`] lowered into the
//! data structure a real P4 target's TCAM stands for.
//!
//! The mutable [`Table`] keeps its priority-ordered linear scan — the
//! control plane mutates it and scan is the simplest correct structure for
//! that. But snapshots taken for the read path
//! ([`ReadPipeline`](crate::pipeline::ReadPipeline)) are immutable, so
//! arbitrary compile work at publish time is free under the RCU scheme,
//! and the per-packet cost stops growing row by row with ruleset size:
//!
//! | match kind                 | engine                        | per-lookup cost                   |
//! |----------------------------|-------------------------------|-----------------------------------|
//! | exact, ternary, range, LPM | per-byte bit-vector intersect | O(kept × live words), early-exit  |
//!
//! Every entry is a conjunction of per-byte predicates — an exact key
//! accepts one byte at each position, a prefix fixes the leading bits of
//! the bytes it covers, and its priority is its length, so longest-first is
//! the match order — and one engine serves every table: each key byte
//! selects the bitmap of entries that accept it at that position, the
//! bitmaps are ANDed 64 entries per word — a TCAM's parallel compare done
//! in software (Lakshman & Stiliadis, SIGCOMM '98) — and the lowest set bit
//! is the first match in priority order. A key reads each position's class
//! once, into the offsets of the rows it selects. A bitmap of more than
//! four words (256 entries) carries a summary, one bit per word telling
//! whether it holds any bit at all, and the probe ANDs the summaries first
//! and visits only the words left standing (Baboescu & Varghese's
//! aggregated bit vector, SIGCOMM '01). One walk, `probe_key`, answers a
//! range of ranks: a table's lookup is the range of all its ranks, and a
//! vote's fused index (`VoteIndex`) is walked one stage's range at a time.
//! That index is the same engine over every stage's rows, lifted onto the
//! union of the stages' keys: built on a full publish, spliced on a delta.
//!
//! Semantics are pinned to [`Table::peek`]: the winning entry is the first
//! match in priority order (insertion order among equal priorities), and a
//! miss — including a wrong-width key — selects the default action. A
//! differential property test enforces this for randomized rulesets across
//! all four kinds.

use crate::action::Action;
use crate::byteset::{ByteSet, ByteSetMap};
use crate::key::KeyLayout;
use crate::minimize::{self, Edit, MinEntry, MinimizedTable};
use crate::table::{MatchKind, Revision, Table, TableId};
use std::ops::Range;
use std::sync::Arc;

/// Rank of an entry in the frozen match order of the *minimized* entry
/// list (priority descending, earliest-source order breaking ties; equal
/// to the index into [`Table::entries`] when minimization is the
/// identity). Smaller rank wins.
pub type Rank = u32;

/// What a traced lookup observed (see [`CompiledTable::lookup_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// An installed entry matched; carries its [`Rank`] in frozen match
    /// order (the install-order identifier telemetry reports as the
    /// matched rule id).
    Hit(Rank),
    /// No entry matched; the default action applied.
    Miss,
    /// The key width did not match the compiled layout; the default
    /// action applied. Distinguished from [`LookupOutcome::Miss`] so the
    /// drop taxonomy can separate configuration bugs from policy misses.
    WrongWidth,
}

/// The engine behind every table, whatever its match kind. Per key
/// position, the 256 byte values fall into *classes* no entry can tell
/// apart there, and each class owns one row: a bitmap, by [`Rank`], of the
/// entries that accept its bytes. A key selects one row per position; the
/// AND of those rows has a bit set for exactly the entries matching the
/// whole key, so its lowest set bit is the first match in priority order.
///
/// A position every entry leaves free has one class, whose row holds every
/// entry: ANDing it changes nothing, so it gets no row and the probe never
/// reads its key byte. Only the positions some entry constrains are kept.
#[derive(Debug, Clone)]
struct BitVector {
    /// The key positions that have rows, ascending: those where some
    /// entry constrains the byte, or the last position alone when no entry
    /// constrains any (an empty table must still miss and a match-all one
    /// still hit, so the probe always has a row to AND).
    positions: Vec<usize>,
    /// u64 words of entry bits per row: `ceil(n / 64)` for `n` indexed
    /// entries, and one (all zero) for an empty table, so every probe has
    /// a word to AND.
    words: usize,
    /// u64 summary words at the head of every row: one bit per entry word,
    /// `ceil(words / 64)` of them, and none at all when the row has at
    /// most [`UNSUMMARISED`] entry words — the probe walks those all.
    summary: usize,
    /// `class[i * 256 + byte]` → the word offset in `rows` of the row for
    /// the class `byte` belongs to at key position `positions[i]`. A probe
    /// reads it once per key and kept position and adds the word it wants.
    class: Vec<u32>,
    /// Every row of every kept position, back to back: `summary` summary
    /// words, then `words` words of entry bits. Bit `r % 64` of entry word
    /// `r / 64` is set when the entry of rank `r` accepts the row's class;
    /// bits past the last rank are zero. Bit `w % 64` of summary word
    /// `w / 64` is set when entry word `w` is non-zero.
    rows: Vec<u64>,
    /// Action by rank.
    actions: Vec<Action>,
    /// Per kept position, its classes: row `r` there is class `r`'s. A
    /// splice refines them further instead of starting from one class.
    partitions: Vec<Partition>,
    /// Per row — position by position, in row order — the byte values of
    /// its class.
    members: Vec<ByteSet>,
}

/// How one kept position's byte values fall into classes.
#[derive(Debug, Clone, PartialEq)]
struct Partition {
    /// The class of each byte value: its row's index among the position's.
    of: [u8; 256],
    /// Classes (rows) at the position.
    count: usize,
}

/// The partition of the 256 byte values at one key position into classes,
/// refined one accepted set at a time. Beside the class of each byte it keeps
/// each class's byte values as a set, so a class is cut by set algebra, a
/// member can stand for its class, and neither a refinement nor a splice
/// scans the 256 bytes. One value serves every position of a build or a
/// splice, so refining allocates nothing once the first position has grown
/// the member list.
struct Classes {
    /// Class id of each byte value.
    of: [u8; 256],
    /// The byte values of each class id in use (1..=256 of them).
    members: Vec<ByteSet>,
}

impl Classes {
    /// One class holding every byte value.
    fn new() -> Classes {
        Classes {
            of: [0; 256],
            members: vec![ByteSet::ANY],
        }
    }

    /// Class ids in use.
    fn count(&self) -> usize {
        self.members.len()
    }

    /// Back to one class holding every byte value.
    fn reset(&mut self) {
        self.of = [0; 256];
        self.members.clear();
        self.members.push(ByteSet::ANY);
    }

    /// The classes whose byte values are `members`, `of` telling each
    /// byte's: a kept position's, to refine further.
    fn load(&mut self, of: &[u8; 256], members: &[ByteSet]) {
        self.of = *of;
        self.members.clear();
        self.members.extend_from_slice(members);
    }

    /// Splits every class `accept` cuts through into the part it accepts
    /// and the part it rejects, by set algebra on the class's byte values:
    /// the smaller part takes a new id, so only its bytes are relabelled.
    /// The classes cut are found through `accept`'s bytes when it has no
    /// more than there are classes, among all of them otherwise.
    fn refine(&mut self, accept: ByteSet) {
        let count = self.count();
        // The class ids `accept` meets, as a set of bytes.
        let met = if accept.len() <= count {
            let mut met = ByteSet([0; 4]);
            for byte in accept.bytes() {
                let class = self.of[usize::from(byte)];
                met.0[usize::from(class / 64)] |= 1 << (class % 64);
            }
            met
        } else {
            ByteSet::ANY
        };
        for class in met.bytes().take_while(|&class| usize::from(class) < count) {
            let class = usize::from(class);
            let inside = self.members[class].intersection(accept);
            let outside = self.members[class].difference(accept);
            if inside.is_empty() || outside.is_empty() {
                continue;
            }
            let (stay, moved) = if inside.len() < outside.len() {
                (outside, inside)
            } else {
                (inside, outside)
            };
            // A split leaves both parts non-empty, so `id <= 255`.
            let id = self.count() as u8;
            self.members[class] = stay;
            self.members.push(moved);
            for byte in moved.bytes() {
                self.of[usize::from(byte)] = id;
            }
        }
    }
}

/// The distinct accepted sets of one key position, numbered in the order
/// entries (by rank) first use them, and the number of each entry's set.
/// A set is numbered by its bytes, so two entries share a number exactly
/// when they accept the same bytes, whatever match kind or fold made them.
/// One value serves every position of a build in turn.
#[derive(Default)]
struct AcceptSets {
    /// Distinct accepted sets, first use first.
    sets: Vec<ByteSet>,
    /// Set number by rank.
    of: Vec<u32>,
    /// Set number by set, for the position being numbered.
    numbers: ByteSetMap<u32>,
}

impl AcceptSets {
    /// Numbers the sets of `column`, what each entry accepts by rank.
    fn number(&mut self, column: &[ByteSet]) {
        self.sets.clear();
        self.of.clear();
        self.numbers.clear();
        for &set in column {
            let next = self.sets.len() as u32;
            let number = *self.numbers.entry(set).or_insert(next);
            if number == next {
                self.sets.push(set);
            }
            self.of.push(number);
        }
    }
}

/// What each of the `n` `entries` accepts at each of `width` key
/// positions, position-major (`[pos * n + i]` for the `i`-th entry), so the
/// passes over one position run over a contiguous column instead of
/// chasing every entry's sets once per position.
fn columns<'a>(
    entries: impl Iterator<Item = &'a MinEntry>,
    n: usize,
    width: usize,
) -> Vec<ByteSet> {
    let mut accepts = vec![ByteSet::ANY; width * n];
    for (i, entry) in entries.enumerate() {
        for (pos, &set) in entry.sets.iter().enumerate() {
            accepts[pos * n + i] = set;
        }
    }
    accepts
}

/// ORs bits `from..from + len` of `src` into `dst`, from bit `to` on.
fn or_bits(src: &[u64], from: usize, dst: &mut [u64], to: usize, len: usize) {
    if len > 0 && from % 64 == to % 64 {
        // Both ends sit alike in their words: a word-for-word OR, the run's
        // first and last words masked to it.
        let words = (to % 64 + len).div_ceil(64);
        let dst = &mut dst[to / 64..][..words];
        let src = &src[from / 64..][..words];
        let head = u64::MAX << (to % 64);
        let tail = u64::MAX >> ((64 - (to + len) % 64) % 64);
        if words == 1 {
            dst[0] |= src[0] & head & tail;
            return;
        }
        dst[0] |= src[0] & head;
        dst[words - 1] |= src[words - 1] & tail;
        for (d, &s) in dst[1..words - 1].iter_mut().zip(&src[1..words - 1]) {
            *d |= s;
        }
        return;
    }
    let mut done = 0;
    while done < len {
        let (s, d) = (from + done, to + done);
        // As many bits as are left, up to the end of `dst`'s word.
        let take = (64 - d % 64).min(len - done);
        let mut bits = src[s / 64] >> (s % 64);
        if s % 64 + take > 64 {
            bits |= src[s / 64 + 1] << (64 - s % 64);
        }
        if take < 64 {
            bits &= (1 << take) - 1;
        }
        dst[d / 64] |= bits << (d % 64);
        done += take;
    }
}

/// The entry-bit fill of one key position, shared by [`BitVector::build`]
/// and [`BitVector::splice`]: each accepted set's classes are found once, and
/// 64 ranks at a time each set's word of entry bits is ORed into the rows
/// of its classes. All scratch, reused across positions.
struct Fill {
    /// The classes of set `s` are `held[starts[s]..starts[s + 1]]`.
    held: Vec<u8>,
    starts: Vec<usize>,
    seen: [bool; 256],
    /// Per set, its entry bits in the current word; `live` lists the sets
    /// with any.
    acc: Vec<u64>,
    live: Vec<u32>,
}

impl Fill {
    fn new() -> Fill {
        Fill {
            held: Vec::new(),
            starts: Vec::new(),
            seen: [false; 256],
            acc: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Sets each entry's bit in the rows of the classes its set holds
    /// among `classes`, the last position pushed onto `index`, whose rows
    /// start at `base`. `words` yields the entries one word of ranks at a
    /// time, ascending: the word, and each entry's bit in it with its set
    /// as `column` numbers them.
    fn run<I: Iterator<Item = (usize, u32)>>(
        &mut self,
        index: &mut BitVector,
        base: usize,
        column: &AcceptSets,
        classes: &Classes,
        words: impl Iterator<Item = (usize, I)>,
    ) {
        let Fill {
            held,
            starts,
            seen,
            acc,
            live,
        } = self;
        // Each set's classes: all of them for a set that leaves the
        // position free, else found by walking its accepted bytes or one
        // member of each class, whichever is fewer.
        held.clear();
        starts.clear();
        starts.push(0);
        // One member of each class to stand for all of them, found the
        // first time a set walks the classes.
        let mut firsts: Option<[u8; 256]> = None;
        for &accept in &column.sets {
            let from = held.len();
            if accept.is_any() {
                held.extend((0..=255).take(classes.count()));
            } else if accept.len() <= classes.count() {
                for byte in accept.bytes() {
                    let of = classes.of[usize::from(byte)];
                    if !std::mem::replace(&mut seen[usize::from(of)], true) {
                        held.push(of);
                    }
                }
                for &of in &held[from..] {
                    seen[usize::from(of)] = false;
                }
            } else {
                let firsts = firsts.get_or_insert_with(|| {
                    let mut firsts = [0; 256];
                    for (first, set) in firsts.iter_mut().zip(&classes.members) {
                        *first = set.first();
                    }
                    firsts
                });
                held.extend(
                    (0..=255)
                        .zip(&firsts[..classes.count()])
                        .filter(|&(_, &byte)| accept.contains(byte))
                        .map(|(of, _)| of),
                );
            }
            starts.push(held.len());
        }

        let (summary, stride) = (index.summary, index.stride());
        let rows = &mut index.rows[base..];
        acc.clear();
        acc.resize(column.sets.len(), 0);
        for (word, entries) in words {
            for (bit, set) in entries {
                let acc = &mut acc[set as usize];
                if *acc == 0 {
                    live.push(set);
                }
                *acc |= 1 << bit;
            }
            for set in live.drain(..) {
                let set = set as usize;
                let bits = std::mem::take(&mut acc[set]);
                for &of in &held[starts[set]..starts[set + 1]] {
                    rows[usize::from(of) * stride + summary + word] |= bits;
                }
            }
        }
    }
}

/// Sets a row's summary words (its first `summary`) from its entry words,
/// one bit per entry word; a row of at most [`UNSUMMARISED`] words has
/// none.
fn summarise_row(row: &mut [u64], summary: usize) {
    let (head, bits) = row.split_at_mut(summary);
    for (head, span) in head.iter_mut().zip(bits.chunks(64)) {
        for (k, &word) in span.iter().enumerate() {
            *head |= u64::from(word != 0) << k;
        }
    }
}

thread_local! {
    /// Full engine builds run on this thread: see [`engine_builds`].
    static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Full wildcard-engine builds this thread has run so far: what tests read
/// to pin that a patchable delta never takes that path.
#[doc(hidden)]
pub fn engine_builds() -> u64 {
    BUILDS.with(std::cell::Cell::get)
}

impl BitVector {
    /// An engine over one rank per action in `actions` and a key of
    /// `width` bytes, with no key position yet.
    fn empty(actions: Vec<Action>, width: usize) -> BitVector {
        let words = actions.len().div_ceil(64).max(1);
        BitVector {
            positions: Vec::with_capacity(width),
            words,
            summary: if words > UNSUMMARISED {
                words.div_ceil(64)
            } else {
                0
            },
            class: Vec::with_capacity(width * 256),
            rows: Vec::new(),
            actions,
            partitions: Vec::with_capacity(width),
            members: Vec::new(),
        }
    }

    /// Words per row: the summary, then the entry bits.
    fn stride(&self) -> usize {
        self.summary + self.words
    }

    /// Appends key position `pos`, split into classes whose byte values
    /// are `members`, `of` telling each byte's: a zeroed row per class, its
    /// class map and its classes. Returns where its rows start in `rows`.
    fn push_position(&mut self, pos: usize, of: &[u8; 256], members: &[ByteSet]) -> usize {
        let stride = self.stride();
        let base = self.rows.len();
        self.rows.resize(base + members.len() * stride, 0);
        // Every word offset fits `u32` while the rows do (2^32 words).
        u32::try_from(self.rows.len()).expect("rows under 2^32 words");
        let offset = |of: &u8| (base + usize::from(*of) * stride) as u32;
        self.class.extend(of.iter().map(offset));
        self.partitions.push(Partition {
            of: *of,
            count: members.len(),
        });
        self.members.extend_from_slice(members);
        self.positions.push(pos);
        base
    }

    /// Takes back the last position pushed, whose rows start at `base`.
    fn pop_position(&mut self, base: usize) {
        self.rows.truncate(base);
        self.class.truncate(self.class.len() - 256);
        if let Some(partition) = self.partitions.pop() {
            self.members.truncate(self.members.len() - partition.count);
        }
        self.positions.pop();
    }

    /// Fills in the summary words of every row from `base` on.
    fn summarise(&mut self, base: usize) {
        let (summary, stride) = (self.summary, self.stride());
        for row in self.rows[base..].chunks_exact_mut(stride) {
            summarise_row(row, summary);
        }
    }

    /// Entry word `w` of a row holding every rank.
    fn every_word(&self, w: usize) -> u64 {
        match self.actions.len().saturating_sub(w * 64) {
            left if left >= 64 => u64::MAX,
            left => (1 << left) - 1,
        }
    }

    /// The entry words of a row holding every rank.
    fn every_rank(&self) -> Vec<u64> {
        (0..self.words).map(|w| self.every_word(w)).collect()
    }

    /// Indexes `entries` (ternary, range or LPM specs over `width` key bytes):
    /// the full compile's constructor.
    ///
    /// Its cost follows the *distinct* accept sets of each position rather
    /// than entries × classes: the entries' sets are numbered, classes come
    /// from refining over the sets, and [`Fill`] sets the entry bits. A
    /// position left with one class gets no rows (see
    /// [`BitVector::positions`]).
    fn build(entries: &[MinEntry], width: usize) -> BitVector {
        BUILDS.with(|builds| builds.set(builds.get() + 1));
        let n = entries.len();
        let mut index = BitVector::empty(entries.iter().map(|e| e.action).collect(), width);
        let accepts = columns(entries.iter(), n, width);
        let mut column = AcceptSets::default();
        let mut fill = Fill::new();
        let mut classes = Classes::new();
        for pos in 0..width {
            column.number(&accepts[pos * n..][..n]);
            classes.reset();
            for &accept in &column.sets {
                if !accept.is_any() {
                    classes.refine(accept);
                }
            }
            if classes.count() == 1 && (pos + 1 < width || !index.positions.is_empty()) {
                continue;
            }
            let base = index.push_position(pos, &classes.of, &classes.members);
            let words = column.of.chunks(64).enumerate();
            let words = words.map(|(word, sets)| (word, sets.iter().copied().enumerate()));
            fill.run(&mut index, base, &column, &classes, words);
            index.summarise(base);
        }
        index
    }

    /// The engine over the list `edit` made from the one this engine
    /// indexes, derived from this one instead of built: `fresh` holds the
    /// entries `edit` patched in, one per rank of `edit.fresh`, in order.
    ///
    /// Each position starts from its classes here (one class holding every
    /// byte where no entry constrained it), cut further by the fresh
    /// entries' accept sets. Each row starts as its class's row here, with
    /// the kept ranks' bits moved to their new ranks (a class a fresh entry
    /// split off copies its parent's row; one class of a position no entry
    /// constrained holds every kept rank), and [`Fill`] then sets the fresh
    /// entries' bits. A position where no fresh entry constrains and every
    /// row holds every rank is dropped, as the build would; the summaries
    /// and the class map are recomputed. One difference from a build: a
    /// removal never merges classes that no remaining entry tells apart,
    /// so a position may keep more rows than a build would give it — at
    /// most 256, and the probe reads one a position whatever their count.
    /// A splice that adds no entry numbers no sets and runs no fill.
    fn splice(&self, fresh: &[MinEntry], width: usize, edit: &Edit) -> BitVector {
        // Every rank is a kept entry's or a fresh one's; a kept entry's
        // action is read here, not from the entry.
        let kept: usize = edit.runs.iter().map(|run| run.2).sum();
        let mut actions = vec![Action::NoOp; kept + edit.fresh.len()];
        for &(from, to, len) in &edit.runs {
            actions[to..to + len].copy_from_slice(&self.actions[from..from + len]);
        }
        for (&rank, entry) in edit.fresh.iter().zip(fresh) {
            actions[rank] = entry.action;
        }
        let mut index = BitVector::empty(actions, width);
        let (stride, summary) = (index.stride(), index.summary);
        index.rows.reserve(self.members.len() * stride);
        index.members.reserve(self.members.len());
        let old_stride = self.stride();
        let accepts = columns(fresh.iter(), fresh.len(), width);
        let fresh = fresh.len();
        // The row of a position no entry constrained holds every old rank;
        // made the first time a new position needs it.
        let mut every_old = None;
        let mut column = AcceptSets::default();
        let mut fill = Fill::new();
        let mut classes = Classes::new();
        let mut old = self.positions.iter().zip(&self.partitions).peekable();
        // Where the next old position's rows and member sets start.
        let (mut old_base, mut old_row) = (0, 0);
        for pos in 0..width {
            if fresh > 0 {
                column.number(&accepts[pos * fresh..][..fresh]);
            }
            let constrained = column.sets.iter().any(|accept| !accept.is_any());
            let parent = old.next_if(|&(&at, _)| at == pos).map(|(_, partition)| {
                let (at, row) = (old_base, old_row);
                old_base += partition.count * old_stride;
                old_row += partition.count;
                (at, partition, &self.members[row..old_row])
            });
            match parent {
                Some((_, partition, members)) => classes.load(&partition.of, members),
                None if !constrained && (pos + 1 < width || !index.positions.is_empty()) => {
                    continue;
                }
                None => classes.reset(),
            }
            let (parents, before) = (classes.count(), classes.of);
            for &accept in &column.sets {
                if !accept.is_any() {
                    classes.refine(accept);
                }
            }
            let base = index.push_position(pos, &classes.of, &classes.members);
            let every: &[u64] = match parent {
                Some(_) => &[],
                None => every_old.get_or_insert_with(|| self.every_rank()),
            };
            let new_rows = index.rows[base..].chunks_exact_mut(stride);
            for (id, (row, set)) in new_rows.zip(&classes.members).enumerate() {
                let origin = if id < parents {
                    id
                } else {
                    usize::from(before[usize::from(set.first())])
                };
                let src = match parent {
                    Some((at, _, _)) => &self.rows[at + origin * old_stride + self.summary..],
                    None => every,
                };
                for &(from, to, len) in &edit.runs {
                    or_bits(src, from, &mut row[summary..], to, len);
                }
            }
            if fresh > 0 {
                // The fresh entries by word of ranks, each with its set.
                let mut sets = &column.of[..];
                let words = edit.fresh.chunk_by(|a, b| a / 64 == b / 64).map(|ranks| {
                    let (these, rest) = sets.split_at(ranks.len());
                    sets = rest;
                    let bits = ranks.iter().map(|rank| rank % 64);
                    (ranks[0] / 64, bits.zip(these.iter().copied()))
                });
                fill.run(&mut index, base, &column, &classes, words);
            }
            index.summarise(base);
            let free = !constrained
                && index.rows[base..].chunks_exact(stride).all(|row| {
                    (row[summary..].iter().enumerate())
                        .all(|(w, &word)| word == index.every_word(w))
                });
            if free && (pos + 1 < width || index.positions.len() > 1) {
                index.pop_position(base);
            }
        }
        index
    }
}

/// What an engine answers, whatever its classes and row layout:
/// two engines over the same minimized entries have equal forms exactly
/// when every key reads the same bits from them. For differential tests
/// (see [`CompiledTable::wildcard_form`]).
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WildcardForm {
    /// The key positions the engine keeps rows for.
    pub positions: Vec<usize>,
    /// `rows[pos * 256 + byte]`: the row `byte` selects at key position
    /// `pos` — its summary words, then its entry words — and at a position
    /// without rows, the row holding every rank.
    pub rows: Vec<Vec<u64>>,
    /// Action by rank.
    pub actions: Vec<Action>,
}

/// An immutable, compiled form of one [`Table`], built at snapshot time by
/// [`CompiledTable::compile`] and queried lock-free on the read path.
#[derive(Debug, Clone)]
pub struct CompiledTable {
    /// Identity of the table this was compiled from.
    table: TableId,
    /// Its revision when this was compiled from it.
    revision: Revision,
    name: String,
    kind: MatchKind,
    key: KeyLayout,
    default_action: Action,
    len: usize,
    min: MinimizedTable,
    engine: BitVector,
}

impl CompiledTable {
    /// Lowers a frozen table into the bit-vector engine, minimizing the
    /// entry list first (see [`crate::minimize`]): the engine indexes the
    /// minimized entries, while [`CompiledTable::len`] keeps reporting the
    /// source entry count.
    pub fn compile(table: &Table) -> Self {
        let min = minimize::minimize(table.kind(), table.entries());
        let engine = BitVector::build(&min.entries, table.key().width());
        CompiledTable {
            table: table.id(),
            revision: table.revision(),
            name: table.name().to_owned(),
            kind: table.kind(),
            key: table.key().clone(),
            default_action: table.default_action(),
            len: table.len(),
            min,
            engine,
        }
    }

    /// Incrementally re-lowers `table` against its previously compiled
    /// form. Three outcomes, cheapest first:
    ///
    /// 1. the same table (the one `prev` was compiled from, or a clone of
    ///    it) at the revision `prev` was compiled at, or since edited back
    ///    to an unchanged `(handle, action)` fingerprint — the previous
    ///    `Arc` is returned as-is (structural sharing across pipeline
    ///    versions);
    /// 2. the same table, changed by additions and removals — the
    ///    minimized list is patched ([`MinimizedTable::patch`]) and the
    ///    engine is spliced from the previous one by the same edit rather
    ///    than built. A removed
    ///    [`SourceClass::Clean`](minimize::SourceClass::Clean) entry is
    ///    dropped, a removed
    ///    [`SourceClass::Eliminated`](minimize::SourceClass::Eliminated)
    ///    one changes nothing, and a removed
    ///    [`SourceClass::Merged`](minimize::SourceClass::Merged) source's
    ///    box is subtracted from the rows of its level it meets, leaving at
    ///    most one piece per key position in each. The added entries fold
    ///    among themselves and land at the end of their priority level,
    ///    which is where they sit in source match order too. No
    ///    subsumption runs;
    /// 3. a full from-scratch compile wherever a patch could not be exact:
    ///    an action modified in place; a removed source whose row shadows
    ///    an eliminated entry
    ///    ([`SourceClass::Coverer`](minimize::SourceClass::Coverer),
    ///    merged or not); a removed folded source in a level not known to
    ///    be disjoint (`gw_small`'s random-mask ACL is one), or whose
    ///    pieces would outnumber the level's remaining sources; or another
    ///    table — handles restart in every new one, so only identity tells
    ///    two tables apart.
    ///
    /// What a patch costs: one walk over the table's
    /// [`index`](Table::index) column beside the previous source list (an
    /// entry itself is read only where it was added, for its box), one over
    /// the minimized list's priorities and order keys, a subtraction per row a
    /// removed folded box meets, a fold of the added entries alone, a
    /// pointer copied per kept row (its box stays shared with `prev`), and
    /// the engine's rows copied with the kept ranks' bits moved, the fresh
    /// entries' bits set and the summaries and class map recomputed (the
    /// splice reads no kept entry). On `loop_churn`'s folded 2,196-entry
    /// stage (6 rows), the first 1 % removal of a trial cuts one leaf's row
    /// into 4–6 pieces instead of compiling the stage afresh (≈ 1 ms, the
    /// fold of 2,196 entries).
    ///
    /// Added entries are folded among themselves but never subsumed, so a
    /// patched table can carry more rows than a fresh compile would —
    /// never different verdicts. Verdict+priority equality with the
    /// from-scratch compile is pinned by the differential suite.
    pub fn recompile(prev: &Arc<CompiledTable>, table: &Table) -> Arc<CompiledTable> {
        Self::recompile_with_edit(prev, table).0
    }

    /// [`CompiledTable::recompile`], with the [`Edit`] its patch made — what
    /// a vote's fused index is spliced by — or `None` when `prev` came back
    /// shared or the table was compiled afresh.
    pub(crate) fn recompile_with_edit(
        prev: &Arc<CompiledTable>,
        table: &Table,
    ) -> (Arc<CompiledTable>, Option<Edit>) {
        // A table's name, kind, key and default action are fixed at
        // `Table::new`, so its identity vouches for them.
        if prev.table != table.id() {
            return (Arc::new(Self::compile(table)), None);
        }
        if prev.revision == table.revision() {
            return (Arc::clone(prev), None);
        }
        let index = table.index();
        if prev.min.source.len() == index.len()
            && prev
                .min
                .source
                .iter()
                .zip(index)
                .all(|(&(h, a), i)| h == i.handle && a == i.action)
        {
            return (Arc::clone(prev), None);
        }
        let Some((min, edit)) = prev.min.patch(table.entries(), index) else {
            return (Arc::new(Self::compile(table)), None);
        };
        let fresh: Vec<MinEntry> = edit
            .fresh
            .iter()
            .map(|&rank| min.entries[rank].clone())
            .collect();
        let engine = prev.engine.splice(&fresh, prev.key.width(), &edit);
        let next = CompiledTable {
            table: prev.table,
            revision: table.revision(),
            name: prev.name.clone(),
            kind: prev.kind,
            key: prev.key.clone(),
            default_action: prev.default_action,
            len: index.len(),
            min,
            engine,
        };
        (Arc::new(next), Some(edit))
    }

    /// Table name (copied from the source table).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's match kind.
    pub fn kind(&self) -> MatchKind {
        self.kind
    }

    /// The key layout.
    pub fn key(&self) -> &KeyLayout {
        &self.key
    }

    /// Entries compiled in (counting those minimization folded or dropped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the source table had no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the engine actually indexes after minimization (never more
    /// than [`CompiledTable::len`]).
    pub fn minimized_len(&self) -> usize {
        self.min.entries.len()
    }

    /// The minimized entry list and its per-handle bookkeeping.
    pub fn minimized(&self) -> &MinimizedTable {
        &self.min
    }

    /// The effective priority of the minimized entry behind `rank`, or
    /// `None` for an out-of-range rank. Together with the action this is
    /// the transform-invariant identity of a lookup winner: minimization
    /// and incremental patching may renumber ranks but never change the
    /// winning `(action, priority)`.
    pub fn rank_priority(&self, rank: Rank) -> Option<i32> {
        self.min.entries.get(rank as usize).map(|e| e.priority)
    }

    /// The default action on miss.
    pub fn default_action(&self) -> Action {
        self.default_action
    }

    /// The engine's [`WildcardForm`].
    #[doc(hidden)]
    pub fn wildcard_form(&self) -> WildcardForm {
        let index = &self.engine;
        let stride = index.stride();
        let mut every = vec![0; index.summary];
        every.extend(index.every_rank());
        summarise_row(&mut every, index.summary);
        let mut rows = Vec::with_capacity(self.key.width() * 256);
        for pos in 0..self.key.width() {
            match index.positions.iter().position(|&at| at == pos) {
                Some(i) => rows.extend(
                    index.class[i * 256..][..256]
                        .iter()
                        .map(|&at| index.rows[at as usize..at as usize + stride].to_vec()),
                ),
                None => rows.extend(std::iter::repeat_n(&every, 256).cloned()),
            }
        }
        WildcardForm {
            positions: index.positions.clone(),
            rows,
            actions: index.actions.clone(),
        }
    }

    /// This table with its engine built in full over its own minimized
    /// entries: what the engine [`CompiledTable::recompile`] splices must
    /// equal in [`WildcardForm`].
    #[doc(hidden)]
    pub fn rebuilt(&self) -> CompiledTable {
        CompiledTable {
            engine: BitVector::build(&self.min.entries, self.key.width()),
            ..self.clone()
        }
    }

    /// The engine behind this table: `"bit-vector"`, whatever its match
    /// kind (reports and the benchmark's engine fixtures print it).
    pub fn strategy(&self) -> &'static str {
        "bit-vector"
    }

    /// Looks up `key`, returning the selected action (the default on miss).
    ///
    /// Semantics are identical to [`Table::peek`] on the source table,
    /// including wrong-width keys missing to the default action. `_probe`
    /// is not read: a probe keeps its per-key state on the stack, and the
    /// parameter stays so callers that hold a probe buffer compile as
    /// they are.
    #[inline]
    pub fn lookup(&self, key: &[u8], _probe: &mut [u8]) -> Action {
        self.lookup_traced(key, &mut []).0
    }

    /// [`CompiledTable::lookup`] plus a [`LookupOutcome`] telling telemetry
    /// whether an entry matched (and its [`Rank`]), the lookup missed to
    /// the default, or the key width was wrong. The action returned is
    /// identical to the untraced lookup; the outcome is dead code the
    /// optimizer erases when a caller ignores it. `_probe` is not read.
    #[inline]
    pub fn lookup_traced(&self, key: &[u8], _probe: &mut [u8]) -> (Action, LookupOutcome) {
        let width = self.key.width();
        if key.len() != width {
            return (self.default_action, LookupOutcome::WrongWidth);
        }
        let mut out = [(self.default_action, LookupOutcome::Miss)];
        self.engine
            .first_hits(key, width, self.default_action, &mut out);
        out[0]
    }

    /// Looks up a whole batch of keys packed contiguously in `keys` with
    /// `stride` bytes per key, writing one `(action, outcome)` per key into
    /// `out` (`out.len()` keys are consumed). Results are identical to
    /// calling [`CompiledTable::lookup_traced`] per key — the batch form
    /// exists so the engine's shape is resolved **once per batch** and the
    /// probe loop runs tight over the contiguous key matrix.
    ///
    /// A `stride` different from the compiled key width reports
    /// [`LookupOutcome::WrongWidth`] for every key, mirroring the
    /// wrong-width miss of the single-key path. `_probe` is not read.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is shorter than `out.len() * stride`.
    pub fn lookup_batch(
        &self,
        keys: &[u8],
        stride: usize,
        _probe: &mut [u8],
        out: &mut [(Action, LookupOutcome)],
    ) {
        let width = self.key.width();
        assert!(
            keys.len() >= out.len() * stride,
            "key matrix shorter than out.len() * stride"
        );
        if stride != width {
            out.fill((self.default_action, LookupOutcome::WrongWidth));
            return;
        }
        self.engine
            .first_hits(keys, width, self.default_action, out);
    }

    /// Allocating convenience wrapper around [`CompiledTable::lookup`];
    /// drop-in for [`Table::peek`] in tests and cold paths.
    pub fn peek(&self, key: &[u8]) -> Action {
        let mut probe = vec![0u8; self.key.width()];
        self.lookup(key, &mut probe)
    }
}

/// One bit-vector over the rows of every stage of a vote pipeline, so one
/// probe per key answers every stage's lookup: the table engine over every
/// stage's minimized rows, concatenated in stage order and lifted onto one
/// key (see [`lift`]). That key is the union of the frame offsets the
/// stages' engines keep, ascending; each stage's ranks are one contiguous
/// range, so a stage's first set bit in its range is its first match.
#[derive(Debug, Clone)]
pub(crate) struct VoteIndex {
    /// The union key.
    key: KeyLayout,
    index: BitVector,
    stages: Vec<FusedStage>,
}

/// Where one stage sits in a [`VoteIndex`].
#[derive(Debug, Clone, PartialEq)]
struct FusedStage {
    /// Its ranks, in stage order: a fused rank less their start is the
    /// stage's own.
    ranks: Range<usize>,
    /// What its miss selects.
    default: Action,
}

/// The union of the frame offsets the engines of `stages` keep: a vote's
/// key.
fn union_key(stages: &[Arc<CompiledTable>]) -> KeyLayout {
    KeyLayout::union(stages.iter().flat_map(|stage| {
        let offsets = stage.key.offsets();
        stage.engine.positions.iter().map(|&pos| offsets[pos])
    }))
}

/// `entry`, a row over the key `stage`, lifted onto `key`: at each offset
/// of `key`, the intersection of what the row accepts at the positions of
/// `stage` that read it, and every byte where none does. `key` holds every
/// offset `stage`'s engine keeps, and at a position the engine does not
/// keep the row accepts every byte, so the lifted row matches the frames
/// the row does.
fn lift(entry: &MinEntry, stage: &KeyLayout, key: &KeyLayout) -> MinEntry {
    let reads = stage.offsets().iter().zip(entry.sets.iter());
    let sets = key.offsets().iter().map(|offset| {
        let here = reads.clone().filter(|&(at, _)| at == offset);
        here.fold(ByteSet::ANY, |acc, (_, &set)| acc.intersection(set))
    });
    MinEntry {
        sets: sets.collect(),
        action: entry.action,
        priority: entry.priority,
        order: entry.order,
    }
}

/// Appends the kept run `(from, to, len)` to `runs`, joined to the last
/// run when it continues it on both sides.
fn keep(runs: &mut Vec<(usize, usize, usize)>, (from, to, len): (usize, usize, usize)) {
    match runs.last_mut() {
        Some((at, into, run)) if *at + *run == from && *into + *run == to => *run += len,
        _ if len > 0 => runs.push((from, to, len)),
        _ => {}
    }
}

/// The previous snapshot a [`VoteIndex`] is spliced from: its index, its
/// stages, and the edit each stage's recompile made from its stage there
/// ([`CompiledTable::recompile_with_edit`]).
pub(crate) type Published<'a> = (&'a VoteIndex, &'a [Arc<CompiledTable>], &'a [Option<Edit>]);

impl VoteIndex {
    /// The index over `stages`: `prev`'s spliced by one [`Edit`] (see
    /// [`VoteIndex::edit`]), or, without `prev` or where the edit does not
    /// apply, [`BitVector::build`] over every stage's lifted rows.
    pub(crate) fn new(stages: &[Arc<CompiledTable>], prev: Option<Published<'_>>) -> VoteIndex {
        let spliced = prev.and_then(|(prev, old, edits)| {
            let (edit, fresh) = prev.edit(old, stages, edits)?;
            let index = prev.index.splice(&fresh, prev.key.width(), &edit);
            Some((prev.key.clone(), index))
        });
        let (key, index) = spliced.unwrap_or_else(|| {
            let key = union_key(stages);
            let rows: Vec<MinEntry> = stages
                .iter()
                .flat_map(|stage| stage.min.entries.iter().map(|e| lift(e, &stage.key, &key)))
                .collect();
            let index = BitVector::build(&rows, key.width());
            (key, index)
        });
        let mut start = 0;
        let stages = stages.iter().map(|stage| {
            let ranks = start..start + stage.minimized_len();
            start = ranks.end;
            FusedStage {
                ranks,
                default: stage.default_action,
            }
        });
        VoteIndex {
            key,
            index,
            stages: stages.collect(),
        }
    }

    /// The edit that takes this index, over `old`, to the index over
    /// `stages`, and the rows it adds, lifted: each stage that came back
    /// shared keeps its ranks as one run, and each patched stage's `edits`
    /// entry, shifted to its base, gives its runs and fresh ranks. `None`
    /// where the index is to be built instead: a stage was compiled
    /// afresh, the stage count changed, or the union key did (a fresh row
    /// constrains an offset outside it, or no engine keeps one of its
    /// offsets any more).
    fn edit(
        &self,
        old: &[Arc<CompiledTable>],
        stages: &[Arc<CompiledTable>],
        edits: &[Option<Edit>],
    ) -> Option<(Edit, Vec<MinEntry>)> {
        if old.len() != stages.len() || edits.len() != stages.len() {
            return None;
        }
        // Only a patched stage that keeps other positions than before can
        // move the union key.
        let moved = old.iter().zip(stages).any(|(was, now)| {
            !Arc::ptr_eq(was, now) && was.engine.positions != now.engine.positions
        });
        if moved && union_key(stages) != self.key {
            return None;
        }
        let (mut edit, mut fresh) = (Edit::default(), Vec::new());
        let mut base = 0;
        for (((was, now), patch), fused) in old.iter().zip(stages).zip(edits).zip(&self.stages) {
            let from = fused.ranks.start;
            if Arc::ptr_eq(was, now) {
                keep(&mut edit.runs, (from, base, fused.ranks.len()));
            } else {
                let patch = patch.as_ref()?;
                for &(at, into, len) in &patch.runs {
                    keep(&mut edit.runs, (from + at, base + into, len));
                }
                for &rank in &patch.fresh {
                    edit.fresh.push(base + rank);
                    fresh.push(lift(&now.min.entries[rank], &now.key, &self.key));
                }
            }
            base += now.minimized_len();
        }
        Some((edit, fresh))
    }

    /// The union key every stage's lookup is answered from.
    pub(crate) fn key(&self) -> &KeyLayout {
        &self.key
    }

    /// Every stage's lookup of each key of the matrix, `key().width()`
    /// bytes apart, one key per slot of `slots`: `visit(slot, stage,
    /// action, outcome)` gets each, exactly what that stage's
    /// [`CompiledTable::lookup_traced`] answers, in stage order until it
    /// returns `true` (the vote is decided). A stage's lookup is the walk
    /// over its ranks, [`probe_key`] over one range: the key's classes are
    /// read once, and a word two stages share is ANDed once.
    pub(crate) fn lookup_batch<T>(
        &self,
        keys: &[u8],
        slots: &mut [T],
        mut visit: impl FnMut(&mut T, usize, Action, LookupOutcome) -> bool,
    ) {
        // A vote of no stages looks nothing up, and its key has no bytes.
        if self.stages.is_empty() {
            return;
        }
        let width = self.key().width();
        // Rows of one word hold no offsets, as in a table's lookup. Each
        // key's walk is inlined into the per-key loop, so the cursor stays
        // in registers.
        if self.index.stride() == 1 {
            probe_batch::<0, T>(
                &self.index,
                keys,
                width,
                slots,
                #[inline(always)]
                |key, cursor, slot| self.stage_lookups(key, cursor, slot, &mut visit),
            );
        } else {
            probe_batch::<HELD, T>(
                &self.index,
                keys,
                width,
                slots,
                #[inline(always)]
                |key, cursor, slot| self.stage_lookups(key, cursor, slot, &mut visit),
            );
        }
    }

    /// Every stage's lookup of `key`, which [`select`] readied `cursor`
    /// for, handed to `visit` in stage order until it returns `true`: the
    /// walk over each stage's ranks in turn.
    #[inline(always)]
    fn stage_lookups<const N: usize, T>(
        &self,
        key: &[u8],
        cursor: &mut Cursor<N>,
        slot: &mut T,
        visit: &mut impl FnMut(&mut T, usize, Action, LookupOutcome) -> bool,
    ) {
        let index = &self.index;
        for (stage, fused) in self.stages.iter().enumerate() {
            let (action, outcome) = match probe_key(index, key, cursor, fused.ranks.clone()) {
                Some(rank) => {
                    let own = (rank - fused.ranks.start) as Rank;
                    (index.actions[rank], LookupOutcome::Hit(own))
                }
                None => (fused.default, LookupOutcome::Miss),
            };
            if visit(slot, stage, action, outcome) {
                return;
            }
        }
    }
}

/// Entry words a row may have and carry no summary: a table of up to 256
/// ranks, whose probe walks its words in turn, as many as it takes.
const UNSUMMARISED: usize = 4;

/// Kept positions whose row offsets a probe holds on the stack. A key
/// keeping more (none here: learned keys keep 5 or 6 of their 8 bytes)
/// walks with the first `HELD`, and ANDs in the rest, read from the class
/// map, only where it checks an entry word for a match (see
/// [`BitVector::rest`]); summary words only prune, so they skip them.
const HELD: usize = 64;

/// What one key's lookup answers.
type Probed = (Action, LookupOutcome);

/// Where one key's probe stands: the word offset of the row the key
/// selects at each of its first `N` kept positions, and the last summary
/// word and the last entry word the walk ANDed, each as (word, bits). A
/// walk over one range leaves them for the next range of the same key.
struct Cursor<const N: usize> {
    at: [usize; N],
    head: (usize, u64),
    entry: (usize, u64),
}

/// Every key of the matrix, `width` bytes apart, [`select`]ed into one
/// cursor and handed with it to `answer`, beside its slot of `out` (one
/// key per slot). A key's byte at each kept position is read in place when
/// the kept positions are one run of the key (see [`BitVector::run`]),
/// through the position list otherwise: one probe loop, compiled once per
/// way of reading, because the position list read per key costs a table
/// that keeps every byte (`gw_small`'s) an eighth of its lookup time.
///
/// The cursor holds the row offsets of the first `N` kept positions:
/// `HELD`, or 0 for a table whose rows are one word ([`select`]'s only
/// read of them), which then zeroes no offsets per call.
#[inline(never)]
fn probe_batch<const N: usize, T>(
    index: &BitVector,
    keys: &[u8],
    width: usize,
    out: &mut [T],
    answer: impl FnMut(&[u8], &mut Cursor<N>, &mut T),
) {
    let kept = index.positions.len().min(HELD);
    match index.run() {
        Some(first) => probe_keys(index, keys, width, out, answer, |key| {
            key[first..first + kept].iter().copied()
        }),
        None => probe_keys(index, keys, width, out, answer, |key| {
            index.positions.iter().map(move |&pos| key[pos])
        }),
    }
}

/// [`probe_batch`]'s per-key loop, `bytes` giving each key's bytes at its
/// first [`HELD`] kept positions. Out of line: inlined into its caller,
/// the probe spills registers in the per-key loop (a 13-row table paid a
/// third of its lookup time for it).
#[inline(never)]
fn probe_keys<'k, const N: usize, T, I: Iterator<Item = u8>>(
    index: &BitVector,
    keys: &'k [u8],
    width: usize,
    out: &mut [T],
    mut answer: impl FnMut(&[u8], &mut Cursor<N>, &mut T),
    bytes: impl Fn(&'k [u8]) -> I,
) {
    let mut cursor = Cursor {
        at: [0; N],
        head: (0, 0),
        entry: (0, 0),
    };
    for (key, o) in keys.chunks_exact(width).zip(out) {
        select(index, key, bytes(key), &mut cursor);
        answer(key, &mut cursor, o);
    }
}

/// The walk of one key over the ranks `ranks`, which [`select`] readied
/// `cursor` for: the first rank there whose entry matches the key, or
/// `None`. A row of at most [`UNSUMMARISED`] words is walked word by word,
/// as far as it takes. Otherwise only the entry words whose bit survives
/// the AND of the selected rows' summary words are walked, lowest first (a
/// word whose bit is clear is all zero in some selected row, so nothing
/// there can match), a later summary word only once the earlier one's
/// words all came up empty. Each word is ANDed through the row offsets the
/// cursor holds ([`walk_rows`]), unless it is the last one the cursor
/// ANDed, and masked to the range. The first non-zero AND ends the walk:
/// `rank = word * 64 + trailing_zeros` is the first match in priority
/// order, since rank *is* the frozen match order — past the range's end,
/// no match in it.
// Forced inline: the per-key loop resolves `index`'s shape once per batch
// only if the probe is part of its body (out of line it is a call per key).
#[inline(always)]
fn probe_key<const N: usize>(
    index: &BitVector,
    key: &[u8],
    cursor: &mut Cursor<N>,
    ranks: Range<usize>,
) -> Option<usize> {
    let (lo, hi) = (ranks.start, ranks.end);
    let summary = index.summary;
    // Word `word`'s bits of the ranks from `lo` on, once ANDed.
    let entry = |cursor: &mut Cursor<N>, word: usize| {
        if cursor.entry.0 != word {
            let row_word = summary + word;
            let bits = walk_rows(index, &cursor.at, row_word) & index.rest(key, row_word);
            cursor.entry = (word, bits);
        }
        cursor.entry.1 & u64::MAX << lo.saturating_sub(word * 64)
    };
    if summary == 0 {
        for word in lo / 64..hi.div_ceil(64) {
            let bits = entry(cursor, word);
            if bits != 0 {
                let rank = word * 64 + bits.trailing_zeros() as usize;
                return (rank < hi).then_some(rank);
            }
        }
        return None;
    }
    if lo >= hi {
        return None;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    for head in first / 64..=last / 64 {
        if cursor.head.0 != head {
            cursor.head = (head, walk_rows(index, &cursor.at, head));
        }
        let mut live = cursor.head.1 & u64::MAX << first.saturating_sub(head * 64);
        if head == last / 64 {
            live &= u64::MAX >> (63 - last % 64);
        }
        while live != 0 {
            let word = head * 64 + live.trailing_zeros() as usize;
            let bits = entry(cursor, word);
            if bits != 0 {
                let rank = word * 64 + bits.trailing_zeros() as usize;
                return (rank < hi).then_some(rank);
            }
            live &= live - 1;
        }
    }
    None
}

/// Readies `cursor` for a walk of `key`: reads the class of each of
/// `bytes` — the key's bytes at its first [`HELD`] kept positions — into
/// the word offset of the row it selects, and keeps word 0 of those rows,
/// ANDed, as the first summary word or, without a summary, the first entry
/// word. With no offsets to hold (`N` is 0: rows of one word), it ANDs the
/// rows of all of `bytes`.
#[inline(always)]
fn select<const N: usize>(
    index: &BitVector,
    key: &[u8],
    bytes: impl Iterator<Item = u8>,
    cursor: &mut Cursor<N>,
) {
    let mut acc = u64::MAX;
    if N == 0 {
        for (byte, class) in bytes.zip(index.class.chunks_exact(256)) {
            acc &= index.rows[class[usize::from(byte)] as usize];
        }
    } else {
        let classes = index.class.chunks_exact(256);
        for ((at, byte), class) in cursor.at.iter_mut().zip(bytes).zip(classes) {
            let row = class[usize::from(byte)] as usize;
            // Rows of one word and no summary are never read again.
            if index.stride() > 1 {
                *at = row;
            }
            acc &= index.rows[row];
        }
    }
    if index.summary == 0 {
        cursor.entry = (0, acc & index.rest(key, 0));
    } else {
        cursor.head = (0, acc);
        cursor.entry = (usize::MAX, 0);
    }
}

/// One step of the probe: word `word` of the rows the key selects at its
/// first [`HELD`] kept positions, ANDed — a summary word or an entry word,
/// by where `word` falls in the row — through their offsets in `at`.
#[inline(always)]
fn walk_rows<const N: usize>(index: &BitVector, at: &[usize; N], word: usize) -> u64 {
    let held = &at[..index.positions.len().min(HELD)];
    held.iter()
        .fold(u64::MAX, |acc, &row| acc & index.rows[row + word])
}

impl BitVector {
    /// The first kept position when the kept positions are one run of the
    /// key — every position, on a table no entry leaves a byte free, or
    /// positions 0–4 of a learned tree's eight — and `None` when they are
    /// scattered.
    fn run(&self) -> Option<usize> {
        let (&first, &last) = (self.positions.first()?, self.positions.last()?);
        (last - first + 1 == self.positions.len()).then_some(first)
    }

    /// A table's lookup of each key of the matrix, `width` bytes apart,
    /// into its slot of `out`: the walk over every rank, and `default` on
    /// a miss. Rows of one word hold no offsets: word 0 is read straight
    /// from the pass that reads the classes, and no offsets are zeroed.
    fn first_hits(&self, keys: &[u8], width: usize, default: Action, out: &mut [Probed]) {
        // Each key's walk is inlined into the per-key loop, so the cursor
        // stays in registers.
        if self.stride() == 1 {
            probe_batch::<0, Probed>(
                self,
                keys,
                width,
                out,
                #[inline(always)]
                |key, cursor, o| *o = self.first_hit(key, cursor, default),
            );
        } else {
            probe_batch::<HELD, Probed>(
                self,
                keys,
                width,
                out,
                #[inline(always)]
                |key, cursor, o| *o = self.first_hit(key, cursor, default),
            );
        }
    }

    /// The first match of `key` over every rank, which [`select`] readied
    /// `cursor` for, or `default` on a miss.
    #[inline(always)]
    fn first_hit<const N: usize>(
        &self,
        key: &[u8],
        cursor: &mut Cursor<N>,
        default: Action,
    ) -> Probed {
        match probe_key(self, key, cursor, 0..self.actions.len()) {
            Some(rank) => (self.actions[rank], LookupOutcome::Hit(rank as Rank)),
            None => (default, LookupOutcome::Miss),
        }
    }

    /// Word `word` of the rows `key` selects at the kept positions past the
    /// first [`HELD`], ANDed (all ones when there are none): read from the
    /// class map, for each entry word a probe checks for a match.
    #[inline(always)]
    fn rest(&self, key: &[u8], word: usize) -> u64 {
        let mut acc = u64::MAX;
        if self.positions.len() > HELD {
            let classes = self.class[HELD * 256..].chunks_exact(256);
            for (&pos, class) in self.positions[HELD..].iter().zip(classes) {
                acc &= self.rows[class[usize::from(key[pos])] as usize + word];
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::SourceClass;
    use crate::table::{EntryHandle, MatchSpec};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    fn table(kind: MatchKind, width: usize, capacity: usize) -> Table {
        Table::new("t", kind, KeyLayout::window(width), capacity, Action::NoOp)
    }

    #[test]
    fn exact_lookup_and_duplicate_keys() {
        let mut t = table(MatchKind::Exact, 2, 16);
        t.insert(MatchSpec::Exact(vec![1, 2]), Action::Drop, 5)
            .unwrap();
        // Lower-priority duplicate of the same key: shadowed by the first.
        t.insert(MatchSpec::Exact(vec![1, 2]), Action::Forward(7), 1)
            .unwrap();
        t.insert(MatchSpec::Exact(vec![3, 4]), Action::Mirror(2), 0)
            .unwrap();
        let c = CompiledTable::compile(&t);
        assert_eq!(c.strategy(), "bit-vector");
        assert_eq!(c.len(), 3);
        for key in [[1u8, 2], [3, 4], [9, 9]] {
            assert_eq!(c.peek(&key), t.peek(&key), "key {key:?}");
        }
        assert_eq!(c.peek(&[1, 2]), Action::Drop);
        assert_eq!(c.peek(&[9, 9]), Action::NoOp);
    }

    #[test]
    fn lpm_longest_prefix_first() {
        let mut t = table(MatchKind::Lpm, 2, 16);
        t.insert(
            MatchSpec::Lpm {
                value: vec![0xc0, 0x00],
                prefix_len: 8,
            },
            Action::Forward(1),
            0,
        )
        .unwrap();
        t.insert(
            MatchSpec::Lpm {
                value: vec![0xc0, 0xa8],
                prefix_len: 16,
            },
            Action::Forward(2),
            0,
        )
        .unwrap();
        t.insert(
            MatchSpec::Lpm {
                value: vec![0xa0, 0x00],
                prefix_len: 3,
            },
            Action::Forward(3),
            0,
        )
        .unwrap();
        let c = CompiledTable::compile(&t);
        assert_eq!(c.strategy(), "bit-vector");
        // Longest prefix wins, partial-byte prefixes mask correctly.
        assert_eq!(c.peek(&[0xc0, 0xa8]), Action::Forward(2));
        assert_eq!(c.peek(&[0xc0, 0x01]), Action::Forward(1));
        assert_eq!(c.peek(&[0xbf, 0xff]), Action::Forward(3)); // 101x_xxxx
        assert_eq!(c.peek(&[0x80, 0x00]), Action::NoOp);
        for hi in 0..=255u8 {
            let key = [hi, 0xa8];
            assert_eq!(c.peek(&key), t.peek(&key), "key {key:?}");
        }
    }

    #[test]
    fn range_index_respects_priority_among_overlaps() {
        let mut t = table(MatchKind::Range, 2, 16);
        t.insert(
            MatchSpec::Range {
                lo: vec![10, 0],
                hi: vec![20, 255],
            },
            Action::Forward(1),
            1,
        )
        .unwrap();
        t.insert(
            MatchSpec::Range {
                lo: vec![15, 0],
                hi: vec![30, 100],
            },
            Action::Drop,
            9,
        )
        .unwrap();
        let c = CompiledTable::compile(&t);
        assert_eq!(c.strategy(), "bit-vector");
        // Overlap region: the higher-priority entry wins.
        assert_eq!(c.peek(&[17, 50]), Action::Drop);
        // Covered only by the lower-priority entry (second byte too big).
        assert_eq!(c.peek(&[17, 200]), Action::Forward(1));
        assert_eq!(c.peek(&[25, 50]), Action::Drop);
        assert_eq!(c.peek(&[9, 50]), Action::NoOp);
        for b in 0..=255u8 {
            let key = [b, 80];
            assert_eq!(c.peek(&key), t.peek(&key), "key {key:?}");
        }
    }

    #[test]
    fn tuple_space_priority_ordering_and_ties() {
        let mut t = table(MatchKind::Ternary, 1, 16);
        t.insert(
            MatchSpec::Ternary {
                value: vec![0x10],
                mask: vec![0xf0],
            },
            Action::Forward(1),
            1,
        )
        .unwrap();
        t.insert(
            MatchSpec::Ternary {
                value: vec![0x17],
                mask: vec![0xff],
            },
            Action::Drop,
            9,
        )
        .unwrap();
        // Equal priority under a different mask: insertion order breaks the
        // tie, so the 0xf0 entry above must keep winning on 0x1_.
        t.insert(
            MatchSpec::Ternary {
                value: vec![0x01],
                mask: vec![0x0f],
            },
            Action::Mirror(5),
            1,
        )
        .unwrap();
        let c = CompiledTable::compile(&t);
        assert_eq!(c.peek(&[0x17]), Action::Drop);
        assert_eq!(c.peek(&[0x11]), Action::Forward(1));
        assert_eq!(c.peek(&[0x21]), Action::Mirror(5));
        for b in 0..=255u8 {
            assert_eq!(c.peek(&[b]), t.peek(&[b]), "key {b:#x}");
        }
    }

    #[test]
    fn ternary_mask_diversity_falls_back_to_scan() {
        let mut diverse = table(MatchKind::Ternary, 4, 64);
        let mut shared = table(MatchKind::Ternary, 4, 64);
        for i in 0..16u8 {
            // Every entry its own mask against every entry the same one:
            // the two shapes of ternary table, one engine.
            diverse
                .insert(
                    MatchSpec::Ternary {
                        value: vec![i, 0, 0, 0],
                        mask: vec![0xff, i, 0, 0],
                    },
                    Action::Drop,
                    1,
                )
                .unwrap();
            shared
                .insert(
                    MatchSpec::Ternary {
                        value: vec![i, 0, 0, 0],
                        mask: vec![0xff, 0xff, 0, 0],
                    },
                    Action::Drop,
                    1,
                )
                .unwrap();
        }
        for t in [&diverse, &shared] {
            let c = CompiledTable::compile(t);
            assert_eq!(c.peek(&[3, 0, 0, 0]), Action::Drop);
            for k in 0..=u16::MAX {
                let [a, b] = k.to_be_bytes();
                assert_eq!(c.peek(&[a, b, 0, 7]), t.peek(&[a, b, 0, 7]), "key {k:#06x}");
            }
        }
    }

    #[test]
    fn wrong_width_and_empty_tables_miss_to_default() {
        let mut t = Table::new(
            "t",
            MatchKind::Exact,
            KeyLayout::window(2),
            8,
            Action::Forward(4),
        );
        let empty = CompiledTable::compile(&t);
        assert!(empty.is_empty());
        assert_eq!(empty.peek(&[1, 2]), Action::Forward(4));
        t.insert(MatchSpec::Exact(vec![1, 2]), Action::Drop, 0)
            .unwrap();
        let c = CompiledTable::compile(&t);
        assert_eq!(c.peek(&[1]), Action::Forward(4));
        assert_eq!(c.peek(&[1, 2, 3]), Action::Forward(4));
        assert_eq!(c.peek(&[1, 2]), Action::Drop);
        assert_eq!(c.name(), "t");
        assert_eq!(c.kind(), MatchKind::Exact);
        assert_eq!(c.default_action(), Action::Forward(4));
        assert_eq!(c.key().width(), 2);
    }

    #[test]
    fn traced_lookup_reports_rank_and_outcome() {
        let mut t = table(MatchKind::Ternary, 1, 16);
        t.insert(
            MatchSpec::Ternary {
                value: vec![0x10],
                mask: vec![0xf0],
            },
            Action::Forward(1),
            9,
        )
        .unwrap();
        t.insert(
            MatchSpec::Ternary {
                value: vec![0x22],
                mask: vec![0xff],
            },
            Action::Drop,
            1,
        )
        .unwrap();
        let c = CompiledTable::compile(&t);
        let mut probe = [0u8; 1];
        // Rank is the frozen match-order index: priority 9 entry is rank 0.
        assert_eq!(
            c.lookup_traced(&[0x15], &mut probe),
            (Action::Forward(1), LookupOutcome::Hit(0))
        );
        assert_eq!(
            c.lookup_traced(&[0x22], &mut probe),
            (Action::Drop, LookupOutcome::Hit(1))
        );
        assert_eq!(
            c.lookup_traced(&[0x99], &mut probe),
            (Action::NoOp, LookupOutcome::Miss)
        );
        let mut wide = [0u8; 2];
        assert_eq!(
            c.lookup_traced(&[0x22, 0x00], &mut wide),
            (Action::NoOp, LookupOutcome::WrongWidth)
        );
        // Traced and untraced lookups agree on the action for every key.
        for b in 0..=255u8 {
            assert_eq!(
                c.lookup(&[b], &mut probe),
                c.lookup_traced(&[b], &mut probe).0
            );
        }
    }

    #[test]
    fn lookup_batch_matches_single_key_path_across_engines() {
        // One table per engine family; every 1-byte key checked both ways.
        let mut exact = table(MatchKind::Exact, 1, 32);
        let mut lpm = table(MatchKind::Lpm, 1, 32);
        let mut range = table(MatchKind::Range, 1, 32);
        let mut ternary = table(MatchKind::Ternary, 1, 32);
        for i in 0..8u8 {
            exact
                .insert(MatchSpec::Exact(vec![i * 31]), Action::Forward(i.into()), 0)
                .unwrap();
            lpm.insert(
                MatchSpec::Lpm {
                    value: vec![i << 5],
                    prefix_len: usize::from(i % 8) + 1,
                },
                Action::Forward(i.into()),
                0,
            )
            .unwrap();
            range
                .insert(
                    MatchSpec::Range {
                        lo: vec![i * 20],
                        hi: vec![i * 20 + 30],
                    },
                    Action::Forward(i.into()),
                    i.into(),
                )
                .unwrap();
            ternary
                .insert(
                    MatchSpec::Ternary {
                        value: vec![i],
                        mask: vec![if i % 2 == 0 { 0x0f } else { 0xf0 }],
                    },
                    Action::Forward(i.into()),
                    i.into(),
                )
                .unwrap();
        }
        for t in [&exact, &lpm, &range, &ternary] {
            let c = CompiledTable::compile(t);
            let keys: Vec<u8> = (0..=255u8).collect();
            let mut probe = [0u8; 1];
            let mut batch = vec![(Action::NoOp, LookupOutcome::Miss); keys.len()];
            c.lookup_batch(&keys, 1, &mut probe, &mut batch);
            for (b, &k) in keys.iter().enumerate() {
                assert_eq!(
                    batch[b],
                    c.lookup_traced(&[k], &mut probe),
                    "{} key {k:#x}",
                    c.strategy()
                );
            }
        }
    }

    #[test]
    fn lookup_batch_wrong_stride_reports_wrong_width() {
        let mut t = table(MatchKind::Exact, 2, 8);
        t.insert(MatchSpec::Exact(vec![1, 2]), Action::Drop, 0)
            .unwrap();
        let c = CompiledTable::compile(&t);
        let keys = [1u8, 2, 3];
        let mut probe = [0u8; 2];
        let mut out = [(Action::Drop, LookupOutcome::Miss); 3];
        c.lookup_batch(&keys, 1, &mut probe, &mut out);
        assert!(out
            .iter()
            .all(|&o| o == (Action::NoOp, LookupOutcome::WrongWidth)));
    }

    #[test]
    fn traced_rank_matches_across_engines() {
        // Both engines report the frozen match-order rank.
        let mut exact = table(MatchKind::Exact, 1, 8);
        exact
            .insert(MatchSpec::Exact(vec![7]), Action::Drop, 0)
            .unwrap();
        exact
            .insert(MatchSpec::Exact(vec![9]), Action::Forward(1), 0)
            .unwrap();
        let c = CompiledTable::compile(&exact);
        let mut probe = [0u8; 1];
        assert_eq!(c.lookup_traced(&[9], &mut probe).1, LookupOutcome::Hit(1));

        let mut range = table(MatchKind::Range, 1, 8);
        range
            .insert(
                MatchSpec::Range {
                    lo: vec![10],
                    hi: vec![20],
                },
                Action::Drop,
                1,
            )
            .unwrap();
        let c = CompiledTable::compile(&range);
        assert_eq!(c.lookup_traced(&[15], &mut probe).1, LookupOutcome::Hit(0));
    }

    fn builds() -> u64 {
        engine_builds()
    }

    /// `table` recompiled against `prev` through the patch path: no build,
    /// and an engine equal to a build over the same minimized entries.
    fn spliced(prev: &Arc<CompiledTable>, table: &Table) -> Arc<CompiledTable> {
        recompiled(prev, table, 0)
    }

    /// `table` recompiled against `prev` by a full compile, once.
    fn fell_back(prev: &Arc<CompiledTable>, table: &Table) -> Arc<CompiledTable> {
        recompiled(prev, table, 1)
    }

    /// `table` recompiled against `prev` with `built` engine builds, its
    /// engine equal to a build over its own minimized entries, and every
    /// entry's key — every key, on a one-byte table — answered as the
    /// table answers it.
    fn recompiled(prev: &Arc<CompiledTable>, table: &Table, built: u64) -> Arc<CompiledTable> {
        let before = builds();
        let next = CompiledTable::recompile(prev, table);
        assert_eq!(builds() - before, built, "engine builds of this delta");
        assert!(!Arc::ptr_eq(&next, prev), "the delta was not applied");
        assert_eq!(next.wildcard_form(), next.rebuilt().wildcard_form());
        let mut keys: Vec<Vec<u8>> = table.entries().iter().map(|e| key_of(&e.spec)).collect();
        if table.key().width() == 1 {
            keys.extend((0..=255u8).map(|b| vec![b]));
        }
        for key in keys {
            assert_eq!(next.peek(&key), table.peek(&key), "key {key:02x?}");
        }
        next
    }

    /// A key `spec` matches: an exact or ternary value, a range's low end.
    fn key_of(spec: &MatchSpec) -> Vec<u8> {
        match spec {
            MatchSpec::Exact(value) | MatchSpec::Ternary { value, .. } => value.clone(),
            MatchSpec::Range { lo, .. } => lo.clone(),
            MatchSpec::Lpm { .. } => unreachable!("no LPM table here"),
        }
    }

    /// A learned stage's shape: leaf boxes over 8 key bytes, each lowered
    /// to the cross product of its per-byte prefix covers, ≈ 2k entries
    /// over six of the positions, the `i`-th at `priority(i)`. The boxes
    /// are disjoint on byte 0 and each has an action of its own, so
    /// nothing shadows; at one priority each leaf folds back into its box,
    /// and with a priority per entry nothing folds.
    fn learned_stage(priority: impl Fn(usize) -> i32) -> Table {
        use p4guard_rules::ternary::range_to_prefixes;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        };
        let mut t = table(MatchKind::Ternary, 8, 4096);
        for leaf in 0..42u8 {
            let mut boxes = vec![(vec![0u8; 8], vec![0u8; 8])];
            for pos in 0..6 {
                let (lo, hi) = match pos {
                    0 => (leaf * 6, leaf * 6 + 5),
                    _ if next() % 3 == 0 => continue,
                    _ => {
                        let (a, b) = (next(), next());
                        (a.min(b), a.max(b))
                    }
                };
                let covers = range_to_prefixes(lo, hi);
                if boxes.len() * covers.len() > 96 {
                    continue;
                }
                boxes = boxes
                    .iter()
                    .flat_map(|(value, mask)| {
                        covers.iter().map(move |p| {
                            let (mut value, mut mask) = (value.clone(), mask.clone());
                            (value[pos], mask[pos]) = (p.value, p.mask);
                            (value, mask)
                        })
                    })
                    .collect();
            }
            for (value, mask) in boxes {
                let i = t.len();
                t.insert(
                    MatchSpec::Ternary { value, mask },
                    Action::Forward(leaf.into()),
                    priority(i),
                )
                .unwrap();
            }
        }
        t
    }

    /// The ledger's churn on a stage whose entries stay clean: the last
    /// 1 % of an unfolded learned stage removed and re-added, ten times,
    /// each publish spliced.
    #[test]
    fn a_one_percent_churn_never_builds() {
        let mut t = learned_stage(|i| -(i as i32));
        assert!((1500..2500).contains(&t.len()), "{} entries", t.len());
        let mut prev = Arc::new(CompiledTable::compile(&t));
        assert_eq!(prev.minimized_len(), t.len(), "nothing folds or shadows");
        let take = t.len() / 100;
        let mut delta: Vec<_> = t.entries()[t.len() - take..].to_vec();
        for _ in 0..10 {
            for e in &delta {
                t.remove(e.handle).unwrap();
            }
            prev = spliced(&prev, &t);
            for e in &mut delta {
                e.handle = t.insert(e.spec.clone(), e.action, e.priority).unwrap();
            }
            prev = spliced(&prev, &t);
            assert_eq!(prev.minimized_len(), t.len());
        }
    }

    /// [`vote_form`]'s answer.
    type VoteForm = (
        KeyLayout,
        Vec<usize>,
        Vec<Vec<u64>>,
        Vec<Action>,
        Vec<FusedStage>,
    );

    /// What a fused index answers, whatever its classes' numbering: the
    /// union key, the kept positions, the row each byte selects at each,
    /// the action by rank and where each stage's ranks lie.
    fn vote_form(vote: &VoteIndex) -> VoteForm {
        let index = &vote.index;
        let rows = index.class.iter();
        let rows = rows.map(|&at| index.rows[at as usize..][..index.stride()].to_vec());
        (
            vote.key.clone(),
            index.positions.clone(),
            rows.collect(),
            index.actions.clone(),
            vote.stages.clone(),
        )
    }

    /// The fused index over `tables`, each compiled afresh.
    fn vote_of(tables: &[&Table]) -> (VoteIndex, Vec<Arc<CompiledTable>>) {
        let stages: Vec<_> = tables
            .iter()
            .map(|t| Arc::new(CompiledTable::compile(t)))
            .collect();
        (VoteIndex::new(&stages, None), stages)
    }

    /// A vote's delta publish: each of `tables` — the tables behind
    /// `stages`, edited since — recompiled against its stage, then the
    /// fused index taken from `fused`. Checks that it answers as the index
    /// built afresh over the same stages, and returns it, the stages, and
    /// the engine builds of the stages and of the fused index.
    fn vote_publish(
        fused: &VoteIndex,
        stages: &[Arc<CompiledTable>],
        tables: &[&Table],
    ) -> (VoteIndex, Vec<Arc<CompiledTable>>, (u64, u64)) {
        let before = builds();
        let (next, edits): (Vec<_>, Vec<_>) = stages
            .iter()
            .zip(tables)
            .map(|(stage, t)| CompiledTable::recompile_with_edit(stage, t))
            .unzip();
        let compiled = builds();
        let index = VoteIndex::new(&next, Some((fused, stages, &edits)));
        let built = (compiled - before, builds() - compiled);
        assert_eq!(vote_form(&index), vote_form(&VoteIndex::new(&next, None)));
        (index, next, built)
    }

    /// A vote's delta publish: the ledger's churn on the first of three
    /// stages (the last 1 % of a folded learned stage removed and re-added,
    /// ten times), beside an unfolded stage of 2,000-odd rows, so the
    /// fused rows carry summaries and the ranks after the churned stage
    /// move. Each snapshot's fused index is spliced from the one before —
    /// the first removal cuts the churned stage's classes, and the splice
    /// cuts the fused ones by its fresh rows — and none builds an engine.
    #[test]
    fn a_vote_delta_publish_splices_the_fused_index() {
        let mut t = learned_stage(|_| 1);
        let others = [learned_stage(|i| -(i as i32)), learned_stage(|_| 2)];
        let (mut fused, mut stages) = vote_of(&[&t, &others[0], &others[1]]);
        assert!(fused.index.summary > 0, "{} words", fused.index.words);
        let take = t.len() / 100;
        let mut delta: Vec<_> = t.entries()[t.len() - take..].to_vec();
        for round in 0..20 {
            for e in &mut delta {
                if round % 2 == 0 {
                    t.remove(e.handle).unwrap();
                } else {
                    e.handle = t.insert(e.spec.clone(), e.action, e.priority).unwrap();
                }
            }
            let built;
            (fused, stages, built) = vote_publish(&fused, &stages, &[&t, &others[0], &others[1]]);
            assert_eq!(built, (0, 0), "round {round}");
        }
    }

    /// A delta whose fused rank total crosses a 64-rank word boundary, up
    /// and back down: the splice lays the rows out one word wider or
    /// narrower, without a build.
    #[test]
    fn a_vote_delta_across_a_word_boundary_never_builds() {
        let spec = |byte: u8| MatchSpec::Ternary {
            value: vec![byte, 0],
            mask: vec![0xff, 0],
        };
        let mut t = table(MatchKind::Ternary, 2, 128);
        for i in 0..60u8 {
            t.insert(spec(i), Action::Forward(u16::from(i % 4)), -i32::from(i))
                .unwrap();
        }
        let mut other = table(MatchKind::Ternary, 2, 8);
        other.insert(spec(7), Action::Drop, 1).unwrap();
        other.insert(spec(9), Action::Drop, 1).unwrap();
        let (fused, stages) = vote_of(&[&t, &other]);
        assert_eq!(fused.index.words, 1);
        let added: Vec<_> = (60..66u8)
            .map(|i| t.insert(spec(i), Action::Drop, -i32::from(i)).unwrap())
            .collect();
        let (fused, stages, built) = vote_publish(&fused, &stages, &[&t, &other]);
        assert_eq!((fused.index.words, built), (2, (0, 0)));
        for handle in added {
            t.remove(handle).unwrap();
        }
        let (fused, _, built) = vote_publish(&fused, &stages, &[&t, &other]);
        assert_eq!((fused.index.words, built), (1, (0, 0)));
    }

    /// A patched stage whose fresh row constrains a frame offset no stage
    /// keyed on: the union key grows, so the fused index is built once,
    /// while the stage itself is spliced. Removing the row again shrinks
    /// the key back, and builds once more.
    #[test]
    fn a_fresh_row_outside_the_union_key_builds_the_fused_index() {
        let spec = |value: [u8; 2], mask: [u8; 2]| MatchSpec::Ternary {
            value: value.to_vec(),
            mask: mask.to_vec(),
        };
        let mut t = table(MatchKind::Ternary, 2, 8);
        t.insert(spec([1, 0], [0xff, 0]), Action::Drop, 1).unwrap();
        let mut other = table(MatchKind::Ternary, 2, 8);
        other
            .insert(spec([2, 0], [0xff, 0]), Action::Forward(1), 1)
            .unwrap();
        let (fused, stages) = vote_of(&[&t, &other]);
        assert_eq!(fused.key.offsets(), [0]);
        let outside = t
            .insert(spec([3, 4], [0xff, 0xff]), Action::Drop, 0)
            .unwrap();
        let (fused, stages, built) = vote_publish(&fused, &stages, &[&t, &other]);
        assert_eq!(fused.key.offsets(), [0, 1]);
        assert_eq!(built, (0, 1));
        t.remove(outside).unwrap();
        let (fused, _, built) = vote_publish(&fused, &stages, &[&t, &other]);
        assert_eq!(fused.key.offsets(), [0]);
        assert_eq!(built, (0, 1));
    }

    /// A vote whose stages start empty — each engine keeps the last
    /// position of its key, which the fused index keeps too — and whose
    /// first stage is then replaced by a new table: that stage compiles
    /// afresh, and the fused index is built once.
    #[test]
    fn a_stage_replaced_by_a_new_table_builds_the_fused_index() {
        let (empty, other) = (
            table(MatchKind::Ternary, 1, 8),
            table(MatchKind::Ternary, 1, 8),
        );
        let (fused, stages) = vote_of(&[&empty, &other]);
        assert_eq!(fused.index.positions, [0]);
        let mut filled = table(MatchKind::Ternary, 1, 8);
        let spec = MatchSpec::Ternary {
            value: vec![0x80],
            mask: vec![0x80],
        };
        filled.insert(spec, Action::Drop, 1).unwrap();
        let (index, _, built) = vote_publish(&fused, &stages, &[&filled, &other]);
        assert_eq!(built, (1, 1));
        assert_eq!(index.index.positions, [0]);
    }

    /// The ledger's churn on a folded stage: the last 1 % of a learned
    /// stage at one priority removed and re-added, ten times, each publish
    /// spliced. The first removal cuts the leaf's row into pieces, each
    /// re-add folds the delta into rows of its own, and each later removal
    /// takes those rows away whole, so the rows stay as many round after
    /// round.
    #[test]
    fn a_one_percent_churn_on_a_folded_stage_never_builds() {
        let mut t = learned_stage(|_| 1);
        let mut prev = Arc::new(CompiledTable::compile(&t));
        let take = t.len() / 100;
        let mut delta: Vec<_> = t.entries()[t.len() - take..].to_vec();
        let mut steady = None;
        for _ in 0..10 {
            for e in &delta {
                t.remove(e.handle).unwrap();
            }
            prev = spliced(&prev, &t);
            for e in &delta {
                assert_eq!(prev.peek(&key_of(&e.spec)), t.peek(&key_of(&e.spec)));
            }
            for e in &mut delta {
                e.handle = t.insert(e.spec.clone(), e.action, e.priority).unwrap();
            }
            prev = spliced(&prev, &t);
            assert_eq!(
                *steady.get_or_insert(prev.minimized_len()),
                prev.minimized_len()
            );
        }
        let fresh = CompiledTable::compile(&t).minimized_len();
        assert!(
            prev.minimized_len() <= fresh + 8,
            "{} rows",
            prev.minimized_len()
        );
    }

    /// Removing a source the fold merged subtracts its box from its leaf's
    /// row, which gives way to at most one piece per key position; adding
    /// it back folds it into a row of its own at the end of the level, and
    /// removing that again takes the row away. No step builds.
    #[test]
    fn removing_a_folded_source_subtracts_its_box() {
        let mut t = learned_stage(|_| 1);
        let prev = Arc::new(CompiledTable::compile(&t));
        let rows = prev.minimized_len();
        assert!(rows <= 42 * 4, "{rows} rows");
        let last = t.entries()[t.len() - 1].clone();
        let class = prev.minimized().class_of(last.handle);
        assert_eq!(class, Some(SourceClass::Merged));
        t.remove(last.handle).unwrap();
        let next = spliced(&prev, &t);
        let cut = next.minimized_len();
        assert!((rows..rows + 8).contains(&cut), "{rows} rows, {cut} cut");
        let key = key_of(&last.spec);
        assert_eq!(next.peek(&key), t.peek(&key));
        let handle = t.insert(last.spec.clone(), last.action, 1).unwrap();
        let next = spliced(&next, &t);
        assert_eq!(next.minimized_len(), cut + 1);
        t.remove(handle).unwrap();
        let next = spliced(&next, &t);
        assert_eq!(next.minimized_len(), cut);
    }

    /// Exact keys of one action and priority added in one publish fold
    /// among themselves into one row, as additions to any table do, and
    /// answer every key as a fresh compile does, which folds the old key in
    /// too. The old key's row was never folded, so the patch that folds the
    /// added keys checks the whole level once, finds it disjoint, and
    /// removing one added key subtracts it from its row.
    #[test]
    fn exact_keys_added_together_fold_into_one_row() {
        let mut t = table(MatchKind::Exact, 1, 16);
        t.insert(MatchSpec::Exact(vec![1]), Action::Drop, 1)
            .unwrap();
        let prev = Arc::new(CompiledTable::compile(&t));
        let added: Vec<_> = (5..9u8)
            .map(|key| {
                t.insert(MatchSpec::Exact(vec![key]), Action::Drop, 1)
                    .unwrap()
            })
            .collect();
        let next = spliced(&prev, &t);
        let fresh = CompiledTable::compile(&t);
        assert_eq!(next.minimized_len(), 2);
        assert_eq!(fresh.minimized_len(), 1);
        for key in 0..=255u8 {
            assert_eq!(next.peek(&[key]), fresh.peek(&[key]), "key {key}");
        }
        assert_eq!(
            next.minimized().class_of(added[1]),
            Some(SourceClass::Merged)
        );
        t.remove(added[1]).unwrap();
        let next = spliced(&next, &t);
        assert_eq!(next.minimized_len(), 2);
        assert_eq!(next.peek(&[6]), Action::NoOp);
    }

    /// Boxes that fold while their sources overlap: `{0, 1}`, `{1}` and
    /// `{2}` make one row of three keys for four keys of sources, so the
    /// level is not known to be disjoint, and removing `{1}` — whose key
    /// `{0, 1}` still matches — takes the full compile.
    #[test]
    fn removing_an_overlapping_folded_source_takes_the_full_compile() {
        let mut t = table(MatchKind::Ternary, 1, 16);
        let spec = |value, mask| MatchSpec::Ternary {
            value: vec![value],
            mask: vec![mask],
        };
        t.insert(spec(0x00, 0xfe), Action::Drop, 1).unwrap();
        let one = t.insert(spec(0x01, 0xff), Action::Drop, 1).unwrap();
        t.insert(spec(0x02, 0xff), Action::Drop, 1).unwrap();
        let prev = Arc::new(CompiledTable::compile(&t));
        assert_eq!(prev.minimized_len(), 1);
        assert_eq!(prev.minimized().class_of(one), Some(SourceClass::Merged));
        t.remove(one).unwrap();
        let next = fell_back(&prev, &t);
        assert_eq!(next.peek(&[0x01]), Action::Drop);
    }

    /// A folded row that shadows an eliminated entry: removing any of its
    /// sources could bring the shadowed one back, so it takes the full
    /// compile, and the key of the part removed falls through to it.
    #[test]
    fn removing_a_source_of_a_folded_coverer_takes_the_full_compile() {
        let mut t = table(MatchKind::Ternary, 1, 16);
        let spec = |value, mask| MatchSpec::Ternary {
            value: vec![value],
            mask: vec![mask],
        };
        let low = t.insert(spec(0x00, 0xf0), Action::Drop, 2).unwrap();
        t.insert(spec(0x10, 0xf0), Action::Drop, 2).unwrap();
        t.insert(spec(0x05, 0xff), Action::Forward(1), 1).unwrap();
        let prev = Arc::new(CompiledTable::compile(&t));
        assert_eq!(prev.minimized_len(), 1);
        assert_eq!(prev.minimized().class_of(low), Some(SourceClass::Coverer));
        t.remove(low).unwrap();
        let next = fell_back(&prev, &t);
        assert_eq!(next.peek(&[0x05]), Action::Forward(1));
    }

    /// An action modified in place on a folded stage takes the full
    /// compile.
    #[test]
    fn an_action_change_takes_the_full_compile() {
        let mut t = learned_stage(|_| 1);
        let prev = Arc::new(CompiledTable::compile(&t));
        let last = t.entries()[t.len() - 1].handle;
        t.modify(last, Action::Drop).unwrap();
        fell_back(&prev, &t);
    }

    /// Every entry removed and inserted again, through `recompile`: the
    /// level's rows go without a subtraction, the added entries fold, and
    /// the stage ends as folded as a fresh compile leaves it.
    #[test]
    fn a_wholesale_reinstall_folds_as_a_fresh_compile() {
        let mut t = learned_stage(|_| 1);
        let prev = Arc::new(CompiledTable::compile(&t));
        let entries = t.entries().to_vec();
        t.clear();
        for e in &entries {
            t.insert(e.spec.clone(), e.action, e.priority).unwrap();
        }
        let next = spliced(&prev, &t);
        let fresh = CompiledTable::compile(&t);
        assert_eq!(next.minimized_len(), fresh.minimized_len());
        assert_eq!(next.minimized_len(), prev.minimized_len());
    }

    /// An added entry that accepts part of a class splits it; the class
    /// count at the position grows, and each part keeps its old entries.
    #[test]
    fn a_class_cutting_add_never_builds() {
        for ranges in [false, true] {
            let kind = if ranges {
                MatchKind::Range
            } else {
                MatchKind::Ternary
            };
            let spec = |lo: [u8; 2], hi: [u8; 2]| {
                if ranges {
                    MatchSpec::Range {
                        lo: lo.to_vec(),
                        hi: hi.to_vec(),
                    }
                } else {
                    // Only aligned blocks are asked for as masks.
                    let mask = [!(hi[0] - lo[0]), !(hi[1] - lo[1])];
                    MatchSpec::Ternary {
                        value: lo.to_vec(),
                        mask: mask.to_vec(),
                    }
                }
            };
            let mut t = table(kind, 2, 64);
            t.insert(spec([0x00, 0x00], [0x3f, 0xff]), Action::Forward(1), 2)
                .unwrap();
            t.insert(spec([0x40, 0x10], [0x7f, 0x1f]), Action::Forward(2), 1)
                .unwrap();
            let prev = Arc::new(CompiledTable::compile(&t));
            // 0x20..=0x2f lies inside the first entry's class at byte 0.
            t.insert(spec([0x20, 0x00], [0x2f, 0xff]), Action::Drop, 1)
                .unwrap();
            let next = spliced(&prev, &t);
            let rows = |c: &CompiledTable| c.engine.partitions[0].count;
            assert!(rows(&next) > rows(&prev), "no class was cut");
            assert_eq!(next.peek(&[0x21, 0x00]), Action::Forward(1));
            assert_eq!(next.peek(&[0x90, 0x00]), Action::NoOp);
        }
    }

    /// Removing the one entry that constrains a position drops the
    /// position, and adding one back brings it back, neither by a build.
    #[test]
    fn a_position_freeing_removal_never_builds() {
        let mut t = table(MatchKind::Ternary, 3, 64);
        for i in 0..8u8 {
            t.insert(
                MatchSpec::Ternary {
                    value: vec![i, i * 3, 0],
                    mask: vec![0xff, 0xf0, 0],
                },
                Action::Forward(i.into()),
                1,
            )
            .unwrap();
        }
        let last = MatchSpec::Ternary {
            value: vec![9, 0, 0x42],
            mask: vec![0xff, 0, 0xff],
        };
        let handle = t.insert(last.clone(), Action::Drop, 0).unwrap();
        let mut prev = Arc::new(CompiledTable::compile(&t));
        assert_eq!(prev.engine.positions, [0, 1, 2]);
        t.remove(handle).unwrap();
        prev = spliced(&prev, &t);
        assert_eq!(prev.engine.positions, [0, 1]);
        t.insert(last, Action::Drop, 0).unwrap();
        prev = spliced(&prev, &t);
        assert_eq!(prev.engine.positions, [0, 1, 2]);
        t.clear();
        prev = spliced(&prev, &t);
        assert_eq!(prev.engine.positions, [2]);
        assert_eq!(prev.peek(&[9, 0, 0x42]), Action::NoOp);
    }

    /// A table untouched since its compile, or a clone of it, comes back as
    /// the very same `Arc`; two clones edited apart never do, whichever one
    /// was compiled.
    #[test]
    fn only_an_untouched_table_comes_back_shared() {
        let mut t = table(MatchKind::Ternary, 1, 16);
        fn spec(value: u8) -> MatchSpec {
            MatchSpec::Ternary {
                value: vec![value],
                mask: vec![0xf0],
            }
        }
        let first = t.insert(spec(0x10), Action::Forward(1), 1).unwrap();
        t.insert(spec(0x20), Action::Forward(2), 1).unwrap();
        let prev = Arc::new(CompiledTable::compile(&t));
        assert!(Arc::ptr_eq(&CompiledTable::recompile(&prev, &t), &prev));
        assert!(Arc::ptr_eq(
            &CompiledTable::recompile(&prev, &t.clone()),
            &prev
        ));
        let edits: [fn(&mut Table, EntryHandle); 4] = [
            |t, h| t.modify(h, Action::Drop).unwrap(),
            |t, h| t.modify(h, Action::Mirror(3)).unwrap(),
            |t, h| {
                t.remove(h).unwrap();
            },
            |t, _| {
                t.insert(spec(0x30), Action::Drop, 2).unwrap();
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            for other in &edits[i + 1..] {
                let (mut a, mut b) = (t.clone(), t.clone());
                edit(&mut a, first);
                other(&mut b, first);
                assert_ne!(a.revision(), b.revision());
                for (from, to) in [(&a, &b), (&b, &a)] {
                    let compiled = Arc::new(CompiledTable::compile(from));
                    let next = CompiledTable::recompile(&compiled, to);
                    assert!(
                        !Arc::ptr_eq(&next, &compiled),
                        "an edited clone looked unchanged"
                    );
                    for key in 0..=255u8 {
                        assert_eq!(next.peek(&[key]), to.peek(&[key]), "key {key:#x}");
                    }
                }
            }
        }
    }

    /// The fill `BitVector::build` replaced, kept as its reference: every
    /// entry's bit set row by row, through its accepted bytes or the
    /// classes, whichever is fewer, and the entries that leave a position
    /// free ORed into every row at the end — at the positions some entry
    /// constrains, or at the last one when none is.
    fn per_entry_fill(entries: &[MinEntry], width: usize) -> BitVector {
        let n = entries.len();
        let words = n.div_ceil(64).max(1);
        let summary = if words > 4 { words.div_ceil(64) } else { 0 };
        let stride = summary + words;
        // Position-major copy of what each entry accepts, so the passes
        // below run over contiguous columns instead of chasing every
        // entry's spec once per position.
        let mut accepts = vec![ByteSet::ANY; width * n];
        for (rank, entry) in entries.iter().enumerate() {
            for pos in 0..width {
                accepts[pos * n + rank] = entry.sets[pos];
            }
        }
        let mut class = Vec::with_capacity(width * 256);
        let mut rows: Vec<u64> = Vec::new();
        // Sets already refined over at the current position.
        let mut seen = std::collections::HashSet::new();
        // Entries that leave the current position free, as a row.
        let mut any = vec![0u64; words];
        let (mut partitions, mut member_sets) = (Vec::new(), Vec::new());
        let mut positions: Vec<usize> = (0..width)
            .filter(|&pos| accepts[pos * n..][..n].iter().any(|a| !a.is_any()))
            .collect();
        if positions.is_empty() {
            positions.extend(width.checked_sub(1));
        }
        for &pos in &positions {
            let column = &accepts[pos * n..][..n];
            let mut classes = Classes::new();
            for &accept in column {
                if !accept.is_any() && seen.insert(accept) {
                    classes.refine(accept);
                }
            }
            seen.clear();

            let base = rows.len();
            rows.resize(base + classes.count() * stride, 0);
            class.extend(
                classes
                    .of
                    .iter()
                    .map(|&of| (base + usize::from(of) * stride) as u32),
            );

            // Each entry's bit goes into the rows of the classes it accepts
            // — found by walking its accept set or the classes, whichever
            // is fewer — except that an entry leaving the position free is
            // in every row: those collect in `any`, ORed in at the end.
            let rows = &mut rows[base..];
            any.fill(0);
            // One member of each class to stand for all of them, found the
            // first time an entry walks the classes.
            let mut members: Option<[u8; 256]> = None;
            for (rank, &accept) in column.iter().enumerate() {
                let (word, bit) = (rank / 64, 1u64 << (rank % 64));
                if accept.is_any() {
                    any[word] |= bit;
                } else if accept.len() <= classes.count() {
                    for byte in accept.bytes() {
                        let of = usize::from(classes.of[usize::from(byte)]);
                        rows[of * stride + summary + word] |= bit;
                    }
                } else {
                    let members = members.get_or_insert_with(|| {
                        let mut members = [0; 256];
                        for (byte, &of) in (0..=255).zip(&classes.of) {
                            members[usize::from(of)] = byte;
                        }
                        members
                    });
                    for (of, &byte) in members[..classes.count()].iter().enumerate() {
                        if accept.contains(byte) {
                            rows[of * stride + summary + word] |= bit;
                        }
                    }
                }
            }
            // The same pass summarises each finished row, one bit per entry
            // word; a row of at most four words has none to fill.
            for row in rows.chunks_exact_mut(stride) {
                let (head, bits) = row.split_at_mut(summary);
                for (word, &any) in bits.iter_mut().zip(&any) {
                    *word |= any;
                }
                for (w, &word) in bits.iter().enumerate() {
                    if word != 0 && summary > 0 {
                        head[w / 64] |= 1 << (w % 64);
                    }
                }
            }
            partitions.push(Partition {
                of: classes.of,
                count: classes.count(),
            });
            member_sets.extend_from_slice(&classes.members);
        }
        BitVector {
            positions,
            words,
            summary,
            class,
            rows,
            actions: entries.iter().map(|e| e.action).collect(),
            partitions,
            members: member_sets,
        }
    }

    /// A per-byte pool of accepted sets: free, exact, prefix and scattered
    /// masks, a point, an arbitrary interval, and a union no mask or
    /// interval makes — as a fold leaves it. An exact byte and a point
    /// are one set, made two ways.
    fn accepts(a: u8, b: u8, sel: u8) -> ByteSet {
        match sel % 9 {
            0 => ByteSet::ANY,
            1 => ByteSet::masked(0xff, a),
            2 => ByteSet::masked(0xf0, a),
            3 => ByteSet::masked(0xfe, a),
            4 => ByteSet::masked(0x5a, a),
            5 => ByteSet::masked(0x80, a),
            6 => ByteSet::between(a, a),
            7 => ByteSet::between(a.min(b), a.max(b)),
            _ => ByteSet::between(a.min(b), a.max(b)).union(ByteSet::masked(0x5a, b)),
        }
    }

    proptest! {
        /// The fill over distinct accepted sets builds the very positions,
        /// rows, class map and summaries the per-entry fill did, on random
        /// tables of up to ~600 rows (past the summary threshold) mixing
        /// masks, intervals and folded unions, in which every entry leaves
        /// a random set of the positions free (none, some or all).
        #[test]
        fn build_matches_the_per_entry_fill(
            width in 1usize..=4,
            free in pvec(any::<bool>(), 4),
            rows in pvec(
                (pvec(any::<u8>(), 4), pvec(any::<u8>(), 4), pvec(0u8..9, 4), 0u16..4),
                0..600,
            ),
        ) {
            let entries: Vec<MinEntry> = rows
                .iter()
                .enumerate()
                .map(|(i, (a, b, sel, port))| {
                    let sets = (0..width)
                        .map(|p| accepts(a[p], b[p], if free[p] { 0 } else { sel[p] }))
                        .collect();
                    let action = Action::Forward(*port);
                    MinEntry { sets, action, priority: 0, order: i as u64 }
                })
                .collect();
            let built = BitVector::build(&entries, width);
            let reference = per_entry_fill(&entries, width);
            prop_assert_eq!(&built.positions, &reference.positions);
            prop_assert_eq!(built.words, reference.words);
            prop_assert_eq!(built.summary, reference.summary);
            prop_assert_eq!(&built.class, &reference.class);
            prop_assert_eq!(&built.rows, &reference.rows);
            prop_assert_eq!(&built.actions, &reference.actions);
            prop_assert_eq!(&built.partitions, &reference.partitions);
            prop_assert_eq!(&built.members, &reference.members);
        }
    }
}
