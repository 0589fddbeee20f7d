//! Match-action tables: exact, ternary, LPM and range match kinds, entry
//! lifecycle with handles, and capacity enforcement. A table counts
//! nothing: hits and misses are tallied per stage in `SwitchCounters`.

use crate::action::Action;
use crate::key::KeyLayout;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Match kinds supported by a table, mirroring P4 `match_kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchKind {
    /// Exact value match.
    Exact,
    /// Value/mask match (TCAM).
    Ternary,
    /// Longest-prefix match over the whole key.
    Lpm,
    /// Per-byte inclusive range match.
    Range,
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MatchKind::Exact => "exact",
            MatchKind::Ternary => "ternary",
            MatchKind::Lpm => "lpm",
            MatchKind::Range => "range",
        };
        write!(f, "{s}")
    }
}

/// The match portion of one table entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchSpec {
    /// Exact bytes.
    Exact(Vec<u8>),
    /// Ternary value/mask.
    Ternary {
        /// Match value.
        value: Vec<u8>,
        /// Match mask (`1` bits compared).
        mask: Vec<u8>,
    },
    /// Prefix of `prefix_len` bits over the concatenated key.
    Lpm {
        /// Prefix value.
        value: Vec<u8>,
        /// Prefix length in bits.
        prefix_len: usize,
    },
    /// Per-byte inclusive `[lo, hi]` ranges.
    Range {
        /// Lower bounds.
        lo: Vec<u8>,
        /// Upper bounds.
        hi: Vec<u8>,
    },
}

impl MatchSpec {
    /// The match kind this spec belongs in.
    pub fn kind(&self) -> MatchKind {
        match self {
            MatchSpec::Exact(_) => MatchKind::Exact,
            MatchSpec::Ternary { .. } => MatchKind::Ternary,
            MatchSpec::Lpm { .. } => MatchKind::Lpm,
            MatchSpec::Range { .. } => MatchKind::Range,
        }
    }

    /// Key width in bytes.
    pub fn width(&self) -> usize {
        match self {
            MatchSpec::Exact(v) => v.len(),
            MatchSpec::Ternary { value, .. } => value.len(),
            MatchSpec::Lpm { value, .. } => value.len(),
            MatchSpec::Range { lo, .. } => lo.len(),
        }
    }

    /// Returns `true` if `key` satisfies the spec. A key whose width
    /// differs from the spec's never matches: without the up-front check
    /// the ternary/range `zip`s would silently truncate to the shorter
    /// side and the LPM arm would index out of bounds.
    pub fn matches(&self, key: &[u8]) -> bool {
        if key.len() != self.width() {
            return false;
        }
        match self {
            MatchSpec::Exact(v) => key == v.as_slice(),
            MatchSpec::Ternary { value, mask } => key
                .iter()
                .zip(value)
                .zip(mask)
                .all(|((&k, &v), &m)| k & m == v & m),
            MatchSpec::Lpm { value, prefix_len } => {
                let full = prefix_len / 8;
                if key[..full] != value[..full] {
                    return false;
                }
                let rem = prefix_len % 8;
                if rem == 0 {
                    return true;
                }
                let m = 0xffu8 << (8 - rem);
                key[full] & m == value[full] & m
            }
            MatchSpec::Range { lo, hi } => key
                .iter()
                .zip(lo)
                .zip(hi)
                .all(|((&k, &l), &h)| k >= l && k <= h),
        }
    }

    /// Effective match priority for LPM (prefix length); `None` otherwise.
    fn lpm_priority(&self) -> Option<i32> {
        match self {
            MatchSpec::Lpm { prefix_len, .. } => Some(*prefix_len as i32),
            _ => None,
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            MatchSpec::Exact(_) => Ok(()),
            MatchSpec::Ternary { value, mask } => {
                if value.len() != mask.len() {
                    Err("ternary value/mask width mismatch".into())
                } else {
                    Ok(())
                }
            }
            MatchSpec::Lpm { value, prefix_len } => {
                if *prefix_len > value.len() * 8 {
                    Err(format!(
                        "lpm prefix {} exceeds key bits {}",
                        prefix_len,
                        value.len() * 8
                    ))
                } else {
                    Ok(())
                }
            }
            MatchSpec::Range { lo, hi } => {
                if lo.len() != hi.len() {
                    return Err("range lo/hi width mismatch".into());
                }
                if lo.iter().zip(hi).any(|(&l, &h)| l > h) {
                    return Err("range with lo > hi".into());
                }
                Ok(())
            }
        }
    }
}

/// The bits of key byte `pos` a `prefix_len`-bit prefix fixes: all of a
/// byte the prefix covers, its leading `prefix_len % 8` bits on the byte
/// it ends in, none past it.
pub(crate) fn prefix_mask(prefix_len: usize, pos: usize) -> u8 {
    (0xff00u16 >> prefix_len.saturating_sub(8 * pos).min(8)) as u8
}

/// The fingerprint of the ternary rule `(value, mask, priority)` over
/// `(priority, mask, value & mask)`: two specs
/// [`Table::remove_matching`] takes for one rule always share it, and two
/// it tells apart rarely do.
fn fingerprint(value: &[u8], mask: &[u8], priority: i32) -> u64 {
    let seed = u64::from(priority as u32) | (value.len() as u64) << 32;
    value.iter().zip(mask).fold(seed, |h, (&v, &m)| {
        let pair = u64::from(u16::from_le_bytes([v & m, m]));
        (h.rotate_left(5) ^ pair).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Stable handle to an installed entry, unique within one table and its
/// clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EntryHandle(pub u64);

/// Identity of one table and its clones: [`Table::new`] (and a table read
/// back from its serialized form) takes a fresh one, `Clone` keeps it.
/// Handles restart at 1 in every new table, so an [`EntryHandle`] names an
/// entry only together with its table's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TableId(u64);

impl TableId {
    fn fresh() -> TableId {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        TableId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A table's revision: [`Table::new`] (and a table read back from its
/// serialized form) takes a fresh one, every edit takes another, and
/// `Clone` keeps it. Revisions come from one process-wide counter, so two
/// tables — clones of one edited apart included — never share one after
/// either is edited, and a table whose revision is the one it was compiled
/// at is unchanged since.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Revision(u64);

impl Revision {
    fn fresh() -> Revision {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Revision(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// One installed entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableEntry {
    /// Handle assigned at insertion.
    pub handle: EntryHandle,
    /// The match spec.
    pub spec: MatchSpec,
    /// Action on hit.
    pub action: Action,
    /// Priority; higher wins (for LPM the prefix length is used instead).
    pub priority: i32,
}

impl TableEntry {
    /// This entry's row of [`Table::index`]. A ternary entry's fingerprint
    /// is [`fingerprint`]'s; every other kind's is 0, and
    /// [`Table::remove_ternary`] never removes it.
    fn index(&self) -> EntryIndex {
        let fingerprint = match &self.spec {
            MatchSpec::Ternary { value, mask } => fingerprint(value, mask, self.priority),
            _ => 0,
        };
        EntryIndex {
            handle: self.handle,
            action: self.action,
            fingerprint,
        }
    }
}

/// One entry's row of [`Table::index`]: what a delta publish reads of
/// every entry, 24 bytes beside the entry's 72 (whose spec is on the heap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryIndex {
    /// The entry's handle.
    pub handle: EntryHandle,
    /// The entry's action.
    pub action: Action,
    /// The fingerprint of the entry's `(priority, mask, value & mask)`.
    fingerprint: u64,
}

/// Errors returned by table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The table is at capacity.
    Full {
        /// Configured capacity.
        capacity: usize,
    },
    /// The entry's match kind differs from the table's.
    KindMismatch {
        /// Table kind.
        table: MatchKind,
        /// Entry kind.
        entry: MatchKind,
    },
    /// The entry key width differs from the table's.
    WidthMismatch {
        /// Table width in bytes.
        table: usize,
        /// Entry width in bytes.
        entry: usize,
    },
    /// The spec is internally inconsistent.
    InvalidSpec(String),
    /// No entry with the given handle.
    NoSuchEntry(EntryHandle),
    /// The pipeline has no stage with the given index.
    NoSuchStage {
        /// Requested stage index.
        stage: usize,
        /// Number of stages in the pipeline.
        stages: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Full { capacity } => write!(f, "table full at {capacity} entries"),
            TableError::KindMismatch { table, entry } => {
                write!(f, "match-kind mismatch: table is {table}, entry is {entry}")
            }
            TableError::WidthMismatch { table, entry } => {
                write!(
                    f,
                    "key-width mismatch: table is {table} bytes, entry is {entry}"
                )
            }
            TableError::InvalidSpec(m) => write!(f, "invalid match spec: {m}"),
            TableError::NoSuchEntry(h) => write!(f, "no entry with handle {}", h.0),
            TableError::NoSuchStage { stage, stages } => {
                write!(f, "no stage {stage} in a {stages}-stage pipeline")
            }
        }
    }
}

impl Error for TableError {}

/// A match-action table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    #[serde(skip)]
    id: TableId,
    #[serde(skip)]
    revision: Revision,
    name: String,
    kind: MatchKind,
    key: KeyLayout,
    capacity: usize,
    default_action: Action,
    entries: Vec<TableEntry>,
    /// Each entry's [`EntryIndex`], in step with `entries` after every
    /// edit. Not serialized: a table read back rebuilds it.
    #[serde(skip)]
    index: Vec<EntryIndex>,
    next_handle: u64,
}

/// What a [`Table`] serializes. Read back, it takes a fresh identity and
/// revision, and its index column is rebuilt from the entries.
#[derive(Deserialize)]
struct Stored {
    name: String,
    kind: MatchKind,
    key: KeyLayout,
    capacity: usize,
    default_action: Action,
    entries: Vec<TableEntry>,
    next_handle: u64,
}

impl Deserialize for Table {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let Stored {
            name,
            kind,
            key,
            capacity,
            default_action,
            entries,
            next_handle,
        } = Stored::from_value(v)?;
        Ok(Table {
            id: TableId::fresh(),
            revision: Revision::fresh(),
            name,
            kind,
            key,
            capacity,
            default_action,
            index: entries.iter().map(TableEntry::index).collect(),
            entries,
            next_handle,
        })
    }
}

impl Table {
    /// Creates a table.
    pub fn new(
        name: impl Into<String>,
        kind: MatchKind,
        key: KeyLayout,
        capacity: usize,
        default_action: Action,
    ) -> Self {
        Table {
            id: TableId::fresh(),
            revision: Revision::fresh(),
            name: name.into(),
            kind,
            key,
            capacity,
            default_action,
            entries: Vec::new(),
            index: Vec::new(),
            next_handle: 1,
        }
    }

    /// This table's identity (see [`TableId`]).
    pub(crate) fn id(&self) -> TableId {
        self.id
    }

    /// This table's revision (see [`Revision`]).
    pub(crate) fn revision(&self) -> Revision {
        self.revision
    }

    /// Table name.
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

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Installed entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Borrows the entries, match order first.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Each entry's handle, action and fingerprint, in match order: the
    /// column a delta publish walks instead of the entries.
    pub fn index(&self) -> &[EntryIndex] {
        &self.index
    }

    /// The default action.
    pub fn default_action(&self) -> Action {
        self.default_action
    }

    /// Installs an entry, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns an error if the table is full or the spec is incompatible.
    pub fn insert(
        &mut self,
        spec: MatchSpec,
        action: Action,
        priority: i32,
    ) -> Result<EntryHandle, TableError> {
        if self.entries.len() >= self.capacity {
            return Err(TableError::Full {
                capacity: self.capacity,
            });
        }
        if spec.kind() != self.kind {
            return Err(TableError::KindMismatch {
                table: self.kind,
                entry: spec.kind(),
            });
        }
        if spec.width() != self.key.width() {
            return Err(TableError::WidthMismatch {
                table: self.key.width(),
                entry: spec.width(),
            });
        }
        spec.validate().map_err(TableError::InvalidSpec)?;
        let effective_priority = spec.lpm_priority().unwrap_or(priority);
        let handle = EntryHandle(self.next_handle);
        self.next_handle += 1;
        let entry = TableEntry {
            handle,
            spec,
            action,
            priority: effective_priority,
        };
        let at = self
            .entries
            .partition_point(|e| e.priority >= effective_priority);
        self.index.insert(at, entry.index());
        self.entries.insert(at, entry);
        self.revision = Revision::fresh();
        Ok(handle)
    }

    /// Removes an entry by handle.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::NoSuchEntry`] for unknown handles.
    pub fn remove(&mut self, handle: EntryHandle) -> Result<TableEntry, TableError> {
        let idx = self.at(handle).ok_or(TableError::NoSuchEntry(handle))?;
        Ok(self.remove_at(idx))
    }

    /// Where the entry of `handle` sits in the match order.
    fn at(&self, handle: EntryHandle) -> Option<usize> {
        self.index.iter().position(|i| i.handle == handle)
    }

    /// Removes the entry at `idx` of the match order.
    fn remove_at(&mut self, idx: usize) -> TableEntry {
        self.index.remove(idx);
        self.revision = Revision::fresh();
        self.entries.remove(idx)
    }

    /// Removes the first entry whose spec and effective priority equal the
    /// given pair, returning its handle, or `None` if no entry matches.
    ///
    /// This is the removal primitive for diff-driven updates, where the
    /// caller knows what was installed but not which handle it received.
    /// Ternary specs compare under the mask (`value & mask`), matching
    /// [`RuleSet::diff`](p4guard_rules::RuleSet::diff)'s normalization —
    /// a diff-reported removal finds the installed entry even when the
    /// installer encoded uncared value bits differently.
    pub fn remove_matching(&mut self, spec: &MatchSpec, priority: i32) -> Option<EntryHandle> {
        let effective_priority = spec.lpm_priority().unwrap_or(priority);
        let same_spec = |installed: &MatchSpec| match (installed, spec) {
            (
                MatchSpec::Ternary {
                    value: iv,
                    mask: im,
                },
                MatchSpec::Ternary {
                    value: sv,
                    mask: sm,
                },
            ) => {
                im == sm
                    && iv.len() == sv.len()
                    && iv
                        .iter()
                        .zip(sv)
                        .zip(im)
                        .all(|((&a, &b), &m)| a & m == b & m)
            }
            (a, b) => a == b,
        };
        let idx = self
            .entries
            .iter()
            .position(|e| e.priority == effective_priority && same_spec(&e.spec))?;
        Some(self.remove_at(idx).handle)
    }

    /// Removes, in one pass, the ternary entries `rules` name as
    /// `(value, mask, priority)`, compared as [`Table::remove_matching`]
    /// compares a ternary spec: where `k` rules share a
    /// `(value & mask, mask, priority)`, the first `k` entries with it go,
    /// as `k` calls of `remove_matching` would take them. A rule no entry
    /// matches is skipped. Returns how many entries went.
    ///
    /// The pass reads each entry's fingerprint of
    /// `(priority, mask, value & mask)` from [`Table::index`] and tests it
    /// against a 4,096-bit filter of the rules' fingerprints (one bit per
    /// value of their low 12 bits); only a fingerprint whose bit is set is
    /// searched for among the rules, and only one equal to a rule's reaches
    /// for the entry's value and mask. So it costs one index row and one
    /// bit test per entry plus the rules' own comparisons, not a walk over
    /// the entries.
    pub fn remove_ternary<'a, I>(&mut self, rules: I) -> usize
    where
        I: IntoIterator<Item = (&'a [u8], &'a [u8], i32)>,
    {
        // `(fingerprint, (priority, mask, value & mask))` of one spec
        // against another's, the values masked as they are read.
        type Rule<'r> = (u64, (i32, &'r [u8], &'r [u8]));
        fn cmp(a: Rule<'_>, b: Rule<'_>) -> std::cmp::Ordering {
            let ((a_fp, a), (b_fp, b)) = (a, b);
            let a_masked = a.2.iter().zip(a.1).map(|(v, m)| v & m);
            let b_masked = b.2.iter().zip(b.1).map(|(v, m)| v & m);
            a_fp.cmp(&b_fp)
                .then_with(|| a.0.cmp(&b.0))
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a_masked.cmp(b_masked))
        }
        // Each rule as its fingerprint and `(priority, mask, value)`,
        // sorted, with how many entries it still takes. An installed value
        // is as wide as its mask, so no entry matches a rule whose value is
        // not.
        let mut wanted: Vec<(Rule<'a>, usize)> = rules
            .into_iter()
            .filter(|(value, mask, _)| value.len() == mask.len())
            .map(|(value, mask, priority)| {
                let fp = fingerprint(value, mask, priority);
                ((fp, (priority, mask, value)), 1)
            })
            .collect();
        if wanted.is_empty() {
            return 0;
        }
        wanted.sort_unstable_by(|a, b| cmp(a.0, b.0));
        wanted.dedup_by(|later, kept| {
            let same = cmp(later.0, kept.0).is_eq();
            kept.1 += usize::from(same);
            same
        });
        // Bit `fp % 4096` is set for each rule's fingerprint `fp`: an
        // entry whose bit is clear matches no rule.
        let mut filter = [0u64; 64];
        for &((fp, _), _) in &wanted {
            filter[(fp >> 6) as usize % 64] |= 1 << (fp % 64);
        }
        self.remove_where(|i, e| {
            let fp = i.fingerprint;
            if filter[(fp >> 6) as usize % 64] >> (fp % 64) & 1 == 0 {
                return false;
            }
            let from = wanted.partition_point(|&((rule_fp, _), _)| rule_fp < fp);
            if wanted
                .get(from)
                .is_none_or(|&((rule_fp, _), _)| rule_fp != fp)
            {
                return false;
            }
            let MatchSpec::Ternary { value, mask } = &e.spec else {
                return false;
            };
            let entry = (fp, (e.priority, &mask[..], &value[..]));
            let found = wanted[from..].binary_search_by(|&(rule, _)| cmp(rule, entry));
            found.is_ok_and(|at| {
                let left = &mut wanted[from + at].1;
                let take = *left > 0;
                *left -= usize::from(take);
                take
            })
        })
    }

    /// Removes the entries of `handles`, in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::NoSuchEntry`] for a handle no entry has (the
    /// smallest, if several); the entries of the others are removed.
    pub fn remove_all(&mut self, handles: &[EntryHandle]) -> Result<(), TableError> {
        let mut wanted = handles.to_vec();
        wanted.sort_unstable();
        let mut found = vec![false; wanted.len()];
        self.remove_where(|i, _| {
            wanted.binary_search(&i.handle).is_ok_and(|at| {
                found[at] = true;
                true
            })
        });
        match wanted.iter().zip(&found).find(|&(_, &found)| !found) {
            Some((&missing, _)) => Err(TableError::NoSuchEntry(missing)),
            None => Ok(()),
        }
    }

    /// Removes every entry `pick` selects, in one pass over the index
    /// column in match order (`pick` sees each entry once, first to last,
    /// with its [`EntryIndex`], and reads the entry only if it must);
    /// returns how many went. An entry `pick` keeps before the first it
    /// removes is not moved.
    fn remove_where(&mut self, mut pick: impl FnMut(&EntryIndex, &TableEntry) -> bool) -> usize {
        let gone: Vec<usize> = (0..self.index.len())
            .filter(|&at| pick(&self.index[at], &self.entries[at]))
            .collect();
        if gone.is_empty() {
            return 0;
        }
        remove_at_each(&mut self.index, &gone);
        remove_at_each(&mut self.entries, &gone);
        self.revision = Revision::fresh();
        gone.len()
    }

    /// Replaces the action of an existing entry.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::NoSuchEntry`] for unknown handles.
    pub fn modify(&mut self, handle: EntryHandle, action: Action) -> Result<(), TableError> {
        let at = self.at(handle).ok_or(TableError::NoSuchEntry(handle))?;
        self.index[at].action = action;
        self.entries[at].action = action;
        self.revision = Revision::fresh();
        Ok(())
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.revision = Revision::fresh();
    }

    /// Looks up `key` and returns the selected action (the default on
    /// miss).
    pub fn peek(&self, key: &[u8]) -> Action {
        self.lookup_traced(key).0
    }

    /// [`Table::peek`] plus the matched entry's rank (its index in the
    /// frozen match order, the same identifier
    /// [`CompiledTable::lookup_traced`](crate::compiled::CompiledTable::lookup_traced)
    /// reports), or `None` on a miss.
    pub fn lookup_traced(&self, key: &[u8]) -> (Action, Option<u32>) {
        match self.entries.iter().position(|e| e.spec.matches(key)) {
            Some(rank) => (self.entries[rank].action, Some(rank as u32)),
            None => (self.default_action, None),
        }
    }
}

/// Tables compare by content: two built alike are equal whatever their
/// identities and revisions.
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        let Table {
            id: _,
            revision: _,
            name,
            kind,
            key,
            capacity,
            default_action,
            entries,
            index: _,
            next_handle,
        } = self;
        *name == other.name
            && *kind == other.kind
            && *key == other.key
            && *capacity == other.capacity
            && *default_action == other.default_action
            && *entries == other.entries
            && *next_handle == other.next_handle
    }
}

/// Removes the elements at the ascending indices `gone` from `list`,
/// moving each kept one at most once.
fn remove_at_each<T>(list: &mut Vec<T>, gone: &[usize]) {
    let (mut at, mut gone) = (0, gone.iter().peekable());
    list.retain(|_| {
        let go = gone.next_if_eq(&&at).is_some();
        at += 1;
        !go
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(kind: MatchKind, width: usize) -> Table {
        Table::new("t", kind, KeyLayout::window(width), 16, Action::NoOp)
    }

    #[test]
    fn exact_match_and_removal() {
        let mut t = table(MatchKind::Exact, 2);
        let h = t
            .insert(MatchSpec::Exact(vec![1, 2]), Action::Drop, 0)
            .unwrap();
        assert_eq!(t.lookup_traced(&[1, 2]), (Action::Drop, Some(0)));
        assert_eq!(t.lookup_traced(&[1, 3]), (Action::NoOp, None));
        t.remove(h).unwrap();
        assert_eq!(t.peek(&[1, 2]), Action::NoOp);
        // The handle is now stale: a second removal says so.
        assert_eq!(t.remove(h).unwrap_err(), TableError::NoSuchEntry(h));
    }

    #[test]
    fn ternary_priority_order() {
        let mut t = table(MatchKind::Ternary, 1);
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
        assert_eq!(t.peek(&[0x17]), Action::Drop);
        assert_eq!(t.peek(&[0x11]), Action::Forward(1));
    }

    #[test]
    fn remove_matching_compares_ternary_specs_under_the_mask() {
        let mut t = table(MatchKind::Ternary, 1);
        let h = t
            .insert(
                MatchSpec::Ternary {
                    value: vec![0x5f],
                    mask: vec![0xf0],
                },
                Action::Drop,
                3,
            )
            .unwrap();
        // Wrong priority, wrong mask, and wrong cared bits all miss.
        let probe = |value: u8, mask: u8| MatchSpec::Ternary {
            value: vec![value],
            mask: vec![mask],
        };
        assert_eq!(t.remove_matching(&probe(0x50, 0xf0), 4), None);
        assert_eq!(t.remove_matching(&probe(0x50, 0xff), 3), None);
        assert_eq!(t.remove_matching(&probe(0x60, 0xf0), 3), None);
        // A different encoding of the same rule (uncared low nibble)
        // finds the installed entry.
        assert_eq!(t.remove_matching(&probe(0x52, 0xf0), 3), Some(h));
        assert!(t.is_empty());
    }

    /// One pass removes what one `remove_matching` call per rule would:
    /// two rules with one `(value & mask, mask, priority)` take the first
    /// two entries with it, whatever their uncared bits, and leave the
    /// third; a rule nothing matches is skipped.
    #[test]
    fn remove_ternary_takes_the_first_matches_of_duplicate_rules() {
        let mut t = table(MatchKind::Ternary, 1);
        let mut insert = |value: u8, mask: u8, priority: i32| {
            let spec = MatchSpec::Ternary {
                value: vec![value],
                mask: vec![mask],
            };
            t.insert(spec, Action::Drop, priority).unwrap()
        };
        insert(0x5f, 0xf0, 3);
        let other = insert(0x50, 0xff, 3);
        insert(0x51, 0xf0, 3);
        let third = insert(0x50, 0xf0, 3);
        let rules: [(&[u8], &[u8], i32); 3] = [
            (&[0x52], &[0xf0], 3),
            (&[0x50], &[0xf0], 3),
            (&[0x50], &[0xf0], 2),
        ];
        assert_eq!(t.remove_ternary(rules), 2);
        let left: Vec<_> = t.entries().iter().map(|e| e.handle).collect();
        assert_eq!(left, [other, third]);
    }

    /// The fingerprint is taken under the mask: values that differ only
    /// outside it remove each other, while an equal masked value under
    /// another mask or priority stays.
    #[test]
    fn remove_ternary_compares_fingerprints_under_the_mask() {
        let mut t = table(MatchKind::Ternary, 2);
        let mut insert = |value: [u8; 2], mask: [u8; 2], priority: i32| {
            let spec = MatchSpec::Ternary {
                value: value.to_vec(),
                mask: mask.to_vec(),
            };
            t.insert(spec, Action::Drop, priority).unwrap()
        };
        insert([0x5f, 0x01], [0xf0, 0xff], 3);
        let other_mask = insert([0x50, 0x01], [0xff, 0xff], 3);
        let other_priority = insert([0x50, 0x01], [0xf0, 0xff], 2);
        let rule: (&[u8], &[u8], i32) = (&[0x53, 0x01], &[0xf0, 0xff], 3);
        let fp = |(value, mask, priority): (&[u8], &[u8], i32)| fingerprint(value, mask, priority);
        assert_eq!(t.index[0].fingerprint, fp(rule));
        assert_ne!(t.index[1].fingerprint, fp(rule));
        assert_ne!(t.index[2].fingerprint, fp(rule));
        assert_eq!(t.remove_ternary([rule]), 1);
        let left: Vec<_> = t.entries().iter().map(|e| e.handle).collect();
        assert_eq!(left, [other_mask, other_priority]);
        assert_eq!(t.remove_ternary([rule]), 0);
    }

    /// The fingerprint filter only prunes: of two rules whose fingerprints
    /// share a filter bit, the one not installed removes nothing, and both
    /// together remove exactly the installed one.
    #[test]
    fn remove_ternary_removes_only_what_a_shared_filter_bit_names() {
        const MASK: [u8; 2] = [0xff, 0xff];
        let fp = |value: u16| fingerprint(&value.to_be_bytes(), &MASK, 0);
        let mut bits = std::collections::HashMap::new();
        let (installed, absent) = (0..=u16::MAX)
            .find_map(|v| bits.insert(fp(v) % 4096, v).map(|first| (first, v)))
            .unwrap();
        assert_ne!(fp(installed), fp(absent));
        let mut t = table(MatchKind::Ternary, 2);
        let mut insert = |priority| {
            let spec = MatchSpec::Ternary {
                value: installed.to_be_bytes().to_vec(),
                mask: MASK.to_vec(),
            };
            t.insert(spec, Action::Drop, priority).unwrap()
        };
        insert(0);
        // The installed rule's value and mask at another priority stays.
        let other = insert(1);
        let (installed, absent) = (installed.to_be_bytes(), absent.to_be_bytes());
        assert_eq!(t.remove_ternary([(&absent[..], &MASK[..], 0)]), 0);
        assert_eq!(t.len(), 2);
        let both = [(&absent[..], &MASK[..], 0), (&installed[..], &MASK[..], 0)];
        assert_eq!(t.remove_ternary(both), 1);
        let left: Vec<_> = t.entries().iter().map(|e| e.handle).collect();
        assert_eq!(left, [other]);
        assert!(in_step(&t));
    }

    /// The index column holds each entry's own `(handle, action,
    /// fingerprint)`, in match order: what every edit leaves.
    fn in_step(t: &Table) -> bool {
        t.index
            .iter()
            .copied()
            .eq(t.entries.iter().map(TableEntry::index))
    }

    proptest::proptest! {
        /// One `remove_ternary` pass leaves the table one
        /// `remove_matching` call per rule would, on random tables and rule
        /// lists full of duplicates and differently encoded uncared bits —
        /// on a table read back from JSON (which rebuilds the index column)
        /// and then edited by every writer in turn, each keeping the column
        /// in step, and on its clone.
        #[test]
        fn remove_ternary_equals_one_remove_matching_per_rule(
            installed in proptest::collection::vec((0u8..8, 0u8..3, 0i32..2), 0..16),
            edits in proptest::collection::vec((0u8..11, (0u8..8, 0u8..3, 0i32..2)), 0..10),
            rules in proptest::collection::vec((0u8..8, 0u8..3, 0i32..2), 0..12),
        ) {
            let mask_of = |sel: u8| [0xff, 0xfe, 0xfc][usize::from(sel)];
            let spec = |value: u8, mask: u8| MatchSpec::Ternary {
                value: vec![value],
                mask: vec![mask_of(mask)],
            };
            let mut t = table(MatchKind::Ternary, 1);
            for &(value, mask, priority) in &installed {
                t.insert(spec(value, mask), Action::Drop, priority).unwrap();
            }
            let json = serde_json::to_string(&t).unwrap();
            let mut t: Table = serde_json::from_str(&json).unwrap();
            proptest::prop_assert!(in_step(&t), "after the read-back");
            for &(op, (value, mask, priority)) in &edits {
                let nth = |t: &Table| t.entries().get(usize::from(value) % t.len().max(1)).map(|e| e.handle);
                match op {
                    0..=4 => {
                        let _ = t.insert(spec(value, mask), Action::Drop, priority);
                    }
                    5 => {
                        if let Some(h) = nth(&t) {
                            t.remove(h).unwrap();
                        }
                    }
                    6 => {
                        t.remove_matching(&spec(value, mask), priority);
                    }
                    7 => {
                        let handles: Vec<_> = nth(&t).into_iter().collect();
                        t.remove_all(&handles).unwrap();
                    }
                    8 => {
                        let rule: (&[u8], &[u8], i32) = (&[value], &[mask_of(mask)], priority);
                        t.remove_ternary([rule]);
                    }
                    9 => {
                        if let Some(h) = nth(&t) {
                            t.modify(h, Action::Forward(u16::from(mask))).unwrap();
                        }
                    }
                    _ => t.clear(),
                }
                proptest::prop_assert!(in_step(&t), "after edit {op}");
            }
            let mut one_pass = t.clone();
            let mut per_rule = t;
            let rules: Vec<_> = rules
                .iter()
                .map(|&(value, mask, priority)| ([value], [mask_of(mask)], priority))
                .collect();
            let removed =
                one_pass.remove_ternary(rules.iter().map(|(v, m, p)| (&v[..], &m[..], *p)));
            let taken = rules
                .iter()
                .filter(|(v, m, p)| {
                    let spec = MatchSpec::Ternary { value: v.to_vec(), mask: m.to_vec() };
                    per_rule.remove_matching(&spec, *p).is_some()
                })
                .count();
            proptest::prop_assert_eq!(removed, taken);
            proptest::prop_assert_eq!(one_pass.entries(), per_rule.entries());
            proptest::prop_assert!(in_step(&one_pass) && in_step(&per_rule));
        }
    }

    /// Every found handle goes; the first missing one is the error.
    #[test]
    fn remove_all_reports_a_missing_handle() {
        let mut t = table(MatchKind::Exact, 1);
        let handles: Vec<_> = (0..4u8)
            .map(|v| {
                t.insert(MatchSpec::Exact(vec![v]), Action::Drop, 0)
                    .unwrap()
            })
            .collect();
        t.remove_all(&[handles[2], handles[0]]).unwrap();
        let gone = handles[0];
        assert_eq!(
            t.remove_all(&[handles[3], gone]),
            Err(TableError::NoSuchEntry(gone))
        );
        let left: Vec<_> = t.entries().iter().map(|e| e.handle).collect();
        assert_eq!(left, [handles[1]]);
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = table(MatchKind::Lpm, 2);
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
        assert_eq!(t.peek(&[0xc0, 0xa8]), Action::Forward(2));
        assert_eq!(t.peek(&[0xc0, 0x01]), Action::Forward(1));
        assert_eq!(t.peek(&[0xd0, 0x01]), Action::NoOp);
    }

    #[test]
    fn lpm_partial_byte_prefix() {
        let mut t = table(MatchKind::Lpm, 1);
        t.insert(
            MatchSpec::Lpm {
                value: vec![0b1010_0000],
                prefix_len: 3,
            },
            Action::Drop,
            0,
        )
        .unwrap();
        assert_eq!(t.peek(&[0b1011_1111]), Action::Drop);
        assert_eq!(t.peek(&[0b1000_0000]), Action::NoOp);
    }

    #[test]
    fn range_match() {
        let mut t = table(MatchKind::Range, 2);
        t.insert(
            MatchSpec::Range {
                lo: vec![10, 0],
                hi: vec![20, 255],
            },
            Action::Drop,
            0,
        )
        .unwrap();
        assert_eq!(t.peek(&[15, 100]), Action::Drop);
        assert_eq!(t.peek(&[21, 100]), Action::NoOp);
        assert_eq!(t.peek(&[9, 0]), Action::NoOp);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = Table::new("s", MatchKind::Exact, KeyLayout::window(1), 2, Action::NoOp);
        t.insert(MatchSpec::Exact(vec![1]), Action::Drop, 0)
            .unwrap();
        t.insert(MatchSpec::Exact(vec![2]), Action::Drop, 0)
            .unwrap();
        let err = t
            .insert(MatchSpec::Exact(vec![3]), Action::Drop, 0)
            .unwrap_err();
        assert_eq!(err, TableError::Full { capacity: 2 });
    }

    #[test]
    fn kind_and_width_mismatches_are_rejected() {
        let mut t = table(MatchKind::Exact, 2);
        assert!(matches!(
            t.insert(
                MatchSpec::Ternary {
                    value: vec![0, 0],
                    mask: vec![0, 0]
                },
                Action::Drop,
                0
            ),
            Err(TableError::KindMismatch { .. })
        ));
        assert!(matches!(
            t.insert(MatchSpec::Exact(vec![0]), Action::Drop, 0),
            Err(TableError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut t = table(MatchKind::Range, 1);
        assert!(matches!(
            t.insert(
                MatchSpec::Range {
                    lo: vec![10],
                    hi: vec![5]
                },
                Action::Drop,
                0
            ),
            Err(TableError::InvalidSpec(_))
        ));
        let mut t = table(MatchKind::Lpm, 1);
        assert!(t
            .insert(
                MatchSpec::Lpm {
                    value: vec![0],
                    prefix_len: 9
                },
                Action::Drop,
                0
            )
            .is_err());
    }

    #[test]
    fn modify_and_clear() {
        let mut t = table(MatchKind::Exact, 1);
        let h = t
            .insert(MatchSpec::Exact(vec![7]), Action::Drop, 0)
            .unwrap();
        t.modify(h, Action::Forward(4)).unwrap();
        assert_eq!(t.peek(&[7]), Action::Forward(4));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.modify(h, Action::Drop), Err(TableError::NoSuchEntry(h)));
    }

    #[test]
    fn every_edit_takes_a_fresh_revision_and_a_clone_keeps_it() {
        let mut t = table(MatchKind::Exact, 1);
        let spec = |b: u8| MatchSpec::Exact(vec![b]);
        let mut seen = vec![t.revision()];
        let h = t.insert(spec(1), Action::Drop, 0).unwrap();
        seen.push(t.revision());
        t.insert(spec(2), Action::Drop, 0).unwrap();
        seen.push(t.revision());
        t.modify(h, Action::Forward(1)).unwrap();
        seen.push(t.revision());
        assert_eq!(t.remove_matching(&spec(9), 0), None);
        assert_eq!(t.revision(), seen[seen.len() - 1], "a miss edits nothing");
        t.remove_matching(&spec(2), 0).unwrap();
        seen.push(t.revision());
        t.remove(h).unwrap();
        seen.push(t.revision());
        t.clear();
        seen.push(t.revision());
        let mut distinct = seen.clone();
        distinct.dedup();
        assert_eq!(distinct, seen, "every edit took a fresh revision");
        // Failed edits leave the revision alone.
        assert!(t.remove(h).is_err() && t.modify(h, Action::Drop).is_err());
        assert_eq!(t.revision(), seen[seen.len() - 1]);

        let copy = t.clone();
        assert_eq!(copy.revision(), t.revision());
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_ne!(back.revision(), t.revision());
        assert_eq!(back, t, "equality ignores the revision");
    }

    #[test]
    fn wrong_width_keys_never_match() {
        // Regression: the ternary/range arms used to zip-truncate, so a
        // one-byte key could "match" a two-byte spec, and the LPM arm
        // panicked on a key shorter than the prefix bytes.
        let ternary = MatchSpec::Ternary {
            value: vec![0x17, 0x00],
            mask: vec![0xff, 0x00],
        };
        assert!(!ternary.matches(&[0x17]));
        assert!(!ternary.matches(&[0x17, 0x00, 0x00]));
        assert!(ternary.matches(&[0x17, 0x42]));

        let range = MatchSpec::Range {
            lo: vec![10, 0],
            hi: vec![20, 255],
        };
        assert!(!range.matches(&[15]));
        assert!(!range.matches(&[15, 0, 0]));

        let lpm = MatchSpec::Lpm {
            value: vec![0xc0, 0xa8],
            prefix_len: 16,
        };
        assert!(!lpm.matches(&[0xc0])); // used to panic
        assert!(!lpm.matches(&[0xc0, 0xa8, 0x01]));
        assert!(lpm.matches(&[0xc0, 0xa8]));

        let exact = MatchSpec::Exact(vec![1, 2]);
        assert!(!exact.matches(&[1]));
        assert!(!exact.matches(&[1, 2, 3]));
    }
}
