//! The one ternary minimizer: every decision about *which value/mask
//! entries fold together* is made here, once, for the whole workspace.
//!
//! A [`Cube`] is a ternary match (`key & mask == value & mask`) carrying a
//! label and the source rows it stands for. Two callers drive this module
//! and add nothing to the merge decision itself:
//!
//! * [`RuleSet::optimize`](crate::ruleset::RuleSet::optimize) labels cubes
//!   with the entry `class` and reports how many rows each pass removed;
//! * `p4guard_dataplane::minimize::ternary_rows` labels cubes with the
//!   table `Action` and counts the rows a table's ternary form occupies in
//!   TCAM — what `TableUsage` and the fleet budgeter charge. It lowers
//!   nothing: the engine's rows come from that module's fold.
//!
//! Both split their entries into equal-priority levels, hand each level
//! to [`merge_siblings`], and run their own shadow-elimination loop
//! (`optimize` over [`covers`], the count over the same containment as
//! per-byte sets). What this module owns: the predicates, the order-free
//! test and the sibling sweep.

use std::collections::BTreeMap;

/// One ternary match with a label and the source rows it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cube<L> {
    /// Match value, one byte per key byte.
    pub value: Vec<u8>,
    /// Match mask; `1` bits are compared, `0` bits are wildcards.
    pub mask: Vec<u8>,
    /// What a hit selects (a class, an action); cubes only merge with
    /// cubes of the same label.
    pub label: L,
    /// The caller's ids of the source rows this cube stands for. A cube
    /// that went through a merge carries the union of its parts' sources,
    /// so "merged" is `sources.len() > 1` and the cube's position in match
    /// order is its smallest source.
    pub sources: Vec<u64>,
}

impl<L> Cube<L> {
    /// The smallest source id: where this cube sits in its level's match
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the cube has no sources.
    pub fn first_source(&self) -> u64 {
        *self.sources.iter().min().expect("a cube has a source")
    }
}

/// Match-set containment: every key matching `(bv, bm)` also matches
/// `(av, am)` — `a`'s cared bits are a subset of `b`'s and the values
/// agree there. Cubes of different widths never cover each other.
pub fn covers(av: &[u8], am: &[u8], bv: &[u8], bm: &[u8]) -> bool {
    av.len() == bv.len()
        && av
            .iter()
            .zip(bv)
            .zip(am.iter().zip(bm))
            .all(|((&av, &bv), (&am, &bm))| am & !bm == 0 && (av ^ bv) & am == 0)
}

/// Some key matches both `(av, am)` and `(bv, bm)`: the values agree
/// wherever both care. Cubes of different widths never overlap.
fn overlaps(av: &[u8], am: &[u8], bv: &[u8], bm: &[u8]) -> bool {
    av.len() == bv.len()
        && av
            .iter()
            .zip(bv)
            .zip(am.iter().zip(bm))
            .all(|((&av, &bv), (&am, &bm))| (av ^ bv) & am & bm == 0)
}

/// Whether matching within one equal-priority level is independent of
/// entry order: no two overlapping cubes carry different labels. Only
/// then may the level be rewritten (merging reorders); merging preserves
/// each label's matched key set exactly, so the property survives it.
fn order_free<L: PartialEq>(level: &[Cube<L>]) -> bool {
    level.iter().enumerate().all(|(i, a)| {
        level[i + 1..]
            .iter()
            .all(|b| a.label == b.label || !overlaps(&a.value, &a.mask, &b.value, &b.mask))
    })
}

/// The cubes of one `(mask, label)` group: masked value → sources.
type Slots = BTreeMap<Vec<u8>, Vec<u64>>;

/// Merges one-bit siblings within one equal-priority level to a fixpoint:
/// two cubes with the same mask and label whose values differ in a single
/// cared bit are exactly the union of the cube with that bit wildcarded.
/// Exact duplicates fold into one cube. A merged cube carries the union
/// of its parts' sources; the result is ordered by
/// [`Cube::first_source`], so it replays the level's source order.
///
/// A level that is not order-free — two overlapping cubes carry different
/// labels, so first-match order inside it is load-bearing — is returned
/// unchanged.
///
/// Deterministic whatever the input order: cubes are bucketed in ordered
/// maps by `(mask, label)` and bit positions are swept most-significant
/// first, `O(rounds · n · key_bits · log n)` after the `O(n²)` order-free
/// check.
///
/// # Panics
///
/// Panics if a cube's value and mask differ in length.
pub fn merge_siblings<L: Ord + Copy>(level: Vec<Cube<L>>) -> Vec<Cube<L>> {
    if !order_free(&level) {
        return level;
    }
    // (mask, label) → masked value → sources.
    let mut groups: BTreeMap<(Vec<u8>, L), Slots> = BTreeMap::new();
    for cube in level {
        assert_eq!(
            cube.value.len(),
            cube.mask.len(),
            "value/mask width mismatch"
        );
        let masked: Vec<u8> = cube
            .value
            .iter()
            .zip(&cube.mask)
            .map(|(&v, &m)| v & m)
            .collect();
        groups
            .entry((cube.mask, cube.label))
            .or_default()
            .entry(masked)
            .or_default()
            .extend(cube.sources);
    }
    let mut changed = true;
    while std::mem::take(&mut changed) {
        // A widened cube lands in a group whose mask sorts before this
        // one — already visited, or not in this round's snapshot — so it
        // is swept in the next round.
        for key in groups.keys().cloned().collect::<Vec<_>>() {
            let (mask, label) = &key;
            for bit in (0..mask.len() * 8).filter(|b| mask[b / 8] & (0x80 >> (b % 8)) != 0) {
                let (byte, bitmask) = (bit / 8, 0x80u8 >> (bit % 8));
                let sibling = |lo: &Vec<u8>| {
                    let mut hi = lo.clone();
                    hi[byte] |= bitmask;
                    hi
                };
                let group = groups.get_mut(&key).expect("key snapshotted this round");
                // The low half of every sibling pair on this bit.
                let lows: Vec<Vec<u8>> = group
                    .keys()
                    .filter(|v| v[byte] & bitmask == 0 && group.contains_key(&sibling(v)))
                    .cloned()
                    .collect();
                if lows.is_empty() {
                    continue;
                }
                changed = true;
                let folded: Vec<(Vec<u8>, Vec<u64>)> = lows
                    .into_iter()
                    .map(|lo| {
                        let mut sources = group.remove(&lo).expect("lo present");
                        sources.extend(group.remove(&sibling(&lo)).expect("hi present"));
                        (lo, sources)
                    })
                    .collect();
                let mut wide_mask = mask.clone();
                wide_mask[byte] &= !bitmask;
                let wide = groups.entry((wide_mask, *label)).or_default();
                for (value, sources) in folded {
                    wide.entry(value).or_default().extend(sources);
                }
            }
        }
        groups.retain(|_, g| !g.is_empty());
    }
    let mut merged: Vec<Cube<L>> = groups
        .into_iter()
        .flat_map(|((mask, label), slots)| {
            slots.into_iter().map(move |(value, sources)| Cube {
                value,
                mask: mask.clone(),
                label,
                sources,
            })
        })
        .collect();
    merged.sort_by_cached_key(Cube::first_source);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(value: u8, mask: u8, label: u8, source: u64) -> Cube<u8> {
        Cube {
            value: vec![value],
            mask: vec![mask],
            label,
            sources: vec![source],
        }
    }

    #[test]
    fn overlaps_ignores_uncared_bits_and_other_widths() {
        assert!(overlaps(&[0x10], &[0xf0], &[0x17], &[0xff]));
        assert!(!overlaps(&[0x10], &[0xf0], &[0x27], &[0xff]));
        assert!(overlaps(&[0x1f], &[0xf0], &[0x10], &[0xf0]));
        assert!(!overlaps(&[0x00], &[0x00], &[0x00, 0x00], &[0x00, 0x00]));
        assert!(!covers(&[0x00], &[0x00], &[0x00, 0x00], &[0x00, 0x00]));
    }

    #[test]
    fn siblings_fold_to_a_fixpoint_and_union_their_sources() {
        let level: Vec<_> = (0..4u8)
            .map(|v| cube(v, 0xff, 1, u64::from(v) + 1))
            .collect();
        let merged = merge_siblings(level);
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].value[0], merged[0].mask[0]), (0, 0xfc));
        let mut sources = merged[0].sources.clone();
        sources.sort_unstable();
        assert_eq!(sources, vec![1, 2, 3, 4]);
        assert_eq!(merged[0].first_source(), 1);
    }

    #[test]
    fn duplicates_fold_even_when_a_merge_result_collides_with_them() {
        // The same cube twice (one encoding has noise under the mask):
        // one survivor standing for both sources, hence "merged".
        let merged = merge_siblings(vec![cube(0x50, 0xf0, 1, 7), cube(0x5f, 0xf0, 1, 3)]);
        assert_eq!(merged.len(), 1);
        assert_eq!((merged[0].value[0], merged[0].first_source()), (0x50, 3));
        assert_eq!(merged[0].sources.len(), 2);
        // 0x02/0xff + 0x03/0xff widen to 0x02/0xfe, which is already there.
        let merged = merge_siblings(vec![
            cube(0x02, 0xfe, 1, 1),
            cube(0x02, 0xff, 1, 2),
            cube(0x03, 0xff, 1, 3),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].sources.len(), 3);
    }

    #[test]
    fn an_unmerged_cube_keeps_its_single_source_through_a_rebuilt_level() {
        // Source 2 has no sibling, but the level is rebuilt around it
        // because 1 and 3 merge. It must come back standing for exactly
        // itself: callers derive "this row shadows eliminated rows" from
        // the surviving source id, so there is no flag a merge could lose.
        // Survivors replay source order.
        let merged = merge_siblings(vec![
            cube(0x02, 0xff, 1, 1),
            cube(0xc0, 0xf0, 1, 2),
            cube(0x03, 0xff, 1, 3),
        ]);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].mask[0], merged[0].first_source()), (0xfe, 1));
        assert_eq!(merged[1], cube(0xc0, 0xf0, 1, 2));
    }
}
