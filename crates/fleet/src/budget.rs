//! The fleet-wide table-space budgeter.
//!
//! A physical switch has one TCAM and one SRAM; every tenant's compiled
//! ruleset competes for the same bits. [`TableBudgeter`] carves a global
//! bit budget into per-tenant allocations by weighted fair share on top of
//! per-tenant minimum guarantees, and admits or trims publishes against
//! those allocations. All arithmetic is integral and iteration order is
//! fixed, so the same tenant set always yields the same split.
//!
//! The allocation algorithm (per memory kind):
//!
//! 1. every tenant is granted its minimum guarantee up front — the
//!    constructor rejects tenant sets whose guarantees alone exceed the
//!    budget;
//! 2. the remaining bits are divided proportionally to integer weights
//!    (floor division), and the leftover from flooring is handed out by
//!    largest remainder, ties broken by tenant index.

use p4guard_dataplane::minimize::minimized_ternary_count;
use p4guard_dataplane::resources::MemoryKind;
use p4guard_rules::RuleSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The global bit budget shared by all tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// Total TCAM bits available to the fleet.
    pub tcam_bits: usize,
    /// Total SRAM bits available to the fleet.
    pub sram_bits: usize,
}

impl Default for BudgetConfig {
    fn default() -> Self {
        // A small fixed-function switch: 256 Kbit TCAM, 1 Mbit SRAM.
        BudgetConfig {
            tcam_bits: 256 * 1024,
            sram_bits: 1024 * 1024,
        }
    }
}

/// One tenant's claim on the shared budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantShare {
    /// Proportional weight for the bits left after minimum guarantees.
    /// Zero-weight tenants receive exactly their guarantees.
    pub weight: u32,
    /// TCAM bits guaranteed regardless of weight.
    pub min_tcam_bits: usize,
    /// SRAM bits guaranteed regardless of weight.
    pub min_sram_bits: usize,
}

impl TenantShare {
    /// An equal-weight share with no guarantees.
    pub fn flat() -> Self {
        TenantShare {
            weight: 1,
            min_tcam_bits: 0,
            min_sram_bits: 0,
        }
    }
}

/// The bits one tenant may occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantAllocation {
    /// Tenant index.
    pub tenant: usize,
    /// Allocated TCAM bits.
    pub tcam_bits: usize,
    /// Allocated SRAM bits.
    pub sram_bits: usize,
}

impl TenantAllocation {
    /// The allocation for the given memory kind.
    pub fn bits(&self, memory: MemoryKind) -> usize {
        match memory {
            MemoryKind::Tcam => self.tcam_bits,
            MemoryKind::Sram => self.sram_bits,
        }
    }
}

/// Why the budgeter refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// The minimum guarantees alone exceed the global budget.
    InfeasibleMinimums {
        /// Memory kind that overflows.
        memory: MemoryKind,
        /// Sum of guarantees.
        required_bits: usize,
        /// The global budget for that memory.
        budget_bits: usize,
    },
    /// A publish needs more bits than the tenant's allocation.
    OverBudget {
        /// The offending tenant.
        tenant: usize,
        /// Memory kind that overflows.
        memory: MemoryKind,
        /// Bits the publish would occupy.
        required_bits: usize,
        /// Bits the tenant is allocated.
        allocated_bits: usize,
    },
    /// Unknown tenant index.
    NoSuchTenant {
        /// The index asked for.
        tenant: usize,
        /// How many tenants exist.
        tenants: usize,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::InfeasibleMinimums {
                memory,
                required_bits,
                budget_bits,
            } => write!(
                f,
                "minimum guarantees need {required_bits} {memory} bits but the budget is {budget_bits}"
            ),
            BudgetError::OverBudget {
                tenant,
                memory,
                required_bits,
                allocated_bits,
            } => write!(
                f,
                "tenant {tenant} publish needs {required_bits} {memory} bits but is allocated {allocated_bits}"
            ),
            BudgetError::NoSuchTenant { tenant, tenants } => {
                write!(f, "tenant {tenant} out of range ({tenants} tenants)")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// Splits `budget` bits across `shares` by minimum-then-weighted-fair
/// share. Returns one figure per tenant; their sum never exceeds `budget`.
fn split(budget: usize, shares: &[TenantShare], min_of: fn(&TenantShare) -> usize) -> Vec<usize> {
    let mut out: Vec<usize> = shares.iter().map(min_of).collect();
    let guaranteed: usize = out.iter().sum();
    let remaining = budget - guaranteed;
    let total_weight: u64 = shares.iter().map(|s| u64::from(s.weight)).sum();
    if total_weight == 0 || remaining == 0 {
        return out;
    }
    // Floor split, then hand the flooring leftover out by largest
    // remainder (tenant index breaks ties) so every bit is placed
    // deterministically.
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(shares.len());
    let mut placed = 0usize;
    for (i, s) in shares.iter().enumerate() {
        let num = remaining as u64 * u64::from(s.weight);
        let share = (num / total_weight) as usize;
        out[i] += share;
        placed += share;
        remainders.push((num % total_weight, i));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(remaining - placed) {
        out[i] += 1;
    }
    out
}

/// Allocates the global TCAM/SRAM budget across tenants and polices
/// publishes against the resulting per-tenant allocations.
#[derive(Debug, Clone)]
pub struct TableBudgeter {
    config: BudgetConfig,
    shares: Vec<TenantShare>,
    allocations: Vec<TenantAllocation>,
}

impl TableBudgeter {
    /// Computes the allocation for `shares` under `config`.
    ///
    /// # Errors
    ///
    /// [`BudgetError::InfeasibleMinimums`] when the guarantees alone
    /// exceed either memory's budget.
    pub fn new(config: BudgetConfig, shares: Vec<TenantShare>) -> Result<Self, BudgetError> {
        let min_tcam: usize = shares.iter().map(|s| s.min_tcam_bits).sum();
        if min_tcam > config.tcam_bits {
            return Err(BudgetError::InfeasibleMinimums {
                memory: MemoryKind::Tcam,
                required_bits: min_tcam,
                budget_bits: config.tcam_bits,
            });
        }
        let min_sram: usize = shares.iter().map(|s| s.min_sram_bits).sum();
        if min_sram > config.sram_bits {
            return Err(BudgetError::InfeasibleMinimums {
                memory: MemoryKind::Sram,
                required_bits: min_sram,
                budget_bits: config.sram_bits,
            });
        }
        let tcam = split(config.tcam_bits, &shares, |s| s.min_tcam_bits);
        let sram = split(config.sram_bits, &shares, |s| s.min_sram_bits);
        let allocations = tcam
            .into_iter()
            .zip(sram)
            .enumerate()
            .map(|(tenant, (tcam_bits, sram_bits))| TenantAllocation {
                tenant,
                tcam_bits,
                sram_bits,
            })
            .collect();
        Ok(TableBudgeter {
            config,
            shares,
            allocations,
        })
    }

    /// The global budget.
    pub fn config(&self) -> BudgetConfig {
        self.config
    }

    /// Number of tenants sharing the budget.
    pub fn tenant_count(&self) -> usize {
        self.shares.len()
    }

    /// The share `tenant` registered with.
    pub fn share(&self, tenant: usize) -> Option<&TenantShare> {
        self.shares.get(tenant)
    }

    /// Every tenant's allocation, indexed by tenant.
    pub fn allocations(&self) -> &[TenantAllocation] {
        &self.allocations
    }

    /// One tenant's allocation.
    ///
    /// # Errors
    ///
    /// [`BudgetError::NoSuchTenant`] for an out-of-range index.
    pub fn allocation(&self, tenant: usize) -> Result<TenantAllocation, BudgetError> {
        self.allocations
            .get(tenant)
            .copied()
            .ok_or(BudgetError::NoSuchTenant {
                tenant,
                tenants: self.shares.len(),
            })
    }

    /// Checks that a ternary ruleset fits `tenant`'s TCAM allocation,
    /// without mutating anything.
    ///
    /// Admission is judged against the ruleset's **minimized** occupancy —
    /// the rows the lowering-time ternary minimizer actually installs
    /// (subsumed entries eliminated, adjacent siblings merged; see
    /// [`minimize`](p4guard_dataplane::minimize)) — so a tenant whose raw
    /// ruleset nominally overflows its slice is still admitted when the
    /// minimized form fits.
    ///
    /// # Errors
    ///
    /// [`BudgetError::OverBudget`] when it does not fit,
    /// [`BudgetError::NoSuchTenant`] for an out-of-range index.
    pub fn admit(&self, tenant: usize, ruleset: &RuleSet) -> Result<(), BudgetError> {
        self.admit_forest(tenant, &[ruleset])
    }

    /// TCAM bits `ruleset` occupies after lowering-time ternary
    /// minimization.
    pub fn minimized_tcam_bits(ruleset: &RuleSet) -> usize {
        let rows = minimized_ternary_count(
            ruleset
                .entries()
                .iter()
                .map(|e| (e.value.as_slice(), e.mask.as_slice(), e.priority)),
        );
        rows * ruleset.key_width() * 8 * 2
    }

    /// Trims `ruleset` to fit `tenant`'s TCAM allocation by dropping its
    /// lowest-priority entries. Returns the surviving ruleset and how many
    /// entries were cut (0 when it already fit).
    ///
    /// Like [`TableBudgeter::admit`], the fit is judged on minimized
    /// occupancy: the initial cut keeps the raw-count prefix that fits
    /// (always safe, since minimized ≤ raw rows), then extends the prefix
    /// while the longer prefix's *minimized* form still fits — so
    /// mergeable rulesets keep strictly more rules than raw accounting
    /// would allow.
    ///
    /// # Errors
    ///
    /// [`BudgetError::NoSuchTenant`] for an out-of-range index.
    pub fn trim(&self, tenant: usize, ruleset: &RuleSet) -> Result<(RuleSet, usize), BudgetError> {
        let alloc = self.allocation(tenant)?;
        if Self::minimized_tcam_bits(ruleset) <= alloc.tcam_bits {
            return Ok((ruleset.clone(), 0));
        }
        let bits_per_entry = ruleset.key_width() * 8 * 2;
        let budget_rows = alloc
            .tcam_bits
            .checked_div(bits_per_entry)
            .unwrap_or(ruleset.len());
        let prefix_rows = |keep: usize| {
            minimized_ternary_count(
                ruleset
                    .entries()
                    .iter()
                    .take(keep)
                    .map(|e| (e.value.as_slice(), e.mask.as_slice(), e.priority)),
            )
        };
        // The raw-fit prefix always fits minimized (minimized ≤ raw rows)
        // and the full set does not (checked above): binary-search the
        // boundary, then extend greedily — merges can make a longer prefix
        // cheaper than a shorter one, so the boundary need not be maximal.
        let mut lo = budget_rows.min(ruleset.len());
        let mut hi = ruleset.len();
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if prefix_rows(mid) <= budget_rows {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut keep = lo;
        while keep < ruleset.len() && prefix_rows(keep + 1) <= budget_rows {
            keep += 1;
        }
        // Entries are kept sorted by descending priority, so the retained
        // prefix is exactly the most important `keep` rules.
        let mut trimmed = RuleSet::new(ruleset.key_width(), ruleset.default_class());
        for entry in ruleset.entries().iter().take(keep) {
            trimmed.push(entry.clone());
        }
        Ok((trimmed, ruleset.len() - keep))
    }

    /// Checks that a forest — one ternary ruleset stage per tree — fits
    /// `tenant`'s TCAM allocation in its entirety, without mutating
    /// anything. The charge is the sum of the per-stage **minimized**
    /// occupancies, matching what
    /// [`SwitchResources`](p4guard_dataplane::resources::SwitchResources)
    /// reports for the deployed per-tree stages.
    ///
    /// # Errors
    ///
    /// [`BudgetError::OverBudget`] when the whole forest does not fit
    /// (use [`TableBudgeter::trim_forest`] to drop trees instead),
    /// [`BudgetError::NoSuchTenant`] for an out-of-range index.
    pub fn admit_forest(&self, tenant: usize, stages: &[&RuleSet]) -> Result<(), BudgetError> {
        let alloc = self.allocation(tenant)?;
        let required: usize = stages.iter().map(|rs| Self::minimized_tcam_bits(rs)).sum();
        if required > alloc.tcam_bits {
            return Err(BudgetError::OverBudget {
                tenant,
                memory: MemoryKind::Tcam,
                required_bits: required,
                allocated_bits: alloc.tcam_bits,
            });
        }
        Ok(())
    }

    /// Fits a forest into `tenant`'s TCAM allocation by dropping whole
    /// trees, lowest importance first (ties drop the later stage), until
    /// the surviving stages' summed minimized occupancy fits. Unlike
    /// entry-level [`TableBudgeter::trim`], trees are all-or-nothing:
    /// removing individual entries from a tree would corrupt its vote,
    /// while removing a whole tree only shrinks the electorate.
    ///
    /// `importance` aligns with `stages` (e.g.
    /// [`RandomForest::tree_importance`](p4guard_rules::forest::RandomForest::tree_importance)).
    ///
    /// # Errors
    ///
    /// [`BudgetError::OverBudget`] when even the single most important
    /// tree overflows the allocation,
    /// [`BudgetError::NoSuchTenant`] for an out-of-range index.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or `importance.len() != stages.len()`.
    pub fn trim_forest(
        &self,
        tenant: usize,
        stages: &[&RuleSet],
        importance: &[f64],
    ) -> Result<ForestAdmission, BudgetError> {
        assert!(!stages.is_empty(), "a forest needs at least one stage");
        assert_eq!(
            importance.len(),
            stages.len(),
            "importance must align with stages"
        );
        let alloc = self.allocation(tenant)?;
        let bits: Vec<usize> = stages
            .iter()
            .map(|rs| Self::minimized_tcam_bits(rs))
            .collect();
        let mut required: usize = bits.iter().sum();
        // Drop order: ascending importance, ties resolved by dropping the
        // later stage first (earlier trees vote first and are kept).
        let mut drop_order: Vec<usize> = (0..stages.len()).collect();
        drop_order.sort_by(|&a, &b| importance[a].total_cmp(&importance[b]).then(b.cmp(&a)));
        let mut dropped = Vec::new();
        let mut cut = std::collections::HashSet::new();
        let mut order = drop_order.into_iter();
        while required > alloc.tcam_bits {
            if cut.len() + 1 == stages.len() {
                return Err(BudgetError::OverBudget {
                    tenant,
                    memory: MemoryKind::Tcam,
                    required_bits: required,
                    allocated_bits: alloc.tcam_bits,
                });
            }
            let victim = order.next().expect("more stages than cuts");
            required -= bits[victim];
            cut.insert(victim);
            dropped.push(victim);
        }
        let kept: Vec<usize> = (0..stages.len()).filter(|i| !cut.contains(i)).collect();
        Ok(ForestAdmission {
            kept,
            dropped,
            required_bits: required,
        })
    }
}

/// Outcome of [`TableBudgeter::trim_forest`]: which per-tree stages of a
/// submitted forest survive the tenant's TCAM allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestAdmission {
    /// Indices of surviving stages, in the original vote order.
    pub kept: Vec<usize>,
    /// Indices of dropped stages, in drop order (lowest importance
    /// first).
    pub dropped: Vec<usize>,
    /// Minimized TCAM bits the surviving stages occupy together.
    pub required_bits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4guard_rules::TernaryEntry;

    fn ruleset_with(entries: usize, width: usize) -> RuleSet {
        let mut rs = RuleSet::new(width, 0);
        for i in 0..entries {
            rs.push(TernaryEntry::new(
                vec![i as u8; width],
                vec![0xff; width],
                1,
                i as i32,
            ));
        }
        rs
    }

    #[test]
    fn split_is_exact_and_ordered() {
        let shares = vec![
            TenantShare {
                weight: 3,
                min_tcam_bits: 100,
                min_sram_bits: 0,
            },
            TenantShare {
                weight: 1,
                min_tcam_bits: 50,
                min_sram_bits: 0,
            },
        ];
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 1000,
                sram_bits: 0,
            },
            shares,
        )
        .unwrap();
        let a = b.allocations();
        // 150 guaranteed, 850 split 3:1 → 637.5 floors to 637, remainder
        // bit goes to the larger fractional part.
        assert_eq!(a[0].tcam_bits + a[1].tcam_bits, 1000);
        assert!(a[0].tcam_bits >= 100 + 637);
        assert!(a[1].tcam_bits >= 50 + 212);
    }

    #[test]
    fn infeasible_minimums_rejected() {
        let shares = vec![TenantShare {
            weight: 1,
            min_tcam_bits: 2000,
            min_sram_bits: 0,
        }];
        let err = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 1000,
                sram_bits: 0,
            },
            shares,
        )
        .unwrap_err();
        assert!(matches!(err, BudgetError::InfeasibleMinimums { .. }));
    }

    #[test]
    fn admit_and_trim_respect_allocation() {
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 8 * 8 * 2 * 10, // ten 8-byte ternary entries
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        assert!(b.admit(0, &ruleset_with(10, 8)).is_ok());
        assert!(matches!(
            b.admit(0, &ruleset_with(11, 8)),
            Err(BudgetError::OverBudget { tenant: 0, .. })
        ));
        let (trimmed, cut) = b.trim(0, &ruleset_with(25, 8)).unwrap();
        assert_eq!(trimmed.len(), 10);
        assert_eq!(cut, 15);
        // Highest-priority entries survive.
        assert!(trimmed.entries().iter().all(|e| e.priority >= 15));
    }

    /// `pairs * 2` entries at one priority: each base and `base | 1` merge
    /// into one row, and the bases pairwise differ in at least two high
    /// bits so the merged rows cannot collapse further.
    fn mergeable_ruleset(pairs: usize) -> RuleSet {
        const BASES: [u8; 5] = [0x00, 0x06, 0x18, 0x60, 0x66];
        let mut rs = RuleSet::new(1, 0);
        for &base in BASES.iter().take(pairs) {
            rs.push(TernaryEntry::new(vec![base], vec![0xff], 1, 1));
            rs.push(TernaryEntry::new(vec![base | 1], vec![0xff], 1, 1));
        }
        rs
    }

    #[test]
    fn admit_judges_minimized_occupancy() {
        let bits_per_entry = 8 * 2;
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 4 * bits_per_entry, // four minimized rows
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        // Eight raw entries nominally need 8 rows, but merge down to 4.
        let rs = mergeable_ruleset(4);
        assert_eq!(rs.tcam_bits(), 8 * bits_per_entry);
        assert_eq!(TableBudgeter::minimized_tcam_bits(&rs), 4 * bits_per_entry);
        assert!(b.admit(0, &rs).is_ok());
        // Ten raw entries minimize to 5 rows: genuinely over budget.
        assert!(matches!(
            b.admit(0, &mergeable_ruleset(5)),
            Err(BudgetError::OverBudget {
                tenant: 0,
                required_bits,
                ..
            }) if required_bits == 5 * bits_per_entry
        ));
    }

    #[test]
    fn trim_extends_past_raw_count_for_mergeable_rulesets() {
        let bits_per_entry = 8 * 2;
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 2 * bits_per_entry, // two minimized rows
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        // Eight entries minimize to 4 rows — still over a 2-row budget,
        // but raw accounting would keep only 2 entries; minimized
        // accounting keeps 4 (two merged pairs).
        let (trimmed, cut) = b.trim(0, &mergeable_ruleset(4)).unwrap();
        assert_eq!(trimmed.len(), 4);
        assert_eq!(cut, 4);
        assert!(TableBudgeter::minimized_tcam_bits(&trimmed) <= 2 * bits_per_entry);
    }

    #[test]
    fn zero_weight_gets_only_minimum() {
        let shares = vec![
            TenantShare {
                weight: 0,
                min_tcam_bits: 64,
                min_sram_bits: 0,
            },
            TenantShare {
                weight: 5,
                min_tcam_bits: 0,
                min_sram_bits: 0,
            },
        ];
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 1000,
                sram_bits: 0,
            },
            shares,
        )
        .unwrap();
        assert_eq!(b.allocation(0).unwrap().tcam_bits, 64);
        assert_eq!(b.allocation(1).unwrap().tcam_bits, 936);
    }

    #[test]
    fn admit_forest_sums_per_tree_occupancy() {
        let bits_per_entry = 8 * 8 * 2;
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 10 * bits_per_entry,
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        let small = ruleset_with(3, 8);
        let stages = [&small, &small, &small];
        assert!(b.admit_forest(0, &stages).is_ok());
        let big = ruleset_with(5, 8);
        assert!(matches!(
            b.admit_forest(0, &[&big, &big, &big]),
            Err(BudgetError::OverBudget {
                tenant: 0,
                required_bits,
                ..
            }) if required_bits == 15 * bits_per_entry
        ));
    }

    #[test]
    fn trim_forest_drops_lowest_importance_trees_first() {
        let bits_per_entry = 8 * 8 * 2;
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 8 * bits_per_entry,
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        // Four 3-entry trees need 12 rows; the budget holds 8, so two
        // trees must go — the two least important ones.
        let tree = ruleset_with(3, 8);
        let stages = [&tree, &tree, &tree, &tree];
        let adm = b.trim_forest(0, &stages, &[0.9, 0.2, 0.8, 0.4]).unwrap();
        assert_eq!(adm.kept, vec![0, 2]);
        assert_eq!(adm.dropped, vec![1, 3]);
        assert_eq!(adm.required_bits, 6 * bits_per_entry);
        // A forest that already fits survives untouched.
        let adm = b.trim_forest(0, &stages[..2], &[0.5, 0.5]).unwrap();
        assert_eq!(adm.kept, vec![0, 1]);
        assert!(adm.dropped.is_empty());
    }

    #[test]
    fn trim_forest_tie_drops_later_stage_and_rejects_oversized_root() {
        let bits_per_entry = 8 * 8 * 2;
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 4 * bits_per_entry,
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        // Equal importance: the later stages are sacrificed first.
        let tree = ruleset_with(2, 8);
        let adm = b
            .trim_forest(0, &[&tree, &tree, &tree], &[0.5, 0.5, 0.5])
            .unwrap();
        assert_eq!(adm.kept, vec![0, 1]);
        assert_eq!(adm.dropped, vec![2]);
        // Even the single most important tree overflows → reject.
        let huge = ruleset_with(5, 8);
        assert!(matches!(
            b.trim_forest(0, &[&huge, &huge], &[0.1, 0.9]),
            Err(BudgetError::OverBudget { tenant: 0, .. })
        ));
    }

    #[test]
    fn trim_forest_charges_minimized_occupancy() {
        let bits_per_entry = 8 * 2;
        let b = TableBudgeter::new(
            BudgetConfig {
                tcam_bits: 6 * bits_per_entry,
                sram_bits: 0,
            },
            vec![TenantShare::flat()],
        )
        .unwrap();
        // Each stage holds 8 raw entries that minimize to 4 rows. Raw
        // accounting would evict a tree from a two-tree forest; minimized
        // accounting... still must (2 × 4 = 8 > 6), but keeps both trees
        // of a 4-row pair when given one mergeable and one tiny stage.
        let mergeable = mergeable_ruleset(4);
        let tiny = {
            let mut rs = RuleSet::new(1, 0);
            rs.push(TernaryEntry::new(vec![0xAA], vec![0xff], 1, 1));
            rs
        };
        let adm = b.trim_forest(0, &[&mergeable, &tiny], &[0.9, 0.1]).unwrap();
        assert_eq!(adm.kept, vec![0, 1]);
        assert_eq!(adm.required_bits, 5 * bits_per_entry);
    }
}
