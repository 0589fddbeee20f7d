//! Property suite for the table-space budgeter: for arbitrary tenant
//! sets, allocations (i) never exceed the global TCAM/SRAM budget,
//! (ii) respect every tenant's minimum guarantee, and (iii) are a pure
//! function of the tenant set — the same shares always split the same
//! way, in allocation, admission and trimming alike. Admission is also
//! *sound*: (iv) the occupancy the budgeter admits against is exactly the
//! ternary form `TableUsage` prices the installed table at, and the
//! engine lowering builds never indexes more rows than that.

use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::CompiledTable;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::minimize::MINIMIZE_MAX_ENTRIES;
use p4guard_fleet::{AclLayout, BudgetConfig, TableBudgeter, TenantShare};
use p4guard_rules::{RuleSet, TernaryEntry};
use proptest::prelude::*;

/// Raw share material: (weight, min_tcam_seed, min_sram_seed).
type RawShare = (u32, usize, usize);

/// Builds shares whose guarantees are scaled to stay feasible: each
/// tenant's minimum is at most `budget / tenants`, so the construction
/// below never hits `InfeasibleMinimums` and the properties quantify
/// over *accepted* tenant sets.
fn shares_from(raw: &[RawShare], config: BudgetConfig) -> Vec<TenantShare> {
    let n = raw.len().max(1);
    raw.iter()
        .map(|&(weight, t_seed, s_seed)| TenantShare {
            weight: weight % 1000,
            min_tcam_bits: t_seed % (config.tcam_bits / n + 1),
            min_sram_bits: s_seed % (config.sram_bits / n + 1),
        })
        .collect()
}

fn ruleset_with(entries: usize, width: usize) -> RuleSet {
    let mut rs = RuleSet::new(width, 0);
    for i in 0..entries {
        rs.push(TernaryEntry::new(
            vec![(i % 251) as u8; width],
            vec![0xff; width],
            1,
            i as i32,
        ));
    }
    rs
}

/// The table publishing `rs` produces, the ruleset installed the way
/// tenants install it: its TCAM bits as `TableUsage` prices them, and the
/// rows its lowered engine indexes, priced as TCAM entries.
fn installed_tcam_bits(rs: &RuleSet) -> (usize, usize) {
    let width = rs.key_width();
    let layout = AclLayout {
        window: 64,
        offsets: (0..width).collect(),
        capacity: rs.len().max(1),
    };
    let control = ControlPlane::new(layout.switch("budget", ["acl"]));
    control
        .replace_ruleset(0, rs, Action::Drop)
        .expect("table sized for the ruleset");
    control.with_switch(|sw| {
        let engine_rows = CompiledTable::compile(sw.stage(0)).minimized_len();
        (sw.resources().tcam_bits_minimized, engine_rows * width * 16)
    })
}

/// Above the cap the ternary form is not minimized — and the budgeter
/// must charge the raw count too, as `TableUsage` prices it. The engine
/// still folds the consecutive values into a few boxes.
#[test]
fn admission_charges_the_raw_count_above_the_minimization_cap() {
    let mut rs = RuleSet::new(2, 0);
    for i in 0..=MINIMIZE_MAX_ENTRIES {
        // Consecutive values under a full mask: maximally mergeable.
        rs.push(TernaryEntry::new(
            vec![(i >> 8) as u8, i as u8],
            vec![0xff, 0xff],
            1,
            0,
        ));
    }
    let raw_bits = (MINIMIZE_MAX_ENTRIES + 1) * 2 * 16;
    assert_eq!(TableBudgeter::minimized_tcam_bits(&rs), raw_bits);
    let (priced, engine) = installed_tcam_bits(&rs);
    assert_eq!(priced, raw_bits);
    assert!(engine <= 2 * 2 * 16, "{engine} engine bits");
}

proptest! {
    /// Admission soundness: the budgeter's minimized occupancy equals what
    /// `TableUsage` prices the installed table at, and the lowered engine
    /// indexes no more rows, for mergeable, shadowed and multi-priority
    /// sets.
    #[test]
    fn admitted_occupancy_is_what_lowering_installs(
        width in 1usize..=2,
        raw in collection::vec(
            (collection::vec(any::<u8>(), 2usize), collection::vec(0usize..4, 2usize), 0i32..3),
            0..24,
        ),
    ) {
        let mut rs = RuleSet::new(width, 0);
        for (value, mask_sel, priority) in &raw {
            let mask: Vec<u8> = mask_sel[..width].iter().map(|&s| [0x00, 0xfe, 0xf0, 0xff][s]).collect();
            rs.push(TernaryEntry::new(value[..width].to_vec(), mask, 1, *priority));
        }
        let charged = TableBudgeter::minimized_tcam_bits(&rs);
        let (priced, engine) = installed_tcam_bits(&rs);
        prop_assert_eq!(charged, priced);
        prop_assert!(engine <= charged, "engine {} bits over the {} charged", engine, charged);
    }

    #[test]
    fn allocations_never_exceed_global_budget(
        raw in collection::vec((any::<u32>(), any::<usize>(), any::<usize>()), 1..24),
        tcam_budget in 1usize..2_000_000,
        sram_budget in 1usize..2_000_000,
    ) {
        let config = BudgetConfig { tcam_bits: tcam_budget, sram_bits: sram_budget };
        let shares = shares_from(&raw, config);
        let budgeter = TableBudgeter::new(config, shares).expect("scaled minimums are feasible");
        let tcam: usize = budgeter.allocations().iter().map(|a| a.tcam_bits).sum();
        let sram: usize = budgeter.allocations().iter().map(|a| a.sram_bits).sum();
        prop_assert!(tcam <= config.tcam_bits, "tcam {tcam} > budget {}", config.tcam_bits);
        prop_assert!(sram <= config.sram_bits, "sram {sram} > budget {}", config.sram_bits);
    }

    #[test]
    fn minimum_guarantees_are_respected(
        raw in collection::vec((any::<u32>(), any::<usize>(), any::<usize>()), 1..24),
        tcam_budget in 1usize..2_000_000,
        sram_budget in 1usize..2_000_000,
    ) {
        let config = BudgetConfig { tcam_bits: tcam_budget, sram_bits: sram_budget };
        let shares = shares_from(&raw, config);
        let budgeter = TableBudgeter::new(config, shares.clone()).expect("feasible");
        for (share, alloc) in shares.iter().zip(budgeter.allocations()) {
            prop_assert!(
                alloc.tcam_bits >= share.min_tcam_bits,
                "tenant {} allocated {} < guaranteed {}",
                alloc.tenant, alloc.tcam_bits, share.min_tcam_bits
            );
            prop_assert!(alloc.sram_bits >= share.min_sram_bits);
        }
    }

    #[test]
    fn allocation_is_deterministic(
        raw in collection::vec((any::<u32>(), any::<usize>(), any::<usize>()), 1..24),
        tcam_budget in 1usize..2_000_000,
        sram_budget in 1usize..2_000_000,
        entries in 0usize..64,
        width in 1usize..8,
    ) {
        let config = BudgetConfig { tcam_bits: tcam_budget, sram_bits: sram_budget };
        let shares = shares_from(&raw, config);
        let a = TableBudgeter::new(config, shares.clone()).expect("feasible");
        let b = TableBudgeter::new(config, shares).expect("feasible");
        prop_assert_eq!(a.allocations(), b.allocations());
        // Admission and trimming decisions replay identically too.
        let rs = ruleset_with(entries, width);
        for tenant in 0..a.tenant_count() {
            prop_assert_eq!(
                a.admit(tenant, &rs).is_ok(),
                b.admit(tenant, &rs).is_ok()
            );
            let (ta, cut_a) = a.trim(tenant, &rs).expect("tenant in range");
            let (tb, cut_b) = b.trim(tenant, &rs).expect("tenant in range");
            prop_assert_eq!(cut_a, cut_b);
            prop_assert_eq!(ta.entries(), tb.entries());
            // Trimmed result always fits the allocation the admitter uses.
            prop_assert!(a.admit(tenant, &ta).is_ok());
        }
    }
}
