//! Tenants: device classes with independent rulesets on shared hardware.
//!
//! Each tenant owns a [`ControlPlane`] over its own one-stage ACL switch,
//! so per-tenant publishes, canaries and rollbacks compose with every
//! existing control-plane primitive. What tenants *share* is the physical
//! table space — every publish is admitted against the
//! [`TableBudgeter`] before any table is
//! touched — and the shard workers, which resolve the owning tenant per
//! frame through a [`TenantClassifier`].

use crate::budget::{BudgetError, TableBudgeter, TenantShare};
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::resources::MemoryKind;
use p4guard_rules::RuleSet;
use p4guard_telemetry::{Counter, Telemetry};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Layout of every tenant's ACL stage — the data plane's own type, whose
/// `switch` builds each tenant's switch.
pub use p4guard_dataplane::AclLayout;

/// First octet of the fleet address plan: tenants live under `10/8`.
pub const FLEET_NET: u8 = 10;

/// Second-octet span each tenant claims by default (16 octets ≍ 16 × 65536
/// addressable devices per tenant).
pub const DEFAULT_PREFIX_SPAN: u8 = 16;

/// The IPv4 address of device `device` in tenant `tenant` under the fleet
/// address plan: `10.(tenant·span + d₁₆).(d₈).(d₀)`.
///
/// # Panics
///
/// Panics if the device id overflows the tenant's prefix span.
pub fn device_ip(tenant: usize, device: u32, span: u8) -> Ipv4Addr {
    let hi = device >> 16;
    assert!(
        hi < u32::from(span) && tenant * usize::from(span) + (hi as usize) < 256,
        "device {device} overflows tenant {tenant} prefix span {span}"
    );
    Ipv4Addr::new(
        FLEET_NET,
        (tenant * usize::from(span)) as u8 + hi as u8,
        (device >> 8) as u8,
        device as u8,
    )
}

/// Source-prefix (VLAN-style) tenant resolution: an O(1) lookup of the
/// IPv4 source address's second octet in a 256-entry table. Frames outside
/// the fleet plan (non-IPv4, or not in `10/8`) fall back to the default
/// tenant, if one is configured; a source inside `10/8` under an octet no
/// tenant owns resolves to nobody and is counted, not served.
#[derive(Debug, Clone)]
pub struct TenantClassifier {
    by_octet: [u16; 256],
    default: Option<usize>,
}

impl TenantClassifier {
    /// Builds the classifier for `tenants` tenants, each owning `span`
    /// consecutive second octets starting at `tenant · span`.
    ///
    /// # Panics
    ///
    /// Panics if the tenants do not fit in the 256-octet space.
    pub fn prefix_per_tenant(tenants: usize, span: u8) -> Self {
        assert!(span > 0, "prefix span must be nonzero");
        assert!(
            tenants * usize::from(span) <= 256,
            "{tenants} tenants × span {span} overflow the second octet"
        );
        let mut by_octet = [0u16; 256];
        for tenant in 0..tenants {
            for o in 0..usize::from(span) {
                by_octet[tenant * usize::from(span) + o] = tenant as u16 + 1;
            }
        }
        TenantClassifier {
            by_octet,
            default: None,
        }
    }

    /// Routes frames from outside the fleet address plan to `tenant`
    /// instead of leaving them unclassified.
    pub fn with_default(mut self, tenant: usize) -> Self {
        self.default = Some(tenant);
        self
    }

    /// The tenant owning `frame`, by source prefix.
    #[inline]
    pub fn resolve(&self, frame: &[u8]) -> Option<usize> {
        // Ethernet + IPv4 fixed header: EtherType at 12..14, source
        // address at 26..30.
        if frame.len() >= 30 && frame[12] == 0x08 && frame[13] == 0x00 && frame[26] == FLEET_NET {
            return usize::from(self.by_octet[usize::from(frame[27])]).checked_sub(1);
        }
        self.default
    }
}

/// Declaration of one tenant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Human-readable tenant name (used as the `tenant` metric label).
    pub name: String,
    /// The tenant's claim on the shared table budget.
    pub share: TenantShare,
}

/// How the registry treats a publish that exceeds the tenant's allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Refuse the publish, leaving every table and cell untouched.
    Reject,
    /// Cut the lowest-priority entries until the ruleset fits.
    Trim,
}

/// Per-tenant table occupancy against the budgeter's allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantOccupancy {
    /// Tenant index.
    pub tenant: usize,
    /// TCAM bits the tenant's tables occupy.
    pub tcam_bits: usize,
    /// SRAM bits the tenant's tables occupy.
    pub sram_bits: usize,
    /// TCAM bits the budgeter allocated.
    pub allocated_tcam_bits: usize,
    /// SRAM bits the budgeter allocated.
    pub allocated_sram_bits: usize,
    /// Installed TCAM entries.
    pub tcam_entries: usize,
    /// TCAM bits the lowered (minimized) form occupies; `<= tcam_bits`.
    #[serde(default)]
    pub tcam_bits_minimized: usize,
    /// TCAM entries after minimization.
    #[serde(default)]
    pub tcam_entries_minimized: usize,
}

impl TenantOccupancy {
    /// Whether the tenant is inside its allocation on both memories.
    ///
    /// TCAM fit is judged on the **minimized** occupancy — the rows the
    /// lowered engines actually hold — matching how
    /// [`TableBudgeter::admit`] admits publishes.
    pub fn within_budget(&self) -> bool {
        self.tcam_bits_minimized <= self.allocated_tcam_bits
            && self.sram_bits <= self.allocated_sram_bits
    }
}

/// Result of a successful tenant publish.
#[derive(Debug, Clone)]
pub struct TenantPublish {
    /// Tenant index.
    pub tenant: usize,
    /// Published pipeline version (per-tenant version space).
    pub version: u64,
    /// Entries installed.
    pub installed: usize,
    /// Entries cut by [`AdmitPolicy::Trim`] (0 under `Reject`).
    pub trimmed: usize,
    /// Entry-level changes the swap applied to the tenant's stage:
    /// `(removed, added)`; a first publish is `(0, installed)`.
    pub delta: (usize, usize),
    /// Occupancy after the publish.
    pub occupancy: TenantOccupancy,
}

/// Errors from [`TenantRegistry`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The budgeter refused the operation.
    Budget(BudgetError),
    /// The ruleset's key width does not match the fleet ACL layout.
    WidthMismatch {
        /// Width the registry's ACL stage keys on.
        expected: usize,
        /// Width the ruleset was compiled for.
        got: usize,
    },
    /// A table operation failed.
    Table(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Budget(e) => write!(f, "budget: {e}"),
            FleetError::WidthMismatch { expected, got } => {
                write!(
                    f,
                    "ruleset key width {got} does not match ACL width {expected}"
                )
            }
            FleetError::Table(e) => write!(f, "table: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<BudgetError> for FleetError {
    fn from(e: BudgetError) -> Self {
        FleetError::Budget(e)
    }
}

struct TenantState {
    spec: TenantSpec,
    control: ControlPlane,
    active: Option<RuleSet>,
    rejected: u64,
    rejected_counter: Option<Counter>,
}

/// The fleet's tenant table: name → budgeted, independently-published
/// ruleset, all sharing one ACL key layout so a single scratch buffer and
/// classifier serve every tenant on the shard hot path.
pub struct TenantRegistry {
    tenants: Vec<TenantState>,
    budgeter: TableBudgeter,
    layout: AclLayout,
    telemetry: Option<Arc<Telemetry>>,
}

impl TenantRegistry {
    /// Builds a registry with one switch + control plane per tenant and
    /// the given shared budget.
    ///
    /// # Errors
    ///
    /// [`BudgetError::InfeasibleMinimums`] when the tenant guarantees
    /// exceed the global budget.
    pub fn new(
        specs: Vec<TenantSpec>,
        budget: crate::budget::BudgetConfig,
        layout: AclLayout,
    ) -> Result<Self, BudgetError> {
        let shares = specs.iter().map(|s| s.share).collect();
        let budgeter = TableBudgeter::new(budget, shares)?;
        let tenants = specs
            .into_iter()
            .map(|spec| TenantState {
                control: ControlPlane::new(layout.switch(format!("tenant-{}", spec.name), ["acl"])),
                spec,
                active: None,
                rejected: 0,
                rejected_counter: None,
            })
            .collect();
        Ok(TenantRegistry {
            tenants,
            budgeter,
            layout,
            telemetry: None,
        })
    }

    /// Registers per-tenant budget gauges and rejection counters with
    /// `telemetry`; subsequent publishes keep them current.
    pub fn attach_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        for (t, state) in self.tenants.iter_mut().enumerate() {
            let alloc = self.budgeter.allocation(t).expect("tenant in budgeter");
            for (memory, bits) in [
                (MemoryKind::Tcam, alloc.tcam_bits),
                (MemoryKind::Sram, alloc.sram_bits),
            ] {
                telemetry
                    .registry
                    .gauge(
                        "p4guard_tenant_budget_bits",
                        "Table bits allocated to a tenant",
                        &[
                            ("tenant", &state.spec.name),
                            ("memory", &memory.to_string()),
                        ],
                    )
                    .set(bits as f64);
            }
            state.rejected_counter = Some(telemetry.registry.counter(
                "p4guard_tenant_publish_rejected_total",
                "Tenant publishes refused by the table budgeter",
                &[("tenant", &state.spec.name)],
            ));
        }
        self.telemetry = Some(telemetry);
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The shared ACL key layout.
    pub fn layout(&self) -> &AclLayout {
        &self.layout
    }

    /// The budgeter policing this registry.
    pub fn budgeter(&self) -> &TableBudgeter {
        &self.budgeter
    }

    /// A tenant's declaration.
    pub fn spec(&self, tenant: usize) -> Option<&TenantSpec> {
        self.tenants.get(tenant).map(|t| &t.spec)
    }

    /// A tenant's control plane, for subscriptions, canaries, rollbacks.
    pub fn control(&self, tenant: usize) -> Option<&ControlPlane> {
        self.tenants.get(tenant).map(|t| &t.control)
    }

    /// The ruleset last admitted and published for a tenant, if any — the
    /// record of what admission let through; what is *installed* is the
    /// tenant's table.
    pub fn active_ruleset(&self, tenant: usize) -> Option<&RuleSet> {
        self.tenants.get(tenant).and_then(|t| t.active.as_ref())
    }

    /// Publishes rejected by the budgeter for `tenant` so far.
    pub fn rejected_publishes(&self, tenant: usize) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.rejected)
    }

    /// Builds a classifier matching this registry's tenant count under the
    /// default address plan.
    pub fn classifier(&self) -> TenantClassifier {
        TenantClassifier::prefix_per_tenant(self.tenants.len(), DEFAULT_PREFIX_SPAN).with_default(0)
    }

    /// Admits `ruleset` against the tenant's allocation and, if it fits
    /// (or `policy` is [`AdmitPolicy::Trim`]), swaps it in through the
    /// tenant's control plane.
    ///
    /// Admission happens strictly before any table mutation, and the swap
    /// itself ([`ControlPlane::replace_ruleset`]) is all-or-nothing: a
    /// rejected or failed publish returns with the tenant's table,
    /// pipeline cells, admitted-ruleset record and every other tenant's
    /// state untouched. A republish applies only the entries that differ
    /// from what the table holds, so it compiles incrementally.
    ///
    /// # Errors
    ///
    /// [`FleetError::Budget`] on rejection, [`FleetError::WidthMismatch`]
    /// for a ruleset compiled against a different key layout,
    /// [`FleetError::Table`] if the admitted ruleset exceeds the stage's
    /// entry capacity.
    pub fn publish(
        &mut self,
        tenant: usize,
        ruleset: &RuleSet,
        policy: AdmitPolicy,
    ) -> Result<TenantPublish, FleetError> {
        let expected = self.layout.offsets.len();
        if ruleset.key_width() != expected {
            return Err(FleetError::WidthMismatch {
                expected,
                got: ruleset.key_width(),
            });
        }
        self.budgeter
            .allocation(tenant)
            .map_err(FleetError::Budget)?;
        let (admitted, trimmed) = match policy {
            AdmitPolicy::Reject => match self.budgeter.admit(tenant, ruleset) {
                Ok(()) => (ruleset.clone(), 0),
                Err(e) => {
                    let state = &mut self.tenants[tenant];
                    state.rejected += 1;
                    if let Some(c) = &state.rejected_counter {
                        c.inc();
                    }
                    return Err(e.into());
                }
            },
            AdmitPolicy::Trim => self.budgeter.trim(tenant, ruleset)?,
        };
        let state = &mut self.tenants[tenant];
        let diff = state
            .control
            .replace_ruleset(0, &admitted, Action::Drop)
            .map_err(|e| FleetError::Table(e.to_string()))?;
        let installed = admitted.len();
        let publish = state.control.publish();
        state.active = Some(admitted);
        let occupancy = self.occupancy(tenant)?;
        self.export_occupancy(tenant, &occupancy);
        Ok(TenantPublish {
            tenant,
            version: publish.version,
            installed,
            trimmed,
            delta: (diff.removed.len(), diff.added.len()),
            occupancy,
        })
    }

    /// Measures a tenant's live table occupancy against its allocation.
    ///
    /// # Errors
    ///
    /// [`FleetError::Budget`] with
    /// [`BudgetError::NoSuchTenant`] for an out-of-range index.
    pub fn occupancy(&self, tenant: usize) -> Result<TenantOccupancy, FleetError> {
        let alloc = self.budgeter.allocation(tenant)?;
        let state = self.tenants.get(tenant).ok_or(BudgetError::NoSuchTenant {
            tenant,
            tenants: self.tenants.len(),
        })?;
        let resources = state.control.with_switch(|sw| sw.resources());
        Ok(TenantOccupancy {
            tenant,
            tcam_bits: resources.tcam_bits,
            sram_bits: resources.sram_bits,
            allocated_tcam_bits: alloc.tcam_bits,
            allocated_sram_bits: alloc.sram_bits,
            tcam_entries: resources.tcam_entries,
            tcam_bits_minimized: resources.tcam_bits_minimized,
            tcam_entries_minimized: resources.tcam_entries_minimized,
        })
    }

    /// Every tenant's occupancy, indexed by tenant.
    pub fn occupancies(&self) -> Vec<TenantOccupancy> {
        (0..self.tenants.len())
            .map(|t| self.occupancy(t).expect("tenant in range"))
            .collect()
    }

    fn export_occupancy(&self, tenant: usize, occ: &TenantOccupancy) {
        if let Some(telemetry) = &self.telemetry {
            let name = &self.tenants[tenant].spec.name;
            for (memory, bits) in [
                (MemoryKind::Tcam, occ.tcam_bits),
                (MemoryKind::Sram, occ.sram_bits),
            ] {
                telemetry
                    .registry
                    .gauge(
                        "p4guard_tenant_occupancy_bits",
                        "Table bits a tenant currently occupies",
                        &[("tenant", name), ("memory", &memory.to_string())],
                    )
                    .set(bits as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetConfig;
    use p4guard_rules::TernaryEntry;

    fn specs(n: usize) -> Vec<TenantSpec> {
        (0..n)
            .map(|i| TenantSpec {
                name: format!("t{i}"),
                share: TenantShare::flat(),
            })
            .collect()
    }

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
    fn classifier_resolves_by_source_prefix() {
        let c = TenantClassifier::prefix_per_tenant(4, 16);
        let mut frame = vec![0u8; 40];
        frame[12] = 0x08;
        let ip = device_ip(2, 0x0001_0203, 16);
        frame[26..30].copy_from_slice(&ip.octets());
        assert_eq!(c.resolve(&frame), Some(2));
        // Outside the plan: no default → None, with default → Some.
        frame[26] = 192;
        assert_eq!(c.resolve(&frame), None);
        assert_eq!(c.clone().with_default(1).resolve(&frame), Some(1));
        // Inside the plan under an octet nobody owns: unknown, default or
        // not.
        frame[26] = FLEET_NET;
        frame[27] = 4 * 16;
        assert_eq!(c.with_default(1).resolve(&frame), None);
    }

    #[test]
    fn publish_respects_budget_and_reports_occupancy() {
        let layout = AclLayout::default();
        let width = layout.offsets.len();
        let bits_per_entry = width * 8 * 2;
        let mut reg = TenantRegistry::new(
            specs(2),
            BudgetConfig {
                tcam_bits: bits_per_entry * 20, // ten entries per tenant
                sram_bits: 0,
            },
            layout,
        )
        .unwrap();
        let ok = reg
            .publish(0, &ruleset_with(10, width), AdmitPolicy::Reject)
            .unwrap();
        assert_eq!(ok.installed, 10);
        assert!(ok.occupancy.within_budget());
        assert_eq!(ok.occupancy.tcam_bits, 10 * bits_per_entry);

        let cell = reg.control(1).unwrap().attach_cell();
        let before = cell.version();
        let err = reg
            .publish(1, &ruleset_with(11, width), AdmitPolicy::Reject)
            .unwrap_err();
        assert!(matches!(err, FleetError::Budget(_)));
        assert_eq!(reg.rejected_publishes(1), 1);
        // Rejection left tenant 1's published pipeline untouched.
        assert_eq!(cell.version(), before);
        assert_eq!(reg.occupancy(1).unwrap().tcam_entries, 0);

        let trimmed = reg
            .publish(1, &ruleset_with(11, width), AdmitPolicy::Trim)
            .unwrap();
        assert_eq!(trimmed.trimmed, 1);
        assert_eq!(trimmed.installed, 10);
        assert!(trimmed.occupancy.within_budget());
    }

    #[test]
    fn republish_applies_only_the_diff() {
        let layout = AclLayout::default();
        let width = layout.offsets.len();
        let mut reg =
            TenantRegistry::new(specs(1), BudgetConfig::default(), layout.clone()).unwrap();
        let first = reg
            .publish(0, &ruleset_with(10, width), AdmitPolicy::Reject)
            .unwrap();
        assert_eq!(first.delta, (0, 10), "first publish adds everything");

        // Change one entry: drop rule 9, add a new rule 10.
        let dropped = ruleset_with(10, width).entries()[0].clone(); // highest priority
        let mut next = RuleSet::new(width, 0);
        for e in ruleset_with(10, width).entries() {
            if *e != dropped {
                next.push(e.clone());
            }
        }
        next.push(TernaryEntry::new(
            vec![0xaa; width],
            vec![0xff; width],
            1,
            99,
        ));
        let second = reg.publish(0, &next, AdmitPolicy::Reject).unwrap();
        assert_eq!(second.delta, (1, 1), "one removed, one added");
        assert_eq!(second.installed, 10);
        assert!(second.version > first.version);

        // The delta-applied table serves exactly the new ruleset: the new
        // rule drops, the removed one no longer does.
        let control = reg.control(0).unwrap();
        control.with_switch(|sw| {
            let table = sw.stage(0);
            assert_eq!(table.len(), 10);
        });
        control.with_switch_mut(|sw| {
            let mut frame = vec![0u8; 64];
            for (i, &off) in layout.offsets.iter().enumerate() {
                frame[off] = [0xaa; 5][i];
            }
            assert!(sw.process(&frame).is_drop(), "added rule enforces");
        });
    }

    #[test]
    fn a_publish_that_overflows_the_stage_changes_nothing() {
        let layout = AclLayout {
            capacity: 8,
            ..AclLayout::default()
        };
        let width = layout.offsets.len();
        let mut reg =
            TenantRegistry::new(specs(1), BudgetConfig::default(), layout.clone()).unwrap();
        reg.publish(0, &ruleset_with(8, width), AdmitPolicy::Reject)
            .unwrap();
        let cell = reg.control(0).unwrap().attach_cell();
        let installed = |reg: &TenantRegistry| {
            reg.control(0)
                .unwrap()
                .with_switch(|sw| sw.stage(0).entries().to_vec())
        };
        let (before, version) = (installed(&reg), cell.version());

        // Admitted by the (roomy) budget, but one entry more than the
        // stage holds: a typed error, and nothing moved.
        let mut too_big = ruleset_with(8, width);
        too_big.push(TernaryEntry::new(
            vec![0xee; width],
            vec![0xff; width],
            1,
            50,
        ));
        let err = reg.publish(0, &too_big, AdmitPolicy::Reject).unwrap_err();
        assert_eq!(err, FleetError::Table("table full at 8 entries".into()));
        assert_eq!(installed(&reg), before);
        assert_eq!(cell.version(), version);
        assert_eq!(reg.active_ruleset(0), Some(&ruleset_with(8, width)));

        // A following publish that fits succeeds, and the patched table is
        // verdict-equal to the same ruleset installed from scratch.
        let mut next = ruleset_with(7, width);
        next.push(TernaryEntry::new(
            vec![0xee; width],
            vec![0xff; width],
            1,
            50,
        ));
        let ok = reg.publish(0, &next, AdmitPolicy::Reject).unwrap();
        assert_eq!(ok.delta, (1, 1));
        assert!(cell.version() > version);
        let fresh = ControlPlane::new(layout.switch("fresh", ["acl"]));
        fresh.replace_ruleset(0, &next, Action::Drop).unwrap();
        for probe in 0..=255u8 {
            let mut frame = vec![0u8; 64];
            for &off in &layout.offsets {
                frame[off] = probe;
            }
            assert_eq!(
                reg.control(0)
                    .unwrap()
                    .with_switch_mut(|sw| sw.process(&frame)),
                fresh.with_switch_mut(|sw| sw.process(&frame)),
                "probe {probe:#04x}"
            );
        }
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut reg =
            TenantRegistry::new(specs(1), BudgetConfig::default(), AclLayout::default()).unwrap();
        let err = reg
            .publish(0, &ruleset_with(1, 3), AdmitPolicy::Reject)
            .unwrap_err();
        assert!(matches!(err, FleetError::WidthMismatch { .. }));
    }
}
