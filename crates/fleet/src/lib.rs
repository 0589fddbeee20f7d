//! # p4guard-fleet
//!
//! Multi-tenant fleet layer: one physical gateway serving many device
//! classes ("tenants"), each with its own learned ruleset, under a shared
//! switch table budget — the deployment shape of the paper's gateway
//! scaled to smart-home / campus fleets of 10⁵–10⁶ IoT devices.
//!
//! ## Pieces
//!
//! - [`TenantRegistry`] ([`tenant`]): per-tenant [`RuleSet`]s published
//!   through per-tenant
//!   [`ControlPlane`](p4guard_dataplane::control::ControlPlane)s, admitted
//!   against the shared budget *before* any table is touched.
//! - [`TableBudgeter`] ([`budget`]): carves the global TCAM/SRAM bit
//!   budget into per-tenant allocations (weighted fair share over minimum
//!   guarantees), rejects or trims over-budget publishes, reports
//!   per-tenant occupancy.
//! - [`FleetSim`] ([`sim`]): deterministic traffic for fleets of virtual
//!   devices — device churn, diurnal load, per-tenant attack waves —
//!   with memory O(frames), not O(devices).
//! - [`FleetGateway`] ([`gateway`]): the `p4guard-gateway` shard workers
//!   with one lane per tenant; each batch regrouped by an O(1)
//!   source-prefix [`TenantClassifier`]. No per-tenant thread pools and no
//!   second worker loop; the cost over the single-tenant gateway is ledger
//!   row `fleet.overhead_pct`.
//!
//! [`RuleSet`]: p4guard_rules::RuleSet

#![warn(missing_docs)]

pub mod budget;
pub mod gateway;
pub mod sim;
pub mod tenant;

pub use budget::{
    BudgetConfig, BudgetError, ForestAdmission, TableBudgeter, TenantAllocation, TenantShare,
};
pub use gateway::{FleetGateway, FleetSnapshot};
pub use sim::{AttackWave, FleetSim, FleetSimConfig, SimFrame, TenantSimStats, TenantTraffic};
pub use tenant::{
    device_ip, AclLayout, AdmitPolicy, FleetError, TenantClassifier, TenantOccupancy,
    TenantPublish, TenantRegistry, TenantSpec, DEFAULT_PREFIX_SPAN,
};
