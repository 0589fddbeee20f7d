//! # p4guard-adapt
//!
//! Closed-loop adaptation for the p4guard data plane: the control-loop
//! subsystem that notices when the deployed ruleset has gone stale,
//! learns a replacement, proves it harmless, and rolls it out — or rolls
//! it back — without a human in the loop.
//!
//! The paper's pipeline trains once and deploys once; real IoT traffic
//! drifts (new devices, new attack families, firmware updates). This
//! crate closes the loop with four cooperating pieces:
//!
//! 1. **Drift detection** ([`drift`]): windowed baselines over the
//!    telemetry registry's verdict counters, tested at drained
//!    checkpoints with a chi-squared mix test and a two-sided
//!    Page–Hinkley test. Purely counter-delta driven — deterministic
//!    under replay.
//! 2. **Retraining** ([`retrain`]): on drift, assemble a labelled window
//!    (scenario replay cross-referenced against flight-recorder verdict
//!    digests) and rerun the stage-2 path — byte dataset → projection →
//!    decision tree → ternary compilation — to produce a candidate
//!    [`RuleSet`](p4guard_rules::RuleSet).
//! 3. **Shadow evaluation** ([`shadow`]): run the candidate on a
//!    deterministic 1-in-N mirror of live ingest next to the live
//!    pipeline, off the enforcement path, and gate on the candidate's
//!    absolute drop rate.
//! 4. **Canary rollout** ([`engine`]): publish the candidate to a shard
//!    subset with
//!    [`ControlPlane::publish_to`](p4guard_dataplane::control::ControlPlane::publish_to),
//!    watch a drop-rate guardrail against the control shards, then
//!    promote fleet-wide with `republish` — or restore the prior version
//!    everywhere with `rollback_to` plus a switch-table swap back to the
//!    baseline the engine keeps as its active ruleset.
//!
//! Every phase transition is observable: `adapt_*` counters in the
//! shared registry and `drift` / `rollout` audit events in the flight
//! recorder, both served by the telemetry crate's `/metrics` and
//! `/events` endpoints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod engine;
pub mod retrain;
pub mod shadow;

pub use drift::{DriftConfig, DriftMonitor, DriftSignal};
pub use engine::{AdaptConfig, AdaptEngine, AdaptError, PhaseKind, StepOutcome};
pub use retrain::{LabelledWindow, RetrainError, Retrainer};
pub use shadow::ShadowScore;
