//! # p4guard-conformance
//!
//! Deterministic, structure-aware conformance fuzzer for the `p4guard`
//! pipeline, runnable as ordinary `cargo test`.
//!
//! Three input families drive three differential oracles:
//!
//! * **Frames** ([`gen`] + [`mutate`]): valid protocol frames for every
//!   parser in `p4guard-packet`, then field-aware corruption — truncation
//!   at every byte offset, length-field lies, bit flips, region
//!   duplication. The oracle ([`oracle::check_frame`]) demands that
//!   [`p4guard_packet::parse`] never panics and that every layer struct it
//!   produces is a `decode → encode → decode` fixpoint.
//! * **Tables** ([`tables`]): adversarial rulesets — ternary masks from
//!   a few shared by every entry to one per entry, duplicate priorities,
//!   wide keys, overlapping LPM prefixes, degenerate ranges.
//!   The oracle compares [`p4guard_dataplane::CompiledTable`] verdicts
//!   against the reference priority scan (`Table::peek`) on every probe
//!   key.
//! * **Gateway fault schedules** (`tests/gateway_faults.rs` and its
//!   siblings, over the shared [`schedule`] fixtures): mid-replay
//!   hot swaps, queue-overload bursts and wrong-width ruleset installs.
//!   The oracle demands that drained-gateway totals equal a single-switch
//!   replay and that no frame is ever lost unaccounted.
//! * **Adaptation rollback schedules** (`tests/adapt_rollback.rs`): a
//!   poisoned candidate trips the canary guardrail mid-rollout; the
//!   oracle demands that rollback restores the exact prior version —
//!   shard version numbers, [`p4guard_rules::RuleSet::diff`] emptiness
//!   against the baseline, and verdict-for-verdict agreement with a
//!   single switch replaying the baseline rules.
//!
//! Failures shrink ([`shrink`]) to minimal hex repros persisted under
//! `tests/corpus/` ([`corpus`]), which `tests/corpus_replay.rs` replays
//! forever after as pinned regressions. See `DESIGN.md` § "Conformance
//! harness" for the full contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod schedule;
pub mod shrink;
pub mod tables;

pub use gen::Family;
pub use oracle::Failure;
