//! # p4guard-dataplane
//!
//! A P4-style behavioural model standing in for the paper's programmable
//! switch: the raw-window [`parser::ParserSpec`] the generated P4 program
//! deploys (protocol-agnostic by the paper's design — no parse graph),
//! match-action [`table::Table`]s with exact/ternary/LPM/range kinds and
//! capacity limits, a TCAM/SRAM [`resources`] cost model, a software
//! [`switch::Switch`] with counters and a throughput harness, a
//! [`control::ControlPlane`] that installs, updates and publishes compiled
//! rule sets, the [`acl::AclLayout`] builder every learned-guard
//! deployment gets its switch from, and a [`compiled::CompiledTable`]
//! layer that lowers frozen tables into a lookup engine for the read path:
//! a per-byte bit-vector intersect that matches a table of any kind 64
//! entries per word.
//!
//! The claims the model preserves from real hardware are the ones the
//! paper's evaluation rests on: *expressiveness* (match keys are arbitrary
//! frame bytes, so non-IP protocols are first-class) and *resource cost*
//! (entries × key bits, doubled for ternary memories). Absolute Tbps
//! numbers are CPU-bound here and reported as relative throughput.
//!
//! # Examples
//!
//! A one-table firewall that drops frames whose first byte is `0xBB`:
//!
//! ```
//! use p4guard_dataplane::action::{Action, Verdict};
//! use p4guard_dataplane::key::KeyLayout;
//! use p4guard_dataplane::parser::ParserSpec;
//! use p4guard_dataplane::switch::Switch;
//! use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
//!
//! let mut sw = Switch::new("gw", ParserSpec::raw_window(8, 1), 1);
//! let mut acl = Table::new("acl", MatchKind::Ternary, KeyLayout::window(1), 16, Action::NoOp);
//! acl.insert(
//!     MatchSpec::Ternary { value: vec![0xbb], mask: vec![0xff] },
//!     Action::Drop,
//!     1,
//! )?;
//! sw.add_stage(acl);
//! assert_eq!(sw.process(&[0xbb, 0x01]), Verdict::Drop);
//! assert_eq!(sw.process(&[0x01, 0x01]), Verdict::Forward(1));
//! # Ok::<(), p4guard_dataplane::table::TableError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod acl;
pub mod action;
pub mod byteset;
pub mod compiled;
pub mod control;
pub mod key;
pub mod minimize;
pub mod parser;
pub mod pipeline;
pub mod resources;
pub mod switch;
pub mod table;
pub mod vote;

pub use acl::AclLayout;
pub use action::{Action, Verdict};
pub use compiled::{CompiledTable, LookupOutcome, Rank};
pub use control::{ControlPlane, PublishReport};
pub use key::KeyLayout;
pub use parser::ParserSpec;
pub use pipeline::{BatchScratch, PipelineCell, ReadPipeline};
pub use resources::{SwitchResources, TableUsage};
pub use switch::{compute_pps, RunStats, Switch, SwitchCounters};
pub use table::{EntryHandle, MatchKind, MatchSpec, Table, TableError};
pub use vote::{EarlyExit, VoteStage};
