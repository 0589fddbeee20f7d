//! F20-minimize: ternary minimization margin and incremental-publish
//! latency.
//!
//! Two claims are measured. First, the lowering-time minimizer
//! (range-to-prefix expansion, adjacent-leaf merging, subsumed-entry
//! elimination) buys real TCAM headroom on *learned* rulesets: per fleet
//! tenant we train the usual detector, compile it to ternary, and report
//! source vs minimized entries/bits straight from `SwitchResources` — the
//! same accounting the fleet budgeter admits against. Second, delta
//! compilation makes republish latency independent of ruleset size: a
//! 1-entry diff against a 1024-entry stage must publish an order of
//! magnitude faster than a from-scratch recompile of the same stage, and
//! the incrementally patched pipeline must stay verdict-identical to a
//! twin compiled from scratch. A live-gateway phase republishes deltas
//! mid-serve and checks frame conservation.

use crate::config::GuardConfig;
use crate::experiments::live::Live;
use crate::experiments::ExperimentContext;
use crate::report::TextTable;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::{CompiledTable, LookupOutcome};
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_packet::arena::FrameBatch;
use p4guard_rules::compile::CompileConfig;
use p4guard_rules::{RuleSet, TernaryEntry};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::ControlFlow;
use std::time::Duration;

/// One learned ruleset's minimization margin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarginRow {
    /// Ruleset label (the tree-depth limit it was trained at).
    pub name: String,
    /// Installed (source) ternary entries.
    pub entries_source: usize,
    /// Entries after minimization — what the budgeter charges for.
    pub entries_minimized: usize,
    /// Source TCAM bits.
    pub tcam_bits: usize,
    /// Minimized TCAM bits.
    pub tcam_bits_minimized: usize,
    /// Fraction of entries the minimizer removed.
    pub margin: f64,
}

/// Publish-latency percentiles in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median publish latency.
    pub p50_us: f64,
    /// 99th-percentile publish latency.
    pub p99_us: f64,
    /// Samples taken.
    pub samples: usize,
}

/// The F20-minimize report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinimizeReport {
    /// Scenario seed.
    pub seed: u64,
    /// Minimization margins of learned rulesets per tree-depth limit.
    pub margins: Vec<MarginRow>,
    /// Entries in the synthetic latency ruleset.
    pub latency_entries: usize,
    /// Incremental 1-entry-diff publish latency.
    pub incremental: LatencyStats,
    /// From-scratch recompile publish latency on the same ruleset.
    pub scratch: LatencyStats,
    /// `scratch.p50 / incremental.p50` — the delta-compilation win.
    pub speedup: f64,
    /// Keys probed for verdict equality between the incrementally patched
    /// pipeline and the from-scratch twin.
    pub equality_probes: usize,
    /// Frames pushed through the live gateway while deltas published.
    pub live_frames: u64,
    /// Incremental publishes landed mid-serve.
    pub live_publishes: usize,
    /// Publish latency of the mid-serve deltas.
    pub live_publish: LatencyStats,
    /// Whether every live frame got exactly one verdict.
    pub conserved: bool,
}

impl fmt::Display for MinimizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F20-minimize (seed {})", self.seed)?;
        let table = TextTable::of(
            &self.margins,
            &[
                ("ruleset", |m| m.name.clone()),
                ("entries", |m| m.entries_source.to_string()),
                ("minimized", |m| m.entries_minimized.to_string()),
                ("tcam bits", |m| m.tcam_bits.to_string()),
                ("minimized bits", |m| m.tcam_bits_minimized.to_string()),
                ("margin", |m| format!("{:.1}%", 100.0 * m.margin)),
            ],
        );
        write!(f, "{table}")?;
        writeln!(
            f,
            "publish @ {} entries: incremental p50 {:.1} us / p99 {:.1} us, \
             scratch p50 {:.1} us / p99 {:.1} us — {:.1}x speedup",
            self.latency_entries,
            self.incremental.p50_us,
            self.incremental.p99_us,
            self.scratch.p50_us,
            self.scratch.p99_us,
            self.speedup
        )?;
        writeln!(
            f,
            "live: {} frames over {} delta publishes (p50 {:.1} us, p99 {:.1} us), conserved: {}",
            self.live_frames,
            self.live_publishes,
            self.live_publish.p50_us,
            self.live_publish.p99_us,
            if self.conserved { "yes" } else { "NO" }
        )
    }
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn stats(samples: &[Duration]) -> LatencyStats {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(f64::total_cmp);
    LatencyStats {
        p50_us: percentile(&us, 0.50),
        p99_us: percentile(&us, 0.99),
        samples: us.len(),
    }
}

/// Measures minimization margins of learned rulesets at each depth limit
/// through the `SwitchResources` accounting. Each ruleset is the lab's
/// two-stage detector at that depth compiled to the *raw* per-leaf ternary
/// expansion: compile-time merging is off, which keeps installed entries
/// aligned with tree leaves (what the delta path diffs against) and
/// leaves the redundancy for the lowering-time minimizer to recover —
/// exactly the margin this experiment measures.
fn margins(lab: &ExperimentContext, depths: &[usize]) -> Vec<MarginRow> {
    let raw_at = |&max_depth: &usize| GuardConfig {
        compile: CompileConfig {
            optimize: false,
            ..lab.config.compile
        },
        ..lab.config_at_depth(max_depth)
    };
    lab.sweep_rows(depths, raw_at, |depth, detector| {
        let rs = &detector.guard().compiled.ternary;
        let layout = AclLayout {
            window: 64,
            offsets: (0..rs.key_width()).collect(),
            capacity: rs.len().max(1),
        };
        let control = ControlPlane::new(layout.switch("margin", ["acl"]));
        control
            .replace_ruleset(0, rs, Action::Drop)
            .expect("learned ruleset fits its own table");
        let resources = control.with_switch(|sw| sw.resources());
        MarginRow {
            name: format!("depth-{depth}"),
            entries_source: resources.tcam_entries,
            entries_minimized: resources.tcam_entries_minimized,
            tcam_bits: resources.tcam_bits,
            tcam_bits_minimized: resources.tcam_bits_minimized,
            margin: 1.0
                - resources.tcam_entries_minimized as f64 / resources.tcam_entries.max(1) as f64,
        }
    })
}

/// The one stage of a [`latency_control`] switch.
const STAGE: usize = 0;

/// A one-stage control plane keyed on three bytes of the parsed window,
/// sized for the latency ruleset.
fn latency_control(capacity: usize) -> ControlPlane {
    let layout = AclLayout {
        window: 64,
        offsets: vec![23, 34, 35],
        capacity,
    };
    ControlPlane::new(layout.switch("f20-minimize", ["acl"]))
}

/// The synthetic width-3 latency ruleset: `n` unique fully-masked entries.
fn latency_ruleset(n: usize) -> RuleSet {
    let mut rs = RuleSet::new(3, 0);
    for i in 0..n {
        rs.push(TernaryEntry::new(
            vec![(i % 256) as u8, (i / 256) as u8, 0xaa],
            vec![0xff, 0xff, 0xff],
            1,
            (i % 4) as i32,
        ));
    }
    rs
}

/// The marker entry trial `trial` contributes; `0xbb` in the last byte
/// keeps markers disjoint from the base ruleset (which pins `0xaa` there).
fn marker_entry(trial: usize) -> TernaryEntry {
    TernaryEntry::new(
        vec![(trial % 256) as u8, (trial / 256) as u8, 0xbb],
        vec![0xff, 0xff, 0xff],
        1,
        2,
    )
}

/// `current` with the previous trial's marker entry swapped for trial
/// `trial`'s — the shape of one tree leaf shifting under retraining. The
/// outgoing marker was patched in verbatim by the previous delta, so the
/// incremental path can patch it back out without re-minimizing the
/// untouched bulk.
fn one_entry_edit(current: &RuleSet, trial: usize) -> RuleSet {
    let mut next = RuleSet::new(current.key_width(), 0);
    for e in current.entries() {
        if e.value[2] != 0xbb {
            next.push(e.clone());
        }
    }
    next.push(marker_entry(trial));
    next
}

/// An Ethernet+IPv4 frame whose protocol byte and first port bytes land on
/// the latency stage's key offsets.
fn live_frame(i: usize) -> Vec<u8> {
    let mut f = vec![0u8; 14];
    f[12] = 0x08;
    let mut ip = vec![0u8; 20];
    ip[0] = 0x45;
    ip[9] = [6u8, 17, 1, 47][i % 4];
    ip[12..16].copy_from_slice(&[10, 0, 0, (i % 16) as u8]);
    ip[16..20].copy_from_slice(&[10, 0, 1, 1]);
    f.extend_from_slice(&ip);
    f.extend_from_slice(&((i % 1024) as u16).to_be_bytes());
    f.extend_from_slice(&443u16.to_be_bytes());
    f.extend_from_slice(&[0, 9, 0, 0, (i % 256) as u8]);
    f
}

/// Runs the F20-minimize experiment: margin rows for learned rulesets at
/// each depth in `depths`, then the publish-latency comparison at
/// `entries` entries over `trials` one-entry diffs, then the live-gateway
/// delta phase.
///
/// # Panics
///
/// Panics if an incremental publish recompiles more than the edited stage,
/// if the patched pipeline diverges from a from-scratch compile, or if the
/// live gateway fails to drain.
pub fn run_f20_minimize(
    lab: &ExperimentContext,
    depths: &[usize],
    entries: usize,
    trials: usize,
) -> MinimizeReport {
    let margins = margins(lab, depths);
    let seed = lab.seed;

    // --- Incremental vs from-scratch publish latency. ---
    let control = latency_control(entries + trials + 1);
    // The from-scratch series: a fresh control plane per ruleset, so its
    // first publish has no previous snapshot to patch or share.
    let compile_fresh = |ruleset: &RuleSet| {
        let fresh = latency_control(entries + trials + 1);
        fresh
            .replace_ruleset(STAGE, ruleset, Action::Drop)
            .expect("scratch install fits");
        let report = fresh.publish();
        assert_eq!(report.stages_shared, 0, "scratch compiles in full");
        (fresh, report.elapsed)
    };
    let mut current = latency_ruleset(entries);
    control
        .replace_ruleset(STAGE, &current, Action::Drop)
        .expect("latency ruleset fits");
    control.publish();

    let mut incremental_samples = Vec::with_capacity(trials);
    let mut scratch_samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let next = one_entry_edit(&current, entries + trial);
        control
            .replace_ruleset(STAGE, &next, Action::Drop)
            .expect("one-entry edit applies");
        let report = control.publish();
        assert_eq!(
            report.stages_recompiled, 1,
            "a one-entry diff re-lowers exactly the edited stage"
        );
        incremental_samples.push(report.elapsed);
        let (_, full_compile) = compile_fresh(&next);
        scratch_samples.push(full_compile);
        current = next;
    }
    let incremental = stats(&incremental_samples);
    let scratch = stats(&scratch_samples);
    let speedup = scratch.p50_us / incremental.p50_us.max(1e-9);

    // Verdict-equality oracle: the chain of patched recompiles must agree
    // with the from-scratch twin on every surviving entry's key (and a
    // near-miss neighbour), including the winning priority.
    let inc_pipeline = control.snapshot();
    let (scratch_control, _) = compile_fresh(&current);
    let ref_pipeline = scratch_control.snapshot();
    let winner = |table: &CompiledTable, key: &[u8]| {
        let (action, outcome) = table.lookup_traced(key, &mut [0u8; 3]);
        let priority = match outcome {
            LookupOutcome::Hit(rank) => table.rank_priority(rank),
            _ => None,
        };
        (action, priority)
    };
    let mut probes = 0usize;
    for e in current.entries() {
        let mut near_miss = e.value.clone();
        near_miss[2] ^= 0x01;
        for key in [&e.value, &near_miss] {
            assert_eq!(
                winner(&inc_pipeline.stages()[STAGE], key),
                winner(&ref_pipeline.stages()[STAGE], key),
                "verdict or winner priority diverges at key {key:02x?}"
            );
            probes += 1;
        }
    }

    // --- Live gateway: deltas land mid-serve, frames are conserved. ---
    let mut live = Live::<Gateway>::start(&control, GatewayConfig::with_shards(2), None);
    let chunks = 6usize;
    let per_chunk = 500usize;
    let mut live_samples = Vec::with_capacity(chunks);
    let frames = |chunk: usize| {
        let ids = chunk * per_chunk..(chunk + 1) * per_chunk;
        ids.map(|i| FrameBatch::single(live_frame(i).into()))
    };
    live.feed((0..chunks).map(frames), false, |_| {
        let next = one_entry_edit(&current, entries + trials + live_samples.len());
        control
            .replace_ruleset(STAGE, &next, Action::Drop)
            .expect("live edit applies");
        live_samples.push(control.publish().elapsed);
        current = next;
        ControlFlow::Continue(())
    });
    let sent = live.sent;
    let (_, conserved) = live.end();

    MinimizeReport {
        seed,
        margins,
        latency_entries: entries,
        incremental,
        scratch,
        speedup,
        equality_probes: probes,
        live_frames: sent,
        live_publishes: live_samples.len(),
        live_publish: stats(&live_samples),
        conserved,
    }
}
