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
use crate::experiments::ExperimentContext;
use crate::pipeline::TwoStagePipeline;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::compiled::LookupOutcome;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_rules::compile::CompileConfig;
use p4guard_rules::tree::TreeConfig;
use p4guard_rules::{RuleSet, TernaryEntry};
use serde::{Deserialize, Serialize};
use std::fmt;
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
        let mut table = crate::report::TextTable::new([
            "ruleset",
            "entries",
            "minimized",
            "tcam bits",
            "minimized bits",
            "margin",
        ]);
        for m in &self.margins {
            table.row([
                m.name.as_str(),
                &m.entries_source.to_string(),
                &m.entries_minimized.to_string(),
                &m.tcam_bits.to_string(),
                &m.tcam_bits_minimized.to_string(),
                &format!("{:.1}%", 100.0 * m.margin),
            ]);
        }
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

/// Trains the two-stage detector on the standard mixed scenario at one
/// tree-depth limit and compiles it to the *raw* per-leaf ternary
/// expansion. Compile-time merging is off: that keeps installed entries
/// aligned with tree leaves (what the delta path diffs against) and
/// leaves the redundancy for the lowering-time minimizer to recover —
/// which is exactly the margin this experiment measures.
fn learned_ruleset(ctx: &ExperimentContext, base: &GuardConfig, max_depth: usize) -> RuleSet {
    let config = GuardConfig {
        tree: TreeConfig {
            max_depth,
            ..base.tree
        },
        compile: CompileConfig {
            optimize: false,
            ..base.compile
        },
        ..base.clone()
    };
    TwoStagePipeline::new(config)
        .train(&ctx.train)
        .expect("detector pipeline trains")
        .compiled
        .ternary
}

/// Measures minimization margins of learned rulesets at each depth limit
/// through the `SwitchResources` accounting.
fn margins(ctx: &ExperimentContext, base: &GuardConfig, depths: &[usize]) -> Vec<MarginRow> {
    depths
        .iter()
        .map(|&depth| {
            let rs = learned_ruleset(ctx, base, depth);
            let layout = AclLayout {
                window: 64,
                offsets: (0..rs.key_width()).collect(),
                capacity: rs.len().max(1),
            };
            let control = ControlPlane::new(layout.switch("margin", ["acl"]));
            control
                .install_ruleset(0, &rs, Action::Drop)
                .expect("learned ruleset fits its own table");
            let resources = control.with_switch(|sw| sw.resources());
            MarginRow {
                name: format!("depth-{depth}"),
                entries_source: resources.tcam_entries,
                entries_minimized: resources.tcam_entries_minimized,
                tcam_bits: resources.tcam_bits,
                tcam_bits_minimized: resources.tcam_bits_minimized,
                margin: 1.0
                    - resources.tcam_entries_minimized as f64
                        / resources.tcam_entries.max(1) as f64,
            }
        })
        .collect()
}

/// A one-stage control plane keyed on three bytes of the parsed window,
/// sized for the latency ruleset.
fn latency_control(capacity: usize) -> (ControlPlane, usize) {
    let layout = AclLayout {
        window: 64,
        offsets: vec![23, 34, 35],
        capacity,
    };
    (ControlPlane::new(layout.switch("f20-minimize", ["acl"])), 0)
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
    ctx: &ExperimentContext,
    config: &GuardConfig,
    depths: &[usize],
    entries: usize,
    trials: usize,
) -> MinimizeReport {
    let margins = margins(ctx, config, depths);
    let seed = ctx.seed;

    // --- Incremental vs from-scratch publish latency. ---
    let (control, stage) = latency_control(entries + trials + 1);
    let (scratch_control, scratch_stage) = latency_control(entries + trials + 1);
    let mut current = latency_ruleset(entries);
    control
        .install_ruleset(stage, &current, Action::Drop)
        .expect("latency ruleset fits");
    control.publish();

    let mut incremental_samples = Vec::with_capacity(trials);
    let mut scratch_samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let next = one_entry_edit(&current, entries + trial);
        control
            .replace_ruleset(stage, &next, Action::Drop)
            .expect("one-entry edit applies");
        let report = control.publish();
        assert_eq!(
            report.stages_recompiled, 1,
            "a one-entry diff re-lowers exactly the edited stage"
        );
        incremental_samples.push(report.elapsed);

        scratch_control
            .clear_stage(scratch_stage)
            .expect("scratch stage clears");
        scratch_control
            .install_ruleset(scratch_stage, &next, Action::Drop)
            .expect("scratch install fits");
        scratch_samples.push(scratch_control.publish().elapsed);
        current = next;
    }
    let incremental = stats(&incremental_samples);
    let scratch = stats(&scratch_samples);
    let speedup = scratch.p50_us / incremental.p50_us.max(1e-9);

    // Verdict-equality oracle: the chain of patched recompiles must agree
    // with the from-scratch twin on every surviving entry's key (and a
    // near-miss neighbour), including the winning priority.
    let inc_pipeline = control.snapshot();
    let ref_pipeline = scratch_control.snapshot();
    let inc_stage = &inc_pipeline.stages()[stage];
    let ref_stage = &ref_pipeline.stages()[scratch_stage];
    let mut probes = 0usize;
    let mut inc_trace = [0u8; 3];
    let mut ref_trace = [0u8; 3];
    for e in current.entries() {
        for key in [e.value.clone(), {
            let mut k = e.value.clone();
            k[2] ^= 0x01;
            k
        }] {
            let (inc_action, inc_outcome) = inc_stage.lookup_traced(&key, &mut inc_trace);
            let (ref_action, ref_outcome) = ref_stage.lookup_traced(&key, &mut ref_trace);
            assert_eq!(inc_action, ref_action, "verdict diverges at key {key:02x?}");
            let rank_of = |o: &LookupOutcome| match o {
                LookupOutcome::Hit(r) => inc_stage.rank_priority(*r),
                _ => None,
            };
            let ref_rank_of = |o: &LookupOutcome| match o {
                LookupOutcome::Hit(r) => ref_stage.rank_priority(*r),
                _ => None,
            };
            assert_eq!(
                rank_of(&inc_outcome),
                ref_rank_of(&ref_outcome),
                "winner priority diverges at key {key:02x?}"
            );
            probes += 1;
        }
    }

    // --- Live gateway: deltas land mid-serve, frames are conserved. ---
    let gw = Gateway::start(&control, GatewayConfig::with_shards(2));
    let chunks = 6usize;
    let per_chunk = 500usize;
    let mut live_samples = Vec::with_capacity(chunks);
    let mut sent = 0u64;
    for chunk in 0..chunks {
        for i in 0..per_chunk {
            gw.dispatch(bytes::Bytes::from(live_frame(chunk * per_chunk + i)));
        }
        sent += per_chunk as u64;
        let next = one_entry_edit(&current, entries + trials + chunk);
        control
            .replace_ruleset(stage, &next, Action::Drop)
            .expect("live edit applies");
        live_samples.push(control.publish().elapsed);
        current = next;
    }
    gw.wait_drained(sent, Duration::from_secs(60))
        .expect("live gateway drains");
    let snap = gw.finish();
    let conserved = snap.totals.received == sent
        && snap.conservation_violations() == 0
        && snap.dropped_backpressure == 0;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f20_minimize_small_run_is_consistent() {
        let ctx = ExperimentContext::standard(7);
        let config = GuardConfig::fast();
        let report = run_f20_minimize(&ctx, &config, &[4, 6], 256, 8);
        assert_eq!(report.margins.len(), 2);
        for m in &report.margins {
            assert!(m.entries_source > 0);
            assert!(m.entries_minimized <= m.entries_source);
            assert!(m.tcam_bits_minimized <= m.tcam_bits);
        }
        assert!(
            report.margins.iter().any(|m| m.margin > 0.0),
            "at least one learned ruleset must minimize"
        );
        assert!(report.equality_probes > 0);
        assert!(report.conserved, "live gateway must conserve frames");
        assert_eq!(report.live_publishes, 6);
        assert!(
            report.speedup > 1.0,
            "incremental publish must beat from-scratch (got {:.2}x)",
            report.speedup
        );
    }

    #[test]
    fn f20_minimize_margins_are_seed_deterministic() {
        let ctx = ExperimentContext::standard(11);
        let config = GuardConfig::fast();
        let a = margins(&ctx, &config, &[4]);
        let b = margins(&ctx, &config, &[4]);
        assert_eq!(a, b);
    }
}
