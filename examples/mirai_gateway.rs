//! A Mirai-infection story: an IoT gateway firewall is trained on the
//! first minutes of an infection, deployed, and then filters the rest of
//! the outbreak live — including a staged rollout where new rules start in
//! mirror (observe-only) mode before being switched to drop.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p4guard --example mirai_gateway
//! ```

use p4guard::config::GuardConfig;
use p4guard::pipeline::TwoStagePipeline;
use p4guard_dataplane::action::Action;
use p4guard_packet::trace::AttackFamily;
use p4guard_packet::trace::Trace;
use p4guard_traffic::scenario::{AttackEvent, Scenario};
use p4guard_traffic::{split_temporal, Fleet};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // A smart home where one camera is infected: it scans for telnet
    // victims, brute-forces a sibling device, then joins a SYN flood.
    let mut scenario = Scenario::benign_only(Fleet::smart_home(), 180.0, 7);
    scenario.attacks = vec![
        AttackEvent {
            family: AttackFamily::MiraiScan,
            start_s: 20.0,
            end_s: 170.0,
            intensity: 0.25,
        },
        AttackEvent {
            family: AttackFamily::BruteForce,
            start_s: 40.0,
            end_s: 170.0,
            intensity: 0.8,
        },
        AttackEvent {
            family: AttackFamily::SynFlood,
            start_s: 90.0,
            end_s: 160.0,
            intensity: 0.12,
        },
    ];
    let trace = scenario.generate()?;
    let (train, live) = split_temporal(&trace, 0.45);

    println!(
        "training on the first {} packets of the outbreak…",
        train.len()
    );
    let guard = TwoStagePipeline::new(GuardConfig::default()).train(&train)?;
    println!(
        "learned {} rules over bytes {:?}",
        guard.compiled.stats.entries, guard.selection.offsets
    );
    for name in guard.describe_fields(&train) {
        println!("  matches on {name}");
    }

    // Deploy in observe-only (mirror) mode first — the staged rollout a
    // real operator would use.
    let control = guard.deploy(10_000)?;
    control.replace_ruleset(0, &guard.compiled.ternary, Action::Mirror(99))?;
    println!("\nphase 1: observe-only (mirror to port 99)");
    let (mirror_window, enforce_window) = split_temporal(&live, 0.3);
    let stats = control.with_switch_mut(|sw| sw.run_trace(&mirror_window));
    let mirrored = control.with_switch(|sw| sw.counters().mirrored);
    println!("  {stats}");
    println!("  {mirrored} suspicious packets mirrored, 0 dropped — operator reviews and approves");

    // Flip to enforcement.
    control.replace_ruleset(0, &guard.compiled.ternary, Action::Drop)?;
    control.with_switch_mut(|sw| sw.reset_counters());
    println!("\nphase 2: enforcing");
    let stats = control.with_switch_mut(|sw| sw.run_trace(&enforce_window));
    println!("  {stats}");

    // Per-10-second timeline of what the gateway dropped vs what was
    // actually malicious.
    println!("\ntimeline (10 s buckets): dropped / attack packets");
    let mut verdicts: Vec<(u64, bool, bool)> = Vec::new();
    control.with_switch_mut(|sw| {
        for r in enforce_window.iter() {
            let dropped = sw.process(&r.frame).is_drop();
            verdicts.push((r.timestamp_us / 10_000_000, dropped, r.label.is_attack()));
        }
    });
    let mut buckets: std::collections::BTreeMap<u64, (usize, usize)> = Default::default();
    for (bucket, dropped, attack) in verdicts {
        let slot = buckets.entry(bucket).or_default();
        slot.0 += usize::from(dropped);
        slot.1 += usize::from(attack);
    }
    for (bucket, (dropped, attacks)) in buckets {
        let bar = "#".repeat((dropped / 10).min(60));
        println!(
            "  t={:>4}s  {dropped:>5} / {attacks:>5}  {bar}",
            bucket * 10
        );
    }

    let metrics = guard.evaluate_rules(&enforce_window);
    println!(
        "\nenforcement metrics: recall {:.3}, FPR {:.3}",
        metrics.recall, metrics.false_positive_rate
    );
    show_collateral(&guard, &enforce_window);
    Ok(())
}

fn show_collateral(guard: &p4guard::pipeline::TrainedGuard, window: &Trace) {
    let benign_total = window.len() - window.attack_count();
    let benign_dropped = window
        .iter()
        .filter(|r| !r.label.is_attack() && guard.classify_frame(&r.frame) == 1)
        .count();
    println!(
        "collateral damage: {benign_dropped} of {benign_total} benign packets dropped ({:.2}%)",
        100.0 * benign_dropped as f64 / benign_total.max(1) as f64
    );
}
