//! Quickstart: simulate a smart home, train the two-stage pipeline, deploy
//! the compiled rules to a behavioural-model switch, and measure what the
//! data plane catches.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p4guard --example quickstart
//! ```

use p4guard::config::GuardConfig;
use p4guard::pipeline::TwoStagePipeline;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use p4guard_traffic::stats::TraceStats;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Simulate a smart home under attack (Mirai scan, telnet brute
    //    force, MQTT flood, ZWire hijack) with a deterministic seed.
    let trace = Scenario::smart_home_default(42).generate()?;
    println!("=== dataset ===");
    println!("{}", TraceStats::compute(&trace));

    // 2. Split temporally: train on the past, test on the future.
    let (train, test) = split_temporal(&trace, 0.6);

    // 3. Train the two-stage pipeline: stage 1 selects the k most salient
    //    header bytes; stage 2 distills a classifier into ternary rules.
    let config = GuardConfig::default();
    let guard = TwoStagePipeline::new(config).train(&train)?;

    println!("=== stage 1: selected header bytes ===");
    for (offset, name) in guard
        .selection
        .offsets
        .iter()
        .zip(guard.describe_fields(&train))
    {
        println!("  byte {offset:>3}  {name}");
    }

    println!("\n=== stage 2: compiled rules ===");
    let stats = &guard.compiled.stats;
    println!(
        "  {} tree paths -> {} ternary entries ({} TCAM bits, key {} bits)",
        stats.paths,
        stats.entries,
        stats.tcam_bits,
        stats.key_width * 8
    );
    println!("  pipeline time: {:?}", guard.timings.total());

    // 4. Evaluate the rules on unseen (future) traffic.
    let metrics = guard.evaluate_rules(&test);
    println!("\n=== detection on the test split ===");
    println!(
        "  accuracy {:.3}  precision {:.3}  recall {:.3}  F1 {:.3}  FPR {:.3}",
        metrics.accuracy,
        metrics.precision,
        metrics.recall,
        metrics.f1,
        metrics.false_positive_rate
    );

    // 5. Deploy to a P4-style switch and replay the test traffic.
    let control = guard.deploy(10_000)?;
    let stats = control.with_switch_mut(|sw| sw.run_trace(&test));
    println!("\n=== deployed switch ===");
    println!("  {stats}");
    control.with_switch(|sw| {
        println!("{}", sw.resources());
    });
    Ok(())
}
