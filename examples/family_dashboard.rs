//! Attack-family dashboard: deploys one rule table per attack family so
//! the switch's per-family counters tell the operator *which* attack is
//! underway — the multiclass extension of the paper's binary firewall.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p4guard --example family_dashboard
//! ```

use p4guard::config::GuardConfig;
use p4guard::multiclass::FamilyGuard;
use p4guard_packet::trace::AttackFamily;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let trace = Scenario::mixed_default(7777).generate()?;
    let (train, test) = split_temporal(&trace, 0.6);

    println!("training the family guard (shared stage-1 selection, one rule table per family)…");
    let guard = FamilyGuard::train(GuardConfig::default(), &train)?;
    println!(
        "binary selection: {:?}; {} family tables, {} rules total\n",
        guard.binary.selection.offsets,
        guard.families.len(),
        guard.total_rules()
    );

    // Offline identification report.
    let report = guard.evaluate(&test);
    println!("{report}");

    // Deploy and read back per-family counters, as a NOC dashboard would.
    let control = guard.deploy(100_000)?;
    control.with_switch_mut(|sw| {
        for r in test.iter() {
            let _ = sw.process(&r.frame);
        }
    });
    println!("switch counters after replaying the test window:");
    control.with_switch(|sw| {
        let counters = &sw.counters().user;
        for family in AttackFamily::ALL {
            let hits = counters.get(family.code() as usize).copied().unwrap_or(0);
            if hits > 0 {
                let bar = "#".repeat(((hits as usize) / 20).min(60));
                println!("  {family:<20} {hits:>6}  {bar}");
            }
        }
        println!(
            "  dropped {} of {} received",
            sw.counters().dropped,
            sw.counters().received
        );
    });
    Ok(())
}
