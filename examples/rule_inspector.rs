//! Rule inspector: shows every intermediate artifact of stage 2 — the
//! distilled decision tree, the range-form paths, the prefix-expanded
//! ternary entries, and a P4-style table definition for the deployment.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p4guard --example rule_inspector
//! ```

use p4guard::config::GuardConfig;
use p4guard::pipeline::TwoStagePipeline;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let trace = Scenario::mixed_default(99).generate()?;
    let (train, _) = split_temporal(&trace, 0.6);
    let config = GuardConfig::with_k(4); // tiny key so the output is readable
    let guard = TwoStagePipeline::new(config).train(&train)?;

    let names = guard.describe_fields(&train);
    println!("=== match key ({} bytes) ===", guard.selection.k());
    for (i, (offset, name)) in guard.selection.offsets.iter().zip(&names).enumerate() {
        println!("  key[{i}] = frame[{offset}]   // {name}");
    }

    println!(
        "\n=== distilled decision tree ({} leaves, depth {}) ===",
        guard.tree.leaf_count(),
        guard.tree.depth()
    );
    for (i, path) in guard.tree.paths().iter().enumerate() {
        let class = if path.class == 1 { "DROP " } else { "allow" };
        let constraints: Vec<String> = path
            .ranges
            .iter()
            .enumerate()
            .filter(|(_, (lo, hi))| *lo > 0 || *hi < 255)
            .map(|(f, (lo, hi))| format!("key[{f}] in [{lo}, {hi}]"))
            .collect();
        println!(
            "  path {i:>2} [{class}] ({} samples): {}",
            path.samples,
            if constraints.is_empty() {
                "always".to_owned()
            } else {
                constraints.join(" && ")
            }
        );
    }

    let stats = &guard.compiled.stats;
    println!(
        "\n=== ternary expansion: {} attack paths -> {} raw -> {} optimized entries ===",
        stats.paths, stats.entries_raw, stats.entries
    );
    for entry in guard.compiled.ternary.entries().iter().take(24) {
        println!("  {entry}");
    }
    if guard.compiled.ternary.len() > 24 {
        println!("  … {} more", guard.compiled.ternary.len() - 24);
    }

    println!("\n=== equivalent P4 table ===");
    println!("table guard_acl {{");
    println!("    key = {{");
    for (i, name) in names.iter().enumerate() {
        println!("        meta.guard_key[{i}] : ternary;  // {name}");
    }
    println!("    }}");
    println!("    actions = {{ drop; NoAction; }}");
    println!("    size = {};", stats.entries.next_power_of_two().max(16));
    println!("    default_action = NoAction();");
    println!("}}");
    println!(
        "\nTCAM budget: {} entries × {} key bits × 2 = {} bits",
        stats.entries,
        stats.key_width * 8,
        stats.tcam_bits
    );
    Ok(())
}
