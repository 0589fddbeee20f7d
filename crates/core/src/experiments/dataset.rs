//! Experiment T1 — dataset summary across the evaluation scenarios.

use crate::report::{pct, TextTable};
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::stats::TraceStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result of T1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Per-scenario statistics: `(name, stats)`.
    pub scenarios: Vec<(String, TraceStats)>,
}

/// Runs T1: generates every evaluation scenario and summarizes it.
///
/// # Panics
///
/// Panics if a built-in scenario fails to generate.
pub fn run(seed: u64) -> DatasetSummary {
    let scenarios = [
        ("mixed", Scenario::mixed_default(seed)),
        ("smart-home", Scenario::smart_home_default(seed)),
        ("industrial", Scenario::industrial_default(seed)),
    ];
    DatasetSummary {
        scenarios: scenarios
            .into_iter()
            .map(|(name, s)| {
                let trace = s.generate().expect("built-in scenario generates");
                (name.to_owned(), TraceStats::compute(&trace))
            })
            .collect(),
    }
}

impl fmt::Display for DatasetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T1 — dataset summary")?;
        let table = TextTable::of(
            &self.scenarios,
            &[
                ("scenario", |(name, _)| name.clone()),
                ("packets", |(_, stats)| stats.total.to_string()),
                ("flows", |(_, stats)| stats.flows.to_string()),
                ("duration", |(_, stats)| {
                    format!("{:.0} s", stats.duration_s)
                }),
                ("protocols", |(_, stats)| {
                    stats.protocols_present().len().to_string()
                }),
                ("attack %", |(_, stats)| pct(stats.attack_fraction())),
            ],
        );
        write!(f, "{table}")?;
        for (name, stats) in &self.scenarios {
            writeln!(f, "\n[{name}]")?;
            write!(f, "{stats}")?;
        }
        Ok(())
    }
}
