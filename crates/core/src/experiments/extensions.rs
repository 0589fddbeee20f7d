//! Extension experiments beyond the paper's core evaluation:
//! F11 — pipeline-design ablation (distillation and class balancing),
//! F12 — robustness to frame corruption (channel noise / capture loss), and
//! F14 — online adaptation under attack drift (periodic retraining).

use crate::baselines::Detector;
use crate::config::GuardConfig;
use crate::experiments::ExperimentContext;
use crate::pipeline::TwoStagePipeline;
use crate::report::{num3, yes_no, TextTable};
use p4guard_traffic::corruption::Corruption;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One configuration's row in F11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignRow {
    /// Whether rules were distilled from the stage-2 network (vs fit on
    /// ground truth).
    pub distill: bool,
    /// Whether training classes were balanced.
    pub balance: bool,
    /// Rule-set F1 on the test split.
    pub f1: f64,
    /// Rule-set FPR on the test split.
    pub fpr: f64,
    /// Compiled entries.
    pub entries: usize,
}

/// Result of F11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignAblation {
    /// The four (distill × balance) rows.
    pub rows: Vec<DesignRow>,
}

/// Runs F11: the 2×2 ablation over distillation and balancing.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f11(lab: &ExperimentContext) -> DesignAblation {
    let combos = [(true, true), (true, false), (false, true), (false, false)];
    let with = |&(distill, balance): &(bool, bool)| GuardConfig {
        distill,
        balance,
        ..lab.config.clone()
    };
    let rows = lab.sweep_rows(&combos, with, |&(distill, balance), g| {
        let m = g.evaluate(&lab.test);
        DesignRow {
            distill,
            balance,
            f1: m.f1,
            fpr: m.false_positive_rate,
            entries: g.guard().compiled.stats.entries,
        }
    });
    DesignAblation { rows }
}

impl fmt::Display for DesignAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F11 — pipeline-design ablation (distillation × balancing)"
        )?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("distill", |r| yes_no(r.distill)),
                ("balance", |r| yes_no(r.balance)),
                ("F1", |r| num3(r.f1)),
                ("FPR", |r| num3(r.fpr)),
                ("entries", |r| r.entries.to_string()),
            ],
        );
        write!(f, "{table}")
    }
}

/// One corruption level's row in F12.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Fraction of test frames corrupted.
    pub corrupt_fraction: f64,
    /// Rule-set F1 on the corrupted test split.
    pub f1: f64,
    /// Rule-set recall.
    pub recall: f64,
    /// Rule-set FPR.
    pub fpr: f64,
}

/// Result of F12.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Points in increasing corruption.
    pub points: Vec<RobustnessPoint>,
}

/// Runs F12: the lab's guard, trained on clean traffic, evaluated on test
/// splits with increasing corruption.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f12(lab: &ExperimentContext, fractions: &[f64]) -> RobustnessReport {
    let guard = lab.guard(&lab.config);
    let points = fractions
        .iter()
        .map(|&fraction| {
            let corrupted = Corruption {
                fraction,
                bit_flips: 4,
                truncate_prob: 0.1,
            }
            .apply(&lab.test, lab.seed ^ 0xf12);
            let m = guard.evaluate(&corrupted);
            RobustnessPoint {
                corrupt_fraction: fraction,
                f1: m.f1,
                recall: m.recall,
                fpr: m.false_positive_rate,
            }
        })
        .collect();
    RobustnessReport { points }
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F12 — robustness to frame corruption (trained clean)")?;
        let table = TextTable::of(
            &self.points,
            &[
                ("corrupt fraction", |p| {
                    format!("{:.0}%", p.corrupt_fraction * 100.0)
                }),
                ("F1", |p| num3(p.f1)),
                ("recall", |p| num3(p.recall)),
                ("FPR", |p| num3(p.fpr)),
            ],
        );
        write!(f, "{table}")
    }
}

/// One strategy's row in F14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineRow {
    /// Strategy label.
    pub strategy: String,
    /// Retrains performed during the stream.
    pub retrains: usize,
    /// Recall on the *novel* attack family (appears mid-stream).
    pub recall_novel: f64,
    /// Recall on the attack family known from the start.
    pub recall_known: f64,
    /// False-positive rate over the whole stream.
    pub fpr: f64,
}

/// Result of F14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// One row per update strategy.
    pub rows: Vec<OnlineRow>,
}

/// Runs F14 — online adaptation under attack drift: a SYN flood is present
/// from the start, a DNS tunnel first appears at t = 120 s. A *static*
/// guard trains once on the first 60 s; *adaptive* guards retrain on all
/// past data every `interval` seconds, exercising the control-plane update
/// path the paper's reconfigurability claim is about.
///
/// # Panics
///
/// Panics if the drift scenario fails to generate or train.
pub fn run_f14(lab: &ExperimentContext, intervals_s: &[Option<f64>]) -> OnlineReport {
    use p4guard_packet::trace::AttackFamily;
    use p4guard_traffic::scenario::{AttackEvent, Scenario};

    let mut scenario = Scenario::benign_only(p4guard_traffic::Fleet::mixed(), 240.0, lab.seed);
    scenario.benign_intensity = 1.5;
    scenario.attacks = vec![
        AttackEvent {
            family: AttackFamily::SynFlood,
            start_s: 15.0,
            end_s: 230.0,
            intensity: 0.08,
        },
        AttackEvent {
            family: AttackFamily::DnsTunnel,
            start_s: 120.0,
            end_s: 230.0,
            intensity: 0.4,
        },
    ];
    let trace = scenario.generate().expect("drift scenario generates");
    let warmup_us = 60_000_000u64;
    // A guard trained on everything before frame `i`, if that holds both
    // classes.
    let train_before = |i: usize| {
        let past: p4guard_packet::trace::Trace = trace.records()[..i].iter().cloned().collect();
        let both = past.attack_count() > 0 && past.attack_count() < past.len();
        both.then(|| {
            TwoStagePipeline::new(lab.config.clone())
                .train(&past)
                .expect("online retrain")
        })
    };
    // Every strategy starts from the same guard, trained once on the
    // warm-up window.
    let first = trace.iter().position(|r| r.timestamp_us >= warmup_us);
    let warm = first.and_then(train_before);

    let rows = intervals_s
        .iter()
        .map(|&interval| {
            let mut guard = warm.clone();
            let mut retrains = usize::from(warm.is_some());
            let mut next_retrain_us = match (first, interval) {
                (Some(i), Some(s)) => trace.records()[i].timestamp_us + (s * 1e6) as u64,
                _ => u64::MAX,
            };
            // (flagged, total) of the novel attack, the known one, benign.
            let mut tallies = [(0usize, 0usize); 3];
            for (i, record) in trace.iter().enumerate() {
                if record.timestamp_us >= next_retrain_us {
                    // Retrain on everything seen so far.
                    if let Some(retrained) = train_before(i) {
                        guard = Some(retrained);
                        retrains += 1;
                    }
                    next_retrain_us =
                        interval.map_or(u64::MAX, |s| record.timestamp_us + (s * 1e6) as u64);
                }
                // Only score the stream after the warm-up window.
                if record.timestamp_us < warmup_us {
                    continue;
                }
                let predicted = guard
                    .as_ref()
                    .map_or(0, |g| g.classify_frame(&record.frame));
                let tally = &mut tallies[match record.label.family() {
                    Some(AttackFamily::DnsTunnel) => 0,
                    Some(_) => 1,
                    None => 2,
                }];
                tally.0 += predicted;
                tally.1 += 1;
            }
            let [novel, known, benign] = tallies.map(|(flagged, total)| {
                if total == 0 {
                    0.0
                } else {
                    flagged as f64 / total as f64
                }
            });
            OnlineRow {
                strategy: match interval {
                    None => "static (train once)".to_owned(),
                    Some(s) => format!("retrain every {s:.0} s"),
                },
                retrains,
                recall_novel: novel,
                recall_known: known,
                fpr: benign,
            }
        })
        .collect();
    OnlineReport { rows }
}

impl fmt::Display for OnlineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F14 — online adaptation under drift (DNS tunnel first appears at t = 120 s)"
        )?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("strategy", |r| r.strategy.clone()),
                ("retrains", |r| r.retrains.to_string()),
                ("recall (novel attack)", |r| num3(r.recall_novel)),
                ("recall (known attack)", |r| num3(r.recall_known)),
                ("FPR", |r| num3(r.fpr)),
            ],
        );
        write!(f, "{table}")
    }
}
