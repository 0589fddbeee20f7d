//! Experiments T2 (detection quality vs baselines), T3 (training and
//! rule-generation cost), F7 (ROC curves) and F9 (per-attack recall).

use crate::baselines::{DataPlaneCost, Detector};
use crate::experiments::ExperimentContext;
use crate::report::{dur, num3, yes_no, TextTable};
use p4guard_nn::metrics::{auc, roc_curve, BinaryMetrics, RocPoint};
use p4guard_packet::trace::AttackFamily;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// One method's row in T2/F3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodReport {
    /// Method name.
    pub name: String,
    /// Detection quality on the test split.
    pub metrics: BinaryMetrics,
    /// Data-plane cost.
    pub cost: DataPlaneCost,
    /// Training wall-clock time.
    pub train_time: Duration,
}

/// Result of T2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionComparison {
    /// One row per method.
    pub rows: Vec<MethodReport>,
}

impl DetectionComparison {
    /// The row for the two-stage method.
    pub fn two_stage(&self) -> &MethodReport {
        self.rows
            .iter()
            .find(|r| r.name.starts_with("two-stage"))
            .expect("two-stage row present")
    }

    /// The row for a named method.
    pub fn method(&self, prefix: &str) -> Option<&MethodReport> {
        self.rows.iter().find(|r| r.name.starts_with(prefix))
    }
}

/// Runs T2: every method trained on the lab's training split, evaluated on
/// its test split.
///
/// # Panics
///
/// Panics if the two-stage pipeline fails on the standard scenario.
pub fn run_t2(lab: &ExperimentContext) -> DetectionComparison {
    let guard = lab.guard(&lab.config);
    let methods: [&dyn Detector; 6] = [
        &*guard,
        lab.full_dnn(),
        lab.all_bytes_tree(),
        lab.logistic(),
        lab.five_tuple(),
        lab.autoencoder(),
    ];
    let rows = methods.map(|d| MethodReport {
        name: d.name().to_owned(),
        metrics: d.evaluate(&lab.test),
        cost: d.data_plane_cost(),
        train_time: d.train_time(),
    });
    DetectionComparison { rows: rows.into() }
}

impl fmt::Display for DetectionComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T2 — detection quality vs baselines (test split)")?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("method", |r| r.name.clone()),
                ("accuracy", |r| num3(r.metrics.accuracy)),
                ("precision", |r| num3(r.metrics.precision)),
                ("recall", |r| num3(r.metrics.recall)),
                ("F1", |r| num3(r.metrics.f1)),
                ("FPR", |r| num3(r.metrics.false_positive_rate)),
                ("deployable", |r| yes_no(r.cost.deployable)),
                ("entries", |r| r.cost.entries.to_string()),
                ("key bits", |r| r.cost.key_bits.to_string()),
            ],
        );
        write!(f, "{table}")
    }
}

/// Result of T3: per-phase pipeline cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// `(phase, duration)` rows.
    pub phases: Vec<(String, Duration)>,
    /// Compiled rule entries.
    pub entries: usize,
    /// Rules generated per second of total pipeline time.
    pub rules_per_sec: f64,
}

/// Runs T3 on the lab's guard.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_t3(lab: &ExperimentContext) -> CostReport {
    let detector = lab.guard(&lab.config);
    let guard = detector.guard();
    let t = &guard.timings;
    let total = t.total().as_secs_f64().max(1e-12);
    CostReport {
        phases: vec![
            ("stage-1 training".into(), t.stage1_train),
            ("field selection".into(), t.selection),
            ("stage-2 training".into(), t.stage2_train),
            ("tree distillation".into(), t.tree_fit),
            ("rule compilation".into(), t.compile),
            ("total".into(), t.total()),
        ],
        entries: guard.compiled.stats.entries,
        rules_per_sec: guard.compiled.stats.entries as f64 / total,
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "T3 — training & rule-generation cost")?;
        let table = TextTable::of(
            &self.phases,
            &[
                ("phase", |(phase, _)| phase.clone()),
                ("time", |(_, d)| dur(*d)),
            ],
        );
        write!(f, "{table}")?;
        writeln!(
            f,
            "{} rules generated ({:.0} rules/s end-to-end)",
            self.entries, self.rules_per_sec
        )
    }
}

/// One ROC curve in F7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocReport {
    /// Method name.
    pub name: String,
    /// Curve points.
    pub curve: Vec<RocPoint>,
    /// Area under the curve.
    pub auc: f64,
}

/// Result of F7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocComparison {
    /// One curve per scored method.
    pub curves: Vec<RocReport>,
}

/// Runs F7: ROC of the stage-2 network vs full DNN vs logistic regression
/// vs the autoencoder.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f7(lab: &ExperimentContext) -> RocComparison {
    let actual: Vec<usize> = lab.test.iter().map(|r| r.label.class()).collect();
    let scored = [
        (
            "two-stage (stage-2 NN)",
            lab.guard(&lab.config).guard().scores(&lab.test),
        ),
        ("full DNN", lab.full_dnn().scores(&lab.test)),
        ("logistic regression", lab.logistic().scores(&lab.test)),
        (
            "autoencoder (unsupervised)",
            lab.autoencoder().scores(&lab.test),
        ),
    ];
    let curves = scored.map(|(name, scores)| {
        let curve = roc_curve(&scores, &actual);
        RocReport {
            name: name.to_owned(),
            auc: auc(&curve),
            curve,
        }
    });
    RocComparison {
        curves: curves.into(),
    }
}

impl RocReport {
    /// Best true-positive rate at a false-positive rate of at most `cap`.
    fn tpr_at(&self, cap: f64) -> f64 {
        let under_cap = self.curve.iter().filter(|p| p.fpr <= cap);
        under_cap.map(|p| p.tpr).fold(0.0, f64::max)
    }
}

impl fmt::Display for RocComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F7 — ROC (threshold sweep), test split")?;
        let table = TextTable::of(
            &self.curves,
            &[
                ("method", |c| c.name.clone()),
                ("AUC", |c| num3(c.auc)),
                ("TPR@FPR=1%", |c| num3(c.tpr_at(0.01))),
                ("TPR@FPR=5%", |c| num3(c.tpr_at(0.05))),
            ],
        );
        write!(f, "{table}")
    }
}

/// Result of F9: per-attack-family recall of the deployed rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerAttackReport {
    /// `(family, test packets, recall)` rows.
    pub rows: Vec<(String, usize, f64)>,
    /// False-positive rate on benign test traffic.
    pub benign_fpr: f64,
}

/// Runs F9 on the lab's guard.
///
/// # Panics
///
/// Panics if the pipeline fails on the standard scenario.
pub fn run_f9(lab: &ExperimentContext) -> PerAttackReport {
    let detector = lab.guard(&lab.config);
    let mut per_family = AttackFamily::ALL.map(|family| (family, 0usize, 0usize));
    let mut benign_total = 0usize;
    let mut benign_flagged = 0usize;
    for record in lab.test.iter() {
        let predicted = detector.guard().classify_frame(&record.frame);
        match record.label.family() {
            Some(fam) => {
                let row = per_family
                    .iter_mut()
                    .find(|(family, _, _)| *family == fam)
                    .expect("family row exists");
                row.1 += 1;
                row.2 += predicted;
            }
            None => {
                benign_total += 1;
                benign_flagged += predicted;
            }
        }
    }
    PerAttackReport {
        rows: per_family
            .into_iter()
            .filter(|(_, total, _)| *total > 0)
            .map(|(family, total, hit)| (family.to_string(), total, hit as f64 / total as f64))
            .collect(),
        benign_fpr: if benign_total == 0 {
            0.0
        } else {
            benign_flagged as f64 / benign_total as f64
        },
    }
}

impl fmt::Display for PerAttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F9 — per-attack-family recall (compiled rules, test split)"
        )?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("attack family", |(name, _, _)| name.clone()),
                ("test packets", |(_, total, _)| total.to_string()),
                ("recall", |(_, _, recall)| num3(*recall)),
            ],
        );
        write!(f, "{table}")?;
        writeln!(f, "benign FPR: {}", num3(self.benign_fpr))
    }
}
