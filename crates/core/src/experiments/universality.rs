//! Experiment F6 — universality across protocols: the same pipeline is
//! retargeted at each attack family (each living in a different protocol),
//! while the fixed-field baseline degrades or is structurally blind.

use crate::baselines::{Detector, FiveTupleFirewall, FullDnn, GuardDetector};
use crate::experiments::lab::sweep;
use crate::experiments::ExperimentContext;
use crate::report::{num3, TextTable};
use p4guard_packet::trace::AttackFamily;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The protocol context an attack family lives in.
pub fn protocol_of(family: AttackFamily) -> &'static str {
    match family {
        AttackFamily::MiraiScan | AttackFamily::BruteForce | AttackFamily::SynFlood => "tcp",
        AttackFamily::UdpFlood => "udp",
        AttackFamily::MqttFlood => "mqtt",
        AttackFamily::CoapAmplification => "coap",
        AttackFamily::DnsTunnel => "dns",
        AttackFamily::ModbusAbuse => "modbus",
        AttackFamily::ZWireHijack => "zwire (non-IP)",
    }
}

/// One family's row in F6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniversalityRow {
    /// Attack family.
    pub family: String,
    /// Protocol context.
    pub protocol: String,
    /// Two-stage rule-set F1.
    pub f1_two_stage: f64,
    /// 5-tuple firewall F1.
    pub f1_five_tuple: f64,
    /// Full DNN F1.
    pub f1_full_dnn: f64,
    /// Selected fields for this family (names resolved over the training
    /// trace).
    pub selected_fields: Vec<String>,
}

/// Result of F6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniversalityReport {
    /// One row per attack family.
    pub rows: Vec<UniversalityRow>,
}

impl UniversalityReport {
    /// Mean two-stage F1 across protocols.
    pub fn mean_two_stage_f1(&self) -> f64 {
        self.rows.iter().map(|r| r.f1_two_stage).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// Mean 5-tuple F1 across protocols.
    pub fn mean_five_tuple_f1(&self) -> f64 {
        self.rows.iter().map(|r| r.f1_five_tuple).sum::<f64>() / self.rows.len().max(1) as f64
    }
}

/// Runs F6 over the given families (pass [`AttackFamily::ALL`] for the full
/// figure), one thread per family: each trains on its own single-attack
/// scenario, so nothing here comes from the lab's cache.
///
/// # Panics
///
/// Panics if a single-attack scenario fails to generate or train.
pub fn run_f6(lab: &ExperimentContext, families: &[AttackFamily]) -> UniversalityReport {
    let (seed, config) = (lab.seed, &lab.config);
    let rows = sweep(families, |&family| {
        let trace = Scenario::single_attack(family, seed ^ u64::from(family.code()))
            .generate()
            .expect("single-attack scenario generates");
        let (train_t, test_t) = split_temporal(&trace, 0.6);
        let guard = GuardDetector::train(config.clone(), &train_t).expect("pipeline trains");
        let five_tuple = FiveTupleFirewall::train(&train_t);
        let dnn = FullDnn::train(&train_t, config.window, config.stage1.epochs, seed);
        UniversalityRow {
            family: family.to_string(),
            protocol: protocol_of(family).to_owned(),
            f1_two_stage: guard.evaluate(&test_t).f1,
            f1_five_tuple: five_tuple.evaluate(&test_t).f1,
            f1_full_dnn: dnn.evaluate(&test_t).f1,
            selected_fields: guard.guard().describe_fields(&train_t),
        }
    });
    UniversalityReport { rows }
}

impl fmt::Display for UniversalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "F6 — universality across protocols (F1 per attack family)"
        )?;
        let table = TextTable::of(
            &self.rows,
            &[
                ("attack family", |r| r.family.clone()),
                ("protocol", |r| r.protocol.clone()),
                ("two-stage", |r| num3(r.f1_two_stage)),
                ("5-tuple", |r| num3(r.f1_five_tuple)),
                ("full DNN", |r| num3(r.f1_full_dnn)),
            ],
        );
        write!(f, "{table}")?;
        writeln!(
            f,
            "mean F1: two-stage {} vs 5-tuple {}",
            num3(self.mean_two_stage_f1()),
            num3(self.mean_five_tuple_f1())
        )?;
        for r in &self.rows {
            writeln!(f, "  {}: fields {:?}", r.family, r.selected_fields)?;
        }
        Ok(())
    }
}
