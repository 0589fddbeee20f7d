//! Universality demo: the same pipeline, untouched, is retargeted at
//! attacks living in four very different protocols — including a non-IP
//! mesh protocol a fixed-field firewall cannot even express — and the
//! learned byte positions land on the semantically right header fields
//! each time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p p4guard --example heterogeneous_protocols
//! ```

use p4guard::baselines::{Detector, FiveTupleFirewall, GuardDetector};
use p4guard::config::GuardConfig;
use p4guard::report::{num3, TextTable};
use p4guard_packet::trace::AttackFamily;
use p4guard_traffic::scenario::Scenario;
use p4guard_traffic::split_temporal;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let families = [
        (AttackFamily::MqttFlood, "MQTT (TCP/1883)"),
        (AttackFamily::CoapAmplification, "CoAP (UDP/5683)"),
        (AttackFamily::ModbusAbuse, "Modbus (TCP/502)"),
        (AttackFamily::ZWireHijack, "ZWire (non-IP!)"),
    ];
    let mut table = TextTable::new([
        "attack",
        "protocol",
        "two-stage F1",
        "5-tuple F1",
        "what the pipeline learned to match",
    ]);
    for (family, protocol) in families {
        let trace = Scenario::single_attack(family, 1234).generate()?;
        let (train, test) = split_temporal(&trace, 0.6);
        let guard = GuardDetector::train(GuardConfig::with_k(6), &train)?;
        let five_tuple = FiveTupleFirewall::train(&train);
        let fields = guard.guard().describe_fields(&train);
        table.row([
            family.to_string(),
            protocol.to_owned(),
            num3(guard.evaluate(&test).f1),
            num3(five_tuple.evaluate(&test).f1),
            fields.first().cloned().unwrap_or_default(),
        ]);
    }
    println!("same pipeline, four protocols — no per-protocol engineering:");
    println!("{table}");
    println!(
        "the 5-tuple firewall reads fixed IPv4/TCP offsets, so on ZWire frames it\n\
         matches garbage bytes, and on spoofed or ephemeral flows it memorizes\n\
         tuples that never recur. The byte-level pipeline selects whatever header\n\
         positions separate the classes in *that* protocol."
    );
    Ok(())
}
