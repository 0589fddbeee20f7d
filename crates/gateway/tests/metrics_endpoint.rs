//! End-to-end scrape test: a live gateway with telemetry attached must
//! expose every metric family the ISSUE's acceptance criteria name on
//! `GET /metrics`, with values that reconcile against the gateway's own
//! snapshot, plus flight-recorder events on `GET /events`.

use bytes::Bytes;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::table::MatchSpec;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{Gateway, GatewayConfig};
use p4guard_telemetry::{http_get, MetricsServer, Telemetry, TelemetryConfig};
use std::sync::Arc;
use std::time::Duration;

/// Offset of the IPv4 protocol byte in an Ethernet frame.
const PROTO_OFF: usize = 14 + 9;

fn frame(flow: u8, proto: u8) -> Bytes {
    let mut f = vec![0u8; 14];
    f[12] = 0x08;
    let mut ip = vec![0u8; 20];
    ip[0] = 0x45;
    ip[9] = proto;
    ip[12..16].copy_from_slice(&[10, 0, 0, flow]);
    ip[16..20].copy_from_slice(&[10, 0, 1, 1]);
    f.extend_from_slice(&ip);
    f.extend_from_slice(&(1000 + u16::from(flow)).to_be_bytes());
    f.extend_from_slice(&443u16.to_be_bytes());
    f.extend_from_slice(&[0, 9, 0, 0]);
    Bytes::from(f)
}

/// A control plane with one ternary stage dropping TCP (proto 6).
fn build_control() -> ControlPlane {
    let layout = AclLayout {
        window: 64,
        offsets: vec![PROTO_OFF],
        capacity: 64,
    };
    let mut switch = layout.switch("metrics-e2e", ["acl"]);
    let tcp = MatchSpec::Ternary {
        value: vec![6],
        mask: vec![0xff],
    };
    switch.stage_mut(0).insert(tcp, Action::Drop, 1).unwrap();
    ControlPlane::new(switch)
}

fn drain(gw: &Gateway) {
    gw.wait_drained(Duration::from_secs(30))
        .expect("gateway drains");
}

/// Pulls the value of the first exposition sample whose line starts with
/// `prefix` (name plus any label subset encoded in the prefix).
fn sample_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split(['{', ' ']).next() == Some(name))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum()
}

#[test]
fn live_scrape_covers_all_required_families() {
    let control = build_control();
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 4,
        ..TelemetryConfig::default()
    }));
    let gw = Gateway::start_with_telemetry(
        &control,
        GatewayConfig::with_shards(2),
        Some(Arc::clone(&telemetry)),
    );
    let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry)).unwrap();
    let addr = server.local_addr().to_string();
    let timeout = Duration::from_secs(5);

    // 100 UDP frames forward, 60 TCP frames hit the drop rule, and one
    // audited republish records a swap event.
    for i in 0..160u64 {
        let proto = if i % 8 < 3 { 6 } else { 17 };
        gw.dispatch(frame((i % 16) as u8, proto));
    }
    drain(&gw);
    control.publish_audited(None, true);

    let (status, body) = http_get(&addr, "/metrics", timeout).unwrap();
    assert_eq!(status, 200);

    // Every family the acceptance criteria require is present.
    for family in [
        "p4guard_frames_received_total",
        "p4guard_frames_forwarded_total",
        "p4guard_drops_total",
        "p4guard_table_hits_total",
        "p4guard_table_misses_total",
        "p4guard_ruleset_version",
        "p4guard_forward_latency_seconds_bucket",
        "p4guard_forward_latency_seconds_count",
        "p4guard_shards",
        "p4guard_queue_depth",
    ] {
        assert!(body.contains(family), "missing family {family}:\n{body}");
    }
    // Per-reason drop labels and per-table labels are on the wire.
    assert!(body.contains("reason=\"rule_drop\""), "{body}");
    assert!(body.contains("table=\"acl\""), "{body}");

    // The scraped values reconcile against the gateway's own snapshot.
    let snap = gw.snapshot();
    assert_eq!(
        sample_sum(&body, "p4guard_frames_received_total"),
        snap.totals.received as f64
    );
    assert_eq!(
        sample_sum(&body, "p4guard_frames_forwarded_total"),
        snap.totals.forwarded as f64
    );
    assert_eq!(
        sample_sum(&body, "p4guard_forward_latency_seconds_count"),
        snap.totals.received as f64,
        "every processed frame observes the latency histogram"
    );

    // The audited republish shows up in the flight recorder.
    let (status, events) = http_get(&addr, "/events", timeout).unwrap();
    assert_eq!(status, 200);
    assert!(events.contains("\"Swap\""), "no swap event in {events}");
    assert!(events.contains("\"drained\":true"), "{events}");
    // Verdict sampling produced some events too (160 frames, 1-in-4).
    assert!(
        events.contains("\"Verdict\""),
        "no verdict samples in {events}"
    );

    // A canary publish diverges the shards on purpose. The version gauge
    // is one series per shard, so the scrape shows both versions rather
    // than whichever shard swapped last.
    let baseline = gw.snapshot().version;
    let canary = control.publish_to(&[1]).unwrap().version;
    assert_ne!(canary, baseline);
    for i in 0..64u64 {
        gw.dispatch(frame((i % 16) as u8, 17));
    }
    drain(&gw);
    let (_, body) = http_get(&addr, "/metrics", timeout).unwrap();
    for (shard, version) in [(0, baseline), (1, canary)] {
        let line = format!("p4guard_ruleset_version{{shard=\"{shard}\"}} {version}");
        assert!(body.lines().any(|l| l == line), "no {line:?} in:\n{body}");
    }

    gw.finish();
}
