//! End-to-end gateway tests: shard aggregation equivalence with a single
//! switch, mid-stream ruleset hot swap, and backpressure accounting.

use bytes::Bytes;
use p4guard_dataplane::action::Action;
use p4guard_dataplane::control::ControlPlane;
use p4guard_dataplane::table::MatchSpec;
use p4guard_dataplane::AclLayout;
use p4guard_gateway::{replay_batched, Gateway, GatewayConfig};
use p4guard_packet::arena::FrameBatch;
use std::time::Duration;

/// Offset of the IPv4 protocol byte in an Ethernet frame.
const PROTO_OFF: usize = 14 + 9;
const UDP: u8 = 17;
const TCP: u8 = 6;

/// Builds an Ethernet+IPv4 frame for flow `flow` carrying `proto` and one
/// payload byte. Distinct `flow` values produce distinct 5-tuples.
fn frame(flow: u8, proto: u8, payload: u8) -> Bytes {
    let mut f = vec![0u8; 14];
    f[12] = 0x08; // EtherType IPv4
    let mut ip = vec![0u8; 20];
    ip[0] = 0x45;
    ip[9] = proto;
    ip[12..16].copy_from_slice(&[10, 0, 0, flow]);
    ip[16..20].copy_from_slice(&[10, 0, 1, 1]);
    f.extend_from_slice(&ip);
    // TCP/UDP port bytes: spread source ports across flows.
    f.extend_from_slice(&(1000 + u16::from(flow)).to_be_bytes());
    f.extend_from_slice(&443u16.to_be_bytes());
    f.extend_from_slice(&[0, 9, 0, 0]);
    f.push(payload);
    Bytes::from(f)
}

/// A mixed workload: 16 flows alternating UDP/TCP, `reps` frames each.
fn workload(reps: usize) -> Vec<Bytes> {
    let mut frames = Vec::new();
    for rep in 0..reps {
        for flow in 0..16u8 {
            let proto = if flow % 2 == 0 { UDP } else { TCP };
            frames.push(frame(flow, proto, rep as u8));
        }
    }
    frames
}

/// A control plane over a one-stage switch whose ternary ACL keys on the
/// IPv4 protocol byte. Starts empty (everything forwards).
fn build_control() -> (ControlPlane, usize) {
    let layout = AclLayout {
        window: 64,
        offsets: vec![PROTO_OFF],
        capacity: 64,
    };
    (ControlPlane::new(layout.switch("gw-test", ["acl"])), 0)
}

fn install_drop_proto(control: &ControlPlane, stage: usize, proto: u8) {
    control.with_switch_mut(|sw| {
        sw.stage_mut(stage)
            .insert(
                MatchSpec::Ternary {
                    value: vec![proto],
                    mask: vec![0xff],
                },
                Action::Drop,
                10,
            )
            .unwrap();
    });
}

/// ISSUE acceptance: counters collected from N shards must sum to exactly
/// what a single switch counts replaying the same trace.
#[test]
fn shard_counters_sum_to_single_switch_totals() {
    let frames = workload(40);
    let (control, stage) = build_control();
    install_drop_proto(&control, stage, UDP);

    let single = control.with_switch_mut(|sw| {
        sw.run_frames(frames.iter().map(|f| f.as_ref()));
        sw.counters().clone()
    });
    control.with_switch_mut(|sw| sw.reset_counters());

    for shards in [1usize, 2, 4] {
        let gw = Gateway::start(&control, GatewayConfig::with_shards(shards));
        for f in &frames {
            gw.dispatch(f.clone());
        }
        let snap = gw.finish();
        assert_eq!(
            snap.totals, single,
            "{shards}-shard totals diverge from single switch"
        );
        assert_eq!(snap.dropped_backpressure, 0);
        assert_eq!(
            snap.shards.iter().map(|s| s.processed).sum::<u64>(),
            frames.len() as u64
        );
        // Per-flow placement: every frame of a flow went to one shard, so
        // the number of busy shards never exceeds the number of flows.
        let busy = snap.shards.iter().filter(|s| s.processed > 0).count();
        assert!(busy <= 16);
    }
}

/// Hot swap mid-stream: publishing a new ruleset while traffic flows takes
/// effect for every subsequent frame, with zero backpressure drops in
/// blocking mode (the "zero forwarding stalls" criterion).
#[test]
fn hot_swap_mid_stream_applies_to_all_later_frames() {
    let (control, stage) = build_control();
    let gw = Gateway::start(&control, GatewayConfig::with_shards(4));
    let first = workload(25);
    let second = workload(25);
    let udp_in_second = second.iter().filter(|f| f[PROTO_OFF] == UDP).count() as u64;

    for f in &first {
        gw.dispatch(f.clone());
    }
    // Swaps take effect at batch boundaries, so frames still queued at
    // publish time may legitimately see the new ruleset. Drain first to
    // make the pre/post split exact.
    gw.wait_drained(Duration::from_secs(30))
        .expect("first half drains");
    // Compile the new ruleset off to the side and publish: no worker stalls.
    install_drop_proto(&control, stage, UDP);
    let report = control.publish();
    assert!(report.subscribers >= 1);
    for f in &second {
        gw.dispatch(f.clone());
    }

    let snap = gw.finish();
    // Every pre-swap frame forwarded; every post-swap UDP frame dropped.
    assert_eq!(snap.totals.dropped, udp_in_second);
    assert_eq!(
        snap.totals.forwarded,
        (first.len() + second.len()) as u64 - udp_in_second
    );
    assert_eq!(
        snap.dropped_backpressure, 0,
        "blocking replay must not drop"
    );
    assert_eq!(snap.version, report.version);
    assert!(
        snap.shards.iter().map(|s| s.swaps_seen).sum::<u64>() >= 1,
        "at least one shard must observe the swap"
    );
    for s in &snap.shards {
        if s.processed > 0 {
            assert_eq!(s.lanes[0].ruleset_version, report.version);
        }
    }
}

/// Backpressure: with a tiny queue and non-blocking ingest, overload drops
/// at the edge with a counter — but every frame is accounted for.
#[test]
fn backpressure_drops_are_counted_and_conserved() {
    let (control, _) = build_control();
    let gw = Gateway::start(
        &control,
        GatewayConfig {
            shards: 1,
            queue_capacity: 1,
            batch_size: 1,
        },
    );
    let frames = workload(2000);
    let offered = frames.len() as u64;
    let mut enqueued = 0;
    for frame in frames {
        enqueued += gw.offer_batch(FrameBatch::single(frame));
    }
    let snap = gw.finish();

    assert_eq!(offered - enqueued, snap.dropped_backpressure);
    assert_eq!(
        snap.totals.received + snap.dropped_backpressure,
        offered,
        "every offered frame is either processed or counted as dropped"
    );
    assert_eq!(snap.totals.received, enqueued);
    assert_eq!(
        snap.offered, offered,
        "the gateway counts what it was offered"
    );
    assert_eq!(
        snap.shards.iter().map(|s| s.processed).sum::<u64>() + snap.dropped_backpressure,
        snap.offered
    );
}

/// Canary primitive: a targeted publish moves only the listed shards'
/// cells; the snapshot exposes the divergence per shard; a fleet-wide
/// republish of the same version converges everyone.
#[test]
fn targeted_publish_diverges_then_republish_converges_shard_versions() {
    let (control, stage) = build_control();
    let gw = Gateway::start(&control, GatewayConfig::with_shards(4));
    let baseline = control.publish();
    install_drop_proto(&control, stage, UDP);
    let canary = control.publish_to(&[1, 3]).unwrap();
    assert!(canary.version > baseline.version);

    let snap = gw.snapshot();
    assert_eq!(snap.shard_versions.len(), 4);
    assert_eq!(snap.shard_versions[0], baseline.version);
    assert_eq!(snap.shard_versions[1], canary.version);
    assert_eq!(snap.shard_versions[2], baseline.version);
    assert_eq!(snap.shard_versions[3], canary.version);
    assert_eq!(snap.version, canary.version, "snapshot.version is the max");

    // Canary traffic is actually enforced only on the canary shards.
    let mut udp_by_shard = [0u64; 4];
    let frames = workload(10);
    for f in &frames {
        if f[PROTO_OFF] == UDP {
            udp_by_shard[gw.shard_of(f)] += 1;
        }
        gw.dispatch(f.clone());
    }
    // Promote: republish the canaried version fleet-wide, then finish.
    control.republish(canary.version).unwrap();
    let fin = gw.finish();
    assert!(fin.shard_versions.iter().all(|&v| v == canary.version));
    // Shards 0 and 2 forwarded their UDP before promotion reached them
    // only if they processed those frames pre-republish; either way the
    // canary shards dropped every UDP frame they saw.
    for s in [1usize, 3] {
        assert_eq!(fin.shards[s].counters().dropped, udp_by_shard[s]);
    }
}

/// The mirror tap samples the live ingest stream without affecting
/// enforcement totals.
#[test]
fn mirror_tap_samples_ingest_without_changing_totals() {
    let (control, _) = build_control();
    let gw = Gateway::start(&control, GatewayConfig::with_shards(2));
    let rx = gw.mirror().open(8, 1024);
    let frames = workload(16); // 256 frames
    for f in &frames {
        gw.dispatch(f.clone());
    }
    assert_eq!(gw.mirror().mirrored(), 32, "one in eight frames mirrored");
    let mut sampled = 0;
    while rx.try_recv().is_ok() {
        sampled += 1;
    }
    assert_eq!(sampled, 32);
    gw.mirror().close();
    let snap = gw.finish();
    assert_eq!(snap.totals.received, 256, "tap is off the enforcement path");
}

/// Paced replay approaches the requested rate instead of blasting.
#[test]
fn paced_replay_respects_target_rate() {
    let (control, _) = build_control();
    let gw = Gateway::start(&control, GatewayConfig::with_shards(2));
    let frames = workload(32); // 512 frames
    let batches = frames.into_iter().map(FrameBatch::single);
    let report = replay_batched(&gw, batches, Some(4096.0));
    let snap = gw.finish();

    assert_eq!(report.offered, 512);
    assert_eq!(snap.dropped_backpressure, 0);
    assert_eq!(snap.totals.received, 512);
    // 512 frames at 4096 pps is 125ms; coarse pacing must keep us in the
    // right order of magnitude (no sleep would finish in microseconds).
    assert!(
        report.elapsed.as_millis() >= 50,
        "elapsed {:?} too fast for 4096 pps",
        report.elapsed
    );
}

/// Queue-depth visibility: the gauge family tracks the senders' live
/// occupancy, and a snapshot refreshes it on `/metrics`.
#[test]
fn queue_depth_gauges_track_sender_occupancy() {
    use p4guard_telemetry::{Telemetry, TelemetryConfig};
    use std::sync::Arc;

    let (control, _) = build_control();
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
    let gw = Gateway::start_with_telemetry(
        &control,
        GatewayConfig::with_shards(2),
        Some(Arc::clone(&telemetry)),
    );
    assert_eq!(gw.queue_depths(), vec![0, 0]);
    let snap = gw.snapshot();
    assert_eq!(snap.shards.len(), 2);
    let rendered = telemetry.registry.render_prometheus();
    assert!(
        rendered.contains("p4guard_queue_depth{shard=\"0\"}"),
        "missing queue depth gauge:\n{rendered}"
    );
    assert!(rendered.contains("p4guard_queue_depth{shard=\"1\"}"));
    gw.finish();
}

/// Lanes: a shard serves each frame through the pipeline of the lane its
/// classifier names, and counts frames the classifier places nowhere.
#[test]
fn lanes_serve_their_own_pipelines_and_count_unclassified_frames() {
    // Lane 0 drops UDP, lane 1 drops TCP; frames are classified by the low
    // bits of the source address, with flows 2 (mod 4) and 3 (mod 4)
    // belonging to no lane.
    let (udp_control, stage) = build_control();
    install_drop_proto(&udp_control, stage, UDP);
    let (tcp_control, stage) = build_control();
    install_drop_proto(&tcp_control, stage, TCP);
    let lane_of = |frame: &[u8]| usize::from(frame[14 + 15] % 4);

    let frames = workload(20);
    let mut expect = [[0u64; 2]; 2]; // [lane][received, dropped]
    let mut strays = 0u64;
    for f in &frames {
        match lane_of(f) {
            lane @ (0 | 1) => {
                expect[lane][0] += 1;
                expect[lane][1] += u64::from(f[PROTO_OFF] == [UDP, TCP][lane]);
            }
            _ => strays += 1,
        }
    }
    assert!(strays > 0 && expect[0][1] > 0 && expect[1][1] > 0);

    for shards in [1usize, 3] {
        let gw = Gateway::start_lanes(
            &[(&udp_control, Some("udp")), (&tcp_control, Some("tcp"))],
            lane_of,
            GatewayConfig::with_shards(shards),
            None,
        );
        let mut arena = p4guard_packet::FrameArena::new(4096);
        for chunk in frames.chunks(24) {
            for f in chunk {
                arena.push(f);
            }
            gw.dispatch_batch(arena.seal_batch());
        }
        let snap = gw.finish();
        let mut got = [[0u64; 2]; 2];
        for s in &snap.shards {
            assert_eq!(s.lanes.len(), 2);
            assert_eq!(s.conservation_violations, 0, "shard {}", s.shard);
            for (lane, stats) in s.lanes.iter().enumerate() {
                got[lane][0] += stats.counters.received;
                got[lane][1] += stats.counters.dropped;
            }
        }
        assert_eq!(got, expect, "{shards} shard(s)");
        let unclassified: u64 = snap.shards.iter().map(|s| s.unclassified).sum();
        assert_eq!(unclassified, strays, "{shards} shard(s)");
        assert_eq!(snap.totals.received + unclassified, frames.len() as u64);
        assert_eq!(snap.offered, frames.len() as u64, "{shards} shard(s)");
        assert_eq!(
            snap.shards.iter().map(|s| s.processed).sum::<u64>() + snap.dropped_backpressure,
            snap.offered,
            "{shards} shard(s): unclassified frames are processed too"
        );
    }
}

/// A worker counts a drain into a block of its own and takes the stats
/// lock only to publish it: `snapshot()` returns while the only shard sits
/// inside a batch (here: in the lane classifier), showing the stats as of
/// the last published drain.
#[test]
fn snapshot_returns_while_a_shard_is_stuck_inside_a_batch() {
    use crossbeam::channel::bounded;
    let (lane_a, _) = build_control();
    let (lane_b, _) = build_control();
    let (entered_tx, entered_rx) = bounded::<()>(1);
    let (release_tx, release_rx) = bounded::<()>(0);
    // Blocks until `release_tx` is dropped; every later call falls through.
    let classify = move |_: &[u8]| {
        let _ = entered_tx.try_send(());
        let _ = release_rx.recv();
        0
    };
    let gw = Gateway::start_lanes(
        &[(&lane_a, None), (&lane_b, None)],
        classify,
        GatewayConfig::with_shards(1),
        None,
    );
    gw.dispatch(frame(1, UDP, 0));
    entered_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the shard reached the classifier");

    let (snap_tx, snap_rx) = bounded(1);
    let mid_batch = std::thread::scope(|scope| {
        scope.spawn(|| {
            let _ = snap_tx.send(gw.snapshot());
        });
        let got = snap_rx.recv_timeout(Duration::from_secs(5));
        // Release the worker whatever happened, so a snapshot that did
        // wait fails the test instead of hanging it.
        drop(release_tx);
        got
    });
    let mid_batch = mid_batch.expect("snapshot() waited for the shard to finish its batch");
    // The drain in progress is not published yet.
    assert_eq!(mid_batch.totals.received, 0);
    assert_eq!(gw.finish().totals.received, 1);
}

/// The drained checkpoint: returns as soon as every frame offered before
/// the call is accounted for — served, or shed at ingest — and reports a
/// timeout with the last snapshot instead of hanging or panicking when a
/// worker cannot get there in time.
#[test]
fn wait_drained_is_a_bounded_checkpoint() {
    let (control, _) = build_control();
    let gw = Gateway::start(
        &control,
        GatewayConfig {
            shards: 2,
            queue_capacity: 1,
            batch_size: 1,
        },
    );
    // Nothing offered: nothing to wait for, even with no time to wait.
    let idle = gw.wait_drained(Duration::ZERO).expect("trivially drained");
    assert_eq!(idle.totals.received, 0);
    assert_eq!(idle.offered, 0);

    // Non-blocking ingest into one-slot queues sheds some of these; the
    // checkpoint counts shed frames as accounted for.
    let frames = workload(50);
    let offered = frames.len() as u64;
    let mut enqueued = 0;
    for frame in frames {
        enqueued += gw.offer_batch(FrameBatch::single(frame));
    }
    let snap = gw
        .wait_drained(Duration::from_secs(30))
        .expect("served + shed reaches offered");
    assert_eq!(snap.totals.received, enqueued);
    assert_eq!(snap.totals.received + snap.dropped_backpressure, offered);
    assert_eq!(snap.offered, offered);
    assert_eq!(gw.finish().totals, snap.totals);

    // A worker parked inside a batch (here: in the lane classifier) cannot
    // account for its frame before the deadline.
    use crossbeam::channel::bounded;
    let (lane_a, _) = build_control();
    let (lane_b, _) = build_control();
    let (entered_tx, entered_rx) = bounded::<()>(1);
    let (release_tx, release_rx) = bounded::<()>(0);
    let classify = move |_: &[u8]| {
        let _ = entered_tx.try_send(());
        let _ = release_rx.recv();
        0
    };
    let gw = Gateway::start_lanes(
        &[(&lane_a, None), (&lane_b, None)],
        classify,
        GatewayConfig::with_shards(1),
        None,
    );
    gw.dispatch(frame(1, UDP, 0));
    entered_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the shard reached the classifier");
    let timeout = gw.wait_drained(Duration::from_millis(20));
    // Release the worker whatever happened, so a checkpoint that did
    // return fails the test instead of hanging it.
    drop(release_tx);
    let timeout = timeout.expect_err("a parked worker times the checkpoint out");
    assert_eq!(timeout.offered, 1);
    assert_eq!(timeout.snapshot.totals.received, 0);
    assert!(timeout.to_string().contains("0 of 1 offered"), "{timeout}");
    let done = gw.finish();
    assert_eq!(done.totals.received, 1);
    assert_eq!(done.offered, 1);
}
