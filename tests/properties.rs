//! Property-based tests over the core data structures and invariants.

use bytes::Bytes;
use p4guard_dataplane::key::KeyLayout;
use p4guard_features::extract::ByteDataset;
use p4guard_nn::matrix::Matrix;
use p4guard_packet::coap::{CoapCode, CoapMessage, CoapType};
use p4guard_packet::dns::DnsMessage;
use p4guard_packet::ethernet::{EtherType, EthernetHeader};
use p4guard_packet::modbus::{ModbusAdu, ModbusFunction};
use p4guard_packet::mqtt::MqttPacket;
use p4guard_packet::tcp::{TcpFlags, TcpHeader};
use p4guard_packet::trace::{Label, Record, Trace};
use p4guard_packet::udp::UdpHeader;
use p4guard_packet::zwire::{ZWireFrame, ZWireType};
use p4guard_packet::MacAddr;
use p4guard_rules::compile::{compile_tree, CompileConfig};
use p4guard_rules::ternary::{range_to_prefixes, TernaryEntry};
use p4guard_rules::tree::{DecisionTree, TreeConfig};
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    #[test]
    fn packet_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = p4guard_packet::parse(&bytes);
    }

    #[test]
    fn ethernet_round_trip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), ethertype in any::<u16>()) {
        let hdr = EthernetHeader::new(MacAddr(dst), MacAddr(src), EtherType::from_u16(ethertype));
        // A VLAN ethertype with no tag body cannot round-trip as untagged.
        prop_assume!(hdr.ethertype != EtherType::Vlan);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        let (decoded, used) = EthernetHeader::decode(&buf).unwrap();
        prop_assert_eq!(decoded, hdr);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn tcp_round_trip(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..64,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let hdr = TcpHeader::new(src_port, dst_port, seq, ack, TcpFlags(flags));
        let mut buf = Vec::new();
        hdr.encode_with_payload(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            &payload,
            &mut buf,
        );
        let (decoded, used) = TcpHeader::decode(&buf).unwrap();
        prop_assert_eq!(decoded, hdr);
        prop_assert_eq!(&buf[used..], payload.as_slice());
    }

    #[test]
    fn udp_round_trip(src_port in any::<u16>(), dst_port in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let hdr = UdpHeader::new(src_port, dst_port, payload.len());
        let mut buf = Vec::new();
        hdr.encode_with_payload(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            &payload,
            &mut buf,
        );
        let (decoded, _) = UdpHeader::decode(&buf).unwrap();
        prop_assert_eq!(decoded, hdr);
    }

    #[test]
    fn mqtt_publish_round_trip(
        topic in "[a-z]{1,12}(/[a-z]{1,12}){0,3}",
        qos in 0u8..2,
        retain in any::<bool>(),
        packet_id in 1u16..,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let p = MqttPacket::Publish {
            topic,
            packet_id: (qos > 0).then_some(packet_id),
            qos,
            retain,
            payload,
        };
        let bytes = p.encode();
        let (decoded, used) = MqttPacket::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, p);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn coap_round_trip(
        message_id in any::<u16>(),
        token in proptest::collection::vec(any::<u8>(), 0..8),
        segs in proptest::collection::vec("[a-z0-9]{1,30}", 0..4),
        payload in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let m = CoapMessage {
            msg_type: CoapType::Confirmable,
            code: CoapCode::GET,
            message_id,
            token,
            uri_path: segs,
            payload,
        };
        let bytes = m.encode();
        let (decoded, _) = CoapMessage::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, m);
    }

    #[test]
    fn dns_round_trip(id in any::<u16>(), labels in proptest::collection::vec("[a-z0-9]{1,20}", 1..5)) {
        let q = DnsMessage::query(id, &labels.join("."));
        let bytes = q.encode();
        let (decoded, _) = DnsMessage::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, q);
    }

    #[test]
    fn modbus_round_trip(
        transaction in any::<u16>(),
        unit in any::<u8>(),
        function in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let adu = ModbusAdu {
            transaction_id: transaction,
            unit_id: unit,
            function: ModbusFunction::from_u8(function),
            data,
        };
        let bytes = adu.encode();
        let (decoded, used) = ModbusAdu::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, adu);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn zwire_round_trip(
        msg_type in any::<u8>(),
        home_id in any::<u32>(),
        src in any::<u8>(),
        dst in any::<u8>(),
        seq in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..255),
    ) {
        let frame = ZWireFrame::new(ZWireType::from_u8(msg_type), home_id, src, dst, seq, payload);
        let bytes = frame.encode();
        let (decoded, used) = ZWireFrame::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn prefix_expansion_covers_exactly_the_range(lo in any::<u8>(), hi in any::<u8>()) {
        prop_assume!(lo <= hi);
        let prefixes = range_to_prefixes(lo, hi);
        for v in 0..=255u8 {
            let covered = prefixes.iter().any(|p| p.contains(v));
            prop_assert_eq!(covered, (lo..=hi).contains(&v), "byte {}", v);
        }
        prop_assert!(prefixes.len() <= 14);
    }

    #[test]
    fn ternary_covers_implies_matching(
        value_a in any::<u8>(), mask_a in any::<u8>(),
        value_b in any::<u8>(), mask_b in any::<u8>(),
        probe in any::<u8>(),
    ) {
        let a = TernaryEntry::new(vec![value_a], vec![mask_a], 1, 0);
        let b = TernaryEntry::new(vec![value_b], vec![mask_b], 1, 0);
        if a.covers(&b) && b.matches(&[probe]) {
            prop_assert!(a.matches(&[probe]));
        }
    }

    #[test]
    fn compiled_rules_agree_with_tree(
        rows in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 32..128),
        probes in proptest::collection::vec((any::<u8>(), any::<u8>()), 64),
    ) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (a, b, label) in &rows {
            data.push(*a);
            data.push(*b);
            labels.push(usize::from(*label));
        }
        prop_assume!(labels.contains(&0) && labels.contains(&1));
        let tree = DecisionTree::fit(2, &data, &labels, TreeConfig::default());
        let compiled = compile_tree(&tree, &CompileConfig::default()).unwrap();
        for (a, b) in probes {
            prop_assert_eq!(compiled.ternary.classify(&[a, b]), tree.predict(&[a, b]));
        }
    }

    #[test]
    fn key_layout_width_is_stable(offsets in proptest::collection::vec(0usize..128, 1..16), frame in proptest::collection::vec(any::<u8>(), 0..128)) {
        let layout = KeyLayout::new(offsets.clone());
        let key = layout.build_key(&frame);
        prop_assert_eq!(key.len(), offsets.len());
        for (k, o) in key.iter().zip(&offsets) {
            prop_assert_eq!(*k, frame.get(*o).copied().unwrap_or(0));
        }
    }

    #[test]
    fn byte_dataset_projection_commutes(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..80), 1..20),
        offs in proptest::collection::vec(0usize..32, 1..6),
    ) {
        let trace: Trace = frames
            .iter()
            .enumerate()
            .map(|(i, f)| Record {
                timestamp_us: i as u64,
                frame: Bytes::from(f.clone()),
                label: Label::Benign,
                flow_id: 0,
            })
            .collect();
        let bytes = ByteDataset::from_trace(&trace, 32);
        let projected = bytes.project(&offs);
        for i in 0..bytes.len() {
            let row = bytes.sample(i);
            let want: Vec<u8> = offs.iter().map(|&o| row[o]).collect();
            prop_assert_eq!(projected.sample(i), want.as_slice());
        }
    }

    #[test]
    fn matmul_transpose_identities(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c = Matrix::from_fn(m, n, |_, _| next());
        // (Aᵀ)ᵀ·B identity and A·Bᵀ identity.
        let at_b = a.transpose().matmul_at_b(&b); // (Aᵀ)ᵀ·B = A·B
        let ab = a.matmul(&b);
        for (x, y) in at_b.data().iter().zip(ab.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let c_bt = c.matmul_a_bt(&b); // C·Bᵀ  (m×n · n×k)
        let c_bt2 = c.matmul(&b.transpose());
        for (x, y) in c_bt.data().iter().zip(c_bt2.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}

proptest! {
    #[test]
    fn parser_vm_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        use p4guard_dataplane::parser::ParserSpec;
        prop_assert_eq!(ParserSpec::raw_window(64, 14).accepts(&bytes), bytes.len() >= 14);
    }

    /// The seam between the trainer and the data plane. Around every
    /// length where a frame's fate or key can change — the parser's
    /// `min_len`, the deepest selected offset, the window edge — the oracle
    /// and both compiled walkers agree on verdicts and on the whole counter
    /// block, and the key a stage matches is the row the trainer learned
    /// from (`KeyLayout` and `ByteDataset` zero-pad alike).
    #[test]
    fn one_window_onto_the_frame(
        window in 16usize..48,
        min_len in 1usize..=14,
        raw_offsets in proptest::collection::vec(any::<usize>(), 1..5),
        rules in proptest::collection::vec(
            (any::<[u8; 4]>(), proptest::collection::vec(0usize..4, 4), any::<bool>()),
            0..6,
        ),
        bytes in proptest::collection::vec(any::<u8>(), 64),
        random_lens in proptest::collection::vec(0usize..64, 0..8),
    ) {
        use p4guard_dataplane::action::{Action, Verdict};
        use p4guard_dataplane::parser::ParserSpec;
        use p4guard_dataplane::pipeline::BatchScratch;
        use p4guard_dataplane::switch::{Switch, SwitchCounters};
        use p4guard_dataplane::table::MatchSpec;
        use p4guard_dataplane::AclLayout;
        use p4guard_packet::arena::FrameArena;
        use p4guard_telemetry::NoopSink;

        let offsets: Vec<usize> = raw_offsets.iter().map(|o| o % window).collect();
        let width = offsets.len();
        let deepest = offsets.iter().copied().max().unwrap_or(0);
        let frames: Vec<&[u8]> = [min_len - 1, min_len, deepest, window - 1, window, window + 1]
            .iter()
            .chain(&random_lens)
            .map(|&n| &bytes[..n])
            .collect();
        let mut acl = AclLayout { window, offsets: offsets.clone(), capacity: 16 }.table("acl");
        for (priority, (value, masks, drop)) in rules.iter().enumerate() {
            let mask = masks[..width].iter().map(|&m| [0x00, 0x0f, 0xf0, 0xff][m]).collect();
            let action = if *drop { Action::Drop } else { Action::Forward(7) };
            acl.insert(MatchSpec::Ternary { value: value[..width].to_vec(), mask }, action, priority as i32)
                .expect("generated ternary specs are valid");
        }
        let mut sw = Switch::new("seam", ParserSpec::raw_window(window, min_len), 1);
        sw.add_stage(acl);
        let pipeline = sw.read_pipeline(1);

        let oracle: Vec<Verdict> = frames.iter().map(|f| sw.process(f)).collect();
        let mut per_counters = SwitchCounters::default();
        let mut scratch = Vec::new();
        let per_frame: Vec<Verdict> = frames
            .iter()
            .map(|f| pipeline.process_with(f, &mut per_counters, &mut scratch, &mut NoopSink))
            .collect();
        let batch = FrameArena::default().pack(frames.iter().copied(), frames.len()).remove(0);
        let mut batch_counters = SwitchCounters::default();
        let mut batched = Vec::new();
        pipeline.process_batch_with(
            batch.data(),
            batch.spans(),
            &mut batch_counters,
            &mut BatchScratch::new(),
            &mut batched,
            &mut NoopSink,
        );
        prop_assert_eq!(&per_frame, &oracle);
        prop_assert_eq!(&batched, &oracle);
        prop_assert_eq!(&per_counters, sw.counters());
        prop_assert_eq!(&batch_counters, sw.counters());
        let rejected = frames.iter().filter(|f| f.len() < min_len).count() as u64;
        prop_assert_eq!(sw.counters().parser_rejected, rejected);

        let trace: Trace = frames
            .iter()
            .map(|f| Record {
                timestamp_us: 0,
                frame: Bytes::from(f.to_vec()),
                label: Label::Benign,
                flow_id: 0,
            })
            .collect();
        let learned = ByteDataset::from_trace(&trace, window).project(&offsets);
        let key = KeyLayout::new(offsets);
        for (i, frame) in frames.iter().enumerate() {
            prop_assert_eq!(key.build_key(frame), learned.sample(i), "{}-byte frame", frame.len());
        }
    }

    #[test]
    fn table_priority_semantics(
        entries in proptest::collection::vec((any::<u8>(), any::<u8>(), 0i32..100), 1..24),
        probe in any::<u8>(),
    ) {
        use p4guard_dataplane::action::Action;
        use p4guard_dataplane::key::KeyLayout;
        use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
        let mut table = Table::new("t", MatchKind::Ternary, KeyLayout::window(1), 64, Action::NoOp);
        for (i, (value, mask, priority)) in entries.iter().enumerate() {
            table
                .insert(
                    MatchSpec::Ternary {
                        value: vec![*value],
                        mask: vec![*mask],
                    },
                    Action::Forward(i as u16),
                    *priority,
                )
                .unwrap();
        }
        // Reference: the max-priority matching entry by insertion order.
        let expected = entries
            .iter()
            .enumerate()
            .filter(|(_, (v, m, _))| probe & m == v & m)
            .max_by(|(ia, (_, _, pa)), (ib, (_, _, pb))| pa.cmp(pb).then(ib.cmp(ia)))
            .map(|(i, _)| Action::Forward(i as u16))
            .unwrap_or(Action::NoOp);
        prop_assert_eq!(table.peek(&[probe]), expected);
    }

    #[test]
    fn lpm_matches_longest_prefix(
        prefixes in proptest::collection::vec((any::<u8>(), 0usize..=8), 1..10),
        probe in any::<u8>(),
    ) {
        use p4guard_dataplane::action::Action;
        use p4guard_dataplane::key::KeyLayout;
        use p4guard_dataplane::table::{MatchKind, MatchSpec, Table};
        let mut table = Table::new("t", MatchKind::Lpm, KeyLayout::window(1), 32, Action::NoOp);
        let mut deduped: Vec<(u8, usize)> = Vec::new();
        for (value, len) in prefixes {
            let masked = if len == 0 { 0 } else { value & (0xffu8 << (8 - len)) };
            if !deduped.iter().any(|&(v, l)| l == len && v == masked) {
                deduped.push((masked, len));
            }
        }
        for (i, (value, len)) in deduped.iter().enumerate() {
            table
                .insert(
                    MatchSpec::Lpm {
                        value: vec![*value],
                        prefix_len: *len,
                    },
                    Action::Forward(i as u16),
                    0,
                )
                .unwrap();
        }
        let expected = deduped
            .iter()
            .enumerate()
            .filter(|(_, (v, len))| {
                *len == 0 || probe & (0xffu8 << (8 - len)) == *v
            })
            .max_by_key(|(_, (_, len))| *len)
            .map(|(i, _)| Action::Forward(i as u16))
            .unwrap_or(Action::NoOp);
        prop_assert_eq!(table.peek(&[probe]), expected);
    }

    #[test]
    fn corruption_preserves_structure(fraction in 0.0f64..1.0) {
        use p4guard_traffic::corruption::Corruption;
        use p4guard_traffic::scenario::Scenario;
        let trace = Scenario::benign_only(p4guard_traffic::Fleet::smart_home(), 10.0, 3)
            .generate()
            .unwrap();
        let corrupted = Corruption {
            fraction,
            bit_flips: 2,
            truncate_prob: 0.2,
        }
        .apply(&trace, 5);
        prop_assert_eq!(corrupted.len(), trace.len());
        for (a, b) in trace.iter().zip(corrupted.iter()) {
            prop_assert_eq!(a.label, b.label);
            prop_assert!(b.frame.len() <= a.frame.len());
        }
    }
}
