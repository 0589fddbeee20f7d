//! # p4guard-packet
//!
//! Byte-level packet model for the `p4guard` reproduction of *"A Learning
//! Approach with Programmable Data Plane towards IoT Security"* (ICDCS
//! 2020).
//!
//! This crate is the lowest substrate of the workspace: wire-accurate codecs
//! for the heterogeneous protocol mix the paper motivates (TCP/IP, MQTT,
//! CoAP, DNS, Modbus/TCP, and the non-IP [`zwire`] protocol), a
//! [`packet::PacketBuilder`] that assembles checksummed frames, a
//! [`fields`] registry that maps raw byte offsets back to header-field
//! names, and the labelled [`trace::Trace`] dataset container.
//!
//! # Examples
//!
//! Build an MQTT PUBLISH frame and parse it back:
//!
//! ```
//! use p4guard_packet::addr::MacAddr;
//! use p4guard_packet::mqtt::MqttPacket;
//! use p4guard_packet::packet::{parse, PacketBuilder, ProtocolTag};
//! use p4guard_packet::tcp::{TcpFlags, TcpHeader};
//! use std::net::Ipv4Addr;
//!
//! let builder = PacketBuilder::new(MacAddr::from_id(1), MacAddr::from_id(2));
//! let publish = MqttPacket::Publish {
//!     topic: "home/temp".into(),
//!     packet_id: None,
//!     qos: 0,
//!     retain: false,
//!     payload: b"21.5".to_vec(),
//! };
//! let frame = builder.tcp(
//!     Ipv4Addr::new(192, 168, 1, 10),
//!     Ipv4Addr::new(192, 168, 1, 1),
//!     TcpHeader::new(49152, 1883, 1, 1, TcpFlags::PSH | TcpFlags::ACK),
//!     &publish.encode(),
//! );
//! let parsed = parse(&frame).expect("frame is well formed");
//! assert_eq!(parsed.protocol(), ProtocolTag::Mqtt);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod arena;
pub mod arp;
pub mod checksum;
pub mod coap;
pub mod dns;
pub mod error;
pub mod ethernet;
pub mod fields;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod modbus;
pub mod mqtt;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod trace;
pub mod udp;
pub mod wire;
pub mod zwire;

pub use addr::MacAddr;
pub use arena::{ArenaStats, FrameArena, FrameBatch, FrameSpan};
pub use error::ParseError;
pub use packet::{parse, Application, PacketBuilder, ParsedPacket, ProtocolTag, Transport};
pub use trace::{AttackFamily, Label, Record, Trace, TraceReader};
