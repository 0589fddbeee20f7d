//! Labelled packet traces: the dataset format consumed by the learning
//! pipeline and produced by the traffic simulator.
//!
//! A trace is a time-ordered sequence of raw frames, each carrying a ground-
//! truth label. Traces serialize to a compact binary file format (magic
//! `P4GT`) so generated datasets can be saved and reloaded deterministically.

use crate::arena::{FrameArena, FrameBatch};
use crate::error::TraceIoError;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// The attack families the dataset format can label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackFamily {
    /// Mirai-style telnet scanning of the address space.
    MiraiScan,
    /// Credential brute forcing against device services.
    BruteForce,
    /// TCP SYN flood.
    SynFlood,
    /// UDP flood.
    UdpFlood,
    /// MQTT CONNECT flood against the broker.
    MqttFlood,
    /// CoAP amplification with spoofed sources.
    CoapAmplification,
    /// DNS tunnelling exfiltration.
    DnsTunnel,
    /// Malicious Modbus writes to industrial endpoints.
    ModbusAbuse,
    /// Bulk data exfiltration over ZWire.
    ZWireHijack,
}

impl AttackFamily {
    /// All families, in display order.
    pub const ALL: [AttackFamily; 9] = [
        AttackFamily::MiraiScan,
        AttackFamily::BruteForce,
        AttackFamily::SynFlood,
        AttackFamily::UdpFlood,
        AttackFamily::MqttFlood,
        AttackFamily::CoapAmplification,
        AttackFamily::DnsTunnel,
        AttackFamily::ModbusAbuse,
        AttackFamily::ZWireHijack,
    ];

    /// A stable one-byte code used by the trace file format.
    pub fn code(&self) -> u8 {
        match self {
            AttackFamily::MiraiScan => 1,
            AttackFamily::BruteForce => 2,
            AttackFamily::SynFlood => 3,
            AttackFamily::UdpFlood => 4,
            AttackFamily::MqttFlood => 5,
            AttackFamily::CoapAmplification => 6,
            AttackFamily::DnsTunnel => 7,
            AttackFamily::ModbusAbuse => 8,
            AttackFamily::ZWireHijack => 9,
        }
    }

    /// Inverse of [`AttackFamily::code`].
    pub fn from_code(code: u8) -> Option<AttackFamily> {
        Self::ALL.iter().copied().find(|f| f.code() == code)
    }
}

impl fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackFamily::MiraiScan => "mirai-scan",
            AttackFamily::BruteForce => "brute-force",
            AttackFamily::SynFlood => "syn-flood",
            AttackFamily::UdpFlood => "udp-flood",
            AttackFamily::MqttFlood => "mqtt-flood",
            AttackFamily::CoapAmplification => "coap-amplification",
            AttackFamily::DnsTunnel => "dns-tunnel",
            AttackFamily::ModbusAbuse => "modbus-abuse",
            AttackFamily::ZWireHijack => "zwire-hijack",
        };
        write!(f, "{s}")
    }
}

/// Ground-truth label of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Label {
    /// Normal device traffic.
    Benign,
    /// Attack traffic of the given family.
    Attack(AttackFamily),
}

impl Label {
    /// Returns `true` for attack records.
    pub fn is_attack(&self) -> bool {
        matches!(self, Label::Attack(_))
    }

    /// Returns the attack family, if any.
    pub fn family(&self) -> Option<AttackFamily> {
        match self {
            Label::Benign => None,
            Label::Attack(f) => Some(*f),
        }
    }

    /// The binary class used by classifiers: 0 = benign, 1 = attack.
    pub fn class(&self) -> usize {
        usize::from(self.is_attack())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Benign => write!(f, "benign"),
            Label::Attack(a) => write!(f, "attack({a})"),
        }
    }
}

/// One labelled frame in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Capture timestamp in microseconds from the start of the scenario.
    pub timestamp_us: u64,
    /// Raw Ethernet frame.
    pub frame: Bytes,
    /// Ground-truth label.
    pub label: Label,
    /// Opaque flow identifier assigned by the generator; records of the
    /// same logical flow share it.
    pub flow_id: u64,
}

/// A time-ordered sequence of labelled frames.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<Record>,
}

const MAGIC: &[u8; 4] = b"P4GT";
const FORMAT_VERSION: u8 = 1;

/// Upper bound on a single record's frame length. The length prefix is an
/// untrusted 32-bit field; without a cap, a corrupt prefix makes the reader
/// preallocate up to 4 GiB before the truncation is even noticed. Jumbo
/// Ethernet frames top out under 10 KiB, so 16 MiB is generous headroom.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a record. Records may be pushed out of order; call
    /// [`Trace::sort_by_time`] before handing the trace to consumers that
    /// assume arrival order.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over records in storage order.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }

    /// Borrows the records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Stably sorts records by timestamp.
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| r.timestamp_us);
    }

    /// Number of attack-labelled records.
    pub fn attack_count(&self) -> usize {
        self.records.iter().filter(|r| r.label.is_attack()).count()
    }

    /// Splits into (first, second) with `fraction` of records in the first
    /// part, preserving order. `fraction` is clamped to `[0, 1]`.
    pub fn split_at_fraction(&self, fraction: f64) -> (Trace, Trace) {
        let fraction = fraction.clamp(0.0, 1.0);
        let cut = (self.records.len() as f64 * fraction).round() as usize;
        let cut = cut.min(self.records.len());
        (
            Trace {
                records: self.records[..cut].to_vec(),
            },
            Trace {
                records: self.records[cut..].to_vec(),
            },
        )
    }

    /// Writes the trace to `writer` in the `P4GT` binary format.
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying writer fails.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<(), TraceIoError> {
        writer.write_all(MAGIC)?;
        writer.write_all(&[FORMAT_VERSION])?;
        writer.write_all(&(self.records.len() as u64).to_le_bytes())?;
        for r in &self.records {
            writer.write_all(&r.timestamp_us.to_le_bytes())?;
            writer.write_all(&r.flow_id.to_le_bytes())?;
            let label_code = match r.label {
                Label::Benign => 0u8,
                Label::Attack(f) => f.code(),
            };
            writer.write_all(&[label_code])?;
            writer.write_all(&(r.frame.len() as u32).to_le_bytes())?;
            writer.write_all(&r.frame)?;
        }
        Ok(())
    }

    /// Reads a trace from `reader` by draining a [`TraceReader`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or a malformed file.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, TraceIoError> {
        TraceReader::new(reader)?.collect()
    }

    /// Saves the trace to a file. See [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be created or written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
        let file = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(file))
    }

    /// Loads a trace from a file. See [`Trace::read_from`].
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or is malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let file = std::fs::File::open(path)?;
        Self::read_from(std::io::BufReader::new(file))
    }

    /// Repacks the trace's frames into arena-backed [`FrameBatch`]es of at
    /// most `batch_size` frames, preserving record order. Each batch owns
    /// one contiguous chunk, so downstream consumers move a whole batch with
    /// a single refcount bump instead of one `Bytes` clone per frame.
    pub fn to_batches(&self, batch_size: usize) -> Vec<FrameBatch> {
        FrameArena::default().pack(self.records.iter().map(|r| &r.frame[..]), batch_size)
    }
}

/// A streaming reader over the `P4GT` format: yields one [`Record`] at a
/// time instead of slurping the whole trace into memory. This is the
/// ingestion path for serving runtimes that replay multi-gigabyte traces.
///
/// The header is validated eagerly in [`TraceReader::new`]; records are
/// decoded lazily as the iterator is driven. After the declared record
/// count has been yielded the iterator fuses to `None`.
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    remaining: u64,
    total: u64,
}

impl TraceReader<std::io::BufReader<std::fs::File>> {
    /// Opens a trace file for streaming.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be opened or the header is
    /// malformed.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let file = std::fs::File::open(path)?;
        Self::new(std::io::BufReader::new(file))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps a reader, consuming and validating the `P4GT` header.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, bad magic, or an unsupported
    /// format version.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceIoError::Format("bad magic".into()));
        }
        let mut version = [0u8; 1];
        reader.read_exact(&mut version)?;
        if version[0] != FORMAT_VERSION {
            return Err(TraceIoError::Format(format!(
                "unsupported format version {}",
                version[0]
            )));
        }
        let mut count_bytes = [0u8; 8];
        reader.read_exact(&mut count_bytes)?;
        let total = u64::from_le_bytes(count_bytes);
        Ok(TraceReader {
            reader,
            remaining: total,
            total,
        })
    }

    /// Records declared by the header.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes one record: the fixed 21-byte head (timestamp, flow, label
    /// byte, length prefix), then the frame. The label byte is validated
    /// and the untrusted length prefix capped before anything is
    /// allocated; a stream that ends inside the frame is a truncated
    /// record, not a bare I/O error.
    fn read_record(&mut self) -> Result<Record, TraceIoError> {
        let (mut ts, mut flow, mut tail) = ([0u8; 8], [0u8; 8], [0u8; 5]);
        self.reader.read_exact(&mut ts)?;
        self.reader.read_exact(&mut flow)?;
        self.reader.read_exact(&mut tail)?;
        let [code, len @ ..] = tail;
        let label = if code == 0 {
            Label::Benign
        } else {
            Label::Attack(
                AttackFamily::from_code(code)
                    .ok_or_else(|| TraceIoError::Format(format!("unknown attack code {code}")))?,
            )
        };
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME_LEN {
            return Err(TraceIoError::Format(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap (corrupt length prefix)"
            )));
        }
        let mut frame = vec![0u8; len as usize];
        self.reader.read_exact(&mut frame).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceIoError::Format(format!(
                    "record truncated: frame claims {len} bytes but the stream ended early"
                ))
            } else {
                TraceIoError::Io(e)
            }
        })?;
        Ok(Record {
            timestamp_us: u64::from_le_bytes(ts),
            flow_id: u64::from_le_bytes(flow),
            label,
            frame: Bytes::from(frame),
        })
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Record, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        match self.read_record() {
            Ok(record) => {
                self.remaining -= 1;
                Some(Ok(record))
            }
            Err(e) => {
                // A decode error poisons the stream: stop yielding rather
                // than resynchronise mid-record.
                self.remaining = 0;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The header-declared count is an upper bound; a truncated file
        // yields fewer records.
        (0, usize::try_from(self.remaining).ok())
    }
}

impl FromIterator<Record> for Trace {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<Record> for Trace {
    fn extend<I: IntoIterator<Item = Record>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64, label: Label) -> Record {
        Record {
            timestamp_us: ts,
            frame: Bytes::from_static(&[1, 2, 3, 4]),
            label,
            flow_id: ts / 10,
        }
    }

    #[test]
    fn push_sort_and_count() {
        let mut t = Trace::new();
        t.push(record(30, Label::Attack(AttackFamily::SynFlood)));
        t.push(record(10, Label::Benign));
        t.push(record(20, Label::Benign));
        t.sort_by_time();
        let times: Vec<u64> = t.iter().map(|r| r.timestamp_us).collect();
        assert_eq!(times, [10, 20, 30]);
        assert_eq!(t.attack_count(), 1);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn file_round_trip() {
        let mut t = Trace::new();
        for i in 0..50 {
            let label = if i % 5 == 0 {
                Label::Attack(AttackFamily::DnsTunnel)
            } else {
                Label::Benign
            };
            t.push(record(i, label));
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let loaded = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded, t);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Trace::read_from(b"NOPE\x01".as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        Trace::new().write_to(&mut buf).unwrap();
        buf[4] = 99;
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_unknown_attack_code() {
        let mut t = Trace::new();
        t.push(record(1, Label::Attack(AttackFamily::MiraiScan)));
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Label byte sits after magic(4)+ver(1)+count(8)+ts(8)+flow(8).
        buf[29] = 200;
        assert!(Trace::read_from(buf.as_slice()).is_err());
    }

    #[test]
    fn streaming_reader_yields_records_lazily() {
        let mut t = Trace::new();
        for i in 0..20 {
            t.push(record(i, Label::Benign));
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.total(), 20);
        assert_eq!(reader.remaining(), 20);
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.timestamp_us, 0);
        assert_eq!(reader.remaining(), 19);
        let rest: Result<Vec<Record>, _> = reader.collect();
        assert_eq!(rest.unwrap().len(), 19);
    }

    #[test]
    fn streaming_reader_stops_after_decode_error() {
        let mut t = Trace::new();
        t.push(record(1, Label::Benign));
        t.push(record(2, Label::Benign));
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf[29] = 200; // corrupt the first record's label byte
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "stream fuses after an error");
    }

    #[test]
    fn streaming_reader_matches_batch_load() {
        let mut t = Trace::new();
        for i in 0..10 {
            let label = if i % 3 == 0 {
                Label::Attack(AttackFamily::UdpFlood)
            } else {
                Label::Benign
            };
            t.push(record(i, label));
        }
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let streamed: Trace = TraceReader::new(buf.as_slice())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, t);
    }

    #[test]
    fn to_batches_preserves_frames_and_order() {
        let mut t = Trace::new();
        for i in 0..10u8 {
            t.push(Record {
                timestamp_us: u64::from(i),
                frame: Bytes::from(vec![i; usize::from(i) + 1]),
                label: Label::Benign,
                flow_id: u64::from(i),
            });
        }
        let batches = t.to_batches(4);
        assert_eq!(batches.len(), 3);
        assert_eq!(
            batches.iter().map(|b| b.len()).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        let flat: Vec<Vec<u8>> = batches
            .iter()
            .flat_map(|b| b.iter().map(|f| f.to_vec()))
            .collect();
        let expected: Vec<Vec<u8>> = t.iter().map(|r| r.frame.to_vec()).collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn reader_refuses_hostile_records() {
        let t: Trace = (0..4).map(|i| record(i, Label::Benign)).collect();
        let mut good = Vec::new();
        t.write_to(&mut good).unwrap();
        // The first record starts at 13: ts(8) flow(8) label(1) len(4) body.
        let mut bad_label = good.clone();
        bad_label[29] = 200;
        let mut huge_len = good.clone();
        huge_len[30..34].copy_from_slice(&u32::MAX.to_le_bytes());
        let cut_body = good[..good.len() - 1].to_vec();
        let cut_head = good[..13 + 20].to_vec();
        for (hostile, want) in [
            (bad_label, "unknown attack code 200"),
            (huge_len, "exceeds the 16777216-byte cap"),
            (cut_body, "record truncated: frame claims"),
            (cut_head, "trace i/o error"),
        ] {
            let err = TraceReader::new(hostile.as_slice())
                .unwrap()
                .find_map(Result::err)
                .expect("the reader refuses the file");
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn split_at_fraction_preserves_order() {
        let t: Trace = (0..10).map(|i| record(i, Label::Benign)).collect();
        let (a, b) = t.split_at_fraction(0.6);
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 4);
        assert_eq!(b.records()[0].timestamp_us, 6);
        let (all, none) = t.split_at_fraction(2.0);
        assert_eq!(all.len(), 10);
        assert!(none.is_empty());
    }

    #[test]
    fn label_helpers() {
        assert!(!Label::Benign.is_attack());
        assert_eq!(Label::Benign.class(), 0);
        let l = Label::Attack(AttackFamily::MqttFlood);
        assert_eq!(l.class(), 1);
        assert_eq!(l.family(), Some(AttackFamily::MqttFlood));
        assert_eq!(l.to_string(), "attack(mqtt-flood)");
    }

    #[test]
    fn family_codes_round_trip() {
        for f in AttackFamily::ALL {
            assert_eq!(AttackFamily::from_code(f.code()), Some(f));
        }
        assert_eq!(AttackFamily::from_code(0), None);
        assert_eq!(AttackFamily::from_code(77), None);
    }
}
