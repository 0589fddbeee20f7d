//! Classic libpcap file format (`.pcap`) export/import.
//!
//! Generated traces can be written as standard pcap files and inspected
//! with Wireshark/tcpdump, and real captures can be pulled into the
//! pipeline (labels cannot ride along in classic pcap, so imports come
//! back unlabelled — callers label them or use imports for inference
//! only).

use crate::error::TraceIoError;
use crate::trace::{Label, Record, Trace};
use bytes::Bytes;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC_US: u32 = 0xa1b2_c3d4; // microsecond-resolution, native order
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;

/// Writes the trace as a classic pcap file (Ethernet link type,
/// microsecond timestamps). Labels are not representable in pcap and are
/// dropped.
///
/// # Errors
///
/// Returns an error when the underlying writer fails.
pub fn write_pcap<W: Write>(trace: &Trace, mut writer: W) -> Result<(), TraceIoError> {
    writer.write_all(&MAGIC_US.to_le_bytes())?;
    writer.write_all(&VERSION_MAJOR.to_le_bytes())?;
    writer.write_all(&VERSION_MINOR.to_le_bytes())?;
    writer.write_all(&0i32.to_le_bytes())?; // thiszone
    writer.write_all(&0u32.to_le_bytes())?; // sigfigs
    writer.write_all(&65535u32.to_le_bytes())?; // snaplen
    writer.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
    for record in trace.iter() {
        let secs = (record.timestamp_us / 1_000_000) as u32;
        let usecs = (record.timestamp_us % 1_000_000) as u32;
        let len = record.frame.len() as u32;
        writer.write_all(&secs.to_le_bytes())?;
        writer.write_all(&usecs.to_le_bytes())?;
        writer.write_all(&len.to_le_bytes())?; // captured
        writer.write_all(&len.to_le_bytes())?; // original
        writer.write_all(&record.frame)?;
    }
    Ok(())
}

/// Reads a classic pcap file into an (unlabelled) trace: every record gets
/// [`Label::Benign`] and a zero flow id.
///
/// # Errors
///
/// Returns an error on I/O failure, an unknown magic, or a non-Ethernet
/// link type.
pub fn read_pcap<R: Read>(mut reader: R) -> Result<Trace, TraceIoError> {
    let mut header = [0u8; 24];
    reader.read_exact(&mut header)?;
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let swapped = match magic {
        MAGIC_US => false,
        0xd4c3_b2a1 => true,
        other => {
            return Err(TraceIoError::Format(format!(
                "unknown pcap magic 0x{other:08x} (nanosecond and pcapng files are not supported)"
            )))
        }
    };
    let read_u32 = |bytes: [u8; 4]| {
        if swapped {
            u32::from_be_bytes(bytes)
        } else {
            u32::from_le_bytes(bytes)
        }
    };
    let linktype = read_u32([header[20], header[21], header[22], header[23]]);
    if linktype != LINKTYPE_ETHERNET {
        return Err(TraceIoError::Format(format!(
            "unsupported link type {linktype}, expected ethernet (1)"
        )));
    }
    let mut trace = Trace::new();
    loop {
        // Only zero bytes at a record boundary are a clean end; a file cut
        // inside the header is truncated, like one cut inside a body.
        let mut rec_header = [0u8; 16];
        match reader.read_exact(&mut rec_header[..1]) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            first => first?,
        }
        reader.read_exact(&mut rec_header[1..])?;
        let secs = read_u32([rec_header[0], rec_header[1], rec_header[2], rec_header[3]]);
        let usecs = read_u32([rec_header[4], rec_header[5], rec_header[6], rec_header[7]]);
        let captured = read_u32([rec_header[8], rec_header[9], rec_header[10], rec_header[11]]);
        // Same untrusted-length defence as the `P4GT` reader: refuse to
        // preallocate from a corrupt 32-bit captured-length field.
        if captured > crate::trace::MAX_FRAME_LEN {
            return Err(TraceIoError::Format(format!(
                "pcap captured length {captured} exceeds the {}-byte cap",
                crate::trace::MAX_FRAME_LEN
            )));
        }
        let mut frame = vec![0u8; captured as usize];
        reader.read_exact(&mut frame)?;
        trace.push(Record {
            timestamp_us: u64::from(secs) * 1_000_000 + u64::from(usecs),
            frame: Bytes::from(frame),
            label: Label::Benign,
            flow_id: 0,
        });
    }
    Ok(trace)
}

/// Saves the trace as a pcap file. See [`write_pcap`].
///
/// # Errors
///
/// Returns an error when the file cannot be created or written.
pub fn save_pcap(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let file = std::fs::File::create(path)?;
    write_pcap(trace, std::io::BufWriter::new(file))
}

/// Loads a pcap file. See [`read_pcap`].
///
/// # Errors
///
/// Returns an error when the file cannot be read or is not supported pcap.
pub fn load_pcap(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    let file = std::fs::File::open(path)?;
    read_pcap(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AttackFamily;

    fn trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..20u64 {
            let label = if i % 4 == 0 {
                Label::Attack(AttackFamily::SynFlood)
            } else {
                Label::Benign
            };
            t.push(Record {
                timestamp_us: i * 1_500_000 + 7,
                frame: Bytes::from(vec![i as u8; 40 + (i as usize % 8)]),
                label,
                flow_id: i,
            });
        }
        t
    }

    #[test]
    fn pcap_round_trip_preserves_frames_and_times() {
        let original = trace();
        let mut buf = Vec::new();
        write_pcap(&original, &mut buf).unwrap();
        // Global header + 20 × (16-byte record header + frame).
        let frames: usize = original.iter().map(|r| r.frame.len()).sum();
        assert_eq!(buf.len(), 24 + 20 * 16 + frames);
        let loaded = read_pcap(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), original.len());
        for (a, b) in original.iter().zip(loaded.iter()) {
            assert_eq!(a.frame, b.frame);
            assert_eq!(a.timestamp_us, b.timestamp_us);
            // Labels are not representable in pcap.
            assert_eq!(b.label, Label::Benign);
        }
    }

    #[test]
    fn rejects_unknown_magic() {
        let err = read_pcap([0u8; 24].as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_non_ethernet_linktype() {
        let t = trace();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        buf[20] = 101; // LINKTYPE_RAW
        assert!(read_pcap(buf.as_slice()).is_err());
    }

    #[test]
    fn reads_byte_swapped_header() {
        let t = trace();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        // Rewrite the file as big-endian (swapped magic + fields).
        let mut be = Vec::with_capacity(buf.len());
        be.extend_from_slice(&0xa1b2_c3d4u32.to_be_bytes());
        be.extend_from_slice(&VERSION_MAJOR.to_be_bytes());
        be.extend_from_slice(&VERSION_MINOR.to_be_bytes());
        be.extend_from_slice(&0i32.to_be_bytes());
        be.extend_from_slice(&0u32.to_be_bytes());
        be.extend_from_slice(&65535u32.to_be_bytes());
        be.extend_from_slice(&1u32.to_be_bytes());
        for record in t.iter() {
            let secs = (record.timestamp_us / 1_000_000) as u32;
            let usecs = (record.timestamp_us % 1_000_000) as u32;
            be.extend_from_slice(&secs.to_be_bytes());
            be.extend_from_slice(&usecs.to_be_bytes());
            be.extend_from_slice(&(record.frame.len() as u32).to_be_bytes());
            be.extend_from_slice(&(record.frame.len() as u32).to_be_bytes());
            be.extend_from_slice(&record.frame);
        }
        let loaded = read_pcap(be.as_slice()).unwrap();
        assert_eq!(loaded.len(), t.len());
        assert_eq!(loaded.records()[3].frame, t.records()[3].frame);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let t = trace();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_pcap(buf.as_slice()).is_err());
    }

    #[test]
    fn file_cut_inside_a_record_header_is_an_error() {
        let t = trace();
        let mut buf = Vec::new();
        write_pcap(&t, &mut buf).unwrap();
        let last = t.records().last().unwrap().frame.len();
        // Leave 1..=15 bytes of the last record's 16-byte header.
        for kept in [1, 7, 15] {
            let cut = &buf[..buf.len() - last - 16 + kept];
            assert!(read_pcap(cut).is_err(), "{kept} header bytes kept");
        }
        let whole = &buf[..buf.len() - last - 16];
        assert_eq!(read_pcap(whole).unwrap().len(), t.len() - 1);
    }

    #[test]
    fn file_round_trip() {
        let t = trace();
        let dir = std::env::temp_dir().join("p4guard-pcap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pcap");
        save_pcap(&t, &path).unwrap();
        let loaded = load_pcap(&path).unwrap();
        assert_eq!(loaded.len(), t.len());
        std::fs::remove_file(&path).unwrap();
    }
}
