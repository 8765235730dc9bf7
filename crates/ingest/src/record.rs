//! Framed GPS stream records: the wire format raw traces arrive in.
//!
//! A producer (vehicle gateway, log shipper, test generator) emits one
//! frame per completed trip:
//!
//! ```text
//! ┌───────────┬───────────┬──────────────────────────────────────────┐
//! │ len: u32  │ crc: u32  │ payload (len bytes)                      │
//! └───────────┴───────────┴──────────────────────────────────────────┘
//! payload = source: u32 | seq: u64 | fixes: u32 | fixes × (x,y,t: f64)
//! ```
//!
//! Everything is little-endian; `crc` is CRC-32 (IEEE) over the payload.
//! The header is written and read by `netclus_service::framing`, the
//! frame reader under every format, and the fields by `netclus::codec`.
//! `seq` is a **per-source sequence number**: sources number their records
//! monotonically so the pipeline can drop duplicates on at-least-once
//! transports (see [`crate::pipeline`]).
//!
//! Decoding is paranoid: frames with bad checksums, truncated payloads,
//! non-finite coordinates or non-monotone timestamps are rejected as
//! [`RecordError`]s instead of panicking downstream — a malformed producer
//! must never take the ingest pipeline down.

use std::fmt;
use std::io::{self, Read, Write};

use netclus::codec::{put_f64, put_u32, put_u64, ShardCodecError, WireReader};
use netclus_roadnet::Point;
use netclus_service::framing::{frame_into, read_frame_into, FrameError, HEADER_BYTES};
use netclus_trajectory::{GpsPoint, GpsTrace};

/// Upper bound on one frame's payload (1 MiB ≈ 43k fixes) — a corrupt
/// length prefix must not trigger a giant allocation. Defined with every
/// other wire limit in `netclus_service::wire`.
pub const MAX_RECORD_PAYLOAD: usize = netclus_service::wire::MAX_RECORD_FRAME;

/// One raw GPS trace in flight: who sent it, its per-source sequence
/// number, and the fixes.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamRecord {
    /// Producer id (vehicle / gateway).
    pub source: u32,
    /// Per-source monotone sequence number (duplicate detection).
    pub seq: u64,
    /// The raw trace.
    pub trace: GpsTrace,
}

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The underlying reader failed.
    Io(String),
    /// The stream ended inside a frame.
    Truncated,
    /// The payload checksum did not match.
    BadCrc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The length prefix exceeds [`MAX_RECORD_PAYLOAD`].
    TooLarge(usize),
    /// The payload decoded to an invalid record.
    Malformed(&'static str),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io(e) => write!(f, "record read failed: {e}"),
            RecordError::Truncated => f.write_str("stream ended inside a frame"),
            RecordError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            RecordError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            RecordError::Malformed(why) => write!(f, "malformed record payload: {why}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<FrameError> for RecordError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => RecordError::Io(e.to_string()),
            FrameError::Truncated => RecordError::Truncated,
            FrameError::TooLarge(len) => RecordError::TooLarge(len),
            FrameError::BadCrc { stored, computed } => RecordError::BadCrc { stored, computed },
        }
    }
}

impl From<ShardCodecError> for RecordError {
    fn from(e: ShardCodecError) -> Self {
        RecordError::Malformed(e.0)
    }
}

impl StreamRecord {
    /// Encodes the full frame: `len | crc | payload`.
    pub fn encode_frame(&self) -> Vec<u8> {
        let fixes = self.trace.points();
        let mut frame = Vec::with_capacity(HEADER_BYTES + 16 + fixes.len() * 24);
        frame_into(&mut frame, |buf| {
            put_u32(buf, self.source);
            put_u64(buf, self.seq);
            put_u32(buf, fixes.len() as u32);
            for p in fixes {
                put_f64(buf, p.pos.x);
                put_f64(buf, p.pos.y);
                put_f64(buf, p.t);
            }
        })
        .expect("a record payload fits a frame");
        frame
    }

    /// Writes the framed record to `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode_frame())
    }

    /// Decodes a payload (the bytes after the frame header), validating
    /// structure, coordinate finiteness and timestamp monotonicity.
    pub fn decode_payload(payload: &[u8]) -> Result<StreamRecord, RecordError> {
        let mut r = WireReader::new(payload);
        let source = r.u32()?;
        let seq = r.u64()?;
        let n = r.u32()? as usize;
        // 24 bytes per fix must fit the remaining payload exactly.
        if n.checked_mul(24) != Some(r.remaining()) {
            return Err(RecordError::Malformed("fix count disagrees with length"));
        }
        let mut fixes = Vec::with_capacity(n);
        let mut last_t = f64::NEG_INFINITY;
        for _ in 0..n {
            let (x, y, t) = (r.f64()?, r.f64()?, r.f64()?);
            if !x.is_finite() || !y.is_finite() || !t.is_finite() {
                return Err(RecordError::Malformed("non-finite coordinate or time"));
            }
            if t < last_t {
                return Err(RecordError::Malformed("timestamps not non-decreasing"));
            }
            last_t = t;
            fixes.push(GpsPoint::new(Point::new(x, y), t));
        }
        Ok(StreamRecord {
            source,
            seq,
            trace: GpsTrace::new(fixes),
        })
    }
}

/// Streaming decoder over any `io::Read`, yielding one record (or error)
/// per frame.
///
/// A clean end-of-stream at a frame boundary ends iteration; EOF inside a
/// frame yields [`RecordError::Truncated`]. After a [`RecordError::BadCrc`]
/// or [`RecordError::Malformed`] frame the reader stays in sync (the length
/// prefix was valid) and continues with the next frame.
pub struct RecordReader<R: Read> {
    reader: R,
    /// The frame being decoded, reused across frames.
    payload: Vec<u8>,
    done: bool,
}

impl<R: Read> RecordReader<R> {
    /// Wraps a byte stream.
    pub fn new(reader: R) -> Self {
        RecordReader {
            reader,
            payload: Vec::new(),
            done: false,
        }
    }
}

impl<R: Read> Iterator for RecordReader<R> {
    type Item = Result<StreamRecord, RecordError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match read_frame_into(&mut self.reader, MAX_RECORD_PAYLOAD, &mut self.payload) {
            Ok(true) => Some(StreamRecord::decode_payload(&self.payload)),
            Ok(false) => {
                self.done = true;
                None
            }
            Err(e) => {
                // Past a bad CRC the length prefix was sound, so the next
                // frame starts where this one ended; past anything else
                // the framing can no longer be trusted.
                self.done = !matches!(e, FrameError::BadCrc { .. });
                Some(Err(e.into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: u32, seq: u64, fixes: &[(f64, f64, f64)]) -> StreamRecord {
        StreamRecord {
            source,
            seq,
            trace: GpsTrace::new(
                fixes
                    .iter()
                    .map(|&(x, y, t)| GpsPoint::new(Point::new(x, y), t))
                    .collect(),
            ),
        }
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records = vec![
            record(1, 0, &[(0.0, 0.0, 0.0), (10.0, 5.0, 2.0)]),
            record(2, 7, &[(3.5, -1.25, 100.0)]),
            record(1, 1, &[]),
        ];
        let mut bytes = Vec::new();
        for r in &records {
            r.write_to(&mut bytes).unwrap();
        }
        let decoded: Vec<StreamRecord> =
            RecordReader::new(&bytes[..]).map(|r| r.unwrap()).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn encoding_is_deterministic() {
        let r = record(9, 42, &[(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)]);
        assert_eq!(r.encode_frame(), r.encode_frame());
    }

    #[test]
    fn corrupt_byte_is_detected_and_reader_resyncs() {
        let a = record(1, 0, &[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]);
        let b = record(1, 1, &[(2.0, 2.0, 2.0)]);
        let mut bytes = Vec::new();
        a.write_to(&mut bytes).unwrap();
        b.write_to(&mut bytes).unwrap();
        // Flip a payload byte of the first frame.
        bytes[12] ^= 0xFF;
        let results: Vec<_> = RecordReader::new(&bytes[..]).collect();
        assert_eq!(results.len(), 2);
        assert!(matches!(results[0], Err(RecordError::BadCrc { .. })));
        assert_eq!(results[1].as_ref().unwrap(), &b);
    }

    #[test]
    fn truncated_tail_is_an_error_not_a_panic() {
        let r = record(1, 0, &[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]);
        let mut bytes = Vec::new();
        r.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        let results: Vec<_> = RecordReader::new(&bytes[..]).collect();
        assert_eq!(results, vec![Err(RecordError::Truncated)]);
    }

    #[test]
    fn invalid_payloads_are_rejected() {
        // Non-monotone timestamps, built by hand (GpsTrace::new would
        // panic on this input — decoding must not).
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 2);
        for &(x, y, t) in &[(0.0, 0.0, 5.0), (1.0, 1.0, 4.0)] {
            put_f64(&mut payload, x);
            put_f64(&mut payload, y);
            put_f64(&mut payload, t);
        }
        assert_eq!(
            StreamRecord::decode_payload(&payload),
            Err(RecordError::Malformed("timestamps not non-decreasing"))
        );

        // Non-finite coordinate.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 1);
        put_f64(&mut payload, f64::NAN);
        put_f64(&mut payload, 0.0);
        put_f64(&mut payload, 0.0);
        assert_eq!(
            StreamRecord::decode_payload(&payload),
            Err(RecordError::Malformed("non-finite coordinate or time"))
        );

        // Fix count lying about the payload length.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 99);
        assert_eq!(
            StreamRecord::decode_payload(&payload),
            Err(RecordError::Malformed("fix count disagrees with length"))
        );
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, (MAX_RECORD_PAYLOAD + 1) as u32);
        put_u32(&mut bytes, 0);
        let results: Vec<_> = RecordReader::new(&bytes[..]).collect();
        assert_eq!(
            results,
            vec![Err(RecordError::TooLarge(MAX_RECORD_PAYLOAD + 1))]
        );
    }
}
