//! Length-prefixed, CRC-guarded byte framing: the only code that writes
//! or parses a frame header, under every framed format — GPS records and
//! WAL segments (`netclus-ingest`), shard RPCs
//! ([`shard_proto`](crate::shard_proto)) and the
//! [`telemetry`](crate::telemetry) endpoint.
//!
//! A frame is `len: u32 LE | crc: u32 LE | payload[len]` with `crc` the
//! CRC-32 (IEEE) of the payload. Every frame is written by [`frame_into`]
//! or [`write_frame`] and read by [`read_frame_into`] (or [`read_frame`],
//! its `io::Result` form); a reader that holds the header bytes itself
//! decodes them with [`FrameHeader::decode`]. A read fails as one typed
//! [`FrameError`] — truncated, too large, or a CRC mismatch carrying both
//! values — which each format maps onto its own error type, so a
//! corrupted or torn frame is refused before its payload is ever
//! interpreted. The CRC is hand-rolled because the workspace is
//! dependency-free; the table is computed at compile time.

use std::fmt;
use std::io::{self, Read, Write};

/// Slicing-by-8 tables: `TABLES[0]` is the classic one-byte table and
/// `TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte folded into the running (pre-inverted) state.
#[inline]
fn crc_step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 of `data` (IEEE reflected form, initial/final XOR `!0`).
///
/// Eight bytes a step (slicing-by-8); the value is that of the bytewise
/// loop for every input, so frames, WAL segments and record streams
/// written before the kernel changed still verify.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = crc_step(c, b);
    }
    !c
}

/// Bytes of the `len | crc` header in front of every payload.
pub const HEADER_BYTES: usize = 8;

/// Why a frame could not be read. A clean end of input at a frame
/// boundary is not an error: the readers return it as `Ok(false)` /
/// `Ok(None)`.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed (a socket timeout stays one).
    Io(io::Error),
    /// The input ended inside the header or the payload.
    Truncated,
    /// The length prefix exceeds the reader's cap; nothing was allocated.
    TooLarge(usize),
    /// The payload does not match the checksum stored in its header.
    BadCrc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameError::Truncated => f.write_str("input ended inside a frame"),
            FrameError::TooLarge(len) => write!(f, "frame of {len} bytes exceeds the limit"),
            FrameError::BadCrc { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// For the endpoints that speak `io::Result`: a truncation is
/// `UnexpectedEof`, an oversized or corrupt frame `InvalidData`.
impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => e,
            FrameError::Truncated => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            _ => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// A decoded frame header: the payload's length and stored checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload bytes that follow the header.
    pub len: usize,
    /// CRC-32 the writer stored for the payload.
    pub crc: u32,
}

impl FrameHeader {
    /// The header bytes in front of `payload`.
    fn encode(payload: &[u8]) -> io::Result<[u8; HEADER_BYTES]> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
        let mut header = [0u8; HEADER_BYTES];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        Ok(header)
    }

    /// Decodes the eight header bytes, refusing a length past `max_len`
    /// before anything is allocated for it.
    pub fn decode(bytes: &[u8; HEADER_BYTES], max_len: usize) -> Result<FrameHeader, FrameError> {
        let [l0, l1, l2, l3, c0, c1, c2, c3] = *bytes;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > max_len {
            return Err(FrameError::TooLarge(len));
        }
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        Ok(FrameHeader { len, crc })
    }

    /// Checks `payload` against the stored checksum.
    pub fn verify(&self, payload: &[u8]) -> Result<(), FrameError> {
        let computed = crc32(payload);
        if computed != self.crc {
            return Err(FrameError::BadCrc {
                stored: self.crc,
                computed,
            });
        }
        Ok(())
    }
}

/// Writes one `len | crc | payload` frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&FrameHeader::encode(payload)?)?;
    w.write_all(payload)
}

/// Builds one whole frame in `buf` (cleared first): the header's eight
/// bytes are reserved, `encode` appends the payload behind them, then the
/// length and CRC are patched in — so a message is encoded once, into the
/// buffer it leaves from, and the frame goes out as a single write.
pub fn frame_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0u8; HEADER_BYTES]);
    encode(buf);
    let header = FrameHeader::encode(&buf[HEADER_BYTES..])?;
    buf[..HEADER_BYTES].copy_from_slice(&header);
    Ok(())
}

/// Reads one frame into `payload` (a caller-owned buffer, reused across
/// frames) and verifies its CRC: `Ok(true)` leaves the verified payload
/// there, `Ok(false)` is a clean end of input before any header byte.
/// Every format reads its frames here — a socket, a record stream, or a
/// WAL segment's bytes as a `&[u8]`, whose advance is the frame's extent.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_len: usize,
    payload: &mut Vec<u8>,
) -> Result<bool, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    match fill(r, &mut header)? {
        0 => return Ok(false),
        HEADER_BYTES => {}
        _ => return Err(FrameError::Truncated),
    }
    let header = FrameHeader::decode(&header, max_len)?;
    // Only growth is zero-filled: `fill` overwrites all `len` bytes or the
    // frame is refused, and a refused frame's buffer is never looked at.
    payload.resize(header.len, 0);
    if fill(r, payload)? < header.len {
        return Err(FrameError::Truncated);
    }
    header.verify(payload)?;
    Ok(true)
}

/// [`read_frame_into`] for the endpoints that speak `io::Result`, into a
/// fresh buffer; `Ok(None)` is the clean end of input.
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max_len, &mut payload)?.then_some(payload))
}

/// Reads until `buf` is full or the input ends; returns the bytes read.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, RngExt, SeedableRng};
    use std::io::Cursor;

    /// The one-table, one-byte-a-step loop the slicing kernel replaced:
    /// the reference it must equal on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| crc_step(c, b))
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(len + 8);
        while buf.len() < len {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        buf.truncate(len);
        buf
    }

    #[test]
    fn slicing_kernel_equals_the_bytewise_reference() {
        let mut rng = StdRng::seed_from_u64(22);
        // Every length around the 8-byte step and the 256-byte table, at
        // every alignment of the first byte.
        let buf = random_bytes(&mut rng, 8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
        // Frame-sized inputs: a shard reply is ~52 kB, a resync chunk 1 MiB.
        let big = random_bytes(&mut rng, 1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        for _ in 0..32 {
            let len = rng.random_range(0..=big.len());
            let start = rng.random_range(0..=big.len() - len);
            let data = &big[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
        }
    }

    #[test]
    fn frame_into_writes_the_bytes_of_write_frame() {
        let mut buf = vec![0xAA; 3]; // stale bytes of a previous frame
        for payload in [&b""[..], b"x", b"hello frame"] {
            frame_into(&mut buf, |b| b.extend_from_slice(payload)).unwrap();
            let mut want = Vec::new();
            write_frame(&mut want, payload).unwrap();
            assert_eq!(buf, want);
        }
    }

    #[test]
    fn read_frame_into_reuses_the_buffer() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"a longer first payload").unwrap();
        write_frame(&mut stream, b"short").unwrap();
        let mut r = Cursor::new(stream);
        let mut payload = Vec::new();
        assert!(read_frame_into(&mut r, 64, &mut payload).unwrap());
        assert_eq!(payload, b"a longer first payload");
        assert!(read_frame_into(&mut r, 64, &mut payload).unwrap());
        assert_eq!(payload, b"short", "no bytes of the previous frame remain");
        assert!(!read_frame_into(&mut r, 64, &mut payload).unwrap());
    }

    /// Each way a read can end is its own outcome, and the CRC mismatch
    /// carries both values.
    #[test]
    fn every_read_outcome_is_typed() {
        let mut frame = Vec::new();
        write_frame(&mut frame, b"typed").unwrap();
        let read = |bytes: &[u8], max_len| {
            let mut payload = Vec::new();
            read_frame_into(&mut &bytes[..], max_len, &mut payload)
        };
        assert!(read(&frame, 64).unwrap());
        assert!(!read(&[], 64).unwrap(), "clean end");
        for cut in 1..frame.len() {
            assert!(matches!(
                read(&frame[..cut], 64),
                Err(FrameError::Truncated)
            ));
        }
        assert!(matches!(read(&frame, 4), Err(FrameError::TooLarge(5))));
        let mut bad = frame.clone();
        bad[HEADER_BYTES] ^= 1;
        match read(&bad, 64) {
            Err(FrameError::BadCrc { stored, computed }) => {
                assert_eq!(stored, crc32(b"typed"));
                assert_eq!(computed, crc32(&bad[HEADER_BYTES..]));
            }
            other => panic!("expected a CRC mismatch, got {other:?}"),
        }
        let header = FrameHeader::decode(frame[..HEADER_BYTES].try_into().unwrap(), 64).unwrap();
        assert_eq!((header.len, header.crc), (5, crc32(b"typed")));
    }

    #[test]
    fn known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"netclus wal frame payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8u8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, 64).unwrap().unwrap(), b"world");
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(buf), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_header_and_oversize_are_errors() {
        let err = read_frame(&mut Cursor::new(vec![1, 2, 3]), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 128]).unwrap();
        let err = read_frame(&mut Cursor::new(buf), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
