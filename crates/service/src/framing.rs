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
//! interpreted.
//!
//! The CRC is hand-rolled because the workspace is dependency-free, and
//! has two kernels behind one [`crc32`]. On x86_64 a payload of 64 bytes
//! or more whose CPU reports PCLMULQDQ (detected at run time) is folded
//! by carry-less multiplication, 64 bytes a step; everything else —
//! shorter payloads, the fold's last < 16 bytes, other CPUs and
//! architectures — runs a slicing-by-8 table kernel whose tables are
//! computed at compile time. Both return the bytewise loop's value for
//! every input, so the choice moves no byte on disk or on the wire.

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
/// From 64 bytes on, a CPU with PCLMULQDQ folds the payload by
/// carry-less multiplication; below that, or without the instruction,
/// the slicing-by-8 kernel runs. Either way the value is that of the
/// bytewise loop, so frames, WAL segments and record streams written
/// before a kernel changed still verify.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `is_x86_feature_detected!` just reported PCLMULQDQ, the
        // only feature the kernel enables beyond the x86_64 baseline.
        #[allow(unsafe_code)]
        return !unsafe { clmul::fold(!0, data) };
    }
    !slicing(!0, data)
}

/// Folds `data` into the running (pre-inverted) state eight bytes a
/// step, with the bytewise loop for the last < 8.
fn slicing(mut c: u32, data: &[u8]) -> u32 {
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
    chunks.remainder().iter().fold(c, |c, &b| crc_step(c, b))
}

/// The carry-less-multiply kernel: Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
/// in its bit-reflected form. Four 128-bit accumulators fold 64 bytes a
/// step, then one folds 16 bytes a step; the 128-bit remainder is
/// reduced to 64 bits and Barrett-reduced to the 32-bit state, and the
/// last < 16 bytes go to [`slicing`].
///
/// Every helper is an `unsafe fn` with `target_feature` so its body is
/// an unsafe context on every supported toolchain, including those where
/// the intrinsics themselves are not yet safe to call.
#[cfg(target_arch = "x86_64")]
// SAFETY: each `unsafe fn` here needs only PCLMULQDQ (SSE2 is x86_64's
// baseline), and its one caller, `crc32`, enters `fold` only after
// `is_x86_feature_detected!("pclmulqdq")` holds.
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// x^(4·128±32) mod P, bit-reflected: the 64-byte fold.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128±32) mod P, bit-reflected: the 16-byte fold and the
    /// 128 → 96-bit step of the reduction.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P, bit-reflected: the 96 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P' and Barrett's μ = ⌊x^64 / P⌋, both reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Folds `data` (at least 64 bytes) into the running (pre-inverted)
    /// state; the value is that of [`slicing`](super::slicing) on the
    /// same arguments.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        let (head, rest) = data.split_at(64);
        let mut acc = [
            load(&head[..16]),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (a, lane) in acc.iter_mut().zip(block.chunks_exact(16)) {
                *a = fold_into(*a, load(lane), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(acc[0], acc[1], k3k4);
        x = fold_into(x, acc[2], k3k4);
        x = fold_into(x, acc[3], k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in &mut lanes {
            x = fold_into(x, load(lane), k3k4);
        }
        super::slicing(reduce(x, k3k4), lanes.remainder())
    }

    /// `a` carried 128 (or 512) bits forward by `keys`, plus `b`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The 128-bit remainder `x` reduced to the 32-bit state: 128 → 96
    /// bits with K4, 96 → 64 with K5, then Barrett's two multiplications.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn reduce(x: __m128i, k3k4: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
    }

    /// Sixteen bytes as one lane, little-endian.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(bytes: &[u8]) -> __m128i {
        let (lo, hi) = bytes.split_at(8);
        let half = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("a lane is 2 × 8 bytes"));
        _mm_set_epi64x(half(hi), half(lo))
    }
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

    /// The one-table, one-byte-a-step loop both kernels replaced: the
    /// reference they must equal on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !bytewise(!0, data)
    }

    fn bytewise(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |c, &b| crc_step(c, b))
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(len + 8);
        while buf.len() < len {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        buf.truncate(len);
        buf
    }

    /// The slicing kernel called directly, from arbitrary running states:
    /// on a CPU with PCLMULQDQ `crc32` hands it only inputs under 64
    /// bytes and the fold's tails, so the dispatch alone would hide it.
    #[test]
    fn slicing_kernel_equals_the_bytewise_reference() {
        let mut rng = StdRng::seed_from_u64(22);
        // Every length around the 8-byte step and the 256-byte table, at
        // every alignment of the first byte.
        let buf = random_bytes(&mut rng, 8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                let state = rng.next_u32();
                assert_eq!(
                    slicing(state, data),
                    bytewise(state, data),
                    "start {start} len {len} state {state:#010x}"
                );
            }
        }
        let big = random_bytes(&mut rng, 1 << 16);
        assert_eq!(slicing(!0, &big), bytewise(!0, &big));
    }

    /// `crc32` — the carry-less fold where the CPU has it, the slicing
    /// kernel otherwise — on both sides of every boundary: under 64
    /// bytes, the 64-byte loop, the 16-byte loop and every 1–15-byte tail,
    /// at every alignment of the first byte.
    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let mut rng = StdRng::seed_from_u64(30);
        let buf = random_bytes(&mut rng, 16 + 1_100);
        for start in 0..16 {
            let mut state = !0u32;
            for len in 0..=1_100 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), !state, "start {start} len {len}");
                state = crc_step(state, buf[start + len]);
            }
        }
        // Frame-sized inputs: a shard reply is 64–73 kB, a resync chunk
        // 1 MiB.
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
        // Past the fold's 64-byte threshold: bytes 0..=255, valued by the
        // bytewise loop.
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32_bytewise(&ramp), 0x2905_8C73);
        assert_eq!(crc32(&ramp), 0x2905_8C73);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut rng = StdRng::seed_from_u64(30);
        // Under and over the fold's 64-byte threshold.
        for data in [
            b"netclus wal frame payload".to_vec(),
            random_bytes(&mut rng, 300),
        ] {
            let base = crc32(&data);
            for byte in 0..data.len() {
                for bit in 0..8u8 {
                    let mut flipped = data.clone();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
                }
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
