//! The little-endian field codec under every byte format in the
//! workspace: shard RPCs and resync blobs (`netclus_service::shard_proto`,
//! the round-1 rows in [`crate::shard`]), GPS records and WAL batches
//! (`netclus_ingest`). Writers append fixed-width little-endian fields,
//! floats as IEEE-754 bits; [`WireReader`] reads them back bounds-checked.
//!
//! A count read off the wire is believed only as far as the bytes left
//! can back it ([`WireReader::count`]), so a decoder allocates in
//! proportion to its input, never to a number a forged prefix claims.

use netclus_roadnet::NodeId;
use netclus_trajectory::Trajectory;

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bits.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a trajectory as a count-prefixed node list: `n: u32 | n × u32`.
pub fn put_trajectory(buf: &mut Vec<u8>, t: &Trajectory) {
    put_u32(buf, t.nodes().len() as u32);
    for v in t.nodes() {
        put_u32(buf, v.0);
    }
}

/// Typed decode failure of the field codec: the payload was truncated,
/// carried a count it cannot back, or an empty node list
/// ([`EMPTY_TRAJECTORY`]). CRC framing catches random corruption before
/// decode; this layer guarantees that whatever still reaches it fails
/// closed instead of panicking or over-allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCodecError(pub &'static str);

/// What [`WireReader::trajectory`] refuses a zero-length node list with —
/// the one failure that is a forbidden value rather than a short payload.
pub const EMPTY_TRAJECTORY: ShardCodecError = ShardCodecError("empty trajectory");

impl std::fmt::Display for ShardCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode: {}", self.0)
    }
}

impl std::error::Error for ShardCodecError {}

/// Bounds-checked little-endian cursor over a received payload. All reads
/// return [`ShardCodecError`] past the end — decoding never indexes out of
/// bounds and never panics.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShardCodecError> {
        if self.remaining() < n {
            return Err(ShardCodecError("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ShardCodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ShardCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ShardCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its little-endian bits.
    pub fn f64(&mut self) -> Result<f64, ShardCodecError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ShardCodecError> {
        self.take(n)
    }

    /// Reads a `u32` count of items encoded in at least `unit` bytes each.
    /// A count the bytes left cannot hold is refused as
    /// `ShardCodecError(what)`, so the caller may allocate for it.
    pub fn count(&mut self, unit: usize, what: &'static str) -> Result<usize, ShardCodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / unit {
            return Err(ShardCodecError(what));
        }
        Ok(n)
    }

    /// Reads a count-prefixed node list written by [`put_trajectory`]: a
    /// non-empty list ([`EMPTY_TRAJECTORY`] otherwise — `Trajectory::new`
    /// would panic) whose count the bytes left can hold.
    pub fn trajectory(&mut self) -> Result<Trajectory, ShardCodecError> {
        let n = self.count(4, "trajectory nodes")?;
        if n == 0 {
            return Err(EMPTY_TRAJECTORY);
        }
        let ids = self.take(4 * n)?.chunks_exact(4);
        Ok(Trajectory::new(
            ids.map(|c| NodeId(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_bounds() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -2.5);
        buf.push(9);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-2.5f64).to_bits()));
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(ShardCodecError("truncated payload")));
    }

    #[test]
    fn node_lists_roundtrip_and_refuse_empty_and_unbacked_counts() {
        let t = Trajectory::new(vec![NodeId(3), NodeId(1), NodeId(4)]);
        let mut buf = Vec::new();
        put_trajectory(&mut buf, &t);
        assert_eq!(buf.len(), 4 + 3 * 4);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.trajectory(), Ok(t));
        assert_eq!(r.remaining(), 0);

        let empty = 0u32.to_le_bytes();
        assert_eq!(WireReader::new(&empty).trajectory(), Err(EMPTY_TRAJECTORY));
        for cut in 0..buf.len() {
            let got = WireReader::new(&buf[..cut]).trajectory();
            assert!(got.is_err() && got != Err(EMPTY_TRAJECTORY), "cut {cut}");
        }
        let mut forged = buf.clone();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            WireReader::new(&forged).trajectory(),
            Err(ShardCodecError("trajectory nodes"))
        );
    }
}
