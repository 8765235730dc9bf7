//! Centralized wire limits for every framed endpoint.
//!
//! Each framed format in the workspace — GPS records, WAL segments, the
//! telemetry endpoint and the shard-server protocol — reads its frames
//! through [`crate::framing::read_frame_into`] (the telemetry endpoint
//! through [`crate::framing::read_frame`], its `io::Result` form) with a
//! `max_len` cap, refused as a typed `TooLarge` before any allocation
//! ([`crate::framing::FrameError`]). Those caps
//! used to be per-endpoint magic numbers; this module is the single place
//! they live, so the relationships between them (a shard response must
//! never exceed what the router will read, a command frame is always tiny)
//! are stated once and tested once.
//!
//! Endpoints re-export the constant they bound themselves with, so
//! call-site code keeps reading naturally (`MAX_TELEMETRY_FRAME`) while
//! the value has exactly one definition.

/// Absolute ceiling on any frame in the system. Nothing — not even a WAL
/// batch — may exceed this; every other limit below is `<=` it.
pub const MAX_FRAME: usize = 16 << 20;

/// Largest WAL batch payload (the biggest frames in the system: a full
/// routed update batch plus headers).
pub const MAX_BATCH_FRAME: usize = MAX_FRAME;

/// Largest telemetry **response** frame (metrics history dumps, slow-query
/// span logs).
pub(crate) const MAX_TELEMETRY_FRAME: usize = 4 << 20;

/// Largest telemetry **command** frame (`metrics`, `stages`, ...). Tiny
/// by design: a peer that sends a large "command" is broken or hostile,
/// and the endpoint drops it before buffering.
pub(crate) const MAX_COMMAND_FRAME: usize = 1_024;

/// Largest ingest GPS record payload.
pub const MAX_RECORD_FRAME: usize = 1 << 20;

/// Largest shard-protocol **request** frame (`Apply` with a full routed
/// update batch is the biggest request).
pub(crate) const MAX_SHARD_REQUEST: usize = 8 << 20;

/// Largest shard-protocol **response** frame (a `Round1Ok` carrying
/// up to [`MAX_WIRE_CANDIDATES`] candidate rows with coverage).
pub const MAX_SHARD_RESPONSE: usize = 8 << 20;

/// Largest data slice one `ResyncChunk` may carry. A corpus-snapshot
/// transfer (replica catch-up) is chunked at this size so every chunk —
/// plus its fixed header — stays comfortably under
/// [`MAX_SHARD_RESPONSE`]; a decoder seeing a larger chunk length
/// rejects the frame instead of allocating.
pub(crate) const MAX_RESYNC_CHUNK: usize = 1 << 20;

/// Largest complete corpus-snapshot blob a resync client will assemble.
/// A server advertising a larger `total_len` is broken or hostile, and
/// the client aborts the transfer instead of buffering without bound.
pub(crate) const MAX_RESYNC_BLOB: usize = 256 << 20;

/// Most candidate rows a single `Round1Ok` may carry. Round 1
/// returns at most `k` candidates per shard; `k` beyond this bound is a
/// malformed request, and a decoder seeing a larger count rejects the
/// frame instead of allocating.
pub const MAX_WIRE_CANDIDATES: usize = 4_096;

// The limits form the lattice the endpoints assume: commands are the
// smallest frames, every endpoint cap fits under the absolute ceiling,
// and shard responses fit in what the router-side client reads. Checked
// at compile time — a reordering is a build error, not a test failure.
const _: () = {
    assert!(MAX_COMMAND_FRAME <= MAX_RECORD_FRAME);
    assert!(MAX_RECORD_FRAME <= MAX_TELEMETRY_FRAME);
    assert!(MAX_TELEMETRY_FRAME <= MAX_FRAME);
    assert!(MAX_SHARD_REQUEST <= MAX_FRAME);
    assert!(MAX_SHARD_RESPONSE <= MAX_FRAME);
    assert!(MAX_BATCH_FRAME <= MAX_FRAME);
    // A max-candidate response must plausibly fit the response cap: even
    // at ~1 KiB of coverage rows per candidate there is room.
    assert!(MAX_WIRE_CANDIDATES * 1024 <= MAX_SHARD_RESPONSE);
    // A full resync chunk plus its header fits the response cap with an
    // order of magnitude to spare.
    assert!(MAX_RESYNC_CHUNK * 2 <= MAX_SHARD_RESPONSE);
    // A resync transfer is chunked, so the blob ceiling sits above the
    // chunk size (many chunks per blob) without any frame obligation.
    assert!(MAX_RESYNC_CHUNK <= MAX_RESYNC_BLOB);
};
