//! The shard-server wire protocol: framed request/response messages
//! between a [`crate::shard_router::ShardRouter`] (remote transport) and
//! a `netclus-shardd` shard server.
//!
//! Every message travels as one length-prefixed, CRC-32-framed payload,
//! written by [`crate::framing::frame_into`] and read by
//! [`crate::framing::read_frame_into`] — the same writer and reader GPS
//! records, WAL segments and the telemetry endpoint go through. Fields are
//! the little-endian codec of [`netclus::codec`], which the WAL and GPS
//! records share; a count-prefixed node list (an `Apply` add op, a
//! [`ResyncSnapshot`] trajectory, like a WAL add op) is written by
//! [`netclus::codec::put_trajectory`] and read by
//! [`WireReader::trajectory`]:
//!
//! | bytes | field |
//! |-------|-------------------------------------------|
//! | 4     | payload length, `u32` LE                  |
//! | 4     | CRC-32 (IEEE) of the payload, `u32` LE    |
//! | n     | payload: `tag: u8` + body, LE fixed-width |
//!
//! Requests are bounded at `crate::wire::MAX_SHARD_REQUEST` bytes and
//! responses at [`crate::wire::MAX_SHARD_RESPONSE`]; a `Round1Ok`
//! carries at most [`crate::wire::MAX_WIRE_CANDIDATES`] candidate rows
//! (encoded by the bit-exact codec in [`netclus::shard`]). Floats cross
//! the wire as IEEE-754 bits, so a remote round-1 answer merges into
//! **bit-identical** top-k results.
//!
//! A `Round1Ok` body is `epoch: u64 | bound: u64 | source: u8` and then
//! the round ([`ShardRoundOne::encode_into`], the row layout since
//! protocol version 2):
//!
//! | bytes        | field |
//! |--------------|--------------------------------------------------|
//! | 4            | candidate count `n`, `u32`                       |
//! | per candidate| `node: u32`, `cluster: u32`, `gain: f64` bits, `len: u32`, then the row: `len × u32` trajectory ids followed by `len × f64` detours |
//! | 52           | `k`, instance, representatives, local utility bits, elapsed ns, solve µs (`u64` each), shard hint `u32` |
//!
//! A row is an id run and a detour run — the structure-of-arrays shape it
//! has in the shard's arena, in the round's shared block on both ends and
//! in the merge's arena — so encode and decode are two bulk copies per
//! row, not a loop over pairs. A message is encoded by `encode_into`
//! straight into the connection buffer its frame leaves from
//! (`framing::frame_into` reserves the header and patches length and CRC
//! in afterwards) and a reply is read into a buffer the connection keeps.
//!
//! The decoder is paranoid by construction: every length prefix is
//! validated against the remaining payload *before* allocation
//! ([`WireReader::count`]), unknown tags and trailing bytes are
//! rejected, and every failure is a typed [`WireError`] — never a panic,
//! never an unbounded allocation. CRC
//! framing rejects random corruption one layer below; this layer
//! guarantees whatever still reaches it fails closed (proptested in
//! `crates/service/tests/cluster.rs`: any truncation/corruption of a
//! valid frame decodes to a typed error).
//!
//! The message set is what the router and `netclus-shardd` send: a
//! versioned `Hello` handshake that fails fast on protocol skew, `Round1`
//! (the scatter RPC: shard, `k`, τ and ψ), `Apply` (epoch-lockstep routed
//! updates with per-op acks), `Resync` (chunked replica catch-up) and
//! `Shutdown` (graceful stop). Every field a reply carries has a reader
//! on the client side. A shard's metrics are not on this wire: they are
//! [`crate::ShardServer::metrics_json`] in process and the telemetry port
//! `netclus-shardd --telemetry` announces.

use netclus::codec::{put_trajectory, put_u32, put_u64, EMPTY_TRAJECTORY};
use netclus::preference::PreferenceFunction;
use netclus::shard::{ShardCodecError, ShardRoundOne, WireReader};
use netclus::TopsQuery;
use netclus_roadnet::NodeId;
use netclus_trajectory::{TrajId, Trajectory};

use crate::cache::preference_key;
use crate::snapshot::{RoutedOp, Snapshot};
use crate::trace::Round1Source;
use crate::wire::{MAX_RESYNC_CHUNK, MAX_SHARD_REQUEST, MAX_WIRE_CANDIDATES};

/// Protocol version spoken by this build. A `Hello` carrying any other
/// version is answered with [`RespError::VersionSkew`] and the connection
/// is closed — skew is a deploy-ordering bug, not something to limp
/// through.
///
/// Version 2 changed the layout of a coverage row inside `Round1Ok` from
/// interleaved `(id, detour)` pairs to an id run followed by a detour run
/// (see [`ShardRoundOne::encode_into`]). Version 3 removed what no peer
/// read: the `Report`/`Heartbeat` requests and their replies (tags 3 and
/// 4 are unassigned and decode to [`WireError::BadTag`]), `Round1`'s
/// epoch hint and solver selector, and `ApplyAck`'s live count — a
/// `Round1` payload is 30 bytes instead of 39.
pub const SHARD_PROTOCOL_VERSION: u32 = 3;

/// Typed decode failure of a shard-protocol payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did, or a length prefix
    /// exceeds what the payload can hold.
    Truncated(&'static str),
    /// An unknown message or error tag.
    BadTag(u8),
    /// A field value the protocol forbids (empty trajectory, oversized
    /// count, malformed UTF-8).
    BadValue(&'static str),
    /// Bytes remained after the message was fully decoded.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated payload: {what}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadValue(what) => write!(f, "invalid field: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A short payload or an unbacked count is `Truncated`; an empty node
/// list is a forbidden value.
impl From<ShardCodecError> for WireError {
    fn from(e: ShardCodecError) -> Self {
        if e == EMPTY_TRAJECTORY {
            WireError::BadValue(e.0)
        } else {
            WireError::Truncated(e.0)
        }
    }
}

/// A request frame, router → shard server.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Versioned handshake. The transport opens every connection with
    /// it; the server answers any request kind on any connection.
    Hello {
        /// Sender's [`SHARD_PROTOCOL_VERSION`].
        version: u32,
        /// The shard id the client believes this server owns.
        shard: u32,
    },
    /// The scatter RPC: one shard's round-1 local greedy.
    Round1 {
        /// Shard id (must match the server's; a mismatch is a routing
        /// bug answered with [`RespError::BadRequest`]).
        shard: u32,
        /// Sites requested.
        k: u64,
        /// Query τ as IEEE-754 bits (already quantized by the router).
        tau_bits: u64,
        /// ψ tag (see `crate::cache::preference_key`).
        psi_tag: u8,
        /// ψ parameter bits.
        psi_param: u64,
    },
    /// Epoch-lockstep routed update batch.
    Apply {
        /// Routed ops in batch order.
        ops: Vec<RoutedOp>,
    },
    /// One chunk of a corpus-snapshot transfer (replica catch-up). The
    /// first request (`offset == 0`) pins the server's current snapshot
    /// for this connection; subsequent offsets read the pinned blob, so
    /// a transfer is consistent even while updates keep publishing.
    Resync {
        /// Shard id (must match the server's).
        shard: u32,
        /// Byte offset into the encoded [`ResyncSnapshot`] blob.
        offset: u64,
    },
    /// Graceful stop: the server acks, dumps its flight recorder, and
    /// exits its accept loop.
    Shutdown,
}

/// A response frame, shard server → router.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloAck {
        /// Server's protocol version (== [`SHARD_PROTOCOL_VERSION`]).
        version: u32,
        /// The shard this server owns.
        shard: u32,
        /// Current snapshot epoch.
        epoch: u64,
        /// The server's trajectory id bound (routers take the max across
        /// shards to seed global id assignment).
        traj_id_bound: u64,
        /// Live trajectories on this shard (seeds the router's
        /// replication gauge for degraded-merge mass estimates).
        live_trajs: u64,
    },
    /// Round-1 answer with candidate coverage rows.
    Round1Ok {
        /// Epoch the answer was computed against.
        epoch: u64,
        /// The shard snapshot's trajectory id bound (the merge arena is
        /// sized by the max across shards).
        bound: u64,
        /// Which cache lane served the round (memo/provider/built/...).
        source: Round1Source,
        /// The candidates, bit-exact.
        round: ShardRoundOne,
    },
    /// Update batch applied and published.
    ApplyAck {
        /// The epoch the batch published.
        epoch: u64,
        /// Per-op outcome in batch order (`true` = applied).
        results: Vec<bool>,
    },
    /// Shutdown acknowledged; the server exits after this frame.
    ShutdownAck,
    /// One chunk of the pinned resync blob. The transfer is complete when
    /// `offset + data.len() == total_len`; each chunk carries at most
    /// `MAX_RESYNC_CHUNK` bytes so every frame stays under the shard
    /// response cap.
    ResyncChunk {
        /// Epoch of the pinned snapshot being transferred.
        epoch: u64,
        /// Total length of the encoded [`ResyncSnapshot`] blob.
        total_len: u64,
        /// This chunk's bytes (starting at the requested offset).
        data: Vec<u8>,
    },
    /// Typed refusal.
    Error(RespError),
}

/// The corpus state a replica needs to catch up to a healthy sibling's
/// epoch: every live trajectory under its global id, the exact id bound
/// (tombstones included — the round-2 merge arena is sized by it), and
/// the candidate-site set. The receiver rebuilds its [`netclus::NetClusIndex`]
/// from these over the fixed road network, which reproduces the source's
/// index bit-identically (index construction is deterministic in the
/// corpus), and installs the result at `epoch`.
#[derive(Clone, Debug, PartialEq)]
pub struct ResyncSnapshot {
    /// The epoch this state was published under on the source replica.
    pub epoch: u64,
    /// The source's [`netclus_trajectory::TrajectorySet::id_bound`].
    pub id_bound: u64,
    /// Every live trajectory, `(global id, nodes)` in id order.
    pub trajs: Vec<(TrajId, Trajectory)>,
    /// Every candidate site.
    pub sites: Vec<NodeId>,
}

impl ResyncSnapshot {
    /// Captures a shard snapshot's full corpus state: what a healthy
    /// replica serves so a lagging sibling can catch up to its epoch.
    pub fn capture(snap: &Snapshot) -> ResyncSnapshot {
        ResyncSnapshot {
            epoch: snap.epoch(),
            id_bound: snap.trajs().id_bound() as u64,
            trajs: snap.trajs().iter().map(|(id, t)| (id, t.clone())).collect(),
            sites: snap
                .net()
                .nodes()
                .filter(|&v| snap.index().is_site(v))
                .collect(),
        }
    }

    /// Serializes the snapshot into the blob that `Resync` chunks
    /// transfer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.epoch);
        put_u64(&mut buf, self.id_bound);
        put_u32(&mut buf, self.trajs.len() as u32);
        for (id, t) in &self.trajs {
            put_u32(&mut buf, id.0);
            put_trajectory(&mut buf, t);
        }
        put_u32(&mut buf, self.sites.len() as u32);
        for v in &self.sites {
            put_u32(&mut buf, v.0);
        }
        buf
    }

    /// Decodes a transferred blob; every malformed input is a typed
    /// error, lengths are validated before allocation, and trailing bytes
    /// are rejected.
    pub fn decode(payload: &[u8]) -> Result<ResyncSnapshot, WireError> {
        let mut r = WireReader::new(payload);
        let epoch = r.u64()?;
        let id_bound = r.u64()?;
        // Each trajectory is ≥ 12 encoded bytes (id + count + one node).
        let n = r.count(12, "resync trajectory count")?;
        let mut trajs = Vec::with_capacity(n);
        for _ in 0..n {
            trajs.push((TrajId(r.u32()?), r.trajectory()?));
        }
        let n_sites = r.count(4, "resync site count")?;
        let mut sites = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            sites.push(NodeId(r.u32()?));
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(ResyncSnapshot {
            epoch,
            id_bound,
            trajs,
            sites,
        })
    }
}

/// Typed error responses. The remote transport maps each onto the
/// [`crate::fault::ShardFailure`] taxonomy (see the README's
/// failure-mapping table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RespError {
    /// Handshake version mismatch → `ShardFailure::VersionSkew`.
    VersionSkew,
    /// Malformed or mis-routed request → `ShardFailure::CorruptReply`
    /// (the router never sends these; seeing one means the stream is
    /// corrupt or the peer confused).
    BadRequest,
    /// A scripted [`crate::fault::FaultAction::Error`] on the server →
    /// `ShardFailure::Injected`.
    Injected,
}

const REQ_HELLO: u8 = 0;
const REQ_ROUND1: u8 = 1;
const REQ_APPLY: u8 = 2;
// Tags 3 and 4 (`Report`/`Heartbeat` up to version 2) stay unassigned, so
// a stray frame of either kind fails closed as `BadTag`.
const REQ_SHUTDOWN: u8 = 5;
const REQ_RESYNC: u8 = 6;

const RESP_HELLO: u8 = 0;
const RESP_ROUND1: u8 = 1;
const RESP_APPLY: u8 = 2;
const RESP_SHUTDOWN: u8 = 5;
const RESP_RESYNC: u8 = 6;
const RESP_ERROR: u8 = 0xFF;

const OP_ADD_TRAJ: u8 = 0;
const OP_REMOVE_TRAJ: u8 = 1;
const OP_ADD_SITE: u8 = 2;
const OP_REMOVE_SITE: u8 = 3;

/// Builds the `Round1` request for `query` against `shard` — the ψ goes
/// over the wire in its cache-key form, so every layer (result cache,
/// memo, protocol) agrees on ψ identity.
pub fn round1_request(shard: u32, query: &TopsQuery) -> Request {
    let (psi_tag, psi_param) = preference_key(&query.preference);
    Request::Round1 {
        shard,
        k: query.k as u64,
        tau_bits: query.tau.to_bits(),
        psi_tag,
        psi_param,
    }
}

/// Reconstructs the ψ from its wire/cache-key form; `None` for unknown
/// tags (a decoder rejects the request).
pub(crate) fn preference_from_key(tag: u8, param: u64) -> Option<PreferenceFunction> {
    Some(match tag {
        0 => PreferenceFunction::Binary,
        1 => PreferenceFunction::LinearDecay,
        2 => PreferenceFunction::ExponentialDecay {
            lambda: f64::from_bits(param),
        },
        3 => PreferenceFunction::ConvexProbability {
            alpha: f64::from_bits(param),
        },
        4 => PreferenceFunction::MinInconvenience {
            normalizer_m: f64::from_bits(param),
        },
        _ => return None,
    })
}

fn source_tag(s: Round1Source) -> u8 {
    match s {
        Round1Source::Memo => 0,
        Round1Source::ProviderHit => 1,
        Round1Source::Coalesced => 2,
        Round1Source::Built => 3,
        Round1Source::Cold => 4,
    }
}

fn source_from_tag(t: u8) -> Option<Round1Source> {
    Some(match t {
        0 => Round1Source::Memo,
        1 => Round1Source::ProviderHit,
        2 => Round1Source::Coalesced,
        3 => Round1Source::Built,
        4 => Round1Source::Cold,
        _ => return None,
    })
}

fn encode_op(buf: &mut Vec<u8>, op: &RoutedOp) {
    match op {
        RoutedOp::AddTrajectoryAt(id, t) => {
            buf.push(OP_ADD_TRAJ);
            put_u32(buf, id.0);
            put_trajectory(buf, t);
        }
        RoutedOp::RemoveTrajectory(id) => {
            buf.push(OP_REMOVE_TRAJ);
            put_u32(buf, id.0);
        }
        RoutedOp::AddSite(v) => {
            buf.push(OP_ADD_SITE);
            put_u32(buf, v.0);
        }
        RoutedOp::RemoveSite(v) => {
            buf.push(OP_REMOVE_SITE);
            put_u32(buf, v.0);
        }
    }
}

fn decode_op(r: &mut WireReader<'_>) -> Result<RoutedOp, WireError> {
    Ok(match r.u8()? {
        OP_ADD_TRAJ => RoutedOp::AddTrajectoryAt(TrajId(r.u32()?), r.trajectory()?),
        OP_REMOVE_TRAJ => RoutedOp::RemoveTrajectory(TrajId(r.u32()?)),
        OP_ADD_SITE => RoutedOp::AddSite(NodeId(r.u32()?)),
        OP_REMOVE_SITE => RoutedOp::RemoveSite(NodeId(r.u32()?)),
        t => return Err(WireError::BadTag(t)),
    })
}

impl Request {
    /// Serializes the request into a fresh payload (to be framed by
    /// [`crate::framing::write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the request's payload to `buf` — what a connection calls
    /// with the buffer the frame leaves from.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        match self {
            Request::Hello { version, shard } => {
                buf.push(REQ_HELLO);
                put_u32(buf, *version);
                put_u32(buf, *shard);
            }
            Request::Round1 {
                shard,
                k,
                tau_bits,
                psi_tag,
                psi_param,
            } => {
                buf.push(REQ_ROUND1);
                put_u32(buf, *shard);
                put_u64(buf, *k);
                put_u64(buf, *tau_bits);
                buf.push(*psi_tag);
                put_u64(buf, *psi_param);
            }
            Request::Apply { ops } => {
                buf.push(REQ_APPLY);
                put_u32(buf, ops.len() as u32);
                for op in ops {
                    encode_op(buf, op);
                }
            }
            Request::Shutdown => buf.push(REQ_SHUTDOWN),
            Request::Resync { shard, offset } => {
                buf.push(REQ_RESYNC);
                put_u32(buf, *shard);
                put_u64(buf, *offset);
            }
        }
        debug_assert!(
            buf.len() - start <= MAX_SHARD_REQUEST,
            "request exceeds wire cap"
        );
    }

    /// Decodes one request payload; every malformed input is a typed
    /// error, and trailing bytes are rejected.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(payload);
        let req = match r.u8()? {
            REQ_HELLO => Request::Hello {
                version: r.u32()?,
                shard: r.u32()?,
            },
            REQ_ROUND1 => Request::Round1 {
                shard: r.u32()?,
                k: r.u64()?,
                tau_bits: r.u64()?,
                psi_tag: r.u8()?,
                psi_param: r.u64()?,
            },
            REQ_APPLY => {
                // Each op is ≥ 5 encoded bytes.
                let n = r.count(5, "op count")?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(decode_op(&mut r)?);
                }
                Request::Apply { ops }
            }
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_RESYNC => Request::Resync {
                shard: r.u32()?,
                offset: r.u64()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(req)
    }
}

impl Response {
    /// Serializes the response into a fresh payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the response's payload to `buf` — what a connection calls
    /// with the buffer the frame leaves from.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::HelloAck {
                version,
                shard,
                epoch,
                traj_id_bound,
                live_trajs,
            } => {
                buf.push(RESP_HELLO);
                put_u32(buf, *version);
                put_u32(buf, *shard);
                put_u64(buf, *epoch);
                put_u64(buf, *traj_id_bound);
                put_u64(buf, *live_trajs);
            }
            Response::Round1Ok {
                epoch,
                bound,
                source,
                round,
            } => {
                buf.push(RESP_ROUND1);
                put_u64(buf, *epoch);
                put_u64(buf, *bound);
                buf.push(source_tag(*source));
                round.encode_into(buf);
            }
            Response::ApplyAck { epoch, results } => {
                buf.push(RESP_APPLY);
                put_u64(buf, *epoch);
                put_u32(buf, results.len() as u32);
                buf.extend(results.iter().map(|&b| b as u8));
            }
            Response::ShutdownAck => buf.push(RESP_SHUTDOWN),
            Response::ResyncChunk {
                epoch,
                total_len,
                data,
            } => {
                buf.push(RESP_RESYNC);
                put_u64(buf, *epoch);
                put_u64(buf, *total_len);
                put_u32(buf, data.len() as u32);
                buf.extend_from_slice(data);
            }
            Response::Error(e) => {
                buf.push(RESP_ERROR);
                buf.push(match e {
                    RespError::VersionSkew => 0,
                    RespError::BadRequest => 1,
                    RespError::Injected => 2,
                });
            }
        }
    }

    /// Decodes one response payload; typed errors only, trailing bytes
    /// rejected, candidate counts capped at
    /// [`crate::wire::MAX_WIRE_CANDIDATES`] before allocation.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = WireReader::new(payload);
        let resp = match r.u8()? {
            RESP_HELLO => Response::HelloAck {
                version: r.u32()?,
                shard: r.u32()?,
                epoch: r.u64()?,
                traj_id_bound: r.u64()?,
                live_trajs: r.u64()?,
            },
            RESP_ROUND1 => {
                let epoch = r.u64()?;
                let bound = r.u64()?;
                let source =
                    source_from_tag(r.u8()?).ok_or(WireError::BadValue("round-1 source"))?;
                let round = ShardRoundOne::decode_from(&mut r, MAX_WIRE_CANDIDATES)?;
                Response::Round1Ok {
                    epoch,
                    bound,
                    source,
                    round,
                }
            }
            RESP_APPLY => {
                let epoch = r.u64()?;
                let n = r.count(1, "apply results")?;
                let results = r.bytes(n)?.iter().map(|&b| b != 0).collect();
                Response::ApplyAck { epoch, results }
            }
            RESP_SHUTDOWN => Response::ShutdownAck,
            RESP_RESYNC => {
                let epoch = r.u64()?;
                let total_len = r.u64()?;
                let n = r.count(1, "resync chunk")?;
                if n > MAX_RESYNC_CHUNK {
                    return Err(WireError::Truncated("resync chunk"));
                }
                let data = r.bytes(n)?.to_vec();
                Response::ResyncChunk {
                    epoch,
                    total_len,
                    data,
                }
            }
            RESP_ERROR => Response::Error(match r.u8()? {
                0 => RespError::VersionSkew,
                1 => RespError::BadRequest,
                2 => RespError::Injected,
                t => return Err(WireError::BadTag(t)),
            }),
            t => return Err(WireError::BadTag(t)),
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::shard::Candidate;
    use std::time::Duration;

    /// Three candidates: a row, an empty row, a longer row.
    fn sample_round() -> ShardRoundOne {
        ShardRoundOne {
            candidates: vec![
                Candidate::from_pairs(NodeId(3), 1, 4.25, vec![(2, 150.0), (5, 600.5)]),
                Candidate::from_pairs(NodeId(8), 1, 0.5, vec![]),
                Candidate::from_pairs(NodeId(4), 2, 0.25, vec![(0, 1.0), (1, 2.5), (7, 9.0)]),
            ],
            k: 3,
            instance: 0,
            representatives: 4,
            local_utility: 5.0,
            elapsed: Duration::from_micros(77),
            solve_us: 41,
            shard_hint: 2,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                version: SHARD_PROTOCOL_VERSION,
                shard: 2,
            },
            round1_request(1, &TopsQuery::binary(4, 1_200.0)),
            Request::Apply {
                ops: vec![
                    RoutedOp::AddTrajectoryAt(
                        TrajId(9),
                        Trajectory::new(vec![NodeId(0), NodeId(1), NodeId(2)]),
                    ),
                    RoutedOp::RemoveTrajectory(TrajId(4)),
                    RoutedOp::AddSite(NodeId(5)),
                    RoutedOp::RemoveSite(NodeId(6)),
                ],
            },
            Request::Shutdown,
            Request::Resync {
                shard: 1,
                offset: 4_096,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloAck {
                version: SHARD_PROTOCOL_VERSION,
                shard: 2,
                epoch: 5,
                traj_id_bound: 120,
                live_trajs: 80,
            },
            Response::Round1Ok {
                epoch: 5,
                bound: 120,
                source: Round1Source::Memo,
                round: sample_round(),
            },
            // A memo hit's shape: the prefix of a longer round.
            Response::Round1Ok {
                epoch: 5,
                bound: 120,
                source: Round1Source::Memo,
                round: sample_round().prefix(1),
            },
            Response::Round1Ok {
                epoch: 0,
                bound: 0,
                source: Round1Source::Cold,
                round: sample_round().prefix(0),
            },
            Response::ApplyAck {
                epoch: 6,
                results: vec![true, false, true],
            },
            Response::ShutdownAck,
            Response::ResyncChunk {
                epoch: 6,
                total_len: 10,
                data: vec![1, 2, 3, 4],
            },
            Response::Error(RespError::VersionSkew),
            Response::Error(RespError::BadRequest),
            Response::Error(RespError::Injected),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let got = Request::decode(&req.encode()).expect("decode");
            assert_eq!(got, req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let got = Response::decode(&resp.encode()).expect("decode");
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn every_truncation_of_every_message_fails_typed() {
        for req in sample_requests() {
            let buf = req.encode();
            for cut in 0..buf.len() {
                assert!(Request::decode(&buf[..cut]).is_err(), "req cut {cut}");
            }
        }
        for resp in sample_responses() {
            let buf = resp.encode();
            for cut in 0..buf.len() {
                assert!(Response::decode(&buf[..cut]).is_err(), "resp cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Request::Shutdown.encode();
        buf.push(0);
        assert_eq!(Request::decode(&buf), Err(WireError::TrailingBytes));
        let mut buf = Response::ShutdownAck.encode();
        buf.push(9);
        assert_eq!(Response::decode(&buf), Err(WireError::TrailingBytes));
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // Apply with an op count far beyond the payload.
        let mut buf = vec![REQ_APPLY];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Request::decode(&buf), Err(WireError::Truncated("op count")));
        // An empty trajectory is refused (Trajectory::new would panic).
        let mut buf = vec![REQ_APPLY];
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(OP_ADD_TRAJ);
        buf.extend_from_slice(&7u32.to_le_bytes()); // id
        buf.extend_from_slice(&0u32.to_le_bytes()); // node count 0
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::BadValue("empty trajectory"))
        );
        // Unknown tags fail typed, the retired `Report` (3) and
        // `Heartbeat` (4) among them.
        for tag in [3, 4, 200] {
            assert_eq!(Request::decode(&[tag]), Err(WireError::BadTag(tag)));
            assert_eq!(Response::decode(&[tag]), Err(WireError::BadTag(tag)));
        }
        assert_eq!(
            Request::decode(&[]),
            Err(WireError::Truncated("truncated payload"))
        );
    }

    /// Every length prefix of a `Round1Ok` (the candidate count, each row
    /// length) forged upwards is refused before anything is allocated for
    /// it — the v2 row layout reads `len` ids then `len` detours, so an
    /// unchecked length would swallow the neighbours' bytes.
    #[test]
    fn inflated_round1_length_prefixes_fail_typed() {
        let round = sample_round();
        let honest = Response::Round1Ok {
            epoch: 5,
            bound: 120,
            source: Round1Source::Built,
            round: round.clone(),
        }
        .encode();
        // tag, epoch, bound, source, then the round: its count, then per
        // candidate node | cluster | gain | len | ids | detours.
        let round_at = 1 + 8 + 8 + 1;
        let mut prefixes = vec![round_at];
        let mut at = round_at + 4;
        for c in &round.candidates {
            prefixes.push(at + 16);
            at += 20 + 12 * c.row.len();
        }
        for at in prefixes {
            for forged in [1_000u32, MAX_WIRE_CANDIDATES as u32 + 1, u32::MAX] {
                let mut bad = honest.clone();
                bad[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                assert!(
                    matches!(Response::decode(&bad), Err(WireError::Truncated(_))),
                    "prefix at {at} forged to {forged}: {:?}",
                    Response::decode(&bad)
                );
            }
        }
    }

    #[test]
    fn resync_snapshot_blob_roundtrips_and_fails_closed() {
        let snap = ResyncSnapshot {
            epoch: 9,
            id_bound: 12,
            trajs: vec![
                (TrajId(0), Trajectory::new(vec![NodeId(0), NodeId(1)])),
                (
                    TrajId(7),
                    Trajectory::new(vec![NodeId(2), NodeId(3), NodeId(4)]),
                ),
            ],
            sites: vec![NodeId(0), NodeId(5)],
        };
        let blob = snap.encode();
        assert_eq!(ResyncSnapshot::decode(&blob).expect("decode"), snap);
        // Every truncation fails typed.
        for cut in 0..blob.len() {
            assert!(ResyncSnapshot::decode(&blob[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes are rejected.
        let mut long = blob.clone();
        long.push(0);
        assert_eq!(ResyncSnapshot::decode(&long), Err(WireError::TrailingBytes));
        // Hostile counts are refused before allocation.
        let mut hostile = Vec::new();
        put_u64(&mut hostile, 1);
        put_u64(&mut hostile, 1);
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            ResyncSnapshot::decode(&hostile),
            Err(WireError::Truncated("resync trajectory count"))
        );
        // An oversized chunk length in the RPC is refused.
        let mut chunk = vec![RESP_RESYNC];
        put_u64(&mut chunk, 1);
        put_u64(&mut chunk, u64::MAX);
        chunk.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            Response::decode(&chunk),
            Err(WireError::Truncated("resync chunk"))
        );
    }

    #[test]
    fn psi_key_roundtrips_through_the_wire_form() {
        let psis = [
            PreferenceFunction::Binary,
            PreferenceFunction::LinearDecay,
            PreferenceFunction::ExponentialDecay { lambda: 1.5 },
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
            PreferenceFunction::MinInconvenience {
                normalizer_m: 5_000.0,
            },
        ];
        for psi in psis {
            let (tag, param) = preference_key(&psi);
            let back = preference_from_key(tag, param).expect("known tag");
            assert_eq!(preference_key(&back), (tag, param));
        }
        assert!(preference_from_key(9, 0).is_none());
    }
}
