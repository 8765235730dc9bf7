//! Where one shard replica's data lives and how the router talks to it.
//!
//! [`ShardTransport`] abstracts the location:
//!
//! * [`InProcessShard`] — the shard's [`SnapshotStore`] lives in the
//!   router process; round 1 runs on the router's worker threads against
//!   the router-shared caches (bit-identical to the pre-transport
//!   router). Built by [`ShardRouter::start`](crate::ShardRouter::start).
//! * [`RemoteShard`] — the shard is a `netclus-shardd` process reached
//!   over the framed TCP protocol ([`crate::shard_proto`]): one
//!   persistent connection per replica with reconnect-and-backoff, a
//!   versioned hello handshake, and per-RPC timeouts clamped to the
//!   query deadline. Built by
//!   [`ShardRouter::connect`](crate::ShardRouter::connect). Every
//!   socket-level failure — connect refusal, read timeout, CRC mismatch,
//!   version skew, mid-frame disconnect — maps onto the same
//!   [`ShardFailure`] taxonomy the in-process path uses, so breakers,
//!   deadline budgets, degraded merges and the stale fallback work
//!   unchanged over TCP.
//!
//! ## Round-1 caches (the warm path)
//!
//! Dashboard traffic repeats `(k, τ)` shapes, and rebuilding each shard's
//! [`ProviderRows`] per query is what kept the router ~350× slower than
//! the monolithic executor. Two caches, both keyed by epoch and shared by
//! every router worker (a shard server keeps its own pair), close that
//! gap; [`resolve_round1`] consults them cheapest first:
//!
//! * a round-1 **candidate memo** keyed `(epoch, shard, quantized τ, ψ)`
//!   holding the largest-`k` [`ShardRoundOne`] seen: by the greedy prefix
//!   property any `k' ≤ k` repeat is answered by slicing — candidates
//!   *with their coverage rows*, so a memo hit skips the provider lookup
//!   entirely and round 2 needs no shard re-contact;
//! * a per-shard **provider cache** keyed `(epoch, shard, instance,
//!   built τ)` — an instance's rows built once at the top of its τ band,
//!   every τ in the band served as a prefix view — with **single-flight**
//!   builds: concurrent misses on one key coalesce onto one builder
//!   ([`crate::provider_cache`]).
//!
//! Both caches key on the lockstep epoch, so a cached answer can never
//! cross an update: the memo is purged on every epoch advance, and rows
//! are carried across a publish that applied only trajectory adds and
//! removes — patched in place into the rows a rebuild would make
//! ([`crate::provider_cache::carry_rows`]) — and purged on one that
//! applied a site op. The hot path is bit-identical to the cold path
//! (proptested in `crates/service/tests/router_equivalence.rs`). A
//! capacity of 0 disables that cache (the cold reference configuration).

#![deny(clippy::too_many_lines)]

use std::io::Write;
use std::net::TcpStream;
use std::time::Instant;

use netclus::shard::{local_candidates, local_candidates_on, ShardRoundOne};
use netclus::{NetClusIndex, ProviderScratch, TopsQuery};
use netclus_trajectory::TrajectorySet;

use super::*;
use crate::cache::CacheOutcome;
use crate::fault::ShardFailure;
use crate::framing::{frame_into, read_frame_into};
use crate::metrics::LatencySummary;
use crate::provider_cache::{rows_for, RoundKey};
use crate::shard_proto::{
    round1_request, Request, RespError, Response, ResyncSnapshot, SHARD_PROTOCOL_VERSION,
};
use crate::snapshot::{RoutedOp, Snapshot};
use crate::trace::Round1Source;
use crate::wire::{MAX_RESYNC_BLOB, MAX_SHARD_RESPONSE};

/// A successful round-1 shard reply — what a [`ShardTransport`] returns.
/// The trajectory-id bound rides along because shard bounds can differ
/// (a shard that never received a trajectory keeps the shorter id space)
/// and the merge must size its inversion to the largest; `source`
/// reports where the round-1 answer came from (memo, provider hit,
/// coalesced wait, or build), which drives the hot/cold lane split and
/// the trace span detail.
#[derive(Clone, Debug)]
pub struct Round1Ok {
    /// Epoch the shard snapshot was pinned at.
    pub epoch: u64,
    /// The shard's trajectory-id bound (merge inversion sizing).
    pub bound: usize,
    /// Which cache lane served the answer.
    pub source: Round1Source,
    /// The candidates with coverage rows plus round-1 timings.
    pub round: ShardRoundOne,
}

/// What one shard did with its routed slice of an update batch.
#[derive(Clone, Debug)]
pub struct ShardApplyOutcome {
    /// The epoch the shard published after the batch.
    pub epoch: u64,
    /// Per-op outcome in routed order (`true` = applied).
    pub results: Vec<bool>,
}

/// Borrowed router-side context for one round-1 task. The in-process
/// transport runs the full memo → provider → cold resolution against the
/// router-shared caches; the remote transport only reads `shard` and
/// `deadline` (the shard server keeps its own caches).
pub struct Round1Ctx<'a> {
    /// Shard lane being served.
    pub shard: u32,
    /// Round-1 budget deadline, if any.
    pub deadline: Option<Instant>,
    /// Router-shared provider cache (`None` = disabled).
    pub providers: Option<&'a ShardProviderCache>,
    /// Router-shared round-1 candidate memo (`None` = disabled).
    pub rounds: Option<&'a RoundOneCache>,
    /// Threads per provider build on a cache miss.
    pub build_threads: usize,
    /// The calling worker's reusable provider-build scratch.
    pub scratch: &'a mut ProviderScratch,
    /// Provider-build latency sink (one sample per actual build).
    pub provider_build: &'a LatencyHistogram,
}

/// Where one shard's data lives and how to talk to it. The router is
/// transport-agnostic: [`InProcessShard`] serves from a local
/// [`SnapshotStore`] on the router's own worker threads, [`RemoteShard`]
/// speaks the framed TCP protocol to a `netclus-shardd` process.
/// Failures surface as [`ShardFailure`] either way, so the fault
/// machinery (breakers, budgets, degraded merges, stale fallback) is
/// shared between both.
pub trait ShardTransport: Send + Sync {
    /// Transport tag for the metrics report: `"in_process"` or
    /// `"remote"`.
    fn kind(&self) -> &'static str;
    /// Answers one round-1 scatter task.
    fn round1(&self, query: &TopsQuery, ctx: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure>;
    /// Applies this shard's routed slice of an update batch (possibly
    /// empty — lockstep epochs advance on every batch) and reports the
    /// published epoch plus per-op acks.
    fn apply(&self, ops: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure>;
    /// The shard's current (local) or last-observed (remote) epoch.
    fn epoch(&self) -> u64;
    /// The local snapshot store, when the shard lives in this process.
    fn local_store(&self) -> Option<&SnapshotStore> {
        None
    }
    /// RPC counters, when the transport issues RPCs.
    fn counters(&self) -> Option<&TransportCounters> {
        None
    }
    /// Captures this replica's full corpus snapshot so a lagging sibling
    /// can catch up. Transports that cannot serve a snapshot return
    /// [`ShardFailure::Unreachable`].
    fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
        Err(ShardFailure::Unreachable)
    }
    /// Installs a corpus snapshot fetched from a healthy sibling,
    /// replacing this replica's corpus and index wholesale and adopting
    /// the snapshot's epoch. Transports that cannot install (a remote
    /// replica rejoins via `netclus-shardd --join` instead) return
    /// [`ShardFailure::Unreachable`].
    fn install_resync(&self, _snap: &ResyncSnapshot) -> Result<(), ShardFailure> {
        Err(ShardFailure::Unreachable)
    }
}

/// The in-process transport: the shard's [`SnapshotStore`] lives in the
/// router process and round 1 runs on the router's worker threads
/// against the router-shared caches — bit-identical to the
/// pre-transport router.
pub struct InProcessShard {
    store: SnapshotStore,
}

impl InProcessShard {
    /// Wraps one shard's snapshot store.
    pub fn new(store: SnapshotStore) -> InProcessShard {
        InProcessShard { store }
    }
}

impl ShardTransport for InProcessShard {
    fn kind(&self) -> &'static str {
        "in_process"
    }

    fn round1(&self, query: &TopsQuery, ctx: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure> {
        let snap = self.store.load();
        Ok(resolve_round1(&snap, query, ctx))
    }

    fn apply(&self, ops: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure> {
        let (receipt, results) = self.store.apply_routed_results(ops);
        Ok(ShardApplyOutcome {
            epoch: receipt.epoch,
            results,
        })
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn local_store(&self) -> Option<&SnapshotStore> {
        Some(&self.store)
    }

    fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
        Ok(ResyncSnapshot::capture(&self.store.load()))
    }

    fn install_resync(&self, snap: &ResyncSnapshot) -> Result<(), ShardFailure> {
        install_resync_snapshot(&self.store, snap)
    }
}

/// Validates `snap` against `store`'s (fixed) road network, rebuilds the
/// shard corpus and index from it, and publishes the result wholesale at
/// `snap.epoch` — the receiving half of a resync transfer. Any
/// out-of-network node or duplicate trajectory id rejects the whole
/// snapshot as [`ShardFailure::CorruptReply`] without touching the
/// published state. Shared by the in-process transport's resync path and
/// `netclus-shardd --join`.
pub fn install_resync_snapshot(
    store: &SnapshotStore,
    snap: &ResyncSnapshot,
) -> Result<(), ShardFailure> {
    let cur = store.load();
    let net = cur.net_shared();
    let nodes = net.node_count();
    let mut trajs = TrajectorySet::for_network(&net);
    for (id, traj) in &snap.trajs {
        if traj.nodes().iter().any(|v| v.0 as usize >= nodes) || !trajs.insert_at(*id, traj.clone())
        {
            return Err(ShardFailure::CorruptReply);
        }
    }
    trajs.align_id_bound(snap.id_bound as usize);
    if snap.sites.iter().any(|v| v.0 as usize >= nodes) {
        return Err(ShardFailure::CorruptReply);
    }
    let index = NetClusIndex::build(&net, &trajs, &snap.sites, *cur.index().config());
    store.install(snap.epoch, trajs, index);
    Ok(())
}

/// The shared round-1 resolution, cheapest lane first: candidate memo →
/// provider cache (single-flight build on a miss) → cold rebuild. Used
/// by [`InProcessShard`] against the router's caches and by the shard
/// server against its own.
pub(crate) fn resolve_round1(
    snap: &Snapshot,
    query: &TopsQuery,
    ctx: &mut Round1Ctx<'_>,
) -> Round1Ok {
    let Round1Ctx {
        shard,
        providers,
        rounds,
        build_threads,
        provider_build,
        ..
    } = *ctx;
    let scratch = &mut *ctx.scratch;
    let epoch = snap.epoch();
    let bound = snap.trajs().id_bound();
    let memo = rounds.map(|rounds| {
        let key = RoundKey::new(epoch, shard, query.tau, &query.preference);
        (rounds, key)
    });
    let memoized = memo
        .as_ref()
        .and_then(|(rounds, key)| rounds.get_prefix(key, query.k));
    let (round, source) = match memoized {
        Some(round) => (round, Round1Source::Memo),
        None => {
            let (round, source) = match providers {
                Some(providers) => {
                    let (p, rows, outcome) = rows_for(
                        snap,
                        query.tau,
                        shard,
                        providers,
                        build_threads,
                        scratch,
                        provider_build,
                    );
                    let provider = rows.view(query.tau);
                    let source = match outcome {
                        CacheOutcome::Hit => Round1Source::ProviderHit,
                        CacheOutcome::Coalesced => Round1Source::Coalesced,
                        CacheOutcome::Miss => Round1Source::Built,
                    };
                    (local_candidates_on(&provider, p, query), source)
                }
                None => (
                    local_candidates(snap.index(), query, bound, scratch),
                    Round1Source::Cold,
                ),
            };
            if let Some((rounds, key)) = memo {
                rounds.offer(key, Arc::new(round.clone()));
            }
            (round, source)
        }
    };
    Round1Ok {
        epoch,
        bound,
        source,
        round,
    }
}

/// RPC counters a remote transport maintains; summed into the
/// `transport_*` fields of [`ShardReport`](crate::metrics::ShardReport).
#[derive(Debug, Default)]
pub struct TransportCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    reconnects: AtomicU64,
    rpc_latency: LatencyHistogram,
}

impl TransportCounters {
    /// Point-in-time view of every transport in `parts` together: counts
    /// sum, and the latency summary is that of one histogram holding every
    /// part's samples.
    pub(crate) fn rollup<'a>(parts: impl Iterator<Item = &'a Self> + Clone) -> TransportSnapshot {
        let total = |field: fn(&Self) -> &AtomicU64| -> u64 {
            parts
                .clone()
                .map(|c| field(c).load(Ordering::Relaxed))
                .sum()
        };
        TransportSnapshot {
            requests: total(|c| &c.requests),
            errors: total(|c| &c.errors),
            reconnects: total(|c| &c.reconnects),
            rpc: LatencyHistogram::summary_of(parts.map(|c| &c.rpc_latency)),
        }
    }
}

/// Point-in-time [`TransportCounters`] view.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TransportSnapshot {
    /// RPCs issued, including failed ones.
    pub requests: u64,
    /// RPCs that ended in a [`ShardFailure`].
    pub errors: u64,
    /// Successful (re)connect handshakes.
    pub reconnects: u64,
    /// Round-trip latency of completed RPCs.
    pub rpc: LatencySummary,
}

/// Tuning for one [`RemoteShard`] connection.
#[derive(Clone, Copy, Debug)]
pub struct RemoteShardConfig {
    /// Per-RPC read/write timeout (clamped further by the query
    /// deadline); must be nonzero.
    pub io_timeout: Duration,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// TCP connect timeout per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// First reconnect backoff after a failed attempt; doubles per
/// consecutive failure. While the backoff window is open, RPCs fast-fail
/// [`ShardFailure::Unreachable`] without touching the socket.
const BACKOFF: Duration = Duration::from_millis(50);

/// Reconnect backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// What the hello handshake learned about a shard server.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardHello {
    /// Epoch the shard currently publishes.
    pub epoch: u64,
    /// The shard's trajectory-id bound (global ids assigned so far).
    pub traj_id_bound: u64,
    /// Live trajectories the shard holds.
    pub live_trajs: u64,
}

struct ConnState {
    link: Option<Conn>,
    /// No reconnect attempt before this instant (backoff window).
    next_attempt: Option<Instant>,
    backoff: Duration,
}

/// An established connection with what lives as long as it does: one
/// buffer each way (a request is encoded, framed and sent from `tx`, a
/// reply is read into `rx`) and the io timeout the socket currently has.
struct Conn {
    stream: TcpStream,
    tx: Vec<u8>,
    rx: Vec<u8>,
    /// The read/write timeout last set on `stream`; a call that wants
    /// the same value skips both `setsockopt`s.
    timeout: Duration,
}

/// The remote transport: one shard served by a `netclus-shardd` process
/// over the framed TCP protocol ([`crate::shard_proto`]). Keeps one
/// persistent connection guarded by a mutex and reconnects with
/// exponential backoff after any transport-level failure. A gather sends
/// at most one round-1 task per replica, but concurrent gathers share the
/// connection: with several clients, their RPCs to a shard's sticky
/// primary wait on this mutex and go over the socket one at a time.
pub struct RemoteShard {
    shard: u32,
    addr: SocketAddr,
    cfg: RemoteShardConfig,
    conn: Mutex<ConnState>,
    /// Last epoch observed in any response — the router's lockstep hint.
    last_epoch: AtomicU64,
    /// Failed reconnect attempts, ever — the per-attempt term of the
    /// backoff-jitter seed.
    reconnect_failures: AtomicU64,
    counters: TransportCounters,
}

impl RemoteShard {
    /// A transport for shard `shard` served at `addr`. Connects lazily:
    /// the first RPC performs the hello handshake.
    pub fn new(shard: u32, addr: SocketAddr, cfg: RemoteShardConfig) -> RemoteShard {
        RemoteShard {
            shard,
            addr,
            conn: Mutex::new(ConnState {
                link: None,
                next_attempt: None,
                backoff: BACKOFF,
            }),
            cfg,
            last_epoch: AtomicU64::new(0),
            reconnect_failures: AtomicU64::new(0),
            counters: TransportCounters::default(),
        }
    }

    /// The shard id this transport routes to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Asks the server for its hello summary (connecting first if
    /// needed) — what [`ShardRouter::connect`](crate::ShardRouter::connect) seeds its global id space
    /// and replication gauges from.
    pub(crate) fn hello(&self) -> Result<ShardHello, ShardFailure> {
        let req = Request::Hello {
            version: SHARD_PROTOCOL_VERSION,
            shard: self.shard,
        };
        match self.call(&req, None)? {
            Response::HelloAck {
                epoch,
                traj_id_bound,
                live_trajs,
                ..
            } => Ok(ShardHello {
                epoch,
                traj_id_bound,
                live_trajs,
            }),
            _ => Err(ShardFailure::CorruptReply),
        }
    }

    /// One RPC: (re)connect if needed, clamp the io timeout to the
    /// remaining deadline, exchange one frame pair, classify failures.
    fn call(&self, req: &Request, deadline: Option<Instant>) -> Result<Response, ShardFailure> {
        let start = Instant::now();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.call_locked(req, deadline);
        match &result {
            Ok(_) => self.counters.rpc_latency.record(start.elapsed()),
            Err(_) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn call_locked(
        &self,
        req: &Request,
        deadline: Option<Instant>,
    ) -> Result<Response, ShardFailure> {
        let mut conn = lock_recover(&self.conn);
        if conn.link.is_none() {
            self.reconnect_locked(&mut conn)?;
        }
        let link = conn.link.as_mut().expect("connected above");
        let mut timeout = self.cfg.io_timeout;
        if let Some(dl) = deadline {
            let left = dl.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ShardFailure::TimedOut);
            }
            timeout = timeout.min(left);
        }
        if timeout != link.timeout
            && link.stream.set_read_timeout(Some(timeout)).is_ok()
            && link.stream.set_write_timeout(Some(timeout)).is_ok()
        {
            link.timeout = timeout;
        }
        let result = exchange(link, req);
        match &result {
            Ok(resp) => {
                if let Some(epoch) = response_epoch(resp) {
                    self.last_epoch.store(epoch, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // The stream may hold a half-written request or a
                // half-read reply; start fresh on the next call.
                conn.link = None;
            }
        }
        result
    }

    fn reconnect_locked(&self, conn: &mut ConnState) -> Result<(), ShardFailure> {
        let now = Instant::now();
        if let Some(at) = conn.next_attempt {
            if now < at {
                return Err(ShardFailure::Unreachable);
            }
        }
        let attempt = (|| {
            let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
                .map_err(|_| ShardFailure::Unreachable)?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
            let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
            let mut link = Conn {
                stream,
                tx: Vec::new(),
                rx: Vec::new(),
                timeout: self.cfg.io_timeout,
            };
            let hello = Request::Hello {
                version: SHARD_PROTOCOL_VERSION,
                shard: self.shard,
            };
            match exchange(&mut link, &hello)? {
                Response::HelloAck {
                    version,
                    shard,
                    epoch,
                    ..
                } => {
                    if version != SHARD_PROTOCOL_VERSION || shard != self.shard {
                        return Err(ShardFailure::VersionSkew);
                    }
                    self.last_epoch.store(epoch, Ordering::Relaxed);
                    Ok(link)
                }
                _ => Err(ShardFailure::CorruptReply),
            }
        })();
        match attempt {
            Ok(link) => {
                conn.link = Some(link);
                conn.next_attempt = None;
                conn.backoff = BACKOFF;
                self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(failure) => {
                // Deterministic seeded jitter (±25%) against thundering
                // herd: when a shard server restarts, its clients' retry
                // clocks must not be phase-locked. Seeding from (shard,
                // port, failure ordinal) keeps each client's schedule
                // reproducible while decorrelating clients from each
                // other.
                let ordinal = self.reconnect_failures.fetch_add(1, Ordering::Relaxed);
                let seed = (u64::from(self.shard) << 32) ^ u64::from(self.addr.port()) ^ ordinal;
                let roll = crate::fault::splitmix64(seed);
                let factor = 0.75 + 0.5 * (roll as f64 / (u64::MAX as f64 + 1.0));
                conn.next_attempt = Some(now + conn.backoff.mul_f64(factor));
                conn.backoff = (conn.backoff * 2).min(BACKOFF_MAX);
                Err(failure)
            }
        }
    }
}

impl ShardTransport for RemoteShard {
    fn kind(&self) -> &'static str {
        "remote"
    }

    fn round1(&self, query: &TopsQuery, ctx: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure> {
        let req = round1_request(ctx.shard, query);
        match self.call(&req, ctx.deadline)? {
            Response::Round1Ok {
                epoch,
                bound,
                source,
                round,
            } => Ok(Round1Ok {
                epoch,
                bound: bound as usize,
                source,
                round,
            }),
            _ => Err(ShardFailure::CorruptReply),
        }
    }

    fn apply(&self, ops: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure> {
        let req = Request::Apply { ops: ops.to_vec() };
        match self.call(&req, None)? {
            Response::ApplyAck { epoch, results } => Ok(ShardApplyOutcome { epoch, results }),
            _ => Err(ShardFailure::CorruptReply),
        }
    }

    fn epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&TransportCounters> {
        Some(&self.counters)
    }

    /// Fetches the server's full corpus snapshot over the chunked
    /// `Resync` exchange. The server pins the blob at the first chunk of
    /// a transfer, so sequential chunks are internally consistent; if an
    /// epoch change is observed mid-transfer (the pin was lost to a
    /// reconnect and the corpus moved), the transfer restarts from
    /// offset 0, a bounded number of times.
    fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
        const MAX_RESTARTS: u32 = 8;
        let mut restarts = 0;
        let mut blob: Vec<u8> = Vec::new();
        let mut pinned_epoch: Option<u64> = None;
        loop {
            let req = Request::Resync {
                shard: self.shard,
                offset: blob.len() as u64,
            };
            let (epoch, total_len, data) = match self.call(&req, None)? {
                Response::ResyncChunk {
                    epoch,
                    total_len,
                    data,
                } => (epoch, total_len, data),
                _ => return Err(ShardFailure::CorruptReply),
            };
            if total_len as usize > MAX_RESYNC_BLOB {
                return Err(ShardFailure::CorruptReply);
            }
            if pinned_epoch.is_some_and(|e| e != epoch) {
                restarts += 1;
                if restarts > MAX_RESTARTS {
                    return Err(ShardFailure::CorruptReply);
                }
                blob.clear();
                pinned_epoch = None;
                continue;
            }
            pinned_epoch = Some(epoch);
            if data.is_empty() && (blob.len() as u64) < total_len {
                // A non-final empty chunk would loop forever.
                return Err(ShardFailure::CorruptReply);
            }
            blob.extend_from_slice(&data);
            if blob.len() as u64 > total_len {
                return Err(ShardFailure::CorruptReply);
            }
            if blob.len() as u64 == total_len {
                return ResyncSnapshot::decode(&blob).map_err(|_| ShardFailure::CorruptReply);
            }
        }
    }
}

/// One request/response exchange on an established connection: the
/// request is encoded and framed in the connection's `tx` buffer and
/// leaves as a single write, the reply is read into its `rx` buffer and
/// decoded from there. Maps every socket- and codec-level failure onto
/// the [`ShardFailure`] taxonomy, including the server's typed
/// [`Response::Error`] refusals.
fn exchange(link: &mut Conn, req: &Request) -> Result<Response, ShardFailure> {
    frame_into(&mut link.tx, |buf| req.encode_into(buf)).map_err(|_| ShardFailure::CorruptReply)?;
    link.stream
        .write_all(&link.tx)
        .map_err(|e| io_failure(&e))?;
    match read_frame_into(&mut link.stream, MAX_SHARD_RESPONSE, &mut link.rx) {
        Ok(true) => {}
        Ok(false) => return Err(ShardFailure::Dropped),
        Err(e) => return Err(io_failure(&e.into())),
    }
    let resp = Response::decode(&link.rx).map_err(|_| ShardFailure::CorruptReply)?;
    if let Response::Error(e) = &resp {
        return Err(match e {
            RespError::VersionSkew => ShardFailure::VersionSkew,
            RespError::BadRequest => ShardFailure::CorruptReply,
            RespError::Injected => ShardFailure::Injected,
        });
    }
    Ok(resp)
}

/// Socket error → taxonomy: a timeout is [`ShardFailure::TimedOut`] (the
/// deadline machinery owns it), a CRC mismatch or oversize frame is
/// [`ShardFailure::CorruptReply`], anything else means the connection
/// died mid-exchange ([`ShardFailure::Dropped`]).
fn io_failure(e: &io::Error) -> ShardFailure {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ShardFailure::TimedOut,
        io::ErrorKind::InvalidData => ShardFailure::CorruptReply,
        _ => ShardFailure::Dropped,
    }
}

fn response_epoch(resp: &Response) -> Option<u64> {
    match resp {
        Response::HelloAck { epoch, .. }
        | Response::Round1Ok { epoch, .. }
        | Response::ApplyAck { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::shard_router::tests::fixture;
    use netclus::NetClusConfig;

    /// Two replicas with disjoint samples: the rollup sums their counts,
    /// and its summary is that of one histogram holding both sets of
    /// samples — not the worse replica's percentiles.
    #[test]
    fn rollup_merges_replica_histograms_exactly() {
        let (fast, slow, all) = (
            TransportCounters::default(),
            TransportCounters::default(),
            LatencyHistogram::default(),
        );
        let samples = [(&fast, 10u64, 5u64), (&slow, 1_000, 4)];
        for &(replica, micros, n) in &samples {
            replica.requests.fetch_add(n + 1, Ordering::Relaxed);
            replica.errors.fetch_add(1, Ordering::Relaxed);
            replica.reconnects.fetch_add(2, Ordering::Relaxed);
            for _ in 0..n {
                replica.rpc_latency.record(Duration::from_micros(micros));
                all.record(Duration::from_micros(micros));
            }
        }
        let merged = TransportCounters::rollup([&fast, &slow].into_iter());
        assert_eq!(
            (merged.requests, merged.errors, merged.reconnects),
            (11, 2, 4)
        );
        let fields = |s: LatencySummary| {
            (
                s.count,
                s.mean_micros,
                s.p50_micros,
                s.p95_micros,
                s.p99_micros,
                s.max_micros,
            )
        };
        assert_eq!(fields(merged.rpc), fields(all.summary()));
        let worst_p50 = fast.rpc_latency.summary().p50_micros;
        let worst_p50 = worst_p50.max(slow.rpc_latency.summary().p50_micros);
        assert_ne!(merged.rpc.p50_micros, worst_p50);
    }

    /// The io timeout is set on the socket only when it changes. A
    /// deadline-less call leaves `cfg.io_timeout` in place; the deadline
    /// call after it must still clamp the socket to its budget (and time
    /// out there, not at the 5 s default); the reconnect that follows
    /// starts from the default again. Throughout, what the connection
    /// remembers is what the socket really has.
    #[test]
    fn io_timeout_is_reapplied_only_when_it_changes_and_still_clamps() {
        use crate::fault::{FaultAction, FaultRule};
        use crate::shard_server::{ShardServer, ShardServerConfig};
        let (net, trajs, sites, _) = fixture();
        let cfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let index = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let store = SnapshotStore::with_shared_net(net, trajs, index);
        // Round-1 requests 0 and 1 are served, request 2 answers 1.5 s late.
        let stall = Duration::from_millis(1_500);
        let plan = FaultPlan::new(1).with_rule(FaultRule {
            shard: 0,
            replica: None,
            action: FaultAction::Stall(stall),
            probability: 1.0,
            window: Some((2, 3)),
        });
        let mut server = ShardServer::start(
            "127.0.0.1:0",
            0,
            store,
            ShardServerConfig {
                fault_plan: Some(plan),
                ..Default::default()
            },
        )
        .expect("start shard server");
        let remote_cfg = RemoteShardConfig::default();
        let shard = RemoteShard::new(0, server.addr(), remote_cfg);
        let query = TopsQuery::binary(2, 600.0);
        let hist = LatencyHistogram::default();
        let mut scratch = ProviderScratch::default();
        let mut call = |deadline: Option<Instant>| {
            let mut ctx = Round1Ctx {
                shard: 0,
                deadline,
                providers: None,
                rounds: None,
                build_threads: 1,
                scratch: &mut scratch,
                provider_build: &hist,
            };
            shard.round1(&query, &mut ctx)
        };
        // What the connection remembers and what the socket really has.
        let timeouts = || {
            let conn = lock_recover(&shard.conn);
            let link = conn.link.as_ref().expect("connected");
            (
                link.timeout,
                link.stream.read_timeout().expect("read timeout"),
                link.stream.write_timeout().expect("write timeout"),
            )
        };

        call(None).expect("deadline-less call");
        let io = remote_cfg.io_timeout;
        assert_eq!(timeouts(), (io, Some(io), Some(io)));

        // A generous deadline is still a smaller timeout: it is applied.
        call(Some(Instant::now() + Duration::from_secs(3))).expect("served within 3 s");
        let (remembered, read, write) = timeouts();
        assert!(remembered < io && remembered > Duration::from_secs(1));
        // The kernel keeps the value at its own granularity.
        let read = read.expect("a timeout is set");
        assert_eq!(Some(read), write);
        assert!(read.abs_diff(remembered) < Duration::from_millis(20));

        // The stalled request: 100 ms of budget against a 1.5 s stall.
        let budget = Duration::from_millis(100);
        let started = Instant::now();
        let outcome = call(Some(Instant::now() + budget));
        let waited = started.elapsed();
        assert!(
            matches!(outcome, Err(ShardFailure::TimedOut)),
            "{outcome:?}"
        );
        assert!(
            waited >= budget / 2 && waited < stall - Duration::from_millis(500),
            "timed out after {waited:?}: not at the clamped budget"
        );

        // The failure dropped the connection; the next call reconnects
        // and runs under the default again.
        call(None).expect("served over a fresh connection");
        assert_eq!(timeouts(), (io, Some(io), Some(io)));
        server.shutdown();
    }
}
