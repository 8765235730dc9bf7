//! The scatter-gather shard router: per-shard transports, a fan-out
//! worker pool, and the two-round distributed greedy over them.
//!
//! [`ShardRouter`] is the sharded sibling of
//! [`NetClusService`](crate::executor::NetClusService). It owns one
//! [`ShardTransport`] per shard of a
//! [`netclus::ShardedNetClusIndex`] (all
//! sharing the same `Arc`-held road network) and answers each query by
//!
//! 1. **scattering** one round-1 task per shard onto its worker pool —
//!    each worker pins that shard's snapshot, builds the τ-provider with
//!    its reusable scratch and runs the local arena-backed Inc-Greedy for
//!    `k` local candidates;
//! 2. **gathering** the candidate union and running the exact round-2
//!    greedy on the merged coverage view (see `netclus::shard` for the
//!    approximation contract).
//!
//! ## Transports
//!
//! Where a shard's data lives is abstracted behind [`ShardTransport`]:
//!
//! * [`InProcessShard`] — the shard's [`SnapshotStore`] lives in the
//!   router process; round 1 runs on the router's worker threads against
//!   the router-shared caches (bit-identical to the pre-transport
//!   router). Built by [`ShardRouter::start`].
//! * [`RemoteShard`] — the shard is a `netclus-shardd` process reached
//!   over the framed TCP protocol ([`crate::shard_proto`]): one
//!   persistent connection per shard with reconnect-and-backoff, a
//!   versioned hello handshake, and per-RPC timeouts clamped to the
//!   query deadline. Built by [`ShardRouter::connect`]. Every
//!   socket-level failure — connect refusal, read timeout, CRC mismatch,
//!   version skew, mid-frame disconnect — maps onto the same
//!   [`ShardFailure`] taxonomy the in-process path uses, so breakers,
//!   deadline budgets, degraded merges and the stale fallback work
//!   unchanged over TCP.
//!
//! ## Epoch lockstep
//!
//! Updates are routed: a trajectory add is assigned a **global** id by the
//! router and shipped only to the shards it touches
//! ([`RoutedOp::AddTrajectoryAt`]), while every other shard publishes an
//! empty batch — so all shard stores advance epochs in lockstep and a
//! gather never mixes epochs. Queries hold a shared read guard against the
//! router's update lock for the duration of one fan-out; updates take the
//! write side, so a scatter observes either all-old or all-new shards,
//! never a torn mix. A shard that answers at an epoch behind the
//! router's lockstep epoch — possible only for a remote shard that
//! missed an apply — is demoted to [`ShardFailure::EpochSkew`] at gather
//! time and the answer degrades with a sound utility bound instead of
//! tearing.
//!
//! ## Round-1 caches (the warm path)
//!
//! Dashboard traffic repeats `(k, τ)` shapes, and rebuilding each shard's
//! [`ProviderRows`] per query is what
//! kept the router ~350× slower than the monolithic executor. Two caches,
//! both epoch-invalidated and shared by every router worker, close that
//! gap:
//!
//! * a per-shard **provider cache** keyed `(epoch, shard, instance,
//!   built τ)` — an instance's rows built once at the top of its τ band,
//!   every τ in the band served as a prefix view — with **single-flight**
//!   builds: concurrent misses on one key coalesce onto one builder
//!   ([`crate::provider_cache`]);
//! * a round-1 **candidate memo** keyed `(epoch, shard, quantized τ, ψ)`
//!   holding the largest-`k` [`ShardRoundOne`] seen: by the greedy prefix
//!   property any `k' ≤ k` repeat is answered by slicing — candidates
//!   *with their coverage rows*, so a memo hit skips the provider lookup
//!   entirely and round 2 needs no shard re-contact.
//!
//! Both caches key on the lockstep epoch and are purged on every epoch
//! advance, so a cached answer can never cross an update: the hot path is
//! bit-identical to the cold path (proptested in
//! `crates/service/tests/router_equivalence.rs`). Setting a capacity to 0
//! disables that cache (the cold reference configuration).
//!
//! ## Metrics
//!
//! [`ShardRouter::metrics_report`] returns the standard
//! [`MetricsReport`] with the scatter-gather section filled: per-shard
//! round-1 latency lanes, round-2 merge latency, fan-out counts, the
//! trajectory replication gauges, provider-cache and candidate-memo
//! counters (hits, misses, coalesced waits, evictions, invalidations)
//! and **hot/cold latency lanes** — a fan-out is *hot* when every shard
//! answered from a cache, *cold* when any shard built a provider.
//!
//! ## Fault tolerance
//!
//! The fan-out survives a slow, failing, or crashed shard
//! (see [`crate::fault`] for the primitives):
//!
//! * **Deadlines** — [`QueryOptions::deadline`] budgets the fan-out:
//!   round 1 gets [`ROUND1_BUDGET_FRACTION`] of it, round 2 the
//!   remainder; a blown budget is a typed
//!   [`QueryError::DeadlineExceeded`], never an unbounded wait.
//! * **Circuit breakers** — one [`CircuitBreaker`] per shard: repeated
//!   failures open it, open shards are skipped at scatter time, and a
//!   half-open probe closes it once the shard recovers.
//! * **Degraded answers** — when some-but-not-all shards fail, round 2
//!   merges the surviving candidate sets; the answer is marked
//!   [`degraded`](ShardedServiceAnswer::degraded), lists
//!   [`shards_missing`](ShardedServiceAnswer::shards_missing) and
//!   carries a conservative
//!   [`utility_bound`](ShardedServiceAnswer::utility_bound) (see
//!   [`netclus::shard::degraded_utility_bound`]). A fully-failed fan-out
//!   falls back to the last full answer for the same `(k, τ, ψ)` served
//!   with a [`stale`](ShardedServiceAnswer::stale) marker, before
//!   erroring with [`QueryError::Unavailable`].
//! * **Supervision** — a panicked worker converts its in-flight task
//!   into a typed [`ShardFailure::Panicked`] reply (no hung gather) and
//!   the pool respawns the worker; panic/respawn counts land in the
//!   [`FaultReport`] section of the metrics, alongside every other
//!   fault counter, so flight-recorder SLO rules can fire on them.
//! * **Chaos hook** — [`ShardRouter::set_fault_plan`] installs a seeded
//!   deterministic [`FaultPlan`] consulted per round-1 task (one relaxed
//!   atomic load when disabled), the query-path sibling of the ingest
//!   publisher stall.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netclus::shard::{
    local_candidates, local_candidates_on, merge_candidates_subset, merge_candidates_timed,
    ShardRoundOne,
};
use netclus::{
    NetClusIndex, NetClusShard, ProviderRows, ProviderScratch, ReplicationStats,
    ShardedNetClusIndex, TopsQuery,
};
use netclus_roadnet::{NodeId, RegionPartition, RoadNetwork};
use netclus_trajectory::{TrajId, TrajectorySet};

use crate::executor::{validate_query, SubmitError};
use crate::fault::{
    BreakerAdmit, BreakerConfig, BreakerSnapshot, CircuitBreaker, FaultPlan, QueryError,
    ShardFailure,
};
use crate::framing::{frame_into, read_frame_into};
use crate::metrics::{
    FaultReport, LatencyHistogram, LatencySummary, MetricsClock, MetricsReport, ShardLaneReport,
    ShardReport,
};
use crate::provider_cache::{
    quantize_tau, CacheOutcome, RoundKey, RoundOneCache, ShardProviderCache, ShardProviderKey,
};
use crate::shard_proto::{
    round1_request, Request, RespError, Response, ResyncSnapshot, SHARD_PROTOCOL_VERSION,
};
use crate::snapshot::{
    RoutedOp, Snapshot, SnapshotStore, UpdateBatch, UpdateOp, UpdateReceipt, UpdateSink,
};
use crate::trace::{psi_name, LoadGauge, Round1Source, Stage, TraceConfig, TraceMeta, Tracer};
use crate::wire::{MAX_RESYNC_BLOB, MAX_SHARD_RESPONSE};

/// Router configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouterConfig {
    /// Worker threads executing round-1 shard tasks; 0 (the default)
    /// means one lane per shard.
    pub workers: usize,
    /// Provider-cache capacity in entries — one per `(shard, instance)`
    /// whose rows are resident (shared by all workers, keyed per shard);
    /// **0 disables** the cache — every round-1 task rebuilds its
    /// provider at the query's τ, the cold reference path.
    pub provider_cache_capacity: usize,
    /// Round-1 candidate-memo capacity in memoized rounds; **0 disables**
    /// the memo.
    pub round_memo_capacity: usize,
    /// Threads used to build one shard provider on a cache miss. Router
    /// workers already parallelize across shards, so the default of 1
    /// avoids oversubscription.
    pub provider_build_threads: usize,
    /// Query-path tracing + tail-sampling configuration (on by default;
    /// see [`TraceConfig`]).
    pub trace: TraceConfig,
    /// Per-shard circuit-breaker tuning (failure threshold, cooldown).
    pub breaker: BreakerConfig,
    /// Capacity of the stale-answer fallback cache (last full answer per
    /// `(k, τ, ψ)`, served with a `stale` marker when every shard fails);
    /// **0 disables** the fallback.
    pub stale_cache_capacity: usize,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        ShardRouterConfig {
            workers: 0,
            provider_cache_capacity: 32,
            round_memo_capacity: 128,
            provider_build_threads: 1,
            trace: TraceConfig::default(),
            breaker: BreakerConfig::default(),
            stale_cache_capacity: 256,
        }
    }
}

impl ShardRouterConfig {
    /// The cold reference configuration: every cache disabled (round-1
    /// caches *and* the stale-answer fallback), so every query takes the
    /// full rebuild path (what the equivalence proptests compare the
    /// cached router against).
    pub fn uncached() -> Self {
        ShardRouterConfig {
            provider_cache_capacity: 0,
            round_memo_capacity: 0,
            stale_cache_capacity: 0,
            ..Default::default()
        }
    }
}

/// Fraction of a query's deadline budgeted to the round-1 scatter-gather;
/// the remainder is reserved for the round-2 merge, so a slow shard
/// cannot starve the merge of the surviving candidates.
pub const ROUND1_BUDGET_FRACTION: f64 = 0.75;

/// Fraction of the round-1 budget the gather waits before **hedging**: a
/// shard that has not answered by then gets a second round-1 request on
/// its next healthy replica, and the first bit-identical answer wins.
/// Replicas pin the same lockstep epoch, so either answer is the answer;
/// hedging trades one redundant RPC for tail latency only when round 1
/// is already slower than the typical reply.
pub const HEDGE_DELAY_FRACTION: f64 = 0.25;

/// Hedge delay for queries without a deadline (no round-1 budget to take
/// a fraction of): comfortably above a healthy round-1 reply, far below
/// a human-visible stall.
const DEFAULT_HEDGE_DELAY: Duration = Duration::from_millis(20);

/// Per-query execution options for [`ShardRouter::query`].
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOptions {
    /// Optional end-to-end deadline. Round 1 gets
    /// [`ROUND1_BUDGET_FRACTION`] of it (shards that miss the budget are
    /// treated as failed and the answer degrades), round 2 the remainder;
    /// if nothing survives in budget the query fails with a typed
    /// [`QueryError::DeadlineExceeded`]. `None` (the default) waits
    /// indefinitely.
    pub deadline: Option<Duration>,
}

impl QueryOptions {
    /// Options carrying an end-to-end deadline.
    pub fn with_deadline(deadline: Duration) -> QueryOptions {
        QueryOptions {
            deadline: Some(deadline),
        }
    }
}

/// A scatter-gather answer: the merged round-2 solution plus per-shard
/// round-1 timings, all computed against one epoch across every shard.
#[derive(Clone, Debug)]
pub struct ShardedServiceAnswer {
    /// The (lockstep) epoch every shard snapshot was pinned at.
    pub epoch: u64,
    /// Selected sites, in round-2 selection order.
    pub sites: Vec<NodeId>,
    /// Round-2 utility under the estimated detours `d̂r`.
    pub utility: f64,
    /// Trajectories with positive utility in the merged view.
    pub covered: usize,
    /// Index instance that served the query.
    pub instance: usize,
    /// Size of the round-2 candidate union (≤ shards × k).
    pub candidates: usize,
    /// Round-1 wall-clock per shard, microseconds, in shard order.
    pub shard_micros: Vec<u64>,
    /// Round-2 (merge + solve) wall-clock, microseconds.
    pub merge_micros: u64,
    /// End-to-end scatter-gather wall-clock, microseconds.
    pub total_micros: u64,
    /// True when at least one shard's round-1 answer is missing from the
    /// merge (failed, timed out, or skipped by an open breaker).
    pub degraded: bool,
    /// The shards missing from the merge, ascending (empty when not
    /// degraded).
    pub shards_missing: Vec<u32>,
    /// Conservative lower bound on `utility / U_full` where `U_full` is
    /// what the full fan-out would have achieved — `1.0` for complete
    /// answers, computed by [`netclus::shard::degraded_utility_bound`]
    /// from the surviving shards' coverage mass otherwise. For a
    /// [`stale`](Self::stale) answer the bound refers to the stale epoch
    /// it was computed at.
    pub utility_bound: f64,
    /// True when this is a stale-epoch fallback served because every
    /// shard failed; [`epoch`](Self::epoch) is the epoch the answer was
    /// originally computed at.
    pub stale: bool,
}

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
    fn install_resync(&self, snap: &ResyncSnapshot) -> Result<(), ShardFailure> {
        let _ = snap;
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
    let memo_key = rounds.map(|_| RoundKey::new(epoch, shard, query.tau, &query.preference));
    let memoized = match (rounds, &memo_key) {
        (Some(rounds), Some(key)) => rounds.lookup(key, query.k),
        _ => None,
    };
    let (round, source) = match memoized {
        Some(round) => (round, Round1Source::Memo),
        None => {
            let (round, source) = match providers {
                Some(providers) => {
                    let p = snap.index().instance_for(query.tau);
                    let instance = snap.index().instance(p);
                    let built_tau = ProviderRows::built_tau_for(instance, query.tau);
                    let key = ShardProviderKey::new(epoch, shard, p, built_tau);
                    let (rows, outcome) = providers.get_or_build(key, || {
                        let build_start = Instant::now();
                        let built = ProviderRows::build_with(
                            instance,
                            built_tau,
                            bound,
                            build_threads,
                            scratch,
                        );
                        provider_build.record(build_start.elapsed());
                        built
                    });
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
            if let (Some(rounds), Some(key)) = (rounds, memo_key) {
                rounds.insert(key, round.clone());
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
/// `transport_*` fields of [`ShardReport`].
#[derive(Debug, Default)]
pub struct TransportCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    reconnects: AtomicU64,
    rpc_latency: LatencyHistogram,
}

impl TransportCounters {
    /// Point-in-time view.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            rpc: self.rpc_latency.summary(),
        }
    }
}

/// Point-in-time [`TransportCounters`] view.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportSnapshot {
    /// RPCs issued, including failed ones.
    pub requests: u64,
    /// RPCs that ended in a [`ShardFailure`].
    pub errors: u64,
    /// Successful (re)connect handshakes.
    pub reconnects: u64,
    /// Round-trip latency of completed RPCs.
    pub rpc: LatencySummary,
}

/// Tuning for one [`RemoteShard`] connection. All timeouts must be
/// nonzero.
#[derive(Clone, Copy, Debug)]
pub struct RemoteShardConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Per-RPC read/write timeout (clamped further by the query
    /// deadline).
    pub io_timeout: Duration,
    /// First reconnect backoff after a failed attempt; doubles per
    /// consecutive failure. While the backoff window is open, RPCs
    /// fast-fail [`ShardFailure::Unreachable`] without touching the
    /// socket.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            backoff: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// What the hello handshake learned about a shard server.
#[derive(Clone, Copy, Debug)]
pub struct ShardHello {
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
/// persistent connection guarded by a mutex (the router scatters at most
/// one round-1 task per shard at a time, so the lock is uncontended on
/// the query path) and reconnects with exponential backoff after any
/// transport-level failure.
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
                backoff: cfg.backoff,
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
    /// needed) — what [`ShardRouter::connect`] seeds its global id space
    /// and replication gauges from.
    pub fn hello(&self) -> Result<ShardHello, ShardFailure> {
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
            let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
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
                conn.backoff = self.cfg.backoff;
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
                conn.backoff = (conn.backoff * 2).min(self.cfg.backoff_max);
                Err(failure)
            }
        }
    }

    /// Fetches the server's full corpus snapshot over the chunked
    /// `Resync` exchange. The server pins the blob at the first chunk of
    /// a transfer, so sequential chunks are internally consistent; if an
    /// epoch change is observed mid-transfer (the pin was lost to a
    /// reconnect and the corpus moved), the transfer restarts from
    /// offset 0, a bounded number of times.
    fn fetch_resync_blob(&self) -> Result<ResyncSnapshot, ShardFailure> {
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

impl ShardTransport for RemoteShard {
    fn kind(&self) -> &'static str {
        "remote"
    }

    fn round1(&self, query: &TopsQuery, ctx: &mut Round1Ctx<'_>) -> Result<Round1Ok, ShardFailure> {
        let req = round1_request(self.epoch(), ctx.shard, query);
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
            Response::ApplyAck { epoch, results, .. } => Ok(ShardApplyOutcome { epoch, results }),
            _ => Err(ShardFailure::CorruptReply),
        }
    }

    fn epoch(&self) -> u64 {
        self.last_epoch.load(Ordering::Relaxed)
    }

    fn counters(&self) -> Option<&TransportCounters> {
        Some(&self.counters)
    }

    fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
        self.fetch_resync_blob()
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
        Err(e) => return Err(io_failure(&e)),
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
        | Response::ApplyAck { epoch, .. }
        | Response::HeartbeatAck { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

type ShardReplyMsg = (u32, u32, Result<Round1Ok, ShardFailure>);

/// One round-1 unit of work handed to the pool.
struct ShardTask {
    shard: u32,
    /// Replica within the shard's set that serves this attempt.
    replica: u32,
    query: TopsQuery,
    /// Round-1 budget: a worker popping the task after this instant sheds
    /// it with [`ShardFailure::TimedOut`] instead of computing an answer
    /// the gather has already given up on.
    deadline: Option<Instant>,
    /// `Some(lockstep epoch at scatter)` iff this attempt is the replica's
    /// half-open probe: the worker then settles the breaker itself (see
    /// [`ReplyGuard`]).
    probe: Option<u64>,
    reply: Sender<ShardReplyMsg>,
}

/// Key of the stale-answer fallback cache: `(k, τ bits, ψ identity)` —
/// deliberately epoch-free, the point is serving across epochs.
type StaleKey = (usize, u64, u8, u64);

fn stale_key(q: &TopsQuery) -> StaleKey {
    let (tag, param) = crate::cache::preference_key(&q.preference);
    (q.k, q.tau.to_bits(), tag, param)
}

/// Last full (non-degraded) answer per query shape, insertion-ordered
/// bounded map — the fallback of last resort when every shard fails.
struct StaleCache {
    cap: usize,
    map: HashMap<StaleKey, Arc<ShardedServiceAnswer>>,
    order: VecDeque<StaleKey>,
}

impl StaleCache {
    fn new(cap: usize) -> StaleCache {
        StaleCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &StaleKey) -> Option<Arc<ShardedServiceAnswer>> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: StaleKey, answer: Arc<ShardedServiceAnswer>) {
        if self.map.insert(key, answer).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }
}

/// Central fault counters (breaker transition counts live on the
/// breakers themselves and are summed into the report).
#[derive(Default)]
struct FaultCounters {
    degraded_answers: AtomicU64,
    stale_answers: AtomicU64,
    shard_failures: AtomicU64,
    shard_timeouts: AtomicU64,
    deadline_exceeded: AtomicU64,
    breaker_skips: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    abandoned_gathers: AtomicU64,
    unavailable_answers: AtomicU64,
    hedged_requests: AtomicU64,
    hedge_wins: AtomicU64,
    replica_failovers: AtomicU64,
    resyncs: AtomicU64,
}

/// Poison-recovering mutex lock: a worker that panicked mid-task cannot
/// take the serving path down with it — the protected state is either a
/// plain queue (panics never happen while it is held inconsistent) or
/// monotone counters, so inheriting the guard is always safe.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

struct RouterQueue {
    tasks: VecDeque<ShardTask>,
    shutdown: bool,
}

/// Mutable update-side state, serialized by the update lock's write side.
struct UpdateState {
    /// Next global trajectory id to assign.
    next_id: u64,
    /// The authoritative lockstep epoch. Every shard that is keeping up
    /// publishes this epoch; a gather demotes answers from any other
    /// epoch to [`ShardFailure::EpochSkew`].
    epoch: u64,
    /// Live replication bookkeeping (kept in sync with routed updates).
    replication: ReplicationStats,
}

struct RouterInner {
    net: Arc<RoadNetwork>,
    partition: RegionPartition,
    /// Replica sets, `transports[shard][replica]`. Every replica of a
    /// shard holds the same corpus at the same lockstep epoch (applies
    /// fan out to all of them), so any replica's round-1 answer is *the*
    /// answer — which is what makes hedged reads and failover safe.
    transports: Vec<Vec<Box<dyn ShardTransport>>>,
    /// Queries take `read`, updates take `write`: a fan-out observes every
    /// shard at one lockstep epoch.
    update_lock: RwLock<UpdateState>,
    queue: Mutex<RouterQueue>,
    queue_cv: Condvar,
    stopping: AtomicBool,
    clock: MetricsClock,
    /// Shared per-shard provider cache with single-flight builds; `None`
    /// when disabled (capacity 0).
    providers: Option<ShardProviderCache>,
    /// Round-1 candidate memo; `None` when disabled (capacity 0).
    rounds: Option<RoundOneCache>,
    /// Threads per provider build on a cache miss.
    build_threads: usize,
    /// Round-1 latency per shard lane.
    shard_latency: Vec<LatencyHistogram>,
    /// Round-1 tasks executed per shard lane.
    shard_tasks: Vec<AtomicU64>,
    /// Round-2 merge latency.
    merge_latency: LatencyHistogram,
    /// End-to-end latency of fan-outs where every shard answered from a
    /// cache (no provider build anywhere).
    hot_latency: LatencyHistogram,
    /// End-to-end latency of fan-outs where at least one shard built (or
    /// waited on) a provider.
    cold_latency: LatencyHistogram,
    /// Fan-out queries completed.
    fanout_queries: AtomicU64,
    /// Query-path tracer: per-stage histograms + tail-sampled slow log.
    tracer: Tracer,
    /// Per-shard load/heat gauges (qps EWMA, cache heat, cold fraction).
    gauges: Vec<LoadGauge>,
    /// Per-replica circuit breakers, `breakers[shard][replica]` (closed →
    /// open → half-open) — one replica's outage must not poison its
    /// healthy siblings.
    breakers: Vec<Vec<CircuitBreaker>>,
    /// Per-shard preferred-replica cursor: the last replica that won a
    /// round 1. The scatter starts its replica walk here, so a healthy
    /// primary stays sticky and a failed-over shard keeps preferring the
    /// replica that actually answered.
    preferred: Vec<AtomicUsize>,
    /// Fast-path flag for the fault-injection hook: workers check this
    /// one relaxed load per task and only read the plan when it is set.
    fault_on: AtomicBool,
    /// The installed fault plan, if any (see [`FaultPlan`]).
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Central fault counters (the `FaultReport` section).
    faultc: FaultCounters,
    /// Stale-answer fallback; `None` when disabled (capacity 0).
    stale: Option<Mutex<StaleCache>>,
}

/// The sharded in-process query server. See the module docs.
pub struct ShardRouter {
    inner: Arc<RouterInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ShardRouter {
    /// Consumes a built [`ShardedNetClusIndex`], publishes each shard as
    /// epoch 0 of its own snapshot store and starts the worker pool.
    ///
    /// # Errors
    /// Returns the OS error when a worker thread cannot be spawned;
    /// already-spawned workers are stopped and joined first.
    pub fn start(
        net: Arc<RoadNetwork>,
        sharded: ShardedNetClusIndex,
        cfg: ShardRouterConfig,
    ) -> std::io::Result<Self> {
        Self::start_replicated(net, sharded, 1, cfg)
    }

    /// Like [`ShardRouter::start`], but publishes `replicas` in-process
    /// copies of every shard (each with its own snapshot store, all at
    /// epoch 0). Round 1 prefers one replica per shard and **hedges** to
    /// a sibling when the preferred replica is slow or failing; updates
    /// fan out to every replica in lockstep. With `replicas == 1` this is
    /// exactly [`ShardRouter::start`].
    ///
    /// # Errors
    /// Returns the OS error when a worker thread cannot be spawned;
    /// already-spawned workers are stopped and joined first.
    pub fn start_replicated(
        net: Arc<RoadNetwork>,
        sharded: ShardedNetClusIndex,
        replicas: usize,
        cfg: ShardRouterConfig,
    ) -> std::io::Result<Self> {
        let replicas = replicas.max(1);
        let next_id = sharded.traj_id_bound() as u64;
        let (partition, shards, replication) = sharded.into_parts();
        let transports: Vec<Vec<Box<dyn ShardTransport>>> = shards
            .into_iter()
            .map(|NetClusShard { trajs, index, .. }| {
                (0..replicas)
                    .map(|_| {
                        Box::new(InProcessShard::new(SnapshotStore::with_shared_net(
                            Arc::clone(&net),
                            trajs.clone(),
                            index.clone(),
                        ))) as Box<dyn ShardTransport>
                    })
                    .collect()
            })
            .collect();
        Self::start_with_replica_transports(
            net,
            partition,
            transports,
            next_id,
            0,
            replication,
            cfg,
        )
    }

    /// Connects to `netclus-shardd` servers at `addrs` (one per shard, in
    /// shard order) and starts a router whose every lane is a
    /// [`RemoteShard`]. Every hello handshake must succeed; the global id
    /// space is seeded from the largest per-shard trajectory-id bound and
    /// the lockstep epoch from the largest reported epoch (a shard behind
    /// it is demoted to [`ShardFailure::EpochSkew`] at query time until
    /// it catches up).
    ///
    /// Replication seeding is best-effort: the per-shard live-trajectory
    /// counts — the only figures the degraded-answer utility bound uses —
    /// are exact from the handshakes, while the global trajectory and
    /// boundary gauges assume a partition-respecting corpus (no
    /// cross-shard trajectories), which holds for corpora built by
    /// `netclus-shardd` itself.
    ///
    /// # Errors
    /// An [`io::Error`] when any shard cannot be reached or refuses the
    /// handshake, or when worker threads cannot spawn.
    pub fn connect(
        net: Arc<RoadNetwork>,
        partition: RegionPartition,
        addrs: &[SocketAddr],
        cfg: ShardRouterConfig,
        remote: RemoteShardConfig,
    ) -> std::io::Result<Self> {
        let addr_sets: Vec<Vec<SocketAddr>> = addrs.iter().map(|&a| vec![a]).collect();
        Self::connect_replicated(net, partition, &addr_sets, cfg, remote)
    }

    /// Like [`ShardRouter::connect`], but each shard is served by a
    /// **replica set** of `netclus-shardd` processes (`addr_sets[shard]`
    /// lists that shard's replicas). Every replica's hello must succeed;
    /// the id space and lockstep epoch are seeded from the largest
    /// reported values, and a replica behind the lockstep epoch is
    /// avoided at scatter time until it catches up (via
    /// `netclus-shardd --join` or [`ShardRouter::resync_replica`]).
    ///
    /// # Errors
    /// An [`io::Error`] when any replica cannot be reached or refuses the
    /// handshake, when a shard has no replicas, or when worker threads
    /// cannot spawn.
    pub fn connect_replicated(
        net: Arc<RoadNetwork>,
        partition: RegionPartition,
        addr_sets: &[Vec<SocketAddr>],
        cfg: ShardRouterConfig,
        remote: RemoteShardConfig,
    ) -> std::io::Result<Self> {
        let mut transports: Vec<Vec<Box<dyn ShardTransport>>> = Vec::with_capacity(addr_sets.len());
        let mut next_id = 0u64;
        let mut epoch = 0u64;
        let mut per_shard = Vec::with_capacity(addr_sets.len());
        for (s, addrs) in addr_sets.iter().enumerate() {
            if addrs.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("shard {s} has no replica addresses"),
                ));
            }
            let mut set: Vec<Box<dyn ShardTransport>> = Vec::with_capacity(addrs.len());
            let mut live = 0u64;
            for &addr in addrs {
                let shard = RemoteShard::new(s as u32, addr, remote);
                let info = shard.hello().map_err(|failure| {
                    io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("shard {s} at {addr}: {failure}"),
                    )
                })?;
                next_id = next_id.max(info.traj_id_bound);
                epoch = epoch.max(info.epoch);
                live = live.max(info.live_trajs);
                set.push(Box::new(shard));
            }
            per_shard.push(live as usize);
            transports.push(set);
        }
        let total: usize = per_shard.iter().sum();
        let replication = ReplicationStats {
            trajectories: total,
            boundary: 0,
            replicas: total,
            per_shard,
        };
        Self::start_with_replica_transports(
            net,
            partition,
            transports,
            next_id,
            epoch,
            replication,
            cfg,
        )
    }

    /// Starts a router over an explicit transport mix (the constructor
    /// [`ShardRouter::start`] and [`ShardRouter::connect`] both lower
    /// into). `next_id`, `epoch` and `replication` seed the update-side
    /// state and must describe the shards' current contents.
    ///
    /// # Errors
    /// Returns the OS error when a worker thread cannot be spawned;
    /// already-spawned workers are stopped and joined first.
    pub fn start_with_transports(
        net: Arc<RoadNetwork>,
        partition: RegionPartition,
        transports: Vec<Box<dyn ShardTransport>>,
        next_id: u64,
        epoch: u64,
        replication: ReplicationStats,
        cfg: ShardRouterConfig,
    ) -> std::io::Result<Self> {
        let transports = transports.into_iter().map(|t| vec![t]).collect();
        Self::start_with_replica_transports(
            net,
            partition,
            transports,
            next_id,
            epoch,
            replication,
            cfg,
        )
    }

    /// The core constructor every other one lowers into: an explicit
    /// replica-set transport mix, `transports[shard][replica]`. Every
    /// replica of a shard must hold the same corpus at the same epoch
    /// (the hedged scatter treats their answers as interchangeable).
    ///
    /// # Errors
    /// Returns the OS error when a worker thread cannot be spawned;
    /// already-spawned workers are stopped and joined first.
    pub fn start_with_replica_transports(
        net: Arc<RoadNetwork>,
        partition: RegionPartition,
        transports: Vec<Vec<Box<dyn ShardTransport>>>,
        next_id: u64,
        epoch: u64,
        replication: ReplicationStats,
        cfg: ShardRouterConfig,
    ) -> std::io::Result<Self> {
        assert!(
            transports.iter().all(|set| !set.is_empty()),
            "every shard needs at least one replica transport"
        );
        let lanes = transports.len();
        // Default worker count: one lane per *replica*, so a hedged
        // second attempt never queues behind the slow primary it is
        // meant to overtake. With single-replica shards this is the old
        // one-worker-per-shard default.
        let total_replicas: usize = transports.iter().map(Vec::len).sum();
        let workers = if cfg.workers == 0 {
            total_replicas
        } else {
            cfg.workers
        }
        .max(1);
        let replica_counts: Vec<usize> = transports.iter().map(Vec::len).collect();
        let inner = Arc::new(RouterInner {
            net,
            partition,
            transports,
            update_lock: RwLock::new(UpdateState {
                next_id,
                epoch,
                replication,
            }),
            queue: Mutex::new(RouterQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            clock: MetricsClock::default(),
            providers: (cfg.provider_cache_capacity > 0)
                .then(|| ShardProviderCache::new(cfg.provider_cache_capacity)),
            rounds: (cfg.round_memo_capacity > 0)
                .then(|| RoundOneCache::new(cfg.round_memo_capacity)),
            build_threads: cfg.provider_build_threads.max(1),
            shard_latency: (0..lanes).map(|_| LatencyHistogram::default()).collect(),
            shard_tasks: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            merge_latency: LatencyHistogram::default(),
            hot_latency: LatencyHistogram::default(),
            cold_latency: LatencyHistogram::default(),
            fanout_queries: AtomicU64::new(0),
            tracer: Tracer::new(cfg.trace),
            gauges: (0..lanes).map(|_| LoadGauge::default()).collect(),
            breakers: replica_counts
                .iter()
                .map(|&n| (0..n).map(|_| CircuitBreaker::new(cfg.breaker)).collect())
                .collect(),
            preferred: (0..lanes).map(|_| AtomicUsize::new(0)).collect(),
            fault_on: AtomicBool::new(false),
            fault_plan: RwLock::new(None),
            faultc: FaultCounters::default(),
            stale: (cfg.stale_cache_capacity > 0)
                .then(|| Mutex::new(StaleCache::new(cfg.stale_cache_capacity))),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("netclus-shard-worker-{i}"))
                .spawn(move || worker_entry(&worker_inner));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind the partial pool before surfacing the error.
                    inner.stopping.store(true, Ordering::Release);
                    lock_recover(&inner.queue).shutdown = true;
                    inner.queue_cv.notify_all();
                    for handle in handles {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ShardRouter {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Number of shards served.
    pub fn shard_count(&self) -> usize {
        self.inner.transports.len()
    }

    /// The authoritative lockstep epoch (what every keeping-up shard
    /// publishes).
    pub fn epoch(&self) -> u64 {
        read_recover(&self.inner.update_lock).epoch
    }

    /// Transport tags in shard order (`"in_process"` / `"remote"`),
    /// reported from each shard's first replica.
    pub fn transport_kinds(&self) -> Vec<&'static str> {
        self.inner.transports.iter().map(|t| t[0].kind()).collect()
    }

    /// The node partition queries are routed by.
    pub fn partition(&self) -> &RegionPartition {
        &self.inner.partition
    }

    /// Answers one TOPS query with the two-round scatter-gather protocol,
    /// blocking until the merged answer is ready. Equivalent to
    /// [`ShardRouter::query`] with default options; kept for callers that
    /// predate deadlines and degraded answers.
    pub fn query_blocking(
        &self,
        query: TopsQuery,
    ) -> Result<Arc<ShardedServiceAnswer>, SubmitError> {
        match self.query(query, &QueryOptions::default()) {
            Ok(answer) => Ok(answer),
            Err(QueryError::Submit(e)) => Err(e),
            // Without a deadline the only residual failure is total shard
            // loss with no stale fallback — serving is effectively down.
            Err(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Answers one TOPS query with the two-round scatter-gather protocol.
    ///
    /// Fault behavior (see the module docs): shards skipped by an open
    /// breaker or failing round 1 degrade the answer instead of failing
    /// the query, as long as at least one shard survives; a fully-failed
    /// fan-out is served from the stale-answer fallback when possible;
    /// [`QueryOptions::deadline`] bounds the total wait.
    ///
    /// # Errors
    /// [`QueryError::Submit`] for invalid queries or shutdown,
    /// [`QueryError::DeadlineExceeded`] when the budget elapsed first,
    /// [`QueryError::Unavailable`] when every shard failed and no stale
    /// answer was cached.
    pub fn query(
        &self,
        mut query: TopsQuery,
        opts: &QueryOptions,
    ) -> Result<Arc<ShardedServiceAnswer>, QueryError> {
        query.tau = quantize_tau(query.tau);
        validate_query(&query)?;
        let inner = &*self.inner;
        if inner.stopping.load(Ordering::Acquire) {
            inner.clock.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown.into());
        }
        inner
            .clock
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let deadline = opts.deadline.map(|d| start + d);
        let round1_deadline = opts
            .deadline
            .map(|d| start + d.mul_f64(ROUND1_BUDGET_FRACTION));
        // Span recorder: stack-held, zero-allocation; `finish` discards it
        // unless the query lands in the sampled tail.
        let mut spans = inner.tracer.begin();

        // Shared read guard: updates (write side) cannot interleave with
        // the fan-out, so every shard is pinned at one lockstep epoch. The
        // guard also exposes the live per-shard trajectory counts the
        // degraded-answer bound needs.
        let state = read_recover(&inner.update_lock);
        let lockstep_epoch = state.epoch;
        let lanes = inner.transports.len();
        let (tx, rx) = channel();
        let mut outcomes: Vec<Option<Result<Round1Ok, ShardFailure>>> =
            (0..lanes).map(|_| None).collect();
        // Per-shard hedged-gather state. `fired` lists every attempt as
        // `(replica, fired-as-probe, replied)` in fire order; `hedge_idx`
        // marks the one attempt launched by the hedge wave (a win by it
        // is a hedge win — failover-fired attempts are counted as
        // failovers, not hedges). `backups` holds admitted replicas not
        // yet fired, in cursor order.
        struct GatherLane {
            fired: Vec<(u32, bool, bool)>,
            hedge_idx: Option<usize>,
            backups: VecDeque<u32>,
        }
        /// Fires one backup attempt for `shard`; false when the pool is
        /// shutting down (nothing was enqueued).
        fn fire_backup(
            inner: &RouterInner,
            lane: &mut GatherLane,
            shard: u32,
            replica: u32,
            query: TopsQuery,
            deadline: Option<Instant>,
            reply: &Sender<ShardReplyMsg>,
        ) -> bool {
            let mut queue = lock_recover(&inner.queue);
            if queue.shutdown {
                return false;
            }
            lane.fired.push((replica, false, false));
            queue.tasks.push_back(ShardTask {
                shard,
                replica,
                query,
                deadline,
                probe: None,
                reply: reply.clone(),
            });
            inner.clock.metrics.queue_enter();
            drop(queue);
            inner.queue_cv.notify_all();
            true
        }
        let mut gathers: Vec<GatherLane> = Vec::with_capacity(lanes);
        let mut pending = 0usize;
        let mut any_backups = false;
        {
            let mut queue = lock_recover(&inner.queue);
            if queue.shutdown {
                inner.clock.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::ShuttingDown.into());
            }
            for shard in 0..lanes as u32 {
                let s = shard as usize;
                let set = &inner.transports[s];
                let n = set.len();
                let pref = inner.preferred[s].load(Ordering::Relaxed) % n;
                // Walk the replica set from the preferred cursor.
                // Healthy replicas at the lockstep epoch become the
                // primary plus the backup pool; lagging replicas hedge
                // last (their answers demote to EpochSkew — still better
                // than nothing once every caught-up replica is gone); a
                // half-open breaker fires its probe *in addition to* the
                // primary, so a recovering replica never steals the
                // healthy replica's slot.
                let mut fired: Vec<(u32, bool, bool)> = Vec::new();
                let mut backups: VecDeque<u32> = VecDeque::new();
                let mut lagging: VecDeque<u32> = VecDeque::new();
                let mut primary: Option<u32> = None;
                for j in 0..n {
                    let r = (pref + j) % n;
                    match inner.breakers[s][r].admit(start) {
                        BreakerAdmit::Yes => {
                            if set[r].epoch() != lockstep_epoch {
                                lagging.push_back(r as u32);
                            } else if primary.is_none() {
                                primary = Some(r as u32);
                            } else {
                                backups.push_back(r as u32);
                            }
                        }
                        BreakerAdmit::Probe => fired.push((r as u32, true, false)),
                        BreakerAdmit::Skip => {}
                    }
                }
                if primary.is_none() {
                    primary = lagging.pop_front();
                }
                backups.extend(lagging);
                if let Some(p) = primary {
                    fired.insert(0, (p, false, false));
                }
                if fired.is_empty() && backups.is_empty() {
                    // Every replica's breaker is open: the whole shard is
                    // skipped this query.
                    outcomes[s] = Some(Err(ShardFailure::BreakerOpen));
                    inner.faultc.breaker_skips.fetch_add(1, Ordering::Relaxed);
                    gathers.push(GatherLane {
                        fired,
                        hedge_idx: None,
                        backups,
                    });
                    continue;
                }
                for &(replica, probe, _) in &fired {
                    queue.tasks.push_back(ShardTask {
                        shard,
                        replica,
                        query,
                        deadline: round1_deadline,
                        probe: probe.then_some(lockstep_epoch),
                        reply: tx.clone(),
                    });
                    inner.clock.metrics.queue_enter();
                }
                pending += 1;
                any_backups |= !backups.is_empty();
                gathers.push(GatherLane {
                    fired,
                    hedge_idx: None,
                    backups,
                });
            }
        }
        inner.queue_cv.notify_all();
        // Keep one spare sender only while unfired backups remain; once
        // it is gone the channel disconnects when the last in-flight
        // attempt resolves, which is what un-hangs a no-deadline gather
        // over a dying pool.
        let mut spare_tx = any_backups.then_some(tx);
        let mut cursor = spans.stage(Stage::Admission, spans.started());
        let round1_off = cursor
            .saturating_duration_since(spans.started())
            .as_micros() as u64;

        // Gather within the round-1 budget, hedging slow shards onto
        // their backup replicas after the hedge delay and failing over
        // immediately on a typed failure. Every scattered task holds a
        // reply-sender clone, so a worker dropping its reply (injected
        // drop, or a panicking pool during shutdown) disconnects the
        // channel once the other shards answered — never a hang.
        let mut timed_out = false;
        let hedge_delay = opts
            .deadline
            .map(|d| d.mul_f64(ROUND1_BUDGET_FRACTION * HEDGE_DELAY_FRACTION))
            .unwrap_or(DEFAULT_HEDGE_DELAY);
        let mut hedge_at = any_backups.then(|| start + hedge_delay);
        while pending > 0 {
            let now = Instant::now();
            if let Some(dl) = round1_deadline {
                if now >= dl {
                    timed_out = true;
                    break;
                }
            }
            if let Some(at) = hedge_at {
                if now >= at {
                    // Hedge wave (once per query): every unresolved shard
                    // with a spare replica fires one more attempt.
                    hedge_at = None;
                    for s in 0..lanes {
                        if outcomes[s].is_some() {
                            continue;
                        }
                        let lane = &mut gathers[s];
                        let Some(replica) = lane.backups.pop_front() else {
                            continue;
                        };
                        let Some(reply) = spare_tx.as_ref() else {
                            break;
                        };
                        if fire_backup(
                            inner,
                            lane,
                            s as u32,
                            replica,
                            query,
                            round1_deadline,
                            reply,
                        ) {
                            lane.hedge_idx = Some(lane.fired.len() - 1);
                            inner.faultc.hedged_requests.fetch_add(1, Ordering::Relaxed);
                        } else {
                            lane.backups.clear();
                        }
                    }
                    if gathers.iter().all(|l| l.backups.is_empty()) {
                        spare_tx = None;
                    }
                    continue;
                }
            }
            let wait_until = match (round1_deadline, hedge_at) {
                (Some(dl), Some(h)) => Some(dl.min(h)),
                (Some(dl), None) => Some(dl),
                (None, h) => h,
            };
            let msg = match wait_until {
                None => match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
                Some(until) => match rx.recv_timeout(until.saturating_duration_since(now)) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            };
            let (shard, replica, result) = msg;
            let s = shard as usize;
            let lane = &mut gathers[s];
            let Some(idx) = lane
                .fired
                .iter()
                .position(|&(r, _, replied)| r == replica && !replied)
            else {
                continue;
            };
            lane.fired[idx].2 = true;
            // A probe's breaker was settled by the worker that ran it.
            let probe = lane.fired[idx].1;
            let resolved = outcomes[s].is_some();
            match result {
                Ok(ok) if ok.epoch == lockstep_epoch => {
                    if !probe {
                        inner.breakers[s][replica as usize].record_success(false);
                    }
                    if !resolved {
                        if lane.hedge_idx == Some(idx) {
                            inner.faultc.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        }
                        inner.preferred[s].store(replica as usize, Ordering::Relaxed);
                        lane.backups.clear();
                        outcomes[s] = Some(Ok(ok));
                        pending -= 1;
                    }
                }
                other => {
                    // An answer at a skewed epoch (a replica that missed
                    // an apply) cannot merge without tearing the answer:
                    // demote it to a typed failure so the breaker backs
                    // off the lagging replica too.
                    let failure = match other {
                        Ok(_) => ShardFailure::EpochSkew,
                        Err(f) => f,
                    };
                    if failure == ShardFailure::TimedOut {
                        inner.faultc.shard_timeouts.fetch_add(1, Ordering::Relaxed);
                    } else {
                        inner.faultc.shard_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if !probe {
                        inner.breakers[s][replica as usize].record_failure(Instant::now(), false);
                    }
                    if !resolved {
                        // Fail over to the next replica immediately; once
                        // none is left and nothing is in flight, the
                        // shard has failed for real.
                        let mut fired_over = false;
                        while let Some(next) = lane.backups.pop_front() {
                            let Some(reply) = spare_tx.as_ref() else {
                                break;
                            };
                            if fire_backup(inner, lane, shard, next, query, round1_deadline, reply)
                            {
                                inner
                                    .faultc
                                    .replica_failovers
                                    .fetch_add(1, Ordering::Relaxed);
                                fired_over = true;
                                break;
                            }
                            lane.backups.clear();
                        }
                        let outstanding = lane.fired.iter().any(|&(_, _, replied)| !replied);
                        if !fired_over && !outstanding {
                            outcomes[s] = Some(Err(failure));
                            pending -= 1;
                        }
                    }
                }
            }
            if spare_tx.is_some() && gathers.iter().all(|l| l.backups.is_empty()) {
                spare_tx = None;
            }
        }
        // Shards that never resolved: late (budget blown) or lost. Their
        // still-unanswered attempts are charged to their breakers;
        // attempts racing a shard that already resolved are cancelled
        // losers and cost their replicas nothing. A probe is charged by
        // neither rule: whichever worker ends it settles its breaker.
        let verdict_at = Instant::now();
        for (s, slot) in outcomes.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let failure = if timed_out {
                ShardFailure::TimedOut
            } else {
                ShardFailure::Dropped
            };
            for &(replica, probe, replied) in &gathers[s].fired {
                if !replied {
                    if failure == ShardFailure::TimedOut {
                        inner.faultc.shard_timeouts.fetch_add(1, Ordering::Relaxed);
                    } else {
                        inner.faultc.shard_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if !probe {
                        inner.breakers[s][replica as usize].record_failure(verdict_at, false);
                    }
                }
            }
            *slot = Some(Err(failure));
        }
        cursor = spans.stage(Stage::Round1, cursor);

        let merge_start = Instant::now();
        let mut epoch = 0u64;
        let mut bound = 0usize;
        let mut all_hot = true;
        let mut shard_micros = vec![0u64; lanes];
        let mut candidates = Vec::new();
        let mut instance = 0usize;
        let mut survivor_utility = 0.0f64;
        let mut missing: Vec<u32> = Vec::new();
        let mut failures: Vec<(u32, ShardFailure)> = Vec::new();
        let mut first_survivor = true;
        for (shard, slot) in outcomes.into_iter().enumerate() {
            match slot.expect("outcome classified") {
                Ok(ok) => {
                    debug_assert_eq!(ok.epoch, lockstep_epoch, "skewed epochs demoted above");
                    if first_survivor {
                        epoch = ok.epoch;
                        instance = ok.round.instance;
                        first_survivor = false;
                    }
                    bound = bound.max(ok.bound);
                    all_hot &= ok.source.is_hot();
                    shard_micros[shard] = ok.round.elapsed.as_micros() as u64;
                    // Child span: this shard's round-1 greedy solve (zero
                    // for memo prefix hits — no solve ran), tagged with
                    // the answer source.
                    spans.child(
                        Stage::Solve,
                        shard as i32,
                        ok.source.name(),
                        round1_off,
                        ok.round.solve_us,
                    );
                    survivor_utility += ok.round.local_utility;
                    candidates.extend(ok.round.candidates);
                }
                Err(failure) => {
                    missing.push(shard as u32);
                    failures.push((shard as u32, failure));
                }
            }
        }

        let key = stale_key(&query);
        if first_survivor {
            // Nothing survived: stale fallback, then a typed error.
            drop(state);
            if let Some(stale) = &inner.stale {
                if let Some(prev) = lock_recover(stale).get(&key) {
                    inner.faultc.stale_answers.fetch_add(1, Ordering::Relaxed);
                    inner
                        .clock
                        .metrics
                        .completed
                        .fetch_add(1, Ordering::Relaxed);
                    inner.clock.metrics.latency.record(start.elapsed());
                    let mut answer = (*prev).clone();
                    answer.stale = true;
                    answer.degraded = true;
                    answer.shards_missing = missing;
                    answer.total_micros = start.elapsed().as_micros() as u64;
                    return Ok(Arc::new(answer));
                }
            }
            if timed_out {
                inner
                    .faultc
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(QueryError::DeadlineExceeded {
                    deadline: opts.deadline.expect("timeout implies a deadline"),
                });
            }
            inner
                .faultc
                .unavailable_answers
                .fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::Unavailable { failures });
        }
        // Round 2 runs on the remaining budget; if nothing remains the
        // query is already late — fail typed instead of merging anyway.
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                inner
                    .faultc
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return Err(QueryError::DeadlineExceeded {
                    deadline: opts.deadline.expect("deadline present"),
                });
            }
        }

        let degraded = !missing.is_empty();
        let (solution, candidate_count, merge_timing, utility_bound) = if degraded {
            // Upper-bound each missing shard's lost utility by its live
            // trajectory mass (every ψ score is in [0, 1]); the per-shard
            // counts come from the replication gauges under the same read
            // guard the fan-out holds, so they match the pinned epoch.
            let missing_mass: f64 = missing
                .iter()
                .map(|&s| {
                    state
                        .replication
                        .per_shard
                        .get(s as usize)
                        .copied()
                        .unwrap_or(0) as f64
                })
                .sum();
            inner
                .faultc
                .degraded_answers
                .fetch_add(1, Ordering::Relaxed);
            let m =
                merge_candidates_subset(candidates, &query, bound, survivor_utility, missing_mass);
            (m.solution, m.candidates, m.timing, m.utility_bound)
        } else {
            let (solution, n, timing) = merge_candidates_timed(candidates, &query, bound);
            (solution, n, timing, 1.0)
        };
        let merge_off = cursor
            .saturating_duration_since(spans.started())
            .as_micros() as u64;
        cursor = spans.stage(Stage::Merge, cursor);
        // Child span: the exact round-2 greedy inside the merge (the rest
        // of the merge span is candidate union + coverage-view build).
        spans.child(
            Stage::Solve,
            -1,
            "merge",
            merge_off + merge_timing.build_us,
            merge_timing.solve_us,
        );
        inner.merge_latency.record(merge_start.elapsed());
        inner.fanout_queries.fetch_add(1, Ordering::Relaxed);
        inner
            .clock
            .metrics
            .completed
            .fetch_add(1, Ordering::Relaxed);
        let total = start.elapsed();
        inner.clock.metrics.latency.record(total);
        // Hot/cold lanes: a fan-out that never built a provider is warm
        // traffic; one build anywhere makes the whole gather cold.
        if all_hot {
            inner.hot_latency.record(total);
        } else {
            inner.cold_latency.record(total);
        }
        spans.stage(Stage::Reply, cursor);
        inner.tracer.finish(
            &spans,
            TraceMeta {
                epoch,
                k: query.k,
                tau: query.tau,
                hot: all_hot,
                psi: psi_name(&query.preference),
                instance,
            },
        );

        let answer = Arc::new(ShardedServiceAnswer {
            epoch,
            covered: solution.covered,
            utility: solution.utility,
            sites: solution.sites,
            instance,
            candidates: candidate_count,
            shard_micros,
            merge_micros: merge_start.elapsed().as_micros() as u64,
            total_micros: start.elapsed().as_micros() as u64,
            degraded,
            shards_missing: missing,
            utility_bound,
            stale: false,
        });
        // Only full answers refresh the stale fallback — a degraded
        // answer must not mask a better earlier one.
        if !degraded {
            if let Some(stale) = &inner.stale {
                lock_recover(stale).insert(key, Arc::clone(&answer));
            }
        }
        Ok(answer)
    }

    /// Installs (or clears, with `None`) the fault-injection plan the
    /// workers consult per round-1 task. Zero-cost when cleared: workers
    /// check one relaxed atomic before touching the plan. The query-path
    /// sibling of the ingest publisher's `set_publish_stall`.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut slot = self
            .inner
            .fault_plan
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.fault_on.store(plan.is_some(), Ordering::Release);
        *slot = plan.map(Arc::new);
    }

    /// Point-in-time per-shard breaker snapshots, in shard order: each
    /// shard reports its **preferred replica's** breaker (with one
    /// replica per shard that is *the* breaker, as before replication).
    pub fn breaker_snapshots(&self) -> Vec<BreakerSnapshot> {
        self.inner
            .breakers
            .iter()
            .enumerate()
            .map(|(s, set)| {
                let pref = self.inner.preferred[s].load(Ordering::Relaxed) % set.len();
                set[pref].snapshot()
            })
            .collect()
    }

    /// Point-in-time breaker snapshots of every replica of shard `s`, in
    /// replica order.
    pub fn replica_breaker_snapshots(&self, s: usize) -> Vec<BreakerSnapshot> {
        self.inner.breakers[s]
            .iter()
            .map(CircuitBreaker::snapshot)
            .collect()
    }

    /// Per-shard replica-set sizes, in shard order.
    pub fn replica_counts(&self) -> Vec<usize> {
        self.inner.transports.iter().map(Vec::len).collect()
    }

    /// Single-line JSON of every shard's breaker state — the payload of
    /// the telemetry `breakers` command.
    pub fn breakers_json(&self) -> String {
        let snaps = self.breaker_snapshots();
        let mut s = String::from("{");
        let push_u64 = |s: &mut String, key: &str, v: u64| {
            s.push('"');
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&v.to_string());
            s.push(',');
        };
        push_u64(&mut s, "shards", snaps.len() as u64);
        let open = snaps
            .iter()
            .filter(|b| b.state == crate::fault::BreakerState::Open)
            .count();
        push_u64(&mut s, "open", open as u64);
        for (i, snap) in snaps.iter().enumerate() {
            s.push_str(&format!("\"breaker{i}_state\":\"{}\",", snap.state.name()));
            push_u64(
                &mut s,
                &format!("breaker{i}_consecutive_failures"),
                u64::from(snap.consecutive_failures),
            );
            push_u64(&mut s, &format!("breaker{i}_opens"), snap.opens);
            push_u64(&mut s, &format!("breaker{i}_probes"), snap.probes);
            push_u64(&mut s, &format!("breaker{i}_closes"), snap.closes);
        }
        s.pop();
        s.push('}');
        s
    }

    /// Applies an update batch: trajectory adds receive router-assigned
    /// global ids and are shipped to exactly the shards they touch,
    /// removes are broadcast (ownership lives shard-side — a remote
    /// shard's corpus is not visible here); every shard publishes the
    /// next epoch (possibly from an empty batch) so epochs stay in
    /// lockstep. Receipts and replication bookkeeping are reconstructed
    /// from the per-op acks each shard returns, so they are exact over
    /// both transports. A shard whose apply RPC fails outright misses
    /// the batch and falls behind the lockstep epoch; its answers are
    /// demoted to [`ShardFailure::EpochSkew`] until it catches up.
    pub fn apply_updates(&self, batch: UpdateBatch) -> UpdateReceipt {
        let inner = &*self.inner;
        let t = Instant::now();
        let mut state = inner
            .update_lock
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let lanes = inner.transports.len();
        let mut routed: Vec<Vec<RoutedOp>> = (0..lanes).map(|_| Vec::new()).collect();
        // Where each batch op's routed copies landed — `(shard, index in
        // that shard's slice)` — so shard acks map back to per-op
        // outcomes. Per-shard slices stay in batch order, so sequenced
        // semantics (remove a site, re-add it; add a trajectory, remove
        // it) match the monolithic store's.
        enum Placed {
            /// Failed router-side validation (off-network node).
            Rejected,
            Add {
                slots: Vec<(usize, usize)>,
            },
            Remove {
                slots: Vec<(usize, usize)>,
            },
            Site {
                slot: (usize, usize),
            },
        }
        let mut placements: Vec<Placed> = Vec::new();
        for op in batch {
            match op {
                UpdateOp::AddTrajectory(traj) => {
                    if traj
                        .nodes()
                        .iter()
                        .any(|v| v.index() >= inner.net.node_count())
                    {
                        placements.push(Placed::Rejected);
                        continue;
                    }
                    let owners = netclus::shards_of_trajectory(&inner.partition, &traj);
                    let id = TrajId(state.next_id as u32);
                    state.next_id += 1;
                    let mut slots = Vec::with_capacity(owners.len());
                    for &s in &owners {
                        slots.push((s as usize, routed[s as usize].len()));
                        routed[s as usize].push(RoutedOp::AddTrajectoryAt(id, traj.clone()));
                    }
                    placements.push(Placed::Add { slots });
                }
                UpdateOp::RemoveTrajectory(id) => {
                    let mut slots = Vec::with_capacity(lanes);
                    for (s, ops) in routed.iter_mut().enumerate() {
                        slots.push((s, ops.len()));
                        ops.push(RoutedOp::RemoveTrajectory(id));
                    }
                    placements.push(Placed::Remove { slots });
                }
                UpdateOp::AddSite(v) => {
                    if v.index() >= inner.net.node_count() {
                        placements.push(Placed::Rejected);
                        continue;
                    }
                    let s = inner.partition.shard_of(v) as usize;
                    let slot = (s, routed[s].len());
                    routed[s].push(RoutedOp::AddSite(v));
                    placements.push(Placed::Site { slot });
                }
                UpdateOp::RemoveSite(v) => {
                    if v.index() >= inner.net.node_count() {
                        placements.push(Placed::Rejected);
                        continue;
                    }
                    let s = inner.partition.shard_of(v) as usize;
                    let slot = (s, routed[s].len());
                    routed[s].push(RoutedOp::RemoveSite(v));
                    placements.push(Placed::Site { slot });
                }
            }
        }
        // Ship every slice — empty ones too, lockstep epochs advance on
        // every batch — to **every replica** of every shard, and collect
        // the per-op acks. Replicas hold bit-identical corpora, so the
        // first successful replica's ack vector is authoritative for the
        // receipt; a replica whose apply fails misses the batch and falls
        // behind the lockstep epoch, which excludes it from primary
        // selection until it resyncs ([`ShardRouter::resync_replica`] or
        // `netclus-shardd --join`).
        let mut epoch = state.epoch;
        let mut acks: Vec<Vec<bool>> = Vec::with_capacity(lanes);
        for (set, ops) in inner.transports.iter().zip(&routed) {
            let mut shard_acks: Option<Vec<bool>> = None;
            for transport in set {
                match transport.apply(ops) {
                    Ok(outcome) => {
                        epoch = epoch.max(outcome.epoch);
                        if shard_acks.is_none() {
                            let mut results = outcome.results;
                            // Defensive against a short remote ack
                            // vector: a missing ack reads as "not
                            // applied".
                            results.resize(ops.len(), false);
                            shard_acks = Some(results);
                        }
                    }
                    Err(_) => {
                        inner.faultc.shard_failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            acks.push(shard_acks.unwrap_or_else(|| vec![false; ops.len()]));
        }
        state.epoch = epoch;
        // Reconstruct the receipt and replication gauges from the acks.
        // The per-shard counts stay exact under partial failure (they
        // track actual acks — what the degraded-answer bound needs); the
        // global trajectory/boundary figures are exact whenever every
        // owner acked, which is always the case in-process.
        let mut applied = 0usize;
        let mut rejected = 0usize;
        for placed in placements {
            match placed {
                Placed::Rejected => rejected += 1,
                Placed::Add { slots } => {
                    let acked: Vec<usize> = slots
                        .iter()
                        .filter(|&&(s, i)| acks[s][i])
                        .map(|&(s, _)| s)
                        .collect();
                    if !acked.is_empty() && acked.len() == slots.len() {
                        applied += 1;
                    } else {
                        rejected += 1;
                    }
                    if !acked.is_empty() {
                        state.replication.trajectories += 1;
                        state.replication.replicas += acked.len();
                        if acked.len() >= 2 {
                            state.replication.boundary += 1;
                        }
                        for s in acked {
                            state.replication.per_shard[s] += 1;
                        }
                    }
                }
                Placed::Remove { slots } => {
                    let acked: Vec<usize> = slots
                        .iter()
                        .filter(|&&(s, i)| acks[s][i])
                        .map(|&(s, _)| s)
                        .collect();
                    if acked.is_empty() {
                        rejected += 1;
                    } else {
                        applied += 1;
                        // Saturating: a remote-connected router seeds the
                        // global gauges from hello handshakes, which carry
                        // per-shard live counts but not the boundary
                        // split — removing a cross-shard trajectory must
                        // not underflow the best-effort figures.
                        let r = &mut state.replication;
                        r.trajectories = r.trajectories.saturating_sub(1);
                        r.replicas = r.replicas.saturating_sub(acked.len());
                        if acked.len() >= 2 {
                            r.boundary = r.boundary.saturating_sub(1);
                        }
                        for s in acked {
                            r.per_shard[s] = r.per_shard[s].saturating_sub(1);
                        }
                    }
                }
                Placed::Site { slot: (s, i) } => {
                    if acks[s][i] {
                        applied += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        // The new lockstep epoch makes every older cache key unreachable;
        // purge eagerly so stale providers/rounds release their memory.
        if let Some(providers) = &inner.providers {
            providers.invalidate_before(epoch);
        }
        if let Some(rounds) = &inner.rounds {
            rounds.invalidate_before(epoch);
        }
        let metrics = &inner.clock.metrics;
        metrics.update_latency.record(t.elapsed());
        metrics.epoch_advances.fetch_add(1, Ordering::Relaxed);
        metrics
            .updates_applied
            .fetch_add(applied as u64, Ordering::Relaxed);
        UpdateReceipt {
            epoch,
            applied,
            rejected,
        }
    }

    /// Pins shard `s`'s current snapshot (out-of-band inspection; with
    /// replicas, the preferred replica's).
    ///
    /// # Panics
    /// When shard `s` is served by a remote transport — a remote shard's
    /// snapshot is not addressable from the router process.
    pub fn shard_snapshot(&self, s: usize) -> Arc<crate::snapshot::Snapshot> {
        let set = &self.inner.transports[s];
        let pref = self.inner.preferred[s].load(Ordering::Relaxed) % set.len();
        set[pref]
            .local_store()
            .expect("shard_snapshot requires an in-process shard")
            .load()
    }

    /// Catches replica `replica` of shard `s` up to the live lockstep
    /// epoch: under the update write lock (no applies or queries can
    /// interleave), a healthy sibling at the lockstep epoch serves its
    /// full corpus snapshot and the lagging replica installs it
    /// wholesale, adopting the snapshot's epoch. Index construction is
    /// deterministic in the corpus, so the rejoined replica serves
    /// **bit-identical** round-1 answers from the first query after the
    /// resync. Returns the epoch the replica was synced to.
    ///
    /// # Errors
    /// [`ShardFailure::Unreachable`] when no healthy sibling at the
    /// lockstep epoch exists (or the target transport cannot install —
    /// remote replicas rejoin via `netclus-shardd --join` instead), or
    /// the sibling's fetch failure.
    ///
    /// # Panics
    /// When `s` or `replica` is out of range.
    pub fn resync_replica(&self, s: usize, replica: usize) -> Result<u64, ShardFailure> {
        let inner = &*self.inner;
        let state = inner
            .update_lock
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let set = &inner.transports[s];
        let n = set.len();
        let pref = inner.preferred[s].load(Ordering::Relaxed) % n;
        let mut last = ShardFailure::Unreachable;
        for j in 0..n {
            let src = (pref + j) % n;
            if src == replica || set[src].epoch() != state.epoch {
                continue;
            }
            match set[src].fetch_resync() {
                Ok(snap) => {
                    debug_assert_eq!(snap.epoch, state.epoch, "source pinned under write lock");
                    set[replica].install_resync(&snap)?;
                    inner.faultc.resyncs.fetch_add(1, Ordering::Relaxed);
                    return Ok(snap.epoch);
                }
                Err(failure) => last = failure,
            }
        }
        Err(last)
    }

    /// The replica-divergence gauge: the largest number of epochs any
    /// replica lags the lockstep epoch by, across every shard. Zero when
    /// every replica of every shard is caught up — the steady state; a
    /// persistent positive lag means a replica is missing applies and
    /// needs a resync.
    pub fn replica_lag_max(&self) -> u64 {
        let inner = &*self.inner;
        let state = read_recover(&inner.update_lock);
        let epoch = state.epoch;
        drop(state);
        inner
            .transports
            .iter()
            .flat_map(|set| set.iter())
            .map(|t| epoch.saturating_sub(t.epoch()))
            .max()
            .unwrap_or(0)
    }

    /// A point-in-time report with the scatter-gather section filled.
    pub fn metrics_report(&self) -> MetricsReport {
        let inner = &*self.inner;
        let state = read_recover(&inner.update_lock);
        let replication = state.replication.clone();
        let epoch = state.epoch;
        drop(state);
        let provider_stats = inner
            .providers
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default();
        let round_stats = inner.rounds.as_ref().map(|r| r.stats()).unwrap_or_default();
        let mut report = inner.clock.metrics.report(
            inner.clock.uptime(),
            epoch,
            self.workers.lock().map(|w| w.len()).unwrap_or(0).max(1),
            Default::default(),
            // The router's shared provider cache reports through the
            // standard provider slot so `provider_hit_rate()` and the
            // provider_* JSON fields work for router reports too.
            provider_stats,
        );
        // Transport RPC rollup across remote lanes: counts sum; the
        // latency percentiles take the worst lane (conservative — exact
        // cross-lane percentiles would need histogram merging) while the
        // mean is count-weighted.
        let mut transport_requests = 0u64;
        let mut transport_errors = 0u64;
        let mut transport_reconnects = 0u64;
        let mut transport_rpc = LatencySummary::default();
        let mut rpc_mean_acc = 0.0f64;
        for transport in inner.transports.iter().flat_map(|set| set.iter()) {
            if let Some(counters) = transport.counters() {
                let snap = counters.snapshot();
                transport_requests += snap.requests;
                transport_errors += snap.errors;
                transport_reconnects += snap.reconnects;
                rpc_mean_acc += snap.rpc.mean_micros as f64 * snap.rpc.count as f64;
                transport_rpc.count += snap.rpc.count;
                transport_rpc.p50_micros = transport_rpc.p50_micros.max(snap.rpc.p50_micros);
                transport_rpc.p95_micros = transport_rpc.p95_micros.max(snap.rpc.p95_micros);
                transport_rpc.p99_micros = transport_rpc.p99_micros.max(snap.rpc.p99_micros);
                transport_rpc.max_micros = transport_rpc.max_micros.max(snap.rpc.max_micros);
            }
        }
        if transport_rpc.count > 0 {
            transport_rpc.mean_micros = (rpc_mean_acc / transport_rpc.count as f64) as u64;
        }
        report.shards = Some(ShardReport {
            lanes: inner
                .shard_latency
                .iter()
                .zip(&inner.shard_tasks)
                .enumerate()
                .map(|(s, (hist, tasks))| {
                    let gauge = inner.gauges[s].snapshot();
                    ShardLaneReport {
                        shard: s as u32,
                        queries: tasks.load(Ordering::Relaxed),
                        latency: hist.summary(),
                        replicated_trajs: replication.per_shard.get(s).copied().unwrap_or(0) as u64,
                        qps_ewma: gauge.qps_ewma,
                        cache_heat: gauge.cache_heat,
                        cold_fraction: gauge.cold_fraction,
                        transport: inner.transports[s][0].kind(),
                    }
                })
                .collect(),
            merge: inner.merge_latency.summary(),
            fanout_queries: inner.fanout_queries.load(Ordering::Relaxed),
            providers: provider_stats,
            rounds: round_stats,
            hot: inner.hot_latency.summary(),
            cold: inner.cold_latency.summary(),
            trajectories: replication.trajectories as u64,
            boundary_trajs: replication.boundary as u64,
            replicas: replication.replicas as u64,
            replica_lag_max: inner
                .transports
                .iter()
                .flat_map(|set| set.iter())
                .map(|t| epoch.saturating_sub(t.epoch()))
                .max()
                .unwrap_or(0),
            fault: self.fault_report(),
            transport_requests,
            transport_errors,
            transport_reconnects,
            transport_rpc,
        });
        // Arena residency is only meaningful when every replica's index
        // lives in this process; a cluster of remote shards reports none.
        let total_replicas: usize = inner.transports.iter().map(Vec::len).sum();
        let local: Vec<&SnapshotStore> = inner
            .transports
            .iter()
            .flat_map(|set| set.iter())
            .filter_map(|t| t.local_store())
            .collect();
        report.process.arena_resident_bytes = (local.len() == total_replicas).then(|| {
            local
                .iter()
                .map(|s| s.load().index().heap_size_bytes() as u64)
                .sum()
        });
        report
    }

    /// The full metrics surface flattened into flight-recorder samples
    /// (metrics report incl. per-shard lanes + stage/trace counters) —
    /// plug this into [`crate::flight::FlightSampler::start`].
    pub fn flight_sample(&self) -> Vec<(String, f64)> {
        let mut sample = crate::flight::flatten_json(&self.metrics_report().to_json_line());
        sample.extend(crate::flight::flatten_json(
            &self.inner.tracer.stats_json_line(),
        ));
        sample
    }

    /// The query-path tracer (per-stage histograms + slow-query log).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The current [`FaultReport`]: central fault counters plus summed
    /// breaker transitions and the number of currently-open breakers.
    pub fn fault_report(&self) -> FaultReport {
        let inner = &*self.inner;
        let c = &inner.faultc;
        let mut opens = 0u64;
        let mut probes = 0u64;
        let mut closes = 0u64;
        let mut open_shards = 0u64;
        for set in &inner.breakers {
            let mut all_open = !set.is_empty();
            for breaker in set {
                let snap = breaker.snapshot();
                opens += snap.opens;
                probes += snap.probes;
                closes += snap.closes;
                all_open &= snap.state == crate::fault::BreakerState::Open;
            }
            // A shard counts as breaker-open only when **every** replica's
            // breaker is open — one healthy replica keeps it serving.
            if all_open {
                open_shards += 1;
            }
        }
        FaultReport {
            degraded_answers: c.degraded_answers.load(Ordering::Relaxed),
            stale_answers: c.stale_answers.load(Ordering::Relaxed),
            shard_failures: c.shard_failures.load(Ordering::Relaxed),
            shard_timeouts: c.shard_timeouts.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            breaker_opens: opens,
            breaker_probes: probes,
            breaker_closes: closes,
            breaker_skips: c.breaker_skips.load(Ordering::Relaxed),
            breaker_open_shards: open_shards,
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            worker_respawns: c.worker_respawns.load(Ordering::Relaxed),
            abandoned_gathers: c.abandoned_gathers.load(Ordering::Relaxed),
            unavailable_answers: c.unavailable_answers.load(Ordering::Relaxed),
            hedged_requests: c.hedged_requests.load(Ordering::Relaxed),
            hedge_wins: c.hedge_wins.load(Ordering::Relaxed),
            replica_failovers: c.replica_failovers.load(Ordering::Relaxed),
            resyncs: c.resyncs.load(Ordering::Relaxed),
        }
    }

    /// Stops the workers and joins them. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        {
            let mut queue = lock_recover(&self.inner.queue);
            queue.shutdown = true;
        }
        self.inner.queue_cv.notify_all();
        let mut workers = lock_recover(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl UpdateSink for ShardRouter {
    fn sink_epoch(&self) -> u64 {
        self.epoch()
    }

    fn sink_net(&self) -> Arc<RoadNetwork> {
        Arc::clone(&self.inner.net)
    }

    fn sink_traj_id_bound(&self) -> usize {
        read_recover(&self.inner.update_lock).next_id as usize
    }

    fn apply_batch(&self, ops: &[UpdateOp]) -> UpdateReceipt {
        self.apply_updates(ops.to_vec())
    }
}

/// Guards one task's reply sender: however the task ends — normal reply,
/// injected error, shed, or a panic unwinding through the worker — the
/// gather hears something typed, or the drop is accounted.
///
/// It is also where a half-open probe settles its breaker. A probe rides
/// beside a healthy sibling, so its gather has usually returned before the
/// probe ends; settled anywhere but here, such a probe would leave its
/// breaker half-open — skipped by every later scatter — for good.
struct ReplyGuard<'a> {
    reply: Option<Sender<ShardReplyMsg>>,
    shard: u32,
    replica: u32,
    /// The breaker awaiting this task's outcome and the lockstep epoch the
    /// task was scattered at, iff the task is a half-open probe.
    probe: Option<(&'a CircuitBreaker, u64)>,
    abandoned: &'a AtomicU64,
}

impl ReplyGuard<'_> {
    /// Settles the breaker of a probe that ended with an answer at epoch
    /// `answered_at`, or with none; a no-op for any other task. Runs before
    /// the reply is sent, so a gather that hears the reply sees the settled
    /// breaker.
    ///
    /// An answer older than the scatter epoch is a replica that missed an
    /// apply (the gather demotes it to `EpochSkew`) and re-opens like a
    /// failure; a newer one can only mean the gather is over and a batch
    /// landed since.
    fn settle_probe(&mut self, answered_at: Option<u64>) {
        if let Some((breaker, scattered_at)) = self.probe.take() {
            if answered_at.is_some_and(|epoch| epoch >= scattered_at) {
                breaker.record_success(true);
            } else {
                breaker.record_failure(Instant::now(), true);
            }
        }
    }

    /// Sends the task's outcome. A failed send means the gather stopped
    /// listening (deadline given up, client gone, or a hedged sibling
    /// already won) — counted as an abandoned gather instead of silently
    /// ignored.
    fn send(mut self, result: Result<Round1Ok, ShardFailure>) {
        self.settle_probe(result.as_ref().ok().map(|ok| ok.epoch));
        if let Some(tx) = self.reply.take() {
            if tx.send((self.shard, self.replica, result)).is_err() {
                self.abandoned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops the reply without sending — only for the injected
    /// [`FaultAction::Drop`](crate::fault::FaultAction::Drop), which
    /// models exactly this.
    fn disarm(mut self) {
        self.settle_probe(None);
        self.reply = None;
    }
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        // Reached with the sender still armed only when a panic unwinds
        // through the task: convert the crash into a typed failure so the
        // gather never hangs on a dead worker.
        if let Some(tx) = self.reply.take() {
            self.settle_probe(None);
            if tx
                .send((self.shard, self.replica, Err(ShardFailure::Panicked)))
                .is_err()
            {
                self.abandoned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Worker thread entry: supervises [`worker_loop`]. A panic (injected or
/// organic) unwinds out of the loop — the in-flight task already replied
/// `Panicked` via its [`ReplyGuard`] — and the supervisor counts it and
/// respawns the loop with fresh scratch, so one poisoned task never costs
/// a worker. `catch_unwind` is safe code; the loop state it discards is
/// per-iteration only.
fn worker_entry(inner: &RouterInner) {
    loop {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker_loop(inner)));
        match run {
            Ok(()) => return,
            Err(_) => {
                inner.faultc.worker_panics.fetch_add(1, Ordering::Relaxed);
                if inner.stopping.load(Ordering::Acquire) {
                    return;
                }
                inner.faultc.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Worker loop: pop a shard task, pin that shard's snapshot, run round 1.
/// Each worker owns one [`ProviderScratch`] reused across tasks.
///
/// Round-1 resolution order, cheapest first:
///
/// 1. **candidate memo** — `(epoch, shard, τ, ψ)` with a memoized `k ≥`
///    the request: answer by prefix slicing, no provider touched;
/// 2. **provider cache** — single-flight `get_or_build` per
///    `(epoch, shard, instance, τ)`, then the local greedy on it;
/// 3. **cold build** — caches disabled: the original rebuild-per-query
///    path.
///
/// A task is *hot* when it performed no provider build (paths 1, and 2 on
/// a hit; a coalesced wait rides a build, so it counts cold).
///
/// Before any of that, the task passes the fault hook (an installed
/// [`FaultPlan`] may delay, fail, panic, or drop it) and the deadline
/// shed (a task popped after its round-1 budget replies `TimedOut`
/// instead of computing an answer the gather has abandoned).
fn worker_loop(inner: &RouterInner) {
    let mut scratch = ProviderScratch::default();
    loop {
        let task = {
            let mut queue = lock_recover(&inner.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        inner.clock.metrics.queue_exit(1);
        let ShardTask {
            shard,
            replica,
            query,
            deadline,
            probe,
            reply,
        } = task;
        let lane = shard as usize;
        // Per-shard task sequence number (shared by the shard's
        // replicas): drives both the lane query counter and the fault
        // plan's scheduled windows.
        let seq = inner.shard_tasks[lane].fetch_add(1, Ordering::Relaxed);
        let guard = ReplyGuard {
            reply: Some(reply),
            shard,
            replica,
            probe: probe.map(|epoch| (&inner.breakers[lane][replica as usize], epoch)),
            abandoned: &inner.faultc.abandoned_gathers,
        };
        // Fault-injection hook: one relaxed load when disabled.
        if inner.fault_on.load(Ordering::Acquire) {
            let plan = read_recover(&inner.fault_plan).clone();
            if let Some(action) = plan.and_then(|p| p.decide(shard, replica, seq)) {
                use crate::fault::FaultAction;
                match action {
                    // Socket-level actions degrade to their nearest
                    // in-process analog here; over a real socket the
                    // shard server applies them to the stream itself.
                    FaultAction::Delay(d) | FaultAction::Stall(d) => std::thread::sleep(d),
                    FaultAction::Error => {
                        guard.send(Err(ShardFailure::Injected));
                        continue;
                    }
                    FaultAction::Panic => {
                        panic!("injected panic: shard {shard} task {seq}")
                    }
                    FaultAction::Drop | FaultAction::DropConnection => {
                        guard.disarm();
                        continue;
                    }
                    FaultAction::CorruptFrame => {
                        guard.send(Err(ShardFailure::CorruptReply));
                        continue;
                    }
                }
            }
        }
        // Deadline shed: the gather stops listening at the round-1
        // budget; don't compute an answer nobody will read.
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                guard.send(Err(ShardFailure::TimedOut));
                continue;
            }
        }
        // Dispatch through the shard's transport: in-process runs the
        // memo → provider → cold resolution right here against the
        // router-shared caches; remote issues one framed RPC (the server
        // keeps its own caches) and maps socket failures to the
        // taxonomy.
        let t = Instant::now();
        let mut ctx = Round1Ctx {
            shard,
            deadline,
            providers: inner.providers.as_ref(),
            rounds: inner.rounds.as_ref(),
            build_threads: inner.build_threads,
            scratch: &mut scratch,
            provider_build: &inner.clock.metrics.provider_build,
        };
        let result = inner.transports[lane][replica as usize].round1(&query, &mut ctx);
        inner.shard_latency[lane].record(t.elapsed());
        if let Ok(ok) = &result {
            inner.gauges[lane].observe(ok.source);
        }
        guard.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::{Trajectory, TrajectorySet};

    /// Two far-separated 12-node lines; trajectories confined per region.
    fn fixture() -> (
        Arc<RoadNetwork>,
        TrajectorySet,
        Vec<NodeId>,
        RegionPartition,
    ) {
        let mut b = RoadNetworkBuilder::new();
        for region in 0..2 {
            let x0 = region as f64 * 1_000_000.0;
            let base = b.node_count() as u32;
            for i in 0..12 {
                b.add_node(Point::new(x0 + i as f64 * 100.0, 0.0));
            }
            for i in 0..11u32 {
                b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 100.0)
                    .unwrap();
            }
        }
        let net = Arc::new(b.build().unwrap());
        let mut trajs = TrajectorySet::for_network(&net);
        for s in 0..5u32 {
            trajs.add(Trajectory::new((s..s + 6).map(NodeId).collect()));
        }
        for s in 0..3u32 {
            trajs.add(Trajectory::new((12 + s..12 + s + 5).map(NodeId).collect()));
        }
        let sites: Vec<NodeId> = net.nodes().collect();
        let partition = RegionPartition::build(&net, 2);
        (net, trajs, sites, partition)
    }

    fn router(workers: usize) -> (ShardRouter, Arc<RoadNetwork>, TrajectorySet, Vec<NodeId>) {
        let (net, trajs, sites, partition) = fixture();
        let cfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
        let router = ShardRouter::start(
            Arc::clone(&net),
            sharded,
            ShardRouterConfig {
                workers,
                ..Default::default()
            },
        )
        .expect("start router");
        (router, net, trajs, sites)
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

    #[test]
    fn scatter_gather_matches_direct_sharded_query() {
        let (router, net, trajs, sites) = router(2);
        let cfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let partition = RegionPartition::build(&net, 2);
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
        for (k, tau) in [(1, 400.0), (2, 800.0), (3, 1_200.0)] {
            let q = TopsQuery::binary(k, tau);
            let served = router.query_blocking(q).unwrap();
            let direct = sharded.query(&q);
            assert_eq!(served.sites, direct.solution.sites, "k={k} τ={tau}");
            assert_eq!(served.epoch, 0);
            assert_eq!(served.shard_micros.len(), 2);
        }
        let report = router.metrics_report();
        assert_eq!(report.completed, 3);
        let shards = report.shards.expect("router report carries shards");
        assert_eq!(shards.fanout_queries, 3);
        assert_eq!(shards.lanes.len(), 2);
        assert_eq!(shards.lanes[0].queries, 3);
        assert_eq!(shards.lanes[1].queries, 3);
        assert_eq!(shards.trajectories, 8);
        router.shutdown();
    }

    #[test]
    fn routed_updates_keep_epochs_lockstep_and_ids_global() {
        let (router, ..) = router(2);
        assert_eq!(router.epoch(), 0);
        // A trajectory in region 1 only: shard 1 gets the op, shard 0 an
        // empty batch; both advance.
        let receipt = router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (14..19).map(NodeId).collect(),
        ))]);
        assert_eq!(receipt.epoch, 1);
        assert_eq!((receipt.applied, receipt.rejected), (1, 0));
        assert_eq!(router.shard_snapshot(0).epoch(), 1);
        assert_eq!(router.shard_snapshot(1).epoch(), 1);
        // Global id 8 was assigned; shard 0 must have a tombstone-aligned
        // bound even though it never saw the trajectory.
        assert_eq!(router.shard_snapshot(1).trajs().id_bound(), 9);
        assert!(router.shard_snapshot(1).trajs().get(TrajId(8)).is_some());
        assert!(router.shard_snapshot(0).trajs().get(TrajId(8)).is_none());
        // The next add lands on id 9 in *both* shards' id space.
        let receipt = router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (2..6).map(NodeId).collect(),
        ))]);
        assert_eq!(receipt.epoch, 2);
        assert!(router.shard_snapshot(0).trajs().get(TrajId(9)).is_some());
        assert_eq!(router.shard_snapshot(0).trajs().id_bound(), 10);
        // Queries see the new demand.
        let q = TopsQuery::binary(1, 600.0);
        let answer = router.query_blocking(q).unwrap();
        assert_eq!(answer.epoch, 2);
        router.shutdown();
    }

    #[test]
    fn update_replication_counters_track_adds_and_removes() {
        let (router, ..) = router(1);
        let before = router.metrics_report().shards.unwrap();
        assert_eq!(before.trajectories, 8);
        assert_eq!(before.boundary_trajs, 0);
        router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (0..4).map(NodeId).collect(),
        ))]);
        let after = router.metrics_report().shards.unwrap();
        assert_eq!(after.trajectories, 9);
        assert_eq!(after.replicas, 9);
        router.apply_updates(vec![UpdateOp::RemoveTrajectory(TrajId(8))]);
        let removed = router.metrics_report().shards.unwrap();
        assert_eq!(removed.trajectories, 8);
        // Site ops route to the owning shard; a duplicate add is rejected.
        let r = router.apply_updates(vec![
            UpdateOp::RemoveSite(NodeId(3)),
            UpdateOp::AddSite(NodeId(3)),
            UpdateOp::AddSite(NodeId(4)),
        ]);
        assert_eq!((r.applied, r.rejected), (2, 1));
        router.shutdown();
    }

    #[test]
    fn in_batch_add_then_remove_matches_sequential_semantics() {
        let (router, ..) = router(1);
        // Initial corpus bound is 8, so the add receives global id 8; the
        // remove later in the same batch must see it, like the monolithic
        // store's sequential apply would.
        let r = router.apply_updates(vec![
            UpdateOp::AddTrajectory(Trajectory::new((0..4).map(NodeId).collect())),
            UpdateOp::RemoveTrajectory(TrajId(8)),
            UpdateOp::RemoveTrajectory(TrajId(8)), // double remove: no-op
        ]);
        assert_eq!((r.applied, r.rejected), (2, 1));
        assert!(router.shard_snapshot(0).trajs().get(TrajId(8)).is_none());
        let rep = router.metrics_report().shards.unwrap();
        assert_eq!(rep.trajectories, 8, "replication gauge must unwind");
        assert_eq!(rep.replicas, 8);
        router.shutdown();
    }

    #[test]
    fn warm_queries_hit_caches_and_fill_the_hot_lane() {
        let (router, net, trajs, sites) = router(2);
        let cold = {
            let cfg = NetClusConfig {
                tau_min: 200.0,
                tau_max: 3_000.0,
                threads: 1,
                ..Default::default()
            };
            let partition = RegionPartition::build(&net, 2);
            let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
            ShardRouter::start(Arc::clone(&net), sharded, ShardRouterConfig::uncached())
                .expect("start router")
        };
        // Query 1 (k=3): cold — both shards build providers.
        // Query 2 (k=3, same τ): memo hit on both shards.
        // Query 3 (k=2, same τ): prefix hit (k' < memoized k).
        // Query 4 (k=5, same τ): memo miss, provider-cache hit, upgrade.
        for k in [3usize, 3, 2, 5] {
            let q = TopsQuery::binary(k, 800.0);
            let warm = router.query_blocking(q).unwrap();
            let reference = cold.query_blocking(q).unwrap();
            assert_eq!(warm.sites, reference.sites, "k={k}");
            assert_eq!(warm.utility.to_bits(), reference.utility.to_bits());
        }
        let report = router.metrics_report();
        let shards = report.shards.clone().expect("shard section");
        assert_eq!(shards.providers.misses, 2, "one build per shard, once");
        assert_eq!(shards.providers.hits, 2, "k=5 re-ran on cached providers");
        assert_eq!(shards.rounds.misses, 4, "{:?}", shards.rounds);
        assert_eq!(shards.rounds.hits, 4, "{:?}", shards.rounds);
        assert_eq!(shards.hot.count, 3, "three warm fan-outs");
        assert_eq!(shards.cold.count, 1, "one cold fan-out");
        assert!(report.provider_hit_rate() > 0.0);
        // The cold reference router never touched a cache.
        let creport = cold.metrics_report();
        let cshards = creport.shards.expect("shard section");
        assert_eq!(cshards.providers.hits + cshards.providers.misses, 0);
        assert_eq!(cshards.hot.count, 0);
        assert_eq!(cshards.cold.count, 4);
        router.shutdown();
        cold.shutdown();
    }

    #[test]
    fn epoch_advance_invalidates_router_caches() {
        let (router, ..) = router(1);
        let q = TopsQuery::binary(2, 700.0);
        router.query_blocking(q).unwrap();
        router.query_blocking(q).unwrap();
        let warm = router.metrics_report().shards.unwrap();
        assert!(warm.providers.entries > 0);
        assert!(warm.rounds.entries > 0);
        assert_eq!(warm.rounds.hits, 2, "one memo hit per shard");
        // An update advances the lockstep epoch and purges both caches.
        router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (0..4).map(NodeId).collect(),
        ))]);
        let purged = router.metrics_report().shards.unwrap();
        assert_eq!(purged.providers.entries, 0, "stale provider survived");
        assert_eq!(purged.rounds.entries, 0, "stale round survived");
        assert!(purged.providers.invalidated > 0);
        assert!(purged.rounds.invalidated > 0);
        // The next query rebuilds against the new epoch (a cold fan-out).
        let fresh = router.query_blocking(q).unwrap();
        assert_eq!(fresh.epoch, 1);
        let after = router.metrics_report().shards.unwrap();
        assert_eq!(after.cold.count, 2);
        router.shutdown();
    }

    #[test]
    fn invalid_queries_fail_fast_and_shutdown_is_terminal() {
        let (router, ..) = router(1);
        assert!(matches!(
            router.query_blocking(TopsQuery::binary(0, 500.0)),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            router.query_blocking(TopsQuery::binary(1, -4.0)),
            Err(SubmitError::Invalid(_))
        ));
        router.shutdown();
        router.shutdown();
        assert!(matches!(
            router.query_blocking(TopsQuery::binary(1, 500.0)),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn concurrent_queries_and_updates_never_tear() {
        let (router, ..) = router(3);
        let router = Arc::new(router);
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let r = Arc::clone(&router);
            let s = Arc::clone(&stop);
            scope.spawn(move || {
                for i in 0..20 {
                    r.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
                        ((i % 6)..(i % 6) + 4).map(NodeId).collect(),
                    ))]);
                }
                s.store(true, Ordering::Release);
            });
            for _ in 0..2 {
                let r = Arc::clone(&router);
                let s = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut n = 0u32;
                    while !s.load(Ordering::Acquire) || n == 0 {
                        let a = r.query_blocking(TopsQuery::binary(2, 700.0)).unwrap();
                        // The gather asserts lockstep internally; the
                        // answer must also be self-consistent.
                        assert!(a.epoch <= 20);
                        n += 1;
                    }
                });
            }
        });
        assert_eq!(router.epoch(), 20);
        router.shutdown();
    }

    use crate::fault::{BreakerState, FaultAction, FaultRule};

    #[test]
    fn injected_error_degrades_with_a_conservative_bound() {
        let (router, ..) = router(2);
        let q = TopsQuery::binary(2, 800.0);
        router.set_fault_plan(Some(
            FaultPlan::new(7).with_rule(FaultRule::always(1, FaultAction::Error)),
        ));
        let degraded = router.query(q, &QueryOptions::default()).unwrap();
        assert!(degraded.degraded);
        assert!(!degraded.stale);
        assert_eq!(degraded.shards_missing, vec![1]);
        assert!(degraded.utility > 0.0, "survivor still answers");
        // The bound must be conservative against the true achieved ratio.
        router.set_fault_plan(None);
        let full = router.query(q, &QueryOptions::default()).unwrap();
        assert!(!full.degraded);
        assert_eq!(full.utility_bound, 1.0);
        let true_ratio = degraded.utility / full.utility;
        assert!(
            degraded.utility_bound >= 0.0 && degraded.utility_bound <= 1.0,
            "bound out of range: {}",
            degraded.utility_bound
        );
        assert!(
            degraded.utility_bound <= true_ratio + 1e-9,
            "bound {} exceeds true ratio {true_ratio}",
            degraded.utility_bound
        );
        assert!(true_ratio <= 1.0 + 1e-9);
        let fault = router.fault_report();
        assert_eq!(fault.degraded_answers, 1);
        assert!(fault.shard_failures >= 1);
        router.shutdown();
    }

    #[test]
    fn full_outage_serves_stale_then_fails_typed() {
        let (router, ..) = router(2);
        let q = TopsQuery::binary(2, 800.0);
        // Warm the stale fallback with a full answer for this shape.
        let fresh = router.query(q, &QueryOptions::default()).unwrap();
        router.set_fault_plan(Some(
            FaultPlan::new(1)
                .with_rule(FaultRule::always(0, FaultAction::Error))
                .with_rule(FaultRule::always(1, FaultAction::Error)),
        ));
        let stale = router.query(q, &QueryOptions::default()).unwrap();
        assert!(stale.stale && stale.degraded);
        assert_eq!(stale.shards_missing, vec![0, 1]);
        assert_eq!(
            stale.sites, fresh.sites,
            "stale answer replays the cached one"
        );
        assert_eq!(stale.epoch, fresh.epoch);
        // A shape never answered before has no fallback: typed error.
        match router.query(TopsQuery::binary(3, 800.0), &QueryOptions::default()) {
            Err(QueryError::Unavailable { failures }) => {
                assert_eq!(failures.len(), 2);
                assert!(failures.iter().all(|(_, f)| *f == ShardFailure::Injected));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let fault = router.fault_report();
        assert_eq!(fault.stale_answers, 1);
        assert_eq!(fault.unavailable_answers, 1);
        router.shutdown();
    }

    #[test]
    fn deadline_bounds_the_wait_with_a_typed_error() {
        let (router, ..) = router(2);
        let q = TopsQuery::binary(2, 800.0);
        router.set_fault_plan(Some(
            FaultPlan::new(3)
                .with_rule(FaultRule::always(
                    0,
                    FaultAction::Delay(Duration::from_millis(400)),
                ))
                .with_rule(FaultRule::always(
                    1,
                    FaultAction::Delay(Duration::from_millis(400)),
                )),
        ));
        let start = Instant::now();
        let opts = QueryOptions::with_deadline(Duration::from_millis(60));
        match router.query(q, &opts) {
            Err(QueryError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::from_millis(60));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_millis(350),
            "query blocked past its budget: {:?}",
            start.elapsed()
        );
        assert!(router.fault_report().deadline_exceeded >= 1);
        // Once the delayed workers wake, their replies land on a gather
        // that already returned — counted, not silently ignored.
        router.set_fault_plan(None);
        let woke = Instant::now() + Duration::from_secs(5);
        while router.fault_report().abandoned_gathers == 0 && Instant::now() < woke {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(router.fault_report().abandoned_gathers >= 1);
        // The pool is healthy again afterwards.
        let ok = router.query(q, &QueryOptions::with_deadline(Duration::from_secs(30)));
        assert!(ok.unwrap().sites.len() == 2);
        router.shutdown();
    }

    #[test]
    fn slow_shard_degrades_within_the_budget() {
        let (router, ..) = router(2);
        let q = TopsQuery::binary(2, 800.0);
        // A budget wide enough that the healthy shard and the merge make
        // it on a loaded two-core host; the slow shard is 3× beyond it.
        router.set_fault_plan(Some(FaultPlan::new(5).with_rule(FaultRule::always(
            1,
            FaultAction::Delay(Duration::from_millis(1_500)),
        ))));
        let answer = router
            .query(q, &QueryOptions::with_deadline(Duration::from_millis(500)))
            .unwrap();
        assert!(answer.degraded);
        assert_eq!(answer.shards_missing, vec![1]);
        assert!(answer.utility_bound <= 1.0);
        assert!(router.fault_report().shard_timeouts >= 1);
        router.shutdown();
    }

    #[test]
    fn panicked_worker_is_typed_and_the_pool_respawns() {
        let (router, ..) = router(2);
        let q = TopsQuery::binary(2, 800.0);
        // Panic exactly once: shard 1's first task (seq 0) only.
        router.set_fault_plan(Some(FaultPlan::new(11).with_rule(FaultRule::outage(
            1,
            FaultAction::Panic,
            0,
            1,
        ))));
        let degraded = router.query(q, &QueryOptions::default()).unwrap();
        assert!(degraded.degraded, "panic must degrade, not wedge");
        assert_eq!(degraded.shards_missing, vec![1]);
        // The respawned worker serves shard 1 again (seq 1 is clean).
        let healed = router.query(q, &QueryOptions::default()).unwrap();
        assert!(!healed.degraded);
        // The typed reply races the supervisor's bookkeeping (the guard
        // fires during the unwind, before catch_unwind lands) — wait for
        // the counters rather than sampling them.
        let until = Instant::now() + Duration::from_secs(5);
        while router.fault_report().worker_respawns == 0 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(5));
        }
        let fault = router.fault_report();
        assert_eq!(fault.worker_panics, 1);
        assert_eq!(fault.worker_respawns, 1);
        router.shutdown();
    }

    #[test]
    fn breaker_opens_skips_and_recovers_through_a_probe() {
        let (net, trajs, sites, partition) = fixture();
        let cfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
        let router = ShardRouter::start(
            Arc::clone(&net),
            sharded,
            ShardRouterConfig {
                workers: 2,
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_millis(40),
                },
                ..Default::default()
            },
        )
        .expect("start router");
        let q = TopsQuery::binary(2, 800.0);
        router.set_fault_plan(Some(
            FaultPlan::new(2).with_rule(FaultRule::always(1, FaultAction::Error)),
        ));
        // Failure 1 trips the threshold-1 breaker open.
        let first = router.query(q, &QueryOptions::default()).unwrap();
        assert!(first.degraded);
        assert_eq!(router.breaker_snapshots()[1].state, BreakerState::Open);
        // While open and inside the cooldown, the shard is skipped at
        // scatter — no task is even queued for it.
        let skipped = router.query(q, &QueryOptions::default()).unwrap();
        assert!(skipped.degraded);
        assert!(router.fault_report().breaker_skips >= 1);
        // Recovery: clear the faults, wait out the cooldown; the next
        // query rides a half-open probe and closes the breaker.
        router.set_fault_plan(None);
        std::thread::sleep(Duration::from_millis(50));
        let probed = router.query(q, &QueryOptions::default()).unwrap();
        assert!(!probed.degraded, "successful probe restores the shard");
        let snap = &router.breaker_snapshots()[1];
        assert_eq!(snap.state, BreakerState::Closed);
        assert!(snap.opens >= 1 && snap.probes >= 1 && snap.closes >= 1);
        let fault = router.fault_report();
        assert!(fault.breaker_opens >= 1);
        assert!(fault.breaker_closes >= 1);
        assert_eq!(fault.breaker_open_shards, 0);
        // The telemetry payload reflects the recovered state.
        let json = router.breakers_json();
        assert!(json.contains("\"shards\":2"), "{json}");
        assert!(json.contains("\"open\":0"), "{json}");
        assert!(json.contains("\"breaker1_state\":\"closed\""), "{json}");
        router.shutdown();
    }

    fn replicated(replicas: usize, cfg: ShardRouterConfig) -> ShardRouter {
        let (net, trajs, sites, partition) = fixture();
        let ncfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, ncfg);
        ShardRouter::start_replicated(net, sharded, replicas, cfg).expect("start replicated router")
    }

    #[test]
    fn replica_failover_preserves_the_answer_bit_for_bit() {
        let router = replicated(2, ShardRouterConfig::default());
        assert_eq!(router.replica_counts(), vec![2, 2]);
        assert_eq!(router.replica_breaker_snapshots(0).len(), 2);
        assert_eq!(router.replica_lag_max(), 0);
        let q = TopsQuery::binary(2, 800.0);
        let reference = router.query_blocking(q).unwrap();
        assert!(!reference.degraded);
        // Kill the preferred replica (0) of BOTH shards: every scatter
        // fails over to the sibling, and the answer must not change by a
        // single bit — replicas serve the identical deterministic round 1.
        router.set_fault_plan(Some(
            FaultPlan::new(21)
                .with_rule(FaultRule::always(0, FaultAction::Error).on_replica(0))
                .with_rule(FaultRule::always(1, FaultAction::Error).on_replica(0)),
        ));
        let failed_over = router.query_blocking(q).unwrap();
        assert!(!failed_over.degraded && !failed_over.stale);
        assert_eq!(failed_over.sites, reference.sites);
        assert_eq!(
            failed_over.utility.to_bits(),
            reference.utility.to_bits(),
            "failover answer must be bit-identical"
        );
        let fault = router.fault_report();
        assert_eq!(fault.degraded_answers, 0);
        assert!(fault.replica_failovers >= 2, "{fault:?}");
        // The winners became the preferred cursors: the next query goes
        // straight to the survivors without another failover.
        let failovers = fault.replica_failovers;
        let again = router.query_blocking(q).unwrap();
        assert!(!again.degraded);
        assert_eq!(router.fault_report().replica_failovers, failovers);
        router.shutdown();
    }

    #[test]
    fn hedge_fires_on_a_slow_preferred_replica_and_wins() {
        let router = replicated(2, ShardRouterConfig::default());
        let q = TopsQuery::binary(2, 800.0);
        let reference = router.query_blocking(q).unwrap();
        // Shard 0's preferred replica stalls far past the hedge delay;
        // the hedge wave fires its sibling, which wins the lane.
        router.set_fault_plan(Some(FaultPlan::new(23).with_rule(
            FaultRule::always(0, FaultAction::Delay(Duration::from_millis(400))).on_replica(0),
        )));
        let hedged = router.query_blocking(q).unwrap();
        assert!(!hedged.degraded && !hedged.stale);
        assert_eq!(hedged.sites, reference.sites);
        assert_eq!(hedged.utility.to_bits(), reference.utility.to_bits());
        let fault = router.fault_report();
        assert!(fault.hedged_requests >= 1, "{fault:?}");
        assert!(fault.hedge_wins >= 1, "{fault:?}");
        assert_eq!(fault.degraded_answers, 0);
        router.shutdown();
    }

    /// Two replicas a shard, breakers that trip on the first failure and
    /// probe 40 ms later.
    fn quick_tripping_pair() -> ShardRouter {
        replicated(
            2,
            ShardRouterConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_millis(40),
                },
                ..Default::default()
            },
        )
    }

    /// `action` on every task of shard 0's replica `replica`.
    fn fault_on(replica: u32, action: FaultAction) -> Option<FaultPlan> {
        Some(FaultPlan::new(29).with_rule(FaultRule::always(0, action).on_replica(replica)))
    }

    /// The breaker of `(shard 0, replica)` once its in-flight probe, if
    /// any, has been settled by the worker running it — which may be after
    /// the probing query returned, when the sibling answered first.
    fn settled(router: &ShardRouter, replica: usize) -> BreakerSnapshot {
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = router.replica_breaker_snapshots(0)[replica];
            if snap.state != BreakerState::HalfOpen || Instant::now() >= until {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn half_open_probe_rides_alongside_the_healthy_replica() {
        let router = quick_tripping_pair();
        let q = TopsQuery::binary(2, 800.0);
        router.set_fault_plan(fault_on(0, FaultAction::Error));
        // Failure 1 trips replica (0,0)'s breaker; the sibling serves.
        let first = router.query_blocking(q).unwrap();
        assert!(!first.degraded);
        assert_eq!(
            router.replica_breaker_snapshots(0)[0].state,
            BreakerState::Open
        );
        // Past the cooldown, the half-open probe fires IN ADDITION to the
        // healthy sibling — a still-broken replica failing its probe must
        // not cost the shard its full answer.
        std::thread::sleep(Duration::from_millis(50));
        let probed = router.query_blocking(q).unwrap();
        assert!(!probed.degraded, "probe stole the healthy replica's slot");
        let probe = settled(&router, 0);
        assert_eq!(probe.state, BreakerState::Open, "failed probe reopens");
        assert!(probe.probes >= 1);
        assert_eq!(
            router.replica_breaker_snapshots(0)[1].state,
            BreakerState::Closed
        );
        assert_eq!(router.fault_report().degraded_answers, 0);
        // Once the replica heals, its next probe closes the breaker and
        // the full set serves again.
        router.set_fault_plan(None);
        std::thread::sleep(Duration::from_millis(50));
        let healed = router.query_blocking(q).unwrap();
        assert!(!healed.degraded);
        assert_eq!(settled(&router, 0).state, BreakerState::Closed);
        router.shutdown();
    }

    #[test]
    fn probe_outliving_its_gather_still_settles_the_breaker() {
        let router = quick_tripping_pair();
        let q = TopsQuery::binary(2, 800.0);
        router.set_fault_plan(fault_on(0, FaultAction::Error));
        assert!(!router.query_blocking(q).unwrap().degraded);
        assert_eq!(settled(&router, 0).state, BreakerState::Open);
        // Past the cooldown the replica answers again, but 30 ms late: its
        // probe loses to the sibling, so the gather is over before the
        // probe's reply exists.
        router.set_fault_plan(fault_on(0, FaultAction::Delay(Duration::from_millis(30))));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!router.query_blocking(q).unwrap().degraded);
        router.set_fault_plan(None);
        // The worker that ran the probe closes the breaker all the same...
        let probe = settled(&router, 0);
        assert_eq!(probe.state, BreakerState::Closed);
        assert_eq!((probe.probes, probe.closes), (1, 1));
        // ...so the replica serves again: with its sibling dead the shard
        // still answers in full.
        router.set_fault_plan(fault_on(1, FaultAction::Error));
        assert!(!router.query_blocking(q).unwrap().degraded);
        router.shutdown();
    }

    /// Test-only transport wrapper whose `apply` can be switched to fail,
    /// making its replica miss batches and fall behind the lockstep epoch.
    struct FlakyApply {
        inner: InProcessShard,
        fail: Arc<AtomicBool>,
    }

    impl ShardTransport for FlakyApply {
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
        fn round1(
            &self,
            query: &TopsQuery,
            ctx: &mut Round1Ctx<'_>,
        ) -> Result<Round1Ok, ShardFailure> {
            self.inner.round1(query, ctx)
        }
        fn apply(&self, ops: &[RoutedOp]) -> Result<ShardApplyOutcome, ShardFailure> {
            if self.fail.load(Ordering::Acquire) {
                return Err(ShardFailure::Unreachable);
            }
            self.inner.apply(ops)
        }
        fn epoch(&self) -> u64 {
            self.inner.epoch()
        }
        fn fetch_resync(&self) -> Result<ResyncSnapshot, ShardFailure> {
            self.inner.fetch_resync()
        }
        fn install_resync(&self, snap: &ResyncSnapshot) -> Result<(), ShardFailure> {
            self.inner.install_resync(snap)
        }
    }

    /// A 2-shard × 2-replica router where replica `(0, 1)`'s apply path
    /// is gated on the returned flag — flip it to make that replica miss
    /// batches and fall behind the lockstep epoch.
    fn flaky_replica_router() -> (ShardRouter, Arc<AtomicBool>) {
        let (net, trajs, sites, partition) = fixture();
        let ncfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, ncfg);
        let next_id = sharded.traj_id_bound() as u64;
        let (partition, shards, replication) = sharded.into_parts();
        let fail = Arc::new(AtomicBool::new(false));
        let transports: Vec<Vec<Box<dyn ShardTransport>>> = shards
            .into_iter()
            .enumerate()
            .map(|(s, NetClusShard { trajs, index, .. })| {
                let store = |t: &TrajectorySet, i: &NetClusIndex| {
                    InProcessShard::new(SnapshotStore::with_shared_net(
                        Arc::clone(&net),
                        t.clone(),
                        i.clone(),
                    ))
                };
                let primary = Box::new(store(&trajs, &index)) as Box<dyn ShardTransport>;
                let sibling: Box<dyn ShardTransport> = if s == 0 {
                    Box::new(FlakyApply {
                        inner: store(&trajs, &index),
                        fail: Arc::clone(&fail),
                    })
                } else {
                    Box::new(store(&trajs, &index))
                };
                vec![primary, sibling]
            })
            .collect();
        let router = ShardRouter::start_with_replica_transports(
            Arc::clone(&net),
            partition,
            transports,
            next_id,
            0,
            replication,
            ShardRouterConfig::default(),
        )
        .expect("start router");
        (router, fail)
    }

    #[test]
    fn resync_catches_a_lagging_replica_up_to_the_live_epoch() {
        let (router, fail) = flaky_replica_router();
        // Replica (0,1) misses one batch and falls behind the lockstep
        // epoch; answers keep flowing from the caught-up replicas.
        fail.store(true, Ordering::Release);
        let receipt = router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (0..4).map(NodeId).collect(),
        ))]);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(router.replica_lag_max(), 1, "missed batch shows as lag");
        let q = TopsQuery::binary(2, 800.0);
        let reference = router.query_blocking(q).unwrap();
        assert!(!reference.degraded);
        assert_eq!(reference.epoch, 1);
        // Catch-up: resync from the healthy sibling restores the replica
        // to the live epoch wholesale.
        fail.store(false, Ordering::Release);
        assert_eq!(router.resync_replica(0, 1), Ok(1));
        assert_eq!(router.replica_lag_max(), 0);
        assert_eq!(router.fault_report().resyncs, 1);
        // The resynced replica serves the identical answer when the
        // former primary goes down.
        router.set_fault_plan(Some(
            FaultPlan::new(31).with_rule(FaultRule::always(0, FaultAction::Error).on_replica(0)),
        ));
        let served = router.query_blocking(q).unwrap();
        assert!(!served.degraded && !served.stale);
        assert_eq!(served.sites, reference.sites);
        assert_eq!(
            served.utility.to_bits(),
            reference.utility.to_bits(),
            "resynced replica must serve the bit-identical answer"
        );
        assert!(router.fault_report().replica_failovers >= 1);
        router.shutdown();
    }

    #[test]
    fn fault_counters_flow_into_flight_series() {
        let (router, ..) = router(1);
        router.set_fault_plan(Some(
            FaultPlan::new(9).with_rule(FaultRule::always(1, FaultAction::Error)),
        ));
        router
            .query(TopsQuery::binary(1, 600.0), &QueryOptions::default())
            .unwrap();
        let sample = router.flight_sample();
        let get = |key: &str| {
            sample
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} missing from flight sample"))
                .1
        };
        assert_eq!(get("degraded_answers"), 1.0);
        assert!(get("shard_failures") >= 1.0);
        assert_eq!(get("breaker_opens"), 0.0);
        router.shutdown();
    }

    /// The replica-divergence SLO: a ceiling of zero on the
    /// `replica_lag_max` flight series fires while any replica is behind
    /// the lockstep epoch and clears once a resync catches it up.
    #[test]
    fn replica_divergence_slo_fires_on_lag_and_clears_after_resync() {
        let (router, fail) = flaky_replica_router();
        let recorder = crate::FlightRecorder::new(crate::FlightConfig {
            tick: Duration::from_secs(1),
            capacity: 64,
            downsample_every: 8,
            coarse_capacity: 8,
        });
        let health = crate::HealthEvaluator::new().with_rule(crate::SloRule::ceiling(
            "replica_divergence",
            "replica_lag_max",
            0.0,
            crate::Severity::Degrading,
        ));
        recorder.record_at(0.0, &router.flight_sample());
        assert_eq!(health.evaluate(&recorder).verdict, crate::Verdict::Healthy);

        // Replica (0,1) misses a batch: the gauge goes positive and the
        // ceiling rule fires by name.
        fail.store(true, Ordering::Release);
        router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (0..4).map(NodeId).collect(),
        ))]);
        recorder.record_at(1.0, &router.flight_sample());
        let report = health.evaluate(&recorder);
        assert_eq!(report.verdict, crate::Verdict::Degraded);
        assert_eq!(report.firing(), vec!["replica_divergence"]);

        // Catch-up resync clears the divergence and the verdict.
        fail.store(false, Ordering::Release);
        assert_eq!(router.resync_replica(0, 1), Ok(1));
        recorder.record_at(2.0, &router.flight_sample());
        assert_eq!(health.evaluate(&recorder).verdict, crate::Verdict::Healthy);
        router.shutdown();
    }
}
