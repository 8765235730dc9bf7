//! The scatter-gather shard router: replica sets of shard transports, a
//! fan-out worker pool, and the two-round distributed greedy over them.
//!
//! [`ShardRouter`] is the sharded sibling of
//! [`NetClusService`](crate::executor::NetClusService). It owns one
//! replica set of [`ShardTransport`]s per shard of a
//! [`netclus::ShardedNetClusIndex`] (all sharing the same `Arc`-held road
//! network) and answers each query by
//!
//! 1. **scattering** one round-1 task per shard onto its worker pool —
//!    each worker pins that shard's snapshot, builds the τ-provider with
//!    its reusable scratch and runs the local arena-backed Inc-Greedy for
//!    `k` local candidates;
//! 2. **gathering** the candidate union and running the exact round-2
//!    greedy on the merged coverage view (see `netclus::shard` for the
//!    approximation contract).
//!
//! This module holds the router's configuration, construction and
//! reporting; the rest lives with its subject and is re-exported here:
//!
//! * `transport` — where a replica's data lives ([`ShardTransport`],
//!   [`InProcessShard`], [`RemoteShard`]) and the round-1 cache stack
//!   every transport resolves through;
//! * `replica_set` — a shard's replicas, breakers and preferred cursor,
//!   and the thread-free state machine of one gather: which replica is
//!   fired, hedged, failed over to and charged, and when a shard
//!   resolves;
//! * `scatter` — the driver of [`ShardRouter::query`] (admission → plan →
//!   enqueue → wait → merge → reply) and the worker pool;
//! * `apply` — [`ShardRouter::apply_updates`] and
//!   [`ShardRouter::resync_replica`].
//!
//! ## Epoch lockstep
//!
//! Updates are routed: a trajectory add is assigned a **global** id by the
//! router and shipped only to the shards it touches
//! ([`RoutedOp::AddTrajectoryAt`](crate::snapshot::RoutedOp)), while every
//! other shard publishes an empty batch — so all shard stores advance
//! epochs in lockstep and a gather never mixes epochs. Queries hold a
//! shared read guard against the router's update lock for the duration of
//! one fan-out; updates take the write side, so a scatter observes either
//! all-old or all-new shards, never a torn mix. A shard that answers at an
//! epoch behind the router's lockstep epoch — possible only for a remote
//! shard that missed an apply — is demoted to
//! [`ShardFailure::EpochSkew`] at gather time and the answer degrades
//! with a sound utility bound instead of tearing.
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
//!   round 1 gets `ROUND1_BUDGET_FRACTION` of it, round 2 the
//!   remainder; a blown budget is a typed
//!   [`QueryError::DeadlineExceeded`], never an unbounded wait.
//! * **Circuit breakers** — one
//!   `CircuitBreaker` per replica:
//!   repeated failures open it, open replicas are skipped at scatter
//!   time, and a half-open probe closes it once the replica recovers.
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

#![deny(clippy::too_many_lines)]

mod apply;
mod scatter;
mod transport;

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use netclus::{NetClusShard, ReplicationStats, ShardedNetClusIndex};
use netclus_roadnet::{NodeId, RegionPartition, RoadNetwork};

use crate::fault::{BreakerConfig, BreakerSnapshot, BreakerState, FaultPlan};
#[cfg(doc)]
use crate::fault::{QueryError, ShardFailure};
use crate::metrics::{
    FaultReport, LatencyHistogram, MetricsClock, MetricsReport, ShardLaneReport, ShardReport,
};
use crate::provider_cache::{RoundOneCache, ShardProviderCache};
use crate::replica_set::{FaultCounters, ReplicaSet};
use crate::snapshot::{SnapshotStore, UpdateOp, UpdateReceipt, UpdateSink};
use crate::trace::{TraceConfig, Tracer};
use crate::{jsonl, lock_recover};
use scatter::{worker_entry, RouterQueue, StaleAnswers};

pub use transport::{
    install_resync_snapshot, InProcessShard, RemoteShard, RemoteShardConfig, Round1Ctx, Round1Ok,
    ShardApplyOutcome, ShardTransport, TransportCounters,
};
pub(crate) use transport::{resolve_round1, TransportSnapshot};

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
pub(crate) const ROUND1_BUDGET_FRACTION: f64 = 0.75;

/// Fraction of the round-1 budget the gather waits before **hedging**: a
/// shard that has not answered by then gets a second round-1 request on
/// its next healthy replica, and the first bit-identical answer wins.
/// Replicas pin the same lockstep epoch, so either answer is the answer;
/// hedging trades one redundant RPC for tail latency only when round 1
/// is already slower than the typical reply.
pub(crate) const HEDGE_DELAY_FRACTION: f64 = 0.25;

/// Per-query execution options for [`ShardRouter::query`].
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOptions {
    /// Optional end-to-end deadline. Round 1 gets
    /// `ROUND1_BUDGET_FRACTION` of it (shards that miss the budget are
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

fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
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
    /// One replica set per shard, in shard order: its transports,
    /// breakers, preferred cursor and lane statistics.
    shards: Vec<ReplicaSet>,
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
    /// Fast-path flag for the fault-injection hook: workers check this
    /// one relaxed load per task and only read the plan when it is set.
    fault_on: AtomicBool,
    /// The installed fault plan, if any (see [`FaultPlan`]).
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Central fault counters (the `FaultReport` section).
    faultc: FaultCounters,
    /// Stale-answer fallback; `None` when disabled (capacity 0).
    stale: Option<StaleAnswers>,
}

impl RouterInner {
    /// Every replica's transport, shard by shard.
    fn replicas(&self) -> impl Iterator<Item = &dyn ShardTransport> + Clone {
        let sets = self.shards.iter();
        sets.flat_map(|set| set.transports.iter().map(|t| &**t))
    }

    /// The largest number of epochs any replica lags `epoch` by.
    fn lag_max(&self, epoch: u64) -> u64 {
        let lags = self.replicas().map(|t| epoch.saturating_sub(t.epoch()));
        lags.max().unwrap_or(0)
    }

    /// Transport RPC rollup across remote replicas: counts sum, and the
    /// latency percentiles and mean are those of one histogram holding
    /// every replica's samples (`TransportCounters::rollup`).
    fn transport_rollup(&self) -> TransportSnapshot {
        TransportCounters::rollup(self.replicas().filter_map(ShardTransport::counters))
    }
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
        // Default worker count: one lane per *replica*, so a hedged
        // second attempt never queues behind the slow primary it is
        // meant to overtake. With single-replica shards this is one
        // worker per shard.
        let total_replicas: usize = transports.iter().map(Vec::len).sum();
        let workers = if cfg.workers == 0 {
            total_replicas
        } else {
            cfg.workers
        }
        .max(1);
        let inner = Arc::new(RouterInner {
            net,
            partition,
            shards: transports
                .into_iter()
                .map(|set| ReplicaSet::new(set, cfg.breaker))
                .collect(),
            update_lock: RwLock::new(UpdateState {
                next_id,
                epoch,
                replication,
            }),
            queue: Mutex::new(RouterQueue::default()),
            queue_cv: Condvar::new(),
            stopping: AtomicBool::new(false),
            clock: MetricsClock::default(),
            providers: (cfg.provider_cache_capacity > 0)
                .then(|| ShardProviderCache::new(cfg.provider_cache_capacity)),
            rounds: (cfg.round_memo_capacity > 0)
                .then(|| RoundOneCache::new(cfg.round_memo_capacity)),
            merge_latency: LatencyHistogram::default(),
            hot_latency: LatencyHistogram::default(),
            cold_latency: LatencyHistogram::default(),
            fanout_queries: AtomicU64::new(0),
            tracer: Tracer::new(cfg.trace),
            fault_on: AtomicBool::new(false),
            fault_plan: RwLock::new(None),
            faultc: FaultCounters::default(),
            stale: (cfg.stale_cache_capacity > 0)
                .then(|| StaleAnswers::new(cfg.stale_cache_capacity)),
        });
        let router = ShardRouter {
            inner,
            workers: Mutex::new(Vec::with_capacity(workers)),
        };
        for i in 0..workers {
            let worker_inner = Arc::clone(&router.inner);
            // On an error `router` drops, which stops and joins the
            // workers spawned so far.
            let handle = std::thread::Builder::new()
                .name(format!("netclus-shard-worker-{i}"))
                .spawn(move || worker_entry(&worker_inner))?;
            lock_recover(&router.workers).push(handle);
        }
        Ok(router)
    }

    /// Number of shards served.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The authoritative lockstep epoch (what every keeping-up shard
    /// publishes).
    pub fn epoch(&self) -> u64 {
        read_recover(&self.inner.update_lock).epoch
    }

    /// Transport tags in shard order (`"in_process"` / `"remote"`),
    /// reported from each shard's first replica.
    pub fn transport_kinds(&self) -> Vec<&'static str> {
        let shards = self.inner.shards.iter();
        shards.map(|set| set.transports[0].kind()).collect()
    }

    /// The node partition queries are routed by.
    pub fn partition(&self) -> &RegionPartition {
        &self.inner.partition
    }

    /// Installs (or clears, with `None`) the fault-injection plan the
    /// workers consult per round-1 task. Zero-cost when cleared: workers
    /// check one relaxed atomic before touching the plan. The query-path
    /// sibling of the ingest publisher's `set_publish_stall`.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut slot = write_recover(&self.inner.fault_plan);
        self.inner.fault_on.store(plan.is_some(), Ordering::Release);
        *slot = plan.map(Arc::new);
    }

    /// Point-in-time per-shard breaker snapshots, in shard order: each
    /// shard reports its **preferred replica's** breaker (with one
    /// replica per shard that is *the* breaker, as before replication).
    pub fn breaker_snapshots(&self) -> Vec<BreakerSnapshot> {
        let shards = self.inner.shards.iter();
        let preferred = |set: &ReplicaSet| set.breaker_snapshots().nth(set.preferred().0 as usize);
        shards
            .map(|set| preferred(set).expect("the cursor is on a replica"))
            .collect()
    }

    /// Point-in-time breaker snapshots of every replica of shard `s`, in
    /// replica order.
    pub fn replica_breaker_snapshots(&self, s: usize) -> Vec<BreakerSnapshot> {
        self.inner.shards[s].breaker_snapshots().collect()
    }

    /// Per-shard replica-set sizes, in shard order.
    pub fn replica_counts(&self) -> Vec<usize> {
        let shards = self.inner.shards.iter();
        shards.map(|set| set.transports.len()).collect()
    }

    /// Single-line JSON of every shard's breaker state — the payload of
    /// the telemetry `breakers` command.
    pub fn breakers_json(&self) -> String {
        let snaps = self.breaker_snapshots();
        let open = snaps.iter().filter(|b| b.state == BreakerState::Open);
        jsonl::object(|o| {
            o.int("shards", snaps.len());
            o.int("open", open.count());
            for (i, snap) in snaps.iter().enumerate() {
                let key = |field: &str| format!("breaker{i}_{field}");
                o.str(&key("state"), snap.state.name());
                o.int(&key("consecutive_failures"), snap.consecutive_failures);
                o.int(&key("opens"), snap.opens);
                o.int(&key("probes"), snap.probes);
                o.int(&key("closes"), snap.closes);
            }
        })
    }

    /// Pins shard `s`'s current snapshot (out-of-band inspection; with
    /// replicas, the preferred replica's).
    ///
    /// # Panics
    /// When shard `s` is served by a remote transport — a remote shard's
    /// snapshot is not addressable from the router process.
    pub fn shard_snapshot(&self, s: usize) -> Arc<crate::snapshot::Snapshot> {
        let (_, transport) = self.inner.shards[s].preferred();
        transport
            .local_store()
            .expect("shard_snapshot requires an in-process shard")
            .load()
    }

    /// The replica-divergence gauge: the largest number of epochs any
    /// replica lags the lockstep epoch by, across every shard. Zero when
    /// every replica of every shard is caught up — the steady state; a
    /// persistent positive lag means a replica is missing applies and
    /// needs a resync.
    pub fn replica_lag_max(&self) -> u64 {
        self.inner.lag_max(self.epoch())
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
        let rpc = inner.transport_rollup();
        let lanes = inner.shards.iter().enumerate().map(|(s, set)| {
            let gauge = set.gauge.snapshot();
            ShardLaneReport {
                shard: s as u32,
                queries: set.tasks.load(Ordering::Relaxed),
                latency: set.latency.summary(),
                replicated_trajs: replication.per_shard.get(s).copied().unwrap_or(0) as u64,
                qps_ewma: gauge.qps_ewma,
                cache_heat: gauge.cache_heat,
                cold_fraction: gauge.cold_fraction,
                transport: set.transports[0].kind(),
            }
        });
        report.shards = Some(ShardReport {
            lanes: lanes.collect(),
            merge: inner.merge_latency.summary(),
            fanout_queries: inner.fanout_queries.load(Ordering::Relaxed),
            providers: provider_stats,
            rounds: round_stats,
            hot: inner.hot_latency.summary(),
            cold: inner.cold_latency.summary(),
            trajectories: replication.trajectories as u64,
            boundary_trajs: replication.boundary as u64,
            replicas: replication.replicas as u64,
            replica_lag_max: inner.lag_max(epoch),
            fault: self.fault_report(),
            transport_requests: rpc.requests,
            transport_errors: rpc.errors,
            transport_reconnects: rpc.reconnects,
            transport_rpc: rpc.rpc,
        });
        // Arena residency is only meaningful when every replica's index
        // lives in this process; a cluster of remote shards reports none.
        report.process.arena_resident_bytes = inner
            .replicas()
            .map(|t| Some(t.local_store()?.load().index().heap_size_bytes() as u64))
            .sum();
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
        let breakers = || inner.shards.iter().flat_map(ReplicaSet::breaker_snapshots);
        // A shard counts as breaker-open only when **every** replica's
        // breaker is open — one healthy replica keeps it serving.
        let all_open = |set: &&ReplicaSet| {
            let mut states = set.breaker_snapshots().map(|b| b.state);
            states.all(|state| state == BreakerState::Open)
        };
        FaultReport {
            degraded_answers: c.degraded_answers.load(Ordering::Relaxed),
            stale_answers: c.stale_answers.load(Ordering::Relaxed),
            shard_failures: c.shard_failures.load(Ordering::Relaxed),
            shard_timeouts: c.shard_timeouts.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            breaker_opens: breakers().map(|b| b.opens).sum(),
            breaker_probes: breakers().map(|b| b.probes).sum(),
            breaker_closes: breakers().map(|b| b.closes).sum(),
            breaker_skips: c.breaker_skips.load(Ordering::Relaxed),
            breaker_open_shards: inner.shards.iter().filter(all_open).count() as u64,
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
        lock_recover(&self.inner.queue).shutdown = true;
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::executor::SubmitError;
    use crate::fault::{QueryError, ShardFailure};
    use crate::shard_proto::ResyncSnapshot;
    use crate::snapshot::RoutedOp;
    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
    use std::time::Instant;

    mod fanout;

    /// Two far-separated 12-node lines; trajectories confined per region.
    pub(crate) fn fixture() -> (
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
        // A trajectory with nodes in both regions is replicated into both
        // shards and counted once as a boundary trajectory.
        let lane_trajs = |report: &ShardReport| -> Vec<u64> {
            report.lanes.iter().map(|l| l.replicated_trajs).collect()
        };
        assert_eq!(lane_trajs(&removed), [5, 3]);
        let r = router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(
            (10..14).map(NodeId).collect(),
        ))]);
        assert_eq!((r.applied, r.rejected), (1, 0));
        let crossing = router.metrics_report().shards.unwrap();
        assert_eq!(crossing.boundary_trajs, 1);
        assert_eq!((crossing.trajectories, crossing.replicas), (9, 10));
        assert_eq!(lane_trajs(&crossing), [6, 4]);
        router.apply_updates(vec![UpdateOp::RemoveTrajectory(TrajId(9))]);
        let uncrossed = router.metrics_report().shards.unwrap();
        assert_eq!(uncrossed.boundary_trajs, 0);
        assert_eq!((uncrossed.trajectories, uncrossed.replicas), (8, 8));
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
        // A batch with a site op on each shard advances the lockstep epoch
        // and purges both caches: a representative may have moved.
        let receipt = router.apply_updates(vec![
            UpdateOp::AddTrajectory(Trajectory::new((0..4).map(NodeId).collect())),
            UpdateOp::RemoveSite(NodeId(3)),
            UpdateOp::RemoveSite(NodeId(15)),
        ]);
        assert_eq!(receipt.applied, 3);
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

    /// A batch of trajectory adds and removes carries every shard's rows
    /// into the new lockstep epoch, patched under the update lock — the
    /// shard the batch left alone too — while the memo is purged. The
    /// next query builds no rows and answers what an uncached router
    /// answers at that epoch.
    #[test]
    fn trajectory_only_publish_carries_router_rows() {
        let batch = || {
            vec![
                UpdateOp::AddTrajectory(Trajectory::new((1..6).map(NodeId).collect())),
                UpdateOp::RemoveTrajectory(TrajId(1)),
                UpdateOp::AddTrajectory(Trajectory::new((2..5).map(NodeId).collect())),
            ]
        };
        let q = TopsQuery::binary(2, 700.0);
        let (router, net, trajs, sites) = router(1);
        router.query_blocking(q).unwrap();
        let warm = router.metrics_report().shards.unwrap();
        assert_eq!(warm.providers.entries, 2, "one row set per shard");
        assert_eq!(router.apply_updates(batch()).applied, 3);
        let carried = router.metrics_report().shards.unwrap();
        assert_eq!(carried.providers.entries, 2, "rows were purged");
        assert_eq!(carried.providers.invalidated, 0);
        assert_eq!(carried.rounds.entries, 0, "stale round survived");
        let answer = router.query_blocking(q).unwrap();
        assert_eq!(answer.epoch, 1);
        let after = router.metrics_report().shards.unwrap();
        assert_eq!(
            after.providers.misses, warm.providers.misses,
            "carried rows were rebuilt"
        );

        let cfg = NetClusConfig {
            tau_min: 200.0,
            tau_max: 3_000.0,
            threads: 1,
            ..Default::default()
        };
        let partition = RegionPartition::build(&net, 2);
        let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
        let uncached =
            ShardRouter::start(net, sharded, ShardRouterConfig::uncached()).expect("start router");
        uncached.apply_updates(batch());
        let want = uncached.query_blocking(q).unwrap();
        assert_eq!(want.epoch, 1);
        assert_eq!(answer.sites, want.sites);
        assert_eq!(answer.utility.to_bits(), want.utility.to_bits());
        assert_eq!(answer.covered, want.covered);
        router.shutdown();
        uncached.shutdown();
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
        // Both shards answer 3× past the deadline, which is itself wide
        // enough that a loaded two-core host reaches the gather's wait
        // before it runs out.
        let delay = Duration::from_millis(1_500);
        router.set_fault_plan(Some(
            FaultPlan::new(3)
                .with_rule(FaultRule::always(0, FaultAction::Delay(delay)))
                .with_rule(FaultRule::always(1, FaultAction::Delay(delay))),
        ));
        let start = Instant::now();
        let opts = QueryOptions::with_deadline(Duration::from_millis(500));
        match router.query(q, &opts) {
            Err(QueryError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::from_millis(500));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            start.elapsed() < delay,
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
        // Recovery: clear the faults; the first query past the cooldown
        // rides a half-open probe and closes the breaker.
        router.set_fault_plan(None);
        let (probed, _) = query_until(&router, q, 1, 0, |b| b.state == BreakerState::Closed);
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
            FaultRule::always(0, FaultAction::Delay(Duration::from_millis(1_500))).on_replica(0),
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

    /// The breaker of `(shard, replica)` once its in-flight probe, if any,
    /// has been settled by the worker running it — which may be after the
    /// probing query returned, when the sibling answered first.
    fn settled(router: &ShardRouter, shard: usize, replica: usize) -> BreakerSnapshot {
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = router.replica_breaker_snapshots(shard)[replica];
            if snap.state != BreakerState::HalfOpen || Instant::now() >= until {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits out a cooldown without naming its length: repeats `q` — inside
    /// the cooldown it skips the open replica, the first one past it rides
    /// the half-open probe — until the settled breaker of `(shard, replica)`
    /// is `done`, for at most 5 s. The last answer and that snapshot.
    fn query_until(
        router: &ShardRouter,
        q: TopsQuery,
        shard: usize,
        replica: usize,
        done: impl Fn(&BreakerSnapshot) -> bool,
    ) -> (Arc<ShardedServiceAnswer>, BreakerSnapshot) {
        let until = Instant::now() + Duration::from_secs(5);
        loop {
            let answer = router.query_blocking(q).unwrap();
            let snap = settled(router, shard, replica);
            if done(&snap) || Instant::now() >= until {
                return (answer, snap);
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
        let (probed, probe) = query_until(&router, q, 0, 0, |b| b.probes >= 1);
        assert!(!probed.degraded, "probe stole the healthy replica's slot");
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
        let (healed, probe) = query_until(&router, q, 0, 0, |b| b.closes >= 1);
        assert!(!healed.degraded);
        assert_eq!(probe.state, BreakerState::Closed);
        router.shutdown();
    }

    #[test]
    fn probe_outliving_its_gather_still_settles_the_breaker() {
        let router = quick_tripping_pair();
        let q = TopsQuery::binary(2, 800.0);
        router.set_fault_plan(fault_on(0, FaultAction::Error));
        assert!(!router.query_blocking(q).unwrap().degraded);
        assert_eq!(settled(&router, 0, 0).state, BreakerState::Open);
        // Past the cooldown the replica answers again, but 2 s late: its
        // probe loses to the sibling, so the gather is over before the
        // probe's reply exists (`settled` waits up to 5 s for it).
        router.set_fault_plan(fault_on(0, FaultAction::Delay(Duration::from_secs(2))));
        let (probed, probe) = query_until(&router, q, 0, 0, |b| b.probes >= 1);
        assert!(!probed.degraded);
        router.set_fault_plan(None);
        // The worker that ran the probe closes the breaker all the same...
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
