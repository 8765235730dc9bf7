//! # netclus-service — the concurrent query-serving layer
//!
//! The NetClus paper (ICDE 2017) is an *online* framework: the
//! multi-resolution index exists so TOPS queries `(k, τ, ψ)` answer in
//! practical latency while the trajectory corpus keeps changing (Sec. 5–6).
//! This crate turns the `netclus` library into an in-process query server
//! shaped for that workload:
//!
//! * [`snapshot`] — an **epoch-based snapshot store**. The road network,
//!   [`TrajectorySet`](netclus_trajectory::TrajectorySet) and
//!   [`NetClusIndex`](netclus::NetClusIndex) live behind an `Arc`-swapped
//!   immutable [`Snapshot`]. Readers pin a snapshot by cloning its `Arc`
//!   under a read lock held for that clone alone, so a publish delays a
//!   reader by at most one pointer swap; a writer applies an
//!   `UpdateBatch` to a private copy and publishes it under the next
//!   epoch.
//! * [`executor`] — the **monolithic service**: [`NetClusService::query`]
//!   answers on the caller's thread; a result-cache hit takes no shared
//!   lock and pins no snapshot, a miss solves against one pinned
//!   snapshot. A query shape at one epoch is solved once for every `k` up
//!   to the one solved (the result cache's single flight and prefix
//!   rule), and at most `workers` solves run at once, each with a
//!   reused scratch; callers beyond them wait in a bounded waiting room,
//!   and overload past it is shed with `QueueFull`.
//! * [`cache`] — the stack's **one cache mechanism**, [`EpochLru`]: an
//!   epoch-keyed LRU with single-flight builds (concurrent misses
//!   coalesce onto one builder), one purge on epoch advance and one purge
//!   floor (a value that arrives after its epoch was purged is handed to
//!   its caller and not retained). Its first instantiation is the
//!   **result cache** keyed on `(τ, ψ, epoch)`, which answers
//!   every `k` up to the largest solved by prefix, like the round-1 memo
//!   below; its hit/miss/coalesced/eviction/invalidation counters
//!   ([`CacheStats`]) feed the metrics report.
//! * [`provider_cache`] — the round-1 instantiations: built
//!   [`ProviderRows`](netclus::ProviderRows) keyed
//!   `(epoch, shard, instance, built τ)` (the executor is shard 0; both
//!   serving cores look rows up through one `rows_for`) and the round-1
//!   **candidate memo** keyed `(epoch, shard, quantized τ, ψ)`, which
//!   answers any smaller-`k` repeat by prefix slicing. The rows are the
//!   expensive part of a NetClus query and depend on neither `k` nor ψ,
//!   and rows built at the top of an instance's τ band serve every τ in
//!   it as a prefix view, and a publish that applied only trajectory
//!   adds and removes carries them into the new epoch, patched in place
//!   ([`carry_rows`]); the query's τ is quantized to millimeters at
//!   admission ([`netclus::quantize_tau`], one shared definition for
//!   every cache key) so keys and computation agree. (The fourth
//!   instantiation is the router's stale-answer fallback, keyed like the
//!   result cache at the epoch no purge reaches.)
//! * [`metrics`] — latency histogram, throughput, queue depth, cache and
//!   provider-cache statistics plus provider-build latency and process
//!   gauges (uptime, RSS, arena bytes), exposed as a [`MetricsReport`]
//!   serializable to single-line JSON.
//! * [`shard_router`] — scatter-gather serving over a region-sharded
//!   index: per-shard **replica sets** of snapshot stores in epoch
//!   lockstep (hedged round-1 reads, per-replica breakers, catch-up
//!   resync), a fan-out worker pool running the two-round distributed
//!   greedy, and per-shard latency/replication lanes in the metrics
//!   report. Its query driver, update path and transports live in
//!   `shard_router/{scatter,apply,transport}.rs`; who is fired, hedged,
//!   failed over to and charged in one gather is the thread-free state
//!   machine of `replica_set.rs`.
//! * [`trace`] — structured query-path tracing: per-stage latency
//!   histograms over all traffic, allocation-free span recorders, and
//!   **tail-based sampling** into a bounded slow-query log with full
//!   stage attribution, plus per-shard load/heat gauges.
//! * [`framing`] — the length-prefix/CRC-32 byte framing: the one frame
//!   writer and reader under GPS records, WAL segments, shard RPCs and
//!   the telemetry endpoint, failing as one typed `FrameError`.
//! * [`telemetry`] — a std-only TCP endpoint serving the metrics
//!   snapshot, per-stage breakdown, slow-query log, breaker states and
//!   flight-recorder history/rates/health over the framed protocol. Its
//!   accept loop (connection cap, one thread per connection, shutdown
//!   that closes live sockets) also runs under the [`shard_server`].
//! * `jsonl` (crate-private) — the one JSON-lines writer behind every
//!   line above: an object builder that owns braces, commas and
//!   escaping, writes integers by `Display`, an `f64` as `{:.3}` and a
//!   non-finite one as `null`.
//! * [`flight`] — the **flight recorder**: a fixed-capacity ring-buffer
//!   time-series store fed by a sampler thread every tick, retaining the
//!   full metrics surface at full resolution plus a decimated long
//!   horizon, with read-time rates clamped against counter resets.
//! * [`health`] — declarative SLO rules (latency/freshness ceilings,
//!   SRE-style multi-window burn rates) evaluated over flight-recorder
//!   history into a `healthy`/`degraded`/`unhealthy` verdict.
//!
//! ## Quick start
//!
//! ```
//! use netclus::prelude::*;
//! use netclus_roadnet::{Point, RoadNetworkBuilder};
//! use netclus_trajectory::{Trajectory, TrajectorySet};
//! use netclus_service::{NetClusService, ServiceConfig, ServiceRequest, UpdateOp};
//!
//! // A corridor with two commuters (see the netclus crate docs).
//! let mut b = RoadNetworkBuilder::new();
//! let nodes: Vec<_> = (0..6)
//!     .map(|i| b.add_node(Point::new(i as f64 * 400.0, 0.0)))
//!     .collect();
//! for w in nodes.windows(2) {
//!     b.add_two_way(w[0], w[1], 400.0).unwrap();
//! }
//! let net = b.build().unwrap();
//! let mut trajs = TrajectorySet::for_network(&net);
//! trajs.add(Trajectory::new(nodes[0..4].to_vec()));
//! trajs.add(Trajectory::new(nodes[2..6].to_vec()));
//! let sites: Vec<_> = net.nodes().collect();
//! let index = NetClusIndex::build(
//!     &net,
//!     &trajs,
//!     &sites,
//!     NetClusConfig { tau_min: 800.0, tau_max: 4_000.0, threads: 1, ..Default::default() },
//! );
//!
//! // Serve concurrent queries against atomically swapped snapshots.
//! let service = NetClusService::start(net, trajs, index, ServiceConfig::default())
//!     .expect("start service");
//! let answer = service
//!     .query(ServiceRequest::greedy(TopsQuery::binary(1, 800.0)))
//!     .unwrap();
//! assert_eq!(answer.epoch, 0);
//! assert_eq!(answer.sites.len(), 1);
//!
//! // A live update publishes epoch 1; subsequent answers come from it.
//! let receipt = service.apply_updates(vec![UpdateOp::AddTrajectory(
//!     Trajectory::new(nodes[0..2].to_vec()),
//! )]);
//! assert_eq!(receipt.epoch, 1);
//! let fresh = service
//!     .query(ServiceRequest::greedy(TopsQuery::binary(1, 800.0)))
//!     .unwrap();
//! assert_eq!(fresh.epoch, 1);
//! assert_eq!(fresh.corpus_len, 3);
//! service.shutdown();
//! ```

// `deny`, not `forbid`: the one exception is the carry-less-multiply CRC
// kernel in `framing`, allowed on its module and its dispatch call.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod executor;
pub mod fault;
pub mod flight;
pub mod framing;
pub mod health;
mod jsonl;
pub mod metrics;
pub mod provider_cache;
mod replica_set;
pub mod shard_proto;
pub mod shard_router;
pub mod shard_server;
pub mod snapshot;
pub mod telemetry;
pub mod trace;
pub mod wire;

pub use cache::{CacheStats, EpochKeyed, EpochLru, QueryKey};
pub use executor::{NetClusService, ServiceAnswer, ServiceConfig, ServiceRequest, SubmitError};
pub use fault::{
    BreakerConfig, BreakerSnapshot, BreakerState, FaultAction, FaultPlan, FaultRule, QueryError,
    ShardFailure,
};
pub use flight::{flatten_json, FlightConfig, FlightRecorder, FlightSampler};
pub use health::{HealthEvaluator, HealthReport, RuleOutcome, Severity, SloRule, Verdict};
pub use metrics::{
    FaultReport, IngestMetrics, IngestReport, LatencyHistogram, LatencySummary, MetricsReport,
    ProcessGauges, ShardLaneReport, ShardReport,
};
pub use provider_cache::{
    carry_rows, quantize_tau, RoundKey, RoundOneCache, ShardProviderCache, ShardProviderKey,
};
pub use shard_proto::ResyncSnapshot;
pub use shard_router::{
    install_resync_snapshot, InProcessShard, QueryOptions, RemoteShard, RemoteShardConfig,
    Round1Ctx, Round1Ok, ShardApplyOutcome, ShardRouter, ShardRouterConfig, ShardTransport,
    ShardedServiceAnswer, TransportCounters,
};
pub use shard_server::{ShardServer, ShardServerConfig};
pub use snapshot::{RoutedOp, Snapshot, SnapshotStore, UpdateOp, UpdateReceipt, UpdateSink};
pub use telemetry::{TelemetryServer, TelemetrySource};
pub use trace::{
    Round1Source, SlowQueryRecord, SpanRecord, Stage, StageStats, TraceConfig, TraceMeta,
    TraceSpans, Tracer,
};

/// Recovers a mutex guard even when a previous holder panicked: the
/// protected state (task queues, solve permits, worker handles, monotone
/// counters) is never left inconsistent across an unwind, so a poisoned
/// lock must not cascade into every later caller panicking too.
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Compile-time audit that everything crossing thread boundaries is
/// `Send + Sync` (the index, corpus, query and answer types the snapshot
/// store and executor share between workers).
#[allow(dead_code)]
fn send_sync_audit() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<netclus_roadnet::RoadNetwork>();
    assert_send_sync::<netclus_trajectory::TrajectorySet>();
    assert_send_sync::<netclus::NetClusIndex>();
    assert_send_sync::<netclus::TopsQuery>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<SnapshotStore>();
    assert_send_sync::<UpdateOp>();
    assert_send_sync::<cache::ResultCache>();
    assert_send_sync::<ShardProviderCache>();
    assert_send_sync::<ServiceAnswer>();
    assert_send_sync::<metrics::ServiceMetrics>();
    assert_send_sync::<NetClusService>();
    assert_send_sync::<netclus::ShardedNetClusIndex>();
    assert_send_sync::<ShardRouter>();
    assert_send_sync::<ShardedServiceAnswer>();
    assert_send_sync::<Tracer>();
    assert_send_sync::<StageStats>();
    assert_send_sync::<trace::LoadGauge>();
    assert_send_sync::<TelemetryServer>();
    assert_send_sync::<TelemetrySource>();
    assert_send_sync::<FlightRecorder>();
    assert_send_sync::<FlightSampler>();
    assert_send_sync::<HealthEvaluator>();
    assert_send_sync::<health::HealthReport>();
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<fault::CircuitBreaker>();
    assert_send_sync::<QueryError>();
    assert_send_sync::<FaultReport>();
    assert_send_sync::<RemoteShard>();
    assert_send_sync::<TransportCounters>();
    assert_send_sync::<Box<dyn ShardTransport>>();
    assert_send_sync::<ShardServer>();
    assert_send_sync::<ResyncSnapshot>();
}
