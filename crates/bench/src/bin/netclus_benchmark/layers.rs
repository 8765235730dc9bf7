//! The benchmark's only door into the product crates.
//!
//! Every call into `netclus`, `netclus-service`, `netclus-ingest`,
//! `netclus-trajectory`, `netclus-roadnet` and `netclus-datagen` is made
//! from this file, so a change that moves a public API breaks here and
//! nowhere else. Configurations are the products' defaults
//! (`..Default::default()`) except for the fields spelled out below.
//!
//! Public entry points used:
//!
//! * `netclus_datagen`: `beijing_like`, `ScenarioConfig`,
//!   `generate_gps_stream`, `GpsStreamConfig`
//! * `netclus_roadnet`: `RegionPartition::build`, `RoadNetwork`,
//!   `GridIndex`, `NodeId`
//! * `netclus_trajectory`: `MapMatcher::match_trace`, `TrajectorySet`,
//!   `TrajId`
//! * `netclus`: `NetworkClustering::build`,
//!   `NetClusIndex::{build_clustered, query, query_on, instance_for,
//!   instance, instances, heap_size_bytes, add_trajectory, clone}`,
//!   `ShardedNetClusIndex::{build, query, shards, replication,
//!   traj_id_bound, clone}`, `ClusteredProvider::{build_with, pair_count,
//!   heap_size_bytes}`, `shard::{local_candidates_on,
//!   merge_candidates_timed, ShardRoundOne::{encode_into, decode_from},
//!   WireReader}`, `CoverageIndex::build`, `inc_greedy`,
//!   `evaluate_sites`, `quantize_tau`
//! * `netclus_service`: `NetClusService::{start, query_blocking,
//!   snapshot, metrics_report, shutdown}`, `ShardRouter::{start,
//!   connect_replicated, query_blocking, shard_snapshot, apply_updates,
//!   epoch, metrics_report, fault_report, shutdown}` (also as
//!   `UpdateSink`), `ShardServer::{start, addr, metrics_json, shutdown}`,
//!   `SnapshotStore::{new, with_shared_net, apply, load, epoch}`,
//!   `ShardTransport::round1` on `RemoteShard::new` and
//!   `InProcessShard::new`, `shard_proto::Response::{encode, decode}`,
//!   `IngestMetrics::report`
//! * `netclus_ingest`: `Ingestor::{start_with_sink, submit,
//!   ingest_reader, finish}`, `IngestConfig::new`, `WalConfig::new`,
//!   `WalWriter::{open, append, sync}`, `encode_batch`, `recover_store`,
//!   `StreamRecord::{encode_frame, decode_payload}`

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus::shard::{local_candidates_on, merge_candidates_timed, ShardRoundOne, WireReader};
use netclus_datagen::{
    beijing_like, generate_gps_stream, GpsStreamConfig, Scenario, ScenarioConfig,
};
use netclus_ingest::{
    encode_batch, recover_store, IngestConfig, Ingestor, StreamRecord, SubmitOutcome, WalConfig,
    WalWriter,
};
use netclus_roadnet::{NodeId, RegionPartition, RoadNetwork};
use netclus_service::shard_proto::Response;
use netclus_service::wire::MAX_WIRE_CANDIDATES;
use netclus_service::{
    InProcessShard, IngestMetrics, LatencyHistogram, NetClusService, RemoteShard,
    RemoteShardConfig, Round1Ctx, Round1Source, RoundOneCache, ServiceAnswer, ServiceConfig,
    ServiceRequest, ShardProviderCache, ShardRouter, ShardRouterConfig, ShardServer,
    ShardServerConfig, ShardTransport, ShardedServiceAnswer, SnapshotStore, UpdateOp, UpdateSink,
};
use netclus_trajectory::{MapMatcher, TrajId, TrajectorySet};

use crate::trace::Trace;

/// Shards of every sharded workload.
pub const SHARDS: usize = 4;
/// Shard-server replicas per shard on `hot_remote`.
pub const REPLICAS: usize = 2;
/// Ops of one replayed publish (the batch size of the apply probes).
pub const APPLY_BATCH_OPS: usize = 32;

/// The preference functions of the query mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Psi {
    /// TOPS1, covered or not.
    Binary,
    /// `1 − d/τ`.
    Linear,
    /// `(1 − d/τ)²`.
    Convex2,
}

/// One TOPS query of the benchmark's mix; `tau` is already quantised to
/// millimetres, so every layer sees the same threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// Sites asked for.
    pub k: usize,
    /// Coverage threshold, metres.
    pub tau: f64,
    /// Preference function.
    pub psi: Psi,
}

impl Query {
    /// A query with `tau` quantised the way the serving layers do.
    pub fn new(k: usize, tau: f64, psi: Psi) -> Query {
        Query {
            k,
            tau: quantize_tau(tau),
            psi,
        }
    }

    fn tops(&self) -> TopsQuery {
        TopsQuery {
            k: self.k,
            tau: self.tau,
            preference: match self.psi {
                Psi::Binary => PreferenceFunction::Binary,
                Psi::Linear => PreferenceFunction::LinearDecay,
                Psi::Convex2 => PreferenceFunction::ConvexProbability { alpha: 2.0 },
            },
        }
    }
}

fn netclus_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 400.0,
        tau_max: 3_200.0,
        threads: 2,
        ..Default::default()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The generated scenario every workload runs on.
pub struct World {
    scenario: Scenario,
    net: Arc<RoadNetwork>,
    /// Seconds spent generating it (not part of `setup_s`).
    pub datagen_s: f64,
}

/// Seed of the road network and trajectory corpus. The corpus is one
/// fixed synthetic city, like a dataset file would be: `--seed` varies
/// the traffic sent at it (query streams, shape popularity, GPS
/// records), not the city. A city per seed moves every cost by ±10 %
/// from seed to seed, which is more than the bounds allow a change.
const SCENARIO_SEED: u64 = 0x4E45_5443;

impl World {
    /// `beijing_like(ScenarioConfig { seed: SCENARIO_SEED, scale })`.
    pub fn generate(scale: f64) -> World {
        let t = Instant::now();
        let scenario = beijing_like(&ScenarioConfig {
            seed: SCENARIO_SEED,
            scale,
        });
        let net = Arc::new(scenario.net.clone());
        World {
            scenario,
            net,
            datagen_s: secs(t.elapsed()),
        }
    }

    /// `trips` GPS records for the ingest path, with the stream-time TTL
    /// under which a trip retires when `retire_after` later ones are in.
    /// Adds to `datagen_s`.
    pub fn gps_stream(&mut self, trips: usize, retire_after: usize, seed: u64) -> GpsStream {
        let t = Instant::now();
        let s = &self.scenario;
        let events = generate_gps_stream(
            &s.net,
            &s.grid,
            &s.hotspots,
            &GpsStreamConfig {
                trips,
                // Trips start 10 stream-seconds apart on average, far
                // more than one lasts, so end times rise steadily with
                // the record number and the stream clock never jumps:
                // when trips retire depends on the TTL, not on where a
                // seed happens to put its longest trip.
                rate_per_sec: 0.1,
                ..Default::default()
            },
            seed,
        );
        let records: Vec<StreamRecord> = events
            .into_iter()
            .map(|e| StreamRecord {
                source: e.source,
                seq: e.seq,
                trace: e.trace,
            })
            .collect();
        // A trip retires once the stream clock (the latest end time seen)
        // passes its own end time by the TTL: the stream time in which
        // `retire_after` trips end, at the stream's mean rate.
        let ends = records
            .iter()
            .filter_map(|r| r.trace.points().last().map(|p| p.t));
        let (first, last) = ends.fold((f64::MAX, f64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
        let per_trip = (last - first) / records.len().saturating_sub(1).max(1) as f64;
        let ttl_s = (per_trip * retire_after as f64).max(1.0);
        self.datagen_s += secs(t.elapsed());
        GpsStream { records, ttl_s }
    }
}

/// A generated GPS record stream.
pub struct GpsStream {
    records: Vec<StreamRecord>,
    /// Stream-time TTL after which a trip retires.
    pub ttl_s: f64,
}

impl GpsStream {
    /// Records in the stream.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// The framed bytes of records `range` (what a socket would carry).
    pub fn frames(&self, range: std::ops::Range<usize>) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.records[range] {
            out.extend_from_slice(&r.encode_frame());
        }
        out
    }
}

// ---------------------------------------------------------------------
// Offline builds
// ---------------------------------------------------------------------

/// A built monolithic index with the time each build layer took.
pub struct MonoBuild {
    index: NetClusIndex,
    /// `NetworkClustering::build`, the GDSP ladder.
    pub ladder_s: f64,
    /// `NetClusIndex::build_clustered`, the per-cluster enrichment.
    pub enrich_s: f64,
}

impl MonoBuild {
    /// The two steps `NetClusIndex::build` is made of, timed apart.
    pub fn build(w: &World) -> MonoBuild {
        let s = &w.scenario;
        let cfg = netclus_config();
        let t = Instant::now();
        let clustering = NetworkClustering::build(&s.net, &cfg);
        let ladder_s = secs(t.elapsed());
        let t = Instant::now();
        let index =
            NetClusIndex::build_clustered(&s.net, &s.trajectories, &s.sites, cfg, &clustering);
        MonoBuild {
            index,
            ladder_s,
            enrich_s: secs(t.elapsed()),
        }
    }

    /// Exact index footprint, MiB.
    pub fn heap_mb(&self) -> f64 {
        mib(self.index.heap_size_bytes())
    }

    /// Clusters over all ladder instances.
    pub fn clusters(&self) -> usize {
        self.index
            .instances()
            .iter()
            .map(|i| i.clusters.len())
            .sum()
    }

    /// `NetClusIndex::query`, the library call with no serving layer.
    /// Returns whether the answer is well formed.
    pub fn query(&self, w: &World, q: &Query) -> bool {
        let a = self.index.query(&w.scenario.trajectories, &q.tops());
        let sites = &a.solution.sites;
        !sites.is_empty() && sites.len() <= q.k && a.solution.utility.is_finite()
    }

    /// The sites the bare library picks (utility probe).
    pub fn sites(&self, w: &World, q: &Query) -> Vec<NodeId> {
        self.index
            .query(&w.scenario.trajectories, &q.tops())
            .solution
            .sites
    }

    /// Replays `q` through provider build and greedy solve.
    pub fn replay(
        &self,
        w: &World,
        q: &Query,
        scratch: &mut ProviderScratch,
        trace: &mut Trace,
        op: u64,
        parent: u32,
    ) -> ProviderCounts {
        let bound = w.scenario.trajectories.id_bound();
        replay_core(&self.index, bound, q, scratch, trace, op, parent).1
    }
}

/// A built 4-shard index with the partitioner's and builder's figures.
pub struct ShardedBuild {
    index: ShardedNetClusIndex,
    /// `RegionPartition::build`, milliseconds.
    pub partition_ms: f64,
    /// Partition plus `ShardedNetClusIndex::build`, seconds.
    pub build_s: f64,
    /// Sum of the per-shard enrichment times.
    pub work_s: f64,
    /// The slowest shard's enrichment time.
    pub max_s: f64,
    /// Shard-local copies per trajectory.
    pub replication_factor: f64,
}

impl ShardedBuild {
    /// `RegionPartition::build(net, 4)` + `ShardedNetClusIndex::build`.
    pub fn build(w: &World) -> ShardedBuild {
        let s = &w.scenario;
        let t = Instant::now();
        let partition = RegionPartition::build(&s.net, SHARDS);
        let partition_ms = secs(t.elapsed()) * 1e3;
        let index = ShardedNetClusIndex::build(
            &s.net,
            &s.trajectories,
            &s.sites,
            &partition,
            netclus_config(),
        );
        let build_s = secs(t.elapsed());
        let times: Vec<f64> = index
            .shards()
            .iter()
            .map(|sh| secs(sh.build_time))
            .collect();
        ShardedBuild {
            partition_ms,
            build_s,
            work_s: times.iter().sum(),
            max_s: times.iter().copied().fold(0.0, f64::max),
            replication_factor: index.replication().replication_factor(),
            index,
        }
    }

    /// Exact footprint of all shard indexes, MiB.
    pub fn heap_mb(&self) -> f64 {
        mib(self
            .index
            .shards()
            .iter()
            .map(|sh| sh.index.heap_size_bytes())
            .sum())
    }
}

// ---------------------------------------------------------------------
// Layer replays shared by the serving workloads
// ---------------------------------------------------------------------

/// Exact counts of one replayed provider build.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProviderCounts {
    /// `(representative, trajectory)` pairs in the clustered view.
    pub pairs: usize,
    /// Provider footprint, MiB.
    pub mb: f64,
}

/// Provider build then greedy solve on `index`, one span each.
fn replay_core(
    index: &NetClusIndex,
    bound: usize,
    q: &Query,
    scratch: &mut ProviderScratch,
    trace: &mut Trace,
    op: u64,
    parent: u32,
) -> (ClusteredProvider, ProviderCounts) {
    let tq = q.tops();
    let p = index.instance_for(tq.tau);
    let provider = trace.span("core.query.provider_build", op, Some(parent), || {
        ClusteredProvider::build_with(index.instance(p), tq.tau, bound, 1, scratch)
    });
    trace.span("core.greedy.solve", op, Some(parent), || {
        std::hint::black_box(index.query_on(&provider, p, &tq));
    });
    let counts = ProviderCounts {
        pairs: provider.pair_count(),
        mb: mib(provider.heap_size_bytes()),
    };
    (provider, counts)
}

/// Exact counts of one replayed scatter-gather.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardedCounts {
    /// Pairs over the four shard providers.
    pub provider: ProviderCounts,
    /// Size of the round-2 candidate union.
    pub candidates: usize,
    /// Encoded bytes of the four round-1 answers.
    pub round1_bytes: usize,
}

/// The two-round protocol by hand over `shards` (index, id bound): per
/// shard a provider build and `local_candidates_on`, the round's wire
/// codec, then `merge_candidates_timed`.
fn replay_sharded(
    shards: &[(&NetClusIndex, usize)],
    q: &Query,
    scratch: &mut ProviderScratch,
    trace: &mut Trace,
    op: u64,
    parent: u32,
) -> ShardedCounts {
    let tq = q.tops();
    let mut counts = ShardedCounts::default();
    let mut candidates = Vec::new();
    let mut merge_bound = 0;
    let mut wire = Vec::new();
    for (s, &(index, bound)) in shards.iter().enumerate() {
        let p = index.instance_for(tq.tau);
        let provider = trace.span("core.query.provider_build", op, Some(parent), || {
            ClusteredProvider::build_with(index.instance(p), tq.tau, bound, 1, scratch)
        });
        counts.provider.pairs += provider.pair_count();
        counts.provider.mb += mib(provider.heap_size_bytes());
        let mut round = trace.span("core.shard.round1", op, Some(parent), || {
            local_candidates_on(&provider, p, &tq)
        });
        round.shard_hint = s as u32;
        wire.clear();
        trace.span("core.shard.encode", op, Some(parent), || {
            round.encode_into(&mut wire)
        });
        counts.round1_bytes += wire.len();
        trace.span("core.shard.decode", op, Some(parent), || {
            let decoded =
                ShardRoundOne::decode_from(&mut WireReader::new(&wire), MAX_WIRE_CANDIDATES);
            std::hint::black_box(decoded.expect("a round just encoded decodes"));
        });
        if s == 0 {
            // The response frame as the shard server would send it.
            let response = Response::Round1Ok {
                epoch: 0,
                bound: bound as u64,
                source: Round1Source::Built,
                round: round.clone(),
            };
            let frame = trace.span("service.shard_proto.encode", op, Some(parent), || {
                response.encode()
            });
            trace.span("service.shard_proto.decode", op, Some(parent), || {
                std::hint::black_box(Response::decode(&frame).expect("own frame decodes"));
            });
        }
        merge_bound = merge_bound.max(bound);
        candidates.extend(round.candidates);
    }
    trace.span("core.shard.merge", op, Some(parent), || {
        let (_, n, _) = merge_candidates_timed(candidates, &tq, merge_bound);
        counts.candidates = n;
    });
    counts
}

// ---------------------------------------------------------------------
// Monolithic serving
// ---------------------------------------------------------------------

/// Cumulative counters of a `NetClusService`; subtract two readings for
/// a timed section.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceCounters {
    /// Submissions rejected.
    pub rejected: u64,
    /// Requests that joined an identical in-flight one.
    pub dedup_joined: u64,
    /// Worker dispatches and the requests they drained.
    pub batches: u64,
    /// See `batches`.
    pub batched_requests: u64,
    /// High-water mark of the admission queue.
    pub queue_depth_max: u64,
    /// Result cache.
    pub cache_hits: u64,
    /// Result cache.
    pub cache_misses: u64,
    /// Result cache.
    pub cache_evictions: u64,
    /// Provider cache.
    pub provider_hits: u64,
    /// Provider cache (each miss is one provider build).
    pub provider_misses: u64,
    /// Provider cache.
    pub provider_evictions: u64,
    /// Provider cache.
    pub provider_coalesced: u64,
}

/// A served monolithic answer.
pub struct MonoAnswer(Arc<ServiceAnswer>);

/// `NetClusService` with two workers over one index.
pub struct Mono {
    service: NetClusService,
}

impl Mono {
    /// Starts the service on `built` (consumed).
    pub fn start(w: &World, built: MonoBuild) -> Mono {
        let s = &w.scenario;
        let service = NetClusService::start(
            s.net.clone(),
            s.trajectories.clone(),
            built.index,
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        )
        .expect("start NetClusService");
        Mono { service }
    }

    /// One closed-loop request; `None` when the service refused it.
    #[inline]
    pub fn query(&self, q: &Query) -> Option<MonoAnswer> {
        self.service
            .query_blocking(ServiceRequest::greedy(q.tops()))
            .map(MonoAnswer)
    }

    /// Whether `a` equals `NetClusIndex::query` on the corpus of the
    /// epoch that served it.
    pub fn verify(&self, q: &Query, a: &MonoAnswer) -> bool {
        let snap = self.service.snapshot();
        if snap.epoch() != a.0.epoch {
            return false;
        }
        let reference = snap.index().query(snap.trajs(), &q.tops()).solution;
        reference.sites == a.0.sites && reference.utility.to_bits() == a.0.utility.to_bits()
    }

    /// The served sites (utility probe).
    pub fn sites(&self, q: &Query) -> Vec<NodeId> {
        self.query(q).map_or_else(Vec::new, |a| a.0.sites.clone())
    }

    /// Current counters.
    pub fn counters(&self) -> ServiceCounters {
        let r = self.service.metrics_report();
        ServiceCounters {
            rejected: r.rejected,
            dedup_joined: r.dedup_joined,
            batches: r.batches,
            batched_requests: r.batched_requests,
            queue_depth_max: r.queue_depth_max,
            cache_hits: r.cache.hits,
            cache_misses: r.cache.misses,
            cache_evictions: r.cache.evictions,
            provider_hits: r.providers.hits,
            provider_misses: r.providers.misses,
            provider_evictions: r.providers.evictions,
            provider_coalesced: r.providers.coalesced,
        }
    }

    /// Replays `q` on the served epoch's index.
    pub fn replay(
        &self,
        q: &Query,
        scratch: &mut ProviderScratch,
        trace: &mut Trace,
        op: u64,
        parent: u32,
    ) -> ProviderCounts {
        let snap = self.service.snapshot();
        replay_core(
            snap.index(),
            snap.trajs().id_bound(),
            q,
            scratch,
            trace,
            op,
            parent,
        )
        .1
    }

    /// Stops and joins the workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// Reusable provider-build scratch of one replaying client.
pub fn scratch() -> ProviderScratch {
    ProviderScratch::default()
}

// ---------------------------------------------------------------------
// Sharded serving, in process and over loopback TCP
// ---------------------------------------------------------------------

/// Cumulative counters of a `ShardRouter`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterCounters {
    /// Round-1 memo.
    pub memo_hits: u64,
    /// Round-1 memo.
    pub memo_misses: u64,
    /// Per-shard provider cache.
    pub provider_hits: u64,
    /// Per-shard provider cache (each miss is one provider build).
    pub provider_misses: u64,
    /// Per-shard provider cache.
    pub provider_evictions: u64,
    /// Per-shard provider cache.
    pub provider_coalesced: u64,
    /// Fault machinery.
    pub hedged_requests: u64,
    /// Fault machinery.
    pub hedge_wins: u64,
    /// Fault machinery.
    pub replica_failovers: u64,
    /// Fault machinery.
    pub degraded_answers: u64,
    /// Fault machinery.
    pub breaker_opens: u64,
    /// Remote transports.
    pub transport_requests: u64,
    /// Remote transports.
    pub transport_errors: u64,
    /// Remote transports.
    pub transport_reconnects: u64,
    /// Live trajectories across the cluster.
    pub trajectories: u64,
}

/// A served scatter-gather answer.
pub struct RoutedAnswer(Arc<ShardedServiceAnswer>);

impl RoutedAnswer {
    /// Degraded or stale: served, but not the full current answer.
    pub fn impaired(&self) -> bool {
        self.0.degraded || self.0.stale
    }

    /// The slowest shard's round 1 as the router timed it, microseconds.
    pub fn slowest_round1_us(&self) -> u64 {
        self.0.shard_micros.iter().copied().max().unwrap_or(0)
    }

    /// Round 2 as the router timed it, microseconds.
    pub fn merge_us(&self) -> u64 {
        self.0.merge_micros
    }
}

/// A `ShardRouter` over four shards, either in process or behind eight
/// loopback shard servers.
pub struct Routed {
    router: Arc<ShardRouter>,
    net: Arc<RoadNetwork>,
    /// Epoch-0 copy the answers are compared with; `None` when the
    /// corpus changes under the router (`churn`).
    reference: Option<ShardedNetClusIndex>,
    servers: Vec<ShardServer>,
    addrs: Vec<Vec<SocketAddr>>,
}

impl Routed {
    /// `ShardRouter::start`, 4 shards × 1 in-process replica.
    pub fn start_in_process(w: &World, built: ShardedBuild, keep_reference: bool) -> Routed {
        let reference = keep_reference.then(|| built.index.clone());
        let router = ShardRouter::start(
            Arc::clone(&w.net),
            built.index,
            ShardRouterConfig::default(),
        )
        .expect("start ShardRouter");
        Routed {
            router: Arc::new(router),
            net: Arc::clone(&w.net),
            reference,
            servers: Vec::new(),
            addrs: Vec::new(),
        }
    }

    /// Eight `ShardServer`s on `127.0.0.1:0` (4 shards × 2 replicas) and
    /// `ShardRouter::connect_replicated` over them.
    pub fn start_remote(w: &World, built: ShardedBuild) -> Routed {
        let reference = built.index.clone();
        let (partition, shards, _) = built.index.into_parts();
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for shard in shards {
            let mut set = Vec::new();
            for _ in 0..REPLICAS {
                let store = SnapshotStore::with_shared_net(
                    Arc::clone(&w.net),
                    shard.trajs.clone(),
                    shard.index.clone(),
                );
                let server = ShardServer::start(
                    "127.0.0.1:0",
                    shard.id,
                    store,
                    ShardServerConfig::default(),
                )
                .expect("start ShardServer");
                set.push(server.addr());
                servers.push(server);
            }
            addrs.push(set);
        }
        let router = ShardRouter::connect_replicated(
            Arc::clone(&w.net),
            partition,
            &addrs,
            ShardRouterConfig::default(),
            RemoteShardConfig::default(),
        )
        .expect("connect ShardRouter");
        Routed {
            router: Arc::new(router),
            net: Arc::clone(&w.net),
            reference: Some(reference),
            servers,
            addrs,
        }
    }

    /// One closed-loop request; `None` when the router refused it.
    #[inline]
    pub fn query(&self, q: &Query) -> Option<RoutedAnswer> {
        self.router.query_blocking(q.tops()).ok().map(RoutedAnswer)
    }

    /// Whether `a` is bit-identical to `ShardedNetClusIndex::query` on
    /// the epoch-0 corpus. Only for routers started with a reference.
    pub fn verify(&self, q: &Query, a: &RoutedAnswer) -> bool {
        let reference = self.reference.as_ref().expect("router keeps no reference");
        let want = reference.query(&q.tops()).solution;
        a.0.epoch == 0 && want.sites == a.0.sites && want.utility.to_bits() == a.0.utility.to_bits()
    }

    /// The served sites (utility probe).
    pub fn sites(&self, q: &Query) -> Vec<NodeId> {
        self.query(q).map_or_else(Vec::new, |a| a.0.sites.clone())
    }

    /// Current counters.
    pub fn counters(&self) -> RouterCounters {
        let report = self.router.metrics_report();
        let fault = self.router.fault_report();
        let s = report.shards.expect("router report has a shard section");
        RouterCounters {
            memo_hits: s.rounds.hits,
            memo_misses: s.rounds.misses,
            provider_hits: s.providers.hits,
            provider_misses: s.providers.misses,
            provider_evictions: s.providers.evictions,
            provider_coalesced: s.providers.coalesced,
            hedged_requests: fault.hedged_requests,
            hedge_wins: fault.hedge_wins,
            replica_failovers: fault.replica_failovers,
            degraded_answers: fault.degraded_answers,
            breaker_opens: fault.breaker_opens,
            transport_requests: s.transport_requests,
            transport_errors: s.transport_errors,
            transport_reconnects: s.transport_reconnects,
            trajectories: s.trajectories,
        }
    }

    /// What the shard servers say of themselves: the median of their
    /// round-1 p50s in microseconds, and the hit rate of their round-1
    /// memos since they started. Zeros for an in-process router.
    pub fn server_view(&self) -> (f64, f64) {
        let reports: Vec<String> = self.servers.iter().map(ShardServer::metrics_json).collect();
        let field = |key: &str| -> Vec<f64> {
            reports.iter().filter_map(|r| json_number(r, key)).collect()
        };
        let p50s = field("round1_p50_us");
        let (hits, misses): (f64, f64) = (
            field("round_hits").iter().sum(),
            field("round_misses").iter().sum(),
        );
        if p50s.is_empty() || hits + misses == 0.0 {
            (0.0, 0.0)
        } else {
            (crate::stats::median(&p50s), hits / (hits + misses))
        }
    }

    /// Replays `q` through the two-round protocol by hand, on the shard
    /// snapshots of an in-process router or the epoch-0 reference of a
    /// remote one.
    pub fn replay(
        &self,
        q: &Query,
        scratch: &mut ProviderScratch,
        trace: &mut Trace,
        op: u64,
        parent: u32,
    ) -> ShardedCounts {
        if self.servers.is_empty() {
            let snaps: Vec<_> = (0..SHARDS).map(|s| self.router.shard_snapshot(s)).collect();
            let shards: Vec<_> = snaps
                .iter()
                .map(|s| (s.index(), s.trajs().id_bound()))
                .collect();
            replay_sharded(&shards, q, scratch, trace, op, parent)
        } else {
            let reference = self
                .reference
                .as_ref()
                .expect("remote router has a reference");
            let bound = reference.traj_id_bound();
            let shards: Vec<_> = reference
                .shards()
                .iter()
                .map(|s| (&s.index, bound))
                .collect();
            replay_sharded(&shards, q, scratch, trace, op, parent)
        }
    }

    /// Direct transports to shard 0 for the RPC-tax probe: a second
    /// connection to its first server, and an in-process copy of the same
    /// shard with caches of its own. Remote routers only.
    pub fn transport_probe(&self) -> TransportProbe {
        let reference = self
            .reference
            .as_ref()
            .expect("remote router has a reference");
        let shard = &reference.shards()[0];
        TransportProbe {
            remote: RemoteShard::new(0, self.addrs[0][0], RemoteShardConfig::default()),
            local: InProcessShard::new(SnapshotStore::with_shared_net(
                Arc::clone(&self.net),
                shard.trajs.clone(),
                shard.index.clone(),
            )),
            providers: ShardProviderCache::new(
                ShardRouterConfig::default().provider_cache_capacity,
            ),
            rounds: RoundOneCache::new(ShardRouterConfig::default().round_memo_capacity),
            build_hist: LatencyHistogram::default(),
            scratch: ProviderScratch::default(),
        }
    }

    /// Stops the router, then the servers, joining every thread.
    pub fn shutdown(mut self) {
        self.router.shutdown();
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

/// See [`Routed::transport_probe`].
pub struct TransportProbe {
    remote: RemoteShard,
    local: InProcessShard,
    providers: ShardProviderCache,
    rounds: RoundOneCache,
    build_hist: LatencyHistogram,
    scratch: ProviderScratch,
}

impl TransportProbe {
    /// One `ShardTransport::round1` on each transport, a span each. Call
    /// it once untimed first so both sides answer from their memo.
    pub fn round1(&mut self, q: &Query, trace: &mut Trace, op: u64, parent: u32) -> bool {
        let tq = q.tops();
        let remote_ok = {
            let mut ctx = Round1Ctx {
                shard: 0,
                deadline: None,
                providers: None,
                rounds: None,
                build_threads: 1,
                scratch: &mut self.scratch,
                provider_build: &self.build_hist,
            };
            trace.span("service.remote_shard.rpc", op, Some(parent), || {
                self.remote.round1(&tq, &mut ctx).is_ok()
            })
        };
        let mut ctx = Round1Ctx {
            shard: 0,
            deadline: None,
            providers: Some(&self.providers),
            rounds: Some(&self.rounds),
            build_threads: 1,
            scratch: &mut self.scratch,
            provider_build: &self.build_hist,
        };
        let local_ok = trace.span("service.inprocess_shard.round1", op, Some(parent), || {
            self.local.round1(&tq, &mut ctx).is_ok()
        });
        remote_ok && local_ok
    }
}

/// The number after `"key":` in a flat JSON line.
pub fn json_number(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------
// Ingest beside reads
// ---------------------------------------------------------------------

/// Cumulative counters of the ingest pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestCounters {
    /// Records made visible (one freshness sample each).
    pub visible: u64,
    /// Records whose trace did not match the network.
    pub match_failed: u64,
    /// Records shed by backpressure.
    pub shed: u64,
    /// Per-source sequence duplicates.
    pub duplicates: u64,
    /// Batches published (epochs advanced).
    pub batches: u64,
    /// Ops in those batches.
    pub ops: u64,
    /// Publish latency (WAL append + apply), median microseconds.
    pub publish_p50_us: u64,
    /// Submit → visible, median microseconds.
    pub freshness_p50_us: u64,
    /// Submit → visible, 95th percentile microseconds.
    pub freshness_p95_us: u64,
    /// WAL fsyncs.
    pub wal_syncs: u64,
    /// WAL bytes.
    pub wal_bytes: u64,
}

/// What recovery from the WAL found.
pub struct Recovery {
    store: SnapshotStore,
    /// `recover_store` wall time, seconds.
    pub recovery_s: f64,
    /// Batches replayed.
    pub replay_batches: u64,
    /// Replay time as the recovery report states it, microseconds.
    pub replay_us: f64,
    /// Recovered epoch equals the live router's.
    pub epoch_matches: bool,
    /// Recovered corpus length equals the live cluster's.
    pub corpus_matches: bool,
}

/// An in-process 4×1 router fed by an `Ingestor` through a WAL.
pub struct Churn {
    routed: Routed,
    ingestor: Option<Ingestor>,
    metrics: Arc<IngestMetrics>,
    wal_dir: PathBuf,
    /// Epoch-0 state recovery replays the WAL over.
    base: Option<NetClusIndex>,
}

impl Churn {
    /// Starts the router as the pipeline's `UpdateSink` and the pipeline
    /// on an empty WAL in `wal_dir` (`sync_every_frames: 1`).
    pub fn start(
        w: &World,
        mono: MonoBuild,
        sharded: ShardedBuild,
        wal_dir: &Path,
        ttl_s: f64,
    ) -> Churn {
        let routed = Routed::start_in_process(w, sharded, false);
        let _ = std::fs::remove_dir_all(wal_dir);
        let metrics = Arc::new(IngestMetrics::default());
        let sink: Arc<dyn UpdateSink> = Arc::clone(&routed.router) as Arc<dyn UpdateSink>;
        let ingestor = Ingestor::start_with_sink(
            sink,
            Arc::new(w.scenario.grid.clone()),
            IngestConfig {
                ttl_s: Some(ttl_s),
                wal: WalConfig {
                    sync_every_frames: 1,
                    ..WalConfig::new(wal_dir)
                },
                ..IngestConfig::new(wal_dir)
            },
            Arc::clone(&metrics),
        )
        .expect("start Ingestor");
        Churn {
            routed,
            ingestor: Some(ingestor),
            metrics,
            wal_dir: wal_dir.to_path_buf(),
            base: Some(mono.index),
        }
    }

    /// The router the reader queries.
    pub fn routed(&self) -> &Routed {
        &self.routed
    }

    /// Offers record `i` of `stream`; false when it was not admitted.
    pub fn submit(&self, stream: &GpsStream, i: usize) -> bool {
        let ingestor = self.ingestor.as_ref().expect("pipeline is running");
        matches!(
            ingestor.submit(stream.records[i].clone()),
            SubmitOutcome::Accepted
        )
    }

    /// Feeds framed records closed-loop; returns how many were admitted.
    pub fn ingest_framed(&self, frames: &[u8]) -> u64 {
        let ingestor = self.ingestor.as_ref().expect("pipeline is running");
        ingestor.ingest_reader(frames).accepted
    }

    /// Current counters.
    pub fn counters(&self, elapsed: Duration) -> IngestCounters {
        let r = self.metrics.report(elapsed);
        IngestCounters {
            visible: r.freshness.count,
            match_failed: r.match_failed,
            shed: r.records_dropped,
            duplicates: r.records_duplicate,
            batches: r.batches_published,
            ops: r.ops_published,
            publish_p50_us: r.publish_latency.p50_micros,
            freshness_p50_us: r.freshness.p50_micros,
            freshness_p95_us: r.freshness.p95_micros,
            wal_syncs: r.wal_syncs,
            wal_bytes: r.wal_bytes,
        }
    }

    /// Records admitted but neither visible nor failed yet.
    pub fn in_flight(&self) -> u64 {
        let m = &self.metrics;
        let settled = m.freshness.count() + m.match_failed.load(Ordering::Relaxed);
        m.records_in.load(Ordering::Relaxed).saturating_sub(settled)
    }

    /// `finish()` the pipeline, then `recover_store` from its WAL over
    /// the epoch-0 state and compare with the live router.
    pub fn finish_and_recover(&mut self, w: &World) -> Recovery {
        self.ingestor.take().expect("pipeline is running").finish();
        let s = &w.scenario;
        let (net, trajs) = (s.net.clone(), s.trajectories.clone());
        let base = self.base.take().expect("recovery runs once");
        let t = Instant::now();
        let (store, report) = recover_store(net, trajs, base, &self.wal_dir, Some(&self.metrics))
            .expect("WAL replays");
        let recovery_s = secs(t.elapsed());
        let live = self.routed.counters().trajectories;
        Recovery {
            recovery_s,
            replay_batches: report.batches,
            replay_us: report.replay_time.as_secs_f64() * 1e6,
            epoch_matches: store.epoch() == self.routed.router.epoch(),
            corpus_matches: store.load().trajs().len() as u64 == live,
            store,
        }
    }

    /// Stops the router and removes the WAL.
    pub fn shutdown(mut self) {
        if let Some(ingestor) = self.ingestor.take() {
            ingestor.finish();
        }
        self.routed.shutdown();
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Private copies of the write path's layers, for the traced run: a WAL
/// in a directory of the benchmark's own, a monolithic store, an index
/// and a 4×1 router that only the probe mutates.
pub struct IngestProbe {
    matcher: MapMatcher,
    wal: WalWriter,
    wal_dir: PathBuf,
    store: SnapshotStore,
    index: NetClusIndex,
    router: ShardRouter,
    next_id: u32,
    epoch: u64,
}

impl IngestProbe {
    /// Builds the private copies (outside any timed section).
    pub fn new(w: &World, wal_dir: &Path) -> IngestProbe {
        let _ = std::fs::remove_dir_all(wal_dir);
        let s = &w.scenario;
        let mono = MonoBuild::build(w);
        let sharded = ShardedBuild::build(w);
        let wal = WalWriter::open(WalConfig {
            // Appends never sync on their own here, so `append` and
            // `sync` are timed apart.
            sync_every_frames: u32::MAX,
            ..WalConfig::new(wal_dir)
        })
        .expect("open probe WAL");
        IngestProbe {
            matcher: MapMatcher::default(),
            wal,
            wal_dir: wal_dir.to_path_buf(),
            store: SnapshotStore::new(s.net.clone(), s.trajectories.clone(), mono.index.clone()),
            index: mono.index,
            router: ShardRouter::start(
                Arc::clone(&w.net),
                sharded.index,
                ShardRouterConfig::default(),
            )
            .expect("start probe router"),
            next_id: s.trajectories.id_bound() as u32,
            epoch: 0,
        }
    }

    /// Decodes and map-matches record `i`: one span each. Returns the
    /// frame length and the add op the record turns into, if it matched.
    pub fn record(
        &mut self,
        w: &World,
        stream: &GpsStream,
        i: usize,
        trace: &mut Trace,
        op: u64,
        parent: u32,
    ) -> (usize, Option<MatchedAdd>) {
        let frame = stream.records[i].encode_frame();
        let payload = &frame[8..];
        let decoded = trace.span("ingest.record.decode", op, Some(parent), || {
            StreamRecord::decode_payload(payload).expect("own frame decodes")
        });
        let s = &w.scenario;
        let matched = trace.span("trajectory.mapmatch.match", op, Some(parent), || {
            self.matcher.match_trace(&s.net, &s.grid, &decoded.trace)
        });
        let end_time = decoded.trace.points().last().map_or(0.0, |p| p.t);
        (
            frame.len(),
            matched
                .ok()
                .map(|t| MatchedAdd(UpdateOp::AddTrajectory(t), end_time)),
        )
    }

    /// One replayed publish of `ops`: WAL append and sync, then the
    /// monolithic apply, the router apply, an index clone and one
    /// `add_trajectory`, a span each. Returns the WAL bytes written.
    pub fn publish(&mut self, ops: &[MatchedAdd], trace: &mut Trace, op: u64, parent: u32) -> u64 {
        let batch: Vec<UpdateOp> = ops.iter().map(|o| o.0.clone()).collect();
        let times: Vec<f64> = ops.iter().map(|o| o.1).collect();
        self.epoch += 1;
        let epoch = self.epoch;
        let bytes = trace.span("ingest.wal.append", op, Some(parent), || {
            let payload = encode_batch(epoch, &batch, &times, &[]);
            self.wal.append(&payload).expect("probe WAL append").bytes
        });
        trace.span("ingest.wal.sync", op, Some(parent), || {
            self.wal.sync().expect("probe WAL sync");
        });
        trace.span("service.snapshot.apply", op, Some(parent), || {
            self.store.apply(&batch);
        });
        trace.span("service.shard_router.apply", op, Some(parent), || {
            self.router.apply_updates(batch.clone());
        });
        let mut copy = trace.span("core.index.clone", op, Some(parent), || self.index.clone());
        if let Some(UpdateOp::AddTrajectory(t)) = batch.first() {
            let id = TrajId(self.next_id);
            trace.span("core.update.add_trajectory", op, Some(parent), || {
                copy.add_trajectory(id, t);
            });
        }
        self.next_id += batch.len() as u32;
        bytes
    }

    /// Stops the private router and removes the private WAL.
    pub fn shutdown(self) {
        self.router.shutdown();
        drop(self.wal);
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// An add op with its stream end time, opaque outside this file.
pub struct MatchedAdd(UpdateOp, f64);

// ---------------------------------------------------------------------
// Utility against the exact greedy
// ---------------------------------------------------------------------

/// The fixed six-query probe: `k ∈ {5, 20} × τ ∈ {800, 1600, 2400}`,
/// binary preference, scored against Inc-Greedy over exact coverage.
pub struct UtilityProbe {
    /// `(query, exact utility of Inc-Greedy's sites)`.
    entries: Vec<(Query, f64)>,
}

impl UtilityProbe {
    /// Builds exact coverage for each τ on `trajs` and runs Inc-Greedy.
    fn on(w: &World, trajs: &TrajectorySet) -> UtilityProbe {
        let s = &w.scenario;
        let mut entries = Vec::new();
        for tau in [800.0, 1_600.0, 2_400.0] {
            let coverage =
                CoverageIndex::build(&s.net, trajs, &s.sites, tau, DetourModel::RoundTrip, 2);
            for k in [5, 20] {
                let exact = inc_greedy(&coverage, &GreedyConfig::binary(k, tau));
                entries.push((Query::new(k, tau, Psi::Binary), exact.utility));
            }
        }
        UtilityProbe { entries }
    }

    /// The probe on the scenario's own corpus.
    pub fn on_world(w: &World) -> UtilityProbe {
        Self::on(w, &w.scenario.trajectories)
    }

    /// The probe on the corpus recovery reconstructed.
    pub fn on_recovered(w: &World, r: &Recovery) -> UtilityProbe {
        Self::on(w, r.store.load().trajs())
    }

    /// Mean over the six queries of (exact utility of the sites `serve`
    /// returns) ÷ (exact utility of Inc-Greedy's sites), on `trajs`.
    fn ratio_on(
        &self,
        w: &World,
        trajs: &TrajectorySet,
        mut serve: impl FnMut(&Query) -> Vec<NodeId>,
    ) -> f64 {
        let net = &w.scenario.net;
        let sum: f64 = self
            .entries
            .iter()
            .map(|(q, exact)| {
                let tq = q.tops();
                let sites = serve(q);
                let eval = evaluate_sites(
                    net,
                    trajs,
                    &sites,
                    tq.tau,
                    tq.preference,
                    DetourModel::RoundTrip,
                );
                eval.utility / exact
            })
            .sum();
        sum / self.entries.len() as f64
    }

    /// [`UtilityProbe::ratio_on`] the scenario's own corpus.
    pub fn ratio(&self, w: &World, serve: impl FnMut(&Query) -> Vec<NodeId>) -> f64 {
        self.ratio_on(w, &w.scenario.trajectories, serve)
    }

    /// [`UtilityProbe::ratio_on`] the recovered corpus.
    pub fn ratio_recovered(
        &self,
        w: &World,
        r: &Recovery,
        serve: impl FnMut(&Query) -> Vec<NodeId>,
    ) -> f64 {
        self.ratio_on(w, r.store.load().trajs(), serve)
    }
}
