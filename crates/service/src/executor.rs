//! The monolithic service: NetClus's online phase — pick the ladder
//! instance for τ, cut the clustered rows, run Inc-Greedy — answered on
//! the caller's thread.
//!
//! Life of a request ([`NetClusService::query`]):
//!
//! 1. **Admission** — τ is quantized and the request validated.
//! 2. **Result cache** — the key is the query's shape `(τ, ψ)` at the
//!    live epoch; `k` is not in it. An entry holds one solve for
//!    the largest `k` asked at that shape, and every `k' ≤ k` is answered
//!    from it by prefix, bit for bit what a `k'`-solve returns (the
//!    [cache module](crate::cache)'s prefix rule). A hit touches no
//!    shared lock but the one stripe of the result cache its shape hashes
//!    to: shutdown and the live epoch are atomics, no snapshot is pinned,
//!    and its counters, latency and admission-stage histograms are
//!    per-thread stripes ([`crate::metrics`]). A first request for some
//!    `k' <` the entry's `k` makes that answer once (two allocations);
//!    every later one is a pointer clone.
//! 3. **Miss** — **one** snapshot is pinned, and the answer is computed
//!    against that epoch alone: the key at the pinned epoch goes through
//!    `EpochLru::get_or_try_build_prefix`, and a caller that finds the
//!    shape being solved for at least its `k` waits for that solve
//!    instead of repeating it (`dedup_joined`); a larger `k` solves beside
//!    it. The epoch is part of the key, so a caller joins only a build at
//!    the epoch it pinned: dedup never serves an answer older than the
//!    caller's snapshot.
//! 4. **Solve** — the caller that builds takes one of
//!    [`ServiceConfig::workers`] solve permits (each a reused
//!    [`ProviderScratch`]), looks the instance's rows up through
//!    `rows_for` (single flight per instance and epoch) and solves.
//!    With no permit free it waits, unless
//!    [`ServiceConfig::queue_capacity`] callers already wait: then it is
//!    refused with [`SubmitError::QueueFull`], so overload sheds instead
//!    of queueing without bound.
//!
//! **Deadlines.** [`ServiceRequest::deadline`] runs from admission. A
//! builder whose budget is spent before it holds a permit computes
//! nothing and gets [`QueryError::DeadlineExceeded`]; a permit wait lasts
//! at most the remaining budget. Because solves run on their callers'
//! threads, two things follow:
//!
//! * a builder whose solve overruns its budget still caches the answer
//!   (the next caller of that query is served from it) and returns
//!   `DeadlineExceeded`;
//! * a caller that joined an identical solve waits for that build, so its
//!   wait is bounded by one solve, not by its budget; an answer that
//!   arrives after the budget is `DeadlineExceeded` for it too.
//!
//! Updates ([`NetClusService::apply_updates`]) go through the snapshot
//! store's copy-on-write path and never block queries; an epoch advance
//! purges both caches.

#![deny(clippy::too_many_lines)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use netclus::{ProviderScratch, TopsQuery};
use netclus_roadnet::NodeId;
use netclus_trajectory::TrajectorySet;

use crate::cache::{CacheOutcome, QueryKey, ResultCache, ShapeAnswers};
use crate::fault::QueryError;
use crate::lock_recover;
use crate::metrics::{MetricsClock, MetricsReport};
use crate::provider_cache::{carry_rows, quantize_tau, rows_for, ShardProviderCache};
use crate::snapshot::{Snapshot, SnapshotStore, UpdateBatch, UpdateReceipt};
use crate::trace::{psi_name, Stage, TraceConfig, TraceMeta, TraceSpans, Tracer};

/// A TOPS request, answered by Inc-Greedy over cluster representatives
/// (the paper's NETCLUS).
#[derive(Clone, Copy, Debug)]
pub struct ServiceRequest {
    /// The TOPS query `(k, τ, ψ)`.
    pub query: TopsQuery,
    /// Optional end-to-end deadline, measured from admission; what it
    /// bounds is stated in the [module docs](self). A blown budget is the
    /// typed [`QueryError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl ServiceRequest {
    /// An Inc-Greedy request.
    pub fn greedy(query: TopsQuery) -> Self {
        ServiceRequest {
            query,
            deadline: None,
        }
    }

    /// Attaches an end-to-end deadline budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// An answer, always computed against exactly one published snapshot.
///
/// `epoch`, `corpus_len` and `site_count` are all read from that single
/// snapshot, so consistency checks can verify the triple matches what was
/// published (a torn read across two epochs would produce a mismatch).
#[derive(Clone, Debug)]
pub struct ServiceAnswer {
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// Live trajectories in that snapshot's corpus.
    pub corpus_len: usize,
    /// Candidate sites flagged in that snapshot's index.
    pub site_count: usize,
    /// Selected sites, in selection order.
    pub sites: Vec<NodeId>,
    /// Solver-estimated utility (under `d̂r`; see the core crate).
    pub utility: f64,
    /// Trajectories with positive utility under the solver's view.
    pub covered: usize,
    /// Index instance that served the query.
    pub instance: usize,
    /// Cluster representatives processed.
    pub representatives: usize,
    /// Pure compute time (excluding the wait for a solve permit).
    pub compute_time: Duration,
}

/// Why a request was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Every solve permit is taken and the waiting room is full; retry
    /// later (load shedding).
    QueueFull,
    /// The service is shutting down; no further requests are admitted.
    ShuttingDown,
    /// The request can never be served (bad parameters).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("service queue is full"),
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
            SubmitError::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Solves that run at once, each with one reused provider scratch. A
    /// cache hit or a join onto an identical solve needs none.
    pub workers: usize,
    /// Callers that may wait for a solve permit; the next one is refused
    /// with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Provider-cache capacity in entries (one instance's built rows
    /// each, kept across every query of the epoch whose τ falls in that
    /// instance's band).
    pub provider_cache_capacity: usize,
    /// Query-path tracing + tail-sampling configuration (on by default;
    /// see [`TraceConfig`]).
    pub trace: TraceConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1_024,
            provider_cache_capacity: 32,
            trace: TraceConfig::default(),
        }
    }
}

/// The solve permits: the scratches of the solves not running and the
/// callers waiting for one.
struct Permits {
    scratches: Vec<ProviderScratch>,
    waiting: usize,
}

/// A held solve permit. Dropping it — after an unwinding solve too —
/// returns the scratch and wakes the waiters.
struct Permit<'a> {
    service: &'a NetClusService,
    scratch: ProviderScratch,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        lock_recover(&self.service.permits).scratches.push(scratch);
        // All, not one: a woken waiter may leave on its deadline instead
        // of taking the scratch, and shutdown waits for the last one.
        self.service.freed.notify_all();
    }
}

/// The in-process NetClus query server.
pub struct NetClusService {
    cfg: ServiceConfig,
    store: SnapshotStore,
    cache: ResultCache,
    providers: ShardProviderCache,
    clock: MetricsClock,
    permits: Mutex<Permits>,
    /// Admission has stopped. Set under `permits`, so a caller waiting
    /// for a permit cannot miss it; read without it by every request.
    shutdown: AtomicBool,
    /// Signalled when a permit is returned or admission stops.
    freed: Condvar,
    /// Query-path tracer: per-stage histograms + tail-sampled slow log.
    tracer: Tracer,
}

impl NetClusService {
    /// Publishes `(net, trajs, index)` as epoch 0. No thread is started:
    /// every query runs on its caller's thread, so this never fails; the
    /// `io::Result` is kept for existing callers.
    pub fn start(
        net: netclus_roadnet::RoadNetwork,
        trajs: TrajectorySet,
        index: netclus::NetClusIndex,
        cfg: ServiceConfig,
    ) -> std::io::Result<Self> {
        let scratches = (0..cfg.workers.max(1)).map(|_| ProviderScratch::default());
        Ok(NetClusService {
            cfg,
            store: SnapshotStore::new(net, trajs, index),
            cache: ResultCache::new(),
            providers: ShardProviderCache::new(cfg.provider_cache_capacity),
            clock: MetricsClock::default(),
            permits: Mutex::new(Permits {
                scratches: scratches.collect(),
                waiting: 0,
            }),
            shutdown: AtomicBool::new(false),
            freed: Condvar::new(),
            tracer: Tracer::new(cfg.trace),
        })
    }

    /// Answers one request on the calling thread (see the [module
    /// docs](self)).
    ///
    /// τ is normalized to millimeters at admission
    /// ([`crate::provider_cache::quantize_tau`]), so the result cache, the
    /// provider cache and the computation all agree on the effective
    /// threshold.
    ///
    /// # Errors
    /// [`QueryError::Submit`] for an invalid request, a full waiting room
    /// or shutdown; [`QueryError::DeadlineExceeded`] when the request's
    /// budget ran out first.
    pub fn query(&self, mut request: ServiceRequest) -> Result<Arc<ServiceAnswer>, QueryError> {
        // Quantize before validating so a τ that rounds to zero is
        // rejected rather than served with a silently different meaning.
        request.query.tau = quantize_tau(request.query.tau);
        validate_query(&request.query)?;
        let metrics = &self.clock.metrics;
        // Uniform post-shutdown contract: cached and uncached requests
        // are rejected alike.
        if self.shutdown.load(Ordering::Acquire) {
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown.into());
        }
        let start = Instant::now();
        let k = request.query.k;
        let key = QueryKey::new(&request.query, self.store.epoch());
        if let Some(answer) = self.cache.hit(&key, k) {
            // A hit is all admission: one clock read times both.
            let took = start.elapsed();
            self.tracer.stages().record(Stage::Admission, took);
            metrics.submitted.add(1);
            metrics.cache_served.add(1);
            metrics.completed.add(1);
            metrics.latency.record(took);
            return Ok(answer);
        }
        let mut spans = self.tracer.begin_at(start);
        let expiry = request.deadline.map(|d| start + d);
        let snap = self.store.load();
        let key = key.at_epoch(snap.epoch());
        let pinned = spans.stage(Stage::Admission, start);
        let built = self.cache.get_or_try_build(key, k, || {
            self.solve(&snap, &request, expiry, &mut spans, pinned)
        });
        if let Err(QueryError::Submit(_)) = built {
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.submitted.add(1);
        }
        let (answer, outcome) = built?;
        // A solve's trace fed the stage histograms already.
        if outcome != CacheOutcome::Miss {
            self.tracer
                .stages()
                .record(Stage::Admission, pinned - start);
        }
        if outcome == CacheOutcome::Hit {
            metrics.cache_served.add(1);
        } else if expiry.is_some_and(|at| Instant::now() >= at) {
            let deadline = request.deadline.unwrap_or_default();
            return Err(QueryError::DeadlineExceeded { deadline });
        }
        metrics.completed.add(1);
        metrics.latency.record(start.elapsed());
        Ok(answer)
    }

    /// [`NetClusService::query`] with a full waiting room treated as
    /// backpressure: it retries until admitted, so closed-loop callers
    /// self-throttle to service capacity. Returns `None` if the request is
    /// invalid, its deadline passes or the service shuts down.
    pub fn query_blocking(&self, request: ServiceRequest) -> Option<Arc<ServiceAnswer>> {
        loop {
            match self.query(request) {
                Err(QueryError::Submit(SubmitError::QueueFull)) => {
                    // Retry once a solve finishes, or after 200 µs.
                    let permits = lock_recover(&self.permits);
                    drop(self.freed.wait_timeout(permits, Duration::from_micros(200)));
                }
                answered => return answered.ok(),
            }
        }
    }

    /// The building caller's half of a query: a permit, the rows, the
    /// solve, the trace. The solve's answers serve its `k` and every
    /// smaller one.
    fn solve(
        &self,
        snap: &Snapshot,
        request: &ServiceRequest,
        expiry: Option<Instant>,
        spans: &mut TraceSpans,
        pinned: Instant,
    ) -> Result<ShapeAnswers, QueryError> {
        let mut permit = self.permit(expiry, request.deadline)?;
        let metrics = &self.clock.metrics;
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        metrics.batched_requests.fetch_add(1, Ordering::Relaxed);
        let query = &request.query;
        let computing = spans.stage(Stage::CacheProbe, pinned);
        // Rows at the top of the instance's τ band, single flight per
        // (epoch, instance): any k/ψ and any τ in the band skips
        // the build and cuts a prefix view.
        let (p, rows, outcome) = rows_for(
            snap,
            query.tau,
            0,
            &self.providers,
            1,
            &mut permit.scratch,
            &metrics.provider_build,
        );
        let provider = rows.view(query.tau);
        let mut cursor = spans.stage(Stage::ProviderGet, computing);
        spans.detail(match outcome {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Coalesced => "coalesced",
            CacheOutcome::Miss => "built",
        });
        let raw = snap.index().query_on(&provider, p, query);
        drop(permit);
        cursor = spans.stage(Stage::Solve, cursor);
        // What every k' shares; the sites, utility and coverage are cut
        // from the solution per k'.
        let shared = ServiceAnswer {
            epoch: snap.epoch(),
            corpus_len: snap.trajs().len(),
            site_count: snap.index().site_count(),
            sites: Vec::new(),
            utility: 0.0,
            covered: 0,
            instance: raw.instance,
            representatives: raw.representatives,
            compute_time: computing.elapsed(),
        };
        spans.stage(Stage::Reply, cursor);
        let meta = TraceMeta {
            epoch: shared.epoch,
            k: query.k,
            tau: query.tau,
            hot: outcome == CacheOutcome::Hit,
            psi: psi_name(&query.preference),
            instance: shared.instance,
        };
        self.tracer.finish(spans, meta);
        Ok(ShapeAnswers::new(query.k, raw.solution, shared))
    }

    /// Takes a solve permit, waiting while every one is in use — unless
    /// `queue_capacity` callers already wait, admission has stopped, or
    /// the budget runs out first.
    fn permit(
        &self,
        expiry: Option<Instant>,
        budget: Option<Duration>,
    ) -> Result<Permit<'_>, QueryError> {
        let metrics = &self.clock.metrics;
        let mut permits = lock_recover(&self.permits);
        let mut waited = false;
        let taken = loop {
            if self.shutdown.load(Ordering::Acquire) {
                break Err(SubmitError::ShuttingDown.into());
            }
            let now = Instant::now();
            if expiry.is_some_and(|at| now >= at) {
                let deadline = budget.unwrap_or_default();
                break Err(QueryError::DeadlineExceeded { deadline });
            }
            if let Some(scratch) = permits.scratches.pop() {
                break Ok(scratch);
            }
            if !waited {
                if permits.waiting >= self.cfg.queue_capacity {
                    break Err(SubmitError::QueueFull.into());
                }
                permits.waiting += 1;
                metrics.queue_enter();
                waited = true;
            }
            permits = match expiry {
                Some(at) => {
                    let woken = self.freed.wait_timeout(permits, at - now);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self
                    .freed
                    .wait(permits)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        };
        if waited {
            permits.waiting -= 1;
            metrics.queue_exit();
        }
        drop(permits);
        taken.map(|scratch| Permit {
            service: self,
            scratch,
        })
    }

    /// Applies an update batch copy-on-write and publishes the next epoch;
    /// stale answers are invalidated and resident rows are carried into
    /// the new epoch ([`carry_rows`]). Queries keep flowing throughout.
    pub fn apply_updates(&self, batch: UpdateBatch) -> UpdateReceipt {
        let t = Instant::now();
        let receipt = self.store.apply(&batch);
        self.cache.invalidate_before(receipt.epoch);
        carry_rows(&self.providers, receipt.epoch, &[(0, self.store.load())]);
        let metrics = &self.clock.metrics;
        metrics.update_latency.record(t.elapsed());
        metrics.epoch_advances.fetch_add(1, Ordering::Relaxed);
        metrics
            .updates_applied
            .fetch_add(receipt.applied as u64, Ordering::Relaxed);
        receipt
    }

    /// Pins the currently published snapshot (for out-of-band inspection,
    /// e.g. exact re-evaluation of answers).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.load()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// A point-in-time metrics report.
    pub fn metrics_report(&self) -> MetricsReport {
        let mut report = self.clock.metrics.report(
            self.clock.uptime(),
            self.store.epoch(),
            self.cfg.workers.max(1),
            self.cache.stats(),
            self.providers.stats(),
        );
        report.process.arena_resident_bytes =
            Some(self.store.load().index().heap_size_bytes() as u64);
        report
    }

    /// The full metrics surface flattened into flight-recorder samples
    /// (metrics report + stage/trace counters) — plug this into
    /// [`crate::flight::FlightSampler::start`].
    pub fn flight_sample(&self) -> Vec<(String, f64)> {
        let mut sample = crate::flight::flatten_json(&self.metrics_report().to_json_line());
        sample.extend(crate::flight::flatten_json(&self.tracer.stats_json_line()));
        sample
    }

    /// The query-path tracer (per-stage histograms + slow-query log).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stops admission: later queries, and every caller waiting for a
    /// solve permit, get [`SubmitError::ShuttingDown`]. Returns once the
    /// solves already running have finished (their callers are answered).
    /// Idempotent.
    pub fn shutdown(&self) {
        let mut permits = lock_recover(&self.permits);
        self.shutdown.store(true, Ordering::Release);
        self.freed.notify_all();
        while permits.scratches.len() < self.cfg.workers.max(1) {
            permits = self
                .freed
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Validates a TOPS query; shared between the executor and the shard
/// router so both admission paths agree.
pub(crate) fn validate_query(q: &TopsQuery) -> Result<(), SubmitError> {
    if q.k == 0 {
        return Err(SubmitError::Invalid("k must be at least 1".into()));
    }
    if !q.tau.is_finite() || q.tau <= 0.0 {
        return Err(SubmitError::Invalid(format!("invalid τ: {}", q.tau)));
    }
    if let Err(why) = q.preference.validate() {
        return Err(SubmitError::Invalid(why));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};
    use std::thread::Scope;

    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::{TrajId, Trajectory};

    use crate::{ShardProviderKey, UpdateOp};

    fn service(workers: usize) -> NetClusService {
        service_with(ServiceConfig {
            workers,
            ..Default::default()
        })
    }

    fn service_with(cfg: ServiceConfig) -> NetClusService {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..30 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..29u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for s in 0..6u32 {
            trajs.add(Trajectory::new(
                (2 + s / 2..8 - s / 3).map(NodeId).collect(),
            ));
        }
        for s in 0..4u32 {
            trajs.add(Trajectory::new((20 + s..26).map(NodeId).collect()));
        }
        let sites: Vec<NodeId> = net.nodes().collect();
        let index = NetClusIndex::build(
            &net,
            &trajs,
            &sites,
            NetClusConfig {
                tau_min: 200.0,
                tau_max: 4_000.0,
                threads: 1,
                ..Default::default()
            },
        );
        NetClusService::start(net, trajs, index, cfg).expect("start service")
    }

    /// Holds, on a thread of `scope`, the single-flight build of the rows
    /// that answer `tau` at the current epoch, so a solve that needs them
    /// parks — until the returned sender is dropped.
    fn hold_rows<'s, 'e>(
        scope: &'s Scope<'s, 'e>,
        svc: &'e NetClusService,
        tau: f64,
    ) -> Sender<()> {
        let (building, is_building) = channel();
        let (release, held) = channel::<()>();
        scope.spawn(move || {
            let snap = svc.snapshot();
            let p = snap.index().instance_for(tau);
            let instance = snap.index().instance(p);
            let built_tau = ProviderRows::built_tau_for(instance, tau);
            let key = ShardProviderKey::new(snap.epoch(), 0, p, built_tau);
            svc.providers.get_or_build(key, || {
                building.send(()).unwrap();
                let _ = held.recv();
                let bound = snap.trajs().id_bound();
                let scratch = &mut ProviderScratch::default();
                ProviderRows::build_with(instance, built_tau, bound, 1, scratch)
            });
        });
        is_building.recv().unwrap();
        release
    }

    /// Polls `ready` for at most 5 s.
    fn until(ready: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(5);
        while !ready() {
            assert!(Instant::now() < give_up, "state not reached in 5 s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn waiting(svc: &NetClusService) -> u64 {
        svc.clock.metrics.queue_depth.load(Ordering::Relaxed)
    }

    #[test]
    fn serves_an_answer_from_the_published_snapshot() {
        let svc = service(2);
        let q = TopsQuery::binary(2, 800.0);
        let greedy = svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        assert_eq!(greedy.sites.len(), 2);
        assert_eq!(greedy.epoch, 0);
        assert_eq!(greedy.corpus_len, 10);
        svc.shutdown();
    }

    #[test]
    fn identical_queries_share_cache_entries() {
        let svc = service(2);
        let q = TopsQuery::binary(1, 800.0);
        let a = svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        let b = svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second answer must come from cache");
        // One solve ran, on a free permit (nobody waited); the repeat was
        // answered from the cache.
        let report = svc.metrics_report();
        assert_eq!((report.submitted, report.completed), (2, 2));
        assert_eq!(report.cache_served, 1);
        assert_eq!((report.batches, report.batched_requests), (1, 1));
        assert_eq!((report.queue_depth, report.queue_depth_max), (0, 0));
        let cache = report.cache;
        assert_eq!((cache.hits, cache.misses, cache.entries), (1, 1, 1));
        assert_eq!(report.latency.count, 2);
        svc.shutdown();
    }

    /// One k = 20 solve per ψ answers every k' ≤ 20 at its τ without
    /// another solve, each equal bit for bit to a k'-solve of the bare
    /// index.
    #[test]
    fn one_solve_answers_every_smaller_k() {
        let svc = service(1);
        let snap = svc.snapshot();
        for preference in [
            PreferenceFunction::Binary,
            PreferenceFunction::LinearDecay,
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ] {
            let at = |k| TopsQuery {
                k,
                tau: 800.0,
                preference,
            };
            svc.query(ServiceRequest::greedy(at(20))).unwrap();
            let solves = svc.metrics_report().batches;
            for k in 1..=20 {
                let served = svc.query(ServiceRequest::greedy(at(k))).unwrap();
                let bare = snap.index().query(snap.trajs(), &at(k)).solution;
                assert_eq!(served.sites, bare.sites, "{preference:?} k={k}");
                let utility = (served.utility.to_bits(), served.covered);
                assert_eq!(utility, (bare.utility.to_bits(), bare.covered));
            }
            assert_eq!(svc.metrics_report().batches, solves, "{preference:?}");
        }
        let report = svc.metrics_report();
        assert_eq!((report.cache.misses, report.cache.hits), (3, 60));
        assert_eq!(report.cache.entries, 3);
        svc.shutdown();
    }

    /// A larger k than the resident solve's misses, solves once and
    /// replaces the entry, which then answers every k up to it.
    #[test]
    fn a_larger_k_solves_once_and_upgrades_the_entry() {
        let svc = service(1);
        let q = |k| ServiceRequest::greedy(TopsQuery::binary(k, 800.0));
        let two = svc.query(q(2)).unwrap();
        let five = svc.query(q(5)).unwrap();
        assert_eq!(two.sites[..], five.sites[..2]);
        let report = svc.metrics_report();
        let cache = report.cache;
        assert_eq!((report.batches, cache.misses, cache.entries), (2, 2, 1));
        for k in [1, 3, 5] {
            let served = svc.query(q(k)).unwrap();
            assert_eq!(served.sites[..], five.sites[..k]);
        }
        let report = svc.metrics_report();
        assert_eq!((report.batches, report.cache.hits), (2, 3));
        svc.shutdown();
    }

    /// A caller joins an in-flight solve only when that solve's k covers
    /// its own: a larger k solves beside a held smaller one, and a still
    /// smaller k joins the held one.
    #[test]
    fn a_larger_k_does_not_join_a_smaller_build() {
        let svc = &service(2);
        let q = |k| ServiceRequest::greedy(TopsQuery::binary(k, 800.0));
        std::thread::scope(|scope| {
            let release = hold_rows(scope, svc, 800.0);
            let small = scope.spawn(move || svc.query(q(2)));
            until(|| svc.providers.stats().coalesced == 1);
            let large = scope.spawn(move || svc.query(q(4)));
            until(|| svc.providers.stats().coalesced == 2);
            let cache = svc.cache.stats();
            assert_eq!(
                (cache.misses, cache.coalesced),
                (2, 0),
                "k = 4 joined k = 2"
            );
            let smaller = scope.spawn(move || svc.query(q(1)));
            until(|| svc.cache.stats().coalesced == 1);
            drop(release);
            let large = large.join().unwrap().unwrap();
            assert_eq!(small.join().unwrap().unwrap().sites[..], large.sites[..2]);
            assert_eq!(smaller.join().unwrap().unwrap().sites[..], large.sites[..1]);
        });
        let report = svc.metrics_report();
        assert_eq!((report.batches, report.dedup_joined), (2, 1));
        assert_eq!((report.cache.misses, report.cache.entries), (2, 1));
        svc.shutdown();
    }

    #[test]
    fn updates_advance_epochs_and_refresh_answers() {
        let svc = service(2);
        let q = TopsQuery::binary(1, 600.0);
        let before = svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        assert_eq!(before.epoch, 0);
        // Flood the far end with demand.
        let batch: UpdateBatch = (0..10)
            .map(|_| {
                crate::snapshot::UpdateOp::AddTrajectory(Trajectory::new(vec![
                    NodeId(28),
                    NodeId(29),
                ]))
            })
            .collect();
        let receipt = svc.apply_updates(batch);
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.applied, 10);
        let report = svc.metrics_report();
        assert_eq!((report.epoch_advances, report.updates_applied), (1, 10));
        assert_eq!(report.update_latency.count, 1);
        let after = svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.corpus_len, 20);
        assert!(after.sites[0].0 >= 26, "new demand ignored: {after:?}");
        svc.shutdown();
    }

    #[test]
    fn provider_cache_shared_across_k() {
        // Room for one instance's rows: every assertion below is about one
        // band at a time, and the second band must evict the first.
        let svc = service_with(ServiceConfig {
            workers: 1,
            provider_cache_capacity: 1,
            ..Default::default()
        });
        for k in 1..=4 {
            svc.query_blocking(ServiceRequest::greedy(TopsQuery::binary(k, 800.0)))
                .unwrap();
        }
        let report = svc.metrics_report();
        assert_eq!(
            report.providers.misses, 1,
            "τ=800 must build exactly once: {:?}",
            report.providers
        );
        // k = 2, 3, 4 each outgrow the resident answer and solve again.
        assert!(report.providers.hits >= 3);
        assert!(report.provider_hit_rate() > 0.5);
        assert_eq!(report.provider_build.count, 1);
        // Admission-time quantization: a bitwise-noisy τ still hits.
        svc.query_blocking(ServiceRequest::greedy(TopsQuery::binary(5, 800.000_000_1)))
            .unwrap();
        assert_eq!(svc.metrics_report().providers.misses, 1);
        // Another τ in the same band (612.5–1071.9 m at γ = 0.75) is a
        // prefix view of the resident rows, not a build.
        let same_band = TopsQuery::binary(1, 900.0);
        let served = svc
            .query_blocking(ServiceRequest::greedy(same_band))
            .unwrap();
        let report = svc.metrics_report();
        assert_eq!(report.providers.misses, 1, "{:?}", report.providers);
        assert_eq!(report.providers.entries, 1);
        let snap = svc.snapshot();
        let bare = snap.index().query(snap.trajs(), &same_band);
        assert_eq!(served.sites, bare.solution.sites);
        assert_eq!(served.utility.to_bits(), bare.solution.utility.to_bits());
        // A τ in another band is a genuine miss.
        svc.query_blocking(ServiceRequest::greedy(TopsQuery::binary(1, 1_200.0)))
            .unwrap();
        let report = svc.metrics_report();
        assert_eq!(report.providers.misses, 2);
        assert_eq!(report.provider_build.count, 2);
        let providers = report.providers;
        assert_eq!((providers.evictions, providers.entries), (1, 1));
        svc.shutdown();
    }

    #[test]
    fn concurrent_cold_taus_in_one_band_share_one_build() {
        // Two clients released together at a cold epoch, different τ in
        // one band: the rows are built once and the other client either
        // waits on that build or finds it finished.
        let svc = service(2);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for tau in [700.0, 1_000.0] {
                let (svc, gate) = (&svc, &gate);
                scope.spawn(move || {
                    gate.wait();
                    svc.query_blocking(ServiceRequest::greedy(TopsQuery::binary(2, tau)))
                        .expect("served");
                });
            }
        });
        let report = svc.metrics_report();
        assert_eq!(report.provider_build.count, 1, "{:?}", report.providers);
        assert_eq!(report.providers.misses, 1, "{:?}", report.providers);
        assert_eq!(
            report.providers.hits + report.providers.coalesced,
            1,
            "{:?}",
            report.providers
        );
        svc.shutdown();
    }

    #[test]
    fn epoch_advance_invalidates_provider_cache() {
        let svc = service(1);
        svc.query_blocking(ServiceRequest::greedy(TopsQuery::binary(1, 800.0)))
            .unwrap();
        assert_eq!(svc.metrics_report().providers.entries, 1);
        // A site op may move a representative: the rows are purged.
        let receipt = svc.apply_updates(vec![
            UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(0), NodeId(1)])),
            UpdateOp::RemoveSite(NodeId(4)),
        ]);
        assert_eq!(receipt.applied, 2);
        let report = svc.metrics_report();
        assert_eq!(report.providers.entries, 0, "stale provider survived");
        assert_eq!(report.providers.invalidated, 1);
        // The next query at the same τ rebuilds against the new epoch.
        let after = svc
            .query_blocking(ServiceRequest::greedy(TopsQuery::binary(2, 800.0)))
            .unwrap();
        assert_eq!(after.epoch, 1);
        assert_eq!(svc.metrics_report().providers.misses, 2);
        svc.shutdown();
    }

    /// A batch of trajectory adds and removes carries the resident rows
    /// into the new epoch, patched: no rebuild, and the answer is the one
    /// a service that never held rows gives at that epoch.
    #[test]
    fn trajectory_only_publish_carries_provider_rows() {
        let batch = || {
            vec![
                UpdateOp::AddTrajectory(Trajectory::new((10..16).map(NodeId).collect())),
                UpdateOp::RemoveTrajectory(TrajId(0)),
                UpdateOp::AddTrajectory(Trajectory::new((21..24).map(NodeId).collect())),
                UpdateOp::RemoveTrajectory(TrajId(10)),
            ]
        };
        let ask = |svc: &NetClusService| {
            svc.query_blocking(ServiceRequest::greedy(TopsQuery::binary(3, 800.0)))
                .unwrap()
        };
        let svc = service(1);
        ask(&svc);
        assert_eq!(svc.apply_updates(batch()).applied, 4);
        let report = svc.metrics_report();
        assert_eq!(report.providers.entries, 1, "the rows were not carried");
        assert_eq!(report.providers.invalidated, 0);
        let carried = ask(&svc);
        assert_eq!(carried.epoch, 1);
        let providers = svc.metrics_report().providers;
        assert_eq!(
            (providers.misses, providers.hits),
            (1, 1),
            "carried rows were rebuilt"
        );

        let fresh = service(1);
        fresh.apply_updates(batch());
        let rebuilt = ask(&fresh);
        assert_eq!(rebuilt.epoch, 1);
        assert_eq!(fresh.metrics_report().providers.misses, 1);
        assert_eq!(carried.sites, rebuilt.sites);
        assert_eq!(carried.utility.to_bits(), rebuilt.utility.to_bits());
        assert_eq!(carried.covered, rebuilt.covered);
        svc.shutdown();
        fresh.shutdown();
    }

    #[test]
    fn invalid_requests_fail_fast() {
        let svc = service(1);
        let invalid = |request| {
            matches!(
                svc.query(request),
                Err(QueryError::Submit(SubmitError::Invalid(_)))
            )
        };
        assert!(invalid(ServiceRequest::greedy(TopsQuery::binary(0, 800.0))));
        assert!(invalid(ServiceRequest::greedy(TopsQuery::binary(1, -5.0))));
        // τ below the millimeter quantum rounds to 0 and must be rejected,
        // not served with a silently different threshold.
        assert!(invalid(ServiceRequest::greedy(TopsQuery::binary(1, 1e-4))));
        svc.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_fast_and_blocking_returns_none() {
        let svc = service(2);
        // Warm the cache so a hit would be served if admission allowed it.
        let q = TopsQuery::binary(1, 800.0);
        svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        svc.shutdown();
        // Cached and uncached requests are rejected alike after shutdown.
        let stopped = QueryError::Submit(SubmitError::ShuttingDown);
        assert_eq!(svc.query(ServiceRequest::greedy(q)).unwrap_err(), stopped);
        let uncached = ServiceRequest::greedy(TopsQuery::binary(2, 900.0));
        assert_eq!(svc.query(uncached).unwrap_err(), stopped);
        // Must return, not spin: shutdown is terminal, not transient.
        assert!(svc.query_blocking(ServiceRequest::greedy(q)).is_none());
    }

    #[test]
    fn dedup_never_serves_an_answer_older_than_the_submitters_epoch() {
        // Two permits, so the post-update caller never waits on the one
        // the held solve occupies.
        let svc = &service(2);
        let q = ServiceRequest::greedy(TopsQuery::binary(2, 700.0));
        std::thread::scope(|scope| {
            let release = hold_rows(scope, svc, 700.0);
            // A caller pins epoch 0 and parks inside its solve of `q`.
            let first = scope.spawn(move || svc.query(q));
            until(|| svc.providers.stats().coalesced == 1);
            svc.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(vec![
                NodeId(0),
            ]))]);
            // The same query pinned at epoch 1 is another key: it is
            // solved on its own snapshot while the epoch-0 build is held.
            let fresh = scope.spawn(move || svc.query(q));
            until(|| fresh.is_finished());
            let fresh = fresh.join().unwrap().expect("answered");
            assert_eq!(fresh.epoch, 1, "stale epoch served to a post-update caller");
            assert_eq!(svc.metrics_report().dedup_joined, 0);
            drop(release);
            // The pre-update caller is answered from the epoch it pinned.
            assert_eq!(first.join().unwrap().expect("answered").epoch, 0);
        });
        svc.shutdown();
    }

    /// Admission against a solve that cannot finish: the test holds the
    /// single-flight build of the rows the one permit's solve needs, so
    /// that solve stays in flight for as long as the assertions take.
    #[test]
    fn a_blocked_worker_queues_joins_and_rejects_at_the_bound() {
        let svc = &service_with(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        });
        let q = |k| ServiceRequest::greedy(TopsQuery::binary(k, 800.0));
        std::thread::scope(|scope| {
            let release = hold_rows(scope, svc, 800.0);
            let first = scope.spawn(move || svc.query(q(1)));
            until(|| svc.providers.stats().coalesced == 1);
            // Identical callers join its build and take no permit ...
            let joined = [(); 2].map(|()| scope.spawn(move || svc.query(q(1))));
            until(|| svc.cache.stats().coalesced == 2);
            assert_eq!(waiting(svc), 0);
            // ... distinct ones wait for the permit up to the bound, and
            // the next is turned away (the budget only bounds a failure).
            let queued = [2, 3].map(|k| scope.spawn(move || svc.query(q(k))));
            until(|| waiting(svc) == 2);
            let next = q(4).with_deadline(Duration::from_secs(5));
            let full = QueryError::Submit(SubmitError::QueueFull);
            assert_eq!(svc.query(next).unwrap_err(), full);
            let report = svc.metrics_report();
            assert_eq!(report.rejected, 1);
            assert_eq!(report.dedup_joined, 2);
            assert_eq!((report.queue_depth, report.queue_depth_max), (2, 2));
            drop(release);
            let answer = first.join().unwrap().unwrap();
            for handle in joined {
                assert!(Arc::ptr_eq(&handle.join().unwrap().unwrap(), &answer));
            }
            for handle in queued {
                assert!(handle.join().unwrap().is_ok());
            }
        });
        let report = svc.metrics_report();
        let counts = (report.submitted, report.rejected, report.completed);
        assert_eq!(counts, (5, 1, 5));
        assert_eq!((report.batches, report.batched_requests), (3, 3));
        assert_eq!(report.providers.coalesced, 1);
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_and_typed() {
        let svc = service(1);
        let q = TopsQuery::binary(2, 800.0);
        // A zero budget is spent at admission: the caller gets the typed
        // error, never an unbounded wait, and nothing is computed.
        match svc.query(ServiceRequest::greedy(q).with_deadline(Duration::ZERO)) {
            Err(QueryError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let report = svc.metrics_report();
        assert_eq!((report.provider_build.count, report.batches), (0, 0));
        // The service stays healthy: a generous budget answers normally.
        let relaxed = ServiceRequest::greedy(q).with_deadline(Duration::from_secs(30));
        let answer = svc.query(relaxed).expect("within budget");
        assert_eq!(answer.sites.len(), 2);
        // Without any deadline the answer comes from the cache.
        assert!(svc.query(ServiceRequest::greedy(q)).is_ok());
        svc.shutdown();
    }

    /// A solve that overruns its caller's budget is typed for that caller
    /// and still serves the next one from the cache.
    #[test]
    fn an_overrunning_solve_is_cached_and_typed() {
        let svc = &service(1);
        let budget = Duration::from_millis(100);
        let q = ServiceRequest::greedy(TopsQuery::binary(2, 800.0));
        std::thread::scope(|scope| {
            let release = hold_rows(scope, svc, 800.0);
            let late = scope.spawn(move || svc.query(q.with_deadline(budget)));
            until(|| svc.providers.stats().coalesced == 1);
            std::thread::sleep(budget);
            drop(release);
            let overrun = QueryError::DeadlineExceeded { deadline: budget };
            assert_eq!(late.join().unwrap().unwrap_err(), overrun);
        });
        assert!(svc.query(q).is_ok());
        let report = svc.metrics_report();
        assert_eq!((report.batches, report.cache_served), (1, 1));
        svc.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drains() {
        let svc = &service(1);
        let q = |k| ServiceRequest::greedy(TopsQuery::binary(k, 700.0));
        let stopped = QueryError::Submit(SubmitError::ShuttingDown);
        std::thread::scope(|scope| {
            let release = hold_rows(scope, svc, 700.0);
            let running = scope.spawn(move || svc.query(q(1)));
            until(|| svc.providers.stats().coalesced == 1);
            let queued = [2, 3].map(|k| scope.spawn(move || svc.query(q(k))));
            until(|| waiting(svc) == 2);
            // Permit waiters are turned away at once; shutdown itself
            // returns only after the running solve.
            let stopping = scope.spawn(|| svc.shutdown());
            until(|| queued.iter().all(|handle| handle.is_finished()));
            for handle in queued {
                assert_eq!(handle.join().unwrap().unwrap_err(), stopped);
            }
            assert!(!stopping.is_finished(), "returned with a solve running");
            drop(release);
            assert!(running.join().unwrap().is_ok(), "running solve answered");
            stopping.join().unwrap();
        });
        svc.shutdown();
        assert_eq!(svc.query(q(1)).unwrap_err(), stopped);
    }
}
