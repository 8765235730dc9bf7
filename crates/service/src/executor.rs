//! The worker-pool executor: bounded admission, request batching, in-flight
//! deduplication.
//!
//! Life of a request:
//!
//! 1. **Admission** — [`NetClusService::submit`] validates the request,
//!    probes the result cache at the current epoch (a hit answers
//!    immediately), then either *joins* an identical in-flight computation
//!    or enqueues a new job. The queue is bounded; when full the request is
//!    rejected so overload degrades by shedding instead of by unbounded
//!    memory growth.
//! 2. **Dispatch** — each worker drains up to
//!    [`ServiceConfig::max_batch`] jobs in one critical section and pins
//!    **one** snapshot for the whole batch, amortizing the snapshot load
//!    and keeping every answer of the batch on a single epoch.
//! 3. **Completion** — the answer is inserted into the cache under
//!    `(query, variant, epoch)` and delivered to every waiter that joined
//!    while the computation ran. Deduplication is epoch-honest: a waiter
//!    that observed a newer epoch at submit than the snapshot the answer
//!    was computed on is re-flown against a fresh snapshot instead of
//!    being served the stale result.
//!
//! Updates ([`NetClusService::apply_updates`]) go through the snapshot
//! store's copy-on-write path and never block queries; epoch advance
//! invalidates stale cache entries.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netclus::{FmGreedyConfig, ProviderScratch, TopsQuery};
use netclus_roadnet::NodeId;
use netclus_trajectory::TrajectorySet;

use crate::cache::{CacheOutcome, QueryKey, ResultCache};
use crate::fault::QueryError;
use crate::lock_recover;
use crate::metrics::{MetricsClock, MetricsReport};
use crate::provider_cache::{quantize_tau, rows_for, ShardProviderCache};
use crate::snapshot::{SnapshotStore, UpdateBatch, UpdateReceipt};
use crate::trace::{psi_name, Stage, TraceConfig, TraceMeta, Tracer};

/// Which solver answers the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryVariant {
    /// Inc-Greedy over cluster representatives (the paper's NETCLUS).
    Greedy,
    /// FM-sketch greedy over representatives (FM-NETCLUS; binary ψ only).
    Fm {
        /// Sketch copies `f`.
        copies: usize,
        /// Sketch family seed.
        seed: u64,
    },
}

/// A TOPS request: the query plus the solver variant.
#[derive(Clone, Copy, Debug)]
pub struct ServiceRequest {
    /// The TOPS query `(k, τ, ψ)`.
    pub query: TopsQuery,
    /// The solver variant.
    pub variant: QueryVariant,
    /// Optional end-to-end deadline, measured from admission. A request
    /// whose every waiter has already expired is shed by the worker
    /// instead of computed; [`ResponseHandle::wait_checked`] turns the
    /// blown budget into a typed [`QueryError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl ServiceRequest {
    /// An Inc-Greedy request.
    pub fn greedy(query: TopsQuery) -> Self {
        ServiceRequest {
            query,
            variant: QueryVariant::Greedy,
            deadline: None,
        }
    }

    /// An FM-sketch request (requires a binary preference).
    pub fn fm(query: TopsQuery, copies: usize, seed: u64) -> Self {
        ServiceRequest {
            query,
            variant: QueryVariant::Fm { copies, seed },
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
    /// Pure compute time (excluding queueing).
    pub compute_time: Duration,
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later (load shedding).
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

/// A pending answer; obtained from [`NetClusService::submit`].
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Arc<ServiceAnswer>>,
    /// The request's total deadline budget (for the typed error).
    deadline_total: Option<Duration>,
    /// Admission time plus the budget: the wall-clock expiry instant.
    deadline_at: Option<Instant>,
}

impl ResponseHandle {
    /// Blocks until the answer arrives. Returns `None` only if the service
    /// shut down (or shed the expired request) before answering.
    pub fn wait(self) -> Option<Arc<ServiceAnswer>> {
        self.rx.recv().ok()
    }

    /// Waits up to `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<ServiceAnswer>> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Blocks until the answer arrives or the request's deadline passes,
    /// whichever is first, with a typed verdict: a blown budget is
    /// [`QueryError::DeadlineExceeded`] — never an unbounded wait — and a
    /// shutdown before answering is [`SubmitError::ShuttingDown`].
    pub fn wait_checked(self) -> Result<Arc<ServiceAnswer>, QueryError> {
        let Some(at) = self.deadline_at else {
            return self
                .rx
                .recv()
                .map_err(|_| QueryError::Submit(SubmitError::ShuttingDown));
        };
        let deadline = self.deadline_total.unwrap_or_default();
        match self
            .rx
            .recv_timeout(at.saturating_duration_since(Instant::now()))
        {
            Ok(answer) => Ok(answer),
            Err(RecvTimeoutError::Timeout) => Err(QueryError::DeadlineExceeded { deadline }),
            // Disconnected early means shutdown; disconnected at/after the
            // expiry instant means the worker shed the expired request.
            Err(RecvTimeoutError::Disconnected) if Instant::now() >= at => {
                Err(QueryError::DeadlineExceeded { deadline })
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(QueryError::Submit(SubmitError::ShuttingDown))
            }
        }
    }
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads answering queries.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Maximum jobs a worker drains (and answers on one pinned snapshot)
    /// per dispatch.
    pub max_batch: usize,
    /// Result-cache capacity in answers.
    pub cache_capacity: usize,
    /// Provider-cache capacity in entries (one instance's built rows
    /// each, kept across every query of the epoch whose τ falls in that
    /// instance's band).
    pub provider_cache_capacity: usize,
    /// Threads used to build one clustered provider on a cache miss.
    /// Workers already parallelize across queries, so the default of 1
    /// avoids oversubscription; raise it for low-concurrency deployments
    /// where single-query latency dominates.
    pub provider_build_threads: usize,
    /// Query-path tracing + tail-sampling configuration (on by default;
    /// see [`TraceConfig`]).
    pub trace: TraceConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1_024,
            max_batch: 16,
            cache_capacity: 1_024,
            provider_cache_capacity: 32,
            provider_build_threads: 1,
            trace: TraceConfig::default(),
        }
    }
}

/// One request waiting on a flight: its response channel, its submit time
/// (for latency), and the epoch it observed at submit — the answer it
/// receives must be at least that fresh.
struct Waiter {
    tx: Sender<Arc<ServiceAnswer>>,
    submitted: Instant,
    min_epoch: u64,
    /// Wall-clock expiry; a flight whose every waiter has expired is shed.
    deadline: Option<Instant>,
}

/// A deduplicated unit of work: one `(query, variant)` with every waiter
/// that asked for it while it was queued or computing.
struct Flight {
    query: TopsQuery,
    variant: QueryVariant,
    waiters: Vec<Waiter>,
}

/// Epoch-less key identifying identical queries for deduplication.
type FlightKey = QueryKey;

struct QueueState {
    jobs: VecDeque<FlightKey>,
    shutdown: bool,
}

struct Inner {
    cfg: ServiceConfig,
    /// Mirrors `QueueState::shutdown` for lock-free rejection on the
    /// submit fast path.
    stopping: AtomicBool,
    store: SnapshotStore,
    cache: ResultCache,
    providers: ShardProviderCache,
    clock: MetricsClock,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    inflight: Mutex<HashMap<FlightKey, Flight>>,
    /// Query-path tracer: per-stage histograms + tail-sampled slow log.
    tracer: Tracer,
}

/// The in-process NetClus query server.
pub struct NetClusService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl NetClusService {
    /// Publishes `(net, trajs, index)` as epoch 0 and starts the worker
    /// pool. Fails with the OS error if a worker thread cannot be spawned
    /// (resource exhaustion); any workers already started are stopped and
    /// joined before returning, so a failed construction leaks nothing.
    pub fn start(
        net: netclus_roadnet::RoadNetwork,
        trajs: TrajectorySet,
        index: netclus::NetClusIndex,
        cfg: ServiceConfig,
    ) -> std::io::Result<Self> {
        let inner = Arc::new(Inner {
            cfg,
            stopping: AtomicBool::new(false),
            store: SnapshotStore::new(net, trajs, index),
            cache: ResultCache::new(cfg.cache_capacity),
            providers: ShardProviderCache::new(cfg.provider_cache_capacity),
            clock: MetricsClock::default(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            tracer: Tracer::new(cfg.trace),
        });
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let w = Arc::clone(&inner);
            match std::thread::Builder::new()
                .name(format!("netclus-worker-{i}"))
                .spawn(move || worker_loop(&w))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    inner.stopping.store(true, Ordering::Release);
                    lock_recover(&inner.queue).shutdown = true;
                    inner.queue_cv.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(NetClusService {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Submits a request. On success the returned handle resolves to the
    /// answer; rejected requests fail fast with [`SubmitError`].
    ///
    /// τ is normalized to millimeters at admission
    /// ([`crate::provider_cache::quantize_tau`]), so the result cache, the
    /// provider cache and the computation all agree on the effective
    /// threshold.
    pub fn submit(&self, mut request: ServiceRequest) -> Result<ResponseHandle, SubmitError> {
        // Quantize before validating so a τ that rounds to zero is
        // rejected rather than served with a silently different meaning.
        request.query.tau = quantize_tau(request.query.tau);
        validate(&request)?;
        let inner = &*self.inner;
        let metrics = &inner.clock.metrics;
        // Uniform post-shutdown contract: cached and uncached requests
        // are rejected alike.
        if inner.stopping.load(Ordering::Acquire) {
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::ShuttingDown);
        }
        let (tx, rx) = channel();
        let submitted = Instant::now();
        let deadline_at = request.deadline.map(|d| submitted + d);
        let handle = |rx| ResponseHandle {
            rx,
            deadline_total: request.deadline,
            deadline_at,
        };

        // Fast path: the answer for the current epoch is already cached.
        let epoch = inner.store.epoch();
        let key = QueryKey::new(&request.query, request.variant, epoch);
        if let Some(answer) = inner.cache.get(&key) {
            metrics.submitted.fetch_add(1, Ordering::Relaxed);
            metrics.cache_served.fetch_add(1, Ordering::Relaxed);
            metrics.completed.fetch_add(1, Ordering::Relaxed);
            metrics.latency.record(submitted.elapsed());
            inner
                .tracer
                .stages()
                .record(Stage::Admission, submitted.elapsed());
            let _ = tx.send(answer);
            return Ok(handle(rx));
        }

        let flight_key = key.at_epoch(0);
        let waiter = Waiter {
            tx,
            submitted,
            min_epoch: epoch,
            deadline: deadline_at,
        };
        {
            let mut inflight = lock_recover(&inner.inflight);
            if let Some(flight) = inflight.get_mut(&flight_key) {
                // Identical query already queued or computing: attach. The
                // recorded `min_epoch` keeps the join honest — if the
                // running computation pinned an older snapshot, the worker
                // re-enqueues this waiter instead of serving it stale.
                flight.waiters.push(waiter);
                metrics.submitted.fetch_add(1, Ordering::Relaxed);
                metrics.dedup_joined.fetch_add(1, Ordering::Relaxed);
                inner
                    .tracer
                    .stages()
                    .record(Stage::Admission, submitted.elapsed());
                return Ok(handle(rx));
            }
            // New flight: reserve queue space before registering it.
            let mut queue = lock_recover(&inner.queue);
            if queue.shutdown {
                metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::ShuttingDown);
            }
            if queue.jobs.len() >= inner.cfg.queue_capacity {
                metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull);
            }
            inflight.insert(
                flight_key,
                Flight {
                    query: request.query,
                    variant: request.variant,
                    waiters: vec![waiter],
                },
            );
            queue.jobs.push_back(flight_key);
            metrics.submitted.fetch_add(1, Ordering::Relaxed);
            metrics.queue_enter();
        }
        inner.queue_cv.notify_one();
        self.inner
            .tracer
            .stages()
            .record(Stage::Admission, submitted.elapsed());
        Ok(handle(rx))
    }

    /// Submits and blocks for the answer. A full queue is treated as
    /// backpressure: this retries indefinitely (with a short sleep) until
    /// admitted, so closed-loop callers self-throttle to service capacity.
    /// Use [`NetClusService::submit`] directly to shed load instead.
    /// Returns `None` if the request is invalid or the service shuts down.
    pub fn query_blocking(&self, request: ServiceRequest) -> Option<Arc<ServiceAnswer>> {
        loop {
            match self.submit(request) {
                Ok(handle) => return handle.wait(),
                Err(SubmitError::QueueFull) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(SubmitError::ShuttingDown) | Err(SubmitError::Invalid(_)) => return None,
            }
        }
    }

    /// Applies an update batch copy-on-write and publishes the next epoch;
    /// stale cache entries are invalidated. Queries keep flowing throughout.
    pub fn apply_updates(&self, batch: UpdateBatch) -> UpdateReceipt {
        let t = Instant::now();
        let receipt = self.inner.store.apply(&batch);
        self.inner.cache.invalidate_before(receipt.epoch);
        self.inner.providers.invalidate_before(receipt.epoch);
        let metrics = &self.inner.clock.metrics;
        metrics.update_latency.record(t.elapsed());
        metrics.epoch_advances.fetch_add(1, Ordering::Relaxed);
        metrics
            .updates_applied
            .fetch_add(receipt.applied as u64, Ordering::Relaxed);
        receipt
    }

    /// Pins the currently published snapshot (for out-of-band inspection,
    /// e.g. exact re-evaluation of answers).
    pub fn snapshot(&self) -> Arc<crate::snapshot::Snapshot> {
        self.inner.store.load()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.store.epoch()
    }

    /// A point-in-time metrics report.
    pub fn metrics_report(&self) -> MetricsReport {
        let mut report = self.inner.clock.metrics.report(
            self.inner.clock.uptime(),
            self.inner.store.epoch(),
            self.inner.cfg.workers.max(1),
            self.inner.cache.stats(),
            self.inner.providers.stats(),
        );
        report.process.arena_resident_bytes =
            Some(self.inner.store.load().index().heap_size_bytes() as u64);
        report
    }

    /// The full metrics surface flattened into flight-recorder samples
    /// (metrics report + stage/trace counters) — plug this into
    /// [`crate::flight::FlightSampler::start`].
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

    /// Drains the queue, stops the workers and joins them. Idempotent;
    /// also invoked by `Drop`.
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

impl Drop for NetClusService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Validates the solver-independent part of a TOPS query; shared between
/// the executor and the shard router so both admission paths agree.
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

fn validate(request: &ServiceRequest) -> Result<(), SubmitError> {
    let q = &request.query;
    validate_query(q)?;
    if matches!(request.variant, QueryVariant::Fm { .. }) && !q.preference.is_binary() {
        return Err(SubmitError::Invalid(
            "FM-NetClus requires the binary preference".into(),
        ));
    }
    if let QueryVariant::Fm { copies, .. } = request.variant {
        if copies == 0 {
            return Err(SubmitError::Invalid("FM needs at least one copy".into()));
        }
    }
    Ok(())
}

/// Worker main loop: drain a batch, pin one snapshot, answer each job.
/// Each worker owns one [`ProviderScratch`], reused across every provider
/// build it ever performs — the per-query allocations of the old path are
/// gone.
fn worker_loop(inner: &Inner) {
    let metrics = &inner.clock.metrics;
    let mut scratch = ProviderScratch::default();
    loop {
        let batch: Vec<FlightKey> = {
            let mut queue = lock_recover(&inner.queue);
            loop {
                if !queue.jobs.is_empty() {
                    let n = queue.jobs.len().min(inner.cfg.max_batch.max(1));
                    break queue.jobs.drain(..n).collect();
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
        metrics.queue_exit(batch.len() as u64);
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        metrics
            .batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // One snapshot pin for the whole batch: every answer below is
        // internally consistent with this single epoch.
        let snap = inner.store.load();
        for flight_key in batch {
            let (query, variant) = {
                let mut inflight = lock_recover(&inner.inflight);
                let flight = inflight
                    .get(&flight_key)
                    .expect("queued flight must be registered");
                // Deadline shed: if every waiter's budget already expired,
                // an answer helps nobody — drop the flight before paying
                // for the compute. The disconnected channels surface as
                // `DeadlineExceeded` in `wait_checked`.
                let now = Instant::now();
                if !flight.waiters.is_empty()
                    && flight
                        .waiters
                        .iter()
                        .all(|w| w.deadline.is_some_and(|d| d <= now))
                {
                    inflight.remove(&flight_key);
                    continue;
                }
                (flight.query, flight.variant)
            };
            let key = flight_key.at_epoch(snap.epoch());
            // Span recorder for this flight: worker-side stage
            // attribution (probe → provider → solve → reply).
            let mut spans = inner.tracer.begin();
            let mut cursor = spans.started();
            let mut hot = true;
            // Non-counting probe: the client-facing hit/miss counters were
            // already updated by this request's submit-time lookup.
            let peeked = inner.cache.peek(&key);
            cursor = spans.stage(Stage::CacheProbe, cursor);
            let answer = match peeked {
                Some(hit) => hit,
                None => {
                    let t = Instant::now();
                    // Rows first: cached per (epoch, instance) at the top
                    // of the instance's τ band, so any k/ψ/variant and any
                    // τ in the band skips the build and cuts a prefix view.
                    // Single flight: workers racing the same cold key wait
                    // for one build instead of each burning their own.
                    let (p, rows, outcome) = rows_for(
                        &snap,
                        query.tau,
                        0,
                        &inner.providers,
                        inner.cfg.provider_build_threads.max(1),
                        &mut scratch,
                        &metrics.provider_build,
                    );
                    let provider = rows.view(query.tau);
                    cursor = spans.stage(Stage::ProviderGet, cursor);
                    spans.detail(match outcome {
                        CacheOutcome::Hit => "hit",
                        CacheOutcome::Coalesced => "coalesced",
                        CacheOutcome::Miss => "built",
                    });
                    hot = outcome == CacheOutcome::Hit;
                    let raw = match variant {
                        QueryVariant::Greedy => snap.index().query_on(&provider, p, &query),
                        QueryVariant::Fm { copies, seed } => snap.index().query_fm_on(
                            &provider,
                            p,
                            &query,
                            &FmGreedyConfig {
                                k: query.k,
                                copies,
                                seed,
                            },
                        ),
                    };
                    cursor = spans.stage(Stage::Solve, cursor);
                    let answer = Arc::new(ServiceAnswer {
                        epoch: snap.epoch(),
                        corpus_len: snap.trajs().len(),
                        site_count: snap.index().site_count(),
                        sites: raw.solution.sites,
                        utility: raw.solution.utility,
                        covered: raw.solution.covered,
                        instance: raw.instance,
                        representatives: raw.representatives,
                        compute_time: t.elapsed(),
                    });
                    inner.cache.upsert(key, Arc::clone(&answer), |_| true);
                    answer
                }
            };
            // Completion: detach the flight and answer every waiter whose
            // observed epoch this answer satisfies. Waiters that joined
            // after a newer epoch was published must not be served the
            // older snapshot's answer — they are re-flown against a fresh
            // snapshot (store epochs are monotone, so the next load is at
            // least as new as anything they observed).
            let satisfied = {
                let mut inflight = lock_recover(&inner.inflight);
                let flight = inflight
                    .remove(&flight_key)
                    .expect("flight still registered");
                let (stale, satisfied): (Vec<Waiter>, Vec<Waiter>) = flight
                    .waiters
                    .into_iter()
                    .partition(|w| w.min_epoch > answer.epoch);
                if !stale.is_empty() {
                    inflight.insert(
                        flight_key,
                        Flight {
                            query,
                            variant,
                            waiters: stale,
                        },
                    );
                    // Internal retry, bypassing the admission bound (these
                    // requests were already admitted once).
                    let mut queue = lock_recover(&inner.queue);
                    queue.jobs.push_back(flight_key);
                    metrics.queue_enter();
                    drop(queue);
                    inner.queue_cv.notify_one();
                }
                satisfied
            };
            for w in satisfied {
                metrics.latency.record(w.submitted.elapsed());
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                let _ = w.tx.send(Arc::clone(&answer));
            }
            spans.stage(Stage::Reply, cursor);
            inner.tracer.finish(
                &spans,
                TraceMeta {
                    epoch: answer.epoch,
                    k: query.k,
                    tau: query.tau,
                    hot,
                    psi: psi_name(&query.preference),
                    instance: answer.instance,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus::prelude::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::Trajectory;

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

    #[test]
    fn serves_matching_answers_for_both_variants() {
        let svc = service(2);
        let q = TopsQuery::binary(2, 800.0);
        let greedy = svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        let fm = svc.query_blocking(ServiceRequest::fm(q, 50, 3)).unwrap();
        assert_eq!(greedy.sites.len(), 2);
        assert_eq!(fm.sites.len(), 2);
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
        // One flight was queued, dispatched alone and solved; the repeat
        // was answered at submit.
        let report = svc.metrics_report();
        assert_eq!((report.submitted, report.completed), (2, 2));
        assert_eq!(report.cache_served, 1);
        assert_eq!((report.batches, report.batched_requests), (1, 1));
        assert_eq!((report.queue_depth, report.queue_depth_max), (0, 1));
        let cache = report.cache;
        assert_eq!((cache.hits, cache.misses, cache.entries), (1, 1, 1));
        assert_eq!(report.latency.count, 2);
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
    fn provider_cache_shared_across_k_and_variants() {
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
        // FM at the same τ reuses the same rows.
        svc.query_blocking(ServiceRequest::fm(TopsQuery::binary(2, 800.0), 30, 1))
            .unwrap();
        let report = svc.metrics_report();
        assert_eq!(
            report.providers.misses, 1,
            "τ=800 must build exactly once: {:?}",
            report.providers
        );
        assert!(report.providers.hits >= 4);
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
        svc.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(vec![
            NodeId(0),
            NodeId(1),
        ]))]);
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

    #[test]
    fn invalid_requests_fail_fast() {
        let svc = service(1);
        assert!(matches!(
            svc.submit(ServiceRequest::greedy(TopsQuery::binary(0, 800.0))),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            svc.submit(ServiceRequest::greedy(TopsQuery::binary(1, -5.0))),
            Err(SubmitError::Invalid(_))
        ));
        // τ below the millimeter quantum rounds to 0 and must be rejected,
        // not served with a silently different threshold.
        assert!(matches!(
            svc.submit(ServiceRequest::greedy(TopsQuery::binary(1, 1e-4))),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            svc.submit(ServiceRequest::fm(
                TopsQuery {
                    k: 1,
                    tau: 800.0,
                    preference: PreferenceFunction::LinearDecay,
                },
                30,
                1
            )),
            Err(SubmitError::Invalid(_))
        ));
        svc.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_fast_and_blocking_returns_none() {
        let svc = service(2);
        // Warm the cache so the fast path would hit if it were reachable.
        let q = TopsQuery::binary(1, 800.0);
        svc.query_blocking(ServiceRequest::greedy(q)).unwrap();
        svc.shutdown();
        // Cached and uncached requests are rejected alike after shutdown.
        assert_eq!(
            svc.submit(ServiceRequest::greedy(q)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        assert_eq!(
            svc.submit(ServiceRequest::greedy(TopsQuery::binary(2, 900.0)))
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        // Must return, not spin: shutdown is terminal, not transient.
        assert!(svc.query_blocking(ServiceRequest::greedy(q)).is_none());
    }

    #[test]
    fn dedup_never_serves_an_answer_older_than_the_submitters_epoch() {
        // Single worker + a slow first query so a second submit can join
        // the in-flight flight after an epoch advance; the joiner must get
        // an epoch-1 answer, not the pinned epoch-0 one.
        let svc = service(1);
        let q = TopsQuery::binary(2, 700.0);
        // Occupy the worker with a different query so the flight for `q`
        // sits queued while we advance the epoch.
        let filler = svc
            .submit(ServiceRequest::greedy(TopsQuery::binary(3, 900.0)))
            .unwrap();
        let first = svc.submit(ServiceRequest::greedy(q)).unwrap();
        svc.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(vec![
            NodeId(0),
        ]))]);
        // This submit observes epoch 1 and joins (or re-creates) the
        // flight; whatever answer it gets must be from epoch >= 1.
        let joined = svc.submit(ServiceRequest::greedy(q)).unwrap();
        let joined_answer = joined.wait().expect("answered");
        assert!(
            joined_answer.epoch >= 1,
            "stale epoch {} served to a post-update submitter",
            joined_answer.epoch
        );
        assert!(filler.wait().is_some());
        // The pre-update submitter accepts any epoch (0 or 1 both valid).
        assert!(first.wait().is_some());
        svc.shutdown();
    }

    /// Admission against a worker that cannot finish: the test holds the
    /// single-flight build of the rows the worker's query needs, so the
    /// flight stays in flight and the queue behind it stays put for as
    /// long as the assertions take.
    #[test]
    fn a_blocked_worker_queues_joins_and_rejects_at_the_bound() {
        let svc = service_with(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        });
        let q = |k| ServiceRequest::greedy(TopsQuery::binary(k, 800.0));
        let snap = svc.snapshot();
        let p = snap.index().instance_for(800.0);
        let instance = snap.index().instance(p);
        let built_tau = ProviderRows::built_tau_for(instance, 800.0);
        let key = ShardProviderKey::new(0, 0, p, built_tau);
        let (building, is_building) = channel();
        let (release, held) = channel::<()>();
        let providers = &svc.inner.providers;
        let snap = &snap;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                providers.get_or_build(key, || {
                    building.send(()).unwrap();
                    let _ = held.recv();
                    let bound = snap.trajs().id_bound();
                    let scratch = &mut ProviderScratch::default();
                    ProviderRows::build_with(instance, built_tau, bound, 1, scratch)
                });
            });
            is_building.recv().unwrap();
            // The worker drains k = 1 and parks on the held build.
            let first = svc.submit(q(1)).unwrap();
            while svc.metrics_report().queue_depth > 0 {
                std::thread::yield_now();
            }
            // Identical requests join its flight; distinct ones queue up
            // to the bound and the next is turned away.
            let joined = [svc.submit(q(1)).unwrap(), svc.submit(q(1)).unwrap()];
            let queued = [svc.submit(q(2)).unwrap(), svc.submit(q(3)).unwrap()];
            assert_eq!(svc.submit(q(4)).unwrap_err(), SubmitError::QueueFull);
            let report = svc.metrics_report();
            assert_eq!((report.submitted, report.rejected), (5, 1));
            assert_eq!(report.dedup_joined, 2);
            assert_eq!((report.queue_depth, report.queue_depth_max), (2, 2));
            drop(release);
            let answer = first.wait().unwrap();
            for handle in joined {
                assert!(Arc::ptr_eq(&handle.wait().unwrap(), &answer));
            }
            for handle in queued {
                assert!(handle.wait().is_some());
            }
        });
        let report = svc.metrics_report();
        assert_eq!(report.completed, 5);
        assert_eq!((report.batches, report.batched_requests), (2, 3));
        assert_eq!(report.providers.coalesced, 1);
        svc.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_and_typed() {
        let svc = service(1);
        let q = TopsQuery::binary(2, 800.0);
        // A zero budget is expired at admission: the worker must shed the
        // flight (never compute it) and the waiter must get the typed
        // error, not an unbounded wait.
        let handle = svc
            .submit(ServiceRequest::greedy(q).with_deadline(Duration::ZERO))
            .unwrap();
        match handle.wait_checked() {
            Err(QueryError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The service stays healthy: a generous budget answers normally.
        let relaxed = svc
            .submit(ServiceRequest::greedy(q).with_deadline(Duration::from_secs(30)))
            .unwrap();
        let answer = relaxed.wait_checked().expect("within budget");
        assert_eq!(answer.sites.len(), 2);
        // Without any deadline, wait_checked degenerates to wait.
        let plain = svc.submit(ServiceRequest::greedy(q)).unwrap();
        assert!(plain.wait_checked().is_ok());
        svc.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drains() {
        let svc = service(3);
        let handles: Vec<_> = (1..=5)
            .map(|k| {
                svc.submit(ServiceRequest::greedy(TopsQuery::binary(k, 700.0)))
                    .unwrap()
            })
            .collect();
        svc.shutdown();
        svc.shutdown();
        // Workers drained the queue before exiting.
        for h in handles {
            assert!(h.wait().is_some());
        }
    }
}
