//! Service metrics: latency histogram, throughput, queue depth, cache
//! statistics — exposed as a serializable [`MetricsReport`].
//!
//! Everything is lock-free atomics so the hot path pays a handful of
//! relaxed increments per request. What every request bumps — the
//! admitted / answered / cache-served counters and the latency histogram
//! — is kept in per-thread `Stripes`, so two threads answering at once
//! never write the same cache line; a report sums the stripes. The report
//! serializes to single-line
//! JSON (through the crate's one writer, `jsonl` — the workspace is
//! dependency-free) so harness runs can be grepped and tracked over time.

#![deny(clippy::too_many_lines)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::cache::CacheStats;
use crate::jsonl;

/// Number of power-of-two latency buckets (bucket `i` holds samples with
/// `floor(log2(micros)) == i`; bucket 0 also holds sub-microsecond ones).
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over microseconds; the sample count
/// is the buckets' sum.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = if micros == 0 {
            0
        } else {
            (63 - micros.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        // A sub-microsecond sample (a cache hit) adds nothing to the sum,
        // and most samples do not raise the maximum: both skip their
        // read-modify-write then.
        if micros > 0 {
            self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        }
        if micros > self.max_micros.load(Ordering::Relaxed) {
            self.max_micros.fetch_max(micros, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Summarizes the histogram (mean, interpolated p50/p95/p99, max).
    ///
    /// Percentiles interpolate linearly within the winning log₂ bucket:
    /// reporting the raw upper bucket bound would inflate a percentile by
    /// up to 2× (a sample of 65 µs lives in the 64–127 µs bucket), so the
    /// rank's fractional position inside the bucket picks a point between
    /// the bucket's bounds instead, clamped to the observed maximum.
    /// Interpolated values stay monotone across buckets (a bucket's upper
    /// bound never exceeds the next bucket's lower bound).
    pub fn summary(&self) -> LatencySummary {
        Self::summary_of(std::iter::once(self))
    }

    /// [`LatencyHistogram::summary`] of the samples of every histogram in
    /// `parts` together, as one histogram holding them all would give.
    pub(crate) fn summary_of<'a>(parts: impl Iterator<Item = &'a Self>) -> LatencySummary {
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        let mut counts = [0u64; BUCKETS];
        for part in parts {
            sum += part.sum_micros.load(Ordering::Relaxed);
            max = max.max(part.max_micros.load(Ordering::Relaxed));
            for (total, bucket) in counts.iter_mut().zip(&part.buckets) {
                let n = bucket.load(Ordering::Relaxed);
                *total += n;
                count += n;
            }
        }
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if seen + c >= rank {
                    // Bucket i spans [2^i, 2^(i+1) − 1] µs (bucket 0
                    // starts at 0); walk `into` of the way through it.
                    let lower = if i == 0 { 0 } else { 1u64 << i };
                    let upper = ((1u64 << (i + 1)) - 1).min(max);
                    let into = (rank - seen) as f64 / c as f64;
                    let v = lower as f64 + into * upper.saturating_sub(lower) as f64;
                    return (v.round() as u64).min(max);
                }
                seen += c;
            }
            max
        };
        LatencySummary {
            count,
            mean_micros: sum.checked_div(count).unwrap_or(0),
            p50_micros: percentile(0.50),
            p95_micros: percentile(0.95),
            p99_micros: percentile(0.99),
            max_micros: max,
        }
    }
}

/// How many [`Stripes`] a striped value has: threads past this many share
/// stripes again, round robin.
const STRIPES: usize = 16;

/// One `T` per thread slot, each on cache lines of its own: a thread
/// updates only its slot, so threads recording at once never contend on a
/// line, and a reader combines the slots. Slots are handed to threads
/// round robin on their first use of any striped value.
#[derive(Debug)]
pub(crate) struct Stripes<T> {
    slots: Box<[Padded<T>]>,
}

/// A `T` on cache lines of its own. Two lines: the adjacent-line
/// prefetcher pairs lines, so one line of padding still lets neighbours
/// false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T: Default> Default for Stripes<T> {
    fn default() -> Self {
        Stripes {
            slots: (0..STRIPES).map(|_| Padded::default()).collect(),
        }
    }
}

impl<T> Stripes<T> {
    /// This thread's slot.
    #[inline]
    pub(crate) fn local(&self) -> &T {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
        }
        &self.slots[SLOT.with(|slot| *slot) % STRIPES].0
    }

    /// Every slot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|padded| &padded.0)
    }
}

impl Stripes<AtomicU64> {
    /// Adds `n` to this thread's count.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.local().fetch_add(n, Ordering::Relaxed);
    }

    /// The count over every thread.
    pub(crate) fn sum(&self) -> u64 {
        self.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

impl Stripes<LatencyHistogram> {
    /// Records one sample in this thread's histogram.
    #[inline]
    pub(crate) fn record(&self, latency: Duration) {
        self.local().record(latency);
    }

    /// The summary of every thread's samples together.
    pub(crate) fn summary(&self) -> LatencySummary {
        LatencyHistogram::summary_of(self.iter())
    }
}

/// A point-in-time latency summary, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency.
    pub mean_micros: u64,
    /// Median (interpolated within the winning bucket).
    pub p50_micros: u64,
    /// 95th percentile (interpolated within the winning bucket).
    pub p95_micros: u64,
    /// 99th percentile (interpolated within the winning bucket).
    pub p99_micros: u64,
    /// Largest sample.
    pub max_micros: u64,
}

/// Shared counters updated by the executor's hot path.
#[derive(Debug, Default)]
pub(crate) struct ServiceMetrics {
    /// Requests admitted: valid, and not refused for a full waiting room
    /// or shutdown.
    pub submitted: Stripes<AtomicU64>,
    /// Requests refused: the waiting room was full or the service was
    /// shutting down.
    pub rejected: AtomicU64,
    /// Requests answered.
    pub completed: Stripes<AtomicU64>,
    /// Requests answered from the result cache.
    pub cache_served: Stripes<AtomicU64>,
    /// Solves run (the service solves one request at a time, so
    /// `batched_requests` moves with it).
    pub batches: AtomicU64,
    /// Requests those solves answered for.
    pub batched_requests: AtomicU64,
    /// Callers waiting for a solve permit (the service) or round-1 tasks
    /// queued for the pool (the router) — a gauge.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_depth_max: AtomicU64,
    /// Update batches published.
    pub epoch_advances: AtomicU64,
    /// Individual update operations applied.
    pub updates_applied: AtomicU64,
    /// End-to-end request latency (submit → answer delivered).
    pub latency: Stripes<LatencyHistogram>,
    /// Update-path latency (copy-on-write apply → epoch published), so
    /// ingest batches are observable alongside query latency.
    pub update_latency: LatencyHistogram,
    /// Clustered-provider build latency (one sample per provider-cache
    /// miss; hits skip the build entirely).
    pub provider_build: LatencyHistogram,
}

impl ServiceMetrics {
    /// Bumps the queue-depth gauge, tracking the high-water mark.
    pub(crate) fn queue_enter(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Drops the queue-depth gauge by one.
    pub(crate) fn queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Builds a report from the counters plus the cache's and store's
    /// current state (`dedup_joined` is the result cache's `coalesced`).
    /// `elapsed` is the service uptime used for throughput.
    pub fn report(
        &self,
        elapsed: Duration,
        epoch: u64,
        workers: usize,
        cache: CacheStats,
        providers: CacheStats,
    ) -> MetricsReport {
        let completed = self.completed.sum();
        let secs = elapsed.as_secs_f64();
        MetricsReport {
            uptime: elapsed,
            workers,
            epoch,
            submitted: self.submitted.sum(),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            throughput_qps: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            cache_served: self.cache_served.sum(),
            dedup_joined: cache.coalesced,
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            epoch_advances: self.epoch_advances.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            latency: self.latency.summary(),
            update_latency: self.update_latency.summary(),
            provider_build: self.provider_build.summary(),
            cache,
            providers,
            process: ProcessGauges {
                rss_bytes: rss_bytes(),
                arena_resident_bytes: None,
            },
            shards: None,
        }
    }
}

/// Process-level gauges attached to every [`MetricsReport`] (uptime and
/// epoch are already first-class report fields; these add the memory
/// side). Both gauges are `Option`-shaped end to end: an unavailable
/// measurement is **omitted** from the JSON line entirely, never
/// serialized as 0 or `null`, so dashboards and gates cannot mistake
/// "unknown" for "no memory".
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcessGauges {
    /// Resident set size of the whole process, bytes (`None` where
    /// `/proc/self/statm` is unavailable, i.e. off Linux).
    pub rss_bytes: Option<u64>,
    /// Bytes resident in the published snapshot's index arenas, from the
    /// existing footprint accounting (`NetClusIndex::heap_size_bytes`);
    /// filled in by the service/router on top of `ServiceMetrics::report`
    /// (`None` until something fills it).
    pub arena_resident_bytes: Option<u64>,
}

/// Resident set size in bytes via `/proc/self/statm` (field 2, pages).
/// Returns `None` when the proc filesystem is missing or unreadable.
pub fn rss_bytes() -> Option<u64> {
    // Linux page size; statm reports pages. 4 KiB holds for every target
    // this workspace builds on — good enough for a gauge.
    const PAGE_BYTES: u64 = 4_096;
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident * PAGE_BYTES)
}

/// Per-shard serving statistics of one scatter-gather lane.
#[derive(Clone, Copy, Debug)]
pub struct ShardLaneReport {
    /// Shard id.
    pub shard: u32,
    /// Round-1 tasks executed on this shard.
    pub queries: u64,
    /// Round-1 latency summary of this shard.
    pub latency: LatencySummary,
    /// Trajectories replicated into this shard's corpus view.
    pub replicated_trajs: u64,
    /// Smoothed round-1 tasks per second (EWMA over inter-arrival gaps).
    pub qps_ewma: f64,
    /// Smoothed fraction of round-1 tasks served from a cache, in [0, 1].
    pub cache_heat: f64,
    /// Smoothed fraction of round-1 tasks that built a provider, in
    /// [0, 1] — the signal a shard rebalancer would split on.
    pub cold_fraction: f64,
    /// How this shard is reached: `"in_process"` (snapshot store in the
    /// router process) or `"remote"` (a `netclus-shardd` process over
    /// the framed TCP protocol).
    pub transport: &'static str,
}

/// Scatter-gather section of a [`MetricsReport`] (present when the report
/// comes from a `ShardRouter`).
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Per-shard lanes, in shard order.
    pub lanes: Vec<ShardLaneReport>,
    /// Round-2 (merge + solve) latency summary.
    pub merge: LatencySummary,
    /// Queries fanned out (each producing one round-1 task per shard).
    pub fanout_queries: u64,
    /// Per-shard provider-cache counters (hits/misses/coalesced waits/
    /// evictions/invalidations), shared by all router workers. The same
    /// numbers feed the report's top-level `providers` field so
    /// [`MetricsReport::provider_hit_rate`] works for router reports too.
    pub providers: CacheStats,
    /// Round-1 candidate-memo counters (prefix hits, misses, evictions,
    /// invalidations).
    pub rounds: CacheStats,
    /// End-to-end latency of **hot** fan-outs: every shard answered from
    /// the candidate memo or the provider cache — no provider build.
    pub hot: LatencySummary,
    /// End-to-end latency of **cold** fan-outs: at least one shard built
    /// (or waited on) a provider.
    pub cold: LatencySummary,
    /// Live trajectories in the global corpus.
    pub trajectories: u64,
    /// Trajectories touching ≥ 2 shards.
    pub boundary_trajs: u64,
    /// Total shard-local trajectory copies.
    pub replicas: u64,
    /// Replica-divergence gauge: the largest number of epochs any serving
    /// replica lags the lockstep epoch by, across every shard. Zero in the
    /// steady state; persistently positive means a replica is missing
    /// applies and needs a resync.
    pub replica_lag_max: u64,
    /// Fault-tolerance counters (degraded/stale answers, shard failures,
    /// breaker transitions, worker supervision).
    pub fault: FaultReport,
    /// Transport RPCs issued across all remote lanes (0 when every shard
    /// is in-process).
    pub transport_requests: u64,
    /// Transport RPCs that ended in a shard failure.
    pub transport_errors: u64,
    /// Successful (re)connect handshakes across all remote lanes.
    pub transport_reconnects: u64,
    /// Round-trip latency of completed transport RPCs (counts summed
    /// across lanes; percentiles are the worst lane's — conservative).
    pub transport_rpc: LatencySummary,
}

/// Fault-tolerance section of a [`ShardReport`]: every counter is
/// cumulative since router start, so flight-recorder rate series and SLO
/// burn-rate rules (e.g. `degraded_answers` over `fanout_queries`) work
/// directly on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Answers served from a shard subset (some shards missing).
    pub degraded_answers: u64,
    /// Stale-epoch fallback answers served after a fully-failed fan-out.
    pub stale_answers: u64,
    /// Round-1 tasks that failed (injected errors, panics, lost replies).
    pub shard_failures: u64,
    /// Round-1 tasks that missed their deadline budget.
    pub shard_timeouts: u64,
    /// Queries that failed with a typed deadline error.
    pub deadline_exceeded: u64,
    /// Circuit-breaker transitions to open (re-opens included).
    pub breaker_opens: u64,
    /// Half-open probes admitted.
    pub breaker_probes: u64,
    /// Probes that succeeded and closed a breaker.
    pub breaker_closes: u64,
    /// Round-1 tasks skipped at scatter time because a breaker was open.
    pub breaker_skips: u64,
    /// Breakers currently open (a gauge, not a counter).
    pub breaker_open_shards: u64,
    /// Worker panics caught by the supervisor.
    pub worker_panics: u64,
    /// Workers respawned after a panic.
    pub worker_respawns: u64,
    /// Replies that found the gather gone (client stopped listening).
    pub abandoned_gathers: u64,
    /// Queries that failed with every shard down and no stale fallback.
    pub unavailable_answers: u64,
    /// Round-1 backup requests fired because the hedge delay elapsed
    /// without an answer from the preferred replica.
    pub hedged_requests: u64,
    /// Round 1s won by a hedged or failed-over backup replica.
    pub hedge_wins: u64,
    /// Round-1 backup requests fired immediately on a typed failure of a
    /// sibling replica.
    pub replica_failovers: u64,
    /// Replica catch-up resyncs completed.
    pub resyncs: u64,
}

impl ShardReport {
    /// Mean shard-local copies per trajectory (1.0 = no replication).
    pub fn replication_factor(&self) -> f64 {
        if self.trajectories == 0 {
            1.0
        } else {
            self.replicas as f64 / self.trajectories as f64
        }
    }

    /// Candidate-memo hit rate in [0, 1] (0 when no lookups happened).
    pub fn round_hit_rate(&self) -> f64 {
        let total = self.rounds.hits + self.rounds.misses;
        if total == 0 {
            0.0
        } else {
            self.rounds.hits as f64 / total as f64
        }
    }
}

/// A point-in-time service report.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Service uptime.
    pub uptime: Duration,
    /// Solve permits (the service) or worker threads (the router).
    pub workers: usize,
    /// Currently published epoch.
    pub epoch: u64,
    /// Requests admitted.
    pub submitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completed requests per second of uptime.
    pub throughput_qps: f64,
    /// Requests answered from the result cache.
    pub cache_served: u64,
    /// Requests that waited on an identical in-flight solve.
    pub dedup_joined: u64,
    /// Solves run.
    pub batches: u64,
    /// Requests those solves answered for (one each: the mean batch is 1).
    pub batched_requests: u64,
    /// Queue depth at report time.
    pub queue_depth: u64,
    /// High-water queue depth.
    pub queue_depth_max: u64,
    /// Update batches published.
    pub epoch_advances: u64,
    /// Update operations applied.
    pub updates_applied: u64,
    /// End-to-end latency summary.
    pub latency: LatencySummary,
    /// Update-path (apply → publish) latency summary.
    pub update_latency: LatencySummary,
    /// Clustered-provider build latency summary (cache misses only).
    pub provider_build: LatencySummary,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Provider-cache counters.
    pub providers: CacheStats,
    /// Process-level memory gauges.
    pub process: ProcessGauges,
    /// Scatter-gather shard lanes (`None` for unsharded services).
    pub shards: Option<ShardReport>,
}

impl MetricsReport {
    /// Mean requests per solve.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Provider-cache hit rate in [0, 1] (0 when no lookups happened).
    pub fn provider_hit_rate(&self) -> f64 {
        let total = self.providers.hits + self.providers.misses;
        if total == 0 {
            0.0
        } else {
            self.providers.hits as f64 / total as f64
        }
    }

    /// Serializes the report as one line of JSON.
    pub fn to_json_line(&self) -> String {
        jsonl::object(|o| {
            o.num("uptime_secs", self.uptime.as_secs_f64());
            o.int("workers", self.workers);
            o.int("epoch", self.epoch);
            o.int("submitted", self.submitted);
            o.int("rejected", self.rejected);
            o.int("completed", self.completed);
            o.num("throughput_qps", self.throughput_qps);
            o.int("cache_served", self.cache_served);
            o.int("dedup_joined", self.dedup_joined);
            o.int("batches", self.batches);
            o.num("mean_batch_size", self.mean_batch_size());
            o.int("queue_depth", self.queue_depth);
            o.int("queue_depth_max", self.queue_depth_max);
            o.int("epoch_advances", self.epoch_advances);
            o.int("updates_applied", self.updates_applied);
            o.int("latency_mean_us", self.latency.mean_micros);
            o.int("latency_p50_us", self.latency.p50_micros);
            o.int("latency_p95_us", self.latency.p95_micros);
            o.int("latency_p99_us", self.latency.p99_micros);
            o.int("latency_max_us", self.latency.max_micros);
            o.int("update_mean_us", self.update_latency.mean_micros);
            o.int("update_p50_us", self.update_latency.p50_micros);
            o.int("update_p99_us", self.update_latency.p99_micros);
            o.int("update_max_us", self.update_latency.max_micros);
            o.int("provider_build_mean_us", self.provider_build.mean_micros);
            o.int("provider_build_p50_us", self.provider_build.p50_micros);
            o.int("provider_build_p99_us", self.provider_build.p99_micros);
            o.int("provider_hits", self.providers.hits);
            o.int("provider_misses", self.providers.misses);
            o.int("provider_coalesced", self.providers.coalesced);
            o.int("provider_evictions", self.providers.evictions);
            o.int("provider_invalidated", self.providers.invalidated);
            o.int("provider_entries", self.providers.entries);
            o.num("provider_hit_rate", self.provider_hit_rate());
            o.int("cache_hits", self.cache.hits);
            o.int("cache_misses", self.cache.misses);
            o.int("cache_evictions", self.cache.evictions);
            o.int("cache_invalidated", self.cache.invalidated);
            o.int("cache_entries", self.cache.entries);
            if let Some(rss) = self.process.rss_bytes {
                o.int("rss_bytes", rss);
            }
            if let Some(arena) = self.process.arena_resident_bytes {
                o.int("arena_resident_bytes", arena);
            }
            if let Some(shards) = &self.shards {
                shards.write_json(o);
            }
        })
    }
}

impl ShardReport {
    /// Writes the scatter-gather section into a report's JSON object,
    /// lanes last.
    fn write_json(&self, o: &mut jsonl::Obj) {
        o.int("shards", self.lanes.len());
        o.int("fanout_queries", self.fanout_queries);
        o.int("merge_mean_us", self.merge.mean_micros);
        o.int("merge_p99_us", self.merge.p99_micros);
        o.int("round_hits", self.rounds.hits);
        o.int("round_misses", self.rounds.misses);
        o.int("round_evictions", self.rounds.evictions);
        o.int("round_invalidated", self.rounds.invalidated);
        o.int("round_entries", self.rounds.entries);
        o.num("round_hit_rate", self.round_hit_rate());
        o.int("router_hot_queries", self.hot.count);
        o.int("router_hot_p50_us", self.hot.p50_micros);
        o.int("router_hot_p99_us", self.hot.p99_micros);
        o.int("router_cold_queries", self.cold.count);
        o.int("router_cold_p50_us", self.cold.p50_micros);
        o.int("router_cold_p99_us", self.cold.p99_micros);
        o.int("shard_trajectories", self.trajectories);
        o.int("boundary_trajs", self.boundary_trajs);
        o.int("shard_replicas", self.replicas);
        o.num("replication_factor", self.replication_factor());
        o.int("replica_lag_max", self.replica_lag_max);
        o.int("degraded_answers", self.fault.degraded_answers);
        o.int("stale_answers", self.fault.stale_answers);
        o.int("shard_failures", self.fault.shard_failures);
        o.int("shard_timeouts", self.fault.shard_timeouts);
        o.int("deadline_exceeded", self.fault.deadline_exceeded);
        o.int("breaker_opens", self.fault.breaker_opens);
        o.int("breaker_probes", self.fault.breaker_probes);
        o.int("breaker_closes", self.fault.breaker_closes);
        o.int("breaker_skips", self.fault.breaker_skips);
        o.int("breaker_open_shards", self.fault.breaker_open_shards);
        o.int("worker_panics", self.fault.worker_panics);
        o.int("worker_respawns", self.fault.worker_respawns);
        o.int("abandoned_gathers", self.fault.abandoned_gathers);
        o.int("unavailable_answers", self.fault.unavailable_answers);
        o.int("hedged_requests", self.fault.hedged_requests);
        o.int("hedge_wins", self.fault.hedge_wins);
        o.int("replica_failovers", self.fault.replica_failovers);
        o.int("resyncs", self.fault.resyncs);
        o.int("transport_requests", self.transport_requests);
        o.int("transport_errors", self.transport_errors);
        o.int("transport_reconnects", self.transport_reconnects);
        o.int("transport_rpc_p50_us", self.transport_rpc.p50_micros);
        o.int("transport_rpc_p99_us", self.transport_rpc.p99_micros);
        for lane in &self.lanes {
            let key = |name: &str| format!("shard{}_{name}", lane.shard);
            o.int(&key("queries"), lane.queries);
            o.int(&key("p50_us"), lane.latency.p50_micros);
            o.int(&key("p99_us"), lane.latency.p99_micros);
            o.int(&key("replicated_trajs"), lane.replicated_trajs);
            o.num(&key("qps_ewma"), lane.qps_ewma);
            o.num(&key("cache_heat"), lane.cache_heat);
            o.num(&key("cold_fraction"), lane.cold_fraction);
            o.str(&key("transport"), lane.transport);
        }
    }
}

/// Shared counters for the ingestion subsystem (`netclus-ingest`), kept
/// here so ingest-side observability lives alongside the query-side
/// counters and serializes through the same single-line-JSON machinery.
///
/// The pipeline stages update these lock-free:
///
/// * intake — `records_in`, `records_duplicate`, `records_dropped`,
///   `records_malformed`;
/// * map matching — `records_matched`, `match_failed`, `match_latency`;
/// * lifecycle/publish — `batches_published`, `ops_published`,
///   `trajs_retired`, `publish_latency`;
/// * WAL — `wal_frames`, `wal_bytes`, `wal_syncs`;
/// * recovery — `replay_micros`, `replay_batches`.
#[derive(Debug, Default)]
pub struct IngestMetrics {
    /// Records accepted at intake (after dedup, before matching).
    pub records_in: AtomicU64,
    /// Records dropped at intake as per-source sequence duplicates.
    pub records_duplicate: AtomicU64,
    /// Records shed by backpressure (drop-oldest evictions + rejections).
    pub records_dropped: AtomicU64,
    /// Frames that failed to decode (bad CRC, truncation, invalid trace).
    pub records_malformed: AtomicU64,
    /// Records successfully map-matched into trajectories.
    pub records_matched: AtomicU64,
    /// Records the matcher could not place on the network.
    pub match_failed: AtomicU64,
    /// Per-record map-matching latency.
    pub match_latency: LatencyHistogram,
    /// Update batches written to the WAL and published.
    pub batches_published: AtomicU64,
    /// Individual update operations published (inserts + retires).
    pub ops_published: AtomicU64,
    /// Trajectories retired by TTL expiry.
    pub trajs_retired: AtomicU64,
    /// Per-batch publish latency (WAL append + fsync + snapshot apply).
    pub publish_latency: LatencyHistogram,
    /// WAL frames appended.
    pub wal_frames: AtomicU64,
    /// WAL bytes appended (frame headers + payloads).
    pub wal_bytes: AtomicU64,
    /// fsync calls issued (≤ `wal_frames` thanks to sync batching).
    pub wal_syncs: AtomicU64,
    /// Time spent replaying the WAL at startup, microseconds.
    pub replay_micros: AtomicU64,
    /// Batches replayed from the WAL at startup.
    pub replay_batches: AtomicU64,
    /// Per-stage latency histograms over the ingest pipeline
    /// (decode → match → WAL append → publish).
    pub stages: crate::trace::StageStats,
    /// End-to-end freshness: ingest-to-queryable-visibility lag per
    /// record, admission stamp → snapshot publish (cumulative histogram).
    pub freshness: LatencyHistogram,
    /// Instantaneous visibility lag gauge: age in microseconds of the
    /// oldest admitted-but-not-yet-visible record, 0 when ingest is
    /// caught up. Unlike the cumulative histogram this recovers after a
    /// stall, so health rules gate on it.
    pub visibility_lag_us: AtomicU64,
}

impl IngestMetrics {
    /// Builds a point-in-time report; `elapsed` is the ingest uptime used
    /// for the rate figures.
    pub fn report(&self, elapsed: Duration) -> IngestReport {
        let secs = elapsed.as_secs_f64();
        let rate = |count: u64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
        let matched = self.records_matched.load(Ordering::Relaxed);
        let wal_bytes = self.wal_bytes.load(Ordering::Relaxed);
        IngestReport {
            uptime: elapsed,
            records_in: self.records_in.load(Ordering::Relaxed),
            records_duplicate: self.records_duplicate.load(Ordering::Relaxed),
            records_dropped: self.records_dropped.load(Ordering::Relaxed),
            records_malformed: self.records_malformed.load(Ordering::Relaxed),
            records_matched: matched,
            match_failed: self.match_failed.load(Ordering::Relaxed),
            records_per_sec: rate(matched),
            match_latency: self.match_latency.summary(),
            batches_published: self.batches_published.load(Ordering::Relaxed),
            ops_published: self.ops_published.load(Ordering::Relaxed),
            trajs_retired: self.trajs_retired.load(Ordering::Relaxed),
            publish_latency: self.publish_latency.summary(),
            wal_frames: self.wal_frames.load(Ordering::Relaxed),
            wal_bytes,
            wal_bytes_per_sec: rate(wal_bytes),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            replay_micros: self.replay_micros.load(Ordering::Relaxed),
            replay_batches: self.replay_batches.load(Ordering::Relaxed),
            decode_latency: self.stages.summary(crate::trace::Stage::Decode),
            wal_append_latency: self.stages.summary(crate::trace::Stage::WalAppend),
            freshness: self.freshness.summary(),
            visibility_lag_us: self.visibility_lag_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time ingest report (see [`IngestMetrics`]).
#[derive(Clone, Copy, Debug)]
pub struct IngestReport {
    /// Ingest uptime.
    pub uptime: Duration,
    /// Records accepted at intake.
    pub records_in: u64,
    /// Sequence duplicates dropped at intake.
    pub records_duplicate: u64,
    /// Records shed by backpressure.
    pub records_dropped: u64,
    /// Undecodable frames.
    pub records_malformed: u64,
    /// Records matched onto the network.
    pub records_matched: u64,
    /// Records the matcher rejected.
    pub match_failed: u64,
    /// Matched records per second of uptime.
    pub records_per_sec: f64,
    /// Map-matching latency summary.
    pub match_latency: LatencySummary,
    /// Batches written + published.
    pub batches_published: u64,
    /// Update operations published.
    pub ops_published: u64,
    /// TTL retirements.
    pub trajs_retired: u64,
    /// Publish (WAL + apply) latency summary.
    pub publish_latency: LatencySummary,
    /// WAL frames appended.
    pub wal_frames: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL bytes per second of uptime.
    pub wal_bytes_per_sec: f64,
    /// fsyncs issued.
    pub wal_syncs: u64,
    /// Startup WAL replay time, microseconds.
    pub replay_micros: u64,
    /// Batches replayed at startup.
    pub replay_batches: u64,
    /// Frame-decode latency summary (from the stage histograms).
    pub decode_latency: LatencySummary,
    /// WAL-append latency summary (append only, excluding snapshot apply).
    pub wal_append_latency: LatencySummary,
    /// Ingest-to-visibility freshness summary (admission → publish).
    pub freshness: LatencySummary,
    /// Age of the oldest admitted-but-unpublished record, microseconds
    /// (0 when caught up).
    pub visibility_lag_us: u64,
}

impl IngestReport {
    /// Serializes the report as one line of JSON.
    pub fn to_json_line(&self) -> String {
        jsonl::object(|o| {
            o.num("uptime_secs", self.uptime.as_secs_f64());
            o.int("records_in", self.records_in);
            o.int("records_duplicate", self.records_duplicate);
            o.int("records_dropped", self.records_dropped);
            o.int("records_malformed", self.records_malformed);
            o.int("records_matched", self.records_matched);
            o.int("match_failed", self.match_failed);
            o.num("records_per_sec", self.records_per_sec);
            o.int("match_mean_us", self.match_latency.mean_micros);
            o.int("match_p50_us", self.match_latency.p50_micros);
            o.int("match_p99_us", self.match_latency.p99_micros);
            o.int("batches_published", self.batches_published);
            o.int("ops_published", self.ops_published);
            o.int("trajs_retired", self.trajs_retired);
            o.int("publish_mean_us", self.publish_latency.mean_micros);
            o.int("publish_p99_us", self.publish_latency.p99_micros);
            o.int("wal_frames", self.wal_frames);
            o.int("wal_bytes", self.wal_bytes);
            o.num("wal_bytes_per_sec", self.wal_bytes_per_sec);
            o.int("wal_syncs", self.wal_syncs);
            o.int("replay_micros", self.replay_micros);
            o.int("replay_batches", self.replay_batches);
            o.int("decode_p50_us", self.decode_latency.p50_micros);
            o.int("decode_p99_us", self.decode_latency.p99_micros);
            o.int("wal_append_p50_us", self.wal_append_latency.p50_micros);
            o.int("wal_append_p99_us", self.wal_append_latency.p99_micros);
            o.int("freshness_mean_us", self.freshness.mean_micros);
            o.int("freshness_p50_us", self.freshness.p50_micros);
            o.int("freshness_p99_us", self.freshness.p99_micros);
            o.int("freshness_max_us", self.freshness.max_micros);
            o.int("visibility_lag_us", self.visibility_lag_us);
        })
    }
}

/// Pairs a metrics struct with its start instant.
#[derive(Debug)]
pub(crate) struct MetricsClock {
    /// The shared counters.
    pub metrics: ServiceMetrics,
    started: Instant,
}

impl Default for MetricsClock {
    fn default() -> Self {
        MetricsClock {
            metrics: ServiceMetrics::default(),
            started: Instant::now(),
        }
    }
}

impl MetricsClock {
    /// Uptime since construction.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
// The fixture tests spell a whole report out, field by field.
#[allow(clippy::too_many_lines)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        for micros in [1u64, 2, 3, 100, 100, 100, 100, 5_000] {
            h.record(Duration::from_micros(micros));
        }
        let s = h.summary();
        assert_eq!(s.count, 8);
        assert_eq!(s.max_micros, 5_000);
        // p50 (rank 4) falls in the 64..127 µs bucket as its first of four
        // samples: 64 + 0.25 · 63 ≈ 80, not the old upper bound of 127.
        assert_eq!(s.p50_micros, 80);
        // p95/p99 (rank 8) land on the lone 5 ms sample; the 4096..8191
        // bucket is clamped to the observed max instead of reporting 8191.
        assert_eq!(s.p95_micros, 5_000);
        assert_eq!(s.p99_micros, 5_000);
        assert!(s.mean_micros > 0);
    }

    #[test]
    fn percentiles_interpolate_close_to_exact() {
        // Uniform 1..=1000 µs: exact p50 = 500, p95 = 950, p99 = 990. The
        // old upper-bound report gave p50 = 1023 (2× off); interpolation
        // must land within one bucket's relative resolution.
        let h = LatencyHistogram::default();
        for micros in 1..=1000u64 {
            h.record(Duration::from_micros(micros));
        }
        let s = h.summary();
        let close = |got: u64, exact: u64| {
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.30, "got {got}, exact {exact} (err {err:.2})");
        };
        close(s.p50_micros, 500);
        close(s.p95_micros, 950);
        close(s.p99_micros, 990);
        assert!(s.p50_micros <= s.p95_micros && s.p95_micros <= s.p99_micros);
        assert!(s.p99_micros <= s.max_micros);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(300));
        let s = h.summary();
        // 300 µs sits in the 256..511 bucket; clamping to max pins every
        // percentile at the only observed value's ceiling.
        assert!(
            s.p50_micros <= 300,
            "p50 {} must not exceed max",
            s.p50_micros
        );
        assert_eq!(s.max_micros, 300);
        assert!(s.p99_micros <= 300);
        assert!(s.p50_micros >= 256, "p50 {} left its bucket", s.p50_micros);
    }

    #[test]
    fn json_line_is_single_line_and_balanced() {
        let clock = MetricsClock::default();
        clock.metrics.submitted.add(3);
        clock.metrics.completed.add(3);
        clock.metrics.latency.record(Duration::from_micros(250));
        let report = clock.metrics.report(
            Duration::from_secs(2),
            5,
            4,
            CacheStats {
                hits: 1,
                misses: 2,
                entries: 2,
                ..Default::default()
            },
            CacheStats {
                hits: 3,
                misses: 1,
                ..Default::default()
            },
        );
        let json = report.to_json_line();
        assert!(!json.contains('\n'));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), 1);
        assert!(json.contains("\"completed\":3"));
        assert!(json.contains("\"throughput_qps\":1.500"));
        assert!(json.contains("\"cache_hits\":1"));
        assert!(json.contains("\"epoch\":5"));
        assert!(json.contains("\"provider_hits\":3"));
        assert!(json.contains("\"provider_hit_rate\":0.750"));
    }

    #[test]
    fn update_latency_reported_in_json() {
        let clock = MetricsClock::default();
        clock
            .metrics
            .update_latency
            .record(Duration::from_micros(80));
        clock.metrics.epoch_advances.fetch_add(1, Ordering::Relaxed);
        let report = clock.metrics.report(
            Duration::from_secs(1),
            1,
            1,
            CacheStats::default(),
            CacheStats::default(),
        );
        assert_eq!(report.update_latency.count, 1);
        let json = report.to_json_line();
        assert!(json.contains("\"update_p50_us\":"));
        assert!(json.contains("\"epoch_advances\":1"));
    }

    #[test]
    fn ingest_report_json_line() {
        let m = IngestMetrics::default();
        m.records_in.fetch_add(10, Ordering::Relaxed);
        m.records_matched.fetch_add(8, Ordering::Relaxed);
        m.wal_bytes.fetch_add(4_096, Ordering::Relaxed);
        m.match_latency.record(Duration::from_micros(300));
        let report = m.report(Duration::from_secs(2));
        assert_eq!(report.records_per_sec, 4.0);
        assert_eq!(report.wal_bytes_per_sec, 2_048.0);
        let json = report.to_json_line();
        assert!(!json.contains('\n'));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"records_matched\":8"));
        assert!(json.contains("\"wal_bytes\":4096"));
        assert!(json.contains("\"records_per_sec\":4.000"));
    }

    #[test]
    fn shard_section_serializes_when_present() {
        let clock = MetricsClock::default();
        let mut report = clock.metrics.report(
            Duration::from_secs(1),
            0,
            2,
            CacheStats::default(),
            CacheStats::default(),
        );
        assert!(report.shards.is_none());
        assert!(!report.to_json_line().contains("\"shards\""));
        let lane = |shard: u32, queries: u64| ShardLaneReport {
            shard,
            queries,
            latency: LatencySummary::default(),
            replicated_trajs: 10 + u64::from(shard),
            qps_ewma: 12.5,
            cache_heat: 0.75,
            cold_fraction: 0.25,
            transport: "in_process",
        };
        report.shards = Some(ShardReport {
            lanes: vec![lane(0, 4), lane(1, 4)],
            merge: LatencySummary::default(),
            fanout_queries: 4,
            providers: CacheStats {
                hits: 6,
                misses: 2,
                coalesced: 1,
                ..Default::default()
            },
            rounds: CacheStats {
                hits: 3,
                misses: 1,
                ..Default::default()
            },
            hot: LatencySummary {
                count: 3,
                p50_micros: 127,
                ..Default::default()
            },
            cold: LatencySummary {
                count: 1,
                p50_micros: 2_047,
                ..Default::default()
            },
            trajectories: 18,
            boundary_trajs: 3,
            replicas: 21,
            replica_lag_max: 2,
            fault: FaultReport {
                degraded_answers: 2,
                stale_answers: 1,
                shard_failures: 5,
                breaker_opens: 1,
                breaker_probes: 2,
                breaker_closes: 1,
                worker_panics: 1,
                worker_respawns: 1,
                abandoned_gathers: 3,
                hedged_requests: 4,
                hedge_wins: 2,
                replica_failovers: 1,
                resyncs: 1,
                ..Default::default()
            },
            transport_requests: 9,
            transport_errors: 2,
            transport_reconnects: 1,
            transport_rpc: LatencySummary {
                count: 7,
                p50_micros: 311,
                p99_micros: 640,
                ..Default::default()
            },
        });
        let json = report.to_json_line();
        assert!(json.contains("\"shards\":2"));
        assert!(json.contains("\"degraded_answers\":2"));
        assert!(json.contains("\"stale_answers\":1"));
        assert!(json.contains("\"shard_failures\":5"));
        assert!(json.contains("\"shard_timeouts\":0"));
        assert!(json.contains("\"deadline_exceeded\":0"));
        assert!(json.contains("\"breaker_opens\":1"));
        assert!(json.contains("\"breaker_open_shards\":0"));
        assert!(json.contains("\"worker_panics\":1"));
        assert!(json.contains("\"abandoned_gathers\":3"));
        assert!(json.contains("\"unavailable_answers\":0"));
        assert!(json.contains("\"hedged_requests\":4"));
        assert!(json.contains("\"hedge_wins\":2"));
        assert!(json.contains("\"replica_failovers\":1"));
        assert!(json.contains("\"resyncs\":1"));
        assert!(json.contains("\"replica_lag_max\":2"));
        assert!(json.contains("\"shard0_queries\":4"));
        assert!(json.contains("\"shard1_replicated_trajs\":11"));
        assert!(json.contains("\"boundary_trajs\":3"));
        assert!(json.contains("\"replication_factor\":1.167"));
        assert!(json.contains("\"round_hits\":3"));
        assert!(json.contains("\"round_hit_rate\":0.750"));
        assert!(json.contains("\"router_hot_queries\":3"));
        assert!(json.contains("\"router_hot_p50_us\":127"));
        assert!(json.contains("\"router_cold_p50_us\":2047"));
        assert!(json.contains("\"shard0_qps_ewma\":12.500"));
        assert!(json.contains("\"shard1_cache_heat\":0.750"));
        assert!(json.contains("\"shard1_cold_fraction\":0.250"));
        assert!(json.contains("\"transport_requests\":9"));
        assert!(json.contains("\"transport_errors\":2"));
        assert!(json.contains("\"transport_reconnects\":1"));
        assert!(json.contains("\"transport_rpc_p50_us\":311"));
        assert!(json.contains("\"transport_rpc_p99_us\":640"));
        assert!(json.contains("\"shard0_transport\":\"in_process\""));
        assert!(!json.contains('\n'));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn process_gauges_serialize() {
        let clock = MetricsClock::default();
        let mut report = clock.metrics.report(
            Duration::from_secs(1),
            0,
            1,
            CacheStats::default(),
            CacheStats::default(),
        );
        report.process.arena_resident_bytes = Some(1_234);
        let json = report.to_json_line();
        assert!(json.contains("\"arena_resident_bytes\":1234"));
        // Unknown gauges are omitted, never 0 or null.
        assert!(!json.contains("null"));
        if cfg!(target_os = "linux") {
            let rss = rss_bytes().expect("statm readable on Linux");
            assert!(rss > 0);
            assert!(json.contains("\"rss_bytes\":"));
        }
        // An unfilled arena gauge disappears from the line entirely.
        report.process.arena_resident_bytes = None;
        report.process.rss_bytes = None;
        let json = report.to_json_line();
        assert!(!json.contains("arena_resident_bytes"));
        assert!(!json.contains("rss_bytes"));
    }

    #[test]
    fn queue_gauge_tracks_high_water() {
        let m = ServiceMetrics::default();
        m.queue_enter();
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        m.queue_exit();
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 1);
        assert_eq!(m.queue_depth_max.load(Ordering::Relaxed), 3);
    }
}
