//! Structured query-path tracing with tail-based sampling.
//!
//! The metrics module answers *how long* queries take; this module
//! answers *where the time goes*. Three pieces, all std-only and
//! allocation-free on the hot path:
//!
//! * [`StageStats`] — one lock-free [`LatencyHistogram`] per pipeline
//!   [`Stage`] (admission → caches → round 1 → merge → reply on the query
//!   side, decode → match → WAL append → publish on the ingest side).
//!   Every traced request updates these, so per-stage p50/p99 are exact
//!   over **all** traffic, not just the sampled tail.
//! * [`TraceSpans`] — a fixed-size, stack-allocated span recorder
//!   (`MAX_SPANS` entries, monotonic clock). Recording a span is two
//!   `Instant` reads and an array write; nothing is boxed, locked or
//!   heap-allocated while the query runs.
//! * [`Tracer`] — **tail-based sampling**: every query's span skeleton
//!   feeds the stage histograms, but the full span tree is retained only
//!   when the query was *slow* (total latency ≥
//!   [`TraceConfig::slow_threshold_us`]) or caught by the 1-in-N sample
//!   ([`TraceConfig::sample_every`]). Retained trees go into a bounded
//!   ring — the **slow-query log** — as [`SlowQueryRecord`]s with full
//!   stage attribution, serializable one JSON object per line.
//!
//! `LoadGauge` rides along: per-shard qps/cache-heat/cold-fraction
//! EWMAs in the shape the future gateway tier and shard rebalancer
//! consume (broadcast through [`ShardLaneReport`]'s
//! `shardN_qps_ewma`/`shardN_cache_heat`/`shardN_cold_fraction` fields).
//!
//! [`ShardLaneReport`]: crate::metrics::ShardLaneReport

#![deny(clippy::too_many_lines)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netclus::PreferenceFunction;

use crate::jsonl;
use crate::metrics::{LatencyHistogram, LatencySummary, Stripes};

/// Named stages of the query and ingest pipelines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stage {
    /// Validation + admission (the service: until its snapshot is pinned;
    /// the router: until round 1 is scattered).
    #[default]
    Admission,
    /// Result-cache probe; for a service solve, through the wait for a
    /// solve permit.
    CacheProbe,
    /// Provider-cache `get_or_build` (hit, coalesced wait, or build).
    ProviderGet,
    /// Scatter + gather of round-1 shard tasks (wait, wall-clock).
    Round1,
    /// A greedy solve: per-shard round-1 compute, or the executor's
    /// monolithic solve.
    Solve,
    /// Round-2 merge (candidate-union view build + exact greedy).
    Merge,
    /// Answer construction + delivery.
    Reply,
    /// Ingest: frame decode (including the blocking read).
    Decode,
    /// Ingest: map matching.
    Match,
    /// Ingest: WAL append.
    WalAppend,
    /// Ingest: batch publish (WAL append + snapshot apply).
    Publish,
}

/// Number of [`Stage`] variants.
pub(crate) const STAGE_COUNT: usize = 11;

impl Stage {
    /// Every stage, in declaration order.
    pub(crate) const ALL: [Stage; STAGE_COUNT] = [
        Stage::Admission,
        Stage::CacheProbe,
        Stage::ProviderGet,
        Stage::Round1,
        Stage::Solve,
        Stage::Merge,
        Stage::Reply,
        Stage::Decode,
        Stage::Match,
        Stage::WalAppend,
        Stage::Publish,
    ];

    /// Stable snake_case name (JSON keys and span records).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::CacheProbe => "cache_probe",
            Stage::ProviderGet => "provider_get",
            Stage::Round1 => "round1",
            Stage::Solve => "solve",
            Stage::Merge => "merge",
            Stage::Reply => "reply",
            Stage::Decode => "decode",
            Stage::Match => "match",
            Stage::WalAppend => "wal_append",
            Stage::Publish => "publish",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One lock-free latency histogram per [`Stage`], striped per thread
/// (`metrics::Stripes`): a served request records its stages without writing a
/// line another thread writes.
#[derive(Debug, Default)]
pub struct StageStats {
    hists: Stripes<[LatencyHistogram; STAGE_COUNT]>,
}

impl StageStats {
    /// Records one sample for `stage`.
    pub fn record(&self, stage: Stage, latency: Duration) {
        self.hists.local()[stage.index()].record(latency);
    }

    /// Records one sample given in microseconds.
    pub(crate) fn record_micros(&self, stage: Stage, micros: u64) {
        self.record(stage, Duration::from_micros(micros));
    }

    /// Point-in-time summary of one stage, over every thread's samples.
    pub fn summary(&self, stage: Stage) -> LatencySummary {
        LatencyHistogram::summary_of(self.hists.iter().map(|hists| &hists[stage.index()]))
    }

    /// Single-line JSON: `stage_<name>_{count,mean_us,p50_us,p99_us}` for
    /// every stage (zero-count stages included, so the key set is stable).
    pub fn to_json_line(&self) -> String {
        jsonl::object(|o| self.write_json(o))
    }

    fn write_json(&self, o: &mut jsonl::Obj) {
        for stage in Stage::ALL {
            let sum = self.summary(stage);
            let key = |field: &str| format!("stage_{}_{field}", stage.name());
            o.int(&key("count"), sum.count);
            o.int(&key("mean_us"), sum.mean_micros);
            o.int(&key("p50_us"), sum.p50_micros);
            o.int(&key("p99_us"), sum.p99_micros);
        }
    }
}

/// Where a round-1 shard task's answer came from, cheapest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Round1Source {
    /// Candidate-memo hit (prefix slice); no provider touched.
    Memo,
    /// Provider-cache hit: the instance's rows were resident (built for
    /// this τ or any other in its band); local greedy re-ran on a view.
    ProviderHit,
    /// Waited on another worker's in-flight build of the rows.
    Coalesced,
    /// This task built the instance's rows (cache miss).
    Built,
    /// Caches disabled: the full rebuild path.
    Cold,
}

impl Round1Source {
    /// Stable name for span details and logs.
    pub fn name(self) -> &'static str {
        match self {
            Round1Source::Memo => "memo",
            Round1Source::ProviderHit => "provider",
            Round1Source::Coalesced => "coalesced",
            Round1Source::Built => "built",
            Round1Source::Cold => "cold",
        }
    }

    /// Whether the task ran without building or waiting on a provider
    /// (the hot-lane condition — a coalesced wait rides a build, so it
    /// counts cold, matching the router's lane accounting).
    pub(crate) fn is_hot(self) -> bool {
        matches!(self, Round1Source::Memo | Round1Source::ProviderHit)
    }

    /// Whether the task paid for a provider build itself.
    pub fn built(self) -> bool {
        matches!(self, Round1Source::Built | Round1Source::Cold)
    }
}

/// One recorded span: a stage interval relative to the trace start.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecord {
    /// The pipeline stage.
    pub stage: Stage,
    /// Shard the span ran on; `-1` for stages not bound to a shard.
    pub shard: i32,
    /// Child spans overlap a top-level stage (per-shard solves inside the
    /// round-1 wait, the build/solve split inside merge) and are excluded
    /// from wall-time attribution.
    pub child: bool,
    /// Source/outcome detail (`"memo"`, `"built"`, …; empty when none).
    pub detail: &'static str,
    /// Offset from the trace start, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// Span capacity of one [`TraceSpans`] recorder. Sized for the deepest
/// real trace (4 top-level stages + one child per shard + the merge
/// split at 16 shards); spans beyond it are counted, not recorded.
pub(crate) const MAX_SPANS: usize = 24;

/// A fixed-size, stack-held span recorder for one request. Obtained from
/// [`Tracer::begin`]; consumed by [`Tracer::finish`]. All recording is
/// array writes — no allocation, no locks.
#[derive(Debug)]
pub struct TraceSpans {
    started: Instant,
    spans: [SpanRecord; MAX_SPANS],
    len: usize,
    truncated: u32,
}

impl TraceSpans {
    fn new(started: Instant) -> Self {
        TraceSpans {
            started,
            spans: [SpanRecord::default(); MAX_SPANS],
            len: 0,
            truncated: 0,
        }
    }

    /// The trace's start instant (spans are offsets from it).
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Records a top-level stage span running from `from` to now and
    /// returns now (the natural `from` of the next contiguous stage).
    pub fn stage(&mut self, stage: Stage, from: Instant) -> Instant {
        let now = Instant::now();
        let start_us = from.saturating_duration_since(self.started).as_micros() as u64;
        let dur_us = now.saturating_duration_since(from).as_micros() as u64;
        self.push(SpanRecord {
            stage,
            shard: -1,
            child: false,
            detail: "",
            start_us,
            dur_us,
        });
        now
    }

    /// Records a child span (overlapping a top-level stage) with an
    /// explicit offset and duration.
    pub fn child(
        &mut self,
        stage: Stage,
        shard: i32,
        detail: &'static str,
        start_us: u64,
        dur_us: u64,
    ) {
        self.push(SpanRecord {
            stage,
            shard,
            child: true,
            detail,
            start_us,
            dur_us,
        });
    }

    /// Annotates the most recent span with a detail string.
    pub fn detail(&mut self, detail: &'static str) {
        if self.len > 0 {
            self.spans[self.len - 1].detail = detail;
        }
    }

    fn push(&mut self, span: SpanRecord) {
        if self.len < MAX_SPANS {
            self.spans[self.len] = span;
            self.len += 1;
        } else {
            self.truncated += 1;
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans[..self.len]
    }
}

/// Why a [`SlowQueryRecord`] was retained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleTrigger {
    /// Total latency crossed [`TraceConfig::slow_threshold_us`].
    Slow,
    /// Caught by the 1-in-N sample.
    Sampled,
}

/// Per-query metadata attached at [`Tracer::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceMeta {
    /// Epoch the answer was computed against.
    pub epoch: u64,
    /// Requested `k`.
    pub k: usize,
    /// Requested τ (quantized).
    pub tau: f64,
    /// Whether the request rode the warm path end to end.
    pub hot: bool,
    /// Preference family of the query: `"binary"`, `"linear"`,
    /// `"exponential"`, `"convex"` or `"min_inconvenience"` — the solver's
    /// cost per pair depends on it more than on anything else recorded here.
    pub psi: &'static str,
    /// Cluster-ladder instance that served τ.
    pub instance: usize,
}

/// The [`TraceMeta::psi`] name of a preference function.
pub(crate) fn psi_name(preference: &PreferenceFunction) -> &'static str {
    match preference {
        PreferenceFunction::Binary => "binary",
        PreferenceFunction::LinearDecay => "linear",
        PreferenceFunction::ExponentialDecay { .. } => "exponential",
        PreferenceFunction::ConvexProbability { .. } => "convex",
        PreferenceFunction::MinInconvenience { .. } => "min_inconvenience",
    }
}

/// One retained trace: query metadata plus the full span tree.
#[derive(Clone, Debug)]
pub struct SlowQueryRecord {
    /// Monotonic trace sequence number (over all finished traces).
    pub seq: u64,
    /// Query metadata.
    pub meta: TraceMeta,
    /// End-to-end latency, microseconds.
    pub total_us: u64,
    /// Why the record was retained.
    pub trigger: SampleTrigger,
    /// The span tree, in recording order.
    pub spans: Vec<SpanRecord>,
}

impl SlowQueryRecord {
    /// Wall time attributed to named top-level stages, microseconds
    /// (child spans overlap their parent stage and are excluded).
    pub fn attributed_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.child)
            .map(|s| s.dur_us)
            .sum()
    }

    /// Fraction of `total_us` the top-level stages account for, in
    /// `[0, 1]` (clamped; 1.0 for a zero-length trace).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_us == 0 {
            return 1.0;
        }
        (self.attributed_us() as f64 / self.total_us as f64).min(1.0)
    }

    /// Serializes the record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        jsonl::object(|o| {
            o.int("seq", self.seq);
            o.int("epoch", self.meta.epoch);
            o.int("k", self.meta.k);
            o.num("tau", self.meta.tau);
            o.str("psi", self.meta.psi);
            o.int("instance", self.meta.instance);
            o.bool("hot", self.meta.hot);
            o.int("total_us", self.total_us);
            let trigger = match self.trigger {
                SampleTrigger::Slow => "slow",
                SampleTrigger::Sampled => "sample",
            };
            o.str("trigger", trigger);
            o.int("attributed_us", self.attributed_us());
            o.array("spans", |a| {
                for span in &self.spans {
                    a.object(|o| {
                        o.str("stage", span.stage.name());
                        o.int("shard", span.shard);
                        o.bool("child", span.child);
                        o.str("detail", span.detail);
                        o.int("start_us", span.start_us);
                        o.int("dur_us", span.dur_us);
                    });
                }
            });
        })
    }
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Retain the full span tree for queries at or above this end-to-end
    /// latency (the *tail* in tail-based sampling).
    pub slow_threshold_us: u64,
    /// Additionally retain every Nth trace regardless of latency, so the
    /// log always carries representative fast-path traces; 0 disables the
    /// uniform sample.
    pub sample_every: u64,
    /// Slow-query ring capacity; the oldest record is evicted (and
    /// counted) when full.
    pub slow_log_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            slow_threshold_us: 1_000,
            sample_every: 64,
            slow_log_capacity: 128,
        }
    }
}

/// The tail-sampling trace collector. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    stages: StageStats,
    seq: AtomicU64,
    retained_slow: AtomicU64,
    retained_sampled: AtomicU64,
    evicted: AtomicU64,
    log: Mutex<VecDeque<SlowQueryRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(TraceConfig::default())
    }
}

impl Tracer {
    /// Creates a tracer with the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            cfg,
            stages: StageStats::default(),
            seq: AtomicU64::new(0),
            retained_slow: AtomicU64::new(0),
            retained_sampled: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            log: Mutex::new(VecDeque::with_capacity(cfg.slow_log_capacity.min(1_024))),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Starts a span recorder (stamps the trace start).
    pub fn begin(&self) -> TraceSpans {
        TraceSpans::new(Instant::now())
    }

    /// Starts a span recorder for a request that arrived at `started`.
    pub(crate) fn begin_at(&self, started: Instant) -> TraceSpans {
        TraceSpans::new(started)
    }

    /// The always-on per-stage histograms.
    pub fn stages(&self) -> &StageStats {
        &self.stages
    }

    /// Finishes a trace: feeds every span into the stage histograms and
    /// retains the full tree in the slow-query log when the query was slow
    /// or sampled. Returns the end-to-end latency.
    pub fn finish(&self, spans: &TraceSpans, meta: TraceMeta) -> Duration {
        let total = spans.started.elapsed();
        for span in spans.spans() {
            self.stages.record_micros(span.stage, span.dur_us);
        }
        let total_us = total.as_micros() as u64;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let trigger = if total_us >= self.cfg.slow_threshold_us {
            Some(SampleTrigger::Slow)
        } else if self.cfg.sample_every > 0 && seq % self.cfg.sample_every == 0 {
            Some(SampleTrigger::Sampled)
        } else {
            None
        };
        if let Some(trigger) = trigger {
            match trigger {
                SampleTrigger::Slow => &self.retained_slow,
                SampleTrigger::Sampled => &self.retained_sampled,
            }
            .fetch_add(1, Ordering::Relaxed);
            let record = SlowQueryRecord {
                seq,
                meta,
                total_us,
                trigger,
                spans: spans.spans().to_vec(),
            };
            let mut log = self.log.lock().expect("slow log poisoned");
            if log.len() >= self.cfg.slow_log_capacity.max(1) {
                log.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            log.push_back(record);
        }
        total
    }

    /// Traces finished so far.
    pub fn traces(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// `(retained_slow, retained_sampled, evicted)` retention counters.
    pub fn retention(&self) -> (u64, u64, u64) {
        (
            self.retained_slow.load(Ordering::Relaxed),
            self.retained_sampled.load(Ordering::Relaxed),
            self.evicted.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.log
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The slow-query log as JSON Lines (one record per line).
    pub fn slow_log_jsonl(&self) -> String {
        let log = self.log.lock().expect("slow log poisoned");
        let mut s = String::with_capacity(log.len() * 320);
        for record in log.iter() {
            s.push_str(&record.to_json_line());
            s.push('\n');
        }
        s
    }

    /// Single-line JSON of the per-stage breakdown plus the retention
    /// counters (`traces`, `slow_retained`, `sample_retained`, `evicted`).
    pub fn stats_json_line(&self) -> String {
        let (slow, sampled, evicted) = self.retention();
        jsonl::object(|o| {
            self.stages.write_json(o);
            o.int("traces", self.traces());
            o.int("slow_retained", slow);
            o.int("sample_retained", sampled);
            o.int("evicted", evicted);
        })
    }
}

/// Per-shard load/heat gauges: a qps EWMA over inter-arrival gaps plus
/// cache-heat and cold-fraction EWMAs over round-1 task outcomes. One
/// short mutexed update per round-1 task (out of the per-query fan-out's
/// critical path); snapshots feed the metrics report.
#[derive(Debug, Default)]
pub(crate) struct LoadGauge {
    state: Mutex<GaugeState>,
}

#[derive(Debug, Default)]
struct GaugeState {
    last: Option<Instant>,
    qps: f64,
    heat: f64,
    cold: f64,
    observed: bool,
}

/// Time constant of the qps EWMA, seconds.
const QPS_TAU_S: f64 = 5.0;
/// Smoothing factor of the heat/cold EWMAs (per observation).
const HEAT_ALPHA: f64 = 0.05;

impl LoadGauge {
    /// Folds one round-1 task outcome into the gauges.
    pub fn observe(&self, source: Round1Source) {
        let now = Instant::now();
        let hot = if source.is_hot() { 1.0 } else { 0.0 };
        let built = if source.built() { 1.0 } else { 0.0 };
        let mut g = self.state.lock().expect("load gauge poisoned");
        if let Some(last) = g.last {
            let dt = now.saturating_duration_since(last).as_secs_f64().max(1e-6);
            let alpha = 1.0 - (-dt / QPS_TAU_S).exp();
            g.qps += alpha * (1.0 / dt - g.qps);
        }
        g.last = Some(now);
        if g.observed {
            g.heat += HEAT_ALPHA * (hot - g.heat);
            g.cold += HEAT_ALPHA * (built - g.cold);
        } else {
            g.heat = hot;
            g.cold = built;
            g.observed = true;
        }
    }

    /// Point-in-time gauge values.
    pub fn snapshot(&self) -> LoadGaugeSnapshot {
        let g = self.state.lock().expect("load gauge poisoned");
        LoadGaugeSnapshot {
            qps_ewma: g.qps,
            cache_heat: g.heat,
            cold_fraction: g.cold,
        }
    }
}

/// A point-in-time [`LoadGauge`] reading.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LoadGaugeSnapshot {
    /// Smoothed round-1 tasks per second on this shard.
    pub qps_ewma: f64,
    /// Smoothed fraction of tasks served from a cache (memo or provider
    /// hit), in `[0, 1]`.
    pub cache_heat: f64,
    /// Smoothed fraction of tasks that built a provider, in `[0, 1]`.
    pub cold_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_with(tracer: &Tracer, durs_us: &[(Stage, u64)]) -> TraceSpans {
        let mut spans = tracer.begin();
        let mut off = 0;
        for &(stage, dur) in durs_us {
            spans.push(SpanRecord {
                stage,
                shard: -1,
                child: false,
                detail: "",
                start_us: off,
                dur_us: dur,
            });
            off += dur;
        }
        spans
    }

    #[test]
    fn stage_names_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for stage in Stage::ALL {
            assert!(seen.insert(stage.name()), "duplicate name {}", stage.name());
        }
        assert_eq!(seen.len(), STAGE_COUNT);
        assert_eq!(Stage::Round1.name(), "round1");
    }

    #[test]
    fn stage_stats_json_has_stable_keys() {
        let stats = StageStats::default();
        stats.record(Stage::Merge, Duration::from_micros(200));
        let json = stats.to_json_line();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(!json.contains('\n'));
        for stage in Stage::ALL {
            assert!(
                json.contains(&format!("\"stage_{}_p50_us\":", stage.name())),
                "missing {}",
                stage.name()
            );
        }
        assert!(json.contains("\"stage_merge_count\":1"));
    }

    #[test]
    fn slow_queries_are_retained_with_attribution() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold_us: 0, // everything is "slow"
            sample_every: 0,
            ..Default::default()
        });
        let spans = spans_with(
            &tracer,
            &[
                (Stage::Admission, 5),
                (Stage::Round1, 700),
                (Stage::Merge, 200),
                (Stage::Reply, 5),
            ],
        );
        tracer.finish(
            &spans,
            TraceMeta {
                epoch: 3,
                k: 6,
                tau: 800.0,
                hot: false,
                psi: "convex",
                instance: 2,
            },
        );
        let log = tracer.slow_queries();
        assert_eq!(log.len(), 1);
        let record = &log[0];
        assert_eq!(record.trigger, SampleTrigger::Slow);
        assert_eq!(record.attributed_us(), 910);
        assert_eq!(record.spans.len(), 4);
        let json = record.to_json_line();
        assert!(json.contains("\"stage\":\"round1\""));
        assert!(json.contains("\"epoch\":3"));
        assert!(json.contains("\"psi\":\"convex\",\"instance\":2,"));
        assert!(json.contains("\"trigger\":\"slow\""));
        assert!(!json.contains('\n'));
        // The stage histograms saw every span.
        assert_eq!(tracer.stages().summary(Stage::Round1).count, 1);
        assert_eq!(tracer.stages().summary(Stage::Merge).count, 1);
    }

    #[test]
    fn fast_queries_are_dropped_unless_sampled() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold_us: u64::MAX,
            sample_every: 4,
            ..Default::default()
        });
        for _ in 0..8 {
            let spans = spans_with(&tracer, &[(Stage::Round1, 10)]);
            tracer.finish(&spans, TraceMeta::default());
        }
        // Seqs 0 and 4 were sampled; the rest dropped.
        let log = tracer.slow_queries();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|r| r.trigger == SampleTrigger::Sampled));
        let (slow, sampled, evicted) = tracer.retention();
        assert_eq!((slow, sampled, evicted), (0, 2, 0));
        // Histograms still saw all 8.
        assert_eq!(tracer.stages().summary(Stage::Round1).count, 8);
    }

    #[test]
    fn slow_log_is_bounded_and_evicts_oldest() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold_us: 0,
            sample_every: 0,
            slow_log_capacity: 3,
        });
        for _ in 0..5 {
            let spans = spans_with(&tracer, &[(Stage::Solve, 50)]);
            tracer.finish(&spans, TraceMeta::default());
        }
        let log = tracer.slow_queries();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].seq, 2, "oldest two evicted");
        assert_eq!(tracer.retention().2, 2);
        let jsonl = tracer.slow_log_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn span_recorder_is_bounded() {
        let tracer = Tracer::default();
        let mut spans = tracer.begin();
        for i in 0..(MAX_SPANS + 5) {
            spans.child(Stage::Solve, i as i32, "x", 0, 1);
        }
        assert_eq!(spans.spans().len(), MAX_SPANS);
        assert_eq!(spans.truncated, 5);
    }

    #[test]
    fn attribution_excludes_child_spans() {
        let tracer = Tracer::new(TraceConfig {
            slow_threshold_us: 0,
            sample_every: 0,
            ..Default::default()
        });
        let mut spans = spans_with(&tracer, &[(Stage::Round1, 400)]);
        spans.child(Stage::Solve, 0, "built", 0, 390);
        spans.child(Stage::Solve, 1, "memo", 0, 2);
        tracer.finish(&spans, TraceMeta::default());
        let record = &tracer.slow_queries()[0];
        assert_eq!(
            record.attributed_us(),
            400,
            "children must not double-count"
        );
        // Child solves still feed the solve histogram.
        assert_eq!(tracer.stages().summary(Stage::Solve).count, 2);
    }

    #[test]
    fn load_gauge_tracks_heat_and_cold() {
        let gauge = LoadGauge::default();
        for _ in 0..50 {
            gauge.observe(Round1Source::Memo);
        }
        let warm = gauge.snapshot();
        assert!(warm.cache_heat > 0.9, "heat {:.3}", warm.cache_heat);
        assert!(warm.cold_fraction < 0.1);
        assert!(warm.qps_ewma > 0.0);
        for _ in 0..200 {
            gauge.observe(Round1Source::Built);
        }
        let cold = gauge.snapshot();
        assert!(cold.cache_heat < 0.1, "heat {:.3}", cold.cache_heat);
        assert!(cold.cold_fraction > 0.9);
    }

    #[test]
    fn round1_source_lane_contract() {
        assert!(Round1Source::Memo.is_hot());
        assert!(Round1Source::ProviderHit.is_hot());
        assert!(!Round1Source::Coalesced.is_hot());
        assert!(!Round1Source::Coalesced.built(), "a wait is not a build");
        assert!(Round1Source::Built.built());
        assert!(Round1Source::Cold.built());
    }
}
