//! The six workloads: query mixes, the closed- and open-loop load
//! generators, the sampled layer replays of the traced run, and the
//! reduction of what they measure into named metrics.
//!
//! Every call into the product goes through [`crate::layers`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers::{
    self, Churn, GpsStream, IngestProbe, Mono, MonoBuild, Psi, Query, Routed, ShardedBuild,
    UtilityProbe, World, APPLY_BATCH_OPS,
};
use crate::spec;
use crate::stats::{
    block_median, median, median_and_count, percentile_sorted, regroup, rss_peak_mb, Block,
    ProcCounters, SLICES,
};
use crate::trace::Trace;

/// Times a workload builds its index and starts its serving stack;
/// `setup_s` is the median of these plus the one warm pass.
const SETUP_REPS: usize = 3;
/// Offline build rounds of `build` (its set-up is the builds themselves).
const BUILD_REPS: usize = 5;
/// One answer in this many is compared with the reference computation…
const CHECK_EVERY: u64 = 50;
/// …and a client makes at most this many reference computations a run.
const CHECK_BUDGET: f64 = 24.0;
/// Share of `--seconds` a traced run spends in its traced phase; the
/// untraced phase before it gets the rest.
const TRACED_SHARE: f64 = 0.6;
/// Sampled operations the traced phase aims for (at least 100 where a
/// probe costs no more than the operation it replays).
const TARGET_PROBES: f64 = 160.0;
/// `churn`: records replayed per sampled read, and sampled reads per
/// replayed publish (4 × 8 = one 32-op batch).
const RECORDS_PER_PROBE: usize = 4;
/// Distinct thresholds and sizes of the hot mix: 24 τ × 20 k × 3 ψ.
const HOT_TAUS: usize = 24;
const MAX_K: usize = 20;
const ZIPF_S: f64 = 1.1;
/// Pre-drawn operations per client; the streams wrap around.
const COLD_STREAM_LEN: usize = 4_096;
const HOT_STREAM_LEN: usize = 1 << 18;
/// `churn`: open-loop feed rate and burst size.
const PACED_RECORDS_PER_S: f64 = 250.0;
const BURST_RECORDS: usize = 1_000;
/// `churn`: shares of `--seconds` the paced and the alternate phase take,
/// in an untraced and in a traced run. The bounded figures come from the
/// alternate phase and the per-layer ones (freshness, reads beside writes,
/// the probes) from the paced phase, so each kind of run gives most of
/// its time to the phase it reports.
const CHURN_SHARES: [(f64, f64); 2] = [(0.2, 0.65), (0.65, 0.2)];
/// `churn`: length of the paced reader's cycle of hot-mix draws.
const READER_CYCLE: usize = 240;
/// `churn`, phase `alternate`: the records of a write half, the reads of
/// a read half, and the turns a run has records for. 48 adds with about
/// as many retirements close one batch on the 64-op limit and leave a
/// rest for the 50 ms limit, so every write half waits for that once; 16
/// consecutive τ of the 24 share no provider.
const TURN_RECORDS: usize = 48;
const TURN_READS: usize = 16;
const MAX_TURNS: usize = 48;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Seed of every query and record stream (the city is fixed).
    pub seed: u64,
    /// Scenario scale (`beijing_like`), 0.25 by default.
    pub scale: f64,
    /// Seconds the timed section measures for.
    pub seconds: f64,
    /// Traced run: half the time untraced, half with sampled replays;
    /// reports the per-layer metrics.
    pub trace: bool,
    /// Directory for traces and WALs (inside the checkout).
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from [`crate::spec`].
    pub unit: &'static str,
    /// Samples behind the value (blocks, probes, repetitions).
    pub samples: u64,
}

/// What one run of one workload reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (queries and records).
    pub attempted: u64,
    /// Operations refused, errored, impaired, wrong, shed or unmatched.
    pub failed: u64,
    /// End-to-end metrics, then (traced run) per-layer metrics.
    pub metrics: Vec<Metric>,
}

/// Collects metrics by name; the traced run starts from zeros so every
/// per-layer name is present on every workload.
struct Metrics(BTreeMap<&'static str, (f64, u64)>);

impl Metrics {
    fn new() -> Metrics {
        Metrics(BTreeMap::new())
    }

    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            spec::unit_of(name).is_some(),
            "metric {name} is not in the spec"
        );
        self.0.insert(name, (value, samples));
    }

    fn set_span(&mut self, name: &'static str, trace: &Trace, span: &str) {
        let (us, n) = trace.median_us(span);
        self.set(name, us, n);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.0)
    }

    /// End-to-end metrics in spec order, then per-layer ones when traced.
    fn finish(self, traced: bool) -> Vec<Metric> {
        let pick = |list: &'static [spec::MetricSpec]| {
            list.iter()
                .map(|spec| {
                    let (value, samples) = self.0.get(spec.name).copied().unwrap_or((0.0, 0));
                    Metric {
                        name: spec.name,
                        value,
                        unit: spec.unit,
                        samples,
                    }
                })
                .collect::<Vec<_>>()
        };
        let mut out = pick(spec::END_TO_END);
        if traced {
            out.extend(pick(spec::PER_LAYER));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Query mixes
// ---------------------------------------------------------------------

/// The cold mix: τ spread over [400, 3200) m by a golden-ratio sequence
/// from a seeded offset, so every τ is distinct after millimetre
/// quantisation (no cache ever hits) and any few hundred consecutive
/// queries cover the range evenly whatever the seed; k cycles through
/// 1..=20 and ψ through 60 % Binary, 20 % LinearDecay, 20 %
/// ConvexProbability α = 2, each (k, ψ slot) pair once per 100 queries.
pub fn cold_stream(seed: u64, client: usize) -> Vec<Query> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D ^ ((client as u64) << 32));
    let (tau0, k0, psi0) = (
        rng.random::<f64>(),
        rng.random_range(0..MAX_K),
        rng.random_range(0..5usize),
    );
    (0..COLD_STREAM_LEN)
        .map(|i| {
            let tau = 400.0 + 2_800.0 * (tau0 + i as f64 * GOLDEN).fract();
            let k = 1 + (k0 + i) % MAX_K;
            Query::new(k, tau, psi_slot(psi0 + i + i / MAX_K))
        })
        .collect()
}

/// ψ of slot `i`: 60 % Binary, 20 % LinearDecay, 20 % ConvexProbability
/// α = 2 over any five consecutive slots.
fn psi_slot(i: usize) -> Psi {
    match i % 5 {
        0..=2 => Psi::Binary,
        3 => Psi::Linear,
        _ => Psi::Convex2,
    }
}

/// The `t`-th of the hot mix's 24 thresholds, metres.
fn hot_tau(t: usize) -> f64 {
    450.0 + 115.0 * (t % HOT_TAUS) as f64
}

/// The `n`-th read of `churn`'s `alternate` phase: shapes of the hot mix,
/// the 24 τ in turn, so that the [`TURN_READS`] reads between two
/// publishes share no provider and each is as cold as the publish before
/// it made it.
fn rotating_shape(n: usize) -> Query {
    Query::new(1 + n * 7 % MAX_K, hot_tau(n), psi_slot(n))
}

/// The hot mix's 1 440 shapes, most popular first: 24 τ × 20 k × 3 ψ in
/// a fixed shuffled order, so popularity is not tied to τ or k. Which
/// shapes are popular is part of the workload, not of the seed: the
/// seed draws the stream. (With the top shape taking an eighth of the
/// traffic, a popularity order per seed would make every latency figure
/// a property of the seed's few hottest shapes.)
pub fn hot_shapes() -> Vec<Query> {
    let mut shapes = Vec::with_capacity(HOT_TAUS * MAX_K * 3);
    for t in 0..HOT_TAUS {
        for k in 1..=MAX_K {
            for psi in [Psi::Binary, Psi::Linear, Psi::Convex2] {
                shapes.push(Query::new(k, hot_tau(t), psi));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5A1F);
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, rng.random_range(0..=i));
    }
    shapes
}

/// Indices into `shapes`, Zipf(s = 1.1) by popularity rank.
pub fn hot_stream(shapes: usize, seed: u64, client: usize) -> Vec<u16> {
    let mut cdf = Vec::with_capacity(shapes);
    let mut total = 0.0;
    for rank in 1..=shapes {
        total += (rank as f64).powf(-ZIPF_S);
        cdf.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4071 ^ ((client as u64) << 32));
    (0..HOT_STREAM_LEN)
        .map(|_| {
            let u = rng.random::<f64>() * total;
            cdf.partition_point(|&c| c < u).min(shapes - 1) as u16
        })
        .collect()
}

/// The query streams of one serving workload, one per client.
struct Mix {
    shapes: Vec<Query>,
    /// Hot mix: per client, indices into `shapes`. Empty for the cold mix.
    hot: Vec<Vec<u16>>,
    cold: Vec<Vec<Query>>,
}

impl Mix {
    fn new(hot: bool, seed: u64, clients: usize) -> Mix {
        let shapes = hot_shapes();
        Mix {
            hot: (0..if hot { clients } else { 0 })
                .map(|c| hot_stream(shapes.len(), seed, c))
                .collect(),
            cold: (0..clients).map(|c| cold_stream(seed, c)).collect(),
            shapes,
        }
    }

    /// Client `c`'s `i`-th query; the streams wrap around.
    fn pick(&self, c: usize, i: u64) -> &Query {
        match self.hot.get(c) {
            Some(stream) => &self.shapes[stream[i as usize % HOT_STREAM_LEN] as usize],
            None => &self.cold[c][i as usize % COLD_STREAM_LEN],
        }
    }
}

/// What distinguishes two workloads that share a serving stack.
struct Plan {
    name: &'static str,
    clients: usize,
    /// The hot mix and a full warm pass; otherwise the cold mix.
    hot: bool,
}

/// The shapes in the order of the warm pass: least popular first, so
/// that the LRU result cache ends up holding the most popular shapes,
/// which is what it holds in the steady state of the Zipf stream.
fn warm_order(shapes: &[Query]) -> Vec<Query> {
    shapes.iter().rev().copied().collect()
}

/// The shapes that warm a round-1 memo for all 1 440: those with the
/// largest k, because a memoised round answers every smaller k by
/// prefix.
fn memo_warm_order(shapes: &[Query]) -> Vec<Query> {
    shapes.iter().filter(|q| q.k == MAX_K).copied().collect()
}

// ---------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------

/// What one served operation reports back to its generator.
#[derive(Clone, Copy)]
struct Served {
    /// Answered, complete and (when checked) equal to the reference.
    ok: bool,
    /// Time the product attributes to the layers below its entry point,
    /// nanoseconds (slowest round 1 + merge of a router answer); 0 when
    /// the product does not say.
    inner_ns: u64,
}

impl Served {
    fn plain(ok: bool) -> Served {
        Served { ok, inner_ns: 0 }
    }
}

/// Picks the answers to compare with the reference computation: one in
/// [`CHECK_EVERY`], and per client no two closer in time than
/// `seconds / CHECK_BUDGET`, because a reference costs a cold query.
/// Spacing them keeps checking a small and even share of the run on the
/// hot workloads, where fifty operations take a fraction of a
/// millisecond.
struct Checker {
    start: Instant,
    gap_ns: u64,
    /// Per client, nanoseconds after `start` from which a check is due.
    next_ns: Vec<AtomicU64>,
}

impl Checker {
    fn new(clients: usize, seconds: f64) -> Checker {
        Checker {
            start: Instant::now(),
            gap_ns: (seconds * 1e9 / CHECK_BUDGET) as u64,
            next_ns: (0..clients).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn due(&self, client: usize, i: u64) -> bool {
        if i % CHECK_EVERY != 0 {
            return false;
        }
        let now = self.start.elapsed().as_nanos() as u64;
        let due = now >= self.next_ns[client].load(Ordering::Relaxed);
        if due {
            self.next_ns[client].store(now + self.gap_ns, Ordering::Relaxed);
        }
        due
    }
}

/// What a load generator measured: per client, its run cut into
/// [`SLICES`] equal time slices.
struct LoopOut {
    clients: Vec<Vec<Block>>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl LoopOut {
    /// Each client's slices regrouped into equal blocks that leave ten
    /// samples beyond `q` (at most five per client).
    fn blocks(&self, q: f64) -> Vec<Block> {
        self.clients.iter().flat_map(|c| regroup(c, q)).collect()
    }

    /// Median over blocks of the block's percentile `q`, and the blocks.
    fn percentile_us(&self, q: f64) -> Option<(f64, u64)> {
        let blocks = self.blocks(q);
        block_median(&blocks, |b| b.percentile_us(q)).map(|v| (v, blocks.len() as u64))
    }

    /// Falls back to the pooled figure when a run is too short to leave
    /// ten samples beyond the percentile (a smoke run; `samples` reads 1).
    fn percentile_or_pooled(&self, q: f64) -> (f64, u64) {
        self.percentile_us(q).unwrap_or_else(|| {
            let mut all = Block::default();
            self.blocks(q).iter().for_each(|b| all.merge(b));
            (all.percentile_us_unchecked(q), 1)
        })
    }

    /// Completions per second of the closed loop: clients × the median
    /// block's rate (operations ÷ time inside calls).
    fn rate(&self) -> f64 {
        let rate = block_median(&self.blocks(0.5), |b| Some(b.rate())).expect("a block");
        self.clients.len() as f64 * rate
    }

    fn busy_s(&self) -> f64 {
        self.clients.iter().flatten().map(Block::busy_s).sum()
    }

    /// Share of the clients' wall time spent outside served calls.
    fn idle_frac(&self) -> f64 {
        1.0 - self.busy_s() / (self.wall_s * self.clients.len() as f64)
    }
}

/// One client's clock: cuts `seconds` into [`SLICES`] and files each
/// operation under the slice it completed in.
struct Recorder {
    start: Instant,
    seconds: f64,
    slices: Vec<Block>,
    failed: u64,
}

impl Recorder {
    fn new(seconds: f64) -> Recorder {
        Recorder {
            start: Instant::now(),
            seconds,
            slices: vec![Block::default(); SLICES],
            failed: 0,
        }
    }

    /// Whether the run is over (never before the first operation).
    fn expired(&self, now: Instant) -> bool {
        let done = self.slices.iter().any(|s| s.n() > 0);
        done && (now - self.start).as_secs_f64() >= self.seconds
    }

    /// Files an operation that ran from `began` to `ended`.
    fn record(&mut self, began: Instant, ended: Instant, served: Served) {
        let at = (ended - self.start).as_secs_f64() / self.seconds.max(1e-9);
        let slice = ((at * SLICES as f64) as usize).min(SLICES - 1);
        self.slices[slice].record((ended - began).as_nanos() as u64);
        self.failed += u64::from(!served.ok);
    }
}

fn loop_out(recorders: Vec<Recorder>) -> LoopOut {
    let wall_s = recorders
        .iter()
        .map(|r| r.start.elapsed().as_secs_f64())
        .fold(0.0, f64::max);
    let failed = recorders.iter().map(|r| r.failed).sum();
    let clients: Vec<Vec<Block>> = recorders.into_iter().map(|r| r.slices).collect();
    LoopOut {
        attempted: clients.iter().flatten().map(Block::n).sum(),
        clients,
        failed,
        wall_s,
    }
}

/// Closed loop: each of `clients` threads (the caller is the first)
/// sends its next operation when the previous one completes, for
/// `seconds`. The clock of an operation runs over `serve` alone; `judge`
/// (the failure count and the reference comparisons, each of which costs
/// a cold query) runs after it has stopped, so checking is in no latency
/// and in no throughput figure.
fn closed_loop<A>(
    clients: usize,
    seconds: f64,
    serve: impl Fn(usize, u64) -> A + Sync,
    judge: impl Fn(usize, u64, A) -> Served + Sync,
) -> LoopOut {
    let client = |c: usize| {
        let mut rec = Recorder::new(seconds);
        for i in 0.. {
            let began = Instant::now();
            if rec.expired(began) {
                break;
            }
            let answer = serve(c, i);
            let ended = Instant::now();
            rec.record(began, ended, judge(c, i, answer));
        }
        rec
    };
    let recorders = std::thread::scope(|scope| {
        let others: Vec<_> = (1..clients)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        let mut recorders = vec![client(0)];
        recorders.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("load client panicked")),
        );
        recorders
    });
    loop_out(recorders)
}

/// The traced phase: one closed-loop client for `seconds`; every
/// `every`-th operation gets a root span with the served call and
/// `replay` as children. As in [`closed_loop`], `judge` runs once the
/// operation's clock and its `served` span have stopped.
fn traced_loop<A>(
    seconds: f64,
    every: u64,
    trace: &mut Trace,
    mut serve: impl FnMut(u64) -> A,
    mut judge: impl FnMut(u64, A) -> Served,
    mut replay: impl FnMut(u64, &mut Trace, u32),
) -> LoopOut {
    let mut rec = Recorder::new(seconds);
    for i in 0.. {
        if rec.expired(Instant::now()) {
            break;
        }
        let spans = (i % every == 0).then(|| {
            let root = trace.begin("op", i, None);
            (root, trace.begin("served", i, Some(root)))
        });
        let began = Instant::now();
        let answer = serve(i);
        let ended = Instant::now();
        if let Some((_, served_span)) = spans {
            trace.end(served_span);
        }
        let served = match spans {
            Some((root, _)) => trace.span("loadgen.judge", i, Some(root), || judge(i, answer)),
            None => judge(i, answer),
        };
        rec.record(began, ended, served);
        if let Some((root, served_span)) = spans {
            if served.inner_ns > 0 {
                trace.span_closing("served.inner", i, served_span, served.inner_ns);
            }
            replay(i, trace, root);
            trace.end(root);
        }
    }
    loop_out(vec![rec])
}

/// Sampling period that yields about [`TARGET_PROBES`] probes in
/// `seconds` at the rate one client achieved untraced.
fn sample_every(untraced: &LoopOut, seconds: f64) -> u64 {
    let per_client = untraced.rate() / untraced.clients.len() as f64;
    ((per_client * seconds / TARGET_PROBES).floor() as u64).max(1)
}

/// Median over sampled operations of `served − Σ parts`, microseconds:
/// what the serving layer adds on top of the replayed layers.
fn overhead_us(trace: &Trace, parts: &[&str]) -> (f64, u64) {
    let mut served: BTreeMap<u64, f64> = BTreeMap::new();
    let mut replayed: BTreeMap<u64, f64> = BTreeMap::new();
    for s in trace.spans() {
        let us = (s.end_ns - s.start_ns) as f64 * 1e-3;
        if s.name == "served" {
            served.insert(s.op, us);
        } else if parts.contains(&s.name) {
            *replayed.entry(s.op).or_default() += us;
        }
    }
    let diffs: Vec<f64> = served
        .iter()
        .filter_map(|(op, us)| replayed.get(op).map(|r| us - r))
        .collect();
    median_and_count(&diffs)
}

/// Median self time of the `served` spans, microseconds: the served call
/// minus what the product itself attributes to the layers below.
fn served_self_us(trace: &Trace) -> (f64, u64) {
    let selfs = crate::trace::self_times(trace.spans());
    let us: Vec<f64> = trace
        .spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == "served")
        .map(|(_, ns)| ns as f64 * 1e-3)
        .collect();
    median_and_count(&us)
}

// ---------------------------------------------------------------------
// Shared reductions
// ---------------------------------------------------------------------

/// The untimed pass that ends a set-up, in seconds. Hot mixes send every
/// shape once (`order`, dealt out to the clients), which fills the result,
/// provider and round-1 caches. Cold mixes send a few queries of another
/// seed's mix, which start the workers and size their scratch and share
/// no τ with the timed mix.
fn warm_pass(plan: &Plan, seed: u64, order: &[Query], serve: impl Fn(&Query) + Sync) -> f64 {
    let clients = plan.clients;
    let t = Instant::now();
    if plan.hot {
        // Client c takes every `clients`-th shape from c on, so all of
        // them advance through the order together.
        std::thread::scope(|scope| {
            for c in 0..clients {
                let serve = &serve;
                scope.spawn(move || order.iter().skip(c).step_by(clients).for_each(serve));
            }
        });
    } else {
        cold_stream(!seed, 0)[..16].iter().for_each(serve);
    }
    t.elapsed().as_secs_f64()
}

/// The untraced seconds of a run: all of them, or what the traced
/// phase leaves.
fn untraced_seconds(cfg: &RunCfg) -> f64 {
    if cfg.trace {
        cfg.seconds * (1.0 - TRACED_SHARE)
    } else {
        cfg.seconds
    }
}

fn set_query_metrics(m: &mut Metrics, out: &LoopOut) {
    let (p50, blocks) = out.percentile_or_pooled(0.5);
    m.set("query_p50_us", p50, blocks);
    let (p95, n) = out.percentile_or_pooled(0.95);
    m.set("query_p95_us", p95, n);
    m.set("queries_per_s", out.rate(), blocks);
    let (p99, n) = out.percentile_us(0.99).unwrap_or((0.0, 0));
    m.set("query_p99_us", p99, n);
}

fn set_proc_metrics(m: &mut Metrics, delta: &ProcCounters) {
    m.set("proc.user_s", delta.user_s, 1);
    m.set("proc.sys_s", delta.sys_s, 1);
    m.set("proc.minor_faults", delta.minor_faults, 1);
    m.set("proc.invol_ctx_switches", delta.invol_ctx_switches, 1);
}

/// Sets a workload's serving stack up `reps` times, retiring all but the
/// last, and returns that one with the median set-up time in seconds.
fn set_up<T>(reps: usize, mut make: impl FnMut() -> T, retire: impl Fn(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            retire(previous);
        }
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Figures of repeated monolithic builds, one row per build.
#[derive(Default)]
struct MonoRows {
    ladder_s: Vec<f64>,
    enrich_s: Vec<f64>,
    clusters: usize,
    heap_mb: f64,
}

impl MonoRows {
    fn push(&mut self, b: &MonoBuild) {
        self.ladder_s.push(b.ladder_s);
        self.enrich_s.push(b.enrich_s);
        self.clusters = b.clusters();
        self.heap_mb = b.heap_mb();
    }

    fn build_s(&self) -> f64 {
        let whole: Vec<f64> = self
            .ladder_s
            .iter()
            .zip(&self.enrich_s)
            .map(|(l, e)| l + e)
            .collect();
        median(&whole)
    }

    fn set(&self, m: &mut Metrics) {
        let n = self.ladder_s.len() as u64;
        m.set("core.gdsp.ladder_s", median(&self.ladder_s), n);
        m.set("core.cluster.enrich_s", median(&self.enrich_s), n);
        m.set("core.index.clusters", self.clusters as f64, 1);
    }
}

/// Figures of repeated sharded builds, one row per build.
#[derive(Default)]
struct ShardedRows {
    build_s: Vec<f64>,
    partition_ms: Vec<f64>,
    work_s: Vec<f64>,
    max_s: Vec<f64>,
    replication_factor: f64,
    heap_mb: f64,
}

impl ShardedRows {
    fn push(&mut self, b: &ShardedBuild) {
        self.build_s.push(b.build_s);
        self.partition_ms.push(b.partition_ms);
        self.work_s.push(b.work_s);
        self.max_s.push(b.max_s);
        self.replication_factor = b.replication_factor;
        self.heap_mb = b.heap_mb();
    }

    fn set(&self, m: &mut Metrics) {
        let n = self.build_s.len() as u64;
        m.set("sharded_build_s", median(&self.build_s), n);
        m.set("roadnet.partition.build_ms", median(&self.partition_ms), n);
        m.set("core.shard.build_work_s", median(&self.work_s), n);
        m.set("core.shard.build_max_s", median(&self.max_s), n);
        m.set("core.shard.replication_factor", self.replication_factor, 1);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn set_provider_cache_metrics(
    m: &mut Metrics,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
) {
    let served = hits + coalesced;
    m.set(
        "service.provider_cache.hit_rate",
        ratio(served, served + misses),
        served + misses,
    );
    m.set("service.provider_cache.evictions", evictions as f64, 1);
    m.set("service.provider_cache.coalesced", coalesced as f64, 1);
}

fn set_service_metrics(
    m: &mut Metrics,
    before: &layers::ServiceCounters,
    after: &layers::ServiceCounters,
) {
    let d = |f: fn(&layers::ServiceCounters) -> u64| f(after) - f(before);
    let (hits, misses) = (d(|c| c.cache_hits), d(|c| c.cache_misses));
    m.set(
        "service.cache.hit_rate",
        ratio(hits, hits + misses),
        hits + misses,
    );
    m.set(
        "service.cache.evictions",
        d(|c| c.cache_evictions) as f64,
        1,
    );
    set_provider_cache_metrics(
        m,
        d(|c| c.provider_hits),
        d(|c| c.provider_misses),
        d(|c| c.provider_coalesced),
        d(|c| c.provider_evictions),
    );
    m.set(
        "service.executor.dedup_joined",
        d(|c| c.dedup_joined) as f64,
        1,
    );
    m.set(
        "service.executor.mean_batch",
        ratio(d(|c| c.batched_requests), d(|c| c.batches)),
        d(|c| c.batches),
    );
    m.set(
        "service.executor.queue_depth_max",
        after.queue_depth_max as f64,
        1,
    );
    m.set("service.executor.rejected", d(|c| c.rejected) as f64, 1);
}

fn set_router_metrics(
    m: &mut Metrics,
    before: &layers::RouterCounters,
    after: &layers::RouterCounters,
) {
    let d = |f: fn(&layers::RouterCounters) -> u64| f(after) - f(before);
    let (mh, mm) = (d(|c| c.memo_hits), d(|c| c.memo_misses));
    m.set("service.round_memo.hit_rate", ratio(mh, mh + mm), mh + mm);
    set_provider_cache_metrics(
        m,
        d(|c| c.provider_hits),
        d(|c| c.provider_misses),
        d(|c| c.provider_coalesced),
        d(|c| c.provider_evictions),
    );
    m.set(
        "service.shard_router.hedged_requests",
        d(|c| c.hedged_requests) as f64,
        1,
    );
    m.set(
        "service.shard_router.hedge_wins",
        d(|c| c.hedge_wins) as f64,
        1,
    );
    m.set(
        "service.shard_router.replica_failovers",
        d(|c| c.replica_failovers) as f64,
        1,
    );
    m.set(
        "service.shard_router.degraded_answers",
        d(|c| c.degraded_answers) as f64,
        1,
    );
    m.set(
        "service.shard_router.breaker_opens",
        d(|c| c.breaker_opens) as f64,
        1,
    );
    m.set(
        "service.remote_shard.requests",
        d(|c| c.transport_requests) as f64,
        1,
    );
    m.set(
        "service.remote_shard.errors",
        d(|c| c.transport_errors) as f64,
        1,
    );
    m.set(
        "service.remote_shard.reconnects",
        d(|c| c.transport_reconnects) as f64,
        1,
    );
}

/// Share of the timed clients' time that went into provider builds:
/// builds × the replayed build time ÷ time inside served calls.
fn set_provider_share(m: &mut Metrics, builds: u64, untraced: &LoopOut) {
    let build_s = m.get("core.query.provider_build_us") * 1e-6;
    let share = builds as f64 * build_s / untraced.busy_s();
    m.set("core.query.provider_build_share", share, builds);
}

fn set_core_replay_metrics(m: &mut Metrics, trace: &Trace, counts: &[layers::ProviderCounts]) {
    m.set_span(
        "core.query.provider_build_us",
        trace,
        "core.query.provider_build",
    );
    m.set_span("core.greedy.solve_us", trace, "core.greedy.solve");
    let n = counts.len() as u64;
    if n > 0 {
        let pairs: Vec<f64> = counts.iter().map(|c| c.pairs as f64).collect();
        let mbs: Vec<f64> = counts.iter().map(|c| c.mb).collect();
        m.set("core.query.provider_pairs", median(&pairs), n);
        m.set("core.query.provider_mb", median(&mbs), n);
    }
}

fn set_sharded_replay_metrics(m: &mut Metrics, trace: &Trace, counts: &[layers::ShardedCounts]) {
    let provider: Vec<layers::ProviderCounts> = counts.iter().map(|c| c.provider).collect();
    set_core_replay_metrics(m, trace, &provider);
    m.set("core.greedy.solve_us", 0.0, 0);
    m.set_span("core.shard.round1_us", trace, "core.shard.round1");
    m.set_span("core.shard.merge_us", trace, "core.shard.merge");
    m.set_span("core.shard.encode_us", trace, "core.shard.encode");
    m.set_span("core.shard.decode_us", trace, "core.shard.decode");
    m.set_span(
        "service.shard_proto.encode_us",
        trace,
        "service.shard_proto.encode",
    );
    m.set_span(
        "service.shard_proto.decode_us",
        trace,
        "service.shard_proto.decode",
    );
    let n = counts.len() as u64;
    if n > 0 {
        let cands: Vec<f64> = counts.iter().map(|c| c.candidates as f64).collect();
        let bytes: Vec<f64> = counts.iter().map(|c| c.round1_bytes as f64).collect();
        m.set("core.shard.candidates", median(&cands), n);
        m.set("core.shard.round1_bytes", median(&bytes), n);
    }
    let (us, n) = served_self_us(trace);
    m.set("service.shard_router.overhead_us", us, n);
}

fn set_trace_metrics(
    m: &mut Metrics,
    cfg: &RunCfg,
    workload: &str,
    trace: &Trace,
    untraced: &LoopOut,
    traced: &LoopOut,
) {
    m.set(
        "loadgen.trace_overhead_frac",
        traced.idle_frac() - untraced.idle_frac(),
        1,
    );
    m.set(
        "trace.attributed_frac",
        trace.attributed_frac(),
        trace.ops() as u64,
    );
    m.set_span("trace.served_us", trace, "served");
    m.set("trace.probes", trace.ops() as f64, 1);
    let path = cfg.out_dir.join(format!("{workload}.trace.jsonl"));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("[warn] cannot write {}: {e}", path.display());
    }
}

/// The parts every workload ends with.
fn finish(
    workload: &'static str,
    cfg: &RunCfg,
    mut m: Metrics,
    world: &World,
    attempted: u64,
    failed: u64,
    checks_ok: bool,
) -> Report {
    m.set("failed_frac", ratio(failed, attempted), attempted);
    m.set("loadgen.datagen_s", world.datagen_s, 1);
    Report {
        workload,
        correct: checks_ok && failed == 0,
        attempted,
        failed,
        metrics: m.finish(cfg.trace),
    }
}

// ---------------------------------------------------------------------
// build
// ---------------------------------------------------------------------

/// Offline builds as the set-up (`BUILD_REPS` × monolithic and 4-shard
/// index), then one client calling `NetClusIndex::query` with the cold
/// mix: the library's own costs, no serving layer.
pub fn build(cfg: &RunCfg) -> Report {
    let world = World::generate(cfg.scale);
    let mut m = Metrics::new();
    let (mut mono_rows, mut sharded_rows) = (MonoRows::default(), ShardedRows::default());
    let (mono, setup_s) = set_up(
        BUILD_REPS,
        || {
            let mono = MonoBuild::build(&world);
            sharded_rows.push(&ShardedBuild::build(&world));
            mono_rows.push(&mono);
            mono
        },
        drop,
    );
    m.set("setup_s", setup_s, BUILD_REPS as u64);
    m.set("index_build_s", mono_rows.build_s(), BUILD_REPS as u64);
    m.set("index_mb", mono.heap_mb(), 1);
    m.set("core.index.heap_mb", mono.heap_mb(), 1);
    mono_rows.set(&mut m);
    sharded_rows.set(&mut m);

    let stream = cold_stream(cfg.seed, 0);
    let pick = |i: u64| &stream[i as usize % stream.len()];
    let before = ProcCounters::now();
    let untraced = closed_loop(
        1,
        untraced_seconds(cfg),
        |_, i| mono.query(&world, pick(i)),
        |_, _, well_formed| Served::plain(well_formed),
    );
    set_proc_metrics(&mut m, &ProcCounters::now().since(&before));
    set_query_metrics(&mut m, &untraced);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    if cfg.trace {
        let mut trace = Trace::new();
        let mut scratch = layers::scratch();
        let mut counts = Vec::new();
        let seconds = cfg.seconds * TRACED_SHARE;
        let skip = untraced.attempted;
        let traced = traced_loop(
            seconds,
            sample_every(&untraced, seconds),
            &mut trace,
            |i| mono.query(&world, pick(skip + i)),
            |_, well_formed| Served::plain(well_formed),
            |i, trace, root| {
                counts.push(mono.replay(&world, pick(skip + i), &mut scratch, trace, i, root))
            },
        );
        attempted += traced.attempted;
        failed += traced.failed;
        set_core_replay_metrics(&mut m, &trace, &counts);
        // Every bare query builds its provider.
        set_provider_share(&mut m, untraced.attempted, &untraced);
        set_trace_metrics(&mut m, cfg, "build", &trace, &untraced, &traced);
    }

    m.set("rss_peak_mb", rss_peak_mb(), 1);
    let probe = UtilityProbe::on_world(&world);
    m.set(
        "utility_ratio",
        probe.ratio(&world, |q| mono.sites(&world, q)),
        6,
    );
    finish("build", cfg, m, &world, attempted, failed, true)
}

// ---------------------------------------------------------------------
// cold_mono and hot_mono
// ---------------------------------------------------------------------

fn mono_workload(cfg: &RunCfg, plan: &Plan) -> Report {
    let world = World::generate(cfg.scale);
    let mut m = Metrics::new();
    let mix = Mix::new(plan.hot, cfg.seed, plan.clients);
    let pick = |c: usize, i: u64| mix.pick(c, i);

    // Set-up: index build, service start, warm pass.
    let mut rows = MonoRows::default();
    let (mono, setup_s) = set_up(
        SETUP_REPS,
        || {
            let built = MonoBuild::build(&world);
            rows.push(&built);
            Mono::start(&world, built)
        },
        Mono::shutdown,
    );
    let warm_s = warm_pass(plan, cfg.seed, &warm_order(&mix.shapes), |q| {
        drop(mono.query(q))
    });
    m.set("setup_s", setup_s + warm_s, SETUP_REPS as u64);
    m.set("index_build_s", rows.build_s(), SETUP_REPS as u64);
    m.set("index_mb", rows.heap_mb, 1);
    m.set("core.index.heap_mb", rows.heap_mb, 1);
    rows.set(&mut m);

    let checker = Checker::new(plan.clients, cfg.seconds);
    let serve = |c: usize, i: u64| mono.query(pick(c, i));
    let judge = |c: usize, i: u64, answer: Option<layers::MonoAnswer>| {
        Served::plain(answer.is_some_and(|a| !checker.due(c, i) || mono.verify(pick(c, i), &a)))
    };
    let counters_before = mono.counters();
    let proc_before = ProcCounters::now();
    let untraced = closed_loop(plan.clients, untraced_seconds(cfg), serve, judge);
    set_proc_metrics(&mut m, &ProcCounters::now().since(&proc_before));
    let counters_after = mono.counters();
    set_query_metrics(&mut m, &untraced);
    set_service_metrics(&mut m, &counters_before, &counters_after);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    if cfg.trace {
        let mut trace = Trace::new();
        let mut scratch = layers::scratch();
        let mut counts = Vec::new();
        let seconds = cfg.seconds * TRACED_SHARE;
        let skip = untraced.attempted;
        let traced = traced_loop(
            seconds,
            sample_every(&untraced, seconds),
            &mut trace,
            |i| serve(0, skip + i),
            |i, answer| judge(0, skip + i, answer),
            |i, trace, root| {
                counts.push(mono.replay(pick(0, skip + i), &mut scratch, trace, i, root))
            },
        );
        attempted += traced.attempted;
        failed += traced.failed;
        set_core_replay_metrics(&mut m, &trace, &counts);
        let (us, n) = overhead_us(&trace, &["core.query.provider_build", "core.greedy.solve"]);
        // On the hot mix the served call is a cache hit and the replay a
        // cold computation, so the difference is meaningless there.
        if !plan.hot {
            m.set("service.executor.overhead_us", us, n);
        }
        let builds = counters_after.provider_misses - counters_before.provider_misses;
        set_provider_share(&mut m, builds, &untraced);
        set_trace_metrics(&mut m, cfg, plan.name, &trace, &untraced, &traced);
    }

    m.set("rss_peak_mb", rss_peak_mb(), 1);
    let probe = UtilityProbe::on_world(&world);
    m.set("utility_ratio", probe.ratio(&world, |q| mono.sites(q)), 6);
    mono.shutdown();
    finish(plan.name, cfg, m, &world, attempted, failed, true)
}

/// `NetClusService` (2 workers), one closed-loop client, the cold mix.
pub fn cold_mono(cfg: &RunCfg) -> Report {
    mono_workload(
        cfg,
        &Plan {
            name: "cold_mono",
            clients: 1,
            hot: false,
        },
    )
}

/// `NetClusService` (2 workers), two closed-loop clients, the hot mix.
pub fn hot_mono(cfg: &RunCfg) -> Report {
    mono_workload(
        cfg,
        &Plan {
            name: "hot_mono",
            clients: 2,
            hot: true,
        },
    )
}

// ---------------------------------------------------------------------
// cold_sharded and hot_remote
// ---------------------------------------------------------------------

/// Judges a router answer to `q`; `check` compares it with the reference.
fn judge_routed(
    routed: &Routed,
    q: &Query,
    answer: Option<layers::RoutedAnswer>,
    check: bool,
) -> Served {
    match answer {
        Some(a) => Served {
            ok: !a.impaired() && (!check || routed.verify(q, &a)),
            inner_ns: (a.slowest_round1_us() + a.merge_us()) * 1_000,
        },
        None => Served::plain(false),
    }
}

/// `cold_sharded` (in process) and `hot_remote` (behind shard servers).
fn routed_workload(cfg: &RunCfg, plan: &Plan) -> Report {
    let world = World::generate(cfg.scale);
    let mut m = Metrics::new();
    let mix = Mix::new(plan.hot, cfg.seed, plan.clients);
    let pick = |c: usize, i: u64| mix.pick(c, i);

    let mut rows = ShardedRows::default();
    let (routed, setup_s) = set_up(
        SETUP_REPS,
        || {
            let built = ShardedBuild::build(&world);
            rows.push(&built);
            if plan.hot {
                Routed::start_remote(&world, built)
            } else {
                Routed::start_in_process(&world, built, true)
            }
        },
        Routed::shutdown,
    );
    let warm_s = warm_pass(plan, cfg.seed, &memo_warm_order(&mix.shapes), |q| {
        drop(routed.query(q))
    });
    m.set("setup_s", setup_s + warm_s, SETUP_REPS as u64);
    m.set("index_mb", rows.heap_mb, 1);
    m.set("core.index.heap_mb", rows.heap_mb, 1);
    rows.set(&mut m);

    let checker = Checker::new(plan.clients, cfg.seconds);
    let serve = |c: usize, i: u64| routed.query(pick(c, i));
    let judge =
        |c: usize, i: u64, answer| judge_routed(&routed, pick(c, i), answer, checker.due(c, i));
    let counters_before = routed.counters();
    let proc_before = ProcCounters::now();
    let untraced = closed_loop(plan.clients, untraced_seconds(cfg), serve, judge);
    set_proc_metrics(&mut m, &ProcCounters::now().since(&proc_before));
    let counters_after = routed.counters();
    set_query_metrics(&mut m, &untraced);
    set_router_metrics(&mut m, &counters_before, &counters_after);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    if cfg.trace {
        let mut trace = Trace::new();
        let mut scratch = layers::scratch();
        let mut counts = Vec::new();
        let mut probe = plan.hot.then(|| routed.transport_probe());
        let mut probe_ok = true;
        let seconds = cfg.seconds * TRACED_SHARE;
        let skip = untraced.attempted;
        let traced = traced_loop(
            seconds,
            sample_every(&untraced, seconds),
            &mut trace,
            |i| serve(0, skip + i),
            |i, answer| judge(0, skip + i, answer),
            |i, trace, root| {
                let q = pick(0, skip + i);
                if let Some(probe) = probe.as_mut() {
                    // The first call per shape fills both memos untimed.
                    let mut unrecorded = Trace::new();
                    let warm_root = unrecorded.begin("warm", i, None);
                    probe_ok &= probe.round1(q, &mut unrecorded, i, warm_root);
                    probe_ok &= probe.round1(q, trace, i, root);
                }
                counts.push(routed.replay(q, &mut scratch, trace, i, root));
            },
        );
        attempted += traced.attempted;
        failed += traced.failed + u64::from(!probe_ok);
        set_sharded_replay_metrics(&mut m, &trace, &counts);
        if plan.hot {
            m.set_span(
                "service.remote_shard.rpc_us",
                &trace,
                "service.remote_shard.rpc",
            );
            m.set_span(
                "service.inprocess_shard.round1_us",
                &trace,
                "service.inprocess_shard.round1",
            );
            let n = trace.median_us("service.remote_shard.rpc").1;
            m.set(
                "service.remote_shard.rpc_overhead_us",
                m.get("service.remote_shard.rpc_us") - m.get("service.inprocess_shard.round1_us"),
                n,
            );
            let (round1_us, memo_hit_rate) = routed.server_view();
            m.set("service.shard_server.round1_us", round1_us, 1);
            // A remote router keeps no memo of its own; the servers do.
            m.set("service.round_memo.hit_rate", memo_hit_rate, 1);
        }
        let builds = counters_after.provider_misses - counters_before.provider_misses;
        set_provider_share(&mut m, builds, &untraced);
        set_trace_metrics(&mut m, cfg, plan.name, &trace, &untraced, &traced);
    }

    m.set("rss_peak_mb", rss_peak_mb(), 1);
    let probe = UtilityProbe::on_world(&world);
    m.set("utility_ratio", probe.ratio(&world, |q| routed.sites(q)), 6);
    routed.shutdown();
    finish(plan.name, cfg, m, &world, attempted, failed, true)
}

/// `ShardRouter::start`, 4 shards in process, one client, the cold mix.
pub fn cold_sharded(cfg: &RunCfg) -> Report {
    routed_workload(
        cfg,
        &Plan {
            name: "cold_sharded",
            clients: 1,
            hot: false,
        },
    )
}

/// Eight loopback shard servers behind `connect_replicated`, two
/// clients, the hot mix.
pub fn hot_remote(cfg: &RunCfg) -> Report {
    routed_workload(
        cfg,
        &Plan {
            name: "hot_remote",
            clients: 2,
            hot: true,
        },
    )
}

// ---------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------

/// Open loop: submits records `range` of `stream` at
/// [`PACED_RECORDS_PER_S`], each timed from when it was due. Returns the
/// records not admitted and each record's lateness in milliseconds.
fn paced_feed(churn: &Churn, stream: &GpsStream, range: std::ops::Range<usize>) -> (u64, Vec<f64>) {
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / PACED_RECORDS_PER_S);
    let mut late_ms = Vec::with_capacity(range.len());
    let mut refused = 0;
    for (j, i) in range.enumerate() {
        let due = period * j as u32;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        late_ms.push((start.elapsed().saturating_sub(due)).as_secs_f64() * 1e3);
        refused += u64::from(!churn.submit(stream, i));
    }
    (refused, late_ms)
}

/// Waits until every admitted record is visible or has failed to match.
fn drain(churn: &Churn) {
    while churn.in_flight() > 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Ingest beside reads: an `Ingestor` publishing through a WAL into the
/// in-process 4-shard router. Phase `paced`: one open-loop feeder at 250
/// records/s beside one closed-loop hot-mix reader. Phase `burst`: 1 000
/// framed records through `ingest_reader`, no reader. Phase `alternate`:
/// one client, in turn 48 framed records until they are visible and 16
/// reads. Phase `recover`: `finish()`, then `recover_store` from the WAL.
pub fn churn(cfg: &RunCfg) -> Report {
    let mut world = World::generate(cfg.scale);
    let mut m = Metrics::new();
    let (paced_share, alternate_share) = CHURN_SHARES[usize::from(cfg.trace)];
    let paced_s = cfg.seconds * paced_share;
    let paced_records = (paced_s * PACED_RECORDS_PER_S).ceil() as usize;
    // A trip retires when as many later ones are in as half the paced and
    // burst records, so from the middle of the burst on every add comes
    // with a retirement.
    let alternate_from = paced_records + BURST_RECORDS;
    let stream = world.gps_stream(
        alternate_from + MAX_TURNS * TURN_RECORDS,
        alternate_from / 2,
        cfg.seed ^ 0x6B5,
    );
    let shapes = hot_shapes();
    // The paced reader completes only a few hundred requests, too few for
    // a Zipf sample of its own: it walks one fixed cycle of draws from a
    // seeded offset, so every seed reads the same mix of shapes.
    let cycle = &hot_stream(shapes.len(), 0, 0)[..READER_CYCLE];
    let offset = StdRng::seed_from_u64(cfg.seed ^ 0x0FF5).random_range(0..READER_CYCLE);
    let pick = |i: u64| &shapes[cycle[(offset + i as usize) % READER_CYCLE] as usize];
    let wal_dir = cfg
        .out_dir
        .join(format!("churn-wal-{}", std::process::id()));

    let (mut mono_rows, mut rows) = (MonoRows::default(), ShardedRows::default());
    let (mut churn, setup_s) = set_up(
        SETUP_REPS,
        || {
            let mono = MonoBuild::build(&world);
            let sharded = ShardedBuild::build(&world);
            mono_rows.push(&mono);
            rows.push(&sharded);
            Churn::start(&world, mono, sharded, &wal_dir, stream.ttl_s)
        },
        Churn::shutdown,
    );
    m.set("setup_s", setup_s, SETUP_REPS as u64);
    m.set("index_build_s", mono_rows.build_s(), SETUP_REPS as u64);
    m.set("index_mb", rows.heap_mb, 1);
    m.set("core.index.heap_mb", rows.heap_mb, 1);
    mono_rows.set(&mut m);
    rows.set(&mut m);

    // Built before any timed phase: the traced run's private copies.
    let mut probe = cfg.trace.then(|| {
        IngestProbe::new(
            &world,
            &cfg.out_dir
                .join(format!("probe-wal-{}", std::process::id())),
        )
    });

    // Phase `paced`, untraced part.
    let phase_start = Instant::now();
    let untraced_records = if cfg.trace {
        (paced_records as f64 * (1.0 - TRACED_SHARE)) as usize
    } else {
        paced_records
    };
    let untraced_s = untraced_records as f64 / PACED_RECORDS_PER_S;
    let routed = churn.routed();
    // The router's corpus moves with every publish, so its answers have
    // no fixed reference; degraded and stale ones still count as failed.
    let serve = |i: u64| routed.query(pick(i));
    let judge = |i: u64, answer| judge_routed(routed, pick(i), answer, false);
    let counters_before = routed.counters();
    let proc_before = ProcCounters::now();
    let (untraced, (mut refused, mut late_ms)) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| paced_feed(&churn, &stream, 0..untraced_records));
        let reader = closed_loop(1, untraced_s, |_, i| serve(i), |_, i, a| judge(i, a));
        (reader, feeder.join().expect("feeder panicked"))
    });
    drain(&churn);
    set_proc_metrics(&mut m, &ProcCounters::now().since(&proc_before));
    let counters_after = routed.counters();
    let paced = churn.counters(phase_start.elapsed());
    // Reads beside writes. A reader against a publisher that holds the
    // update lock a third of the time is bimodal (computing, or waiting
    // for the lock) with the median on the boundary, and fits a handful of
    // requests into each gap between publishes: these figures move by a
    // quarter between runs, so they carry no bound.
    let (p50, blocks) = untraced.percentile_or_pooled(0.5);
    m.set("churn.paced_read_p50_us", p50, blocks);
    let (p95, blocks) = untraced.percentile_or_pooled(0.95);
    m.set("churn.paced_read_p95_us", p95, blocks);
    m.set(
        "churn.paced_reads_per_s",
        untraced.rate(),
        untraced.attempted,
    );
    set_router_metrics(&mut m, &counters_before, &counters_after);
    m.set(
        "freshness_p50_ms",
        paced.freshness_p50_us as f64 * 1e-3,
        paced.visible,
    );
    m.set(
        "freshness_p95_ms",
        paced.freshness_p95_us as f64 * 1e-3,
        paced.visible,
    );
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);

    // Phase `paced`, traced part: the reader replays sampled queries and,
    // with each, four records of the stream through decode and map match;
    // every 32 replayed records make one replayed publish.
    if let Some(probe) = probe.as_mut() {
        let mut trace = Trace::new();
        let mut scratch = layers::scratch();
        let mut counts = Vec::new();
        let (mut pending, mut frame_bytes, mut wal_bytes, mut published) =
            (Vec::new(), Vec::new(), 0u64, 0u64);
        let seconds = (paced_records - untraced_records) as f64 / PACED_RECORDS_PER_S;
        let every = sample_every(&untraced, seconds);
        let (traced, (more_refused, more_late)) = std::thread::scope(|scope| {
            let feeder =
                scope.spawn(|| paced_feed(&churn, &stream, untraced_records..paced_records));
            let reader = traced_loop(
                seconds,
                every,
                &mut trace,
                serve,
                judge,
                |i, trace, root| {
                    counts.push(routed.replay(pick(i), &mut scratch, trace, i, root));
                    for _ in 0..RECORDS_PER_PROBE {
                        let record = frame_bytes.len() % stream.len();
                        let (bytes, add) = probe.record(&world, &stream, record, trace, i, root);
                        frame_bytes.push(bytes as f64);
                        pending.extend(add);
                    }
                    if pending.len() >= APPLY_BATCH_OPS {
                        wal_bytes += probe.publish(&pending, trace, i, root);
                        published += pending.len() as u64;
                        pending.clear();
                    }
                },
            );
            (reader, feeder.join().expect("feeder panicked"))
        });
        drain(&churn);
        refused += more_refused;
        late_ms.extend(more_late);
        attempted += traced.attempted;
        failed += traced.failed;
        set_sharded_replay_metrics(&mut m, &trace, &counts);
        m.set_span("ingest.record.decode_us", &trace, "ingest.record.decode");
        m.set_span(
            "trajectory.mapmatch.match_us",
            &trace,
            "trajectory.mapmatch.match",
        );
        m.set_span("ingest.wal.append_us", &trace, "ingest.wal.append");
        m.set_span("ingest.wal.sync_us", &trace, "ingest.wal.sync");
        m.set_span(
            "service.snapshot.apply_us",
            &trace,
            "service.snapshot.apply",
        );
        m.set_span(
            "service.shard_router.apply_us",
            &trace,
            "service.shard_router.apply",
        );
        m.set_span("core.index.clone_us", &trace, "core.index.clone");
        m.set_span(
            "core.update.add_trajectory_us",
            &trace,
            "core.update.add_trajectory",
        );
        if !frame_bytes.is_empty() {
            m.set(
                "ingest.record.bytes_per_record",
                median(&frame_bytes),
                frame_bytes.len() as u64,
            );
        }
        m.set(
            "ingest.wal.bytes_per_record",
            ratio(wal_bytes, published),
            published,
        );
        let builds = counters_after.provider_misses - counters_before.provider_misses;
        set_provider_share(&mut m, builds, &untraced);
        set_trace_metrics(&mut m, cfg, "churn", &trace, &untraced, &traced);
    }
    late_ms.sort_by(f64::total_cmp);
    m.set(
        "loadgen.late_p99_ms",
        percentile_sorted(&late_ms, 0.99),
        late_ms.len() as u64,
    );

    // Phase `burst`: framed records, closed loop on the blocking intake,
    // timed until the last one is visible.
    let frames = stream.frames(paced_records..alternate_from);
    let t = Instant::now();
    let mut accepted = churn.ingest_framed(&frames);
    drain(&churn);
    let burst_s = t.elapsed().as_secs_f64();
    m.set("ingest_records_per_s", accepted as f64 / burst_s, accepted);

    // Phase `alternate`: one client writes, waits until its records are
    // visible, then reads what the publish left cold, in turn. Nothing
    // runs beside anything, so the figures repeat as those of the cold
    // workloads do, and these are the workload's bounded ones: the
    // latencies of reads after a publish, and reads per second of the
    // whole turn, in which the write half (match, batch delay, WAL sync,
    // clone-and-apply) weighs as much as the reads.
    let mut rec = Recorder::new(cfg.seconds * alternate_share);
    let (mut write_ms, mut turn_rates) = (Vec::new(), Vec::new());
    for turn in 0..MAX_TURNS {
        let began = Instant::now();
        if rec.expired(began) {
            break;
        }
        let from = alternate_from + turn * TURN_RECORDS;
        accepted += churn.ingest_framed(&stream.frames(from..from + TURN_RECORDS));
        drain(&churn);
        write_ms.push(began.elapsed().as_secs_f64() * 1e3);
        for n in turn * TURN_READS..(turn + 1) * TURN_READS {
            let q = rotating_shape(offset + n);
            let sent = Instant::now();
            let answer = routed.query(&q);
            let ended = Instant::now();
            rec.record(sent, ended, judge_routed(routed, &q, answer, false));
        }
        turn_rates.push(TURN_READS as f64 / began.elapsed().as_secs_f64());
    }
    let framed = (BURST_RECORDS + write_ms.len() * TURN_RECORDS) as u64;
    let alternate = loop_out(vec![rec]);
    set_query_metrics(&mut m, &alternate);
    m.set(
        "queries_per_s",
        median(&turn_rates),
        turn_rates.len() as u64,
    );
    m.set(
        "churn.alternate_write_ms",
        median(&write_ms),
        write_ms.len() as u64,
    );
    attempted += alternate.attempted;
    failed += alternate.failed;
    m.set("rss_peak_mb", rss_peak_mb(), 1);

    let total = churn.counters(phase_start.elapsed());
    attempted += paced_records as u64 + framed;
    failed += refused + (framed - accepted) + total.match_failed + total.shed;
    m.set("ingest.pipeline.batches", total.batches as f64, 1);
    m.set(
        "ingest.pipeline.mean_batch_ops",
        ratio(total.ops, total.batches),
        total.batches,
    );
    m.set(
        "ingest.pipeline.publish_us",
        total.publish_p50_us as f64,
        total.batches,
    );
    m.set("ingest.pipeline.shed", total.shed as f64, 1);
    m.set("ingest.pipeline.match_failed", total.match_failed as f64, 1);
    m.set("ingest.pipeline.duplicates", total.duplicates as f64, 1);
    m.set("ingest.wal.syncs", total.wal_syncs as f64, 1);
    if !cfg.trace {
        m.set(
            "ingest.wal.bytes_per_record",
            ratio(total.wal_bytes, total.visible),
            total.visible,
        );
    }

    // Phase `recover`.
    let recovery = churn.finish_and_recover(&world);
    m.set("recovery_s", recovery.recovery_s, 1);
    m.set(
        "ingest.recovery.replay_batches",
        recovery.replay_batches as f64,
        1,
    );
    m.set("ingest.recovery.replay_us", recovery.replay_us, 1);
    let recovered_ok = recovery.epoch_matches && recovery.corpus_matches;
    if !recovered_ok {
        eprintln!(
            "[fail] recovered store diverges from the live router (epoch ok: {}, corpus ok: {})",
            recovery.epoch_matches, recovery.corpus_matches
        );
    }

    let utility = UtilityProbe::on_recovered(&world, &recovery);
    let routed = churn.routed();
    m.set(
        "utility_ratio",
        utility.ratio_recovered(&world, &recovery, |q| routed.sites(q)),
        6,
    );
    if let Some(probe) = probe {
        probe.shutdown();
    }
    churn.shutdown();
    finish("churn", cfg, m, &world, attempted, failed, recovered_ok)
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<fn(&RunCfg) -> Report> {
    Some(match name {
        "build" => build,
        "cold_mono" => cold_mono,
        "hot_mono" => hot_mono,
        "cold_sharded" => cold_sharded,
        "hot_remote" => hot_remote,
        "churn" => churn,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_shaped_as_documented() {
        let a = cold_stream(7, 0);
        assert_eq!(a, cold_stream(7, 0));
        assert_ne!(a, cold_stream(7, 1));
        assert_ne!(a, cold_stream(8, 0));
        let mut taus: Vec<u64> = a.iter().map(|q| q.tau.to_bits()).collect();
        taus.sort_unstable();
        taus.dedup();
        assert_eq!(taus.len(), a.len(), "every cold τ is distinct");
        assert!(a
            .iter()
            .all(|q| (400.0..3_200.0).contains(&q.tau) && (1..=20).contains(&q.k)));
        let binary = a.iter().filter(|q| q.psi == Psi::Binary).count() as f64 / a.len() as f64;
        assert!((binary - 0.6).abs() < 0.01, "binary share {binary}");
        // Any window of 200 queries covers τ, k and ψ evenly.
        let window = &a[1_000..1_200];
        let mean_tau = window.iter().map(|q| q.tau).sum::<f64>() / 200.0;
        assert!(
            (mean_tau - 1_800.0).abs() < 30.0,
            "window mean τ {mean_tau}"
        );
        assert_eq!(window.iter().filter(|q| q.k == 7).count(), 10);
        assert_eq!(window.iter().filter(|q| q.psi == Psi::Linear).count(), 40);
        let pairs: std::collections::BTreeSet<_> =
            a[..100].iter().map(|q| (q.k, q.psi as u8)).collect();
        assert_eq!(pairs.len(), 60, "every k meets every ψ");

        let shapes = hot_shapes();
        assert_eq!(shapes.len(), 1_440);
        assert_eq!(shapes, hot_shapes());
        let stream = hot_stream(shapes.len(), 7, 0);
        assert_eq!(stream, hot_stream(shapes.len(), 7, 0));
        let top = stream.iter().filter(|&&s| s == 0).count() as f64 / stream.len() as f64;
        let tail = stream.iter().filter(|&&s| s >= 1_024).count() as f64 / stream.len() as f64;
        assert!(top > 0.1 && top < 0.2, "rank-1 share {top}");
        assert!(
            tail > 0.01 && tail < 0.1,
            "share beyond the result cache {tail}"
        );
        assert_eq!(warm_order(&shapes)[1_439], shapes[0]);
    }

    #[test]
    fn closed_loop_measures_for_the_time_asked() {
        let calls = std::sync::atomic::AtomicU64::new(0);
        let out = closed_loop(
            2,
            0.2,
            |_, i| {
                calls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(100));
                i
            },
            |_, _, i| {
                // Judging takes ten times as long as serving and is in no
                // figure.
                std::thread::sleep(Duration::from_millis(1));
                Served::plain(i % 100 != 0)
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), out.attempted);
        // Loose limits: a shared host can stall a test for a while.
        assert!(
            out.attempted >= 20 && out.attempted <= 500,
            "{} ops",
            out.attempted
        );
        assert!(out.failed >= out.attempted / 100 && out.failed <= out.attempted / 100 + 2);
        assert!(out.wall_s >= 0.2 && out.wall_s < 5.0, "wall {}", out.wall_s);
        assert_eq!(out.clients.len(), 2);
        let (p50, blocks) = out.percentile_or_pooled(0.5);
        assert!(
            (100.0..1_000.0).contains(&p50) && (1..=10).contains(&blocks),
            "p50 {p50} over {blocks} blocks"
        );
        assert!(out.percentile_or_pooled(0.95).0 >= p50);
        assert!(out.rate() > 2_000.0 && out.rate() <= 20_000.0);
        assert!(out.idle_frac() > 0.5 && out.idle_frac() < 1.0);
        // Zero seconds still runs one operation per client.
        let once = closed_loop(2, 0.0, |_, _| (), |_, _, ()| Served::plain(true));
        assert_eq!(once.attempted, 2);
    }

    #[test]
    fn traced_loop_samples_and_attributes() {
        let mut trace = Trace::new();
        let mut calls = 0;
        let out = traced_loop(
            0.05,
            50,
            &mut trace,
            |_| calls += 1,
            |_, ()| Served {
                ok: true,
                inner_ns: 1_000,
            },
            |i, trace, root| {
                trace.span("layer", i, Some(root), || std::hint::black_box(i));
            },
        );
        assert_eq!(out.attempted, calls);
        let probes = calls.div_ceil(50);
        assert_eq!(trace.ops() as u64, probes);
        assert_eq!(trace.median_us("layer").1, probes);
        assert_eq!(trace.median_us("served.inner").1, probes);
        assert_eq!(trace.median_us("loadgen.judge").1, probes);
        assert_eq!(overhead_us(&trace, &["layer"]).1, probes);
        assert_eq!(served_self_us(&trace).1, probes);
    }

    fn smoke_cfg(trace: bool) -> RunCfg {
        RunCfg {
            seed: 3,
            scale: 0.02,
            seconds: 0.4,
            trace,
            out_dir: std::env::temp_dir()
                .join(format!("netclus-bench-smoke-{}", std::process::id())),
        }
    }

    /// All six workload functions at `--scale 0.02`: every end-to-end
    /// metric present and non-zero, nothing failed, and quickly.
    #[test]
    fn smoke_all_six_workloads() {
        let start = Instant::now();
        for (name, _) in spec::WORKLOADS {
            let traced = *name == "churn";
            let report = by_name(name).expect("workload exists")(&smoke_cfg(traced));
            assert_eq!(report.workload, *name);
            assert!(report.correct, "{name} failed its checks");
            assert_eq!(report.failed, 0, "{name} had failed operations");
            assert!(report.attempted > 0);
            let expect = spec::END_TO_END.len() + if traced { spec::PER_LAYER.len() } else { 0 };
            assert_eq!(report.metrics.len(), expect);
            for metric in &report.metrics[..spec::END_TO_END.len()] {
                assert!(
                    metric.value.is_finite() && metric.value > 0.0,
                    "{name}: {} = {}",
                    metric.name,
                    metric.value
                );
            }
        }
        let _ = std::fs::remove_dir_all(smoke_cfg(false).out_dir);
        assert!(
            start.elapsed() < Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 10 }),
            "smoke took {:?}",
            start.elapsed()
        );
    }
}
