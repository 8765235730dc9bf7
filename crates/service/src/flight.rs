//! The flight recorder: fixed-capacity, in-process time-series retention
//! over the full metrics surface.
//!
//! Point-in-time reports ([`crate::metrics`]) and the tail-sampled trace
//! log answer "what is slow *right now*"; they cannot answer "is the
//! provider-cache hit rate decaying" or "has ingest been falling behind
//! for the last minute" — every scrape evaporates. The recorder keeps a
//! bounded window of history so trends are queryable in-process, with no
//! external metrics stack:
//!
//! * a **sampler** ([`FlightSampler`], one thread) snapshots a sample
//!   closure every tick — typically the flattened
//!   [`MetricsReport`](crate::MetricsReport) / ingest report / stage
//!   breakdown via [`flatten_json`];
//! * samples land in a **full-resolution ring** of the last
//!   [`FlightConfig::capacity`] ticks (oldest overwritten);
//! * every [`FlightConfig::downsample_every`]-th tick is also retained in
//!   a **coarse ring** covering a much longer horizon. Downsampling
//!   *decimates* (keeps the bucket's last sample) rather than averaging:
//!   most series are monotonic counters, and averaging a counter before
//!   differencing would distort every rate computed from the coarse
//!   horizon. Gauges lose sub-bucket spikes there; the full-resolution
//!   ring is the recent-horizon view for those.
//!
//! Rates are computed **at read time** from adjacent retained samples,
//! clamped at zero per adjacent pair — a counter reset (an epoch purge
//! dropping cache counters, a component restart) reads as a
//! zero-increment interval, never as a negative rate or an underflow.
//!
//! The [`health`](crate::health) evaluator reads windows from the
//! recorder, and the telemetry endpoint serves `history`/`rates` from it
//! ([`crate::telemetry`]).

#![deny(clippy::too_many_lines)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::jsonl;

/// Recorder shape: tick cadence and retention.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Sampler cadence ([`FlightSampler`] snapshots once per tick).
    pub tick: Duration,
    /// Full-resolution ticks retained (ring; oldest overwritten).
    pub capacity: usize,
    /// Every N-th tick is also kept in the coarse ring (decimation).
    pub downsample_every: usize,
    /// Coarse ticks retained — the long horizon covers
    /// `coarse_capacity × downsample_every` ticks.
    pub coarse_capacity: usize,
}

impl Default for FlightConfig {
    /// 250 ms ticks, 240 full-resolution ticks (1 min) and a 30-minute
    /// coarse horizon (8× decimation, 360 points).
    fn default() -> Self {
        FlightConfig {
            tick: Duration::from_millis(250),
            capacity: 240,
            downsample_every: 8,
            coarse_capacity: 360,
        }
    }
}

/// A fixed-capacity overwrite-oldest ring.
#[derive(Debug)]
struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest element once the ring has wrapped.
    start: usize,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap.min(1_024)),
            cap: cap.max(1),
            start: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.start] = item;
            self.start = (self.start + 1) % self.cap;
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Oldest → newest.
    fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }

    fn newest(&self) -> Option<&T> {
        if self.buf.is_empty() {
            None
        } else {
            Some(&self.buf[(self.start + self.buf.len() - 1) % self.buf.len()])
        }
    }
}

/// One retained tick: capture time (seconds since recorder start) plus
/// the sampled values, aligned with the recorder's series table. Series
/// that appeared after this tick was captured read as absent.
#[derive(Clone, Debug)]
struct Tick {
    at_secs: f64,
    values: Vec<f64>,
}

impl Tick {
    fn get(&self, series: usize) -> Option<f64> {
        self.values.get(series).copied().filter(|v| v.is_finite())
    }
}

#[derive(Debug, Default)]
struct RecorderState {
    /// Series names in first-seen order; `Tick::values` aligns with this.
    names: Vec<String>,
    index: HashMap<String, usize>,
    full: Option<Ring<Tick>>,
    coarse: Option<Ring<Tick>>,
    /// Ticks ever recorded (not capped by retention).
    ticks: u64,
}

/// The time-series store. Cheap to share (`Arc`); one `record` per tick
/// and read-time queries take the same internal lock — none of this is on
/// a query hot path.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    started: Instant,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// An empty recorder; series are created lazily by the first sample
    /// that mentions them.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            cfg,
            started: Instant::now(),
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// The configured shape.
    pub fn config(&self) -> &FlightConfig {
        &self.cfg
    }

    /// Seconds since the recorder was created (the time axis of every
    /// retained tick).
    pub(crate) fn now_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one tick stamped with the current time.
    pub(crate) fn record_now(&self, sample: &[(String, f64)]) {
        self.record_at(self.now_secs(), sample);
    }

    /// Records one tick at an explicit timestamp (seconds on the
    /// recorder's own axis). Non-finite values are dropped (absent for
    /// that tick).
    pub fn record_at(&self, at_secs: f64, sample: &[(String, f64)]) {
        let mut s = self.state.lock().expect("flight recorder poisoned");
        let mut values = vec![f64::NAN; s.names.len()];
        for (name, value) in sample {
            if !value.is_finite() {
                continue;
            }
            let idx = match s.index.get(name) {
                Some(&i) => i,
                None => {
                    let i = s.names.len();
                    s.names.push(name.clone());
                    s.index.insert(name.clone(), i);
                    values.push(f64::NAN);
                    i
                }
            };
            values[idx] = *value;
        }
        let tick = Tick { at_secs, values };
        let cap = self.cfg.capacity;
        s.full
            .get_or_insert_with(|| Ring::new(cap))
            .push(tick.clone());
        s.ticks += 1;
        if s.ticks % self.cfg.downsample_every.max(1) as u64 == 0 {
            let cap = self.cfg.coarse_capacity;
            s.coarse.get_or_insert_with(|| Ring::new(cap)).push(tick);
        }
    }

    /// Series names, in first-seen order.
    pub fn series(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("flight recorder poisoned")
            .names
            .clone()
    }

    /// Total ticks ever recorded (beyond retention).
    pub fn ticks(&self) -> u64 {
        self.state.lock().expect("flight recorder poisoned").ticks
    }

    /// The newest retained value of `series`.
    pub fn last(&self, series: &str) -> Option<f64> {
        let s = self.state.lock().expect("flight recorder poisoned");
        let idx = *s.index.get(series)?;
        s.full.as_ref()?.newest()?.get(idx)
    }

    /// `(time, value)` points of `series`, oldest → newest: the coarse
    /// horizon for everything older than the full-resolution window, then
    /// the full-resolution ring. `window_secs` (if given) keeps only
    /// points within that trailing window, anchored at the **newest
    /// retained tick** (not the wall clock, so a paused sampler cannot
    /// make every window empty).
    pub fn history(&self, series: &str, window_secs: Option<f64>) -> Option<Vec<(f64, f64)>> {
        let s = self.state.lock().expect("flight recorder poisoned");
        let idx = *s.index.get(series)?;
        let full = s.full.as_ref()?;
        let full_start = full.iter().next().map_or(f64::INFINITY, |t| t.at_secs);
        let newest = full.newest().map_or(f64::NEG_INFINITY, |t| t.at_secs);
        let cutoff = window_secs.map_or(f64::NEG_INFINITY, |w| newest - w.max(0.0));
        let mut out = Vec::new();
        if let Some(coarse) = s.coarse.as_ref() {
            for tick in coarse.iter() {
                if tick.at_secs < full_start && tick.at_secs >= cutoff {
                    if let Some(v) = tick.get(idx) {
                        out.push((tick.at_secs, v));
                    }
                }
            }
        }
        for tick in full.iter() {
            if tick.at_secs >= cutoff {
                if let Some(v) = tick.get(idx) {
                    out.push((tick.at_secs, v));
                }
            }
        }
        Some(out)
    }

    /// Per-second rate of every series over the most recent tick
    /// interval, clamped at zero (a counter reset can never underflow
    /// into a negative rate). Meaningful for monotonic counters; for a
    /// gauge this is its recent rate of change. Empty until two ticks are
    /// retained.
    pub fn rates(&self) -> Vec<(String, f64)> {
        let s = self.state.lock().expect("flight recorder poisoned");
        let Some(full) = s.full.as_ref() else {
            return Vec::new();
        };
        let n = full.len();
        if n < 2 {
            return Vec::new();
        }
        let mut it = full.iter().skip(n - 2);
        let (prev, last) = (it.next().expect("prev tick"), it.next().expect("last tick"));
        let dt = last.at_secs - prev.at_secs;
        if dt <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(s.names.len() + 1);
        out.push(("interval_secs".to_string(), dt));
        for (i, name) in s.names.iter().enumerate() {
            if let (Some(a), Some(b)) = (prev.get(i), last.get(i)) {
                out.push((name.clone(), ((b - a).max(0.0)) / dt));
            }
        }
        out
    }

    /// Total clamped increase of `series` over the trailing window,
    /// together with the time actually spanned. Sums per-adjacent-pair
    /// clamped deltas, so a counter reset mid-window contributes zero for
    /// that pair instead of dragging the whole window negative. `None`
    /// when the series is unknown or fewer than two points fall in the
    /// window.
    pub(crate) fn window_increase(&self, series: &str, window_secs: f64) -> Option<(f64, f64)> {
        let points = self.history(series, Some(window_secs))?;
        if points.len() < 2 {
            return None;
        }
        let mut total = 0.0;
        for pair in points.windows(2) {
            total += (pair[1].1 - pair[0].1).max(0.0);
        }
        let span = points.last().expect("non-empty").0 - points[0].0;
        Some((total, span))
    }

    /// Renders one series' history as a single JSON line
    /// (`{"series":…,"window_secs":…,"points":[[t,v],…]}`) for the
    /// telemetry `history` command.
    pub fn history_json(&self, series: &str, window_secs: Option<f64>) -> String {
        let Some(points) = self.history(series, window_secs) else {
            return jsonl::object(|o| {
                o.str("error", "unknown series");
                o.str("series", series);
            });
        };
        jsonl::object(|o| {
            o.str("series", series);
            // No window is `null`, as is a non-finite one.
            o.num("window_secs", window_secs.unwrap_or(f64::NAN));
            o.array("points", |a| {
                for &(t, v) in &points {
                    a.array(|p| {
                        p.num(t);
                        p.num(v);
                    });
                }
            });
        })
    }

    /// Renders [`FlightRecorder::rates`] as one flat JSON line for the
    /// telemetry `rates` command.
    pub fn rates_json(&self) -> String {
        let rates = self.rates();
        if rates.is_empty() {
            return jsonl::error("need at least two ticks");
        }
        jsonl::object(|o| {
            for (name, v) in &rates {
                o.num(name, *v);
            }
        })
    }

    /// Dumps every retained tick as JSON Lines (coarse horizon first,
    /// then the full-resolution window), one flat object per tick with
    /// `at_secs` plus each series present at that tick. This is the
    /// `results/flight_recorder.jsonl` CI artifact.
    pub fn dump_jsonl(&self) -> String {
        let s = self.state.lock().expect("flight recorder poisoned");
        let full = s.full.iter().flat_map(Ring::iter);
        let full_start = full.clone().next().map_or(f64::INFINITY, |t| t.at_secs);
        let coarse = s.coarse.iter().flat_map(Ring::iter);
        let older = coarse.filter(|t| t.at_secs < full_start);
        let mut out = String::new();
        for tick in older.chain(full) {
            out += &jsonl::object(|o| {
                o.num("at_secs", tick.at_secs);
                for (i, name) in s.names.iter().enumerate() {
                    if let Some(v) = tick.get(i) {
                        o.num(name, v);
                    }
                }
            });
            out.push('\n');
        }
        out
    }
}

/// Parses the numeric fields of a flat single-line JSON object into
/// flight-recorder samples. It is the one reader of the flat shape the
/// crate's JSON writer (`jsonl`) emits for the metrics, ingest and stage
/// lines, whose keys need no escaping and whose values hold no comma.
/// String values and `null`s are skipped — an omitted-or-null gauge is
/// *absent*, never zero.
pub fn flatten_json(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let inner = json.trim().trim_start_matches('{').trim_end_matches('}');
    let mut rest = inner;
    while let Some(open) = rest.find('"') {
        let Some(close) = rest[open + 1..].find('"') else {
            break;
        };
        let key = &rest[open + 1..open + 1 + close];
        rest = &rest[open + 2 + close..];
        let Some(colon) = rest.find(':') else { break };
        rest = &rest[colon + 1..];
        let end = rest.find(',').unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
        rest = rest.get(end + 1..).unwrap_or("");
    }
    out
}

/// The sampler thread: calls a snapshot closure once per
/// [`FlightConfig::tick`] and feeds the recorder. Shutdown wakes the
/// sleeping thread immediately.
#[derive(Debug)]
pub struct FlightSampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    stopped: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FlightSampler {
    /// Spawns the sampler. `sample` is called outside the recorder's lock
    /// and should return the flattened metrics surface (see
    /// [`flatten_json`]).
    pub fn start(
        recorder: Arc<FlightRecorder>,
        sample: impl Fn() -> Vec<(String, f64)> + Send + 'static,
    ) -> FlightSampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stopped = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            let tick = recorder.cfg.tick;
            std::thread::Builder::new()
                .name("netclus-flight".into())
                .spawn(move || {
                    let (lock, cv) = &*stop;
                    loop {
                        recorder.record_now(&sample());
                        let guard = lock.lock().expect("sampler stop lock poisoned");
                        let (guard, _) = cv
                            .wait_timeout_while(guard, tick, |stopping| !*stopping)
                            .expect("sampler stop lock poisoned");
                        if *guard {
                            return;
                        }
                    }
                })
                .expect("spawn flight sampler")
        };
        FlightSampler {
            stop,
            stopped,
            handle: Some(handle),
        }
    }

    /// Stops and joins the sampler thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let (lock, cv) = &*self.stop;
            *lock.lock().expect("sampler stop lock poisoned") = true;
            cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FlightSampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, downsample_every: usize, coarse_capacity: usize) -> FlightConfig {
        FlightConfig {
            tick: Duration::from_millis(1),
            capacity,
            downsample_every,
            coarse_capacity,
        }
    }

    fn sample(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_window() {
        let rec = FlightRecorder::new(cfg(4, 1_000, 4));
        for i in 0..10u32 {
            rec.record_at(i as f64, &sample(&[("c", i as f64)]));
        }
        // Only the last 4 ticks survive, oldest → newest, and `last`
        // agrees with the newest retained tick.
        let points = rec.history("c", None).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points, vec![(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]);
        assert_eq!(rec.last("c"), Some(9.0));
        assert_eq!(rec.ticks(), 10);
    }

    #[test]
    fn counter_reset_clamps_rates_at_zero() {
        let rec = FlightRecorder::new(cfg(16, 1_000, 4));
        rec.record_at(0.0, &sample(&[("hits", 100.0)]));
        rec.record_at(1.0, &sample(&[("hits", 150.0)]));
        // Epoch purge: the counter resets to a small value.
        rec.record_at(2.0, &sample(&[("hits", 5.0)]));
        let rate = |rec: &FlightRecorder| {
            rec.rates()
                .into_iter()
                .find(|(k, _)| k == "hits")
                .map(|(_, v)| v)
                .unwrap()
        };
        assert_eq!(rate(&rec), 0.0, "reset interval must clamp, not underflow");
        rec.record_at(3.0, &sample(&[("hits", 25.0)]));
        assert_eq!(rate(&rec), 20.0, "post-reset growth measures normally");
        // Windowed increase skips the reset pair the same way.
        let (total, span) = rec.window_increase("hits", 1_000.0).unwrap();
        assert_eq!(total, 50.0 + 0.0 + 20.0);
        assert_eq!(span, 3.0);
    }

    #[test]
    fn downsample_boundaries_align_on_every_nth_tick() {
        let rec = FlightRecorder::new(cfg(4, 3, 16));
        for i in 1..=12u32 {
            rec.record_at(i as f64, &sample(&[("g", i as f64 * 10.0)]));
        }
        // Coarse ring decimates: exactly ticks 3, 6, 9, 12 (every 3rd),
        // holding that tick's value untouched (no averaging).
        let points = rec.history("g", None).unwrap();
        // Full window holds ticks 9..=12; coarse contributes 3 and 6.
        assert_eq!(
            points,
            vec![
                (3.0, 30.0),
                (6.0, 60.0),
                (9.0, 90.0),
                (10.0, 100.0),
                (11.0, 110.0),
                (12.0, 120.0),
            ]
        );
    }

    #[test]
    fn history_window_filters_and_unknown_series_is_none() {
        let rec = FlightRecorder::new(cfg(64, 1_000, 4));
        for i in 0..5u32 {
            rec.record_at(i as f64, &sample(&[("x", i as f64)]));
        }
        assert!(rec.history("nope", None).is_none());
        assert!(rec
            .history_json("nope", None)
            .contains("\"error\":\"unknown series\""));
        // The window anchors at the newest retained tick: 2 seconds back
        // from t=4 keeps t ∈ {2, 3, 4}; a zero window keeps the newest
        // tick alone.
        let points = rec.history("x", Some(2.0)).unwrap();
        assert_eq!(points, vec![(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]);
        assert_eq!(rec.history("x", Some(0.0)).unwrap(), vec![(4.0, 4.0)]);
        let json = rec.history_json("x", None);
        assert!(json.starts_with("{\"series\":\"x\""));
        assert!(json.contains("[4.000,4.000]"));
    }

    #[test]
    fn late_series_are_absent_not_zero() {
        let rec = FlightRecorder::new(cfg(8, 1_000, 4));
        rec.record_at(0.0, &sample(&[("a", 1.0)]));
        rec.record_at(1.0, &sample(&[("a", 2.0), ("b", 7.0)]));
        // `b` has one point, not a fabricated zero at t=0.
        assert_eq!(rec.history("b", None).unwrap(), vec![(1.0, 7.0)]);
        // Rates need both endpoints; `b` is skipped, `a` reported.
        let rates = rec.rates();
        assert!(rates.iter().any(|(k, v)| k == "a" && *v == 1.0));
        assert!(!rates.iter().any(|(k, _)| k == "b"));
    }

    #[test]
    fn dump_and_flatten_round_trip() {
        let rec = FlightRecorder::new(cfg(8, 2, 8));
        rec.record_at(0.5, &sample(&[("qps", 10.0)]));
        rec.record_at(1.0, &sample(&[("qps", 12.5)]));
        let dump = rec.dump_jsonl();
        assert_eq!(dump.lines().count(), 2);
        let fields = flatten_json(dump.lines().next().unwrap());
        assert!(fields.contains(&("at_secs".to_string(), 0.5)));
        assert!(fields.contains(&("qps".to_string(), 10.0)));
        // Nulls and strings are skipped, numbers kept.
        let mixed = flatten_json("{\"a\":1,\"rss_bytes\":null,\"s\":\"x\",\"b\":2.5}");
        assert_eq!(mixed, vec![("a".to_string(), 1.0), ("b".to_string(), 2.5)]);
    }

    #[test]
    fn sampler_feeds_recorder_and_shuts_down() {
        let rec = Arc::new(FlightRecorder::new(FlightConfig {
            tick: Duration::from_millis(2),
            ..FlightConfig::default()
        }));
        let n = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut sampler = {
            let n = Arc::clone(&n);
            FlightSampler::start(Arc::clone(&rec), move || {
                let v = n.fetch_add(1, Ordering::Relaxed) as f64;
                vec![("ticks".to_string(), v)]
            })
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while rec.ticks() < 3 {
            assert!(Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.shutdown();
        sampler.shutdown(); // idempotent
        let ticks = rec.ticks();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rec.ticks(), ticks, "sampler kept running past shutdown");
        assert!(rec.last("ticks").is_some());
    }
}
