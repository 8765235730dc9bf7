//! `netclus-top`: a live console dashboard over the flight recorder.
//!
//! A real ingest pipeline (map matching → WAL → snapshot publish) runs
//! against a generated GPS stream while a query thread answers top-k
//! from pinned snapshots. A sampler thread snapshots the full ingest
//! metrics surface into the in-process flight recorder every tick, and
//! the dashboard renders sparklines, per-interval rates and the SLO
//! health verdict — all fetched over the framed TCP telemetry endpoint,
//! exactly as an external `top`-style client would.
//!
//! Mid-run the demo injects a fault: the snapshot publisher stalls
//! (`Ingestor::set_publish_stall`), so admitted records keep matching
//! and batching but stop becoming visible. The `visibility_lag_us`
//! series visibly climbs, the `freshness` SLO rule fires, the verdict
//! degrades — and recovers once the stall lifts and the backlog drains.
//! All three transitions are asserted.
//!
//! Run with: `cargo run --release --example netclus_top`
//!
//! Set `NETCLUS_TOP_FRAMES=1` for a single-refresh headless smoke run
//! (CI): one frame is rendered and the stall scenario is skipped.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{beijing_small, generate_gps_stream, GpsStreamConfig};
use netclus_ingest::{IngestConfig, Ingestor, StreamRecord, WalConfig};
use netclus_service::{
    flatten_json, telemetry, FlightConfig, FlightRecorder, FlightSampler, HealthEvaluator,
    IngestMetrics, Severity, SloRule, SnapshotStore, TelemetryServer, TelemetrySource,
};

/// Recorder tick; also the dashboard refresh period.
const TICK: Duration = Duration::from_millis(100);
/// Freshness SLO: ingest→visible lag must stay under this many µs.
const FRESHNESS_CEILING_US: f64 = 1_500_000.0;
/// Deadline for the degraded verdict to appear once the stall starts.
const STALL_DETECT: Duration = Duration::from_secs(20);
/// Frames rendered per phase in the full (non-headless) run.
const PHASE_FRAMES: usize = 12;

fn main() {
    let headless = std::env::var("NETCLUS_TOP_FRAMES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_some_and(|n| n <= 1);

    // World + index + store, same shape as the ingestion example.
    let scenario = beijing_small(7);
    println!("[data ] {}", scenario.summary());
    let index = NetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 3_200.0,
            ..Default::default()
        },
    );
    let store = Arc::new(SnapshotStore::new(
        scenario.net.clone(),
        scenario.trajectories.clone(),
        index,
    ));

    let wal_dir = std::env::temp_dir().join(format!("netclus-top-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let metrics = Arc::new(IngestMetrics::default());
    let ingestor = Arc::new(
        Ingestor::start_with_sink(
            store.clone(),
            Arc::new(scenario.grid.clone()),
            IngestConfig {
                match_workers: 2,
                max_batch_ops: 8,
                max_batch_delay: Duration::from_millis(25),
                wal: WalConfig {
                    sync_every_frames: 4,
                    ..WalConfig::new(&wal_dir)
                },
                ..IngestConfig::new(&wal_dir)
            },
            Arc::clone(&metrics),
        )
        .expect("open WAL"),
    );

    // Background load: a feeder paces GPS frames into the pipeline and a
    // reader answers top-k from pinned snapshots throughout.
    let stop = Arc::new(AtomicBool::new(false));
    let queries_answered = Arc::new(AtomicU64::new(0));
    let feeder = {
        let ingestor = Arc::clone(&ingestor);
        let stop = Arc::clone(&stop);
        let events = generate_gps_stream(
            &scenario.net,
            &scenario.grid,
            &scenario.hotspots,
            &GpsStreamConfig {
                trips: 2_000,
                rate_per_sec: 1.5,
                sources: 8,
                ..Default::default()
            },
            0x70D0_CAFE,
        );
        std::thread::spawn(move || {
            for e in &events {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                // `submit`, not a one-frame `ingest_reader` call: a
                // reader's end publishes what it delivered, so one frame
                // per call would publish each record once it matched, and
                // this 2 ms stream should batch on the linger instead.
                ingestor.submit(StreamRecord {
                    source: e.source,
                    seq: e.seq,
                    trace: e.trace.clone(),
                });
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let querier = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let answered = Arc::clone(&queries_answered);
        std::thread::spawn(move || {
            let q = TopsQuery::binary(3, 900.0);
            while !stop.load(Ordering::Acquire) {
                let snap = store.load();
                let r = snap.index().query(snap.trajs(), &q);
                assert_eq!(r.solution.sites.len(), 3);
                answered.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // The flight recorder samples the whole ingest metrics surface plus
    // the query counter every tick.
    let recorder = Arc::new(FlightRecorder::new(FlightConfig {
        tick: TICK,
        capacity: 600,
        downsample_every: 5,
        coarse_capacity: 240,
    }));
    let started = Instant::now();
    let mut sampler = {
        let metrics = Arc::clone(&metrics);
        let answered = Arc::clone(&queries_answered);
        FlightSampler::start(Arc::clone(&recorder), move || {
            let mut sample = flatten_json(&metrics.report(started.elapsed()).to_json_line());
            sample.push((
                "queries_answered".to_string(),
                answered.load(Ordering::Relaxed) as f64,
            ));
            sample
        })
    };

    // SLO rules: the freshness gauge must stay under its ceiling, and
    // backpressure shedding must not burn the drop budget on both the
    // fast and slow windows at once.
    let health = HealthEvaluator::new()
        .with_rule(SloRule::ceiling(
            "freshness",
            "visibility_lag_us",
            FRESHNESS_CEILING_US,
            Severity::Degrading,
        ))
        .with_rule(SloRule::burn_rate(
            "shed",
            "records_dropped",
            "records_in",
            0.02,
            2.0,
            10.0,
            2.0,
            Severity::Critical,
        ));

    // Everything the dashboard shows travels over the framed TCP
    // endpoint — the renderer is an ordinary telemetry client.
    let source = TelemetrySource::new(
        {
            let m = Arc::clone(&metrics);
            move || m.report(started.elapsed()).to_json_line()
        },
        {
            let m = Arc::clone(&metrics);
            move || m.stages.to_json_line()
        },
        String::new,
    )
    .with_flight(Arc::clone(&recorder), health);
    let mut server = TelemetryServer::start("127.0.0.1:0", source).expect("bind telemetry");
    let addr = server.addr();
    println!("[wire ] telemetry on {addr} — commands: metrics, rates, health, history <series>");

    let frames = if headless { 1 } else { PHASE_FRAMES };

    // Phase 1 — steady state: ingest and queries flow, lag stays near 0.
    render_frames(addr, &recorder, frames, "steady");
    let verdict = fetch_verdict(addr);
    println!("[phase] steady state: verdict={verdict}");

    if headless {
        println!("[smoke] single-frame headless run; skipping the stall scenario");
    } else {
        assert_eq!(verdict, "healthy", "steady state must be healthy");

        // Phase 2 — fault injection: the publisher stalls. Matching and
        // batching continue; nothing becomes visible, so the freshness
        // gauge climbs past the SLO ceiling.
        println!("[fault] stalling the snapshot publisher");
        ingestor.set_publish_stall(true);
        let degraded = wait_until(STALL_DETECT, || {
            telemetry::fetch(addr, "health").is_ok_and(|h| h.contains("\"verdict\":\"degraded\""))
        });
        render_frames(addr, &recorder, frames, "stalled");
        assert!(degraded, "verdict never degraded during the stall");
        let health_line = telemetry::fetch(addr, "health").expect("fetch health");
        assert!(
            health_line.contains("\"firing\":[\"freshness\"]"),
            "freshness must be the firing rule: {health_line}"
        );
        let peak = recorder
            .history("visibility_lag_us", None)
            .expect("lag series recorded")
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(
            peak > FRESHNESS_CEILING_US,
            "lag series must visibly rise past the ceiling (peak {peak})"
        );
        println!(
            "[fault] degraded with freshness firing; lag peaked at {:.2}s",
            peak / 1e6
        );

        // Phase 3 — recovery: the stall lifts, the backlog publishes,
        // the gauge returns to 0 and the verdict to healthy.
        ingestor.set_publish_stall(false);
        let recovered = wait_until(Duration::from_secs(20), || {
            telemetry::fetch(addr, "health").is_ok_and(|h| h.contains("\"verdict\":\"healthy\""))
        });
        render_frames(addr, &recorder, frames, "recovered");
        assert!(recovered, "verdict never recovered after the stall");
        println!("[phase] recovered: verdict=healthy, backlog drained");
    }

    // The black box survives the flight: dump full-resolution + coarse
    // retention for offline analysis.
    let _ = std::fs::create_dir_all("results");
    std::fs::write("results/flight_recorder.jsonl", recorder.dump_jsonl())
        .expect("write flight recorder dump");
    println!(
        "[dump ] results/flight_recorder.jsonl ({} ticks retained)",
        recorder.ticks().min(600)
    );

    stop.store(true, Ordering::Release);
    feeder.join().expect("feeder panicked");
    querier.join().expect("querier panicked");
    sampler.shutdown();
    server.shutdown();
    match Arc::try_unwrap(ingestor) {
        Ok(i) => i.finish(),
        Err(_) => unreachable!("all ingestor clones joined"),
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    println!(
        "\n[json ] {}",
        metrics.report(started.elapsed()).to_json_line()
    );
}

/// Renders `frames` dashboard refreshes, each driven entirely by framed
/// TCP fetches plus recorder history for the sparklines.
fn render_frames(
    addr: std::net::SocketAddr,
    recorder: &FlightRecorder,
    frames: usize,
    phase: &str,
) {
    for _ in 0..frames {
        std::thread::sleep(TICK);
        let health = telemetry::fetch(addr, "health").unwrap_or_default();
        let rates = telemetry::fetch(addr, "rates").unwrap_or_default();
        if std::io::stdout().is_terminal() {
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "netclus-top · phase {phase} · verdict {}",
            extract_verdict(&health)
        );
        for series in [
            "records_matched",
            "batches_published",
            "queries_answered",
            "visibility_lag_us",
        ] {
            let spark = recorder
                .history(series, Some(10.0))
                .map(|pts| sparkline(&pts))
                .unwrap_or_else(|| "(no data)".to_string());
            let last = recorder.last(series).unwrap_or(0.0);
            println!("  {series:>20} {spark} {last:>12.0}");
        }
        println!("  rates : {}", truncate(&rates, 160));
        println!("  health: {}", truncate(&health, 160));
    }
}

/// Unicode sparkline over a history slice, scaled min→max.
fn sparkline(points: &[(f64, f64)]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if points.is_empty() {
        return "(empty)".to_string();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in points {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-9);
    points
        .iter()
        .rev()
        .take(40)
        .rev()
        .map(|&(_, v)| BARS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

fn extract_verdict(health_line: &str) -> String {
    health_line
        .split("\"verdict\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("?")
        .to_string()
}

fn fetch_verdict(addr: std::net::SocketAddr) -> String {
    extract_verdict(&telemetry::fetch(addr, "health").unwrap_or_default())
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

fn wait_until(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}
