//! Flight-recorder + health integration, end to end over the wire: a
//! real service feeds a sampler thread, the telemetry endpoint serves
//! `history`/`rates`/`health` from the recorder over framed TCP, and the
//! health verdict walks healthy → degraded → healthy across an injected
//! freshness stall with the freshness rule named as the firing cause.
//!
//! The stall is injected through the same gauge the ingest pipeline
//! maintains (`visibility_lag_us`): the sampler closure overlays a
//! test-controlled value on the service's real flattened metrics
//! surface, so everything downstream of the gauge — sampler, recorder
//! retention, TCP commands, SLO evaluation — is the production path.
//! (The pipeline end of the gauge is exercised by the `netclus_top`
//! example, which stalls a real `Ingestor`.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
use netclus_service::{
    telemetry, FlightConfig, FlightRecorder, FlightSampler, HealthEvaluator, NetClusService,
    ServiceConfig, ServiceRequest, Severity, SloRule, TelemetryServer, TelemetrySource,
};
use netclus_trajectory::{Trajectory, TrajectorySet};

/// Freshness SLO for the test: fire when ingest→visible lag exceeds 50 ms.
const FRESHNESS_CEILING_US: f64 = 50_000.0;

fn start_service() -> NetClusService {
    let mut b = RoadNetworkBuilder::new();
    let nodes: Vec<_> = (0..8)
        .map(|i| b.add_node(Point::new(i as f64 * 300.0, 0.0)))
        .collect();
    for w in nodes.windows(2) {
        b.add_two_way(w[0], w[1], 300.0).unwrap();
    }
    let net = b.build().unwrap();
    let mut trajs = TrajectorySet::for_network(&net);
    trajs.add(Trajectory::new(nodes[0..5].to_vec()));
    trajs.add(Trajectory::new(nodes[3..8].to_vec()));
    let sites: Vec<NodeId> = net.nodes().collect();
    let index = NetClusIndex::build(
        &net,
        &trajs,
        &sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 2_400.0,
            threads: 1,
            ..Default::default()
        },
    );
    NetClusService::start(net, trajs, index, ServiceConfig::default()).expect("start service")
}

fn wait_for(deadline: Duration, mut check: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn telemetry_serves_recorder_history_rates_and_health_transitions() {
    let service = Arc::new(start_service());
    for _ in 0..4 {
        service
            .query(ServiceRequest::greedy(TopsQuery::binary(2, 800.0)))
            .expect("answer");
    }

    // Full-resolution retention (capacity × tick ≈ 82 s) outlasts every
    // wait below together (3 × 10 s), so the spike stays in the history
    // however slowly the host runs the phases.
    let recorder = Arc::new(FlightRecorder::new(FlightConfig {
        tick: Duration::from_millis(20),
        capacity: 4_096,
        downsample_every: 8,
        coarse_capacity: 64,
    }));
    // The injected fault: the test plays the role of a stalled ingest
    // publisher by raising the visibility-lag gauge the sampler overlays
    // on the real service sample.
    let lag_us = Arc::new(AtomicU64::new(0));
    let mut sampler = {
        let service = Arc::clone(&service);
        let lag_us = Arc::clone(&lag_us);
        FlightSampler::start(Arc::clone(&recorder), move || {
            let mut sample = service.flight_sample();
            sample.push((
                "visibility_lag_us".to_string(),
                lag_us.load(Ordering::Relaxed) as f64,
            ));
            sample
        })
    };

    let health = HealthEvaluator::new()
        .with_rule(SloRule::ceiling(
            "freshness",
            "visibility_lag_us",
            FRESHNESS_CEILING_US,
            Severity::Degrading,
        ))
        .with_rule(SloRule::ceiling(
            "hot_p99",
            "latency_p99_us",
            10_000_000.0,
            Severity::Critical,
        ));
    let source = TelemetrySource::new(
        {
            let s = Arc::clone(&service);
            move || s.metrics_report().to_json_line()
        },
        {
            let s = Arc::clone(&service);
            move || s.tracer().stats_json_line()
        },
        {
            let s = Arc::clone(&service);
            move || s.tracer().slow_log_jsonl()
        },
    )
    .with_flight(Arc::clone(&recorder), health);
    let mut server = TelemetryServer::start("127.0.0.1:0", source).expect("bind telemetry");
    let addr = server.addr();

    // Phase 1 — healthy: the recorder fills with real service series and
    // every recorder command answers over the wire.
    assert!(
        wait_for(Duration::from_secs(10), || recorder.ticks() >= 3),
        "sampler never filled the recorder"
    );
    let health_line = telemetry::fetch(addr, "health").expect("fetch health");
    assert!(
        health_line.contains("\"verdict\":\"healthy\""),
        "expected healthy before the stall: {health_line}"
    );
    assert!(health_line.contains("\"rule_freshness_firing\":0"));
    let history = telemetry::fetch(addr, "history completed").expect("fetch history");
    assert!(
        history.starts_with("{\"series\":\"completed\"") && history.contains("\"points\":[["),
        "real service counters must reach the recorder: {history}"
    );
    // A series name off the socket is data, not JSON: the reply is one
    // object whose `series` string decodes back to what was sent.
    let unknown = telemetry::fetch(addr, "history a\"b\\c").expect("fetch history");
    assert_eq!(unknown, r#"{"error":"unknown series","series":"a\"b\\c"}"#);
    let rates = telemetry::fetch(addr, "rates").expect("fetch rates");
    assert!(
        rates.contains("\"interval_secs\":") && rates.contains("\"completed\":"),
        "rates must cover recorded series: {rates}"
    );

    // Phase 2 — stall: freshness lag jumps over the ceiling. The series
    // visibly rises in retained history and the verdict degrades with the
    // freshness rule as the named cause.
    lag_us.store(500_000, Ordering::Relaxed);
    assert!(
        wait_for(Duration::from_secs(10), || {
            telemetry::fetch(addr, "health").is_ok_and(|h| h.contains("\"verdict\":\"degraded\""))
        }),
        "health never degraded during the stall"
    );
    let health_line = telemetry::fetch(addr, "health").expect("fetch health");
    assert!(
        health_line.contains("\"firing\":[\"freshness\"]"),
        "the freshness rule must be the firing cause: {health_line}"
    );
    assert!(health_line.contains("\"rule_freshness_firing\":1"));
    assert!(health_line.contains("\"rule_hot_p99_firing\":0"));
    let history = telemetry::fetch(addr, "history visibility_lag_us").expect("fetch history");
    assert!(
        history.contains("500000.000"),
        "freshness series must show the stall: {history}"
    );

    // Phase 3 — recovery: the backlog clears, the gauge drops, and the
    // verdict returns to healthy (the ceiling reads the newest value, so
    // recovery is immediate once a fresh tick lands).
    lag_us.store(0, Ordering::Relaxed);
    assert!(
        wait_for(Duration::from_secs(10), || {
            telemetry::fetch(addr, "health").is_ok_and(|h| h.contains("\"verdict\":\"healthy\""))
        }),
        "health never recovered after the stall"
    );
    // Retained history still shows the whole arc: flat, spike, flat.
    let history = telemetry::fetch(addr, "history visibility_lag_us").expect("fetch history");
    assert!(history.contains("500000.000"), "spike must stay retained");
    assert!(
        history.ends_with("0.000]]}"),
        "newest point must be recovered: {history}"
    );

    sampler.shutdown();
    server.shutdown();
    service.shutdown();
}
