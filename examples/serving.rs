//! Serving demo: an open-loop stream of mixed TOPS queries, each answered
//! on its own arrival thread, while a writer publishes trajectory update
//! batches, live.
//!
//! Demonstrates the full `netclus-service` subsystem:
//!
//! * up to 4 solves running at once (`ServiceConfig::workers` solve
//!   permits), with arrivals beyond them waiting or, past the waiting
//!   room, shed;
//! * epoch-based snapshot swaps — updates never block queries, and every
//!   answer is consistent with exactly one published epoch (verified);
//! * the result cache absorbing the repetitive share of the mix;
//! * the metrics report, printed human-readably and as single-line JSON;
//! * the framed telemetry endpoint serving live metrics, per-stage
//!   latency breakdowns and the tail-sampled slow-query log over TCP.
//!
//! Run with: `cargo run --release --example serving`

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{
    beijing_small, generate_query_workload, ArrivalProcess, QueryWorkloadConfig, WorkloadConfig,
    WorkloadGenerator,
};
use netclus_service::{
    telemetry, NetClusService, QueryError, ServiceConfig, ServiceRequest, SubmitError,
    TelemetryServer, TelemetrySource, UpdateOp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: usize = 4;
const UPDATE_BATCHES: usize = 8;
const TRAJS_PER_BATCH: usize = 25;

fn main() {
    // Offline phase: dataset and index.
    let scenario = beijing_small(7);
    println!("[data ] {}", scenario.summary());
    let t = Instant::now();
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
    println!(
        "[index] {} instances in {:?}",
        index.instances().len(),
        t.elapsed()
    );

    // Pre-generate the live inputs (the network moves into the service).
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut gen = WorkloadGenerator::new(&scenario.net, &scenario.grid, &scenario.hotspots);
    let update_batches: Vec<Vec<UpdateOp>> = (0..UPDATE_BATCHES)
        .map(|_| {
            gen.generate(
                &WorkloadConfig {
                    count: TRAJS_PER_BATCH,
                    ..Default::default()
                },
                &mut rng,
            )
            .into_iter()
            .map(UpdateOp::AddTrajectory)
            .collect()
        })
        .collect();
    let queries = generate_query_workload(
        &QueryWorkloadConfig {
            count: 600,
            tau_min: 400.0,
            tau_max: 2_800.0,
            repeat_fraction: 0.5,
            arrival: ArrivalProcess::Open {
                rate_per_sec: 400.0,
            },
            ..Default::default()
        },
        &mut rng,
    );

    // Online phase: start the service and race queries against updates.
    let service = Arc::new(
        NetClusService::start(
            scenario.net,
            scenario.trajectories,
            index,
            ServiceConfig {
                workers: WORKERS,
                ..Default::default()
            },
        )
        .expect("start service"),
    );
    println!("[serve] {WORKERS} solve permits; epoch {}", service.epoch());

    // Live telemetry: a std-only framed TCP endpoint over the same
    // length-prefix/CRC framing as the ingest stream. Probe it while the
    // run is live with the `metrics` / `stages` / `slow` commands.
    let mut telemetry_server = TelemetryServer::start(
        "127.0.0.1:0",
        TelemetrySource::new(
            {
                let service = Arc::clone(&service);
                move || service.metrics_report().to_json_line()
            },
            {
                let service = Arc::clone(&service);
                move || service.tracer().stats_json_line()
            },
            {
                let service = Arc::clone(&service);
                move || service.tracer().slow_log_jsonl()
            },
        ),
    )
    .expect("bind telemetry endpoint");
    let telemetry_addr = telemetry_server.addr();
    println!("[serve] telemetry endpoint on {telemetry_addr}");

    // epoch → (corpus_len, site_count): the ground truth every answer is
    // checked against.
    let history: Arc<Mutex<HashMap<u64, (usize, usize)>>> = Arc::new(Mutex::new(HashMap::new()));
    {
        let snap = service.snapshot();
        history.lock().unwrap().insert(
            snap.epoch(),
            (snap.trajs().len(), snap.index().site_count()),
        );
    }

    let start = Instant::now();
    std::thread::scope(|scope| {
        // Writer: publish an update batch every 150 ms.
        let writer = {
            let service = Arc::clone(&service);
            let history = Arc::clone(&history);
            scope.spawn(move || {
                for (i, batch) in update_batches.into_iter().enumerate() {
                    std::thread::sleep(Duration::from_millis(150));
                    let n = batch.len();
                    let receipt = service.apply_updates(batch);
                    let snap = service.snapshot();
                    history.lock().unwrap().insert(
                        snap.epoch(),
                        (snap.trajs().len(), snap.index().site_count()),
                    );
                    println!(
                        "[write] batch {i}: +{n} trajectories → epoch {} ({} applied)",
                        receipt.epoch, receipt.applied
                    );
                }
            })
        };

        // Open-loop dispatcher: fire each request at its arrival offset,
        // on a thread of its own, so a burst past the waiting room sheds.
        let dispatcher = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let t0 = Instant::now();
                std::thread::scope(|arrivals| {
                    let mut fired = Vec::with_capacity(queries.len());
                    for tq in &queries {
                        if let Some(wait) = tq.at.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let request = ServiceRequest::greedy(tq.query);
                        let service = &service;
                        fired.push(arrivals.spawn(move || service.query(request)));
                    }
                    let mut answers = Vec::new();
                    let mut shed = 0usize;
                    for handle in fired {
                        match handle.join().expect("query thread panicked") {
                            Ok(answer) => answers.push(answer),
                            Err(QueryError::Submit(SubmitError::QueueFull)) => shed += 1,
                            Err(e) => panic!("query failed: {e}"),
                        }
                    }
                    (answers, shed)
                })
            })
        };

        writer.join().expect("writer panicked");
        let (answers, shed) = dispatcher.join().expect("dispatcher panicked");

        // Consistency audit: every answer's (corpus_len, site_count) must
        // match the snapshot actually published under its epoch.
        let history = history.lock().unwrap();
        let mut violations = 0usize;
        let mut epochs = std::collections::BTreeSet::new();
        for a in &answers {
            epochs.insert(a.epoch);
            match history.get(&a.epoch) {
                Some(&(corpus, sites)) if a.corpus_len == corpus && a.site_count == sites => {}
                _ => violations += 1,
            }
        }
        println!(
            "\n[audit] {} answers across epochs {:?}",
            answers.len(),
            epochs
        );
        println!("[audit] consistency violations: {violations}");
        println!("[audit] load-shed queries:      {shed}");
        assert_eq!(violations, 0, "torn snapshot read detected");
        assert!(!answers.is_empty());
    });

    let report = service.metrics_report();
    println!("\n== service metrics after {:?} ==", start.elapsed());
    println!("  completed        {:>8}", report.completed);
    println!("  throughput       {:>8.1} q/s", report.throughput_qps);
    println!("  cache hits       {:>8}", report.cache.hits);
    println!("  cache misses     {:>8}", report.cache.misses);
    println!("  dedup joins      {:>8}", report.dedup_joined);
    println!("  mean batch size  {:>8.2}", report.mean_batch_size());
    println!("  queue high-water {:>8}", report.queue_depth_max);
    println!("  epochs published {:>8}", report.epoch_advances);
    println!(
        "  latency µs       p50 {} / p95 {} / p99 {} / max {}",
        report.latency.p50_micros,
        report.latency.p95_micros,
        report.latency.p99_micros,
        report.latency.max_micros
    );
    assert!(
        report.cache.hits > 0,
        "repetitive mix must produce cache hits"
    );
    println!("\n{}", report.to_json_line());

    // Probe the live endpoint the way an operator's dashboard would: a
    // framed command, a framed JSON document back.
    let live = telemetry::fetch(telemetry_addr, "metrics").expect("telemetry fetch");
    assert!(live.contains("\"completed\":"), "metrics over the wire");
    let stages = telemetry::fetch(telemetry_addr, "stages").expect("telemetry stages");
    assert!(stages.contains("\"stage_cache_probe_count\":"));
    println!("[probe] telemetry stages: {stages}");
    let slow = telemetry::fetch(telemetry_addr, "slow").expect("telemetry slow log");
    println!(
        "[probe] slow-query log: {} retained traces",
        slow.lines().count()
    );
    telemetry_server.shutdown();
    service.shutdown();
}
