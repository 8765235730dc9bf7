//! Sharded scatter-gather demo: a multi-region corpus is partitioned,
//! indexed per shard, and served through the `ShardRouter` while a writer
//! streams live updates.
//!
//! Demonstrates the full sharding stack:
//!
//! * the region partitioner splitting a 4-core road network;
//! * the per-shard `NetClusIndex` build over a shared GDSP clustering,
//!   with the per-shard speedup potential and trajectory replication
//!   reported (and asserted);
//! * the two-round distributed greedy matching the monolithic answer
//!   within a few percent of exact utility (asserted);
//! * the `ShardRouter` answering concurrent queries against lockstep
//!   per-shard snapshots while trajectory updates land (asserted), riding
//!   its per-shard provider cache and round-1 candidate memo between
//!   epoch advances (non-zero hit rate asserted);
//! * the metrics report with per-shard lanes, cache counters, load/heat
//!   gauges and the hot/cold latency lanes, as single-line JSON;
//! * query-path tracing with tail-sampled slow-query capture and the
//!   framed telemetry endpoint, probed live with a worked slow-query
//!   record printed.
//!
//! Run with: `cargo run --release --example sharded`

use std::sync::{Arc, Barrier};
use std::time::Instant;

use netclus::prelude::*;
use netclus_datagen::{multi_region, ScenarioConfig, WorkloadConfig, WorkloadGenerator};
use netclus_roadnet::RegionPartition;
use netclus_service::{
    telemetry, ShardRouter, ShardRouterConfig, TelemetryServer, TelemetrySource, UpdateOp,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: usize = 4;
const QUERIES: usize = 160;
const UPDATE_BATCHES: usize = 6;

fn main() {
    let scenario = multi_region(
        &ScenarioConfig {
            seed: 0xD15C,
            scale: 0.12,
        },
        SHARDS,
    );
    println!("[data ] {}", scenario.summary());

    let cfg = NetClusConfig {
        tau_min: 400.0,
        tau_max: 3_200.0,
        threads: 1,
        ..Default::default()
    };

    // Monolithic reference.
    let t = Instant::now();
    let mono = NetClusIndex::build(&scenario.net, &scenario.trajectories, &scenario.sites, cfg);
    println!("[mono ] built in {:?}", t.elapsed());

    // Partition + sharded build.
    let partition = RegionPartition::build(&scenario.net, SHARDS);
    let stats = partition.stats(&scenario.net);
    println!(
        "[part ] {SHARDS} shards, nodes {:?}, {} cut edges, imbalance {:.3}",
        stats.node_counts, stats.cut_edges, stats.imbalance
    );
    let t = Instant::now();
    let sharded = ShardedNetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        &partition,
        cfg,
    );
    let repl = sharded.replication().clone();
    let work: f64 = sharded
        .shards()
        .iter()
        .map(|s| s.build_time.as_secs_f64())
        .sum();
    let max_shard = sharded
        .shards()
        .iter()
        .map(|s| s.build_time.as_secs_f64())
        .fold(0.0f64, f64::max);
    let potential = work / max_shard.max(f64::MIN_POSITIVE);
    println!(
        "[shard] built in {:?}: clustering {:?}, enrichment work {:.1} ms, \
         critical path {:.1} ms → speedup potential {potential:.2}x",
        t.elapsed(),
        sharded.clustering_time(),
        work * 1e3,
        max_shard * 1e3,
    );
    println!(
        "[repl ] {} trajectories, {} boundary, factor {:.3}",
        repl.trajectories,
        repl.boundary,
        repl.replication_factor()
    );
    assert!(
        potential > SHARDS as f64 * 0.5,
        "per-shard work did not spread: potential {potential:.2} over {SHARDS} shards"
    );
    assert!(repl.boundary > 0, "corridor traffic must cross shards");

    // Two-round quality vs the monolithic answer (exact utilities).
    for (k, tau) in [(4usize, 800.0), (8, 1_600.0)] {
        let q = TopsQuery::binary(k, tau);
        let mono_ans = mono.query(&scenario.trajectories, &q);
        let shard_ans = sharded.query(&q);
        let exact = |sites: &[netclus_roadnet::NodeId]| {
            evaluate_sites(
                &scenario.net,
                &scenario.trajectories,
                sites,
                tau,
                q.preference,
                DetourModel::RoundTrip,
            )
            .utility
        };
        let (mu, su) = (
            exact(&mono_ans.solution.sites),
            exact(&shard_ans.solution.sites),
        );
        let ratio = su / mu.max(f64::MIN_POSITIVE);
        println!(
            "[tops ] k={k} τ={tau}: monolithic U={mu:.1}, sharded U={su:.1} \
             (ratio {ratio:.3}, {} candidates)",
            shard_ans.candidates
        );
        assert!(
            ratio >= 0.9,
            "two-round answer lost too much utility: {ratio:.3}"
        );
    }

    // Serve through the router with live updates.
    let net = Arc::new(scenario.net.clone());
    let router = Arc::new(
        ShardRouter::start(Arc::clone(&net), sharded, ShardRouterConfig::default())
            .expect("start router"),
    );
    // Telemetry endpoint, live for the whole serving phase.
    let mut telemetry_server = TelemetryServer::start(
        "127.0.0.1:0",
        TelemetrySource::new(
            {
                let r = Arc::clone(&router);
                move || r.metrics_report().to_json_line()
            },
            {
                let r = Arc::clone(&router);
                move || r.tracer().stats_json_line()
            },
            {
                let r = Arc::clone(&router);
                move || r.tracer().slow_log_jsonl()
            },
        ),
    )
    .expect("bind telemetry endpoint");
    let telemetry_addr = telemetry_server.addr();
    println!("[serve] telemetry endpoint on {telemetry_addr}");

    let mut gen = WorkloadGenerator::new(&scenario.net, &scenario.grid, &scenario.hotspots);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let update_batches: Vec<Vec<UpdateOp>> = (0..UPDATE_BATCHES)
        .map(|_| {
            gen.generate(
                &WorkloadConfig {
                    count: 20,
                    ..Default::default()
                },
                &mut rng,
            )
            .into_iter()
            .map(UpdateOp::AddTrajectory)
            .collect()
        })
        .collect();

    // The writer's first publish waits for each reader's first answer, so
    // the round-1 caches hold something for an epoch advance to purge
    // however the threads are scheduled.
    let first_answers = Barrier::new(3);
    let t = Instant::now();
    std::thread::scope(|scope| {
        let writer_router = Arc::clone(&router);
        let first_answers = &first_answers;
        scope.spawn(move || {
            first_answers.wait();
            for batch in update_batches {
                let receipt = writer_router.apply_updates(batch);
                assert_eq!(receipt.rejected, 0, "update rejected");
            }
        });
        for w in 0..2 {
            let reader_router = Arc::clone(&router);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xFA_u64 + w);
                let taus = [800.0, 1_600.0, 2_400.0];
                for i in 0..QUERIES / 2 {
                    let q = TopsQuery::binary(
                        rng.random_range(1..10),
                        taus[rng.random_range(0..taus.len())],
                    );
                    let answer = reader_router.query_blocking(q).expect("query failed");
                    // Gather asserts epoch lockstep internally; the answer
                    // must be well-formed on top of that.
                    assert!(answer.epoch <= UPDATE_BATCHES as u64);
                    assert!(!answer.sites.is_empty());
                    assert_eq!(answer.shard_micros.len(), SHARDS);
                    if i == 0 {
                        first_answers.wait();
                    }
                }
            });
        }
    });
    println!(
        "[serve] {QUERIES} scatter-gather queries + {UPDATE_BATCHES} update batches in {:?}",
        t.elapsed()
    );
    assert_eq!(router.epoch(), UPDATE_BATCHES as u64);

    let report = router.metrics_report();
    let shards = report.shards.clone().expect("shard section");
    for lane in &shards.lanes {
        println!(
            "[lane ] shard {}: {} round-1 tasks, p50 {} µs, p99 {} µs, {} replicated trajs",
            lane.shard,
            lane.queries,
            lane.latency.p50_micros,
            lane.latency.p99_micros,
            lane.replicated_trajs
        );
    }
    assert!(shards.lanes.iter().all(|l| l.queries == QUERIES as u64));
    println!(
        "[cache] providers: {} hits / {} misses / {} coalesced, memo: {} hits / {} misses, \
         hot p50 {} µs ({} fan-outs) vs cold p50 {} µs ({} fan-outs)",
        shards.providers.hits,
        shards.providers.misses,
        shards.providers.coalesced,
        shards.rounds.hits,
        shards.rounds.misses,
        shards.hot.p50_micros,
        shards.hot.count,
        shards.cold.p50_micros,
        shards.cold.count,
    );
    // The concurrent phase repeats (k, τ) shapes between epoch advances:
    // the round-1 caches must have carried real traffic, epoch advances
    // must have purged them, and some fan-outs must have been fully warm.
    assert!(
        shards.providers.hits + shards.rounds.hits > 0,
        "concurrent serving never hit the round-1 caches"
    );
    assert!(
        report.provider_hit_rate() > 0.0,
        "provider-cache hit rate must be non-zero: {:?}",
        shards.providers
    );
    assert!(
        shards.providers.invalidated + shards.rounds.invalidated > 0,
        "epoch advances must purge the round-1 caches"
    );
    assert!(shards.hot.count > 0, "no fan-out rode the warm path");
    // Load/heat gauges: the serving phase drove every shard, so the qps
    // EWMA moved and the heat fractions are live.
    for lane in &shards.lanes {
        assert!(lane.qps_ewma > 0.0, "shard {} qps gauge flat", lane.shard);
        println!(
            "[gauge] shard {}: {:.1} q/s EWMA, cache heat {:.2}, cold fraction {:.2}",
            lane.shard, lane.qps_ewma, lane.cache_heat, lane.cold_fraction
        );
    }
    println!("[json ] {}", report.to_json_line());

    // Probe the endpoint like an operator: metrics, stage breakdown, and
    // the tail-sampled slow-query log with a worked record.
    let stages = telemetry::fetch(telemetry_addr, "stages").expect("telemetry stages");
    assert!(
        stages.contains("\"stage_round1_p50_us\":"),
        "stage doc: {stages}"
    );
    println!("[probe] {stages}");
    let slow = telemetry::fetch(telemetry_addr, "slow").expect("telemetry slow log");
    let retained = slow.lines().count();
    assert!(
        retained > 0,
        "epoch advances made cold fan-outs: some must be retained"
    );
    println!("[probe] slow-query log: {retained} retained traces; worked example:");
    println!("[trace] {}", slow.lines().next().unwrap());
    let worked = router
        .tracer()
        .slow_queries()
        .into_iter()
        .max_by_key(|r| r.total_us)
        .expect("retained trace");
    for span in worked.spans.iter().filter(|s| !s.child) {
        println!(
            "[trace]   {:>10} +{:>6} µs  {:>6} µs",
            span.stage.name(),
            span.start_us,
            span.dur_us
        );
    }
    assert!(
        worked.attributed_fraction() >= 0.95,
        "stage attribution of the slowest trace: {:.3}",
        worked.attributed_fraction()
    );
    telemetry_server.shutdown();
    router.shutdown();
    println!("[done ] sharded scatter-gather serving verified");
}
