//! The bytes of every JSON line the service emits, pinned.
//!
//! Dashboards, the flight recorder (`flatten_json`) and the benchmark read
//! these lines by key, so a change to the writer must not move a byte. For
//! fixed inputs this file holds, as literals, the exact output of every
//! emitter: the metrics and ingest reports, the stage breakdown and the
//! tracer's counters, a slow-query record, the flight recorder's history,
//! rates and dump, a health verdict, a shard server's own lines and a
//! router's breaker states. Every line is also run through a small
//! recursive-descent JSON validator, so an unbalanced brace, a stray comma
//! or a bare `inf` fails here even where no literal covers it.

use std::sync::Arc;
use std::time::Duration;

use netclus::prelude::*;
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetwork, RoadNetworkBuilder};
use netclus_service::trace::SampleTrigger;
use netclus_service::{
    telemetry, CacheStats, FaultReport, FlightConfig, FlightRecorder, HealthEvaluator,
    IngestMetrics, LatencySummary, MetricsReport, ProcessGauges, Severity, ShardLaneReport,
    ShardReport, ShardRouter, ShardRouterConfig, ShardServer, ShardServerConfig, SloRule,
    SlowQueryRecord, SnapshotStore, SpanRecord, Stage, StageStats, TelemetryServer, TraceConfig,
    TraceMeta, Tracer,
};
use netclus_trajectory::{Trajectory, TrajectorySet};

#[path = "support/json.rs"]
mod json;
use json::validate;

/// A latency summary whose every field differs, so a swapped key shows.
fn summary(seed: u64) -> LatencySummary {
    LatencySummary {
        count: 10 * seed,
        mean_micros: 100 * seed + 1,
        p50_micros: 100 * seed + 2,
        p95_micros: 100 * seed + 3,
        p99_micros: 100 * seed + 4,
        max_micros: 100 * seed + 5,
    }
}

fn cache_stats(seed: u64) -> CacheStats {
    CacheStats {
        hits: 10 * seed + 1,
        misses: 10 * seed + 2,
        coalesced: 10 * seed + 3,
        evictions: 10 * seed + 4,
        invalidated: 10 * seed + 5,
        entries: 10 * seed as usize + 6,
    }
}

fn lane(shard: u32, qps_ewma: f64, transport: &'static str) -> ShardLaneReport {
    ShardLaneReport {
        shard,
        queries: 40 + u64::from(shard),
        latency: summary(20 + u64::from(shard)),
        replicated_trajs: 11 + u64::from(shard),
        qps_ewma,
        cache_heat: 0.8125,
        cold_fraction: 0.0625,
        transport,
    }
}

/// A router-shaped report: two lanes (the second one's qps gauge is not
/// finite, which the line writes as `null`) and both process gauges set.
fn metrics_report() -> MetricsReport {
    MetricsReport {
        uptime: Duration::from_millis(2_500),
        workers: 4,
        epoch: 7,
        submitted: 120,
        rejected: 3,
        completed: 117,
        throughput_qps: 46.8,
        cache_served: 40,
        dedup_joined: 2,
        batches: 75,
        batched_requests: 77,
        queue_depth: 1,
        queue_depth_max: 5,
        epoch_advances: 6,
        updates_applied: 48,
        latency: summary(1),
        update_latency: summary(2),
        provider_build: summary(3),
        cache: cache_stats(4),
        providers: cache_stats(5),
        process: ProcessGauges {
            rss_bytes: Some(75_000_000),
            arena_resident_bytes: Some(1_234_567),
        },
        shards: Some(ShardReport {
            lanes: vec![lane(0, 12.5, "in_process"), lane(1, f64::NAN, "remote")],
            merge: summary(6),
            fanout_queries: 90,
            providers: cache_stats(5),
            rounds: cache_stats(7),
            hot: summary(8),
            cold: summary(9),
            trajectories: 18,
            boundary_trajs: 3,
            replicas: 21,
            replica_lag_max: 2,
            fault: FaultReport {
                degraded_answers: 1,
                stale_answers: 2,
                shard_failures: 3,
                shard_timeouts: 4,
                deadline_exceeded: 5,
                breaker_opens: 6,
                breaker_probes: 7,
                breaker_closes: 8,
                breaker_skips: 9,
                breaker_open_shards: 10,
                worker_panics: 11,
                worker_respawns: 12,
                abandoned_gathers: 13,
                unavailable_answers: 14,
                hedged_requests: 15,
                hedge_wins: 16,
                replica_failovers: 17,
                resyncs: 18,
            },
            transport_requests: 19,
            transport_errors: 20,
            transport_reconnects: 21,
            transport_rpc: summary(10),
        }),
    }
}

fn ingest_line() -> String {
    use std::sync::atomic::Ordering::Relaxed;
    let m = IngestMetrics::default();
    m.records_in.fetch_add(10, Relaxed);
    m.records_duplicate.fetch_add(1, Relaxed);
    m.records_dropped.fetch_add(2, Relaxed);
    m.records_malformed.fetch_add(3, Relaxed);
    m.records_matched.fetch_add(8, Relaxed);
    m.match_failed.fetch_add(1, Relaxed);
    m.match_latency.record(Duration::from_micros(300));
    m.batches_published.fetch_add(4, Relaxed);
    m.ops_published.fetch_add(9, Relaxed);
    m.trajs_retired.fetch_add(1, Relaxed);
    m.publish_latency.record(Duration::from_micros(1_500));
    m.wal_frames.fetch_add(4, Relaxed);
    m.wal_bytes.fetch_add(4_099, Relaxed);
    m.wal_syncs.fetch_add(2, Relaxed);
    m.replay_micros.fetch_add(777, Relaxed);
    m.replay_batches.fetch_add(3, Relaxed);
    m.stages.record(Stage::Decode, Duration::from_micros(12));
    m.stages.record(Stage::WalAppend, Duration::from_micros(90));
    m.freshness.record(Duration::from_micros(40_000));
    m.visibility_lag_us.fetch_add(250, Relaxed);
    m.report(Duration::from_secs(3)).to_json_line()
}

fn stage_stats_line() -> String {
    let stats = StageStats::default();
    stats.record(Stage::Merge, Duration::from_micros(200));
    stats.record(Stage::Round1, Duration::from_micros(700));
    stats.record(Stage::Round1, Duration::from_micros(900));
    stats.record(Stage::Decode, Duration::from_micros(40));
    stats.to_json_line()
}

/// Two traces through a one-slot slow log: every count is fixed (the
/// spans carry their own durations), and one record is evicted.
fn tracer_stats_line() -> String {
    let tracer = Tracer::new(TraceConfig {
        slow_threshold_us: 0,
        sample_every: 0,
        slow_log_capacity: 1,
    });
    for dur in [390, 12] {
        let mut spans = tracer.begin();
        spans.child(Stage::Solve, 0, "built", 0, dur);
        spans.child(Stage::Merge, -1, "", dur, 55);
        tracer.finish(&spans, TraceMeta::default());
    }
    tracer.stats_json_line()
}

fn slow_records() -> [SlowQueryRecord; 2] {
    let top = SpanRecord {
        stage: Stage::Round1,
        shard: -1,
        child: false,
        detail: "",
        start_us: 5,
        dur_us: 700,
    };
    let child = SpanRecord {
        stage: Stage::Solve,
        shard: 1,
        child: true,
        detail: "memo",
        start_us: 10,
        dur_us: 390,
    };
    let meta = TraceMeta {
        epoch: 3,
        k: 6,
        tau: 812.5,
        hot: true,
        psi: "convex",
        instance: 2,
    };
    [
        SlowQueryRecord {
            seq: 42,
            meta,
            total_us: 1_234,
            trigger: SampleTrigger::Sampled,
            spans: vec![top, child],
        },
        SlowQueryRecord {
            seq: 43,
            meta: TraceMeta::default(),
            total_us: 9,
            trigger: SampleTrigger::Slow,
            spans: Vec::new(),
        },
    ]
}

/// Seven ticks through a three-tick full ring and a coarse ring that
/// keeps every second tick, so history and the dump span both rings; the
/// `lag` series appears at the third tick.
fn recorder() -> FlightRecorder {
    let rec = FlightRecorder::new(FlightConfig {
        tick: Duration::from_millis(1),
        capacity: 3,
        downsample_every: 2,
        coarse_capacity: 4,
    });
    for i in 0..7u32 {
        let t = f64::from(i);
        let mut sample = vec![("qps".to_string(), 10.0 + 2.25 * t)];
        if i >= 2 {
            sample.push(("lag".to_string(), 1_000.0 / (t + 1.0)));
        }
        rec.record_at(t * 0.5, &sample);
    }
    rec
}

fn health_line() -> String {
    let rec = FlightRecorder::new(FlightConfig::default());
    let sample = [("a".to_string(), 10.5), ("b".to_string(), 2.0)];
    rec.record_at(0.0, &sample);
    let eval = HealthEvaluator::new()
        .with_rule(SloRule::ceiling("fire", "a", 1.0, Severity::Critical))
        .with_rule(SloRule::ceiling("quiet", "b", 5.0, Severity::Degrading))
        .with_rule(SloRule::burn_rate(
            "burn",
            "err",
            "total",
            0.01,
            5.0,
            60.0,
            2.0,
            Severity::Critical,
        ));
    eval.evaluate(&rec).to_json_line()
}

/// Two 6-node corridors far apart, each its own region.
fn world() -> (RoadNetwork, TrajectorySet, Vec<NodeId>) {
    let mut b = RoadNetworkBuilder::new();
    for r in 0..2u32 {
        for i in 0..6u32 {
            b.add_node(Point::new(f64::from(r) * 1.0e6 + f64::from(i) * 300.0, 0.0));
        }
        for i in 0..5 {
            b.add_two_way(NodeId(r * 6 + i), NodeId(r * 6 + i + 1), 300.0)
                .unwrap();
        }
    }
    let net = b.build().unwrap();
    let mut trajs = TrajectorySet::for_network(&net);
    for r in 0..2u32 {
        trajs.add(Trajectory::new((r * 6..r * 6 + 4).map(NodeId).collect()));
        trajs.add(Trajectory::new(
            (r * 6 + 2..r * 6 + 6).map(NodeId).collect(),
        ));
    }
    let sites = net.nodes().collect();
    (net, trajs, sites)
}

fn netclus_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 600.0,
        tau_max: 2_400.0,
        threads: 1,
        ..Default::default()
    }
}

/// A fresh shard server's `metrics_json`, and its `stages` line as the
/// telemetry endpoint serves it.
fn shard_server_lines() -> (String, String) {
    let (net, trajs, sites) = world();
    let index = NetClusIndex::build(&net, &trajs, &sites, netclus_config());
    let store = SnapshotStore::new(net, trajs, index);
    let mut server = ShardServer::start("127.0.0.1:0", 0, store, ShardServerConfig::default())
        .expect("start shard server");
    let metrics = server.metrics_json();
    let mut endpoint =
        TelemetryServer::start("127.0.0.1:0", server.telemetry_source()).expect("start telemetry");
    let stages = telemetry::fetch(endpoint.addr(), "stages").expect("fetch stages");
    endpoint.shutdown();
    server.shutdown();
    (metrics, stages)
}

fn breakers_line() -> String {
    let (net, trajs, sites) = world();
    let partition = RegionPartition::from_assignment((0..12).map(|i| i / 6).collect(), 2);
    let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, netclus_config());
    let router = ShardRouter::start(Arc::new(net), sharded, ShardRouterConfig::default())
        .expect("start router");
    router.breakers_json()
}

/// Every emitter's output for the inputs above, in `PINNED` order.
fn emitted() -> Vec<(&'static str, String)> {
    let report = metrics_report();
    let bare = MetricsReport {
        shards: None,
        process: ProcessGauges::default(),
        ..metrics_report()
    };
    let [sampled, slow] = slow_records();
    let rec = recorder();
    let (shard_metrics, shard_stages) = shard_server_lines();
    vec![
        ("metrics_report", report.to_json_line()),
        ("metrics_report_bare", bare.to_json_line()),
        ("ingest_report", ingest_line()),
        ("stage_stats", stage_stats_line()),
        ("tracer_stats", tracer_stats_line()),
        ("slow_record", sampled.to_json_line()),
        ("slow_record_no_spans", slow.to_json_line()),
        ("history", rec.history_json("qps", None)),
        ("history_window", rec.history_json("lag", Some(0.75))),
        // Before `jsonl` this window was written as a bare `inf`, not JSON.
        (
            "history_inf_window",
            rec.history_json("lag", Some(f64::INFINITY)),
        ),
        ("history_unknown", rec.history_json("no\"pe\\", None)),
        ("rates", rec.rates_json()),
        ("rates_one_tick", {
            let one = FlightRecorder::new(FlightConfig::default());
            one.record_at(0.0, &[("x".to_string(), 1.0)]);
            one.rates_json()
        }),
        ("dump", rec.dump_jsonl()),
        ("health", health_line()),
        ("shard_server_metrics", shard_metrics),
        ("shard_server_stages", shard_stages),
        ("breakers", breakers_line()),
    ]
}

/// The output of `emitted()`, as written before the emitters shared one
/// writer. `history_inf_window` is the one entry changed by hand: that
/// code wrote a non-finite window as `inf`; it is `null` now.
const PINNED: &[(&str, &str)] = &[
    (
        "metrics_report",
        r#"{"uptime_secs":2.500,"workers":4,"epoch":7,"submitted":120,"rejected":3,"completed":117,"throughput_qps":46.800,"cache_served":40,"dedup_joined":2,"batches":75,"mean_batch_size":1.027,"queue_depth":1,"queue_depth_max":5,"epoch_advances":6,"updates_applied":48,"latency_mean_us":101,"latency_p50_us":102,"latency_p95_us":103,"latency_p99_us":104,"latency_max_us":105,"update_mean_us":201,"update_p50_us":202,"update_p99_us":204,"update_max_us":205,"provider_build_mean_us":301,"provider_build_p50_us":302,"provider_build_p99_us":304,"provider_hits":51,"provider_misses":52,"provider_coalesced":53,"provider_evictions":54,"provider_invalidated":55,"provider_entries":56,"provider_hit_rate":0.495,"cache_hits":41,"cache_misses":42,"cache_evictions":44,"cache_invalidated":45,"cache_entries":46,"rss_bytes":75000000,"arena_resident_bytes":1234567,"shards":2,"fanout_queries":90,"merge_mean_us":601,"merge_p99_us":604,"round_hits":71,"round_misses":72,"round_evictions":74,"round_invalidated":75,"round_entries":76,"round_hit_rate":0.497,"router_hot_queries":80,"router_hot_p50_us":802,"router_hot_p99_us":804,"router_cold_queries":90,"router_cold_p50_us":902,"router_cold_p99_us":904,"shard_trajectories":18,"boundary_trajs":3,"shard_replicas":21,"replication_factor":1.167,"replica_lag_max":2,"degraded_answers":1,"stale_answers":2,"shard_failures":3,"shard_timeouts":4,"deadline_exceeded":5,"breaker_opens":6,"breaker_probes":7,"breaker_closes":8,"breaker_skips":9,"breaker_open_shards":10,"worker_panics":11,"worker_respawns":12,"abandoned_gathers":13,"unavailable_answers":14,"hedged_requests":15,"hedge_wins":16,"replica_failovers":17,"resyncs":18,"transport_requests":19,"transport_errors":20,"transport_reconnects":21,"transport_rpc_p50_us":1002,"transport_rpc_p99_us":1004,"shard0_queries":40,"shard0_p50_us":2002,"shard0_p99_us":2004,"shard0_replicated_trajs":11,"shard0_qps_ewma":12.500,"shard0_cache_heat":0.812,"shard0_cold_fraction":0.062,"shard0_transport":"in_process","shard1_queries":41,"shard1_p50_us":2102,"shard1_p99_us":2104,"shard1_replicated_trajs":12,"shard1_qps_ewma":null,"shard1_cache_heat":0.812,"shard1_cold_fraction":0.062,"shard1_transport":"remote"}"#,
    ),
    (
        "metrics_report_bare",
        r#"{"uptime_secs":2.500,"workers":4,"epoch":7,"submitted":120,"rejected":3,"completed":117,"throughput_qps":46.800,"cache_served":40,"dedup_joined":2,"batches":75,"mean_batch_size":1.027,"queue_depth":1,"queue_depth_max":5,"epoch_advances":6,"updates_applied":48,"latency_mean_us":101,"latency_p50_us":102,"latency_p95_us":103,"latency_p99_us":104,"latency_max_us":105,"update_mean_us":201,"update_p50_us":202,"update_p99_us":204,"update_max_us":205,"provider_build_mean_us":301,"provider_build_p50_us":302,"provider_build_p99_us":304,"provider_hits":51,"provider_misses":52,"provider_coalesced":53,"provider_evictions":54,"provider_invalidated":55,"provider_entries":56,"provider_hit_rate":0.495,"cache_hits":41,"cache_misses":42,"cache_evictions":44,"cache_invalidated":45,"cache_entries":46}"#,
    ),
    (
        "ingest_report",
        r#"{"uptime_secs":3.000,"records_in":10,"records_duplicate":1,"records_dropped":2,"records_malformed":3,"records_matched":8,"match_failed":1,"records_per_sec":2.667,"match_mean_us":300,"match_p50_us":300,"match_p99_us":300,"batches_published":4,"ops_published":9,"trajs_retired":1,"publish_mean_us":1500,"publish_p99_us":1500,"wal_frames":4,"wal_bytes":4099,"wal_bytes_per_sec":1366.333,"wal_syncs":2,"replay_micros":777,"replay_batches":3,"decode_p50_us":12,"decode_p99_us":12,"wal_append_p50_us":90,"wal_append_p99_us":90,"freshness_mean_us":40000,"freshness_p50_us":40000,"freshness_p99_us":40000,"freshness_max_us":40000,"visibility_lag_us":250}"#,
    ),
    (
        "stage_stats",
        r#"{"stage_admission_count":0,"stage_admission_mean_us":0,"stage_admission_p50_us":0,"stage_admission_p99_us":0,"stage_cache_probe_count":0,"stage_cache_probe_mean_us":0,"stage_cache_probe_p50_us":0,"stage_cache_probe_p99_us":0,"stage_provider_get_count":0,"stage_provider_get_mean_us":0,"stage_provider_get_p50_us":0,"stage_provider_get_p99_us":0,"stage_round1_count":2,"stage_round1_mean_us":800,"stage_round1_p50_us":706,"stage_round1_p99_us":900,"stage_solve_count":0,"stage_solve_mean_us":0,"stage_solve_p50_us":0,"stage_solve_p99_us":0,"stage_merge_count":1,"stage_merge_mean_us":200,"stage_merge_p50_us":200,"stage_merge_p99_us":200,"stage_reply_count":0,"stage_reply_mean_us":0,"stage_reply_p50_us":0,"stage_reply_p99_us":0,"stage_decode_count":1,"stage_decode_mean_us":40,"stage_decode_p50_us":40,"stage_decode_p99_us":40,"stage_match_count":0,"stage_match_mean_us":0,"stage_match_p50_us":0,"stage_match_p99_us":0,"stage_wal_append_count":0,"stage_wal_append_mean_us":0,"stage_wal_append_p50_us":0,"stage_wal_append_p99_us":0,"stage_publish_count":0,"stage_publish_mean_us":0,"stage_publish_p50_us":0,"stage_publish_p99_us":0}"#,
    ),
    (
        "tracer_stats",
        r#"{"stage_admission_count":0,"stage_admission_mean_us":0,"stage_admission_p50_us":0,"stage_admission_p99_us":0,"stage_cache_probe_count":0,"stage_cache_probe_mean_us":0,"stage_cache_probe_p50_us":0,"stage_cache_probe_p99_us":0,"stage_provider_get_count":0,"stage_provider_get_mean_us":0,"stage_provider_get_p50_us":0,"stage_provider_get_p99_us":0,"stage_round1_count":0,"stage_round1_mean_us":0,"stage_round1_p50_us":0,"stage_round1_p99_us":0,"stage_solve_count":2,"stage_solve_mean_us":201,"stage_solve_p50_us":15,"stage_solve_p99_us":390,"stage_merge_count":2,"stage_merge_mean_us":55,"stage_merge_p50_us":44,"stage_merge_p99_us":55,"stage_reply_count":0,"stage_reply_mean_us":0,"stage_reply_p50_us":0,"stage_reply_p99_us":0,"stage_decode_count":0,"stage_decode_mean_us":0,"stage_decode_p50_us":0,"stage_decode_p99_us":0,"stage_match_count":0,"stage_match_mean_us":0,"stage_match_p50_us":0,"stage_match_p99_us":0,"stage_wal_append_count":0,"stage_wal_append_mean_us":0,"stage_wal_append_p50_us":0,"stage_wal_append_p99_us":0,"stage_publish_count":0,"stage_publish_mean_us":0,"stage_publish_p50_us":0,"stage_publish_p99_us":0,"traces":2,"slow_retained":2,"sample_retained":0,"evicted":1}"#,
    ),
    (
        "slow_record",
        r#"{"seq":42,"epoch":3,"k":6,"tau":812.500,"psi":"convex","instance":2,"hot":true,"total_us":1234,"trigger":"sample","attributed_us":700,"spans":[{"stage":"round1","shard":-1,"child":false,"detail":"","start_us":5,"dur_us":700},{"stage":"solve","shard":1,"child":true,"detail":"memo","start_us":10,"dur_us":390}]}"#,
    ),
    (
        "slow_record_no_spans",
        r#"{"seq":43,"epoch":0,"k":0,"tau":0.000,"psi":"","instance":0,"hot":false,"total_us":9,"trigger":"slow","attributed_us":0,"spans":[]}"#,
    ),
    (
        "history",
        r#"{"series":"qps","window_secs":null,"points":[[0.500,12.250],[1.500,16.750],[2.000,19.000],[2.500,21.250],[3.000,23.500]]}"#,
    ),
    (
        "history_window",
        r#"{"series":"lag","window_secs":0.750,"points":[[2.500,166.667],[3.000,142.857]]}"#,
    ),
    (
        "history_inf_window",
        r#"{"series":"lag","window_secs":null,"points":[[1.500,250.000],[2.000,200.000],[2.500,166.667],[3.000,142.857]]}"#,
    ),
    (
        "history_unknown",
        r#"{"error":"unknown series","series":"no\"pe\\"}"#,
    ),
    (
        "rates",
        r#"{"interval_secs":0.500,"qps":4.500,"lag":0.000}"#,
    ),
    ("rates_one_tick", r#"{"error":"need at least two ticks"}"#),
    (
        "dump",
        concat!(
            r#"{"at_secs":0.500,"qps":12.250}"#,
            "\n",
            r#"{"at_secs":1.500,"qps":16.750,"lag":250.000}"#,
            "\n",
            r#"{"at_secs":2.000,"qps":19.000,"lag":200.000}"#,
            "\n",
            r#"{"at_secs":2.500,"qps":21.250,"lag":166.667}"#,
            "\n",
            r#"{"at_secs":3.000,"qps":23.500,"lag":142.857}"#,
            "\n",
        ),
    ),
    (
        "health",
        r#"{"verdict":"unhealthy","firing":["fire"],"rule_fire_firing":1,"rule_fire_value":10.500,"rule_fire_limit":1.000,"rule_fire_detail":"a=10.5 limit=1.0","rule_quiet_firing":0,"rule_quiet_value":2.000,"rule_quiet_limit":5.000,"rule_quiet_detail":"b=2.0 limit=5.0","rule_burn_firing":0,"rule_burn_limit":2.000,"rule_burn_detail":"err/total: no data"}"#,
    ),
    (
        "shard_server_metrics",
        r#"{"shard":0,"epoch":0,"live_trajs":4,"traj_id_bound":4,"requests":0,"round1_served":0,"apply_batches":0,"bad_requests":0,"injected_faults":0,"resyncs_served":0,"round1_p50_us":0,"round1_p99_us":0,"provider_build_p99_us":0,"provider_hits":0,"provider_misses":0,"round_hits":0,"round_misses":0,"qps_ewma":0.000,"cache_heat":0.000,"cold_fraction":0.000}"#,
    ),
    (
        "shard_server_stages",
        r#"{"stage_round1_p50_us":0,"stage_round1_p99_us":0,"stage_provider_build_p50_us":0,"stage_provider_build_p99_us":0}"#,
    ),
    (
        "breakers",
        r#"{"shards":2,"open":0,"breaker0_state":"closed","breaker0_consecutive_failures":0,"breaker0_opens":0,"breaker0_probes":0,"breaker0_closes":0,"breaker1_state":"closed","breaker1_consecutive_failures":0,"breaker1_opens":0,"breaker1_probes":0,"breaker1_closes":0}"#,
    ),
];

#[test]
fn every_emitter_writes_the_pinned_bytes() {
    let emitted = emitted();
    let names: Vec<&str> = emitted.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned);
    for ((name, got), (_, want)) in emitted.iter().zip(PINNED) {
        assert_eq!(got, want, "{name} moved");
    }
}

#[test]
fn every_emitted_line_is_one_valid_json_object() {
    for (name, text) in emitted() {
        // The multi-line emitters end every line, the last one included.
        let lines: Vec<&str> = if name == "dump" {
            assert!(text.ends_with('\n'), "{name}: unterminated last line");
            text.lines().collect()
        } else {
            assert!(!text.contains('\n'), "{name}: more than one line");
            vec![&text]
        };
        for line in lines {
            if let Err(e) = validate(line) {
                panic!("{name}: {e} in {line}");
            }
        }
    }
}

#[test]
fn the_validator_rejects_what_json_does_not_allow() {
    let bad = [
        "",
        "{",
        "{\"a\":1,}",
        "{\"a\":1}}",
        "{\"a\":inf}",
        "{\"a\":NaN}",
        "{\"a\":01}",
        "{\"a\":1.}",
        "{\"a\":\"\u{1}\"}",
        "{\"a\":\"\\x\"}",
        "{a:1}",
        "{\"a\":1,\"a\":2}",
        "[1,2]",
        "{\"a\":[1,]}",
    ];
    for line in bad {
        assert!(validate(line).is_err(), "accepted {line:?}");
    }
    let good = r#"{"a":-1.5e3,"b":[[0.000,1.000],[]],"c":{"d":null},"e":"\"\\\u0001","f":true}"#;
    assert_eq!(validate(good), Ok(()));
}
