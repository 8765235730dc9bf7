//! Observability contracts, end to end: every counter a router run
//! increments must surface in the metrics JSON (a full destructure makes
//! adding a `ShardReport` field without serializing it a compile error),
//! the query-path tracer must attribute traced wall time to named stages,
//! and the framed telemetry endpoint must serve all three documents over
//! a real socket.

use std::sync::Arc;

use netclus::prelude::*;
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetworkBuilder};
use netclus_service::{
    telemetry, NetClusService, ServiceConfig, ServiceRequest, ShardReport, ShardRouter,
    ShardRouterConfig, Stage, TelemetryServer, TelemetrySource, TraceConfig, UpdateOp,
};
use netclus_trajectory::{Trajectory, TrajectorySet};

const REGIONS: usize = 2;
const N: usize = 10;

/// Two disconnected 10-node corridors 1000 km apart, so region-confined
/// walks respect the region-aligned partition.
fn build_world() -> (netclus_roadnet::RoadNetwork, TrajectorySet, Vec<NodeId>) {
    let mut b = RoadNetworkBuilder::new();
    for r in 0..REGIONS {
        let base = (r * N) as u32;
        for i in 0..N {
            b.add_node(Point::new(r as f64 * 1.0e6 + i as f64 * 90.0, 0.0));
        }
        for i in 0..N as u32 - 1 {
            b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 90.0)
                .unwrap();
        }
    }
    let net = b.build().unwrap();
    let mut trajs = TrajectorySet::for_network(&net);
    for r in 0..REGIONS {
        let base = (r * N) as u32;
        for (start, len) in [(0u32, 5u32), (2, 6), (1, 4), (3, 5)] {
            let end = (start + len).min(N as u32 - 1);
            trajs.add(Trajectory::new(
                (base + start..=base + end).map(NodeId).collect(),
            ));
        }
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    (net, trajs, sites)
}

fn netclus_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 200.0,
        tau_max: 2_400.0,
        threads: 1,
        ..Default::default()
    }
}

/// A started router plus a dashboard-shaped run that touches every lane:
/// cold first-touches, memo prefix hits, provider-cache hits (k above the
/// memoized run) and an epoch advance.
fn run_router(trace: TraceConfig) -> ShardRouter {
    let (net, trajs, sites) = build_world();
    let assignment: Vec<u32> = (0..REGIONS * N).map(|i| (i / N) as u32).collect();
    let partition = RegionPartition::from_assignment(assignment, REGIONS);
    let cfg = netclus_config();
    let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg);
    let router = ShardRouter::start(
        Arc::new(net),
        sharded,
        ShardRouterConfig {
            trace,
            ..Default::default()
        },
    )
    .expect("start router");
    for round in 0..2 {
        if round > 0 {
            router.apply_updates(vec![UpdateOp::AddTrajectory(Trajectory::new(vec![
                NodeId(0),
                NodeId(1),
            ]))]);
        }
        for &tau in &[600.0, 900.0] {
            for k in [4usize, 2, 1, 6, 3] {
                router
                    .query_blocking(TopsQuery::binary(k, tau))
                    .expect("router answered");
            }
        }
    }
    router
}

/// Satellite contract: every `ShardReport` counter the run incremented
/// appears in the JSON line with its non-default value. The destructure
/// has no `..`, so growing the struct without serializing the new field
/// fails this test at compile time.
#[test]
fn every_incremented_shard_counter_serializes() {
    let router = run_router(TraceConfig::default());
    let report = router.metrics_report();
    let json = report.to_json_line();
    router.shutdown();

    let ShardReport {
        lanes,
        merge,
        fanout_queries,
        providers,
        rounds,
        hot,
        cold,
        trajectories,
        boundary_trajs,
        replicas,
        replica_lag_max,
        fault,
        transport_requests,
        transport_errors,
        transport_reconnects,
        transport_rpc,
    } = report.shards.expect("router report has a shard section");

    let has = |key: &str, v: String| {
        let needle = format!("\"{key}\":{v}");
        assert!(json.contains(&needle), "{needle} not in {json}");
    };

    assert!(fanout_queries > 0, "run fanned out queries");
    has("fanout_queries", fanout_queries.to_string());
    assert!(merge.count > 0, "merges happened");
    has("merge_mean_us", merge.mean_micros.to_string());
    has("merge_p99_us", merge.p99_micros.to_string());
    assert!(rounds.hits > 0, "memo prefix hits happened (k descended)");
    has("round_hits", rounds.hits.to_string());
    has("round_misses", rounds.misses.to_string());
    has("round_evictions", rounds.evictions.to_string());
    has("round_invalidated", rounds.invalidated.to_string());
    has("round_entries", rounds.entries.to_string());
    assert!(providers.hits > 0, "provider-cache hits happened (k rose)");
    assert!(providers.misses > 0, "cold first-touches missed");
    has("provider_hits", providers.hits.to_string());
    has("provider_misses", providers.misses.to_string());
    has("provider_coalesced", providers.coalesced.to_string());
    assert!(hot.count > 0, "hot fan-outs recorded");
    assert!(cold.count > 0, "cold fan-outs recorded");
    has("router_hot_queries", hot.count.to_string());
    has("router_hot_p50_us", hot.p50_micros.to_string());
    has("router_cold_queries", cold.count.to_string());
    has("router_cold_p50_us", cold.p50_micros.to_string());
    assert!(trajectories > 0 && replicas > 0);
    has("shard_trajectories", trajectories.to_string());
    has("boundary_trajs", boundary_trajs.to_string());
    has("shard_replicas", replicas.to_string());
    // Lockstep applies keep every replica current: the lag gauge is
    // present and zero on a healthy run.
    assert_eq!(replica_lag_max, 0, "lockstep replicas never lag");
    has("replica_lag_max", replica_lag_max.to_string());
    // A fault-free run serializes an all-zero fault section — the keys
    // must be present (flight series exist from tick one) and zero.
    has("degraded_answers", fault.degraded_answers.to_string());
    has("breaker_opens", fault.breaker_opens.to_string());
    has("worker_panics", fault.worker_panics.to_string());
    has("abandoned_gathers", fault.abandoned_gathers.to_string());
    assert_eq!(fault, netclus_service::FaultReport::default());
    // An all-in-process router issues no transport RPCs, but the keys
    // (and the per-lane transport tag) must still serialize.
    assert_eq!((transport_requests, transport_errors), (0, 0));
    has("transport_requests", transport_requests.to_string());
    has("transport_errors", transport_errors.to_string());
    has("transport_reconnects", transport_reconnects.to_string());
    has("transport_rpc_p50_us", transport_rpc.p50_micros.to_string());

    assert_eq!(lanes.len(), REGIONS, "one lane per shard");
    // The lanes' corpus views add up to the shard-local copies.
    let lane_trajs: u64 = lanes.iter().map(|l| l.replicated_trajs).sum();
    assert_eq!(lane_trajs, replicas);
    for lane in &lanes {
        assert!(lane.queries > 0, "shard {} executed tasks", lane.shard);
        has(
            &format!("shard{}_queries", lane.shard),
            lane.queries.to_string(),
        );
        has(
            &format!("shard{}_p50_us", lane.shard),
            lane.latency.p50_micros.to_string(),
        );
        has(
            &format!("shard{}_replicated_trajs", lane.shard),
            lane.replicated_trajs.to_string(),
        );
        // A fault-free run times every task it pops.
        assert_eq!(lane.latency.count, lane.queries);
        // Load gauges: ≥ 2 tasks per shard ran, so the qps EWMA moved off
        // zero; every shard built rows for its first task and answered
        // later ones from a cache, so both heat gauges sit strictly
        // inside (0, 1).
        assert!(lane.qps_ewma > 0.0, "shard {} qps gauge", lane.shard);
        assert!(lane.cache_heat > 0.0 && lane.cache_heat < 1.0);
        assert!(lane.cold_fraction > 0.0 && lane.cold_fraction < 1.0);
        for gauge in ["qps_ewma", "cache_heat", "cold_fraction"] {
            let key = format!("\"shard{}_{gauge}\":", lane.shard);
            assert!(json.contains(&key), "{key} missing from {json}");
        }
        assert_eq!(lane.transport, "in_process");
        has(
            &format!("shard{}_transport", lane.shard),
            format!("\"{}\"", lane.transport),
        );
    }

    // Process gauges ride along on router reports too.
    assert!(
        report.process.arena_resident_bytes.unwrap_or(0) > 0,
        "arena gauge"
    );
    assert!(json.contains("\"arena_resident_bytes\":"));
    assert!(json.contains("\"rss_bytes\":"));
}

/// With the slow threshold at zero every query is tail-retained; each
/// trace must cover the query's wall time with named contiguous stages.
#[test]
fn tracer_attributes_wall_time_to_stages() {
    let router = run_router(TraceConfig {
        slow_threshold_us: 0,
        ..TraceConfig::default()
    });
    let tracer = router.tracer();
    assert_eq!(tracer.traces(), 20, "every query fed the tracer");
    let (slow, _sampled, _evicted) = tracer.retention();
    assert_eq!(slow, 20, "threshold 0 retains everything as slow");

    for st in [Stage::Admission, Stage::Round1, Stage::Merge, Stage::Reply] {
        assert_eq!(
            tracer.stages().summary(st).count,
            20,
            "stage {} histogram fed once per query",
            st.name()
        );
    }
    // Per-shard round-1 solves appear as child spans under Solve.
    assert!(tracer.stages().summary(Stage::Solve).count > 0);

    let records = tracer.slow_queries();
    assert_eq!(records.len(), 20);
    let mut saw_cold = false;
    for r in &records {
        saw_cold |= !r.meta.hot;
        // Stages are contiguous, so the only unattributed time is µs
        // truncation (≤ 1 µs per top-level span) plus the finish-call
        // epilogue — a hair on real traces, a visible slice of a 15 µs
        // one. Allow that fixed slack on top of the 95% contract.
        let slack_us = 1 + r.spans.iter().filter(|s| !s.child).count() as u64;
        assert!(
            r.attributed_us() + slack_us >= r.total_us - r.total_us / 20,
            "trace seq {} attributes only {} of {} µs",
            r.seq,
            r.attributed_us(),
            r.total_us
        );
        let line = r.to_json_line();
        for key in [
            "\"seq\":",
            "\"total_us\":",
            "\"spans\":[",
            "\"trigger\":",
            "\"psi\":\"binary\"",
            "\"instance\":",
        ] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
    }
    assert!(saw_cold, "first touches were traced as cold fan-outs");

    let stats = tracer.stats_json_line();
    for key in [
        "\"stage_admission_count\":",
        "\"stage_round1_p50_us\":",
        "\"stage_merge_p99_us\":",
        "\"slow_retained\":20",
    ] {
        assert!(stats.contains(key), "{key} missing from {stats}");
    }
    router.shutdown();
}

/// The executor's tracer covers the single-index query lifecycle.
#[test]
fn executor_tracer_covers_the_query_lifecycle() {
    let (net, trajs, sites) = build_world();
    let index = NetClusIndex::build(&net, &trajs, &sites, netclus_config());
    let service = NetClusService::start(
        net,
        trajs,
        index,
        ServiceConfig {
            workers: 2,
            trace: TraceConfig {
                slow_threshold_us: 0,
                ..TraceConfig::default()
            },
            ..Default::default()
        },
    )
    .expect("start service");
    // A mixed-ψ run: each trace must say which ψ it solved and on which
    // ladder instance, the two things a solve's cost depends on most.
    let mix = [
        ("binary", PreferenceFunction::Binary),
        ("linear", PreferenceFunction::LinearDecay),
        (
            "convex",
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ),
    ];
    let mut asked = Vec::new();
    for &tau in &[600.0, 900.0] {
        for (k, (psi, preference)) in [3usize, 5, 3].into_iter().zip(mix) {
            let answer = service
                .query_blocking(ServiceRequest::greedy(TopsQuery { k, tau, preference }))
                .expect("service answered");
            asked.push((psi, answer.instance, k, tau));
        }
    }
    let tracer = service.tracer();
    let records = tracer.slow_queries();
    assert_eq!(records.len(), asked.len(), "every query was retained");
    for (psi, instance, k, tau) in asked {
        let record = records
            .iter()
            .find(|r| (r.meta.psi, r.meta.k, r.meta.tau) == (psi, k, tau))
            .unwrap_or_else(|| panic!("no trace for {psi} k={k} τ={tau}"));
        assert_eq!(record.meta.instance, instance);
        let keys = format!("\"psi\":\"{psi}\",\"instance\":{instance},");
        let line = record.to_json_line();
        assert!(line.contains(&keys), "{keys} missing from {line}");
    }
    assert!(tracer.stages().summary(Stage::Admission).count > 0);
    assert!(tracer.stages().summary(Stage::CacheProbe).count > 0);
    assert!(tracer.stages().summary(Stage::ProviderGet).count > 0);
    assert!(tracer.stages().summary(Stage::Solve).count > 0);
    assert!(!tracer.slow_queries().is_empty());
    let report = service.metrics_report();
    assert!(report.process.arena_resident_bytes.unwrap_or(0) > 0);
    service.shutdown();
}

/// The framed telemetry endpoint serves live router documents over TCP.
#[test]
fn telemetry_endpoint_serves_live_router_documents() {
    let router = Arc::new(run_router(TraceConfig {
        slow_threshold_us: 0,
        ..TraceConfig::default()
    }));
    let source = TelemetrySource::new(
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
    );
    let mut server = TelemetryServer::start("127.0.0.1:0", source).expect("bind telemetry");
    let addr = server.addr();

    let metrics = telemetry::fetch(addr, "metrics").expect("fetch metrics");
    for key in ["\"epoch\":", "\"shard0_qps_ewma\":", "\"rss_bytes\":"] {
        assert!(metrics.contains(key), "{key} missing from {metrics}");
    }
    let stages = telemetry::fetch(addr, "stages").expect("fetch stages");
    assert!(stages.contains("\"stage_round1_p50_us\":"));
    let slow = telemetry::fetch(addr, "slow").expect("fetch slow log");
    assert!(slow.lines().count() >= 1, "slow log has retained traces");
    assert!(slow.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    let err = telemetry::fetch(addr, "bogus").expect("fetch unknown");
    assert!(err.contains("unknown command"));

    server.shutdown();
    router.shutdown();
}
