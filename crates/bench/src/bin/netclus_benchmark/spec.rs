//! Names of the benchmark: workloads, end-to-end metrics and per-layer
//! metrics, as `BENCHMARK.json` lists them (a unit test compares the
//! two). Later issues refer to these names.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit, direction and, for an end-to-end metric, the
/// share of the parent's median by which it may get worse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    /// Name, unique over both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The six workloads and why each exists (one line each).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "build",
        "offline index builds as set-up, then bare NetClusIndex::query: the paper's own costs with no serving layer",
    ),
    (
        "cold_mono",
        "NetClusService, every tau distinct so all caches miss: provider build and Inc-Greedy dominate",
    ),
    (
        "hot_mono",
        "NetClusService, Zipf over 1440 recurring shapes, 2 clients: result, provider caches and executor do the work",
    ),
    (
        "cold_sharded",
        "in-process 4-shard ShardRouter, cold mix: scatter, four round-1s on 2 cores, merge; no RPC",
    ),
    (
        "hot_remote",
        "8 loopback shard servers behind the router, hot mix: round 1 is a memo hit, so frame, codec and socket dominate",
    ),
    (
        "churn",
        "WAL-backed ingest into the 4-shard router, reads beside and after the writes: every publish purges caches and turns hot reads cold",
    ),
];

/// Metrics every workload reports with `--trace 0`. Each is measured on
/// every workload and is never zero.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("index_mb", "MiB", Lower, 0.05),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p95_us", "us", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("utility_ratio", "ratio", Higher, 0.05),
    e2e("rss_peak_mb", "MiB", Lower, 0.2),
];

/// Metrics every workload reports with `--trace 1`; zero where a layer
/// does no work on that workload. The first twelve are end-to-end figures
/// that exist on some workloads only.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("query_p99_us", "us", Lower),
    layer("index_build_s", "s", Lower),
    layer("sharded_build_s", "s", Lower),
    layer("ingest_records_per_s", "1/s", Higher),
    layer("freshness_p50_ms", "ms", Lower),
    layer("freshness_p95_ms", "ms", Lower),
    layer("recovery_s", "s", Lower),
    layer("failed_frac", "ratio", Lower),
    layer("churn.paced_read_p50_us", "us", Lower),
    layer("churn.paced_read_p95_us", "us", Lower),
    layer("churn.paced_reads_per_s", "1/s", Higher),
    layer("churn.alternate_write_ms", "ms", Lower),
    layer("roadnet.partition.build_ms", "ms", Lower),
    layer("core.gdsp.ladder_s", "s", Lower),
    layer("core.cluster.enrich_s", "s", Lower),
    layer("core.shard.build_work_s", "s", Lower),
    layer("core.shard.build_max_s", "s", Lower),
    layer("core.shard.replication_factor", "ratio", Lower),
    layer("core.index.clusters", "count", Lower),
    layer("core.index.heap_mb", "MiB", Lower),
    layer("core.query.provider_build_us", "us", Lower),
    layer("core.query.provider_pairs", "count", Lower),
    layer("core.query.provider_mb", "MiB", Lower),
    layer("core.query.provider_build_share", "ratio", Lower),
    layer("core.greedy.solve_us", "us", Lower),
    layer("core.shard.round1_us", "us", Lower),
    layer("core.shard.merge_us", "us", Lower),
    layer("core.shard.candidates", "count", Lower),
    layer("core.shard.encode_us", "us", Lower),
    layer("core.shard.decode_us", "us", Lower),
    layer("core.shard.round1_bytes", "count", Lower),
    layer("service.shard_proto.encode_us", "us", Lower),
    layer("service.shard_proto.decode_us", "us", Lower),
    layer("service.executor.overhead_us", "us", Lower),
    layer("service.executor.dedup_joined", "count", Higher),
    layer("service.executor.mean_batch", "count", Higher),
    layer("service.executor.queue_depth_max", "count", Lower),
    layer("service.executor.rejected", "count", Lower),
    layer("service.cache.hit_rate", "ratio", Higher),
    layer("service.cache.evictions", "count", Lower),
    layer("service.provider_cache.hit_rate", "ratio", Higher),
    layer("service.provider_cache.evictions", "count", Lower),
    layer("service.provider_cache.coalesced", "count", Higher),
    layer("service.round_memo.hit_rate", "ratio", Higher),
    layer("service.shard_router.overhead_us", "us", Lower),
    layer("service.shard_router.hedged_requests", "count", Lower),
    layer("service.shard_router.hedge_wins", "count", Higher),
    layer("service.shard_router.replica_failovers", "count", Lower),
    layer("service.shard_router.degraded_answers", "count", Lower),
    layer("service.shard_router.breaker_opens", "count", Lower),
    layer("service.shard_router.apply_us", "us", Lower),
    layer("service.remote_shard.rpc_us", "us", Lower),
    layer("service.inprocess_shard.round1_us", "us", Lower),
    layer("service.remote_shard.rpc_overhead_us", "us", Lower),
    layer("service.shard_server.round1_us", "us", Lower),
    layer("service.remote_shard.requests", "count", Higher),
    layer("service.remote_shard.errors", "count", Lower),
    layer("service.remote_shard.reconnects", "count", Lower),
    layer("service.snapshot.apply_us", "us", Lower),
    layer("core.index.clone_us", "us", Lower),
    layer("core.update.add_trajectory_us", "us", Lower),
    layer("ingest.record.decode_us", "us", Lower),
    layer("ingest.record.bytes_per_record", "count", Lower),
    layer("trajectory.mapmatch.match_us", "us", Lower),
    layer("ingest.wal.append_us", "us", Lower),
    layer("ingest.wal.sync_us", "us", Lower),
    layer("ingest.wal.bytes_per_record", "count", Lower),
    layer("ingest.wal.syncs", "count", Lower),
    layer("ingest.pipeline.batches", "count", Higher),
    layer("ingest.pipeline.mean_batch_ops", "count", Higher),
    layer("ingest.pipeline.publish_us", "us", Lower),
    layer("ingest.pipeline.shed", "count", Lower),
    layer("ingest.pipeline.match_failed", "count", Lower),
    layer("ingest.pipeline.duplicates", "count", Lower),
    layer("ingest.recovery.replay_batches", "count", Higher),
    layer("ingest.recovery.replay_us", "us", Lower),
    layer("proc.user_s", "s", Lower),
    layer("proc.sys_s", "s", Lower),
    layer("proc.minor_faults", "count", Lower),
    layer("proc.invol_ctx_switches", "count", Lower),
    layer("loadgen.datagen_s", "s", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.trace_overhead_frac", "ratio", Lower),
    layer("trace.attributed_frac", "ratio", Higher),
    layer("trace.probes", "count", Higher),
    layer("trace.served_us", "us", Lower),
];

/// The unit of metric `name`, from either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Seconds one run measures for (`run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 12;

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_within_the_limits() {
        assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` lists the names, units, directions and bounds of
    /// this file, in this order, and runs this directory's package.
    #[test]
    fn committed_manifest_matches_the_spec() {
        const BENCH_DIR: &str = "crates/bench/src/bin/netclus_benchmark";
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        let squeezed: String = committed.split_whitespace().collect();
        let better = |m: &MetricSpec| match m.better {
            Lower => "lower",
            Higher => "higher",
        };
        let list = |entries: Vec<String>| format!("[{}]", entries.join(","));
        let workloads = list(
            WORKLOADS
                .iter()
                .map(|(name, why)| {
                    let why: String = why.split_whitespace().collect();
                    format!("{{\"name\":\"{name}\",\"why\":\"{why}\"}}")
                })
                .collect(),
        );
        let end_to_end = list(
            END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                        m.name,
                        m.unit,
                        better(m),
                        m.bound.expect("end-to-end metrics carry a bound")
                    )
                })
                .collect(),
        );
        let per_layer = list(
            PER_LAYER
                .iter()
                .map(|m| {
                    format!(
                        "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                        m.name,
                        m.unit,
                        better(m)
                    )
                })
                .collect(),
        );
        for part in [
            format!("\"workloads\":{workloads}"),
            format!("\"end_to_end\":{end_to_end}"),
            format!("\"per_layer\":{per_layer}"),
            format!("\"run_seconds\":{RUN_SECONDS}"),
            format!("\"paths\":[\"{BENCH_DIR}\"]"),
            format!("\"--manifest-path\",\"{BENCH_DIR}/Cargo.toml\""),
        ] {
            assert!(squeezed.contains(&part), "BENCHMARK.json lacks {part}");
        }
    }

    /// The benchmark is a package of its own (the driver builds it from
    /// this directory's manifest) whose sources Cargo also discovers as a
    /// `netclus-bench` binary (which is how the tests run). Both must be
    /// built alike: the same dependencies at the same paths, and no
    /// profile, patch or feature setting in the workspace that this
    /// directory's manifest lacks.
    #[test]
    fn own_manifest_follows_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let deps: Vec<(&str, &str)> = own
            .lines()
            .filter_map(|l| l.split_once(" = { path = \"../../../../"))
            .map(|(name, rest)| (name, rest.trim_end_matches("\" }")))
            .collect();
        assert!(deps.len() >= 6, "{deps:?}");
        for (name, dir) in deps {
            assert!(
                root.contains(&format!("{name} = {{ path = \"crates/{dir}\" }}")),
                "{name} is not the workspace's crates/{dir}"
            );
            assert!(
                bench.contains(&format!("{name}.workspace = true")),
                "netclus-bench does not depend on {name}"
            );
        }
        for table in ["[profile", "[patch", "[features"] {
            for manifest in [root, bench] {
                assert_eq!(
                    manifest.contains(table),
                    own.contains(table),
                    "{table} differs between the workspace and the benchmark's manifest"
                );
            }
        }
    }
}
