//! The `netclus-shardd` shard-server crate: the standalone binary plus
//! the deterministic cluster corpus every process of a demo cluster
//! rebuilds.
//!
//! A cluster deployment has no shared filesystem in this codebase, so
//! the shard processes and the router agree on the corpus the same way
//! the benchmarks do: everything is a pure function of `(seed, scale,
//! shards)`. [`build_corpus`] reproduces the multi-region scenario, the
//! region partition and the sharded index bit-for-bit in every process;
//! a `netclus-shardd` process then keeps only its own shard's
//! trajectory view and index, while the router keeps only the network
//! and the partition (what it needs to route updates and merge
//! answers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use netclus::{NetClusConfig, NetClusShard, ReplicationStats, ShardedNetClusIndex};
use netclus_datagen::{multi_region, ScenarioConfig};
use netclus_roadnet::{RegionPartition, RoadNetwork};

/// The index configuration every cluster process builds with; one
/// definition so the router and the shard servers cannot drift.
pub(crate) fn cluster_index_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 400.0,
        tau_max: 3_200.0,
        threads: 1,
        ..Default::default()
    }
}

/// The deterministic cluster corpus: network, partition, per-shard
/// index views and the replication gauges, identical in every process
/// that builds it from the same `(seed, scale, shards)`.
pub struct ClusterCorpus {
    /// The shared road network.
    pub net: Arc<RoadNetwork>,
    /// The node partition updates are routed by.
    pub partition: RegionPartition,
    /// Per-shard corpus views + indexes, in shard-id order.
    pub shards: Vec<NetClusShard>,
    /// Replication bookkeeping of the initial corpus.
    pub replication: ReplicationStats,
    /// Global trajectory-id bound (seeds the router's id assignment).
    pub traj_id_bound: usize,
}

/// Builds the cluster corpus for `(seed, scale, shards)`.
pub fn build_corpus(seed: u64, scale: f64, shards: usize) -> ClusterCorpus {
    let scenario = multi_region(&ScenarioConfig { seed, scale }, shards);
    let partition = RegionPartition::build(&scenario.net, shards);
    let sharded = ShardedNetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        &partition,
        cluster_index_config(),
    );
    let traj_id_bound = sharded.traj_id_bound();
    let (partition, shard_views, replication) = sharded.into_parts();
    ClusterCorpus {
        net: Arc::new(scenario.net),
        partition,
        shards: shard_views,
        replication,
        traj_id_bound,
    }
}
