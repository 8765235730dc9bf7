//! The PR-5 exactness contract, end to end: a `ShardRouter` with the
//! per-shard provider cache and the round-1 candidate memo enabled
//! returns answers **bit-identical** to
//!
//! 1. the cold uncached router (same code path, caches disabled), and
//! 2. the monolithic `NetClusIndex` rebuilt from scratch at every epoch,
//!
//! on random partition-respecting corpora for shard counts 1, 2 and 4,
//! across interleaved update batches (trajectory adds and removes). The
//! update interleaving is what proves epoch invalidation correct: a stale
//! provider or memoized round surviving an epoch advance would answer
//! from the old corpus and diverge from the rebuilt monolithic reference.
//!
//! The query stream is dashboard-shaped on purpose — repeated τ with `k`
//! first descending (prefix-slicing memo hits) then exceeding the
//! memoized run (miss + provider-cache hit + memo upgrade) — so the
//! equivalence is asserted *through* every cache path, not around them.
//!
//! A second property pins the two serving cores to each other: a 1-shard
//! `ShardRouter` and a `NetClusService` over the same corpus agree to the
//! last utility bit for all three ψ, before and after an update batch —
//! both run the one solver on the same rows.

use std::sync::Arc;

use netclus::prelude::*;
use netclus_roadnet::{NodeId, Point, RegionPartition, RoadNetwork, RoadNetworkBuilder};
use netclus_service::{
    NetClusService, ServiceConfig, ServiceRequest, ShardRouter, ShardRouterConfig, UpdateOp,
};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
use proptest::prelude::*;

/// A region-confined walk: `(region, start, len)`.
type Walk = (usize, usize, usize);

/// A random multi-region instance with an update schedule.
#[derive(Clone, Debug)]
struct Instance {
    regions: usize,
    /// Nodes per region (a two-way corridor).
    n: usize,
    /// Initial walks.
    walks: Vec<Walk>,
    /// Update phases: each a list of added walks plus whether to remove
    /// the oldest live trajectory first.
    phases: Vec<(Vec<Walk>, bool)>,
    /// Dashboard thresholds (meters, multiples of 50 — pre-quantized).
    taus: Vec<f64>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (2usize..=3, 6usize..12)
        .prop_flat_map(|(regions, n)| {
            let walk = (0..regions, 0..n.saturating_sub(2), 2usize..6);
            let walks = prop::collection::vec(walk.clone(), 2..8);
            let phase = (prop::collection::vec(walk, 1..4), any::<bool>());
            let phases = prop::collection::vec(phase, 1..3);
            let taus = prop::collection::vec((6u32..40).prop_map(|s| s as f64 * 50.0), 2);
            (Just(regions), Just(n), walks, phases, taus)
        })
        .prop_map(|(regions, n, walks, phases, taus)| Instance {
            regions,
            n,
            walks,
            phases,
            taus,
        })
}

/// Materializes the network: `regions` identical two-way corridors placed
/// 1000 km apart (mutually unreachable), so every corpus built from
/// region-confined walks respects any region-aligned partition.
fn build_net(inst: &Instance) -> (RoadNetwork, Vec<u32>) {
    let mut b = RoadNetworkBuilder::new();
    let mut region_of = Vec::new();
    for r in 0..inst.regions {
        let base = (r * inst.n) as u32;
        for i in 0..inst.n {
            b.add_node(Point::new(r as f64 * 1.0e6 + i as f64 * 90.0, 0.0));
            region_of.push(r as u32);
        }
        for i in 0..inst.n as u32 - 1 {
            b.add_two_way(NodeId(base + i), NodeId(base + i + 1), 90.0)
                .unwrap();
        }
    }
    (b.build().unwrap(), region_of)
}

fn walk_trajectory(inst: &Instance, (region, start, len): Walk) -> Trajectory {
    let base = region * inst.n;
    let end = (start + len).min(inst.n - 1);
    Trajectory::new(
        ((base + start) as u32..=(base + end) as u32)
            .map(NodeId)
            .collect(),
    )
}

fn netclus_config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 200.0,
        tau_max: 2_400.0,
        threads: 1,
        ..Default::default()
    }
}

/// The dashboard query stream: for each τ, `k` descends (memo prefix
/// hits), then jumps above the memoized run (miss → provider hit →
/// upgrade), then repeats (hit again).
fn query_stream(taus: &[f64]) -> Vec<TopsQuery> {
    let mut queries = Vec::new();
    for &tau in taus {
        for k in [4usize, 2, 1, 6, 3] {
            queries.push(TopsQuery::binary(k, tau));
        }
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_router_is_bit_identical_to_cold_router_and_monolithic(
        inst in instance_strategy(),
    ) {
        let (net, region_of) = build_net(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cfg = netclus_config();
        let queries = query_stream(&inst.taus);

        // Initial corpus.
        let mut trajs = TrajectorySet::for_network(&net);
        for &w in &inst.walks {
            trajs.add(walk_trajectory(&inst, w));
        }

        // Materialize the update schedule once: the routed id assignment
        // is deterministic (sequential from the initial bound), so the
        // monolithic mirror can replay it with `insert_at`.
        let batches: Vec<Vec<UpdateOp>> = inst
            .phases
            .iter()
            .map(|(adds, remove_first)| {
                let mut ops = Vec::new();
                if *remove_first {
                    ops.push(UpdateOp::RemoveTrajectory(TrajId(0)));
                }
                for &w in adds {
                    ops.push(UpdateOp::AddTrajectory(walk_trajectory(&inst, w)));
                }
                ops
            })
            .collect();

        // Monolithic reference: replay the schedule, rebuilding the index
        // from scratch at every epoch, and record the expected answer of
        // every (epoch, query) pair.
        let mut expected: Vec<Vec<(Vec<NodeId>, u64)>> = Vec::new();
        {
            let mut mono_trajs = trajs.clone();
            let mut next_id = mono_trajs.id_bound() as u32;
            for epoch in 0..=batches.len() {
                if epoch > 0 {
                    for op in &batches[epoch - 1] {
                        match op {
                            UpdateOp::AddTrajectory(t) => {
                                assert!(mono_trajs.insert_at(TrajId(next_id), t.clone()));
                                next_id += 1;
                            }
                            UpdateOp::RemoveTrajectory(id) => {
                                assert!(mono_trajs.remove(*id).is_some(), "removed twice");
                            }
                            _ => unreachable!("schedule only adds/removes trajectories"),
                        }
                    }
                }
                let mono = NetClusIndex::build(&net, &mono_trajs, &sites, cfg);
                expected.push(
                    queries
                        .iter()
                        .map(|q| {
                            let a = mono.query(&mono_trajs, q);
                            (a.solution.sites, a.solution.utility.to_bits())
                        })
                        .collect(),
                );
            }
        }

        let shared_net = Arc::new(net.clone());
        for shards in [1usize, 2, 4] {
            let assignment: Vec<u32> = region_of.iter().map(|&r| r % shards as u32).collect();
            let partition = RegionPartition::from_assignment(assignment, shards);
            let build = || {
                ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg)
            };
            let hot = ShardRouter::start(
                Arc::clone(&shared_net),
                build(),
                ShardRouterConfig::default(),
            )
            .expect("start router");
            let cold = ShardRouter::start(
                Arc::clone(&shared_net),
                build(),
                ShardRouterConfig::uncached(),
            )
            .expect("start router");
            for (epoch, wants) in expected.iter().enumerate() {
                if epoch > 0 {
                    let batch = &batches[epoch - 1];
                    let rh = hot.apply_updates(batch.clone());
                    let rc = cold.apply_updates(batch.clone());
                    prop_assert_eq!(rh.epoch, epoch as u64);
                    prop_assert_eq!((rh.applied, rh.rejected), (rc.applied, rc.rejected));
                }
                for (q, (want_sites, want_utility)) in queries.iter().zip(wants) {
                    let a = hot.query_blocking(*q).expect("hot router answered");
                    let b = cold.query_blocking(*q).expect("cold router answered");
                    prop_assert_eq!(a.epoch, epoch as u64, "hot epoch");
                    prop_assert_eq!(b.epoch, epoch as u64, "cold epoch");
                    prop_assert_eq!(
                        &a.sites, &b.sites,
                        "hot vs cold diverged: shards={} epoch={} k={} tau={}",
                        shards, epoch, q.k, q.tau
                    );
                    prop_assert_eq!(
                        a.utility.to_bits(), b.utility.to_bits(),
                        "hot vs cold utility: shards={} epoch={}", shards, epoch
                    );
                    prop_assert_eq!(
                        &a.sites, want_sites,
                        "router vs monolithic: shards={} epoch={} k={} tau={}",
                        shards, epoch, q.k, q.tau
                    );
                    prop_assert_eq!(
                        a.utility.to_bits(), *want_utility,
                        "router vs monolithic utility: shards={} epoch={}", shards, epoch
                    );
                }
            }
            // The warm router actually exercised its caches — this test
            // must prove the hot *path*, not an accidentally-cold one.
            let report = hot.metrics_report().shards.expect("shard section");
            prop_assert!(report.rounds.hits > 0, "memo never hit");
            prop_assert!(report.providers.hits > 0, "provider cache never hit");
            prop_assert!(report.hot.count > 0, "no hot fan-outs recorded");
            let cold_report = cold.metrics_report().shards.expect("shard section");
            prop_assert_eq!(cold_report.hot.count, 0, "cold router must stay cold");
            hot.shutdown();
            cold.shutdown();
        }
    }

    #[test]
    fn one_shard_router_is_bit_identical_to_the_service(inst in instance_strategy()) {
        let (net, region_of) = build_net(&inst);
        let sites: Vec<NodeId> = net.nodes().collect();
        let cfg = netclus_config();
        let mut trajs = TrajectorySet::for_network(&net);
        for &w in &inst.walks {
            trajs.add(walk_trajectory(&inst, w));
        }
        let partition = RegionPartition::from_assignment(vec![0; region_of.len()], 1);
        let router = ShardRouter::start(
            Arc::new(net.clone()),
            ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, cfg),
            ShardRouterConfig::default(),
        )
        .expect("start router");
        let index = NetClusIndex::build(&net, &trajs, &sites, cfg);
        let service = NetClusService::start(net, trajs, index, ServiceConfig::default())
            .expect("start service");

        let (adds, remove_first) = &inst.phases[0];
        let mut batch = Vec::new();
        if *remove_first {
            batch.push(UpdateOp::RemoveTrajectory(TrajId(0)));
        }
        batch.extend(adds.iter().map(|&w| UpdateOp::AddTrajectory(walk_trajectory(&inst, w))));

        for epoch in 0..2u64 {
            if epoch == 1 {
                prop_assert_eq!(router.apply_updates(batch.clone()).epoch, 1);
                prop_assert_eq!(service.apply_updates(batch.clone()).epoch, 1);
            }
            for preference in [
                PreferenceFunction::Binary,
                PreferenceFunction::LinearDecay,
                PreferenceFunction::ConvexProbability { alpha: 2.0 },
            ] {
                for &tau in &inst.taus {
                    for k in [4usize, 1, 6] {
                        let q = TopsQuery { k, tau, preference };
                        let a = router.query_blocking(q).expect("router answered");
                        let b = service
                            .query_blocking(ServiceRequest::greedy(q))
                            .expect("service answered");
                        prop_assert_eq!((a.epoch, b.epoch), (epoch, epoch));
                        prop_assert_eq!(&a.sites, &b.sites, "epoch={} {:?}", epoch, q);
                        prop_assert_eq!(
                            a.utility.to_bits(), b.utility.to_bits(),
                            "epoch={} {:?}: router {} vs service {}",
                            epoch, q, a.utility, b.utility
                        );
                    }
                }
            }
        }
        router.shutdown();
        service.shutdown();
    }
}
