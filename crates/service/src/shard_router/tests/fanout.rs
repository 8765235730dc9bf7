//! The publish fan-out: shards apply their slices side by side and the
//! carried row sets are patched side by side, and neither changes a bit
//! of what a one-by-one publish serves, receipts and bookkeeping included.

use super::*;
use crate::provider_cache::{carry_rows_on, ShardProviderKey};
use crate::snapshot::Snapshot;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: usize = 4;
/// Nodes per side of the grid city.
const SIDE: u32 = 12;

fn config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 200.0,
        tau_max: 3_000.0,
        threads: 1,
        ..Default::default()
    }
}

/// One τ inside each instance's band, finest first.
fn band_taus() -> Vec<f64> {
    let cfg = config();
    (0..cfg.instance_count())
        .map(|p| cfg.tau_min * (1.0 + cfg.gamma).powf(p as f64 + 0.5))
        .collect()
}

/// A straight run of 3–7 nodes along a random row or column of the grid;
/// a run often crosses a shard boundary.
fn run(rng: &mut StdRng) -> Trajectory {
    let (len, along) = (rng.random_range(3..8u32), rng.random_range(0..SIDE));
    let start = rng.random_range(0..SIDE - len + 1);
    let horizontal = rng.random::<bool>();
    Trajectory::new(
        (start..start + len)
            .map(|i| {
                NodeId(if horizontal {
                    along * SIDE + i
                } else {
                    i * SIDE + along
                })
            })
            .collect(),
    )
}

/// A 12 × 12 two-way grid cut into four shards, its corpus and sites.
fn grid() -> (
    Arc<RoadNetwork>,
    TrajectorySet,
    Vec<NodeId>,
    RegionPartition,
) {
    let mut b = RoadNetworkBuilder::new();
    for y in 0..SIDE {
        for x in 0..SIDE {
            b.add_node(Point::new(f64::from(x) * 100.0, f64::from(y) * 100.0));
        }
    }
    for y in 0..SIDE {
        for x in 0..SIDE {
            let v = y * SIDE + x;
            if x + 1 < SIDE {
                b.add_two_way(NodeId(v), NodeId(v + 1), 100.0).unwrap();
            }
            if y + 1 < SIDE {
                b.add_two_way(NodeId(v), NodeId(v + SIDE), 100.0).unwrap();
            }
        }
    }
    let net = Arc::new(b.build().unwrap());
    let mut trajs = TrajectorySet::for_network(&net);
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..40 {
        trajs.add(run(&mut rng));
    }
    let sites: Vec<NodeId> = net.nodes().collect();
    let partition = RegionPartition::build(&net, SHARDS);
    (net, trajs, sites, partition)
}

fn four_shards(cfg: ShardRouterConfig) -> ShardRouter {
    let (net, trajs, sites, partition) = grid();
    let sharded = ShardedNetClusIndex::build(&net, &trajs, &sites, &partition, config());
    ShardRouter::start(net, sharded, cfg).expect("start router")
}

/// Trajectory adds and removes of ids below `bound`, some long dead.
fn trajectory_batch(rng: &mut StdRng, bound: u32) -> Vec<UpdateOp> {
    let mut batch: Vec<UpdateOp> = (0..rng.random_range(1..7))
        .map(|_| UpdateOp::AddTrajectory(run(rng)))
        .collect();
    for _ in 0..rng.random_range(0..5) {
        batch.push(UpdateOp::RemoveTrajectory(TrajId(
            rng.random_range(0..bound),
        )));
    }
    batch
}

fn replication(router: &ShardRouter) -> String {
    format!("{:?}", read_recover(&router.inner.update_lock).replication)
}

/// FNV-1a over a row set: per row the representative, length, ids and
/// distance bits, then the built τ and the id bound.
fn digest(rows: &Arc<ProviderRows>) -> u64 {
    let view = rows.view(rows.built_tau());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in 0..view.site_count() {
        let row = view.covered(i);
        eat(&view.site_node(i).0.to_le_bytes());
        eat(&(row.len() as u32).to_le_bytes());
        row.ids.iter().for_each(|id| eat(&id.to_le_bytes()));
        row.dists
            .iter()
            .for_each(|d| eat(&d.to_bits().to_le_bytes()));
    }
    eat(&rows.built_tau().to_bits().to_le_bytes());
    eat(&(view.rows().traj_id_bound() as u64).to_le_bytes());
    h
}

/// With a row set resident for every (shard, instance), ten random
/// trajectory-only batches — adds that cross shards, removes of live and
/// dead ids — are each carried whole: no query after them misses the
/// provider cache, and every answer, receipt and replication gauge is the
/// uncached router's at the same epoch. A batch with a site op then purges
/// its shard's rows and still answers as the uncached router does.
#[test]
fn a_fanned_out_publish_serves_what_an_uncached_router_serves() {
    let router = four_shards(ShardRouterConfig {
        workers: 2,
        ..Default::default()
    });
    let uncached = four_shards(ShardRouterConfig::uncached());
    let taus = band_taus();
    let answers_match = |epoch: u64| {
        for &tau in &taus {
            let q = TopsQuery::binary(3, tau);
            let (got, want) = (
                router.query_blocking(q).unwrap(),
                uncached.query_blocking(q).unwrap(),
            );
            assert_eq!((got.epoch, want.epoch), (epoch, epoch), "τ {tau}");
            assert_eq!(got.sites, want.sites, "epoch {epoch}, τ {tau}");
            assert_eq!(
                got.utility.to_bits(),
                want.utility.to_bits(),
                "epoch {epoch}, τ {tau}"
            );
            assert_eq!(got.covered, want.covered, "epoch {epoch}, τ {tau}");
        }
    };
    answers_match(0);
    let warm = router.metrics_report().shards.unwrap().providers;
    assert_eq!(
        warm.entries,
        SHARDS * taus.len(),
        "a row set per (shard, instance)"
    );

    let mut rng = StdRng::seed_from_u64(43);
    let mut bound = 40;
    for epoch in 1..=10u64 {
        let batch = trajectory_batch(&mut rng, bound);
        bound += batch.len() as u32;
        let (got, want) = (
            router.apply_updates(batch.clone()),
            uncached.apply_updates(batch),
        );
        assert_eq!(
            (got.epoch, got.applied, got.rejected),
            (want.epoch, want.applied, want.rejected),
            "receipt at epoch {epoch}"
        );
        assert_eq!(
            replication(&router),
            replication(&uncached),
            "epoch {epoch}"
        );
        let carried = router.metrics_report().shards.unwrap().providers;
        assert_eq!(
            (carried.entries, carried.invalidated),
            (warm.entries, 0),
            "epoch {epoch}"
        );
        answers_match(epoch);
        let after = router.metrics_report().shards.unwrap().providers;
        assert_eq!(
            after.misses, warm.misses,
            "a query missed after epoch {epoch}"
        );
    }
    assert!(
        read_recover(&router.inner.update_lock).replication.boundary > 0,
        "no trajectory crossed a shard boundary"
    );

    let batch = vec![
        UpdateOp::AddTrajectory(run(&mut rng)),
        UpdateOp::RemoveSite(NodeId(0)),
        UpdateOp::RemoveTrajectory(TrajId(3)),
    ];
    let (got, want) = (
        router.apply_updates(batch.clone()),
        uncached.apply_updates(batch),
    );
    assert_eq!((got.epoch, got.applied), (want.epoch, want.applied));
    assert_eq!(replication(&router), replication(&uncached));
    let purged = router.metrics_report().shards.unwrap().providers;
    assert_eq!(
        purged.invalidated as usize,
        taus.len(),
        "the site op's shard only"
    );
    answers_match(11);
    router.shutdown();
    uncached.shutdown();
}

/// The carry patches the same bits on one worker and on four: each row
/// set it files under the new epoch is, digest for digest, the one a
/// one-worker carry files and the one a build on the new epoch makes.
#[test]
fn the_carry_is_the_same_at_every_width() {
    let router = four_shards(ShardRouterConfig::uncached());
    let taus = band_taus();
    let caches = [ShardProviderCache::new(64), ShardProviderCache::new(64)];
    let build = |snap: &Snapshot, p: usize| {
        let instance = snap.index().instance(p);
        let built = ProviderRows::built_tau_for(instance, taus[p]);
        let bound = snap.trajs().id_bound();
        ProviderRows::build_with(instance, built, bound, 1, &mut ProviderScratch::default())
    };
    for s in 0..SHARDS {
        let snap = router.shard_snapshot(s);
        for p in 0..taus.len() {
            let rows = Arc::new(build(&snap, p));
            let key = ShardProviderKey::new(0, s as u32, p, rows.built_tau());
            for cache in &caches {
                cache.upsert(key, Arc::clone(&rows), |_| true);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(47);
    let receipt = router.apply_updates(trajectory_batch(&mut rng, 40));
    assert_eq!(receipt.epoch, 1);
    let published: Vec<(u32, Arc<Snapshot>)> = (0..SHARDS)
        .map(|s| (s as u32, router.shard_snapshot(s)))
        .collect();
    carry_rows_on(&caches[0], 1, &published, 1);
    carry_rows_on(&caches[1], 1, &published, 4);
    for (s, snap) in &published {
        for p in 0..taus.len() {
            let fresh = Arc::new(build(snap, p));
            let key = ShardProviderKey::new(1, *s, p, fresh.built_tau());
            let narrow = caches[0].peek(&key).expect("carried on one worker");
            let wide = caches[1].peek(&key).expect("carried on four workers");
            assert_eq!(digest(&narrow), digest(&wide), "shard {s}, instance {p}");
            assert_eq!(digest(&wide), digest(&fresh), "shard {s}, instance {p}");
        }
    }
    router.shutdown();
}

/// A replica whose apply fails while the shards ship side by side misses
/// the batch as it did one by one: the receipt is a healthy router's, the
/// failure is counted once, and the lagging replica's answer is demoted
/// (its shard goes missing from a degraded answer) instead of merged.
#[test]
fn a_failed_replica_apply_under_the_fan_out_lags_and_is_demoted() {
    let (flaky, fail) = flaky_replica_router();
    let (healthy, _) = flaky_replica_router();
    fail.store(true, Ordering::Release);
    let batch = || {
        vec![
            UpdateOp::AddTrajectory(Trajectory::new((0..4).map(NodeId).collect())),
            UpdateOp::AddTrajectory(Trajectory::new((12..16).map(NodeId).collect())),
            UpdateOp::RemoveTrajectory(TrajId(1)),
        ]
    };
    let (got, want) = (flaky.apply_updates(batch()), healthy.apply_updates(batch()));
    assert_eq!(
        (got.epoch, got.applied, got.rejected),
        (want.epoch, want.applied, want.rejected)
    );
    assert_eq!(replication(&flaky), replication(&healthy));
    assert_eq!(flaky.fault_report().shard_failures, 1);
    assert_eq!((flaky.replica_lag_max(), healthy.replica_lag_max()), (1, 0));
    // Replica (0, 0) down: shard 0 has only its lagging sibling left.
    let q = TopsQuery::binary(2, 800.0);
    for router in [&flaky, &healthy] {
        router.set_fault_plan(Some(
            FaultPlan::new(5).with_rule(FaultRule::always(0, FaultAction::Error).on_replica(0)),
        ));
    }
    let demoted = flaky.query_blocking(q).unwrap();
    assert!(demoted.degraded && !demoted.stale);
    assert_eq!(
        (demoted.epoch, demoted.shards_missing.clone()),
        (1, vec![0])
    );
    let full = healthy.query_blocking(q).unwrap();
    assert!(!full.degraded, "the healthy sibling serves shard 0");
    flaky.shutdown();
    healthy.shutdown();
}
