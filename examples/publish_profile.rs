//! What one published epoch costs, per shard and through the router.
//!
//! A served epoch is a copy of a shard's corpus and index with one batch
//! applied, swapped in for the previous one. This probe builds the
//! benchmark's city, cuts it into four shards and, per shard, replays
//! 64-op batches (32 trajectory adds, 32 removes) the way
//! [`SnapshotStore`] applies them, timing each stage around the public
//! calls that do it:
//!
//! * `clone` — the next epoch's private copy ([`TrajectorySet`] and
//!   [`NetClusIndex`] `clone`);
//! * `apply` — the batch on the copy ([`TrajectorySet::insert_at`] /
//!   [`TrajectorySet::remove`] with [`NetClusIndex::add_trajectory`] /
//!   [`NetClusIndex::remove_trajectory`]);
//! * `drop`  — dropping the epoch the copy replaced, with no reader
//!   pinning it;
//! * `store` — the same batches through [`SnapshotStore::apply_routed`],
//!   end to end.
//!
//! Per shard × instance it also times what a provider cache pays for the
//! epoch's ceiling rows: `rebuild` ([`ProviderRows::build_with`] on the
//! new epoch, one thread) against `patch` ([`ProviderRows::patch`] of the
//! rows held from the previous epoch, in place), and asserts both give
//! the same FNV-1a digest after every batch.
//!
//! It then starts a [`ShardRouter`] over the same shards, makes every
//! (shard, instance) row set resident with one query per τ band, and
//! times [`ShardRouter::apply_updates`] on 64-op batches of the same mix:
//! each publish ships the four slices and carries every row set. After
//! the last batch, every shard's published index must build ceiling rows
//! with the same FNV-1a digests as a fresh [`ShardedNetClusIndex::build`]
//! over the same corpus — the probe cannot time a publish that drifts from
//! a rebuild.
//!
//! Run with:
//! ```text
//! cargo run --release --example publish_profile [-- --scale 0.25]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{beijing_like, ScenarioConfig};
use netclus_roadnet::RegionPartition;
use netclus_service::{RoutedOp, ShardRouter, ShardRouterConfig, SnapshotStore, UpdateOp};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

const SHARDS: usize = 4;
/// Adds and removes per batch.
const HALF_BATCH: usize = 32;
/// Timed batches per shard and through the router; tables print medians.
const SAMPLES: usize = 15;

fn median_us(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

/// FNV-1a over a provider's rows: per row the representative, length,
/// ids and distance bits, then the id bound.
fn digest(view: &ClusteredProvider) -> u64 {
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
    eat(&(view.rows().traj_id_bound() as u64).to_le_bytes());
    h
}

/// The digests of the rows every instance of `index` builds at its band
/// ceiling.
fn ceiling_digests(index: &NetClusIndex, traj_id_bound: usize) -> Vec<u64> {
    index
        .instances()
        .iter()
        .map(|inst| {
            digest(&ClusteredProvider::build(
                inst,
                inst.neighbor_limit,
                traj_id_bound,
            ))
        })
        .collect()
}

/// The ceiling rows of every instance, as a cache keeps them.
fn ceiling_rows(index: &NetClusIndex, traj_id_bound: usize) -> Vec<ProviderRows> {
    let mut scratch = ProviderScratch::default();
    index
        .instances()
        .iter()
        .map(|inst| {
            ProviderRows::build_with(inst, inst.neighbor_limit, traj_id_bound, 1, &mut scratch)
        })
        .collect()
}

/// Applies `ops` to a shard's corpus and index in place, as the store's
/// writer does to its private copy.
fn apply(trajs: &mut TrajectorySet, index: &mut NetClusIndex, ops: &[RoutedOp]) {
    for op in ops {
        match op {
            RoutedOp::AddTrajectoryAt(id, t) => {
                assert!(trajs.insert_at(*id, t.clone()), "id {id:?} taken");
                index.add_trajectory(*id, t);
            }
            RoutedOp::RemoveTrajectory(id) => {
                let t = trajs.remove(*id).expect("removed id is live");
                index.remove_trajectory(*id, &t);
            }
            _ => unreachable!("the probe ships trajectory ops only"),
        }
    }
}

fn main() {
    let mut scale = 0.25;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            other => panic!("unknown argument {other}; usage: publish_profile [--scale S]"),
        }
    }

    // The benchmark's city, index configuration and four-way cut.
    let scenario = beijing_like(&ScenarioConfig::with_scale(scale));
    println!("dataset : {}", scenario.summary());
    let net = Arc::new(scenario.net);
    let partition = RegionPartition::build(&net, SHARDS);
    let config = NetClusConfig {
        tau_min: 400.0,
        tau_max: 3_200.0,
        threads: 2,
        ..Default::default()
    };
    let sharded = ShardedNetClusIndex::build(
        &net,
        &scenario.trajectories,
        &scenario.sites,
        &partition,
        config,
    );
    // Added trajectories are copies of corpus ones, cycled.
    let pool: Vec<&Trajectory> = scenario.trajectories.iter().map(|(_, t)| t).collect();
    let mut next_pool = 0;

    println!(
        "\nper shard, {HALF_BATCH} adds + {HALF_BATCH} removes per batch, median of {SAMPLES} \
         (µs)"
    );
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "shard", "trajs", "index MiB", "clone", "apply", "drop", "store"
    );
    let mut next_id = sharded.traj_id_bound() as u32;
    let mut carried = Vec::with_capacity(SHARDS);
    for shard in sharded.shards() {
        let s = shard.id;
        let store = SnapshotStore::with_shared_net(
            Arc::clone(&net),
            shard.trajs.clone(),
            shard.index.clone(),
        );
        let mut epoch = (shard.trajs.clone(), shard.index.clone());
        let (mut clone, mut applied, mut dropped, mut stored) = (vec![], vec![], vec![], vec![]);
        // Per instance: the resident ceiling rows and the time to rebuild
        // them or to patch them across each batch.
        let mut rows = ceiling_rows(&epoch.1, epoch.0.id_bound());
        let mut carry: Vec<(Vec<Duration>, Vec<Duration>)> = vec![(vec![], vec![]); rows.len()];
        for _ in 0..SAMPLES {
            let mut ops: Vec<RoutedOp> = Vec::with_capacity(2 * HALF_BATCH);
            while ops.len() < HALF_BATCH {
                let t = pool[next_pool % pool.len()];
                next_pool += 1;
                if shards_of_trajectory(&partition, t).contains(&s) {
                    ops.push(RoutedOp::AddTrajectoryAt(TrajId(next_id), t.clone()));
                    next_id += 1;
                }
            }
            let live = epoch.0.iter().map(|(id, _)| RoutedOp::RemoveTrajectory(id));
            ops.extend(live.take(HALF_BATCH));

            let t = Instant::now();
            let mut next = (epoch.0.clone(), epoch.1.clone());
            clone.push(t.elapsed());
            let t = Instant::now();
            apply(&mut next.0, &mut next.1, &ops);
            applied.push(t.elapsed());
            let old = std::mem::replace(&mut epoch, next);
            let t = Instant::now();
            drop(old);
            dropped.push(t.elapsed());

            let t = Instant::now();
            let receipt = store.apply_routed(&ops);
            stored.push(t.elapsed());
            assert_eq!(receipt.applied, ops.len(), "shard {s}: every op applies");

            let (mut added, mut removed) = (vec![], vec![]);
            for op in &ops {
                match op {
                    RoutedOp::AddTrajectoryAt(id, _) => added.push(*id),
                    RoutedOp::RemoveTrajectory(id) => removed.push(*id),
                    _ => unreachable!("the probe ships trajectory ops only"),
                }
            }
            let bound = epoch.0.id_bound();
            let mut scratch = ProviderScratch::default();
            for ((inst, held), (rebuilds, patches)) in
                epoch.1.instances().iter().zip(&mut rows).zip(&mut carry)
            {
                let t = Instant::now();
                let fresh =
                    ProviderRows::build_with(inst, inst.neighbor_limit, bound, 1, &mut scratch);
                rebuilds.push(t.elapsed());
                let t = Instant::now();
                held.patch(inst, &epoch.0, &added, &removed);
                patches.push(t.elapsed());
                let tau = inst.neighbor_limit;
                let (fresh, held) = (Arc::new(fresh), Arc::new(held.clone()));
                assert_eq!(
                    digest(&held.view(tau)),
                    digest(&fresh.view(tau)),
                    "shard {s}: patched rows differ from a rebuild's"
                );
            }
        }
        let published = store.load();
        let bound = next_id as usize;
        assert_eq!(
            ceiling_digests(published.index(), bound),
            ceiling_digests(&epoch.1, bound),
            "shard {s}: the store and the replay diverged"
        );
        println!(
            "{:>5} {:>8} {:>10.2} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            s,
            published.trajs().len(),
            published.index().heap_size_bytes() as f64 / (1024.0 * 1024.0),
            median_us(clone),
            median_us(applied),
            median_us(dropped),
            median_us(stored),
        );
        carried.push((s, rows, carry));
    }

    println!(
        "\nceiling rows per shard × instance across each batch: rebuild vs patch in place, \
         median of {SAMPLES} (µs; digests asserted equal)"
    );
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>10}",
        "shard", "instance", "pairs", "rebuild", "patch"
    );
    for (s, rows, carry) in carried {
        for (p, (held, (rebuilds, patches))) in rows.iter().zip(carry).enumerate() {
            println!(
                "{:>5} {:>8} {:>10} {:>10.0} {:>10.0}",
                s,
                p,
                held.pair_count(),
                median_us(rebuilds),
                median_us(patches),
            );
        }
    }

    // The router over the same shards, with a global corpus kept beside it
    // for the rebuild.
    let sites = scenario.sites.clone();
    let mut corpus = scenario.trajectories.clone();
    let instances = sharded.shards()[0].index.instances().len();
    let router = ShardRouter::start(Arc::clone(&net), sharded, ShardRouterConfig::default())
        .expect("start router");
    // One query per τ band makes every (shard, instance) row set resident,
    // so each timed publish carries them all, patched, as a served
    // router's does.
    for p in 0..instances {
        let tau = config.tau_min * (1.0 + config.gamma).powf(p as f64 + 0.5);
        router
            .query_blocking(TopsQuery::binary(5, tau))
            .expect("warm-up query");
    }
    let resident = router
        .metrics_report()
        .shards
        .expect("router report")
        .providers;
    assert_eq!(
        resident.entries,
        SHARDS * instances,
        "a row set per (shard, instance)"
    );
    let mut routed = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut batch: Vec<UpdateOp> = Vec::with_capacity(2 * HALF_BATCH);
        for _ in 0..HALF_BATCH {
            let t = pool[next_pool % pool.len()].clone();
            next_pool += 1;
            corpus.add(t.clone());
            batch.push(UpdateOp::AddTrajectory(t));
        }
        let victims: Vec<TrajId> = corpus.iter().map(|(id, _)| id).take(HALF_BATCH).collect();
        for id in victims {
            corpus.remove(id);
            batch.push(UpdateOp::RemoveTrajectory(id));
        }
        let t = Instant::now();
        let receipt = router.apply_updates(batch);
        routed.push(t.elapsed());
        assert_eq!(receipt.applied, 2 * HALF_BATCH, "every routed op applies");
    }
    let carried = router
        .metrics_report()
        .shards
        .expect("router report")
        .providers;
    assert_eq!(
        (carried.entries, carried.invalidated),
        (resident.entries, 0),
        "every publish carried every row set"
    );
    println!(
        "\nShardRouter::apply_updates, {} ops per batch, {} row sets carried: median {:.0} µs \
         of {SAMPLES}",
        2 * HALF_BATCH,
        resident.entries,
        median_us(routed)
    );

    // Every published shard ≡ a fresh build over the same corpus.
    let fresh = ShardedNetClusIndex::build(&net, &corpus, &sites, &partition, config);
    let bound = corpus.id_bound();
    for (s, rebuilt) in fresh.shards().iter().enumerate() {
        let published = router.shard_snapshot(s);
        assert_eq!(
            published.trajs().len(),
            rebuilt.trajs.len(),
            "shard {s}: corpus"
        );
        let digests = ceiling_digests(published.index(), bound);
        assert_eq!(
            digests,
            ceiling_digests(&rebuilt.index, bound),
            "shard {s}: published rows differ from a rebuild's"
        );
        let digests: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        println!(
            "shard {s} ceiling digests = rebuild's: {}",
            digests.join(" ")
        );
    }
    router.shutdown();
}
