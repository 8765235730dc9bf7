//! Dynamic-update integration tests: an incrementally updated index must be
//! observationally equivalent to a fresh rebuild (paper Sec. 6), at
//! scenario scale and through the query interface.

use netclus::prelude::*;
use netclus_datagen::{grid_city, GridCityConfig, WorkloadConfig, WorkloadGenerator};
use netclus_roadnet::{GridIndex, NodeId};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (
    netclus_roadnet::RoadNetwork,
    TrajectorySet,
    Vec<Trajectory>,
    Vec<NodeId>,
) {
    let mut rng = StdRng::seed_from_u64(404);
    let city = grid_city(
        &GridCityConfig {
            rows: 10,
            cols: 10,
            spacing_m: 180.0,
            ..Default::default()
        },
        &mut rng,
    );
    let grid = GridIndex::build(&city.net, 250.0);
    let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
    let mut routes = gen.generate(
        &WorkloadConfig {
            count: 60,
            ..Default::default()
        },
        &mut rng,
    );
    let later = routes.split_off(40);
    let trajs = TrajectorySet::from_trajectories(city.net.node_count(), routes);
    let sites: Vec<_> = city.net.nodes().collect();
    (city.net, trajs, later, sites)
}

fn config() -> NetClusConfig {
    NetClusConfig {
        tau_min: 300.0,
        tau_max: 2_500.0,
        threads: 2,
        ..Default::default()
    }
}

/// Queries on the updated and rebuilt indexes must return identical
/// solutions for a spread of (k, τ).
fn assert_query_equivalent(a: &NetClusIndex, b: &NetClusIndex, trajs: &TrajectorySet) {
    for (k, tau) in [(1, 400.0), (3, 800.0), (5, 1600.0)] {
        let qa = a.query(trajs, &TopsQuery::binary(k, tau));
        let qb = b.query(trajs, &TopsQuery::binary(k, tau));
        assert_eq!(
            qa.solution.sites, qb.solution.sites,
            "k={k} τ={tau}: site sets diverged"
        );
        assert!((qa.solution.utility - qb.solution.utility).abs() < 1e-9);
    }
}

#[test]
fn trajectory_additions_match_rebuild_through_queries() {
    let (net, mut trajs, later, sites) = setup();
    let mut index = NetClusIndex::build(&net, &trajs, &sites, config());
    for t in later {
        let id = trajs.add(t.clone());
        index.add_trajectory(id, &t);
    }
    let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
    assert_query_equivalent(&index, &rebuilt, &trajs);
}

#[test]
fn trajectory_removals_match_rebuild_through_queries() {
    let (net, mut trajs, _, sites) = setup();
    let mut index = NetClusIndex::build(&net, &trajs, &sites, config());
    for id in [0u32, 7, 13, 22, 39] {
        let removed = trajs.remove(TrajId(id)).unwrap();
        index.remove_trajectory(TrajId(id), &removed);
    }
    let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
    assert_query_equivalent(&index, &rebuilt, &trajs);
}

#[test]
fn site_churn_matches_rebuild_through_queries() {
    let (net, trajs, _, all_sites) = setup();
    // Start with half the sites, add/remove a batch.
    let initial: Vec<NodeId> = all_sites.iter().copied().step_by(2).collect();
    let mut index = NetClusIndex::build(&net, &trajs, &initial, config());
    let mut current: Vec<NodeId> = initial.clone();
    for &v in all_sites.iter().skip(1).step_by(7) {
        if index.add_site(v) {
            current.push(v);
        }
    }
    for &v in initial.iter().step_by(5) {
        if index.remove_site(v) {
            current.retain(|&s| s != v);
        }
    }
    current.sort_unstable();
    let rebuilt = NetClusIndex::build(&net, &trajs, &current, config());
    assert_eq!(index.site_count(), current.len());
    assert_query_equivalent(&index, &rebuilt, &trajs);
}

#[test]
fn interleaved_updates_stay_consistent() {
    let (net, mut trajs, later, sites) = setup();
    let mut index = NetClusIndex::build(&net, &trajs, &sites, config());
    // Interleave trajectory adds, removes, and site churn.
    let mut later_iter = later.into_iter();
    for step in 0..12 {
        match step % 3 {
            0 => {
                if let Some(t) = later_iter.next() {
                    let id = trajs.add(t.clone());
                    index.add_trajectory(id, &t);
                }
            }
            1 => {
                let id = TrajId(step as u32);
                if let Some(t) = trajs.remove(id) {
                    index.remove_trajectory(id, &t);
                }
            }
            _ => {
                let v = sites[step * 3 % sites.len()];
                index.remove_site(v);
                index.add_site(v);
            }
        }
    }
    // Site flags must be back to the full set.
    assert_eq!(index.site_count(), sites.len());
    let rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
    assert_query_equivalent(&index, &rebuilt, &trajs);
}

#[test]
fn update_cost_is_far_below_rebuild_cost() {
    // Table 10's rationale: absorbing a batch of trajectories must be much
    // cheaper than rebuilding the index.
    let (net, mut trajs, later, sites) = setup();
    let mut index = NetClusIndex::build(&net, &trajs, &sites, config());
    let rebuild_start = std::time::Instant::now();
    let _rebuilt = NetClusIndex::build(&net, &trajs, &sites, config());
    let rebuild_time = rebuild_start.elapsed();

    let update_start = std::time::Instant::now();
    let mut batch = Vec::new();
    for t in later {
        let id = trajs.add(t.clone());
        batch.push((id, t));
    }
    index.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
    let update_time = update_start.elapsed();
    assert!(
        update_time < rebuild_time,
        "update {update_time:?} not faster than rebuild {rebuild_time:?}"
    );
}
