//! Mobile ATM van deployment: dynamic updates plus capacity constraints.
//!
//! The paper motivates real-time TOPS with mobile ATM vans repositioned as
//! mobility patterns shift (Sec. 1). This example simulates a day: the
//! index is built on the morning commute, vans are placed under per-van
//! capacity, then the evening pattern streams in as dynamic updates and the
//! vans are re-placed — without rebuilding the index.
//!
//! Run with:
//! ```text
//! cargo run --release --example atm_vans
//! ```

use std::time::Instant;

use netclus::prelude::*;
use netclus_datagen::{
    assign_capacities_normal, star_city, StarCityConfig, WorkloadConfig, WorkloadGenerator,
};
use netclus_roadnet::GridIndex;
use netclus_trajectory::{TrajId, TrajectorySet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(8_844);
    let city = star_city(
        &StarCityConfig {
            core_size: 10,
            spokes: 6,
            spoke_len: 25,
            ..Default::default()
        },
        &mut rng,
    );
    let grid = GridIndex::build(&city.net, 300.0);

    // Morning: suburb → core commutes (hotspot traffic toward the center).
    let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
    let morning = gen.generate(
        &WorkloadConfig {
            count: 400,
            uniform_fraction: 0.1,
            ..Default::default()
        },
        &mut rng,
    );
    let mut trajs = TrajectorySet::from_trajectories(city.net.node_count(), morning);
    let sites: Vec<_> = city.net.nodes().collect();

    let index_build = Instant::now();
    let mut index = NetClusIndex::build(
        &city.net,
        &trajs,
        &sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 4_000.0,
            ..Default::default()
        },
    );
    println!(
        "offline index: {} instances in {:?}",
        index.instances().len(),
        index_build.elapsed()
    );

    // Place 4 vans, τ = 1 km, each van serving at most 60 customers.
    let tau = 1_000.0;
    let k = 4;
    let place = |index: &NetClusIndex, trajs: &TrajectorySet, label: &str, rng: &mut StdRng| {
        let q = TopsQuery::binary(k, tau);
        let answer = index.query(trajs, &q);
        // Apply the capacity constraint on the clustered view the same way
        // the paper adapts Inc-Greedy (Sec. 7.2): rebuild the clustered
        // provider and run the capacitated greedy over it.
        let p = index.instance_for(tau);
        let provider = ClusteredProvider::build(index.instance(p), tau, trajs.id_bound());
        let caps = assign_capacities_normal(provider.site_count(), 60.0, 6.0, rng);
        let capped = tops_capacity(
            &provider,
            &CapacityConfig {
                k,
                tau,
                preference: PreferenceFunction::Binary,
            },
            &caps,
        );
        let eval = evaluate_sites(
            &city.net,
            trajs,
            &capped.sites,
            tau,
            PreferenceFunction::Binary,
            DetourModel::RoundTrip,
        );
        println!(
            "{label}: vans at {:?}",
            capped.sites.iter().map(|s| s.0).collect::<Vec<_>>()
        );
        println!(
            "         unconstrained coverage {:.1}%, capacitated service {:.0} customers, answered in {:?}",
            100.0 * evaluate_sites(
                &city.net,
                trajs,
                &answer.solution.sites,
                tau,
                PreferenceFunction::Binary,
                DetourModel::RoundTrip,
            )
            .utility
                / trajs.len() as f64,
            capped.utility.min(eval.utility),
            answer.solution.elapsed + capped.elapsed,
        );
        capped.sites
    };

    let morning_sites = place(&index, &trajs, "morning", &mut rng);

    // Evening: reverse flows — drop a third of the morning trips, stream in
    // new core → suburb trips as dynamic updates.
    let update_start = Instant::now();
    let morning_ids: Vec<TrajId> = trajs.iter().map(|(id, _)| id).collect();
    for id in morning_ids.iter().take(130) {
        let removed = trajs.remove(*id).expect("morning trip is live");
        index.remove_trajectory(*id, &removed);
    }
    let evening = gen.generate(
        &WorkloadConfig {
            count: 250,
            uniform_fraction: 0.5, // evening errands spread wider
            ..Default::default()
        },
        &mut rng,
    );
    let mut batch = Vec::new();
    for t in evening {
        let id = trajs.add(t.clone());
        batch.push((id, t));
    }
    index.add_trajectories(batch.iter().map(|(id, t)| (*id, t)));
    println!(
        "\nabsorbed 130 removals + 250 additions in {:?} (no rebuild)\n",
        update_start.elapsed()
    );

    let evening_sites = place(&index, &trajs, "evening", &mut rng);
    let moved = evening_sites
        .iter()
        .filter(|s| !morning_sites.contains(s))
        .count();
    println!("\n{moved}/{k} vans repositioned for the evening pattern");
}
