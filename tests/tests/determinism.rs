//! Determinism: every stage of the pipeline — generation, clustering,
//! indexing, queries — must be bit-reproducible under a fixed seed, and
//! sensitive to seed changes. Reproducibility underpins every experiment
//! of the `experiments` harness and every workload of `netclus_benchmark`.

use netclus::prelude::*;
use netclus_datagen::{beijing_small, Scenario, ScenarioConfig};
use netclus_roadnet::NodeId;

fn build_index(s: &Scenario) -> NetClusIndex {
    NetClusIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        NetClusConfig {
            tau_min: 300.0,
            tau_max: 2_000.0,
            threads: 4,
            ..Default::default()
        },
    )
}

#[test]
fn whole_pipeline_is_reproducible() {
    let s1 = beijing_small(1234);
    let s2 = beijing_small(1234);
    assert_eq!(s1.net.node_count(), s2.net.node_count());
    assert_eq!(s1.net.edge_count(), s2.net.edge_count());
    assert_eq!(s1.sites, s2.sites);

    let i1 = build_index(&s1);
    let i2 = build_index(&s2);
    assert_eq!(i1.instances().len(), i2.instances().len());
    for (a, b) in i1.instances().iter().zip(i2.instances()) {
        assert_eq!(a.cluster_count(), b.cluster_count());
        let ca: Vec<NodeId> = a.clusters.iter().map(|c| c.center).collect();
        let cb: Vec<NodeId> = b.clusters.iter().map(|c| c.center).collect();
        assert_eq!(ca, cb, "cluster centers diverged");
    }

    for (k, tau) in [(1, 400.0), (5, 800.0), (10, 1500.0)] {
        let q = TopsQuery::binary(k, tau);
        let a1 = i1.query(&s1.trajectories, &q);
        let a2 = i2.query(&s2.trajectories, &q);
        assert_eq!(a1.solution.sites, a2.solution.sites);
        assert_eq!(a1.solution.utility, a2.solution.utility);
        // FM variant too (seeded).
        let f1 = i1.query_fm(&s1.trajectories, &q, &FmGreedyConfig::default());
        let f2 = i2.query_fm(&s2.trajectories, &q, &FmGreedyConfig::default());
        assert_eq!(f1.solution.sites, f2.solution.sites);
    }
}

#[test]
fn different_seeds_differ() {
    let s1 = beijing_small(1);
    let s2 = beijing_small(2);
    // Same shape...
    assert_eq!(s1.trajectory_count(), s2.trajectory_count());
    assert_eq!(s1.site_count(), s2.site_count());
    // ...different content (sites are a random 50-subset; astronomically
    // unlikely to coincide).
    assert_ne!(s1.sites, s2.sites);
}

#[test]
fn scenario_scale_knob_scales() {
    let small = netclus_datagen::beijing_like(&ScenarioConfig {
        seed: 9,
        scale: 0.01,
    });
    let larger = netclus_datagen::beijing_like(&ScenarioConfig {
        seed: 9,
        scale: 0.04,
    });
    assert!(larger.net.node_count() > small.net.node_count());
    assert!(larger.trajectory_count() > small.trajectory_count());
    assert_eq!(larger.trajectory_count(), 4 * small.trajectory_count());
}

#[test]
fn exact_solver_is_deterministic_on_scenario() {
    let s = beijing_small(321);
    let tau = 600.0;
    let coverage = CoverageIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        tau,
        DetourModel::RoundTrip,
        4,
    );
    let cfg = ExactConfig {
        k: 2,
        tau,
        preference: PreferenceFunction::Binary,
        node_limit: Some(2_000_000),
    };
    let a = exact_optimal(&coverage, &cfg);
    let b = exact_optimal(&coverage, &cfg);
    assert_eq!(a.solution.site_indices, b.solution.site_indices);
    assert_eq!(a.nodes_explored, b.nodes_explored);
}
