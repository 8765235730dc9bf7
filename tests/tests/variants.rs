//! Integration tests for the TOPS extensions (paper Sec. 7) over real
//! coverage data from generated cities.

use netclus::prelude::*;
use netclus_datagen::{
    assign_capacities_normal, assign_costs_normal, beijing_small, grid_city, GridCityConfig,
    WorkloadConfig, WorkloadGenerator,
};
use netclus_roadnet::GridIndex;
use netclus_trajectory::TrajectorySet;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    net: netclus_roadnet::RoadNetwork,
    trajs: TrajectorySet,
    coverage: CoverageIndex,
}

fn fixture(tau: f64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(99);
    let city = grid_city(
        &GridCityConfig {
            rows: 10,
            cols: 10,
            spacing_m: 200.0,
            ..Default::default()
        },
        &mut rng,
    );
    let grid = GridIndex::build(&city.net, 250.0);
    let mut gen = WorkloadGenerator::new(&city.net, &grid, &city.hotspots);
    let routes = gen.generate(
        &WorkloadConfig {
            count: 50,
            ..Default::default()
        },
        &mut rng,
    );
    let trajs = TrajectorySet::from_trajectories(city.net.node_count(), routes);
    let sites: Vec<_> = city.net.nodes().collect();
    let coverage = CoverageIndex::build(&city.net, &trajs, &sites, tau, DetourModel::RoundTrip, 2);
    Fixture {
        net: city.net,
        trajs,
        coverage,
    }
}

#[test]
fn cost_constraint_reduces_to_tops_with_unit_costs() {
    let f = fixture(600.0);
    let k = 4usize;
    let costs = vec![1.0; f.coverage.site_count()];
    let cost_sol = tops_cost(
        &f.coverage,
        &CostConfig {
            budget: k as f64,
            tau: 600.0,
            preference: PreferenceFunction::Binary,
        },
        &costs,
    );
    let greedy_sol = inc_greedy(&f.coverage, &GreedyConfig::binary(k, 600.0));
    assert!((cost_sol.utility - greedy_sol.utility).abs() < 1e-9);
    assert!(cost_sol.site_indices.len() <= k);
}

#[test]
fn lower_cost_variance_means_fewer_sites() {
    // Fig. 7a logic: with σ = 0 every site costs 1.0 → exactly B sites fit;
    // with σ large, cheaper sites exist → more sites fit the same budget.
    let f = fixture(600.0);
    let n = f.coverage.site_count();
    let mut rng = StdRng::seed_from_u64(5);
    let budget = 5.0;
    let flat = vec![1.0; n];
    let sol_flat = tops_cost(
        &f.coverage,
        &CostConfig {
            budget,
            tau: 600.0,
            preference: PreferenceFunction::Binary,
        },
        &flat,
    );
    let varied = assign_costs_normal(n, 1.0, 0.9, 0.1, &mut rng);
    let sol_varied = tops_cost(
        &f.coverage,
        &CostConfig {
            budget,
            tau: 600.0,
            preference: PreferenceFunction::Binary,
        },
        &varied,
    );
    assert!(sol_flat.site_indices.len() <= 5);
    assert!(
        sol_varied.site_indices.len() >= sol_flat.site_indices.len(),
        "variance should admit at least as many sites ({} vs {})",
        sol_varied.site_indices.len(),
        sol_flat.site_indices.len()
    );
    // More sites under the same budget ⇒ at least as much utility here.
    assert!(sol_varied.utility >= sol_flat.utility * 0.9);
}

#[test]
fn capacity_sweep_matches_paper_trend() {
    // Fig. 7b: utility grows with mean capacity and converges to
    // unconstrained TOPS.
    let f = fixture(600.0);
    let n = f.coverage.site_count();
    let m = f.trajs.len() as f64;
    let unconstrained = inc_greedy(&f.coverage, &GreedyConfig::binary(5, 600.0));
    let mut rng = StdRng::seed_from_u64(11);
    let mut last = -1.0f64;
    for mean_pct in [0.02, 0.1, 0.5, 1.0] {
        let caps = assign_capacities_normal(n, m * mean_pct, m * mean_pct * 0.1, &mut rng);
        let sol = tops_capacity(
            &f.coverage,
            &CapacityConfig {
                k: 5,
                tau: 600.0,
                preference: PreferenceFunction::Binary,
            },
            &caps,
        );
        // Allow small non-monotonic wiggles from tie-breaking, but the
        // trend must rise.
        assert!(
            sol.utility >= last * 0.9,
            "utility collapsed at capacity {mean_pct}"
        );
        last = last.max(sol.utility);
        assert!(sol.utility <= unconstrained.utility + 1e-9);
    }
    assert!(
        last >= 0.95 * unconstrained.utility,
        "full capacity should recover TOPS ({last} vs {})",
        unconstrained.utility
    );
}

#[test]
fn existing_services_never_hurt_total_coverage() {
    let f = fixture(600.0);
    let plain = inc_greedy(&f.coverage, &GreedyConfig::binary(3, 600.0));
    // Deploy the plain solution as "existing", then ask for 3 more.
    let extra = inc_greedy_from(
        &f.coverage,
        &GreedyConfig::binary(3, 600.0),
        &plain.site_indices,
    );
    // The extra sites must be disjoint from the existing ones.
    for s in &extra.site_indices {
        assert!(!plain.site_indices.contains(s));
    }
    // Combined exact coverage ≥ plain coverage.
    let mut all_sites = plain.sites.clone();
    all_sites.extend_from_slice(&extra.sites);
    let eval_all = evaluate_sites(
        &f.net,
        &f.trajs,
        &all_sites,
        600.0,
        PreferenceFunction::Binary,
        DetourModel::RoundTrip,
    );
    let eval_plain = evaluate_sites(
        &f.net,
        &f.trajs,
        &plain.sites,
        600.0,
        PreferenceFunction::Binary,
        DetourModel::RoundTrip,
    );
    assert!(eval_all.utility >= eval_plain.utility);
    // Marginal accounting: existing coverage + reported extra gain equals
    // the combined coverage.
    assert!((eval_plain.utility + extra.utility - eval_all.utility).abs() < 1e-9);
}

#[test]
fn market_share_needs_more_sites_for_more_share() {
    let f = fixture(600.0);
    let mut last_sites = 0usize;
    for beta in [0.25, 0.5, 0.75, 1.0] {
        let r = tops_market_share(
            &f.coverage,
            &MarketShareConfig {
                beta,
                of_total: false,
            },
        );
        assert!(r.target_met, "β={beta} infeasible against coverable set");
        assert!(
            r.solution.site_indices.len() >= last_sites,
            "site count must grow with β"
        );
        last_sites = r.solution.site_indices.len();
    }
}

#[test]
fn tops2_convex_preference_orders_with_binary() {
    // TOPS2's convex ψ values are ≤ binary ψ pointwise, so the achieved
    // utility is bounded by the binary utility at the same (k, τ).
    let f = fixture(800.0);
    let binary = inc_greedy(&f.coverage, &GreedyConfig::binary(5, 800.0));
    let convex = inc_greedy(
        &f.coverage,
        &GreedyConfig {
            k: 5,
            tau: 800.0,
            preference: PreferenceFunction::ConvexProbability { alpha: 2.0 },
        },
    );
    assert!(convex.utility <= binary.utility + 1e-9);
    assert!(convex.utility > 0.0);
}

#[test]
fn combined_cost_and_existing_services() {
    // Paper Sec. 7.5: extensions compose. Deploy 2 existing sites, then run
    // TOPS-COST for the rest of the budget by pricing existing sites out.
    let f = fixture(600.0);
    let existing = inc_greedy(&f.coverage, &GreedyConfig::binary(2, 600.0));
    let mut rng = StdRng::seed_from_u64(3);
    let mut costs = assign_costs_normal(f.coverage.site_count(), 1.0, 0.3, 0.1, &mut rng);
    // Existing services consume no budget but cannot be re-bought: model by
    // pricing them above the budget and pre-raising utilities via a
    // combined run on the remaining sites.
    for &i in &existing.site_indices {
        costs[i] = f64::INFINITY.min(1e12);
    }
    let sol = tops_cost(
        &f.coverage,
        &CostConfig {
            budget: 3.0,
            tau: 600.0,
            preference: PreferenceFunction::Binary,
        },
        &costs,
    );
    for i in &sol.site_indices {
        assert!(!existing.site_indices.contains(i));
    }
}

#[test]
fn beijing_small_scenario_supports_exact_comparison() {
    // The Fig. 4 setting end-to-end: OPT ≥ greedy ≥ (1 − 1/e)·OPT.
    let s = beijing_small(42);
    let tau = 800.0;
    let coverage = CoverageIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        tau,
        DetourModel::RoundTrip,
        2,
    );
    let greedy = inc_greedy(&coverage, &GreedyConfig::binary(3, tau));
    let exact = exact_optimal(
        &coverage,
        &ExactConfig {
            k: 3,
            tau,
            preference: PreferenceFunction::Binary,
            node_limit: Some(5_000_000),
        },
    );
    assert!(exact.proved_optimal);
    assert!(exact.solution.utility >= greedy.utility - 1e-9);
    assert!(greedy.utility >= (1.0 - 1.0 / std::f64::consts::E) * exact.solution.utility - 1e-9);
}
