//! Figs. 7, 8, 9 — the TOPS extensions on Beijing-like data.
//!
//! * Fig 7a / Fig 9: TOPS-COST with budget B = 5 and site costs
//!   ~N(1, σ), σ ∈ [0, 1] floored at 0.1. Utility and selected-site count
//!   grow with σ (cheaper sites appear), time stays flat.
//! * Fig 7b: TOPS-CAPACITY with k = 5 and capacities ~N(mean, 0.1·mean),
//!   mean swept over [0.1%, 100%] of m. Utility grows to the unconstrained
//!   TOPS value.
//! * Fig 8: TOPS2 — convex interception-probability preference, τ ∈
//!   {0.4, 0.8} km, k ∈ {5, 10, 20}; NetClus close to INCG, roughly an
//!   order of magnitude faster.

use netclus::prelude::*;
use netclus_datagen::{assign_capacities_normal, assign_costs_normal};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runners::{build_coverage, build_index, incgreedy_on, run_netclus};
use crate::{print_table, Ctx};

const TAU: f64 = 800.0;
const SIGMAS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

/// One TOPS-COST sweep point per algorithm: (utility%, #sites, seconds).
struct CostRow {
    sigma: f64,
    incg: (f64, usize, f64),
    nc: (f64, usize, f64),
}

/// Runs the full σ sweep with coverage and index built once.
fn cost_sweep(ctx: &mut Ctx) -> Vec<CostRow> {
    let s = ctx.beijing();
    let m = s.trajectory_count();
    let threads = ctx.cfg.threads;
    let cfg = CostConfig {
        budget: 5.0,
        tau: TAU,
        preference: PreferenceFunction::Binary,
    };
    let (cov, cov_time) = build_coverage(&s, TAU, threads, usize::MAX).expect("budget off");
    let index = build_index(&s, 400.0, 2_000.0, 0.75, threads);
    let p = index.instance_for(TAU);
    let provider = ClusteredProvider::build(index.instance(p), TAU, s.trajectories.id_bound());

    let score = |sites: &[netclus_roadnet::NodeId]| -> f64 {
        100.0
            * evaluate_sites(
                &s.net,
                &s.trajectories,
                sites,
                TAU,
                PreferenceFunction::Binary,
                DetourModel::RoundTrip,
            )
            .utility
            / m as f64
    };

    SIGMAS
        .iter()
        .map(|&sigma| {
            // Same cost draw per node for both algorithms.
            let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ (sigma * 1000.0) as u64);
            let node_costs = assign_costs_normal(s.net.node_count(), 1.0, sigma, 0.1, &mut rng);

            let costs: Vec<f64> = (0..cov.site_count())
                .map(|i| node_costs[cov.sites()[i].index()])
                .collect();
            let t = std::time::Instant::now();
            let sol = tops_cost(&cov, &cfg, &costs);
            let incg = (
                score(&sol.sites),
                sol.site_indices.len(),
                (cov_time + t.elapsed()).as_secs_f64(),
            );

            let rep_costs: Vec<f64> = (0..provider.site_count())
                .map(|i| node_costs[provider.site_node(i).index()])
                .collect();
            let t = std::time::Instant::now();
            let nc_sol = tops_cost(&provider, &cfg, &rep_costs);
            let nc = (
                score(&nc_sol.sites),
                nc_sol.site_indices.len(),
                (provider.build_time() + t.elapsed()).as_secs_f64(),
            );
            CostRow { sigma, incg, nc }
        })
        .collect()
}

pub(crate) fn run_fig7(ctx: &mut Ctx) {
    // --- Fig 7a: TOPS-COST utility vs cost standard deviation. ------------
    let sweep = cost_sweep(ctx);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.sigma),
                format!("{:.1}", r.incg.0),
                format!("{:.1}", r.nc.0),
            ]
        })
        .collect();
    let header = ["cost_sigma", "INCG%", "NC%"];
    print_table(
        "Fig 7a — TOPS-COST utility (%) vs cost σ (B = 5, τ = 0.8 km)",
        &header,
        &rows,
    );
    ctx.write_csv("fig7a_cost_utility", &header, &rows);

    // --- Fig 7b: TOPS-CAPACITY utility vs mean capacity. -------------------
    let s = ctx.beijing();
    let m = s.trajectory_count();
    let threads = ctx.cfg.threads;
    let (cov, _) = build_coverage(&s, TAU, threads, usize::MAX).unwrap();
    let index = build_index(&s, 400.0, 2_000.0, 0.75, threads);
    let p = index.instance_for(TAU);
    let provider = ClusteredProvider::build(index.instance(p), TAU, s.trajectories.id_bound());
    let cap_cfg = CapacityConfig {
        k: 5,
        tau: TAU,
        preference: PreferenceFunction::Binary,
    };
    let mut rows = Vec::new();
    for mean_pct in [0.1f64, 1.0, 10.0, 50.0, 100.0] {
        let mean = m as f64 * mean_pct / 100.0;
        let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ mean_pct as u64);
        let caps = assign_capacities_normal(cov.site_count(), mean, 0.1 * mean, &mut rng);
        let sol = tops_capacity(&cov, &cap_cfg, &caps);

        let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ mean_pct as u64);
        let rep_caps = assign_capacities_normal(provider.site_count(), mean, 0.1 * mean, &mut rng);
        let nc_sol = tops_capacity(&provider, &cap_cfg, &rep_caps);

        rows.push(vec![
            format!("{mean_pct:.1}"),
            format!("{:.1}", 100.0 * sol.utility / m as f64),
            format!("{:.1}", 100.0 * nc_sol.utility / m as f64),
        ]);
    }
    let header = ["cap_mean_pct", "INCG%", "NC%"];
    print_table(
        "Fig 7b — TOPS-CAPACITY utility (%) vs mean capacity (% of m; k = 5, τ = 0.8 km)",
        &header,
        &rows,
    );
    ctx.write_csv("fig7b_capacity_utility", &header, &rows);
}

pub(crate) fn run_fig8(ctx: &mut Ctx) {
    let s = ctx.beijing();
    let m = s.trajectory_count();
    let threads = ctx.cfg.threads;
    let pref = PreferenceFunction::ConvexProbability { alpha: 2.0 };
    let index = build_index(&s, 400.0, 2_000.0, 0.75, threads);

    let mut rows = Vec::new();
    for tau_km in [0.4f64, 0.8] {
        let tau = tau_km * 1000.0;
        let (cov, cov_time) = build_coverage(&s, tau, threads, usize::MAX).unwrap();
        for k in [5usize, 10, 20] {
            let incg = incgreedy_on(&s, &cov, cov_time, k, tau, pref);
            let nc = run_netclus(&s, &index, k, tau, pref);
            rows.push(vec![
                format!("{tau_km:.1}"),
                k.to_string(),
                format!("{:.1}", incg.utility_pct(m)),
                format!("{:.1}", nc.utility_pct(m)),
                format!("{:.3}", incg.query_time.as_secs_f64()),
                format!("{:.3}", nc.query_time.as_secs_f64()),
            ]);
        }
    }
    let header = ["tau_km", "k", "INCG%", "NC%", "INCG_s", "NC_s"];
    print_table(
        "Fig 8 — TOPS2 (convex ψ): utility (%) and query time (s)",
        &header,
        &rows,
    );
    ctx.write_csv("fig8_tops2", &header, &rows);
}

pub(crate) fn run_fig9(ctx: &mut Ctx) {
    let sweep = cost_sweep(ctx);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.sigma),
                r.incg.1.to_string(),
                r.nc.1.to_string(),
                format!("{:.3}", r.incg.2),
                format!("{:.3}", r.nc.2),
            ]
        })
        .collect();
    let header = ["cost_sigma", "INCG_sites", "NC_sites", "INCG_s", "NC_s"];
    print_table(
        "Fig 9 — TOPS-COST: selected sites and time vs cost σ (B = 5, τ = 0.8 km)",
        &header,
        &rows,
    );
    ctx.write_csv("fig9_cost_sites_time", &header, &rows);
}
