//! Table 11 — per-radius index construction statistics (γ = 0.75).
//!
//! Paper shape, confirmed per instance of the ladder:
//! * the cluster count η falls roughly geometrically as `R_p` grows;
//! * the mean dominance-ball size `|Λ|` and the mean trajectory-list size
//!   `|TL|` grow with `R_p`;
//! * the mean neighbor count `|CL|` rises then falls (coarse instances
//!   have few clusters left to be neighbors with);
//! * per-instance build time is practical throughout, with the extremes
//!   (many tiny clusters / few huge balls) costing the most.

use netclus::prelude::*;

use crate::{fmt_secs, print_table, Ctx};

pub fn run(ctx: &mut Ctx) {
    let s = ctx.beijing();
    let threads = ctx.cfg.threads;
    // The full ladder the other experiments use: τ ∈ [0.4 km, 8 km).
    let index = NetClusIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        NetClusConfig {
            gamma: 0.75,
            tau_min: 400.0,
            tau_max: 8_000.0,
            threads,
        },
    );

    let mut rows = Vec::new();
    for (p, inst) in index.instances().iter().enumerate() {
        rows.push(vec![
            p.to_string(),
            format!("{:.4}", inst.radius / 1000.0),
            inst.cluster_count().to_string(),
            format!("{:.2}", inst.stats.mean_ball_size),
            format!("{:.2}", inst.stats.mean_traj_list),
            format!("{:.2}", inst.stats.mean_neighbors),
            fmt_secs(inst.stats.build_time),
        ]);
    }
    let header = [
        "p",
        "R_km",
        "clusters",
        "mean_ball",
        "mean_TL",
        "mean_CL",
        "build_s",
    ];
    print_table(
        "Table 11 — per-instance index statistics (γ = 0.75, Beijing-like)",
        &header,
        &rows,
    );
    ctx.write_csv("table11_index_stats", &header, &rows);
}
