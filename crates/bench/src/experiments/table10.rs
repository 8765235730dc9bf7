//! Table 10 — dynamic-update cost (paper Sec. 8.8).
//!
//! Paper shape: indexing a batch of new trajectories scales linearly in the
//! batch size and costs seconds-to-minutes; adding candidate sites is far
//! cheaper (just a cluster lookup + representative re-election per site),
//! and grows sub-linearly.

use std::time::Instant;

use netclus_datagen::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runners::build_index;
use crate::{print_table, Ctx};

pub fn run(ctx: &mut Ctx) {
    let s = ctx.beijing();
    let threads = ctx.cfg.threads;
    // Batch sizes scaled from the paper's 10k..50k.
    let batches: Vec<usize> = [10_000f64, 20_000.0, 30_000.0, 40_000.0, 50_000.0]
        .iter()
        .map(|b| ((b * ctx.cfg.scale) as usize).max(100))
        .collect();

    let mut rows = Vec::new();
    for &batch in &batches {
        // --- Trajectory additions. -----------------------------------------
        let mut trajs = s.trajectories.clone();
        let mut index = build_index(&s, 400.0, 2_000.0, 0.75, threads);
        let mut rng = StdRng::seed_from_u64(ctx.cfg.seed ^ batch as u64);
        let mut gen = WorkloadGenerator::new(&s.net, &s.grid, &s.hotspots);
        let new_trajs = gen.generate(
            &WorkloadConfig {
                count: batch,
                ..Default::default()
            },
            &mut rng,
        );
        let t = Instant::now();
        let mut pairs = Vec::with_capacity(new_trajs.len());
        for nt in new_trajs {
            let id = trajs.add(nt.clone());
            pairs.push((id, nt));
        }
        index.add_trajectories(pairs.iter().map(|(id, t)| (*id, t)));
        let traj_time = t.elapsed();

        // --- Site additions. -------------------------------------------------
        // Rebuild with half the candidate sites, then add `batch` of the
        // held-out ones (capped by availability).
        let half: Vec<_> = s.sites.iter().copied().step_by(2).collect();
        let held_out: Vec<_> = s.sites.iter().copied().skip(1).step_by(2).collect();
        let mut s_half = (*s).clone();
        s_half.sites = half;
        let mut index = build_index(&s_half, 400.0, 2_000.0, 0.75, threads);
        let add: Vec<_> = held_out.into_iter().take(batch).collect();
        let added = add.len();
        let t = Instant::now();
        for v in add {
            index.add_site(v);
        }
        let site_time = t.elapsed();

        rows.push(vec![
            batch.to_string(),
            format!("{:.1}", traj_time.as_secs_f64() * 1e3),
            added.to_string(),
            format!("{:.3}", site_time.as_secs_f64() * 1e3),
        ]);
    }
    let header = [
        "traj_added",
        "traj_update_ms",
        "sites_added",
        "site_update_ms",
    ];
    print_table(
        "Table 10 — index update cost: batch trajectory and site additions",
        &header,
        &rows,
    );
    ctx.write_csv("table10_updates", &header, &rows);
}
