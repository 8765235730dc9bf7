//! TOPS-COST: budget-constrained placement (paper Sec. 7.1, Problem 4).
//!
//! Each site has a cost; the solver picks any number of sites whose total
//! cost fits the budget `B`, maximizing utility. Following the budgeted
//! maximum-coverage greedy of Khuller–Moss–Naor (the paper's adaptation):
//! repeatedly take the affordable site maximizing *gain per unit cost*,
//! pruning unaffordable sites; finally, compare against the single best
//! affordable site and return the better of the two — this safeguard turns
//! an arbitrarily-bad ratio into the `(1 − 1/e)/2` guarantee.

use std::time::Instant;

use crate::coverage::CoverageProvider;
use crate::preference::PreferenceFunction;
use crate::solution::Solution;

/// Parameters of a TOPS-COST run.
#[derive(Clone, Debug)]
pub struct CostConfig {
    /// Total budget `B`.
    pub budget: f64,
    /// Coverage threshold `τ` in meters.
    pub tau: f64,
    /// Preference function `ψ`.
    pub preference: PreferenceFunction,
}

/// Solves TOPS-COST over `provider` with per-site `costs` (parallel to the
/// provider's site indices).
///
/// # Panics
/// Panics if `costs.len() != provider.site_count()` or any cost is not
/// positive/finite.
pub fn tops_cost<P: CoverageProvider>(provider: &P, cfg: &CostConfig, costs: &[f64]) -> Solution {
    assert_eq!(
        costs.len(),
        provider.site_count(),
        "one cost per candidate site required"
    );
    assert!(
        costs.iter().all(|&c| c.is_finite() && c > 0.0),
        "costs must be positive and finite"
    );
    let start = Instant::now();
    let n = provider.site_count();
    let m = provider.traj_id_bound();

    // Ratio-greedy pass.
    let mut utilities = vec![0.0f64; m];
    let mut active: Vec<bool> = costs.iter().map(|&c| c <= cfg.budget).collect();
    let mut spent = 0.0f64;
    let mut selected: Vec<usize> = Vec::new();
    let mut gains: Vec<f64> = Vec::new();

    loop {
        let remaining = cfg.budget - spent;
        let mut best: Option<(usize, f64, f64)> = None; // (idx, gain, ratio)
        for i in 0..n {
            if !active[i] || selected.contains(&i) {
                continue;
            }
            if costs[i] > remaining {
                // Paper/KMN: prune sites that no longer fit the budget.
                active[i] = false;
                continue;
            }
            let gain: f64 = provider
                .covered(i)
                .iter()
                .map(|(tj, d)| (cfg.preference.score(d, cfg.tau) - utilities[tj as usize]).max(0.0))
                .sum();
            let ratio = gain / costs[i];
            let better = match best {
                None => true,
                Some((bi, bg, br)) => {
                    ratio > br || (ratio == br && (gain > bg || (gain == bg && i > bi)))
                }
            };
            if better {
                best = Some((i, gain, ratio));
            }
        }
        let Some((s, gain, _)) = best else { break };
        selected.push(s);
        gains.push(gain);
        spent += costs[s];
        for (tj, d) in provider.covered(s).iter() {
            let score = cfg.preference.score(d, cfg.tau);
            if score > utilities[tj as usize] {
                utilities[tj as usize] = score;
            }
        }
    }
    let ratio_utility: f64 = gains.iter().sum();

    // Safeguard: the best single affordable site.
    let mut best_single: Option<(usize, f64)> = None;
    for (i, &cost) in costs.iter().enumerate() {
        if cost > cfg.budget {
            continue;
        }
        let w: f64 = provider
            .covered(i)
            .dists
            .iter()
            .map(|&d| cfg.preference.score(d, cfg.tau))
            .sum();
        if best_single.is_none_or(|(_, bw)| w > bw) {
            best_single = Some((i, w));
        }
    }

    let (site_indices, utility, gains) = match best_single {
        Some((i, w)) if w > ratio_utility => (vec![i], w, vec![w]),
        _ => (selected, ratio_utility, gains),
    };

    let covered = {
        let mut u = vec![0.0f64; m];
        for &i in &site_indices {
            for (tj, d) in provider.covered(i).iter() {
                let s = cfg.preference.score(d, cfg.tau);
                if s > u[tj as usize] {
                    u[tj as usize] = s;
                }
            }
        }
        u.iter().filter(|&&x| x > 0.0).count()
    };

    Solution {
        sites: site_indices
            .iter()
            .map(|&i| provider.site_node(i))
            .collect(),
        site_indices,
        utility,
        gains,
        covered,
        steps: Vec::new(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;

    fn cfg(budget: f64) -> CostConfig {
        CostConfig {
            budget,
            tau: 100.0,
            preference: PreferenceFunction::Binary,
        }
    }

    #[test]
    fn budget_is_respected() {
        let p = ReferenceProvider::binary(6, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![0, 5]]);
        let costs = vec![1.0, 1.0, 1.0, 1.0];
        let sol = tops_cost(&p, &cfg(2.0), &costs);
        assert!(sol.site_indices.iter().map(|&i| costs[i]).sum::<f64>() <= 2.0);
        assert_eq!(sol.site_indices.len(), 2);
        assert_eq!(sol.utility, 4.0);
    }

    #[test]
    fn cheap_sites_preferred_per_ratio() {
        // Site 0: 3 trajectories at cost 3 (ratio 1); sites 1+2: 2 each at
        // cost 1 (ratio 2) — with budget 2, picking the two cheap sites
        // covers 4 > 3.
        let p = ReferenceProvider::binary(7, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        let costs = vec![3.0, 1.0, 1.0];
        let sol = tops_cost(&p, &cfg(2.0), &costs);
        let mut sel = sol.site_indices.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![1, 2]);
        assert_eq!(sol.utility, 4.0);
    }

    #[test]
    fn safeguard_beats_bad_ratio_greedy() {
        // Classic KMN pathology: a tiny cheap site with perfect ratio eats
        // the budget ordering, while one big site nearly exhausts B but
        // covers much more.
        // Site 0: 1 trajectory, cost 0.1 (ratio 10).
        // Site 1: 50 trajectories, cost 2.0 (ratio 25) — affordable.
        // Budget 2.0: ratio-greedy takes site 1 first here, so craft the
        // inverse: make site 0's ratio dominate.
        let mut sets = vec![vec![0u32]];
        sets.push((1..=50).collect());
        let p = ReferenceProvider::binary(51, sets);
        let costs = vec![0.01, 2.0]; // ratios: 100 vs 25
        let sol = tops_cost(&p, &cfg(2.0), &costs);
        // Ratio-greedy picks site 0 (ratio 100), then cannot afford site 1
        // (remaining 1.99) → utility 1. Safeguard: site 1 alone → 50.
        assert_eq!(sol.site_indices, vec![1]);
        assert_eq!(sol.utility, 50.0);
    }

    #[test]
    fn zero_budget_yields_empty() {
        let p = ReferenceProvider::binary(2, vec![vec![0], vec![1]]);
        let sol = tops_cost(&p, &cfg(0.5), &[1.0, 1.0]);
        assert!(sol.site_indices.is_empty());
        assert_eq!(sol.utility, 0.0);
    }

    #[test]
    fn unbounded_budget_takes_all_useful_sites() {
        let p = ReferenceProvider::binary(4, vec![vec![0], vec![1], vec![2, 3]]);
        let sol = tops_cost(&p, &cfg(100.0), &[1.0, 1.0, 1.0]);
        assert_eq!(sol.utility, 4.0);
        assert_eq!(sol.site_indices.len(), 3);
    }

    #[test]
    fn unit_costs_and_budget_k_reduce_to_tops() {
        // Paper Sec. 7.1: TOPS reduces to TOPS-COST with unit costs, B = k.
        use crate::greedy::{inc_greedy, GreedyConfig};
        let p = ReferenceProvider::binary(
            8,
            vec![vec![0, 1, 2], vec![2, 3], vec![4, 5], vec![6], vec![7, 0]],
        );
        let costs = vec![1.0; 5];
        let cost_sol = tops_cost(&p, &cfg(3.0), &costs);
        let greedy_sol = inc_greedy(&p, &GreedyConfig::binary(3, 100.0));
        assert_eq!(cost_sol.utility, greedy_sol.utility);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_costs_rejected() {
        let p = ReferenceProvider::binary(1, vec![vec![0]]);
        tops_cost(&p, &cfg(1.0), &[0.0]);
    }
}
