//! TOPS-CAPACITY: capacity-constrained placement (paper Sec. 7.2,
//! Problem 5).
//!
//! Each site can serve at most `cap(s_i)` trajectories. Following the
//! paper's adaptation of Inc-Greedy: a site's marginal utility is the sum
//! of its `α_i = min(|TC(s_i)|, cap(s_i))` **largest** per-trajectory
//! marginal gains; on selection the site is assigned to exactly those
//! trajectories, whose utilities then rise. The objective keeps the
//! monotone submodular structure, so the `1 − 1/e` bound carries over
//! (paper Sec. 7.2).

use std::time::Instant;

use crate::coverage::CoverageProvider;
use crate::preference::PreferenceFunction;
use crate::solution::Solution;

/// Parameters of a TOPS-CAPACITY run.
#[derive(Clone, Debug)]
pub struct CapacityConfig {
    /// Number of sites to select (`k`).
    pub k: usize,
    /// Coverage threshold `τ` in meters.
    pub tau: f64,
    /// Preference function `ψ`.
    pub preference: PreferenceFunction,
}

/// Solves TOPS-CAPACITY over `provider` with per-site `capacities`
/// (maximum trajectories each site may serve).
///
/// Returns the solution plus, via [`Solution::gains`], the capped marginal
/// utility realized at each step.
pub fn tops_capacity<P: CoverageProvider>(
    provider: &P,
    cfg: &CapacityConfig,
    capacities: &[u64],
) -> Solution {
    assert_eq!(
        capacities.len(),
        provider.site_count(),
        "one capacity per candidate site required"
    );
    let start = Instant::now();
    let n = provider.site_count();
    let m = provider.traj_id_bound();
    let mut utilities = vec![0.0f64; m];
    let mut chosen = vec![false; n];
    let mut selected = Vec::with_capacity(cfg.k);
    let mut gains = Vec::with_capacity(cfg.k);
    // Scratch for the per-site top-α computation.
    let mut deltas: Vec<f64> = Vec::new();
    // Capped site weights: the Inc-Greedy tie-breaking key (paper order:
    // max gain → max weight → highest index).
    let zeros = vec![0.0f64; m];
    let weights: Vec<f64> = (0..n)
        .map(|i| capped_gain(provider, cfg, i, capacities[i], &zeros, &mut deltas))
        .collect();

    for _ in 0..cfg.k.min(n) {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if chosen[i] {
                continue;
            }
            let gain = capped_gain(provider, cfg, i, capacities[i], &utilities, &mut deltas);
            let better = match best {
                None => true,
                Some((bi, bg)) => {
                    gain > bg
                        || (gain == bg
                            && (weights[i] > weights[bi] || (weights[i] == weights[bi] && i > bi)))
                }
            };
            if better {
                best = Some((i, gain));
            }
        }
        let Some((s, gain)) = best else { break };
        chosen[s] = true;
        selected.push(s);
        gains.push(gain);
        // Assign the site to its top-α trajectories: collect the marginal
        // gains again and raise exactly the largest cap(s) of them.
        deltas.clear();
        let mut entries: Vec<(usize, f64, f64)> = provider
            .covered(s)
            .iter()
            .filter_map(|(tj, d)| {
                let score = cfg.preference.score(d, cfg.tau);
                let delta = score - utilities[tj as usize];
                (delta > 0.0).then_some((tj as usize, score, delta))
            })
            .collect();
        entries.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        for &(j, score, _) in entries.iter().take(capacities[s] as usize) {
            utilities[j] = score;
        }
    }

    let covered = utilities.iter().filter(|&&u| u > 0.0).count();
    Solution {
        sites: selected.iter().map(|&i| provider.site_node(i)).collect(),
        site_indices: selected,
        utility: gains.iter().sum(),
        gains,
        covered,
        steps: Vec::new(),
        elapsed: start.elapsed(),
    }
}

/// Sum of the `cap` largest positive per-trajectory marginal gains of site
/// `i` — its capped marginal utility.
fn capped_gain<P: CoverageProvider>(
    provider: &P,
    cfg: &CapacityConfig,
    i: usize,
    cap: u64,
    utilities: &[f64],
    deltas: &mut Vec<f64>,
) -> f64 {
    deltas.clear();
    for (tj, d) in provider.covered(i).iter() {
        let delta = cfg.preference.score(d, cfg.tau) - utilities[tj as usize];
        if delta > 0.0 {
            deltas.push(delta);
        }
    }
    let cap = cap as usize;
    if deltas.len() > cap {
        // Partial selection of the top `cap` gains.
        deltas.sort_by(|a, b| b.total_cmp(a));
        deltas.truncate(cap);
    }
    deltas.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;
    use crate::greedy::{inc_greedy, GreedyConfig};

    fn cfg(k: usize) -> CapacityConfig {
        CapacityConfig {
            k,
            tau: 100.0,
            preference: PreferenceFunction::Binary,
        }
    }

    #[test]
    fn capacity_caps_marginal_utility() {
        // Site 0 covers 5 trajectories but can serve only 2.
        let p = ReferenceProvider::binary(5, vec![vec![0, 1, 2, 3, 4]]);
        let sol = tops_capacity(&p, &cfg(1), &[2]);
        assert_eq!(sol.utility, 2.0);
        assert_eq!(sol.covered, 2);
    }

    #[test]
    fn capped_site_loses_to_uncapped_rival() {
        // Site 0 covers 4 (cap 1); site 1 covers 2 (cap 10): site 1's
        // capped gain (2) beats site 0's (1).
        let p = ReferenceProvider::binary(6, vec![vec![0, 1, 2, 3], vec![4, 5]]);
        let sol = tops_capacity(&p, &cfg(1), &[1, 10]);
        assert_eq!(sol.site_indices, vec![1]);
        assert_eq!(sol.utility, 2.0);
    }

    #[test]
    fn infinite_capacity_reduces_to_tops() {
        // Paper Sec. 7.2: capacity ≥ m reduces to plain TOPS.
        let p = ReferenceProvider::binary(
            8,
            vec![vec![0, 1, 2], vec![2, 3], vec![4, 5], vec![6, 7, 0]],
        );
        let caps = vec![u64::MAX; 4];
        let capped = tops_capacity(&p, &cfg(2), &caps);
        let plain = inc_greedy(&p, &GreedyConfig::binary(2, 100.0));
        assert_eq!(capped.utility, plain.utility);
        assert_eq!(capped.site_indices, plain.site_indices);
    }

    #[test]
    fn served_trajectories_become_unattractive() {
        // Site 0 (cap 2) serves T0, T1 of {T0, T1}; site 1 covers {T0, T1}
        // too — after site 0 is placed, site 1 adds nothing; site 2 with a
        // fresh trajectory wins round two.
        let p = ReferenceProvider::binary(3, vec![vec![0, 1], vec![0, 1], vec![2]]);
        let sol = tops_capacity(&p, &cfg(2), &[2, 2, 2]);
        assert_eq!(sol.utility, 3.0);
        let mut sel = sol.site_indices.clone();
        sel.sort_unstable();
        assert!(sel.contains(&2));
    }

    #[test]
    fn zero_capacity_site_is_useless() {
        let p = ReferenceProvider::binary(3, vec![vec![0, 1, 2], vec![0]]);
        let sol = tops_capacity(&p, &cfg(1), &[0, 1]);
        assert_eq!(sol.site_indices, vec![1]);
        assert_eq!(sol.utility, 1.0);
    }

    #[test]
    fn graded_preference_assigns_best_gains_first() {
        // Site 0 covers T0 at score 1.0 and T1 at score 0.5, cap 1: it must
        // serve T0.
        let p = ReferenceProvider::new(2, vec![vec![(0, 0.0), (1, 50.0)]]);
        let sol = tops_capacity(
            &p,
            &CapacityConfig {
                k: 1,
                tau: 100.0,
                preference: PreferenceFunction::LinearDecay,
            },
            &[1],
        );
        assert_eq!(sol.utility, 1.0);
        assert_eq!(sol.covered, 1);
    }

    #[test]
    fn utility_bounded_by_capacity_and_converges_to_tops() {
        // Note: greedy-with-capacities is NOT monotone in the capacity (a
        // tighter cap can steer tie-breaks toward a better split), so we
        // assert the sound properties instead: utility never exceeds the
        // total capacity, is zero at cap 0, and equals plain TOPS once the
        // capacity stops binding.
        let p = ReferenceProvider::binary(10, vec![(0..10).collect(), (0..5).collect()]);
        for cap in [0u64, 1, 3, 5, 8, 20] {
            let sol = tops_capacity(&p, &cfg(2), &[cap, cap]);
            assert!(
                sol.utility <= (2 * cap) as f64 + 1e-9,
                "cap {cap}: utility {} exceeds total capacity",
                sol.utility
            );
        }
        assert_eq!(tops_capacity(&p, &cfg(2), &[0, 0]).utility, 0.0);
        let unbounded = tops_capacity(&p, &cfg(2), &[20, 20]);
        let plain = inc_greedy(&p, &GreedyConfig::binary(2, 100.0));
        assert_eq!(unbounded.utility, plain.utility);
        assert_eq!(unbounded.utility, 10.0);
    }
}
