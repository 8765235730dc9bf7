//! Exact TOPS solver (the paper's "OPT", Sec. 3.1 / Fig. 4).
//!
//! The paper formulates the optimum as an integer linear program and solves
//! it with an off-the-shelf MIP solver at Beijing-Small scale only. Shipping
//! a general MIP solver is out of scope for this reproduction; instead we
//! compute the same optimum with **branch & bound over site subsets** using
//! the submodular greedy bound: for a partial selection `Q` with `r` slots
//! left, `U(Q) + Σ (top-r marginal gains of the remaining sites w.r.t. Q)`
//! upper-bounds every completion of `Q` (each completion's utility is at
//! most the sum of its members' individual marginals by submodularity,
//! Th. 2). Identical optima, feasible exactly where the paper ran OPT
//! (n = 50, k ≤ 15), exponential beyond — as Theorem 1 demands.

use std::time::Instant;

use crate::coverage::CoverageProvider;
use crate::greedy::{inc_greedy, GreedyConfig};
use crate::preference::PreferenceFunction;
use crate::solution::Solution;

/// Parameters of an exact run.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Number of sites to select (`k`).
    pub k: usize,
    /// Coverage threshold `τ` in meters.
    pub tau: f64,
    /// Preference function `ψ`.
    pub preference: PreferenceFunction,
    /// Abort after exploring this many search nodes (`None` = unbounded).
    /// On abort the best solution found so far is returned with
    /// [`ExactResult::proved_optimal`] = false; the search starts from
    /// Inc-Greedy's answer, so that is never below the greedy's.
    pub node_limit: Option<u64>,
}

/// Result of an exact search.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// Best solution found.
    pub solution: Solution,
    /// True if the search completed (the solution is a proven optimum).
    pub proved_optimal: bool,
    /// Search nodes explored.
    pub nodes_explored: u64,
}

/// Runs branch & bound to the proven optimum (or the node limit).
pub fn exact_optimal<P: CoverageProvider>(provider: &P, cfg: &ExactConfig) -> ExactResult {
    let start = Instant::now();
    let n = provider.site_count();
    let m = provider.traj_id_bound();
    let k = cfg.k.min(n);

    // Materialize ψ scores once; sites relabeled by descending weight so
    // strong candidates are explored first (better pruning).
    let psi: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|i| {
            provider
                .covered(i)
                .iter()
                .map(|(tj, d)| (tj, cfg.preference.score(d, cfg.tau)))
                .filter(|&(_, s)| s > 0.0)
                .collect()
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    let weight = |i: usize| -> f64 { psi[i].iter().map(|&(_, s)| s).sum() };
    order.sort_by(|&a, &b| weight(b).total_cmp(&weight(a)).then(a.cmp(&b)));

    let mut search = Search {
        psi: &psi,
        order: &order,
        utilities: vec![0.0f64; m],
        stack: Vec::with_capacity(k),
        best_utility: f64::NEG_INFINITY,
        best_set: Vec::new(),
        nodes: 0,
        node_limit: cfg.node_limit.unwrap_or(u64::MAX),
        aborted: false,
        gain_scratch: Vec::with_capacity(n),
    };
    // Inc-Greedy's answer is the incumbent, so a search cut off by the
    // node limit never reports less than the greedy does.
    let greedy = inc_greedy(
        provider,
        &GreedyConfig {
            k,
            tau: cfg.tau,
            preference: cfg.preference,
        },
    );
    (search.best_utility, search.best_set) = (greedy.utility, greedy.site_indices);
    search.dfs(0, k, 0.0);

    let site_indices = search.best_set.clone();
    let utility = search.best_utility.max(0.0);
    let covered = {
        // Recount coverage of the winning set.
        let mut u = vec![0.0f64; m];
        for &i in &site_indices {
            for &(tj, s) in &psi[i] {
                if s > u[tj as usize] {
                    u[tj as usize] = s;
                }
            }
        }
        u.iter().filter(|&&x| x > 0.0).count()
    };
    ExactResult {
        solution: Solution {
            sites: site_indices
                .iter()
                .map(|&i| provider.site_node(i))
                .collect(),
            site_indices,
            utility,
            gains: Vec::new(),
            covered,
            elapsed: start.elapsed(),
        },
        proved_optimal: !search.aborted,
        nodes_explored: search.nodes,
    }
}

struct Search<'a> {
    psi: &'a [Vec<(u32, f64)>],
    order: &'a [usize],
    utilities: Vec<f64>,
    stack: Vec<usize>,
    best_utility: f64,
    best_set: Vec<usize>,
    nodes: u64,
    node_limit: u64,
    aborted: bool,
    gain_scratch: Vec<f64>,
}

impl Search<'_> {
    /// Explores completions choosing the next selected site among
    /// `order[pos..]`, with `slots` selections remaining and current
    /// utility `current`.
    fn dfs(&mut self, pos: usize, slots: usize, current: f64) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.aborted = true;
            return;
        }
        if current > self.best_utility {
            self.best_utility = current;
            self.best_set = self.stack.clone();
        }
        if slots == 0 || pos >= self.order.len() {
            return;
        }

        // Submodular upper bound: current + top-`slots` marginals.
        self.gain_scratch.clear();
        for &site in &self.order[pos..] {
            self.gain_scratch.push(self.marginal(site));
        }
        let bound = {
            let g = &mut self.gain_scratch;
            let take = slots.min(g.len());
            g.sort_by(|a, b| b.total_cmp(a));
            current + g[..take].iter().sum::<f64>()
        };
        if bound <= self.best_utility + 1e-12 {
            return;
        }

        for i in pos..self.order.len() {
            if self.order.len() - i < slots.saturating_sub(0) && slots > self.order.len() - i {
                break; // not enough sites left to fill the slots
            }
            let site = self.order[i];
            let gain = self.marginal(site);
            let undo = self.apply(site);
            self.stack.push(site);
            self.dfs(i + 1, slots - 1, current + gain);
            self.stack.pop();
            self.revert(undo);
            if self.aborted {
                return;
            }
        }
    }

    fn marginal(&self, site: usize) -> f64 {
        self.psi[site]
            .iter()
            .map(|&(tj, s)| (s - self.utilities[tj as usize]).max(0.0))
            .sum()
    }

    fn apply(&mut self, site: usize) -> Vec<(u32, f64)> {
        let mut undo = Vec::new();
        for &(tj, s) in &self.psi[site] {
            let u = &mut self.utilities[tj as usize];
            if s > *u {
                undo.push((tj, *u));
                *u = s;
            }
        }
        undo
    }

    fn revert(&mut self, undo: Vec<(u32, f64)>) {
        for (tj, old) in undo {
            self.utilities[tj as usize] = old;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;

    /// Brute-force optimum by complete enumeration of `C(n, k)` subsets — the
    /// oracle used in tests to validate [`exact_optimal`]. Exponential; only
    /// call on tiny instances.
    fn exhaustive_optimal<P: CoverageProvider>(provider: &P, cfg: &ExactConfig) -> Solution {
        let start = Instant::now();
        let n = provider.site_count();
        let k = cfg.k.min(n);
        let m = provider.traj_id_bound();
        let mut best_u = -1.0;
        let mut best: Vec<usize> = Vec::new();
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            // Evaluate.
            let mut u = vec![0.0f64; m];
            for &i in &combo {
                for (tj, d) in provider.covered(i).iter() {
                    let s = cfg.preference.score(d, cfg.tau);
                    if s > u[tj as usize] {
                        u[tj as usize] = s;
                    }
                }
            }
            let total: f64 = u.iter().sum();
            if total > best_u {
                best_u = total;
                best = combo.clone();
            }
            // Next combination.
            if k == 0 {
                break;
            }
            let mut i = k;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if combo[i] != i + n - k {
                    combo[i] += 1;
                    for j in i + 1..k {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    return Solution {
                        sites: best.iter().map(|&i| provider.site_node(i)).collect(),
                        site_indices: best,
                        utility: best_u.max(0.0),
                        gains: Vec::new(),
                        covered: 0,
                        elapsed: start.elapsed(),
                    };
                }
            }
            if k == 0 {
                break;
            }
        }
        Solution {
            sites: best.iter().map(|&i| provider.site_node(i)).collect(),
            site_indices: best,
            utility: best_u.max(0.0),
            gains: Vec::new(),
            covered: 0,
            elapsed: start.elapsed(),
        }
    }

    /// Paper Example 1: optimal is {s1, s3} with utility 1.0 while greedy
    /// returns 0.9 (Table 3).
    fn example1() -> ReferenceProvider {
        let d = |psi: f64| (1.0 - psi) * 1000.0;
        ReferenceProvider::new(
            2,
            vec![
                vec![(0, d(0.4))],
                vec![(0, d(0.11)), (1, d(0.5))],
                vec![(1, d(0.6))],
            ],
        )
    }

    fn cfg(k: usize) -> ExactConfig {
        ExactConfig {
            k,
            tau: 1000.0,
            preference: PreferenceFunction::LinearDecay,
            node_limit: None,
        }
    }

    #[test]
    fn example1_optimal_beats_greedy() {
        let p = example1();
        let exact = exact_optimal(&p, &cfg(2));
        assert!(exact.proved_optimal);
        assert!((exact.solution.utility - 1.0).abs() < 1e-9);
        let mut sel = exact.solution.site_indices.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 2]); // {s1, s3}
                                     // Greedy achieves 0.9 — the paper's sub-optimality gap.
        let g = inc_greedy(
            &p,
            &GreedyConfig {
                k: 2,
                tau: 1000.0,
                preference: PreferenceFunction::LinearDecay,
            },
        );
        assert!((g.utility - 0.9).abs() < 1e-9);
        assert!(exact.solution.utility > g.utility);
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for trial in 0..30 {
            let m = rng.random_range(1..16);
            let n: usize = rng.random_range(1..10);
            let k = rng.random_range(1..=n.min(4));
            let tc: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|_| {
                    let mut list = Vec::new();
                    for t in 0..m {
                        if rng.random::<f64>() < 0.35 {
                            list.push((t as u32, rng.random_range(0.0..1000.0)));
                        }
                    }
                    list
                })
                .collect();
            let p = ReferenceProvider::new(m, tc);
            let c = cfg(k);
            let bb = exact_optimal(&p, &c);
            let brute = exhaustive_optimal(&p, &c);
            assert!(bb.proved_optimal, "trial {trial}");
            assert!(
                (bb.solution.utility - brute.utility).abs() < 1e-9,
                "trial {trial}: b&b {} vs brute {}",
                bb.solution.utility,
                brute.utility
            );
        }
    }

    #[test]
    fn optimal_at_least_greedy_always() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let m = rng.random_range(2..20);
            let n: usize = rng.random_range(2..9);
            let k = rng.random_range(1..=n.min(3));
            let tc: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|_| {
                    (0..m)
                        .filter(|_| rng.random::<f64>() < 0.4)
                        .map(|t| (t as u32, 0.0))
                        .collect()
                })
                .collect();
            let p = ReferenceProvider::new(m, tc);
            let exact = exact_optimal(
                &p,
                &ExactConfig {
                    k,
                    tau: 100.0,
                    preference: PreferenceFunction::Binary,
                    node_limit: None,
                },
            );
            let greedy = inc_greedy(&p, &GreedyConfig::binary(k, 100.0));
            assert!(exact.solution.utility >= greedy.utility - 1e-9);
            // And the greedy bound (1 - 1/e) holds.
            assert!(
                greedy.utility >= (1.0 - 1.0 / std::f64::consts::E) * exact.solution.utility - 1e-9,
                "greedy {} below bound of optimal {}",
                greedy.utility,
                exact.solution.utility
            );
        }
    }

    #[test]
    fn node_limit_aborts_gracefully() {
        let p = example1();
        let r = exact_optimal(
            &p,
            &ExactConfig {
                node_limit: Some(1),
                ..cfg(2)
            },
        );
        assert!(!r.proved_optimal);
        assert!(r.nodes_explored >= 1);
    }

    /// A search the node limit stops at its root still answers at least
    /// what Inc-Greedy answers: the incumbent is the greedy's set, ties
    /// broken alike, so binary ψ's many tied gains cannot leave it below.
    #[test]
    fn a_node_limit_never_reports_less_than_greedy() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        for trial in 0..40 {
            let m = rng.random_range(5..40);
            let n: usize = rng.random_range(3..12);
            let k = rng.random_range(1..=n.min(5));
            let tc: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|_| {
                    let mut row = Vec::new();
                    for t in 0..m {
                        if rng.random::<f64>() < 0.3 {
                            row.push((t as u32, rng.random_range(0.0..1000.0)));
                        }
                    }
                    row
                })
                .collect();
            let p = ReferenceProvider::new(m, tc);
            let preference = if trial % 2 == 0 {
                PreferenceFunction::LinearDecay
            } else {
                PreferenceFunction::Binary
            };
            let cut = exact_optimal(
                &p,
                &ExactConfig {
                    preference,
                    node_limit: Some(1),
                    ..cfg(k)
                },
            );
            let greedy = inc_greedy(
                &p,
                &GreedyConfig {
                    k,
                    tau: 1000.0,
                    preference,
                },
            );
            assert!(
                cut.solution.utility >= greedy.utility - 1e-9,
                "trial {trial}: cut search {} below greedy {}",
                cut.solution.utility,
                greedy.utility
            );
            assert_eq!(cut.solution.site_indices.len(), k, "trial {trial}");
        }
    }

    #[test]
    fn k_zero_is_empty() {
        let p = example1();
        let r = exact_optimal(&p, &cfg(0));
        assert!(r.proved_optimal);
        assert!(r.solution.site_indices.is_empty());
        assert_eq!(r.solution.utility, 0.0);
    }

    #[test]
    fn k_equals_n_takes_everything() {
        let p = example1();
        let r = exact_optimal(&p, &cfg(3));
        assert!((r.solution.utility - 1.0).abs() < 1e-9);
        assert_eq!(r.solution.site_indices.len(), 3);
    }
}
