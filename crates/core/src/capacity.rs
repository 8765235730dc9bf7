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
//!
//! It runs on the CELF machine of [`crate::greedy`]. As utilities rise,
//! each per-trajectory gain falls, so the `α`-th largest does too, and a
//! site's gain adds them largest first, so rounding cannot make the sum
//! rise: a stale heap entry bounds its fresh one. Ties go to the larger
//! capped weight (the capped gain at zero utility), then the higher index.

use std::time::Instant;

use crate::coverage::{CoverageProvider, RowsView};
use crate::greedy::{celf, sum, IncGreedy, Kernel};
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

/// The capped top-α kernel over one `f64` utility per trajectory.
struct Capped<'a> {
    rows: RowsView<'a>,
    cfg: &'a CapacityConfig,
    capacities: &'a [u64],
    utilities: Vec<f64>,
    /// [`Capped::kept`]'s last answer.
    kept: Vec<(f64, u32, f64)>,
}

impl<'a> Capped<'a> {
    /// The kernel at zero utility.
    fn new(rows: RowsView<'a>, cfg: &'a CapacityConfig, capacities: &'a [u64]) -> Self {
        Capped {
            rows,
            cfg,
            capacities,
            utilities: vec![0.0; rows.traj_id_bound()],
            kept: Vec::new(),
        }
    }

    /// The `(gain, id, ψ)` of site `i`'s `cap` largest positive
    /// per-trajectory gains, largest first, the lower id first on a tie.
    fn kept(&mut self, i: usize) -> &[(f64, u32, f64)] {
        let (cfg, utilities) = (self.cfg, &self.utilities);
        self.kept.clear();
        self.kept
            .extend(self.rows.row(i).iter().filter_map(|(tj, d)| {
                let score = cfg.preference.score(d, cfg.tau);
                let gain = score - utilities[tj as usize];
                (gain > 0.0).then_some((gain, tj, score))
            }));
        self.kept
            .sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        self.kept.truncate(self.capacities[i] as usize);
        &self.kept
    }
}

impl Kernel for Capped<'_> {
    /// The capped marginal utility: the kept gains, largest first.
    fn gain(&mut self, i: usize) -> f64 {
        sum(self.kept(i).iter().map(|k| k.0))
    }

    /// Assigns site `i` to the trajectories of its kept gains.
    fn select(&mut self, i: usize) -> usize {
        self.kept(i);
        let mut newly = 0;
        for &(_, tj, score) in &self.kept {
            newly += usize::from(self.utilities[tj as usize] <= 0.0);
            self.utilities[tj as usize] = score;
        }
        newly
    }
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
    let mut kernel = Capped::new(provider.rows(), cfg, capacities);
    let weights: Vec<f64> = (0..capacities.len()).map(|i| kernel.gain(i)).collect();
    let rows = kernel.rows;
    celf(kernel, IncGreedy, &weights, cfg.k, &[], None).solution(rows, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;
    use crate::greedy::{assert_identical, inc_greedy, twin_rows, GreedyConfig, TWIN_TAU};
    use proptest::prelude::*;

    /// The eager loop [`tops_capacity`] ran before CELF: every round scores
    /// every unchosen site with the kernel's gain and takes the best gain,
    /// then the larger capped weight, then the higher index.
    fn eager_twin<P: CoverageProvider>(
        provider: &P,
        cfg: &CapacityConfig,
        capacities: &[u64],
    ) -> Solution {
        let start = Instant::now();
        let n = provider.site_count();
        let mut kernel = Capped::new(provider.rows(), cfg, capacities);
        let mut chosen = vec![false; n];
        let mut selected = Vec::with_capacity(cfg.k);
        let mut gains = Vec::with_capacity(cfg.k);
        let weights: Vec<f64> = (0..n).map(|i| kernel.gain(i)).collect();

        for _ in 0..cfg.k.min(n) {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if chosen[i] {
                    continue;
                }
                let gain = kernel.gain(i);
                let better = match best {
                    None => true,
                    Some((bi, bg)) => {
                        gain > bg
                            || (gain == bg
                                && (weights[i] > weights[bi]
                                    || (weights[i] == weights[bi] && i > bi)))
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
            // Assign the site to its top-α trajectories: collect the
            // marginal gains again and raise exactly the largest cap(s).
            let utilities = &mut kernel.utilities;
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

        let covered = kernel.utilities.iter().filter(|&&u| u > 0.0).count();
        Solution {
            sites: selected.iter().map(|&i| provider.site_node(i)).collect(),
            site_indices: selected,
            utility: sum(gains.iter().copied()),
            gains,
            covered,
            steps: Vec::new(),
            elapsed: start.elapsed(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// CELF's capped greedy ≡ the eager twin, over capacities from 0
        /// to one past the row's length and every `k` up to all sites.
        #[test]
        fn celf_equals_eager_twin(
            p in twin_rows(),
            spare in prop::collection::vec(0usize..=11, 12),
            k in 1usize..14,
        ) {
            let rows = p.rows();
            let capacities: Vec<u64> = (0..p.site_count())
                .map(|i| (spare[i] % (rows.row(i).len() + 2)) as u64)
                .collect();
            for preference in [PreferenceFunction::Binary, PreferenceFunction::LinearDecay] {
                let cfg = CapacityConfig { k, tau: TWIN_TAU, preference };
                let what = format!("{preference:?} k {k} capacities {capacities:?}");
                let twin = eager_twin(&p, &cfg, &capacities);
                assert_identical(&tops_capacity(&p, &cfg, &capacities), &twin, &what);
            }
        }

        /// The capped gain never rises as utilities rise, rounding
        /// included: what makes a stale CELF entry a bound. Arbitrary
        /// distances, so the sums do round. After random raises, each
        /// trajectory's gain is closed, the smallest first, so the count
        /// of positive gains falls through the capacity.
        #[test]
        fn capped_gain_never_rises_as_utilities_rise(
            dists in prop::collection::vec(0.0f64..1000.0, 1..12),
            cap in 0u64..13,
            raises in prop::collection::vec((0usize..12, 0.0f64..1.0), 0..12),
        ) {
            let m = dists.len();
            let cfg = CapacityConfig { k: 1, tau: 1000.0, preference: PreferenceFunction::LinearDecay };
            let scores: Vec<f64> = dists.iter().map(|&d| cfg.preference.score(d, cfg.tau)).collect();
            let mut row: Vec<(u32, f64)> = (0..m as u32).zip(dists).collect();
            row.sort_by(|a, b| a.1.total_cmp(&b.1));
            let p = ReferenceProvider::new(m, vec![row]);
            let capacities = [cap];
            let mut kernel = Capped::new(p.rows(), &cfg, &capacities);
            let mut last = kernel.gain(0);
            let mut raise = |kernel: &mut Capped, j: usize, u: f64| {
                kernel.utilities[j] = f64::max(kernel.utilities[j], u);
                let gain = kernel.gain(0);
                assert!(gain <= last, "cap {cap}: {last} rose to {gain}");
                last = gain;
            };
            for (j, u) in raises {
                raise(&mut kernel, j % m, u);
            }
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| {
                let gain = |j: usize| scores[j] - kernel.utilities[j];
                gain(a).total_cmp(&gain(b))
            });
            for j in order {
                raise(&mut kernel, j, scores[j]);
            }
        }
    }

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
