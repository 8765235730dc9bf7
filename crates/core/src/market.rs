//! TOPS4: minimum sites for a fixed market share (paper Sec. 7.4).
//!
//! Complementary to TOPS1: find the **smallest** site set covering at least
//! a `β` fraction of the trajectories. Inc-Greedy runs open-endedly,
//! selecting the maximal-marginal site until the coverage target is met —
//! the classic greedy set-cover heuristic with its `1 + ln n` bound.
//!
//! It is the counting kernel of [`crate::greedy`] on the CELF machine, over
//! every id of every row: a site's uncovered count only falls as sites are
//! picked, so a stale heap entry bounds its fresh one. The run stops at the
//! target or at a best count of zero; ties go to the higher index.

use std::time::Instant;

use crate::coverage::CoverageProvider;
use crate::greedy::{celf, Counted, Rule};
use crate::solution::Solution;

/// Parameters of a TOPS4 run.
#[derive(Clone, Copy, Debug)]
pub struct MarketShareConfig {
    /// Required covered fraction `β ∈ (0, 1]` of the trajectories that are
    /// coverable at all.
    pub beta: f64,
    /// Count the target against all `m` trajectories (`true`, the paper's
    /// formulation) or only against those coverable by some candidate site
    /// (`false`; avoids infeasibility when isolated trajectories exist).
    pub of_total: bool,
}

/// Result of a TOPS4 run.
#[derive(Clone, Debug)]
pub struct MarketShareResult {
    /// The selected sites (see [`Solution`]); `utility` is the covered
    /// count.
    pub solution: Solution,
    /// True if the β target was reached (it cannot be if β exceeds the
    /// coverable fraction).
    pub target_met: bool,
    /// The coverage target in trajectory counts.
    pub target: usize,
}

/// TOPS4's rule: key the count alone, and stop at the target.
struct Target(usize);

impl Rule for Target {
    fn key(&self, _i: usize, gain: f64, _weight: f64) -> (f64, f64) {
        (gain, 0.0)
    }

    fn take(&mut self, _i: usize, gain: f64, covered: usize) -> bool {
        covered < self.0 && gain > 0.0
    }
}

/// Runs greedy TOPS4 over `provider` (binary preference implied).
pub fn tops_market_share<P: CoverageProvider>(
    provider: &P,
    cfg: &MarketShareConfig,
) -> MarketShareResult {
    assert!(
        cfg.beta > 0.0 && cfg.beta <= 1.0,
        "β must be in (0, 1], got {}",
        cfg.beta
    );
    let start = Instant::now();
    let rows = provider.rows();
    let mut coverable = vec![false; rows.traj_id_bound()];
    let ids = (0..rows.site_count()).flat_map(|i| rows.row(i).ids);
    ids.for_each(|&t| coverable[t as usize] = true);
    let universe = if cfg.of_total {
        coverable.len()
    } else {
        coverable.iter().filter(|&&c| c).count()
    };
    let target = (cfg.beta * universe as f64).ceil() as usize;
    let (kernel, weights) = Counted::new(rows, f64::INFINITY);
    let run = celf(kernel, Target(target), &weights, weights.len(), &[], None);
    let solution = run.solution(rows, start);
    MarketShareResult {
        target_met: solution.covered >= target,
        target,
        solution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;
    use crate::greedy::{assert_identical, twin_rows};
    use proptest::prelude::*;

    /// The eager loop [`tops_market_share`] ran before CELF: until the
    /// target is met, every round counts every unchosen site's uncovered
    /// ids and takes the largest count, then the higher index; a best
    /// count of zero ends the run.
    fn eager_twin<P: CoverageProvider>(provider: &P, cfg: &MarketShareConfig) -> MarketShareResult {
        let start = Instant::now();
        let n = provider.site_count();
        let m = provider.traj_id_bound();

        // Live trajectory universe: ids appearing in any covered list.
        let mut coverable = vec![false; m];
        for i in 0..n {
            for &t in provider.covered(i).ids {
                coverable[t as usize] = true;
            }
        }
        let coverable_count = coverable.iter().filter(|&&c| c).count();
        let universe = if cfg.of_total { m } else { coverable_count };
        let target = (cfg.beta * universe as f64).ceil() as usize;

        let mut covered = vec![false; m];
        let mut covered_count = 0usize;
        let mut chosen = vec![false; n];
        let mut selected = Vec::new();
        let mut gains = Vec::new();

        while covered_count < target {
            let mut best: Option<(usize, usize)> = None;
            for (i, &taken) in chosen.iter().enumerate() {
                if taken {
                    continue;
                }
                let gain = provider
                    .covered(i)
                    .ids
                    .iter()
                    .filter(|&&t| !covered[t as usize])
                    .count();
                let better = match best {
                    None => true,
                    Some((bi, bg)) => gain > bg || (gain == bg && i > bi),
                };
                if better {
                    best = Some((i, gain));
                }
            }
            match best {
                Some((_, 0)) | None => break, // no site adds coverage
                Some((s, gain)) => {
                    chosen[s] = true;
                    selected.push(s);
                    gains.push(gain as f64);
                    for &t in provider.covered(s).ids {
                        if !covered[t as usize] {
                            covered[t as usize] = true;
                            covered_count += 1;
                        }
                    }
                }
            }
        }

        MarketShareResult {
            target_met: covered_count >= target,
            target,
            solution: Solution {
                sites: selected.iter().map(|&i| provider.site_node(i)).collect(),
                site_indices: selected,
                utility: covered_count as f64,
                gains,
                covered: covered_count,
                steps: Vec::new(),
                elapsed: start.elapsed(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// CELF's counting greedy ≡ the eager twin, target included, for
        /// β from 1/16 to 1 against both universes.
        #[test]
        fn celf_equals_eager_twin(p in twin_rows(), sixteenths in 1u32..=16, of_total in any::<bool>()) {
            let cfg = MarketShareConfig { beta: f64::from(sixteenths) / 16.0, of_total };
            let (celf, twin) = (tops_market_share(&p, &cfg), eager_twin(&p, &cfg));
            let what = format!("{cfg:?}");
            assert_identical(&celf.solution, &twin.solution, &what);
            prop_assert_eq!((celf.target, celf.target_met), (twin.target, twin.target_met), "{}", what);
        }
    }

    #[test]
    fn covers_requested_fraction_with_min_sites() {
        // Three disjoint sites of sizes 5, 3, 2 over 10 trajectories.
        let p = ReferenceProvider::binary(
            10,
            vec![(0..5).collect(), (5..8).collect(), (8..10).collect()],
        );
        let r = tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 0.5,
                of_total: true,
            },
        );
        assert!(r.target_met);
        assert_eq!(r.target, 5);
        assert_eq!(r.solution.site_indices, vec![0]); // one site suffices
        let r80 = tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 0.8,
                of_total: true,
            },
        );
        assert!(r80.target_met);
        assert_eq!(r80.solution.site_indices.len(), 2);
    }

    #[test]
    fn full_share_selects_until_complete() {
        let p =
            ReferenceProvider::binary(6, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![0, 2, 4]]);
        let r = tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 1.0,
                of_total: true,
            },
        );
        assert!(r.target_met);
        assert_eq!(r.solution.covered, 6);
    }

    #[test]
    fn infeasible_target_reports_unmet() {
        // Trajectory 3 is uncoverable.
        let p = ReferenceProvider::binary(4, vec![vec![0, 1], vec![2]]);
        let r = tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 1.0,
                of_total: true,
            },
        );
        assert!(!r.target_met);
        assert_eq!(r.solution.covered, 3);
        // Against the coverable universe the same β is feasible.
        let r2 = tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 1.0,
                of_total: false,
            },
        );
        assert!(r2.target_met);
        assert_eq!(r2.target, 3);
    }

    #[test]
    fn greedy_is_set_cover_greedy() {
        // Greedy picks the largest set first even when a smaller exact
        // cover exists — the classic ln(n) behaviour.
        let p = ReferenceProvider::binary(
            6,
            vec![
                vec![0, 1, 2, 3], // greedy takes this
                vec![0, 1, 4],
                vec![2, 3, 5],
            ],
        );
        let r = tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 1.0,
                of_total: true,
            },
        );
        assert_eq!(r.solution.site_indices[0], 0);
        assert_eq!(r.solution.site_indices.len(), 3);
    }

    #[test]
    #[should_panic(expected = "β must be")]
    fn invalid_beta_panics() {
        let p = ReferenceProvider::binary(1, vec![vec![0]]);
        tops_market_share(
            &p,
            &MarketShareConfig {
                beta: 0.0,
                of_total: true,
            },
        );
    }
}
