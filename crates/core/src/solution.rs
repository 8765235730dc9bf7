//! Solution types and exact solution evaluation.

use std::time::Duration;

use netclus_roadnet::{NodeId, RoadNetwork};
use netclus_trajectory::TrajectorySet;

use crate::detour::{DetourEngine, DetourModel};
use crate::preference::PreferenceFunction;

/// The result of a TOPS solver run.
#[derive(Clone, Debug, Default)]
pub struct Solution {
    /// Selected sites as indices into the provider's site list, in
    /// selection order.
    pub site_indices: Vec<usize>,
    /// Selected sites as network nodes, in selection order.
    pub sites: Vec<NodeId>,
    /// Objective value as seen by the solver (for NetClus this uses the
    /// *estimated* distances `d̂r`; see [`evaluate_sites`] for exact
    /// re-evaluation).
    pub utility: f64,
    /// Marginal utility gained at each selection step.
    pub gains: Vec<f64>,
    /// Trajectories with positive utility under the solver's view.
    pub covered: usize,
    /// `(utility, covered)` after each pick: `steps[i]` is what the run
    /// reports after its first `i` picks (`steps[0]`: before any). Filled
    /// by FM greedy and by every solver on the CELF machine — Inc-Greedy,
    /// TOPS-COST, TOPS-CAPACITY and TOPS4 — and empty from the others
    /// (Algorithm 1, the exact solver). Only Inc-Greedy's and FM greedy's
    /// are cut by [`Solution::prefix`], which the serving layer relies on.
    pub steps: Vec<(f64, usize)>,
    /// Wall-clock solver time (excluding any index/coverage construction).
    pub elapsed: Duration,
}

impl Solution {
    /// The answer a run for `k` would give — the one place a prefix is
    /// cut. Inc-Greedy and FM greedy never read `k` while choosing, so the
    /// `k`-run is the first `k` picks of any longer run at the same query:
    /// its sites, its gains, and the utility and coverage of
    /// [`Solution::steps`] at that many picks, bit for bit. A `k` past this
    /// run's picks returns the whole run (the solver ran out of sites).
    ///
    /// # Panics
    /// Panics if the solver recorded no [`Solution::steps`].
    pub fn prefix(&self, k: usize) -> Solution {
        let (picks, utility, covered) = self.at(k);
        Solution {
            site_indices: self.site_indices[..picks].to_vec(),
            sites: self.sites[..picks].to_vec(),
            utility,
            gains: self.gains[..picks].to_vec(),
            covered,
            steps: self.steps[..=picks].to_vec(),
            elapsed: self.elapsed,
        }
    }

    /// `(picks, utility, covered)` of the run for `k`: what
    /// [`Solution::prefix`] cuts, for a caller that copies only the sites.
    ///
    /// # Panics
    /// Panics if the solver recorded no [`Solution::steps`].
    pub fn at(&self, k: usize) -> (usize, f64, usize) {
        assert!(!self.steps.is_empty(), "this solver records no steps");
        let picks = k.min(self.steps.len() - 1);
        let (utility, covered) = self.steps[picks];
        (picks, utility, covered)
    }

    /// Utility as a percentage of the trajectory count — the paper's primary
    /// quality metric ("utilities are plotted as a percentage of the total
    /// number of trajectories", Sec. 8.3).
    pub fn utility_percent(&self, total_trajectories: usize) -> f64 {
        if total_trajectories == 0 {
            0.0
        } else {
            100.0 * self.utility / total_trajectories as f64
        }
    }
}

/// Exact evaluation of a set of sites.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalResult {
    /// `U(Q) = Σ_j max_{s ∈ Q} ψ(T_j, s)` with exact detour distances.
    pub utility: f64,
    /// Number of trajectories with positive utility.
    pub covered: usize,
}

impl EvalResult {
    /// Utility as a percentage of the trajectory count.
    pub fn utility_percent(&self, total_trajectories: usize) -> f64 {
        if total_trajectories == 0 {
            0.0
        } else {
            100.0 * self.utility / total_trajectories as f64
        }
    }
}

/// Evaluates `U(Q)` for an explicit site set `Q` with **exact** detour
/// distances (one bounded Dijkstra pair per site — cheap for `|Q| = k`).
///
/// This is how all quality comparisons in the benchmark harness score
/// solutions, so approximate solvers (NetClus, FM variants) are measured by
/// the true utility of the sites they return, exactly like the paper.
pub fn evaluate_sites(
    net: &RoadNetwork,
    trajs: &TrajectorySet,
    sites: &[NodeId],
    tau: f64,
    preference: PreferenceFunction,
    model: DetourModel,
) -> EvalResult {
    let mut eng = DetourEngine::new(net, model);
    let mut best = vec![0.0f64; trajs.id_bound()];
    let effective_tau = preference.effective_tau(tau);
    for &s in sites {
        for (tj, d) in eng.site_coverage(trajs, s, effective_tau) {
            let score = preference.score(d, tau);
            let slot = &mut best[tj.index()];
            if score > *slot {
                *slot = score;
            }
        }
    }
    let utility: f64 = best.iter().sum();
    let covered = best.iter().filter(|&&u| u > 0.0).count();
    EvalResult { utility, covered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};
    use netclus_trajectory::Trajectory;

    fn fixture() -> (RoadNetwork, TrajectorySet) {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..4u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        for r in [&[0u32, 1][..], &[1, 2], &[3, 4]] {
            trajs.add(Trajectory::new(r.iter().map(|&i| NodeId(i)).collect()));
        }
        (net, trajs)
    }

    #[test]
    fn binary_utility_counts_covered() {
        let (net, trajs) = fixture();
        let r = evaluate_sites(
            &net,
            &trajs,
            &[NodeId(1)],
            0.0,
            PreferenceFunction::Binary,
            DetourModel::RoundTrip,
        );
        assert_eq!(r.utility, 2.0); // T0 and T1 pass node 1
        assert_eq!(r.covered, 2);
        assert_eq!(r.utility_percent(3), 200.0 / 3.0);
    }

    #[test]
    fn max_over_sites_not_sum() {
        let (net, trajs) = fixture();
        // Both nodes 0 and 1 cover T0; utility must count it once.
        let r = evaluate_sites(
            &net,
            &trajs,
            &[NodeId(0), NodeId(1)],
            0.0,
            PreferenceFunction::Binary,
            DetourModel::RoundTrip,
        );
        assert_eq!(r.utility, 2.0);
    }

    #[test]
    fn graded_preference_takes_best_site() {
        let (net, trajs) = fixture();
        // T2 = [3, 4]. Site 2 at round-trip 200 from node 3; site 4 on it.
        let r = evaluate_sites(
            &net,
            &trajs,
            &[NodeId(2), NodeId(4)],
            400.0,
            PreferenceFunction::LinearDecay,
            DetourModel::RoundTrip,
        );
        // T2 takes score 1.0 from site 4, not 0.5 from site 2.
        // T1 = [1, 2] takes 1.0 from site 2. T0 = [0, 1]: site 2 at rt 200 → 0.5.
        assert!((r.utility - 2.5).abs() < 1e-9, "{}", r.utility);
        assert_eq!(r.covered, 3);
    }

    #[test]
    fn empty_sites_zero_utility() {
        let (net, trajs) = fixture();
        let r = evaluate_sites(
            &net,
            &trajs,
            &[],
            800.0,
            PreferenceFunction::Binary,
            DetourModel::RoundTrip,
        );
        assert_eq!(r.utility, 0.0);
        assert_eq!(r.covered, 0);
    }

    #[test]
    fn solution_percent_handles_zero() {
        let s = Solution::default();
        assert_eq!(s.utility_percent(0), 0.0);
    }
}
