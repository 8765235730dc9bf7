//! Detour (round-trip) distances between trajectories and sites.
//!
//! The paper defines the extra distance a user on trajectory `T_j` travels
//! to avail a service at `s_i` as
//!
//! ```text
//! dr(T_j, s_i) = min_{v_k, v_l ∈ T_j} { d(v_k, s_i) + d(s_i, v_l) − d(v_k, v_l) }
//! ```
//!
//! Two engines are provided:
//!
//! * [`DetourModel::RoundTrip`] — the `v_k = v_l` specialization
//!   `min_v d(v, s) + d(s, v)`. This is the quantity NetClus itself stores
//!   and estimates (`dr(T_j, c_j)` in Eq. 9 / Example 2) and the default for
//!   all large-scale experiments; a site within round-trip `τ` of any
//!   trajectory node is covered.
//! * [`DetourModel::PairDetour`] — the full pair minimization, with the
//!   saved distance `d(v_k, v_l)` measured **along the user's route**
//!   (the route upper-bounds the network shortest path and equals it for
//!   shortest-routed trips). Evaluated in `O(|T_j|)` by a prefix-minimum
//!   scan once per-node distances to the site are known.
//!
//! Coverage queries are bounded: only detours whose one-way legs are within
//! `τ` of the site are considered, so a site query costs two `τ`-bounded
//! Dijkstra runs regardless of network size. This matches the covered-set
//! semantics used throughout the paper's evaluation.

use netclus_roadnet::{DijkstraEngine, NodeId, RoadNetwork};
use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

/// Which detour definition to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DetourModel {
    /// `dr(T, s) = min_{v ∈ T} d(v, s) + d(s, v)` (NetClus's native model).
    #[default]
    RoundTrip,
    /// `dr(T, s) = min_{k ≤ l} d(v_k, s) + d(s, v_l) − route(v_k, v_l)`
    /// with the saved distance measured along the route.
    PairDetour,
}

/// Reusable engine computing site → trajectory coverage.
///
/// Holds two bounded Dijkstra engines plus stamped per-trajectory scratch,
/// so repeated site queries cost `O(ball + covered)` with no allocation.
pub struct DetourEngine<'a> {
    net: &'a RoadNetwork,
    model: DetourModel,
    fwd: DijkstraEngine,
    bwd: DijkstraEngine,
    /// Stamped best-detour per trajectory id (scratch).
    traj_best: Vec<f64>,
    traj_stamp: Vec<u32>,
    touched: Vec<TrajId>,
    version: u32,
}

impl<'a> DetourEngine<'a> {
    /// Creates an engine over `net` using `model`.
    pub fn new(net: &'a RoadNetwork, model: DetourModel) -> Self {
        let n = net.node_count();
        DetourEngine {
            net,
            model,
            fwd: DijkstraEngine::new(n),
            bwd: DijkstraEngine::new(n),
            traj_best: Vec::new(),
            traj_stamp: Vec::new(),
            touched: Vec::new(),
            version: 0,
        }
    }

    /// The detour model in use.
    pub fn model(&self) -> DetourModel {
        self.model
    }

    /// All trajectories covered by `site` within threshold `tau`, with their
    /// detour distances, sorted ascending by distance (ties by id) — the
    /// paper's `TC(s_i)` set with its required ordering.
    pub fn site_coverage(
        &mut self,
        trajs: &TrajectorySet,
        site: NodeId,
        tau: f64,
    ) -> Vec<(TrajId, f64)> {
        let mut out = Vec::new();
        self.site_coverage_into(trajs, site, tau, &mut out);
        out
    }

    /// [`DetourEngine::site_coverage`] writing into a caller-owned buffer
    /// (cleared first), so bulk builders like
    /// [`crate::coverage::CoverageIndex::build`] reuse one allocation
    /// across their hundreds of thousands of site queries.
    pub(crate) fn site_coverage_into(
        &mut self,
        trajs: &TrajectorySet,
        site: NodeId,
        tau: f64,
        out: &mut Vec<(TrajId, f64)>,
    ) {
        self.ensure_scratch(trajs.id_bound());
        self.begin();
        // d(site, v) for the return leg; d(v, site) for the outbound leg.
        self.fwd.run_bounded(self.net.forward(), site, tau);
        self.bwd.run_bounded(self.net.backward(), site, tau);

        match self.model {
            DetourModel::RoundTrip => self.collect_round_trip(trajs, tau),
            DetourModel::PairDetour => self.collect_pair_detour(trajs, tau),
        }

        out.clear();
        out.extend(
            self.touched
                .iter()
                .map(|&id| (id, self.traj_best[id.index()]))
                .filter(|&(_, d)| d <= tau),
        );
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    }

    /// Exact detour distance from one trajectory to `site` with **no**
    /// search bound (full Dijkstra pair); `None` if the site cannot be
    /// reached round-trip from any trajectory node. Intended for small
    /// instances and tests.
    pub fn detour_exact(&mut self, traj: &Trajectory, site: NodeId) -> Option<f64> {
        self.fwd.run(self.net.forward(), site);
        self.bwd.run(self.net.backward(), site);
        match self.model {
            DetourModel::RoundTrip => traj
                .nodes()
                .iter()
                .filter_map(|&v| Some(self.bwd.distance(v)? + self.fwd.distance(v)?))
                .min_by(|a, b| a.total_cmp(b)),
            DetourModel::PairDetour => {
                let cum = traj.cumulative_distances(self.net);
                pair_detour_scan(traj.nodes(), &cum, f64::INFINITY, |v| {
                    (self.bwd.distance(v), self.fwd.distance(v))
                })
            }
        }
    }

    /// Round-trip model: for every node in both balls, relax the round trip
    /// onto all trajectories through it.
    fn collect_round_trip(&mut self, trajs: &TrajectorySet, tau: f64) {
        // Iterate the smaller frontier for speed.
        let reached: Vec<NodeId> = if self.fwd.reached().len() <= self.bwd.reached().len() {
            self.fwd.reached().to_vec()
        } else {
            self.bwd.reached().to_vec()
        };
        for v in reached {
            let (Some(out), Some(back)) = (self.bwd.distance(v), self.fwd.distance(v)) else {
                continue;
            };
            let rt = out + back;
            if rt > tau {
                continue;
            }
            for &tj in trajs.trajectories_through(v) {
                self.relax(tj, rt);
            }
        }
    }

    /// Pair-detour model: for each trajectory touching the outbound ball,
    /// run the O(l) prefix-min scan over its nodes.
    fn collect_pair_detour(&mut self, trajs: &TrajectorySet, tau: f64) {
        // Candidate trajectories: any passing through a node of either ball.
        let mut candidates: Vec<TrajId> = Vec::new();
        for &v in self.bwd.reached() {
            candidates.extend_from_slice(trajs.trajectories_through(v));
        }
        for &v in self.fwd.reached() {
            candidates.extend_from_slice(trajs.trajectories_through(v));
        }
        candidates.sort_unstable();
        candidates.dedup();
        for tj in candidates {
            let Some(traj) = trajs.get(tj) else { continue };
            let cum = traj.cumulative_distances(self.net);
            if let Some(d) = pair_detour_scan(traj.nodes(), &cum, tau, |v| {
                (self.bwd.distance(v), self.fwd.distance(v))
            }) {
                self.relax(tj, d);
            }
        }
    }

    #[inline]
    fn relax(&mut self, tj: TrajId, d: f64) {
        let i = tj.index();
        if self.traj_stamp[i] != self.version {
            self.traj_stamp[i] = self.version;
            self.traj_best[i] = d;
            self.touched.push(tj);
        } else if d < self.traj_best[i] {
            self.traj_best[i] = d;
        }
    }

    fn ensure_scratch(&mut self, id_bound: usize) {
        if self.traj_best.len() < id_bound {
            self.traj_best.resize(id_bound, f64::INFINITY);
            self.traj_stamp.resize(id_bound, 0);
        }
    }

    fn begin(&mut self) {
        if self.version == u32::MAX {
            self.traj_stamp.fill(0);
            self.version = 0;
        }
        self.version += 1;
        self.touched.clear();
    }
}

/// Computes `min_{k ≤ l} d(v_k, s) + d(s, v_l) − (cum[l] − cum[k])` as
/// `min_l (prefix-min_k (d(v_k, s) + cum[k])) + (d(s, v_l) − cum[l])`,
/// where the two distance legs come from `dist(v) = (d(v, s), d(s, v))` and
/// unreachable legs are skipped. Returns `None` if no feasible pair exists
/// or the best detour exceeds `cap`. Negative results (possible when the
/// user's route is longer than the shortest path through the site) clamp
/// to 0.
fn pair_detour_scan<F>(nodes: &[NodeId], cum: &[f64], cap: f64, mut dist: F) -> Option<f64>
where
    F: FnMut(NodeId) -> (Option<f64>, Option<f64>),
{
    debug_assert_eq!(nodes.len(), cum.len());
    let mut best = f64::INFINITY;
    let mut prefix_min_a = f64::INFINITY;
    for (l, &v) in nodes.iter().enumerate() {
        let (to_site, from_site) = dist(v);
        if let Some(d_in) = to_site {
            prefix_min_a = prefix_min_a.min(d_in + cum[l]);
        }
        if let Some(d_out) = from_site {
            if prefix_min_a.is_finite() {
                best = best.min(prefix_min_a + d_out - cum[l]);
            }
        }
    }
    if !best.is_finite() {
        return None;
    }
    let best = best.max(0.0);
    (best <= cap).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    /// A 1-D corridor: nodes 0..6 at 100 m spacing, two-way; plus a site
    /// node 7 hanging 150 m off node 3 (two-way).
    fn corridor() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..7 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        let s = b.add_node(Point::new(300.0, 150.0));
        for i in 0..6u32 {
            b.add_two_way(NodeId(i), NodeId(i + 1), 100.0).unwrap();
        }
        b.add_two_way(NodeId(3), s, 150.0).unwrap();
        b.build().unwrap()
    }

    fn traj_set(net: &RoadNetwork, routes: &[&[u32]]) -> TrajectorySet {
        let mut set = TrajectorySet::for_network(net);
        for r in routes {
            set.add(Trajectory::new(r.iter().map(|&i| NodeId(i)).collect()));
        }
        set
    }

    #[test]
    fn round_trip_coverage_basics() {
        let net = corridor();
        let trajs = traj_set(&net, &[&[0, 1, 2, 3, 4, 5, 6], &[0, 1, 2]]);
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        // Site 7: nearest trajectory node of T0 is node 3 → round trip 300.
        let cov = eng.site_coverage(&trajs, NodeId(7), 300.0);
        assert_eq!(cov, vec![(TrajId(0), 300.0)]);
        // T1 (nodes 0..2) must round-trip via node 3: 2*(100+150) = 500.
        let cov = eng.site_coverage(&trajs, NodeId(7), 500.0);
        assert_eq!(cov, vec![(TrajId(0), 300.0), (TrajId(1), 500.0)]);
        // Below the minimum, nothing is covered.
        assert!(eng.site_coverage(&trajs, NodeId(7), 299.0).is_empty());
    }

    #[test]
    fn site_on_trajectory_has_zero_detour() {
        let net = corridor();
        let trajs = traj_set(&net, &[&[1, 2, 3]]);
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        let cov = eng.site_coverage(&trajs, NodeId(2), 100.0);
        assert_eq!(cov, vec![(TrajId(0), 0.0)]);
    }

    #[test]
    fn coverage_is_sorted_by_distance() {
        let net = corridor();
        let trajs = traj_set(&net, &[&[5, 6], &[3, 4], &[0, 1]]);
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        let cov = eng.site_coverage(&trajs, NodeId(7), 10_000.0);
        let dists: Vec<f64> = cov.iter().map(|&(_, d)| d).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cov.len(), 3);
        // T1 passes node 3: round trip 300; T0 nearest is node 5: 2*(200+150);
        // T2 nearest is node 2 → handled via node 3 anyway.
        assert_eq!(cov[0], (TrajId(1), 300.0));
    }

    #[test]
    fn pair_detour_less_or_equal_round_trip() {
        let net = corridor();
        let trajs = traj_set(&net, &[&[0, 1, 2, 3, 4, 5, 6]]);
        let mut rt = DetourEngine::new(&net, DetourModel::RoundTrip);
        let mut pd = DetourEngine::new(&net, DetourModel::PairDetour);
        let t = trajs.get(TrajId(0)).unwrap();
        let d_rt = rt.detour_exact(t, NodeId(7)).unwrap();
        let d_pd = pd.detour_exact(t, NodeId(7)).unwrap();
        assert!(d_pd <= d_rt + 1e-9, "pair {d_pd} vs round-trip {d_rt}");
        // Through-traffic: leave at 3, visit 7, return to 3 — both legs 150+150,
        // no route saved (v_k = v_l = 3). Expected 300 for both here.
        assert_eq!(d_pd, 300.0);
    }

    #[test]
    fn pair_detour_saves_route_distance() {
        // Route 0 -> 1 -> 2 where a shortcut through site node 3 exists:
        // 0 -> 3 (60) and 3 -> 2 (60), while the route runs 0 -> 1 -> 2 (200).
        // Leaving at 0 and rejoining at 2 through the site costs
        // 60 + 60 − 200 < 0 → detour clamps to 0: the "detour" is shorter
        // than the user's own route.
        let mut b = RoadNetworkBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        let s = b.add_node(Point::new(100.0, -30.0));
        b.add_two_way(NodeId(0), NodeId(1), 100.0).unwrap();
        b.add_two_way(NodeId(1), NodeId(2), 100.0).unwrap();
        b.add_two_way(NodeId(0), s, 60.0).unwrap();
        b.add_two_way(s, NodeId(2), 60.0).unwrap();
        let net = b.build().unwrap();
        let trajs = traj_set(&net, &[&[0, 1, 2]]);
        let mut pd = DetourEngine::new(&net, DetourModel::PairDetour);
        let t = trajs.get(TrajId(0)).unwrap();
        assert_eq!(pd.detour_exact(t, s).unwrap(), 0.0);
        // Round-trip model ignores the rejoin saving: min_v 2·d(v, s) = 120.
        let mut rt = DetourEngine::new(&net, DetourModel::RoundTrip);
        assert_eq!(rt.detour_exact(t, s).unwrap(), 120.0);
        // Coverage query agrees with the exact value.
        let cov = pd.site_coverage(&trajs, s, 500.0);
        assert_eq!(cov, vec![(TrajId(0), 0.0)]);
    }

    #[test]
    fn pair_detour_respects_direction_order() {
        // One-way ring: the user cannot rejoin *behind* their position.
        // Ring 0 -> 1 -> 2 -> 3 -> 0, route = [0, 1]; site at node 2.
        let mut b = RoadNetworkBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for i in 0..4u32 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 4), 100.0).unwrap();
        }
        let net = b.build().unwrap();
        let trajs = traj_set(&net, &[&[0, 1]]);
        let mut pd = DetourEngine::new(&net, DetourModel::PairDetour);
        let t = trajs.get(TrajId(0)).unwrap();
        // Best: leave at 1 (d(1,2)=100), return to 1 (d(2,1)=300 around), −0
        // or leave at 0: d(0,2)=200 + return to 1: d(2,1)=300 − route(0,1)=100 → 400.
        assert_eq!(pd.detour_exact(t, NodeId(2)).unwrap(), 400.0);
    }

    #[test]
    fn unreachable_site_is_uncovered() {
        // Site island disconnected from the corridor.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(100.0, 0.0));
        b.add_node(Point::new(9_000.0, 0.0));
        b.add_two_way(NodeId(0), NodeId(1), 100.0).unwrap();
        let net = b.build().unwrap();
        let trajs = traj_set(&net, &[&[0, 1]]);
        for model in [DetourModel::RoundTrip, DetourModel::PairDetour] {
            let mut eng = DetourEngine::new(&net, model);
            assert!(eng.site_coverage(&trajs, NodeId(2), 1e9).is_empty());
            let t = trajs.get(TrajId(0)).unwrap();
            assert_eq!(eng.detour_exact(t, NodeId(2)), None);
        }
    }

    #[test]
    fn repeated_queries_are_isolated() {
        let net = corridor();
        let trajs = traj_set(&net, &[&[0, 1, 2, 3, 4, 5, 6]]);
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        let a = eng.site_coverage(&trajs, NodeId(7), 300.0);
        let b = eng.site_coverage(&trajs, NodeId(0), 300.0);
        let a2 = eng.site_coverage(&trajs, NodeId(7), 300.0);
        assert_eq!(a, a2);
        assert_eq!(b, vec![(TrajId(0), 0.0)]);
    }

    #[test]
    fn removed_trajectories_are_skipped() {
        let net = corridor();
        let mut trajs = traj_set(&net, &[&[2, 3, 4], &[3, 4, 5]]);
        trajs.remove(TrajId(0));
        let mut eng = DetourEngine::new(&net, DetourModel::RoundTrip);
        let cov = eng.site_coverage(&trajs, NodeId(7), 500.0);
        assert_eq!(cov, vec![(TrajId(1), 300.0)]);
    }

    #[test]
    fn pair_detour_scan_edge_cases() {
        // No reachable legs at all.
        assert_eq!(
            pair_detour_scan(&[NodeId(0)], &[0.0], f64::INFINITY, |_| (None, None)),
            None
        );
        // Inbound only.
        assert_eq!(
            pair_detour_scan(&[NodeId(0)], &[0.0], f64::INFINITY, |_| (Some(1.0), None)),
            None
        );
        // Single node round trip.
        assert_eq!(
            pair_detour_scan(&[NodeId(0)], &[0.0], f64::INFINITY, |_| {
                (Some(2.0), Some(3.0))
            }),
            Some(5.0)
        );
        // Cap rejects.
        assert_eq!(
            pair_detour_scan(&[NodeId(0)], &[0.0], 4.9, |_| (Some(2.0), Some(3.0))),
            None
        );
    }
}
