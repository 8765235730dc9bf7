//! HMM (Viterbi) map matching of GPS traces onto the road network.
//!
//! The NetClus pipeline (paper Fig. 2) starts by map-matching raw GPS traces
//! to node sequences, citing the low-sampling-rate matcher of Lou et al.
//! We implement the standard hidden-Markov formulation:
//!
//! * **states** at each fix = network vertices within a candidate radius;
//! * **emission** probability decays with the Gaussian of the fix-to-vertex
//!   distance (GPS noise σ);
//! * **transition** probability decays exponentially with the discrepancy
//!   between network route distance and straight-line displacement
//!   (parameter β) — penalizing implausible detours between fixes;
//! * Viterbi dynamic programming selects the jointly most likely vertex
//!   sequence, which is then stitched into a full node path with
//!   shortest-path interpolation.
//!
//! All probabilities are kept in log space; route distances come from
//! radius-bounded Dijkstra runs that stop once the next fix's candidates
//! are all settled, so matching a trace costs `O(fixes · candidates ·
//! ball)` with the ball cut at the farthest reachable candidate.

use netclus_roadnet::{DijkstraEngine, GridIndex, NodeId, RoadNetwork};

use crate::error::MapMatchError;
use crate::gps::GpsTrace;
use crate::trajectory::Trajectory;

/// Configuration of the HMM map matcher.
#[derive(Clone, Debug)]
pub struct MapMatcher {
    /// GPS noise standard deviation σ in meters (emission model).
    pub sigma: f64,
    /// Transition discrepancy scale β in meters.
    pub beta: f64,
    /// Candidate search radius around each fix, in meters.
    pub candidate_radius: f64,
    /// Maximum candidates kept per fix (closest first).
    pub max_candidates: usize,
    /// Multiplier on the straight-line displacement when bounding the
    /// route-distance search between consecutive fixes.
    pub route_slack: f64,
}

impl Default for MapMatcher {
    fn default() -> Self {
        MapMatcher {
            sigma: 30.0,
            beta: 200.0,
            candidate_radius: 200.0,
            max_candidates: 8,
            route_slack: 4.0,
        }
    }
}

impl MapMatcher {
    /// Matches `trace` onto `net`, returning the full node-sequence
    /// trajectory (matched anchors joined by shortest paths).
    ///
    /// `grid` must be a spatial index over `net`'s vertices.
    pub fn match_trace(
        &self,
        net: &RoadNetwork,
        grid: &GridIndex,
        trace: &GpsTrace,
    ) -> Result<Trajectory, MapMatchError> {
        let anchors = self.match_anchors(net, grid, trace)?;
        self.stitch(net, &anchors)
    }

    /// Runs the Viterbi decoding only, returning the most likely vertex per
    /// fix (one anchor per GPS point) without path interpolation.
    pub fn match_anchors(
        &self,
        net: &RoadNetwork,
        grid: &GridIndex,
        trace: &GpsTrace,
    ) -> Result<Vec<NodeId>, MapMatchError> {
        if trace.is_empty() {
            return Err(MapMatchError::EmptyTrace);
        }
        let fixes = trace.points();

        // Candidate states per fix. The nearest-vertex fallback bridges
        // *isolated* gap fixes only: if not a single fix has a genuine
        // within-radius candidate, the whole trace is off the network and
        // matching it would fabricate a trajectory out of noise.
        let mut candidates: Vec<Vec<(NodeId, f64)>> = Vec::with_capacity(fixes.len());
        let mut genuine_fixes = 0usize;
        for (i, fix) in fixes.iter().enumerate() {
            let mut cands = grid.within(net, fix.pos, self.candidate_radius);
            cands.truncate(self.max_candidates);
            if cands.is_empty() {
                // Fall back to the single nearest vertex if it is not
                // absurdly far; otherwise the fix is unmatchable.
                match grid.nearest(net, fix.pos) {
                    Some((v, d)) if d <= 3.0 * self.candidate_radius => cands.push((v, d)),
                    _ => return Err(MapMatchError::NoCandidates { point_index: i }),
                }
            } else {
                genuine_fixes += 1;
            }
            candidates.push(cands);
        }
        if genuine_fixes == 0 {
            return Err(MapMatchError::OffNetwork);
        }

        // Viterbi over the lattice, in log space.
        let mut dijkstra = DijkstraEngine::new(net.node_count());
        let mut score: Vec<f64> = candidates[0]
            .iter()
            .map(|&(_, d)| self.emission_logp(d))
            .collect();
        // back[i][j] = index of the best predecessor of candidate j at fix i.
        let mut back: Vec<Vec<usize>> = vec![Vec::new()];

        for i in 1..fixes.len() {
            let displacement = fixes[i - 1].pos.distance(&fixes[i].pos);
            let bound = displacement * self.route_slack + 2.0 * self.candidate_radius + 50.0;
            let prev = &candidates[i - 1];
            let cur = &candidates[i];
            let mut new_score = vec![f64::NEG_INFINITY; cur.len()];
            let mut new_back = vec![usize::MAX; cur.len()];

            for (pj, &(pv, _)) in prev.iter().enumerate() {
                if score[pj] == f64::NEG_INFINITY {
                    continue;
                }
                // A settled distance is final: once every candidate of this
                // fix is settled, the rest of the ball changes nothing.
                let mut unsettled = cur.len();
                dijkstra.run_bounded_until(net.forward(), pv, bound, |v, _| {
                    unsettled -= cur.iter().filter(|&&(cv, _)| cv == v).count();
                    unsettled == 0
                });
                for (cj, &(cv, cd)) in cur.iter().enumerate() {
                    let Some(route) = dijkstra.distance(cv) else {
                        continue;
                    };
                    let logp = score[pj]
                        + self.transition_logp(route, displacement)
                        + self.emission_logp(cd);
                    if logp > new_score[cj] {
                        new_score[cj] = logp;
                        new_back[cj] = pj;
                    }
                }
            }

            if new_score.iter().all(|&s| s == f64::NEG_INFINITY) {
                return Err(MapMatchError::BrokenPath { point_index: i });
            }
            score = new_score;
            back.push(new_back);
        }

        // Backtrack from the best final state.
        let mut j = score
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .expect("candidates nonempty");
        let mut anchors = vec![NodeId(0); fixes.len()];
        for i in (0..fixes.len()).rev() {
            anchors[i] = candidates[i][j].0;
            if i > 0 {
                j = back[i][j];
                debug_assert_ne!(j, usize::MAX, "backpointer chain broken");
            }
        }
        Ok(anchors)
    }

    /// Joins consecutive anchors with network shortest paths, producing the
    /// full node sequence the user traveled.
    fn stitch(&self, net: &RoadNetwork, anchors: &[NodeId]) -> Result<Trajectory, MapMatchError> {
        let mut dijkstra = DijkstraEngine::new(net.node_count());
        dijkstra.set_track_parents(true);
        let mut path: Vec<NodeId> = vec![anchors[0]];
        for (i, w) in anchors.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            if a == b {
                continue;
            }
            dijkstra.run_bounded_until(net.forward(), a, f64::INFINITY, |v, _| v == b);
            let leg = dijkstra
                .path_to(b)
                .ok_or(MapMatchError::BrokenPath { point_index: i + 1 })?;
            path.extend_from_slice(&leg[1..]);
        }
        Ok(Trajectory::new(path))
    }

    #[inline]
    fn emission_logp(&self, dist: f64) -> f64 {
        -0.5 * (dist / self.sigma).powi(2)
    }

    #[inline]
    fn transition_logp(&self, route: f64, displacement: f64) -> f64 {
        -(route - displacement).abs() / self.beta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gps::GpsPoint;
    use netclus_roadnet::{Point, RoadNetworkBuilder};

    /// A 5x5 two-way grid with 100 m spacing.
    fn grid_city() -> (RoadNetwork, GridIndex) {
        let mut b = RoadNetworkBuilder::new();
        let n = 5u32;
        for y in 0..n {
            for x in 0..n {
                b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let id = NodeId(y * n + x);
                if x + 1 < n {
                    b.add_two_way(id, NodeId(y * n + x + 1), 100.0).unwrap();
                }
                if y + 1 < n {
                    b.add_two_way(id, NodeId((y + 1) * n + x), 100.0).unwrap();
                }
            }
        }
        let net = b.build().unwrap();
        let grid = GridIndex::build(&net, 100.0);
        (net, grid)
    }

    fn trace_along(points: &[(f64, f64)]) -> GpsTrace {
        GpsTrace::new(
            points
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| GpsPoint::new(Point::new(x, y), i as f64 * 10.0))
                .collect(),
        )
    }

    #[test]
    fn matches_clean_trace_exactly() {
        let (net, grid) = grid_city();
        // Straight east along the bottom row: nodes 0,1,2,3,4.
        let trace = trace_along(&[
            (0.0, 0.0),
            (100.0, 0.0),
            (200.0, 0.0),
            (300.0, 0.0),
            (400.0, 0.0),
        ]);
        let m = MapMatcher::default();
        let traj = m.match_trace(&net, &grid, &trace).unwrap();
        assert_eq!(
            traj.nodes(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn matches_noisy_trace() {
        let (net, grid) = grid_city();
        // Same route with ≤ 30 m noise.
        let trace = trace_along(&[
            (8.0, -12.0),
            (95.0, 20.0),
            (215.0, -9.0),
            (290.0, 14.0),
            (405.0, 6.0),
        ]);
        let m = MapMatcher::default();
        let traj = m.match_trace(&net, &grid, &trace).unwrap();
        assert_eq!(
            traj.nodes(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn interpolates_skipped_vertices() {
        let (net, grid) = grid_city();
        // Low sampling: only endpoints of the bottom row observed.
        let trace = trace_along(&[(0.0, 0.0), (400.0, 0.0)]);
        let m = MapMatcher::default();
        let traj = m.match_trace(&net, &grid, &trace).unwrap();
        assert_eq!(traj.nodes().first(), Some(&NodeId(0)));
        assert_eq!(traj.nodes().last(), Some(&NodeId(4)));
        // Stitching must produce a connected node path.
        for w in traj.nodes().windows(2) {
            assert!(net.edge_weight(w[0], w[1]).is_some(), "gap {w:?}");
        }
        assert_eq!(traj.route_length(&net), 400.0);
    }

    #[test]
    fn prefers_plausible_route_over_nearest_vertex() {
        // An L-shaped trace around the grid corner should follow the grid,
        // not jump diagonally.
        let (net, grid) = grid_city();
        let trace = trace_along(&[(0.0, 0.0), (200.0, 5.0), (200.0, 200.0)]);
        let m = MapMatcher::default();
        let traj = m.match_trace(&net, &grid, &trace).unwrap();
        let len = traj.route_length(&net);
        assert!((len - 400.0).abs() < 1e-9, "route length {len}");
    }

    #[test]
    fn single_fix_gives_static_trajectory() {
        let (net, grid) = grid_city();
        let trace = trace_along(&[(105.0, 95.0)]);
        let m = MapMatcher::default();
        let traj = m.match_trace(&net, &grid, &trace).unwrap();
        assert_eq!(traj.nodes(), &[NodeId(6)]);
    }

    #[test]
    fn empty_trace_is_error() {
        let (net, grid) = grid_city();
        let m = MapMatcher::default();
        assert_eq!(
            m.match_trace(&net, &grid, &GpsTrace::new(vec![])),
            Err(MapMatchError::EmptyTrace)
        );
    }

    #[test]
    fn single_point_off_network_is_error() {
        // 350 m from the nearest vertex: inside the 3×radius fallback
        // band, but with zero genuine candidates the fix must not be
        // force-matched into a fabricated static trajectory.
        let (net, grid) = grid_city();
        let m = MapMatcher::default();
        let trace = trace_along(&[(-350.0, -350.0)]);
        assert_eq!(
            m.match_trace(&net, &grid, &trace),
            Err(MapMatchError::OffNetwork)
        );
    }

    #[test]
    fn all_points_off_network_is_error() {
        // The whole trace drifts ~400 m off the grid (wrong-city GPS):
        // every fix is beyond the candidate radius, so the trace is
        // rejected instead of being snapped to the nearest road.
        let (net, grid) = grid_city();
        let m = MapMatcher::default();
        let trace = trace_along(&[(-400.0, -250.0), (-380.0, -240.0), (-390.0, -260.0)]);
        assert_eq!(
            m.match_trace(&net, &grid, &trace),
            Err(MapMatchError::OffNetwork)
        );
    }

    #[test]
    fn isolated_gap_fix_still_bridged_by_fallback() {
        // One mid-trace outage fix beyond the radius must not kill an
        // otherwise well-anchored trace.
        let (net, grid) = grid_city();
        let m = MapMatcher {
            candidate_radius: 60.0,
            ..MapMatcher::default()
        };
        // (250, 150) is ~70.7 m from its four nearest vertices: beyond
        // the 60 m radius but inside the 3× fallback band.
        let trace = trace_along(&[(0.0, 0.0), (250.0, 150.0), (400.0, 0.0)]);
        let traj = m.match_trace(&net, &grid, &trace).unwrap();
        assert_eq!(traj.nodes().first(), Some(&NodeId(0)));
        assert_eq!(traj.nodes().last(), Some(&NodeId(4)));
    }

    #[test]
    fn far_away_fix_is_error() {
        let (net, grid) = grid_city();
        let m = MapMatcher::default();
        let trace = trace_along(&[(0.0, 0.0), (90_000.0, 90_000.0)]);
        assert_eq!(
            m.match_trace(&net, &grid, &trace),
            Err(MapMatchError::NoCandidates { point_index: 1 })
        );
    }

    #[test]
    fn anchors_only_api() {
        let (net, grid) = grid_city();
        let m = MapMatcher::default();
        let trace = trace_along(&[(0.0, 0.0), (400.0, 0.0)]);
        let anchors = m.match_anchors(&net, &grid, &trace).unwrap();
        assert_eq!(anchors, vec![NodeId(0), NodeId(4)]);
    }

    #[test]
    fn broken_path_on_disconnected_network() {
        // Two disconnected 2-node islands.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(100.0, 0.0));
        b.add_node(Point::new(5000.0, 0.0));
        b.add_node(Point::new(5100.0, 0.0));
        b.add_two_way(NodeId(0), NodeId(1), 100.0).unwrap();
        b.add_two_way(NodeId(2), NodeId(3), 100.0).unwrap();
        let net = b.build().unwrap();
        let grid = GridIndex::build(&net, 200.0);
        let m = MapMatcher {
            candidate_radius: 150.0,
            ..MapMatcher::default()
        };
        let trace = trace_along(&[(0.0, 0.0), (5000.0, 0.0)]);
        assert!(matches!(
            m.match_trace(&net, &grid, &trace),
            Err(MapMatchError::BrokenPath { .. })
        ));
    }
}
