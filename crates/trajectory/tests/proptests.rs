//! Property-based tests for the trajectory substrate: inverted-index
//! consistency under arbitrary add/remove interleavings, and map-matching
//! recovery of noise-free traces.

use netclus_roadnet::{DijkstraEngine, GridIndex, NodeId, Point, RoadNetwork, RoadNetworkBuilder};
use netclus_trajectory::{
    GpsPoint, GpsTrace, MapMatchError, MapMatcher, TrajId, Trajectory, TrajectorySet,
};
use proptest::prelude::*;

fn grid_net(n: u32, spacing: f64) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for y in 0..n {
        for x in 0..n {
            b.add_node(Point::new(x as f64 * spacing, y as f64 * spacing));
        }
    }
    for y in 0..n {
        for x in 0..n {
            let id = NodeId(y * n + x);
            if x + 1 < n {
                b.add_two_way(id, NodeId(y * n + x + 1), spacing).unwrap();
            }
            if y + 1 < n {
                b.add_two_way(id, NodeId((y + 1) * n + x), spacing).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// An `n × n` two-way grid whose every edge is `spacing` times its own
/// factor from `stretch` (cycled), so route distances differ from
/// straight lines and tie less often.
fn stretched_grid(n: u32, spacing: f64, stretch: &[f64]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for y in 0..n {
        for x in 0..n {
            b.add_node(Point::new(x as f64 * spacing, y as f64 * spacing));
        }
    }
    let mut factor = stretch.iter().cycle();
    for y in 0..n {
        for x in 0..n {
            let id = NodeId(y * n + x);
            if x + 1 < n {
                let w = spacing * factor.next().unwrap();
                b.add_two_way(id, NodeId(y * n + x + 1), w).unwrap();
            }
            if y + 1 < n {
                let w = spacing * factor.next().unwrap();
                b.add_two_way(id, NodeId((y + 1) * n + x), w).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The Viterbi decoding with every transition search run to its full
/// bound — what `MapMatcher::match_anchors` computed before its searches
/// stopped at the last settled candidate. The emission and transition
/// terms are the matcher's, from its public parameters.
fn full_ball_anchors(
    m: &MapMatcher,
    net: &RoadNetwork,
    grid: &GridIndex,
    trace: &GpsTrace,
) -> Result<Vec<NodeId>, MapMatchError> {
    let emission = |d: f64| -0.5 * (d / m.sigma).powi(2);
    let transition = |route: f64, disp: f64| -(route - disp).abs() / m.beta;
    let fixes = trace.points();
    if fixes.is_empty() {
        return Err(MapMatchError::EmptyTrace);
    }
    let mut candidates: Vec<Vec<(NodeId, f64)>> = Vec::new();
    let mut genuine = 0;
    for (i, fix) in fixes.iter().enumerate() {
        let mut cands = grid.within(net, fix.pos, m.candidate_radius);
        cands.truncate(m.max_candidates);
        if cands.is_empty() {
            match grid.nearest(net, fix.pos) {
                Some((v, d)) if d <= 3.0 * m.candidate_radius => cands.push((v, d)),
                _ => return Err(MapMatchError::NoCandidates { point_index: i }),
            }
        } else {
            genuine += 1;
        }
        candidates.push(cands);
    }
    if genuine == 0 {
        return Err(MapMatchError::OffNetwork);
    }
    let mut dijkstra = DijkstraEngine::new(net.node_count());
    let mut score: Vec<f64> = candidates[0].iter().map(|&(_, d)| emission(d)).collect();
    let mut back: Vec<Vec<usize>> = vec![Vec::new()];
    for i in 1..fixes.len() {
        let disp = fixes[i - 1].pos.distance(&fixes[i].pos);
        let bound = disp * m.route_slack + 2.0 * m.candidate_radius + 50.0;
        let (prev, cur) = (&candidates[i - 1], &candidates[i]);
        let mut new_score = vec![f64::NEG_INFINITY; cur.len()];
        let mut new_back = vec![usize::MAX; cur.len()];
        for (pj, &(pv, _)) in prev.iter().enumerate() {
            if score[pj] == f64::NEG_INFINITY {
                continue;
            }
            dijkstra.run_bounded(net.forward(), pv, bound);
            for (cj, &(cv, cd)) in cur.iter().enumerate() {
                let Some(route) = dijkstra.distance(cv) else {
                    continue;
                };
                let logp = score[pj] + transition(route, disp) + emission(cd);
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
    let mut j = (0..score.len())
        .max_by(|&a, &b| score[a].total_cmp(&score[b]))
        .unwrap();
    let mut anchors = vec![NodeId(0); fixes.len()];
    for i in (0..fixes.len()).rev() {
        anchors[i] = candidates[i][j].0;
        if i > 0 {
            j = back[i][j];
        }
    }
    Ok(anchors)
}

/// Operations on a trajectory set.
#[derive(Clone, Debug)]
enum Op {
    Add(Vec<u8>),
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 1..10).prop_map(Op::Add),
        any::<u8>().prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any interleaving of adds and removes, the inverted index
    /// matches a from-scratch recomputation.
    #[test]
    fn inverted_index_consistent_under_churn(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let node_count = 16usize;
        let mut set = TrajectorySet::new(node_count);
        let mut live: Vec<(TrajId, Trajectory)> = Vec::new();
        for op in ops {
            match op {
                Op::Add(raw) => {
                    let nodes: Vec<NodeId> = raw
                        .iter()
                        .map(|&b| NodeId((b as usize % node_count) as u32))
                        .collect();
                    let t = Trajectory::new(nodes);
                    let id = set.add(t.clone());
                    live.push((id, t));
                }
                Op::Remove(i) => {
                    if !live.is_empty() {
                        let idx = i as usize % live.len();
                        let (id, _) = live.remove(idx);
                        prop_assert!(set.remove(id).is_some());
                    }
                }
            }
        }
        prop_assert_eq!(set.len(), live.len());
        // Recompute the index from scratch and compare.
        for v in 0..node_count {
            let node = NodeId(v as u32);
            let mut expected: Vec<TrajId> = live
                .iter()
                .filter(|(_, t)| t.nodes().contains(&node))
                .map(|&(id, _)| id)
                .collect();
            expected.sort_unstable();
            let mut got = set.trajectories_through(node).to_vec();
            got.sort_unstable();
            prop_assert_eq!(got, expected, "index mismatch at node {}", v);
        }
    }

    /// Cumulative distances are non-decreasing and end at the route length.
    #[test]
    fn cumulative_distances_consistent(raw in prop::collection::vec(0u32..25, 1..15)) {
        let net = grid_net(5, 100.0);
        let t = Trajectory::new(raw.into_iter().map(NodeId).collect());
        let cum = t.cumulative_distances(&net);
        prop_assert_eq!(cum.len(), t.len());
        prop_assert_eq!(cum[0], 0.0);
        prop_assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!((cum.last().unwrap() - t.route_length(&net)).abs() < 1e-9);
    }

    /// Stopping each transition search once the next fix's candidates are
    /// settled changes no anchor: random noisy traces on a random
    /// stretched grid decode to the anchors (or the error) of the search
    /// run to its full bound.
    #[test]
    fn early_stopped_searches_give_the_anchors_of_full_balls(
        n in 3u32..9,
        spacing in 40.0f64..250.0,
        stretch in prop::collection::vec(1.0f64..2.5, 1..40),
        fixes in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..14),
        radius in 60.0f64..400.0,
        max_candidates in 1usize..10,
        slack in 1.0f64..5.0,
    ) {
        let net = stretched_grid(n, spacing, &stretch);
        let grid = GridIndex::build(&net, spacing);
        let extent = f64::from(n - 1) * spacing;
        let trace = GpsTrace::new(
            fixes
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| GpsPoint::new(Point::new(x * extent, y * extent), i as f64 * 10.0))
                .collect(),
        );
        let matcher = MapMatcher {
            candidate_radius: radius,
            max_candidates,
            route_slack: slack,
            ..MapMatcher::default()
        };
        prop_assert_eq!(
            matcher.match_anchors(&net, &grid, &trace),
            full_ball_anchors(&matcher, &net, &grid, &trace)
        );
    }

    /// The map matcher exactly recovers noise-free traces sampled on grid
    /// vertices.
    #[test]
    fn matcher_recovers_clean_vertex_traces(
        steps in prop::collection::vec(0u8..4, 1..12),
        start in 0u32..36,
    ) {
        let n = 6u32;
        let net = grid_net(n, 150.0);
        let grid = GridIndex::build(&net, 150.0);
        // Build a lattice walk (may revisit nodes; consecutive moves valid).
        let mut nodes = vec![NodeId(start % (n * n))];
        for &s in &steps {
            let cur = *nodes.last().unwrap();
            let (x, y) = (cur.0 % n, cur.0 / n);
            let next = match s {
                0 if x + 1 < n => NodeId(y * n + x + 1),
                1 if x > 0 => NodeId(y * n + x - 1),
                2 if y + 1 < n => NodeId((y + 1) * n + x),
                _ if y > 0 => NodeId((y - 1) * n + x),
                _ => cur,
            };
            if next != cur {
                nodes.push(next);
            }
        }
        let want = Trajectory::new(nodes.clone());
        let trace = GpsTrace::new(
            want.nodes()
                .iter()
                .enumerate()
                .map(|(i, &v)| GpsPoint::new(net.point(v), i as f64 * 10.0))
                .collect(),
        );
        let matcher = MapMatcher::default();
        let got = matcher.match_trace(&net, &grid, &trace).unwrap();
        prop_assert_eq!(got.nodes(), want.nodes());
    }
}
