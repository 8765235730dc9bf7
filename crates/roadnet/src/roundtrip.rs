//! Round-trip distance primitives.
//!
//! NetClus is built on the *round-trip* distance
//! `dr(u, v) = d(u, v) + d(v, u)` (Sec. 2 of the paper): it is symmetric even
//! on directed networks and measures the true extra travel of a detour. This
//! module computes round-trip balls (all nodes within round-trip distance
//! `L` of a center — the dominance sets `Λ(v)` of Greedy-GDSP use `L = 2R`)
//! and point-to-point round-trip distances.

use crate::dijkstra::DijkstraEngine;
use crate::graph::RoadNetwork;
use crate::NodeId;

/// Reusable engine computing round-trip distances via one forward and one
/// backward bounded Dijkstra.
#[derive(Clone, Debug)]
pub struct RoundTripEngine {
    fwd: DijkstraEngine,
    bwd: DijkstraEngine,
}

impl RoundTripEngine {
    /// Creates an engine for networks of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        RoundTripEngine {
            fwd: DijkstraEngine::new(n),
            bwd: DijkstraEngine::new(n),
        }
    }

    /// Convenience constructor sized for `net`.
    pub fn for_network(net: &RoadNetwork) -> Self {
        Self::new(net.node_count())
    }

    /// Computes the round-trip ball of `center`: every node `v` with
    /// `d(center, v) + d(v, center) ≤ limit`, together with that round-trip
    /// distance. The center itself is included with distance 0. Results are
    /// sorted by round-trip distance (ties by node id).
    ///
    /// Both component distances are individually ≤ `limit`, so this costs two
    /// Dijkstra runs bounded by `limit`.
    pub fn ball(&mut self, net: &RoadNetwork, center: NodeId, limit: f64) -> Vec<(NodeId, f64)> {
        self.fwd.run_bounded(net.forward(), center, limit);
        self.bwd.run_bounded(net.backward(), center, limit);
        let mut out = Vec::new();
        for &v in self.fwd.reached() {
            let df = self.fwd.distance(v).expect("reached node has distance");
            if let Some(db) = self.bwd.distance(v) {
                let rt = df + db;
                if rt <= limit {
                    out.push((v, rt));
                }
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Exact round-trip distance between `u` and `v`, or `None` if one
    /// direction is unreachable. Unbounded (two full Dijkstra runs with early
    /// exit at the target).
    pub fn round_trip(&mut self, net: &RoadNetwork, u: NodeId, v: NodeId) -> Option<f64> {
        self.round_trip_bounded(net, u, v, f64::INFINITY)
    }

    /// Round-trip distance if it is ≤ `limit`, else `None`.
    pub(crate) fn round_trip_bounded(
        &mut self,
        net: &RoadNetwork,
        u: NodeId,
        v: NodeId,
        limit: f64,
    ) -> Option<f64> {
        self.fwd
            .run_bounded_until(net.forward(), u, limit, |n, _| n == v);
        let d_uv = self.fwd.distance(v)?;
        let remaining = limit - d_uv;
        self.bwd
            .run_bounded_until(net.backward(), u, remaining, |n, _| n == v);
        let d_vu = self.bwd.distance(v)?;
        let rt = d_uv + d_vu;
        (rt <= limit).then_some(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;

    /// Directed ring 0 -> 1 -> 2 -> 3 -> 0, each edge weight 1.
    fn ring(n: u32) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn round_trip_on_directed_ring() {
        let net = ring(4);
        let mut e = RoundTripEngine::for_network(&net);
        // d(0,1) = 1, d(1,0) = 3 → round trip 4, regardless of direction.
        assert_eq!(e.round_trip(&net, NodeId(0), NodeId(1)), Some(4.0));
        assert_eq!(e.round_trip(&net, NodeId(1), NodeId(0)), Some(4.0));
        assert_eq!(e.round_trip(&net, NodeId(0), NodeId(2)), Some(4.0));
    }

    #[test]
    fn round_trip_symmetry_random() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30u32;
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        // Ring for strong connectivity plus random chords.
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0 + rng.random::<f64>())
                .unwrap();
        }
        for _ in 0..40 {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                b.add_edge(NodeId(u), NodeId(v), 0.5 + rng.random::<f64>() * 3.0)
                    .unwrap();
            }
        }
        let net = b.build().unwrap();
        let mut e = RoundTripEngine::for_network(&net);
        for _ in 0..30 {
            let u = NodeId(rng.random_range(0..n));
            let v = NodeId(rng.random_range(0..n));
            let a = e.round_trip(&net, u, v);
            let b2 = e.round_trip(&net, v, u);
            match (a, b2) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "dr({u},{v}) asymmetric"),
                (None, None) => {}
                _ => panic!("reachability asymmetric for round trip"),
            }
        }
    }

    #[test]
    fn ball_contains_exactly_nodes_within_limit() {
        let net = ring(6); // round trip between any two distinct nodes = 6
        let mut e = RoundTripEngine::for_network(&net);
        let ball = e.ball(&net, NodeId(0), 5.9);
        assert_eq!(ball, vec![(NodeId(0), 0.0)]);
        let ball = e.ball(&net, NodeId(0), 6.0);
        assert_eq!(ball.len(), 6);
        assert_eq!(ball[0], (NodeId(0), 0.0));
        for &(v, rt) in &ball[1..] {
            assert!(v != NodeId(0));
            assert_eq!(rt, 6.0);
        }
    }

    #[test]
    fn ball_limit_zero_is_self_only() {
        let net = ring(4);
        let mut e = RoundTripEngine::for_network(&net);
        assert_eq!(e.ball(&net, NodeId(2), 0.0), vec![(NodeId(2), 0.0)]);
    }

    #[test]
    fn bounded_round_trip_rejects_over_limit() {
        let net = ring(4);
        let mut e = RoundTripEngine::for_network(&net);
        assert_eq!(e.round_trip_bounded(&net, NodeId(0), NodeId(1), 3.9), None);
        assert_eq!(
            e.round_trip_bounded(&net, NodeId(0), NodeId(1), 4.0),
            Some(4.0)
        );
    }

    #[test]
    fn unreachable_round_trip_is_none() {
        // 0 -> 1 only; no way back.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let net = b.build().unwrap();
        let mut e = RoundTripEngine::for_network(&net);
        assert_eq!(e.round_trip(&net, NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn ball_distances_match_pointwise_round_trips() {
        let net = ring(5);
        let mut e = RoundTripEngine::for_network(&net);
        let ball = e.ball(&net, NodeId(1), 10.0);
        let mut check = RoundTripEngine::for_network(&net);
        for &(v, rt) in &ball {
            if v == NodeId(1) {
                assert_eq!(rt, 0.0);
            } else {
                assert_eq!(check.round_trip(&net, NodeId(1), v), Some(rt));
            }
        }
    }
}
