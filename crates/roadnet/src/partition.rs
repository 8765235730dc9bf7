//! Region-based road-network partitioning for sharded serving.
//!
//! The NetClus scale story (paper Sec. 8.4) ends where one process ends;
//! the serving layer shards the network into spatial regions and builds a
//! per-shard index over each region's sites and trajectories. The
//! partitioner here assigns every vertex of the frozen CSR graph to
//! exactly one shard by recursive median bisection over the node
//! coordinates (a kd-tree-style split on the wider axis), which yields
//!
//! * **balanced** shards: each split divides the node list proportionally
//!   to the number of leaf shards on either side, so shard sizes differ by
//!   at most a rounding node even for non-power-of-two shard counts;
//! * **spatially contiguous** regions: road networks embed in the plane,
//!   so coordinate bisection keeps the cut small — the classic
//!   geometric-partitioning argument behind METIS-style coordinate modes;
//! * **determinism**: splits sort by `(coordinate, node id)`, so the same
//!   network and shard count always produce the same assignment.
//!
//! The cut statistics ([`PartitionStats`]) report the vertex-cut frontier:
//! edges whose endpoints land in different shards and the boundary
//! vertices incident to them — the vertices a distributed deployment
//! replicates. Trajectory replication (a trajectory is replicated to every
//! shard its nodes touch) lives one layer up, in `netclus::shard`, which
//! consumes the node assignment exposed here.
//!
//! [`RegionPartition::from_assignment`] accepts an arbitrary external
//! assignment (e.g. one aligned with known city regions), so tests and
//! deployments are not tied to the geometric heuristic.

use crate::graph::RoadNetwork;
use crate::NodeId;

/// A complete assignment of network vertices to shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionPartition {
    shards: u32,
    /// Shard of each vertex, indexed by [`NodeId::index`].
    shard_of: Vec<u32>,
}

impl RegionPartition {
    /// Partitions `net` into `shards` regions by recursive median
    /// bisection over the node coordinates.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `shards > net.node_count()`.
    pub fn build(net: &RoadNetwork, shards: usize) -> RegionPartition {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= net.node_count(),
            "cannot split {} nodes into {shards} shards",
            net.node_count()
        );
        let mut shard_of = vec![0u32; net.node_count()];
        let mut nodes: Vec<u32> = (0..net.node_count() as u32).collect();
        bisect(net, &mut nodes, shards as u32, 0, &mut shard_of);
        RegionPartition {
            shards: shards as u32,
            shard_of,
        }
    }

    /// Wraps an externally computed assignment. `shard_of[v]` is the shard
    /// of vertex `v`; `shards` is the total shard count (shards may be
    /// empty).
    ///
    /// # Panics
    /// Panics if `shards == 0` or any assignment is `>= shards`.
    pub fn from_assignment(shard_of: Vec<u32>, shards: usize) -> RegionPartition {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shard_of.iter().all(|&s| (s as usize) < shards),
            "assignment references a shard >= {shards}"
        );
        RegionPartition {
            shards: shards as u32,
            shard_of,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// The shard vertex `v` is assigned to.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> u32 {
        self.shard_of[v.index()]
    }

    /// The raw assignment, indexed by [`NodeId::index`].
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.shard_of
    }

    /// Number of vertices assigned to each shard.
    pub fn node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shards as usize];
        for &s in &self.shard_of {
            counts[s as usize] += 1;
        }
        counts
    }

    /// Cut statistics of this partition over `net` (which must be the
    /// network the assignment was built for).
    pub fn stats(&self, net: &RoadNetwork) -> PartitionStats {
        assert_eq!(
            self.shard_of.len(),
            net.node_count(),
            "partition built for a different network"
        );
        let mut cut_edges = 0usize;
        let mut boundary = vec![false; net.node_count()];
        for v in net.nodes() {
            let sv = self.shard_of[v.index()];
            for (u, _) in net.out_edges(v) {
                if self.shard_of[u.index()] != sv {
                    cut_edges += 1;
                    boundary[v.index()] = true;
                    boundary[u.index()] = true;
                }
            }
        }
        let node_counts = self.node_counts();
        let max = node_counts.iter().copied().max().unwrap_or(0);
        let mean = net.node_count() as f64 / self.shards as f64;
        PartitionStats {
            shards: self.shards as usize,
            node_counts,
            cut_edges,
            boundary_nodes: boundary.iter().filter(|&&b| b).count(),
            imbalance: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        }
    }
}

/// Cut and balance statistics of a [`RegionPartition`].
#[derive(Clone, Debug)]
pub struct PartitionStats {
    /// Shard count.
    pub shards: usize,
    /// Vertices per shard.
    pub node_counts: Vec<usize>,
    /// Directed edges whose endpoints lie in different shards.
    pub cut_edges: usize,
    /// Vertices incident to at least one cut edge (the vertex-cut
    /// replication frontier of a distributed deployment).
    pub boundary_nodes: usize,
    /// `max shard size / mean shard size` (1.0 = perfectly balanced).
    pub imbalance: f64,
}

/// Recursively splits `nodes` into `shards` shards, assigning leaf labels
/// starting at `first_shard` into `out`.
fn bisect(net: &RoadNetwork, nodes: &mut [u32], shards: u32, first_shard: u32, out: &mut [u32]) {
    if shards == 1 {
        for &v in nodes.iter() {
            out[v as usize] = first_shard;
        }
        return;
    }
    // Wider axis of the sub-region's bounding box.
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in nodes.iter() {
        let p = net.point(NodeId(v));
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let use_x = (max_x - min_x) >= (max_y - min_y);
    // Deterministic order: coordinate, then node id for coincident points.
    nodes.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (net.point(NodeId(a)), net.point(NodeId(b)));
        let (ka, kb) = if use_x { (pa.x, pb.x) } else { (pa.y, pb.y) };
        ka.total_cmp(&kb).then_with(|| a.cmp(&b))
    });
    // Split proportionally to the leaf count on each side so odd shard
    // counts stay balanced.
    let left_shards = shards / 2;
    let right_shards = shards - left_shards;
    let split = (nodes.len() as u64 * u64::from(left_shards) / u64::from(shards)) as usize;
    let (left, right) = nodes.split_at_mut(split);
    bisect(net, left, left_shards, first_shard, out);
    bisect(net, right, right_shards, first_shard + left_shards, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;
    use crate::Point;

    /// A `cols × rows` grid mesh with unit spacing.
    fn mesh(cols: usize, rows: usize) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for y in 0..rows {
            for x in 0..cols {
                b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0));
            }
        }
        let id = |x: usize, y: usize| NodeId((y * cols + x) as u32);
        for y in 0..rows {
            for x in 0..cols {
                if x + 1 < cols {
                    b.add_two_way(id(x, y), id(x + 1, y), 100.0).unwrap();
                }
                if y + 1 < rows {
                    b.add_two_way(id(x, y), id(x, y + 1), 100.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn single_shard_assigns_everything_to_zero() {
        let net = mesh(4, 4);
        let p = RegionPartition::build(&net, 1);
        assert_eq!(p.shard_count(), 1);
        assert!(net.nodes().all(|v| p.shard_of(v) == 0));
        let stats = p.stats(&net);
        assert_eq!(stats.cut_edges, 0);
        assert_eq!(stats.boundary_nodes, 0);
        assert_eq!(stats.imbalance, 1.0);
    }

    #[test]
    fn shards_are_balanced_for_many_counts() {
        let net = mesh(12, 12);
        for shards in [2usize, 3, 4, 5, 7, 8] {
            let p = RegionPartition::build(&net, shards);
            let counts = p.node_counts();
            assert_eq!(counts.iter().sum::<usize>(), net.node_count());
            let (min, max) = (
                counts.iter().copied().min().unwrap(),
                counts.iter().copied().max().unwrap(),
            );
            // Proportional splits keep every shard within a couple of
            // nodes of the mean.
            assert!(
                max - min <= shards,
                "{shards} shards imbalanced: {counts:?}"
            );
            assert!(counts.iter().all(|&c| c > 0), "empty shard: {counts:?}");
        }
    }

    #[test]
    fn two_shards_split_the_wider_axis() {
        // 8 wide x 4 tall: the split must separate left from right.
        let net = mesh(8, 4);
        let p = RegionPartition::build(&net, 2);
        for y in 0..4u32 {
            for x in 0..8u32 {
                let v = NodeId(y * 8 + x);
                let expect = u32::from(x >= 4);
                assert_eq!(p.shard_of(v), expect, "node ({x},{y})");
            }
        }
        // The cut crosses 4 rows, two directed edges each.
        assert_eq!(p.stats(&net).cut_edges, 8);
        assert_eq!(p.stats(&net).boundary_nodes, 8);
    }

    #[test]
    fn partition_is_deterministic() {
        let net = mesh(9, 7);
        let a = RegionPartition::build(&net, 4);
        let b = RegionPartition::build(&net, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn from_assignment_roundtrips() {
        let assignment = vec![0u32, 1, 1, 0, 2];
        let p = RegionPartition::from_assignment(assignment.clone(), 3);
        assert_eq!(p.assignment(), &assignment[..]);
        assert_eq!(p.node_counts(), vec![2, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "references a shard")]
    fn from_assignment_rejects_out_of_range() {
        RegionPartition::from_assignment(vec![0, 3], 3);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let net = mesh(3, 3);
        RegionPartition::build(&net, 0);
    }

    #[test]
    fn far_separated_components_split_cleanly() {
        // Two 3x3 islands 100 km apart: a 2-shard partition must isolate
        // them (this is the property the shard-equivalence tests lean on).
        let mut b = RoadNetworkBuilder::new();
        for island in 0..2 {
            let x0 = island as f64 * 100_000.0;
            let base = b.node_count() as u32;
            for y in 0..3 {
                for x in 0..3 {
                    b.add_node(Point::new(x0 + x as f64 * 100.0, y as f64 * 100.0));
                }
            }
            let id = |x: u32, y: u32| NodeId(base + y * 3 + x);
            for y in 0..3 {
                for x in 0..3 {
                    if x + 1 < 3 {
                        b.add_two_way(id(x, y), id(x + 1, y), 100.0).unwrap();
                    }
                    if y + 1 < 3 {
                        b.add_two_way(id(x, y), id(x, y + 1), 100.0).unwrap();
                    }
                }
            }
        }
        let net = b.build().unwrap();
        let p = RegionPartition::build(&net, 2);
        for v in 0..9u32 {
            assert_eq!(p.shard_of(NodeId(v)), 0);
            assert_eq!(p.shard_of(NodeId(v + 9)), 1);
        }
        assert_eq!(p.stats(&net).cut_edges, 0);
    }
}
