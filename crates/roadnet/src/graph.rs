//! Road-network construction and the frozen [`RoadNetwork`] type.
//!
//! Networks are built incrementally with [`RoadNetworkBuilder`] (which also
//! supports the paper's candidate-site augmentation: splitting an edge to
//! place a site mid-segment, Sec. 2) and then frozen into an immutable
//! [`RoadNetwork`] holding forward and reverse CSR adjacency plus node
//! coordinates.

use crate::csr::Csr;
use crate::error::RoadNetError;
use crate::geometry::{BoundingBox, Point};
use crate::{EdgeId, NodeId};

/// Incremental builder for a directed, weighted road network.
///
/// # Example
/// ```
/// use netclus_roadnet::{RoadNetworkBuilder, Point};
///
/// let mut b = RoadNetworkBuilder::new();
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(100.0, 0.0));
/// b.add_two_way(a, c, 100.0).unwrap();
/// let net = b.build().unwrap();
/// assert_eq!(net.node_count(), 2);
/// assert_eq!(net.edge_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoadNetworkBuilder {
    points: Vec<Point>,
    edges: Vec<(u32, u32, f64)>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with reserved capacity for `nodes` and `edges`.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        RoadNetworkBuilder {
            points: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a vertex at `point` and returns its dense id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId::from_index(self.points.len());
        self.points.push(point);
        id
    }

    /// Adds a directed edge `from -> to` of length `weight` meters.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> Result<EdgeId, RoadNetError> {
        self.validate_edge(from, to, weight)?;
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push((from.0, to.0, weight));
        Ok(id)
    }

    /// Adds both `from -> to` and `to -> from` with the same weight
    /// (a two-way street).
    pub fn add_two_way(
        &mut self,
        from: NodeId,
        to: NodeId,
        weight: f64,
    ) -> Result<(EdgeId, EdgeId), RoadNetError> {
        let a = self.add_edge(from, to, weight)?;
        let b = self.add_edge(to, from, weight)?;
        Ok((a, b))
    }

    /// Splits the directed edge `from -> to` at `fraction ∈ (0, 1)` of its
    /// length, inserting a new vertex `w` there. The original edge is removed
    /// and replaced by `from -> w` and `w -> to` (the paper's candidate-site
    /// augmentation, Sec. 2). Returns the new vertex id.
    ///
    /// If a reverse edge `to -> from` exists it is *not* touched; call this
    /// again in the other direction for two-way streets.
    pub fn insert_on_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        fraction: f64,
    ) -> Result<NodeId, RoadNetError> {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be strictly inside (0, 1), got {fraction}"
        );
        let pos = self
            .edges
            .iter()
            .position(|&(f, t, _)| f == from.0 && t == to.0)
            .ok_or(RoadNetError::NoSuchEdge(from, to))?;
        let (_, _, w) = self.edges[pos];
        let (pf, pt) = (self.point_of(from)?, self.point_of(to)?);
        let mid = pf.lerp(&pt, fraction);
        let new_node = self.add_node(mid);
        // Replace in place, then push the second half.
        self.edges[pos] = (from.0, new_node.0, w * fraction);
        self.edges.push((new_node.0, to.0, w * (1.0 - fraction)));
        Ok(new_node)
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Coordinates of an already-added node.
    pub fn point(&self, v: NodeId) -> Option<Point> {
        self.points.get(v.index()).copied()
    }

    /// Number of directed edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable [`RoadNetwork`].
    pub fn build(self) -> Result<RoadNetwork, RoadNetError> {
        if self.points.is_empty() {
            return Err(RoadNetError::EmptyNetwork);
        }
        let n = self.points.len();
        let forward = Csr::from_edges(n, &self.edges, false);
        let backward = Csr::from_edges(n, &self.edges, true);
        Ok(RoadNetwork {
            points: self.points,
            forward,
            backward,
        })
    }

    fn point_of(&self, v: NodeId) -> Result<Point, RoadNetError> {
        self.points
            .get(v.index())
            .copied()
            .ok_or(RoadNetError::UnknownNode(v))
    }

    fn validate_edge(&self, from: NodeId, to: NodeId, weight: f64) -> Result<(), RoadNetError> {
        if from.index() >= self.points.len() {
            return Err(RoadNetError::UnknownNode(from));
        }
        if to.index() >= self.points.len() {
            return Err(RoadNetError::UnknownNode(to));
        }
        if from == to {
            return Err(RoadNetError::SelfLoop(from));
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(RoadNetError::InvalidWeight { from, to, weight });
        }
        Ok(())
    }
}

/// An immutable directed, weighted road network.
///
/// Node set `V` = road intersections (plus any candidate sites folded in via
/// [`RoadNetworkBuilder::insert_on_edge`]); directed edges model the traffic
/// direction of each road segment, weighted by length in meters.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    points: Vec<Point>,
    forward: Csr,
    backward: Csr,
}

impl RoadNetwork {
    /// Number of vertices `N = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.forward.edge_count()
    }

    /// Iterator over all node ids, in dense order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.points.len() as u32).map(NodeId)
    }

    /// Planar coordinates of `v`.
    #[inline]
    pub fn point(&self, v: NodeId) -> Point {
        self.points[v.index()]
    }

    /// All node coordinates, indexed by [`NodeId::index`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Outgoing `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.forward.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.forward.degree(v)
    }

    /// Weight of edge `from -> to` if it exists (min over parallel edges).
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.forward.edge_weight(from, to)
    }

    /// Forward (out-edge) CSR — the adjacency to run Dijkstra *from* a source.
    #[inline]
    pub fn forward(&self) -> &Csr {
        &self.forward
    }

    /// Backward (in-edge) CSR — running Dijkstra on this from `s` yields
    /// `d(v, s)` for all `v`.
    #[inline]
    pub fn backward(&self) -> &Csr {
        &self.backward
    }

    /// Tight bounding box around all node coordinates.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::around(&self.points)
    }

    /// Approximate heap footprint in bytes (coordinates + both CSRs).
    pub fn heap_size_bytes(&self) -> usize {
        self.points.capacity() * std::mem::size_of::<Point>()
            + self.forward.heap_size_bytes()
            + self.backward.heap_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 100.0));
        b.add_edge(n0, n1, 100.0).unwrap();
        b.add_edge(n1, n2, 150.0).unwrap();
        b.add_edge(n2, n0, 120.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_and_query_triangle() {
        let net = triangle();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.out_degree(NodeId(0)), 1);
        assert_eq!(net.edge_weight(NodeId(0), NodeId(1)), Some(100.0));
        assert_eq!(net.edge_weight(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        assert!(matches!(
            b.add_edge(n0, NodeId(9), 1.0),
            Err(RoadNetError::UnknownNode(_))
        ));
        assert!(matches!(
            b.add_edge(n0, n0, 1.0),
            Err(RoadNetError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_edge(n0, n1, 0.0),
            Err(RoadNetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(n0, n1, f64::NAN),
            Err(RoadNetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(n0, n1, f64::INFINITY),
            Err(RoadNetError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn empty_network_rejected() {
        assert!(matches!(
            RoadNetworkBuilder::new().build(),
            Err(RoadNetError::EmptyNetwork)
        ));
    }

    #[test]
    fn two_way_adds_both_directions() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(3.0, 4.0));
        b.add_two_way(n0, n1, 5.0).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.edge_weight(n0, n1), Some(5.0));
        assert_eq!(net.edge_weight(n1, n0), Some(5.0));
    }

    #[test]
    fn insert_on_edge_splits_segment() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        b.add_edge(n0, n1, 100.0).unwrap();
        let w = b.insert_on_edge(n0, n1, 0.25).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 2);
        assert_eq!(net.edge_weight(n0, n1), None);
        assert_eq!(net.edge_weight(n0, w), Some(25.0));
        assert_eq!(net.edge_weight(w, n1), Some(75.0));
        assert_eq!(net.point(w), Point::new(25.0, 0.0));
    }

    #[test]
    fn insert_on_missing_edge_errors() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        assert!(matches!(
            b.insert_on_edge(n0, n1, 0.5),
            Err(RoadNetError::NoSuchEdge(_, _))
        ));
    }

    #[test]
    fn bounding_box_covers_nodes() {
        let net = triangle();
        let bb = net.bounding_box();
        assert_eq!(bb.min, Point::new(0.0, 0.0));
        assert_eq!(bb.max, Point::new(100.0, 100.0));
    }

    #[test]
    fn heap_size_is_positive() {
        assert!(triangle().heap_size_bytes() > 0);
    }
}
