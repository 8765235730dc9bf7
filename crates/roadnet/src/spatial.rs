//! Uniform-grid spatial index over network vertices.
//!
//! Map matching and site placement need fast "nearest vertex" and "vertices
//! within radius" queries. Road-network vertices are distributed densely and
//! near-uniformly over a city extent, which makes a flat uniform grid both
//! simpler and faster than tree structures: `build` is a counting sort and a
//! radius query touches only the overlapping cells.

use crate::geometry::{BoundingBox, Point};
use crate::graph::RoadNetwork;
use crate::NodeId;

/// A uniform grid over node coordinates (CSR-style cell buckets).
#[derive(Clone, Debug)]
pub struct GridIndex {
    bbox: BoundingBox,
    cell_size: f64,
    nx: usize,
    ny: usize,
    /// CSR offsets into `node_ids`, one slot per cell (+1).
    cell_offsets: Vec<u32>,
    /// Node ids grouped by cell.
    node_ids: Vec<u32>,
}

impl GridIndex {
    /// Builds a grid over all vertices of `net` with the given `cell_size`
    /// in meters. A cell size near the median nearest-neighbor spacing (e.g.
    /// 100–500 m for city networks) works well.
    ///
    /// # Panics
    /// Panics if `cell_size` is not finite and positive.
    pub fn build(net: &RoadNetwork, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive, got {cell_size}"
        );
        let points = net.points();
        let mut bbox = net.bounding_box();
        if bbox.is_empty() {
            bbox = BoundingBox {
                min: Point::new(0.0, 0.0),
                max: Point::new(0.0, 0.0),
            };
        }
        let nx = ((bbox.width() / cell_size).floor() as usize + 1).max(1);
        let ny = ((bbox.height() / cell_size).floor() as usize + 1).max(1);
        let n_cells = nx * ny;

        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - bbox.min.x) / cell_size) as usize).min(nx - 1);
            let cy = (((p.y - bbox.min.y) / cell_size) as usize).min(ny - 1);
            cy * nx + cx
        };

        let mut cell_offsets = vec![0u32; n_cells + 1];
        for p in points {
            cell_offsets[cell_of(p) + 1] += 1;
        }
        for i in 0..n_cells {
            cell_offsets[i + 1] += cell_offsets[i];
        }
        let mut cursor = cell_offsets.clone();
        let mut node_ids = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            node_ids[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        GridIndex {
            bbox,
            cell_size,
            nx,
            ny,
            cell_offsets,
            node_ids,
        }
    }

    /// Nearest vertex to `p` and its Euclidean distance, or `None` for an
    /// empty network. Uses an expanding ring search over grid cells.
    pub fn nearest(&self, net: &RoadNetwork, p: Point) -> Option<(NodeId, f64)> {
        if self.node_ids.is_empty() {
            return None;
        }
        let (cx, cy) = self.cell_coords(&p);
        let mut best: Option<(NodeId, f64)> = None;
        let max_ring = self.nx.max(self.ny);
        for ring in 0..=max_ring {
            // Once we have a candidate, stop when the ring's nearest possible
            // point is farther than the candidate.
            if let Some((_, d)) = best {
                let ring_min_dist = (ring as f64 - 1.0).max(0.0) * self.cell_size;
                if ring_min_dist > d {
                    break;
                }
            }
            self.for_ring_cells(cx, cy, ring, |cell| {
                for &id in self.cell_nodes(cell) {
                    let v = NodeId(id);
                    let d = net.point(v).distance(&p);
                    if best.is_none_or(|(bv, bd)| d < bd || (d == bd && v < bv)) {
                        best = Some((v, d));
                    }
                }
            });
        }
        best
    }

    /// All vertices within Euclidean `radius` of `p`, with their distances,
    /// sorted by distance (ties by id).
    pub fn within(&self, net: &RoadNetwork, p: Point, radius: f64) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        if self.node_ids.is_empty() || radius < 0.0 {
            return out;
        }
        let (cx, cy) = self.cell_coords(&p);
        let reach = (radius / self.cell_size).ceil() as isize + 1;
        let x0 = (cx as isize - reach).max(0) as usize;
        let x1 = ((cx as isize + reach) as usize).min(self.nx - 1);
        let y0 = (cy as isize - reach).max(0) as usize;
        let y1 = ((cy as isize + reach) as usize).min(self.ny - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                for &id in self.cell_nodes(y * self.nx + x) {
                    let v = NodeId(id);
                    let d = net.point(v).distance(&p);
                    if d <= radius {
                        out.push((v, d));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_size_bytes(&self) -> usize {
        self.cell_offsets.capacity() * 4 + self.node_ids.capacity() * 4
    }

    fn cell_coords(&self, p: &Point) -> (usize, usize) {
        let cx =
            ((p.x - self.bbox.min.x) / self.cell_size).clamp(0.0, (self.nx - 1) as f64) as usize;
        let cy =
            ((p.y - self.bbox.min.y) / self.cell_size).clamp(0.0, (self.ny - 1) as f64) as usize;
        (cx, cy)
    }

    #[inline]
    fn cell_nodes(&self, cell: usize) -> &[u32] {
        let lo = self.cell_offsets[cell] as usize;
        let hi = self.cell_offsets[cell + 1] as usize;
        &self.node_ids[lo..hi]
    }

    /// Visits all cells at Chebyshev distance exactly `ring` from `(cx, cy)`.
    fn for_ring_cells<F: FnMut(usize)>(&self, cx: usize, cy: usize, ring: usize, mut f: F) {
        let r = ring as isize;
        let (cx, cy) = (cx as isize, cy as isize);
        for dy in -r..=r {
            for dx in -r..=r {
                if dx.abs().max(dy.abs()) != r {
                    continue;
                }
                let x = cx + dx;
                let y = cy + dy;
                if x >= 0 && (x as usize) < self.nx && y >= 0 && (y as usize) < self.ny {
                    f(y as usize * self.nx + x as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    fn grid_net(n: u32, spacing: f64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for y in 0..n {
            for x in 0..n {
                b.add_node(Point::new(x as f64 * spacing, y as f64 * spacing));
            }
        }
        // Connectivity irrelevant for spatial tests; add one edge for realism.
        b.add_edge(NodeId(0), NodeId(1), spacing).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn nearest_finds_closest_node() {
        let net = grid_net(5, 100.0);
        let idx = GridIndex::build(&net, 100.0);
        let (v, d) = idx.nearest(&net, Point::new(105.0, 95.0)).unwrap();
        // Closest grid point is (100, 100) = node index 1*5+1 = 6.
        assert_eq!(v, NodeId(6));
        assert!((d - 50f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nearest_exact_hit() {
        let net = grid_net(3, 50.0);
        let idx = GridIndex::build(&net, 75.0);
        let (v, d) = idx.nearest(&net, Point::new(100.0, 100.0)).unwrap();
        assert_eq!(v, NodeId(8));
        assert_eq!(d, 0.0);
    }

    #[test]
    fn nearest_far_outside_bbox() {
        let net = grid_net(3, 100.0);
        let idx = GridIndex::build(&net, 100.0);
        let (v, _) = idx.nearest(&net, Point::new(-5000.0, -5000.0)).unwrap();
        assert_eq!(v, NodeId(0));
        let (v, _) = idx.nearest(&net, Point::new(5000.0, 5000.0)).unwrap();
        assert_eq!(v, NodeId(8));
    }

    #[test]
    fn within_radius_matches_brute_force() {
        let net = grid_net(6, 80.0);
        let idx = GridIndex::build(&net, 120.0);
        let q = Point::new(200.0, 170.0);
        let r = 165.0;
        let got = idx.within(&net, q, r);
        let mut expected: Vec<(NodeId, f64)> = net
            .nodes()
            .map(|v| (v, net.point(v).distance(&q)))
            .filter(|&(_, d)| d <= r)
            .collect();
        expected.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn within_zero_radius() {
        let net = grid_net(3, 100.0);
        let idx = GridIndex::build(&net, 100.0);
        let hits = idx.within(&net, Point::new(100.0, 100.0), 0.0);
        assert_eq!(hits, vec![(NodeId(4), 0.0)]);
        assert!(idx.within(&net, Point::new(50.0, 50.0), 0.0).is_empty());
    }

    #[test]
    fn single_node_network() {
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(3.0, 4.0));
        b.add_node(Point::new(10.0, 4.0));
        b.add_edge(NodeId(0), NodeId(1), 7.0).unwrap();
        let net = b.build().unwrap();
        let idx = GridIndex::build(&net, 1000.0);
        let (v, d) = idx.nearest(&net, Point::new(0.0, 0.0)).unwrap();
        assert_eq!(v, NodeId(0));
        assert_eq!(d, 5.0);
    }

    #[test]
    fn nearest_tie_breaks_by_id() {
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(-10.0, 0.0));
        b.add_node(Point::new(10.0, 0.0));
        b.add_edge(NodeId(0), NodeId(1), 20.0).unwrap();
        let net = b.build().unwrap();
        let idx = GridIndex::build(&net, 5.0);
        let (v, d) = idx.nearest(&net, Point::new(0.0, 0.0)).unwrap();
        assert_eq!(v, NodeId(0));
        assert_eq!(d, 10.0);
    }
}
